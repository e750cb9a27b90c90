"""Walkthrough: van Kampen presentations, simplification, and verification.

Run as `python demos/demo_fundamental_groups.py`.
"""

from conicline import (Arrangement, abelianization, compare, fingerprint,
                       raw_presentation, tietze_simplify)
from conicline.vankampen import presentation_text

print("= From factorization to presentation =")
print()
print("Each monodromy factor contributes one relator: branch points identify")
print("two loops, nodes make them commute, tangencies impose (AB)^2 = (BA)^2.")
print()
print("Raw affine presentation for one conic and one tangent line:")
c1 = Arrangement("C", 1).bmf()
print(presentation_text(raw_presentation(c1)))
print()
print("Adding the projective relation x_N ... x_1 = e and simplifying:")
proj = raw_presentation(c1, projective=True)
simplified = tietze_simplify(proj).presentation
print(f"   generators {simplified.generators}, relators {simplified.relators}")
print("   -> the projective complement of C_1 has fundamental group Z")
print()

print("= Abelianization (Smith normal form) =")
print()
print("The abelianized group always has free rank = components - 1, torsion-free:")
for n, m in ((1, 1), (2, 2), (3, 2)):
    res = abelianization(raw_presentation(Arrangement("T", n, m).bmf(), projective=True))
    print(f"   T_{n},{m}: rank {res.rank_free} = n+m+1, torsion {list(res.torsion) or 'none'}")
print()

print("= Homomorphism-count fingerprints =")
print()
print("Counting homomorphisms into small permutation groups is an isomorphism")
print("invariant, so it cross-checks the raw group against the stated")
print("simplified presentation without trusting either derivation:")
t11 = Arrangement("T", 1, 1)
raw = raw_presentation(t11.bmf(), projective=True)
stated = t11.stated()
print("   raw    T_1,1:", fingerprint(raw, ("S3", "D4", "A4")).counts)
print("   stated T_1,1:", fingerprint(stated, ("S3", "D4", "A4")).counts)
report = compare(raw, stated, ("S3", "D4", "A4"))
print("   verdict:", report.verdict)
print()
for n in (2, 3):
    cn = Arrangement("C", n)
    report = compare(raw_presentation(cn.bmf(), projective=True), cn.stated(),
                     ("S3", "A4"))
    print(f"   C_{n} raw vs stated: {report.verdict}  {report.per_target}")
print()
print("(Equal fingerprints are necessary, not sufficient, for isomorphism;")
print("the reports therefore say 'consistent', never 'isomorphic'.)")
