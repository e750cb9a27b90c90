"""Walkthrough: building braid monodromy factorizations and auditing them.

Run as `python demos/demo_braid_monodromy.py`.
"""

import json

from conicline import (ABOVE, Arrangement, ConjugatedTwist, Skeleton, artin_action,
                       audit, braid_text, compile_factor, compile_skeleton,
                       exponent_sum, full_twist, word_text)
from conicline.catalog import bmf_to_json

print("= Half-twists and conjugated factors =")
print()
print("A half-twist along the below-axis path from fiber point 1 to 3, in B_3,")
print("compiles to a band word that is a conjugate of a single Artin letter:")
band = compile_skeleton(Skeleton(1, 3), 3)
print("   z_13  ->", braid_text(band))
print("The above-axis path is a different braid:")
print("   z̄_13  ->", braid_text(compile_skeleton(Skeleton(1, 3, ABOVE), 3)))
print()
print("Conjugation follows a^b = b^-1 a b. The factor (Z_34)^{Z̄_13^2} of the")
print("worked example compiles to:")
factor = ConjugatedTwist(Skeleton(3, 4), 1, ((Skeleton(1, 3, ABOVE), 2),))
print("  ", braid_text(compile_factor(factor, 4)))
print()

print("= The Artin action =")
print()
act = artin_action(compile_skeleton(Skeleton(1, 2), 3))
print("s_1 acts on the free group by:")
for lab, img in act.items():
    print(f"   {lab} -> {word_text(img)}")
print()
print("The full twist Delta^2 generates the center; its exponent sum is")
print("N(N-1) and it acts by conjugation with the boundary loop x_N...x_1:")
for n in (3, 4):
    print(f"   N={n}: exponent sum {exponent_sum(full_twist(n))}")
print()

print("= Factorization catalogs =")
print()
print("One conic with n tangent lines (C_n): factor counts by singularity type")
for n in (1, 2, 4):
    b = Arrangement("C", n).bmf()
    print(f"   C_{n}: {len(b.factors)} factors, counts {b.counts()}")
print()
print("Two tangent conics with n + m tangent lines (T_nm):")
for n, m in ((1, 1), (2, 2), (3, 4)):
    b = Arrangement("T", n, m).bmf()
    report = audit(b)
    print(f"   T_{n},{m}: {len(b.factors)} factors on {b.strand_count} strands; "
          f"audit {'passes' if report.passed else 'FAILS'} "
          f"(exponent sum {report.exponent_sum} = N(N-1))")
print()

print("= Audit detail for T_2,2 =")
report = audit(Arrangement("T", 2, 2).bmf())
for check in report.checks:
    print(f"   {check.name}: {'ok' if check.passed else 'FAIL'}  {check.detail}")
print()
print("Factors whose skeletons come from solved (figure-dependent) defaults")
print("are flagged provisional:")
for origin in audit(Arrangement("T", 2, 2).bmf()).provisional_factors:
    print("   ", origin)
print()
print("Everything serializes to JSON (see `conicline bmf T --n 2 --m 2 --json`):")
print(json.dumps(bmf_to_json(Arrangement("C", 1).bmf()), indent=2)[:400], "...")
