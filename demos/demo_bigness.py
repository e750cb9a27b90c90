"""Walkthrough: certifying that the arrangement groups are big.

A group is big when it contains a free subgroup of rank at least two. The
certificates here exhibit an explicit surjection onto Z/2 * Z/3 (which is
classically big), verified by free-product normal forms.

Run as `python demos/demo_bigness.py`.
"""

from conicline import Arrangement, FPWord, certify, certify_certificate, fp_text
from conicline.bigness import FP_IDENTITY, S, T
from conicline.words import gen, multiply

print("= Normal forms in Z/2 * Z/3 =")
print()
print("Words alternate between s (order 2) and powers of t (order 3):")
print("   s t t t s s        ->", fp_text(FPWord((("s", 1), ("t", 1), ("t", 1),
                                                  ("t", 1), ("s", 1), ("s", 1)))))
print("   (s t^-1)(t s)      ->", fp_text(FPWord((("s", 1), ("t", -1), ("t", 1), ("s", 1)))))
print()

print("= The quotient argument, mechanically =")
print()
print("The projective group of C_2 is <a, b | (ab)^2 = (ba)^2>. Sending")
print("a -> s t^-1 and b -> t kills the relator:")
a, b = S * ~T, T
ab = a * b
print("   (ab)^2 ->", fp_text(ab * ab), "  (ba)^2 ->", fp_text((b * a) * (b * a)))
print("and hits both generators: s = (a)(b), t = b. That is a surjection onto")
print("Z/2 * Z/3, so the group is big.")
print()

print("= Standard certificates across the families =")
print()
for arrangement in (Arrangement("C", 2), Arrangement("C", 5), Arrangement("T"),
                    Arrangement("T", 3), Arrangement("T", 2, 2), Arrangement("T", 5, 5)):
    cert = arrangement.certificate()
    report = certify_certificate(cert)
    images = {k: fp_text(v) for k, v in cert.images.items() if v}
    print(f"   {arrangement.family} n={arrangement.n} m={arrangement.m}: "
          f"{'passes' if report.passed else 'FAILS'}; nontrivial images {images}")
print()

print("= Negative controls =")
print()
p = Arrangement("C", 2).certificate().source  # <x1, x2 | (x1 x2)^2 = (x2 x1)^2>
witnesses = {"s": multiply(gen("x1"), gen("x2")), "t": gen("x2")}
trivial = certify(p, {"x1": FP_IDENTITY, "x2": FP_IDENTITY}, witnesses)
print("   map everything to e: relators pass, surjectivity fails ->",
      "rejected" if not trivial.passed else "accepted?!")
both_s = certify(p, {"x1": S, "x2": S}, witnesses)
print("   map both generators to s: t-witness fails ->",
      "rejected" if not both_s.passed else "accepted?!")
