"""The published raw van Kampen relation lists, encoded as relator words,
the published singularity tables of C_1 and C_2, and the stated
small-case presentations of C_1, C_2, T_{1,0}, T_{2,0} and T_{1,1} with
their own labelings.

Each entry is (tag, sing_kind, A, B) where the relator is branch A B^-1,
node [A, B], tangency (AB)^2((BA)^2)^-1. C-family generators are x1, x1p
(the conic pair) and x2.. for the lines; T-family generators are x1..xN.
"""

from conicline.bigness import FP_IDENTITY, ST_INV, T
from conicline.vankampen import RELATOR_SHAPES, Presentation, presentation
from conicline.words import Word, commutator, gen, invert, multiply, sq
from oracles import cyclic_canonical


def x(k, sign=1):
    return Word(((f"x{k}", sign),))


def xp(sign=1):
    return Word((("x1p", sign),))


def w(*parts):
    return multiply(*parts)


def desc(lo, hi):
    return list(range(hi, lo - 1, -1))


def relator(kind, a, b):
    return RELATOR_SHAPES[kind](a, b)


# ---------------------------------------------------------------- C family

def c1_relations():
    """Lemma: the three raw relations of C_1, verbatim."""
    return [
        ("branch 1", 1, x(1), xp()),
        ("tangency", 4, w(xp(), x(1), xp(-1)), x(2)),
        ("branch 2", 1, x(1), w(xp(-1), x(2, -1), xp(), x(2), xp())),
    ]


def c2_relations():
    """The five raw relations of C_2, verbatim."""
    return [
        ("branch 1", 1, x(1), xp()),
        ("tangency Q.L1", 4, w(xp(), x(1), xp(-1)), x(2)),
        ("node L1.L2", 2, x(3),
         w(x(2), xp(), x(1), xp(-1), x(2), xp(), x(1, -1), xp(-1), x(2, -1))),
        ("tangency Q.L2", 4, w(x(2), xp(), x(1), xp(-1), x(2, -1)), x(3)),
        ("branch 2", 1, x(1),
         w(xp(-1), x(2, -1), x(3, -1), xp(), x(3), x(2), xp())),
    ]


def cn_relations(n):
    """The general raw C_n list. The branch and node families follow the
    printed general proof (with the second branch relation's final letter
    corrected to x1'; the printed form contradicts the explicit n = 1, 2
    lists). The printed tangency family is already simplified through
    x1 = x1', so the raw forms here extrapolate the explicit n = 1, 2 lists:
    the transported conic loop is conjugated by the descending product of
    the passed line generators and x1'."""
    rels = [("branch 1", 1, x(1), xp())]
    b2 = w(xp(-1), *[x(k, -1) for k in range(2, n + 2)], xp(),
           *[x(k) for k in range(n + 1, 1, -1)], xp())
    rels.append(("branch 2", 1, x(1), b2))
    rels.append(("tangency i=2", 4, w(xp(), x(1), xp(-1)), x(2)))
    for i in range(3, n + 2):
        u = w(*[x(k) for k in range(i - 1, 1, -1)], xp())
        rels.append((f"tangency i={i}", 4, w(u, x(1), invert(u)), x(i)))
    for i in range(2, n + 2):
        for j in range(i + 1, n + 2):
            word = w(*[x(k) for k in range(j - 1, 1, -1)], xp(), x(1), xp(-1),
                     *[x(k, -1) for k in range(2, i)], x(i),
                     *[x(k) for k in range(i - 1, 1, -1)], xp(), x(1, -1), xp(-1),
                     *[x(k, -1) for k in range(2, j)])
            rels.append((f"node {i},{j}", 2, x(j), word))
    return rels


# ---------------------------------------------------------------- T_{n,0}

def tn0_relations(n):
    """The raw T_{n,0} list; valid for n >= 2 (index ranges specialize)."""
    R = []
    R.append(("r1", 1, x(n + 2), x(n + 3)))
    lhs = w(x(n), x(n - 1), x(n), x(n - 1, -1), x(n, -1))
    R.append(("r2", 1, lhs, w(x(n + 3), x(n + 1), x(n + 3, -1))))
    R.append(("r3", 1, lhs,
              w(x(n + 1, -1), x(n + 2, -1), x(n + 1), x(n + 2), x(n + 1))))
    b4 = w(*[x(k, -1) for k in range(1, n - 1)],
           x(n), x(n - 1, -1), x(n, -1),
           x(n + 3, -1), x(n + 4), x(n + 3), x(n + 2),
           x(n + 3, -1), x(n + 4, -1), x(n + 3),
           x(n), x(n - 1), x(n, -1),
           *[x(k) for k in desc(1, n - 2)])
    R.append(("r4", 1, x(n + 3), b4))
    R.append(("r5", 4, x(n + 1), x(n + 3)))
    R.append(("r6", 4, x(n + 1), x(n + 2)))
    R.append(("r7", 4, w(x(n), x(n - 1), x(n, -1)), x(n + 3)))
    R.append(("r8", 4, x(n + 2), x(n + 4)))
    for i in range(1, n - 1):
        R.append((f"r9_{i}", 4, x(i), x(n + 3)))
    for i in range(1, n - 1):
        R.append((f"r10_{i}", 2, x(i),
                  w(x(n + 3), x(n), x(n - 1), x(n, -1), x(n + 3, -1))))
    for i in range(1, n - 1):
        t = w(x(n - 1, -1), x(n), x(n - 1),
              *[x(k) for k in desc(i + 1, n - 2)], x(i),
              *[x(k, -1) for k in range(i + 1, n - 1)],
              x(n - 1, -1), x(n, -1), x(n - 1))
        R.append((f"r11_{i}", 2, w(x(n + 3, -1), x(n + 4), x(n + 3)), t))
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            R.append((f"r12_{i}_{j}", 2, x(i), w(x(n + 3), x(j), x(n + 3, -1))))
    for i in range(1, n - 1):
        t = w(*[x(k) for k in desc(i + 1, n - 2)], x(i),
              *[x(k, -1) for k in range(i + 1, n - 1)])
        R.append((f"r13_{i}", 2, x(n), t))
    for i in range(1, n - 1):
        t = w(*[x(k) for k in desc(i + 1, n - 2)], x(i),
              *[x(k, -1) for k in range(i + 1, n - 1)])
        R.append((f"r14_{i}", 2,
                  w(x(n), x(n - 1, -1), x(n, -1), x(n + 1), x(n), x(n - 1), x(n, -1)), t))
    R.append(("r15", 2, x(n - 1), x(n)))
    R.append(("r15 (dup)", 2, x(n - 1), x(n)))
    R.append(("r16", 2, w(x(n), x(n - 1), x(n), x(n - 1, -1), x(n, -1)),
              w(x(n + 1, -1), x(n + 2, -1), x(n + 3, -1), x(n + 4),
                x(n + 3), x(n + 2), x(n + 1))))
    R.append(("r17", 2, x(n + 1),
              w(x(n + 2, -1), x(n + 4, -1), x(n + 2, -1), x(n + 4),
                x(n + 2), x(n + 4), x(n + 2))))
    R.append(("r18", 2, w(x(n), x(n - 1), x(n, -1)),
              w(x(n + 3, -1), x(n + 4), x(n + 3))))
    return R


# ---------------------------------------------------------------- T_{n,m}

def tnm_relations(n, m):
    """The raw T_{n,m} list (23 relation families before the projective
    relation), with the second L1-crossing duplicate included."""
    R = []
    R.append(("r1", 1, x(2), x(3)))
    mid = w(*[x(i) for i in desc(3, n + 4)], x(2), *[x(i, -1) for i in range(3, n + 5)])
    R.append(("r2", 1, x(3),
              w(x(1, -1), x(3, -1), x(4, -1), x(5, -1), mid, x(5), x(4), x(3), x(1))))
    R.append(("r3", 1,
              w(x(4), x(3), x(2), x(3, -1), x(4), x(3), x(2, -1), x(3, -1), x(4, -1)),
              w(x(n + 5), x(5), x(n + 5, -1))))
    b4 = w(x(5, -1), *[x(i, -1) for i in range(n + 5, n + m + 5)],
           x(n + 5), x(5), x(n + 5, -1),
           *[x(i) for i in desc(n + 5, n + m + 4)], x(5))
    R.append(("r4", 1,
              w(x(3), x(1), x(3, -1), x(1, -1), x(3, -1), x(4),
                x(3), x(1), x(3), x(1, -1), x(3, -1)), b4))
    R.append(("r5", 4, w(x(3), x(2), x(3, -1)), x(4)))
    R.append(("r6", 4, w(x(3), x(1), x(3), x(1, -1), x(3, -1)), x(4)))
    R.append(("r7", 4, x(1), x(3)))
    for i in range(6, n + 5):
        t = w(*[x(k, -1) for k in range(3, i)], x(i), *[x(k) for k in desc(3, i - 1)])
        R.append((f"r8_{i}", 4, x(2), t))
    R.append(("r9", 4, x(5), x(n + 5)))
    for i in range(n + 6, n + m + 5):
        R.append((f"r10_{i}", 4, x(5), w(x(n + 5, -1), x(i), x(n + 5))))
    R.append(("r11", 2, w(x(3), x(1), x(3, -1)), x(5)))
    R.append(("r11 (dup)", 2, w(x(3), x(1), x(3, -1)), x(5)))
    for i in range(6, n + 5):
        R.append((f"r12_{i}", 2, w(x(5), x(4), x(5, -1)), x(i)))
    for i in range(6, n + 5):
        R.append((f"r13_{i}", 2,
                  w(x(5), x(3), x(1), x(3, -1), x(5), x(3), x(1, -1), x(3, -1), x(5, -1)),
                  x(i)))
    for i in range(6, n + 5):
        R.append((f"r14_{i}", 2, w(x(5), x(3), x(1), x(3, -1), x(5, -1)), x(i)))
    for i in range(6, n + 5):
        for j in range(i + 1, n + 5):
            a = w(*[x(k) for k in desc(4, j - 1)], x(3), x(2), x(3, -1),
                  *[x(k, -1) for k in range(4, i)], x(i),
                  *[x(k) for k in desc(4, i - 1)], x(3), x(2, -1), x(3, -1),
                  *[x(k, -1) for k in range(4, j)])
            R.append((f"r15_{i}_{j}", 2, a, x(j)))
    R.append(("r16", 2, w(x(4), x(3), x(2), x(3, -1), x(4, -1)), x(n + 5)))
    R.append(("r17", 2, w(x(3), x(1), x(3), x(1, -1), x(3, -1)), x(n + 5)))
    for i in range(n + 6, n + m + 5):
        t = w(*[x(k, -1) for k in range(n + 5, i)], x(i),
              *[x(k) for k in desc(n + 5, i - 1)])
        R.append((f"r18_{i}", 2,
                  w(x(5), x(4), x(3), x(2), x(3, -1), x(4, -1), x(5, -1)), t))
    for i in range(n + 6, n + m + 5):
        t = w(*[x(k, -1) for k in range(n + 5, i)], x(i),
              *[x(k) for k in desc(n + 5, i - 1)])
        R.append((f"r19_{i}", 2,
                  w(x(5), x(3), x(1), x(3), x(1, -1), x(3, -1), x(5, -1)), t))
    for i in range(n + 6, n + m + 5):
        R.append((f"r20_{i}", 2, x(n + 5), x(i)))
    for i in range(n + 6, n + m + 5):
        for j in range(i + 1, n + m + 5):
            a = w(x(n + 5), x(5, -1), x(n + 5, -1), x(i), x(n + 5), x(5), x(n + 5, -1))
            R.append((f"r21_{i}_{j}", 2, a, x(j)))
    for i in range(n + 5, n + m + 5):
        R.append((f"r22_{i}", 2, w(x(3), x(1), x(3, -1)),
                  w(x(n + 5, -1), x(i), x(n + 5))))
    for i in range(6, n + 5):
        for j in range(n + 5, n + m + 5):
            t = w(*[x(k, -1) for k in range(n + 5, j)], x(j),
                  *[x(k) for k in desc(n + 5, j - 1)])
            R.append((f"r23_{i}_{j}", 2, x(i), t))
    return R


def relator_words(relations):
    return [(tag, relator(kind, a, b)) for tag, kind, a, b in relations]


def match_relators(got, want):
    """Greedy multiset matching of relators up to cyclic rotation and
    inversion; returns (unmatched_want, unmatched_got)."""
    keys = [cyclic_canonical(gr) for _, gr in got]
    used = [False] * len(got)
    unmatched_want = []
    for tag, r in want:
        key = cyclic_canonical(r)
        hit = next((k for k in range(len(got)) if not used[k] and keys[k] == key), None)
        if hit is None:
            unmatched_want.append(tag)
        else:
            used[hit] = True
    unmatched_got = [got[k][0] for k in range(len(got)) if not used[k]]
    return unmatched_want, unmatched_got


# ---------------------------------------------------------------- singularity tables

def singularity_table_c1():
    return [
        {"point": "P1", "exponent": 1, "diffeomorphism": "half-twist R.I2 <1>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<1,2>", "exponent": 1, "diffeomorphism": "half-twist I2.R <1>"},
    ]


def singularity_table_c2():
    return [
        {"point": "P1", "exponent": 1, "diffeomorphism": "half-twist R.I2 <1>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<3,4>", "exponent": 2, "diffeomorphism": "Delta <3,4>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<1,2>", "exponent": 1, "diffeomorphism": "half-twist I2.R <1>"},
    ]


# ---------------------------------------------------------------- stated small cases

def _labels(ks):
    return [f"x{k}" for k in ks]


def presentation_c1_affine() -> Presentation:
    return presentation(_labels([1, 2]), [commutator(x(1), x(2))])


def presentation_c1_proj() -> Presentation:
    return presentation(_labels([1]), [])


def presentation_c2_affine() -> Presentation:
    x1, x2, x3 = x(1), x(2), x(3)
    rels = [sq(x1, x2), sq(x1, x3),
            commutator(x3, multiply(invert(x1), x2, x1)),
            commutator(multiply(x3, x2), x1)]
    return presentation(_labels([1, 2, 3]), rels)


def presentation_t10() -> Presentation:
    return presentation(_labels([1, 2]), [sq(x(1), x(2))])


def presentation_t20() -> Presentation:
    x1, x2, x3 = x(1), x(2), x(3)
    rels = [sq(x2, x3), sq(x1, x3), commutator(x1, x2),
            commutator(x2, multiply(x3, x1, invert(x3)))]
    return presentation(_labels([1, 2, 3]), rels)


def presentation_t11() -> Presentation:
    """<x1> + <x2, x3 | (x2 x3)^2 = (x3 x2)^2> as a direct sum."""
    x1, x2, x3 = x(1), x(2), x(3)
    rels = [sq(x2, x3), commutator(x1, x2), commutator(x1, x3)]
    return presentation(_labels([1, 2, 3]), rels)


# name -> (stated presentation, conic generator, helper generator)
SMALL_CASE_CERTIFICATES = {"T10": (presentation_t10, "x1", "x2"),
                           "T20": (presentation_t20, "x1", "x3"),
                           "T11": (presentation_t11, "x2", "x3")}


def small_case_certificate(name: str):
    """The published surjection of a small case onto Z/2 * Z/3, as the
    (source, images, witnesses) that `bigness.certify` checks: the conic
    generator goes to s t^-1, the helper to t and every other generator
    to 1."""
    build, conic, helper = SMALL_CASE_CERTIFICATES[name]
    source = build()
    images = dict.fromkeys(source.generators, FP_IDENTITY)
    images[conic] = ST_INV
    images[helper] = T
    return source, images, {"s": multiply(gen(conic), gen(helper)), "t": gen(helper)}
