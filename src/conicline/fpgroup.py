"""Finitely presented group toolkit: Tietze simplification, abelianization
via integer Smith normal form, and homomorphism-count fingerprints into
small permutation groups.

Fingerprints are isomorphism invariants (the number of homomorphisms into a
fixed finite group does not depend on the presentation), so they serve as a
consistency oracle between the raw van Kampen presentations and the stated
simplified ones. Equal fingerprints are reported as "consistent", never as
a proof of isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .finite_groups import BATTERY, DEFAULT_BATTERY, FiniteGroup
from .vankampen import Presentation, cyclic_reduce
from .words import Word, invert, multiply, substitute

# --------------------------------------------------------------------------
# Smith normal form over the integers, with recorded transforms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    """diagonal: the nonzero invariant factors d_1 | d_2 | ...; rank_free:
    number of generators not constrained (columns beyond the support)."""
    diagonal: tuple[int, ...]
    rank_free: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: list[list[int]]):
    """Return (S, U, V) with U @ matrix @ V = S diagonal, U, V unimodular,
    and the diagonal entries forming a divisibility chain."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity_matrix(rows)
    v = _identity_matrix(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best, pivot = abs(a[i][j]), (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                add_col(i + 1, i, 1)
                # re-diagonalize the 2x2 block
                while a[i + 1][i]:
                    if abs(a[i + 1][i]) <= abs(a[i][i]):
                        q = a[i][i] // a[i + 1][i]
                        add_row(i + 1, i, -q)
                        swap_rows(i, i + 1)
                    else:
                        q = a[i + 1][i] // a[i][i]
                        add_row(i, i + 1, -q)
                for j in (i, i + 1):
                    if a[i][j] and j != i:
                        q = a[i][j] // a[i][i]
                        add_col(i, j, -q)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                changed = True
    return a, u, v


def relator_matrix(p: Presentation) -> list[list[int]]:
    cols = {g.label: k for k, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [0] * len(cols)
        for lab, sign in r.letters:
            row[cols[lab]] += sign
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> SNFResult:
    m = relator_matrix(p)
    if not m:
        return SNFResult((), len(p.generators))
    s, _, _ = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0]))) if s[i][i] != 0]
    return SNFResult(tuple(diag), len(p.generators) - len(diag))


# --------------------------------------------------------------------------
# Tietze simplification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    passes: int
    exhausted: bool


def _canonical_cyclic(w: Word) -> tuple:
    w = cyclic_reduce(w)
    if not w:
        return ()
    best = None
    for cand in (w.letters, invert(w).letters):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or rot < best:
                best = rot
    return best


def _solve_generator(r: Word, label: str) -> Word:
    """Given a relator with exactly one occurrence of `label`, express it in
    the remaining generators: r = p g^s q = e  =>  g^s = p^-1 q^-1."""
    idx = next(k for k, (lab, _) in enumerate(r.letters) if lab == label)
    sign = r.letters[idx][1]
    p = Word(r.letters[:idx])
    q = Word(r.letters[idx + 1:])
    sol = multiply(invert(p), invert(q))
    return sol if sign > 0 else invert(sol)


def _rotations(s: Word) -> list[tuple]:
    """The cyclic rotations of s, then those of s^-1, each by start offset,
    as (leading bigram, doubled letters, start) triples: the rotation is
    doubled[start:start + len(s)]."""
    out = []
    for cand in (s, invert(s)):
        doubled = cand.letters + cand.letters
        out.extend((doubled[start:start + 2], doubled, start)
                   for start in range(len(s)))
    return out


def _bigram_index(letters) -> dict:
    """Positions k of a letter sequence by the bigram letters[k:k + 2], in
    ascending order."""
    index: dict = {}
    for k in range(len(letters) - 1):
        index.setdefault(letters[k:k + 2], []).append(k)
    return index


def _shorten_with(r: Word, index: dict, rotations: list, cap: int) -> Word:
    """Shorten r by replacing pieces of a relator s: `index` is
    `_bigram_index(r.letters)` and `rotations` is `_rotations(s)`.

    The rule, on which the golden Tietze outputs depend: with n = |s| and
    half = n // 2 + 1, while |r| <= cap, take the first rotation of s in the
    order of `_rotations` (s first, then s^-1, each by start offset) whose
    longest prefix of length half..n-1 occurs in r; replace the first
    occurrence of that longest prefix by the inverse of the rest of the
    rotation and cyclically reduce. Stop when no rotation has such a prefix.
    A piece of pl > n/2 letters becomes n - pl < pl letters, so every
    replacement strictly shortens r.

    A piece has at least half >= 2 letters, so only the positions of r that
    start with a rotation's leading bigram are extended.
    """
    n = len(rotations) // 2
    if n < 3:
        return r
    half = n // 2 + 1
    while len(r) <= cap:
        letters = r.letters
        size = len(letters)
        for bigram, doubled, start in rotations:
            longest = half - 1
            for k in index.get(bigram, ()):
                m = 2
                stop = min(n - 1, size - k)
                while m < stop and letters[k + m] == doubled[start + m]:
                    m += 1
                if m > longest:
                    longest, at = m, k
                    if m == n - 1:
                        break
            if longest >= half:
                break
        else:
            return r
        repl = tuple((lab, -sg) for lab, sg
                     in reversed(doubled[start + longest:start + n]))
        r = cyclic_reduce(Word(letters[:at] + repl + letters[at + longest:]))
        index = _bigram_index(r.letters)
    return r


def tietze_simplify(p: Presentation, max_passes: int = 50) -> TietzeResult:
    """Eliminate redundant generators and shorten relators.

    Deterministic; every move is an elementary Tietze transformation, so the
    isomorphism type is preserved (tested via fingerprints). Returns the
    best presentation found within the pass budget. No relator may grow
    past four times the longest input relator (at least 4 letters).
    """
    gens = list(p.generators)
    relators = list(p.relators)
    cap = max(4, 4 * max((len(r) for r in relators), default=0))
    passes = 0
    exhausted = False
    while True:
        if passes >= max_passes:
            exhausted = True
            break
        passes += 1
        changed = False
        # (a) reduce + dedupe (up to rotation and inversion) + drop trivial
        seen = set()
        cleaned = []
        for r in relators:
            r = cyclic_reduce(r)
            key = _canonical_cyclic(r)
            if not key or key in seen:
                changed = changed or bool(r) or key in seen
                continue
            seen.add(key)
            cleaned.append(r)
        if len(cleaned) != len(relators):
            changed = True
        relators = cleaned
        # (b) eliminate a generator occurring exactly once in some relator;
        # primed (conic) generators go first, then shortest defining relator.
        candidates = []
        for ridx, r in enumerate(relators):
            occurrences = {}
            for lab, _ in r.letters:
                occurrences[lab] = occurrences.get(lab, 0) + 1
            for lab, cnt in occurrences.items():
                if cnt == 1:
                    primed = 0 if lab.endswith("p") else 1
                    candidates.append((primed, len(r), lab, ridx))
        if candidates:
            candidates.sort()
            _, _, label, ridx = candidates[0]
            image = _solve_generator(relators[ridx], label)
            relators = [cyclic_reduce(substitute(r, {label: image}))
                        for k, r in enumerate(relators) if k != ridx]
            gens = [g for g in gens if g.label != label]
            changed = True
        else:
            # (c) bounded shortening of relators against each other
            rotations = [_rotations(r) for r in relators]
            for i in range(len(relators)):
                index = _bigram_index(relators[i].letters)
                for j in range(len(relators)):
                    if i == j:
                        continue
                    shorter = _shorten_with(relators[i], index, rotations[j], cap)
                    if len(shorter) < len(relators[i]):
                        relators[i] = shorter
                        index = _bigram_index(shorter.letters)
                        rotations[i] = _rotations(shorter)
                        changed = True
        if not changed:
            break
    out = Presentation(tuple(gens), tuple(relators))
    return TietzeResult(out, passes, exhausted)


# --------------------------------------------------------------------------
# homomorphism counting
# --------------------------------------------------------------------------


def count_homs(p: Presentation, target: FiniteGroup) -> int:
    """Number of homomorphisms into `target`: assignments generator -> element
    under which every relator evaluates to the identity.

    Backtracking search over the generators in a greedy order that lets short
    relators close early; a relator is checked at the depth of its last
    generator in that order.

    Conjugation symmetry: if phi is a homomorphism, so is g phi g^-1. The
    first generator therefore takes one representative per conjugacy class
    of the target, weighted by the class size, and the second takes one
    representative per orbit of that representative's centralizer (acting
    by conjugation), weighted by the orbit size.

    Segment evaluation: a relator closing at depth d is rotated to end with
    an x_d letter and split into the segments between its x_d letters. The
    segments are evaluated once per parent node, so each of the |G| children
    costs two table lookups per occurrence of x_d before the last one.
    """
    labels = [g.label for g in p.generators]
    k = len(labels)
    if k == 0:
        return 1 if all(not r for r in p.relators) else 0
    # order generators greedily so short relators close early
    rel_labels = [frozenset(lab for lab, _ in r.letters) for r in p.relators]
    order: list[str] = []
    remaining = set(labels)
    while remaining:
        def fire_score(lab):
            fired = sum(1 for ls in rel_labels
                        if lab in ls and ls <= set(order) | {lab})
            return (-fired, labels.index(lab))
        nxt = min(remaining, key=fire_score)
        order.append(nxt)
        remaining.discard(nxt)
    pos = {lab: i for i, lab in enumerate(order)}
    # by_depth[d]: (head, steps, final) per relator closing at depth d, where
    # the relator rotated to end with an x_d letter reads
    # head * x_d^s1 * seg1 * ... * x_d^s(m-1) * seg(m-1) * x_d^final
    # and steps = ((s1, seg1), ..., (s(m-1), seg(m-1))).
    by_depth: list[list[tuple]] = [[] for _ in range(k)]
    for r in p.relators:
        if not r:
            continue
        lets = [(pos[lab], sign) for lab, sign in r.letters]
        depth = max(px for px, _ in lets)
        last = max(i for i, (px, _) in enumerate(lets) if px == depth)
        final = lets[last][1]
        head: list[tuple[int, int]] = []
        steps = []
        seg = head
        for px, sign in lets[last + 1:] + lets[:last]:
            if px == depth:
                seg = []
                steps.append((sign, seg))
            else:
                seg.append((px, sign))
        by_depth[depth].append((head, steps, final))
    mult, inv, ident = target.mult, target.inv, target.identity
    assignment = [0] * k

    def value(letters) -> int:
        acc = ident
        for px, sign in letters:
            e = assignment[px]
            acc = mult[acc][e if sign > 0 else inv[e]]
        return acc

    def survivors(depth: int, candidates):
        """The candidates for x_depth under which every relator closing at
        this depth evaluates to the identity."""
        for head, steps, final in by_depth[depth]:
            if not candidates:
                break
            acc0 = value(head)
            segs = [(sign > 0, value(seg)) for sign, seg in steps]
            kept = []
            for e in candidates:
                ie = inv[e]
                acc = acc0
                for pos_sign, sv in segs:
                    acc = mult[mult[acc][e if pos_sign else ie]][sv]
                # acc * x_d^final is the identity
                if acc == (ie if final > 0 else e):
                    kept.append(e)
            candidates = kept
        return candidates

    every = range(target.order)

    def below(depth: int) -> int:
        """Completions of the assignment of x_0 .. x_{depth-1}."""
        if depth == k:
            return 1
        kept = survivors(depth, every)
        if depth + 1 == k:
            return len(kept)
        total = 0
        for e in kept:
            assignment[depth] = e
            total += below(depth + 1)
        return total

    classes = target.conjugacy_classes
    total = 0
    for a in survivors(0, classes):
        assignment[0] = a
        if k == 1:
            total += classes[a]
            continue
        orbits = target.centralizer_orbits[a]
        for b in survivors(1, orbits):
            assignment[1] = b
            total += classes[a] * orbits[b] * below(2)
    return total


# --------------------------------------------------------------------------
# fingerprints and comparison
# --------------------------------------------------------------------------

S4_GENERATOR_LIMIT = 6


@dataclass(frozen=True)
class Fingerprint:
    counts: dict[str, int] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"counts": dict(self.counts), "skipped": list(self.skipped)}


def fingerprint(p: Presentation, battery=None) -> Fingerprint:
    """Hom counts into each battery group. The input is Tietze-simplified
    first (hom counts are presentation-independent); S4 is skipped when more
    than six generators survive simplification. `battery=None` selects the
    default battery; an empty battery raises ValueError."""
    names = DEFAULT_BATTERY if battery is None else tuple(battery)
    if not names:
        raise ValueError("empty fingerprint battery "
                         f"(valid groups: {', '.join(BATTERY)})")
    q = tietze_simplify(p).presentation
    counts = {}
    skipped = []
    for name in names:
        group = BATTERY[name]
        if name == "S4" and len(q.generators) > S4_GENERATOR_LIMIT:
            skipped.append(name)
            continue
        counts[name] = count_homs(q, group)
    return Fingerprint(counts, tuple(skipped))


@dataclass(frozen=True)
class CompareReport:
    per_target: dict[str, tuple[int, int]]
    verdict: str  # "consistent" | "distinguished"
    skipped: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_json(self) -> dict:
        return {"per_target": {k: list(v) for k, v in self.per_target.items()},
                "verdict": self.verdict, "skipped": list(self.skipped)}


def compare(p1: Presentation, p2: Presentation, battery=None) -> CompareReport:
    f1 = fingerprint(p1, battery)
    f2 = fingerprint(p2, battery)
    shared = [k for k in f1.counts if k in f2.counts]
    per = {k: (f1.counts[k], f2.counts[k]) for k in shared}
    verdict = "consistent" if all(a == b for a, b in per.values()) else "distinguished"
    skipped = tuple(sorted(set(f1.skipped) | set(f2.skipped)))
    return CompareReport(per, verdict, skipped)
