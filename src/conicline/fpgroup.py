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
from operator import itemgetter

from .finite_groups import BATTERY, DEFAULT_BATTERY, FiniteGroup
from .vankampen import Presentation, cyclic_canonical, cyclic_reduce
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
    and the diagonal entries positive and forming a divisibility chain.

    One pivot loop: each step moves the smallest nonzero entry of the
    remaining block to the pivot and reduces its row and column by it. A
    remainder, or a block entry the pivot does not divide (its row is then
    added to the pivot row), sends the step round again with a strictly
    smaller |pivot|, so the loop terminates."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity_matrix(rows)
    v = _identity_matrix(cols)

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    for t in range(min(rows, cols)):
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
                if best and best[0] == 1:
                    break
            if best is None:
                return a, u, v
            _, pi, pj = best
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            for r in a + v:
                r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    add_row(t, i, -q)
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    add_col(t, j, -q)
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            if p not in (1, -1):
                bad = next((i for i in range(t + 1, rows)
                            if any(x % p for x in a[i][t + 1:])), None)
                if bad is not None:
                    add_row(bad, t, 1)
                    continue
            break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
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
            key = cyclic_canonical(r)
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


# A relator whose head and segments read at most this many generators keys
# its masks first on those generators' values: at most |G|^3 keys per
# relator, 13,824 for S4. Keying every relator on its values grows the memos
# as |G|^reads: on the `homcount-stated` benchmark workload it raised the
# peak RSS from 27.7 to 30.9 MB and was no faster. A value-key miss falls
# back to the memo keyed on head and segment values, which answers 12,542 of
# the 21,393 misses in one sweep of that workload.
VALUE_KEY_GENERATORS = 3


def count_homs(p: Presentation, target: FiniteGroup) -> int:
    """Number of homomorphisms into `target`: assignments generator -> element
    under which every relator evaluates to the identity.

    Backtracking search over the generators in a greedy order that lets short
    relators close early; a relator closes at the depth d of its last
    generator in that order.

    Conjugation symmetry: if phi is a homomorphism, so is g phi g^-1. The
    first generator therefore takes one representative per conjugacy class
    of the target, weighted by the class size, and the second takes one
    representative per orbit of that representative's centralizer (acting
    by conjugation), weighted by the orbit size.

    Candidate masks: a relator closing at depth d is rotated to end with an
    x_d letter and split into a head and the segments between its x_d
    letters. The x_d images it allows, as a bitmask over the target's
    elements, depend only on the values of the head and segments. They are
    computed once per key of those values and kept in a memo that belongs
    to the relator and lives only inside this call.

    Value keys: a relator whose head and segments read at most
    VALUE_KEY_GENERATORS generators first looks its mask up by the values
    assigned to those generators, so a hit evaluates no word. Only a miss
    evaluates the head and segments, and falls back to the memo keyed on
    their values. A relator that reads more generators keeps that memo
    alone, which bounds the value-keyed memos at |G|^3 entries each.

    Hoisting and forward checking: the key is fixed once the deepest
    generator read by the head and segments, x_h, is assigned. The mask is
    looked up right then and ANDed into the pending candidate mask of depth
    d; a relator in x_d alone is ANDed in before the search. A subtree is
    pruned as soon as any pending mask is empty. Every relator hoisted to
    the last depth but one closes at the last depth, so there each
    candidate contributes the number of bits its masks leave in the last
    depth's pending mask, with no copy of the pending masks and no deeper
    call.
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
    mult, inv, ident = target.mult, target.inv, target.identity
    every = range(target.order)
    assignment = [0] * k

    def value(letters) -> int:
        acc = ident
        for px, sign in letters:
            e = assignment[px]
            acc = mult[acc][e if sign > 0 else inv[e]]
        return acc

    def allowed(shape) -> int:
        """Bitmask of the x_d images under which a relator of this shape
        evaluates to the identity, for the current values of its head and
        segments."""
        parts, positive, final, memo = shape
        key = tuple(map(value, parts))
        mask = memo.get(key)
        if mask is None:
            mask = 0
            head, *segs = key
            steps = tuple(zip(positive, segs))
            for e in every:
                ie = inv[e]
                acc = head
                for pos_sign, sv in steps:
                    acc = mult[mult[acc][e if pos_sign else ie]][sv]
                # acc * x_d^final is the identity
                if acc == (ie if final > 0 else e):
                    mask |= 1 << e
            memo[key] = mask
        return mask

    def lookup(rel) -> int:
        """allowed() for a hoisted relator, first from its value-keyed memo
        when it has one."""
        _, reads, memo, shape = rel
        if reads is None:
            return allowed(shape)
        key = reads(assignment)
        mask = memo.get(key)
        if mask is None:
            mask = memo[key] = allowed(shape)
        return mask

    # A relator closing at depth d, rotated to end with an x_d letter, reads
    # head * x_d^s1 * seg1 * ... * x_d^s(m-1) * seg(m-1) * x_d^final. Its
    # shape is ((head, seg1, ...), (s1 > 0, ...), final, part-value memo).
    # Unless it reads no generator, it is kept as (d, reads, value-keyed
    # memo, shape) in hoisted[h], h being the deepest generator its head
    # and segments read; `reads` is None when they read more than
    # VALUE_KEY_GENERATORS generators, else an itemgetter of their values.
    pending = [(1 << target.order) - 1] * k
    hoisted: list[list[tuple]] = [[] for _ in range(k)]
    for r in p.relators:
        if not r:
            continue
        lets = [(pos[lab], sign) for lab, sign in r.letters]
        depth = max(px for px, _ in lets)
        last = max(i for i, (px, _) in enumerate(lets) if px == depth)
        parts: list[list[tuple[int, int]]] = [[]]
        positive = []
        for px, sign in lets[last + 1:] + lets[:last]:
            if px == depth:
                parts.append([])
                positive.append(sign > 0)
            else:
                parts[-1].append((px, sign))
        shape = (parts, tuple(positive), lets[last][1], {})
        read = sorted({px for part in parts for px, _ in part})
        if not read:
            pending[depth] &= allowed(shape)
        elif len(read) <= VALUE_KEY_GENERATORS:
            hoisted[read[-1]].append((depth, itemgetter(*read), {}, shape))
        else:
            hoisted[read[-1]].append((depth, None, None, shape))

    def narrow(depth: int, pending: list[int]):
        """The pending masks once x_depth is assigned, or None when a relator
        hoisted to this depth leaves some depth without candidates."""
        rels = hoisted[depth]
        if not rels:
            return pending
        pending = pending.copy()
        for rel in rels:
            d = rel[0]
            mask = pending[d] & lookup(rel)
            if not mask:
                return None
            pending[d] = mask
        return pending

    def below(depth: int, pending: list[int]) -> int:
        """Completions of the assignment of x_0 .. x_{depth-1}."""
        mask = pending[depth]
        if depth + 1 == k:
            return mask.bit_count()
        total = 0
        if depth + 2 == k:
            rels = hoisted[depth]
            last = pending[depth + 1]
            while mask:
                low = mask & -mask
                mask ^= low
                assignment[depth] = low.bit_length() - 1
                left = last
                for rel in rels:
                    left &= lookup(rel)
                total += left.bit_count()
            return total
        while mask:
            low = mask & -mask
            mask ^= low
            assignment[depth] = low.bit_length() - 1
            child = narrow(depth, pending)
            if child is not None:
                total += below(depth + 1, child)
        return total

    def weighted(depth: int, pending: list[int], sizes: dict[int, int]) -> int:
        """below() at depths 0 and 1, where x_depth takes one representative
        per conjugation orbit, weighted by the orbit size."""
        mask = pending[depth]
        total = 0
        for e, size in sizes.items():
            if not mask >> e & 1:
                continue
            if depth + 1 == k:
                total += size
                continue
            assignment[depth] = e
            child = narrow(depth, pending)
            if child is None:
                continue
            if depth == 0:
                total += size * weighted(1, child, target.centralizer_orbits[e])
            else:
                total += size * below(2, child)
        return total

    return weighted(0, pending, target.conjugacy_classes)


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


def battery_names(battery=None) -> tuple[str, ...]:
    """The group names of a fingerprint battery: DEFAULT_BATTERY for None. A
    battery that is a string, is empty or names an unknown group raises
    ValueError naming the valid groups."""
    valid = f"(valid groups: {', '.join(BATTERY)})"
    if isinstance(battery, str):
        raise ValueError(f"a battery is a sequence of group names, not the string "
                         f"{battery!r} {valid}")
    names = DEFAULT_BATTERY if battery is None else tuple(battery)
    if not names:
        raise ValueError(f"empty battery {valid}")
    unknown = [name for name in names if not isinstance(name, str) or name not in BATTERY]
    if unknown:
        raise ValueError(f"unknown battery groups: {', '.join(map(str, unknown))} {valid}")
    return names


def fingerprint(p: Presentation, battery=None) -> Fingerprint:
    """Hom counts into each battery group. The input is Tietze-simplified
    first (hom counts are presentation-independent); S4 is skipped when more
    than six generators survive simplification. The battery is checked by
    `battery_names`."""
    names = battery_names(battery)
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
