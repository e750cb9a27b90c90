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

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .finite_groups import BATTERY, DEFAULT_BATTERY, FiniteGroup
from .vankampen import Presentation
from .words import Word

# --------------------------------------------------------------------------
# Smith normal form over the integers: the invariant factors
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


def smith_normal_form(matrix: list[list[int]]) -> tuple[int, ...]:
    """The invariant factors of an integer matrix: the nonzero diagonal
    entries of its Smith normal form, positive and forming a divisibility
    chain d_1 | d_2 | ...

    One pivot loop: each step moves the smallest nonzero entry of the
    remaining block to the pivot and reduces its row and column by it. A
    remainder, or a block entry the pivot does not divide (its row is then
    added to the pivot row), sends the step round again with a strictly
    smaller |pivot|, so the loop terminates."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
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
                return tuple(factors)
            _, pi, pj = best
            a[t], a[pi] = a[pi], a[t]
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            if p not in (1, -1):
                bad = next((i for i in range(t + 1, rows)
                            if any(x % p for x in a[i][t + 1:])), None)
                if bad is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[bad])]
                    continue
            break
        factors.append(abs(a[t][t]))
    return tuple(factors)


def relator_matrix(p: Presentation) -> list[list[int]]:
    cols = {lab: k for k, lab in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [0] * len(cols)
        for lab, sign in r.letters:
            row[cols[lab]] += sign
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> SNFResult:
    diagonal = smith_normal_form(relator_matrix(p))
    return SNFResult(diagonal, len(p.generators) - len(diagonal))


# --------------------------------------------------------------------------
# Tietze simplification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    passes: int
    exhausted: bool


def _alphabet(labels) -> tuple[list, dict, dict]:
    """Tietze's encoding of words over `labels` as strings, one character
    per letter: generator k is chr(2k) and its inverse chr(2k + 1), so
    inverting a letter flips the low bit of its code point. Returns the
    letters by code point, the character of each letter, and `flip`, the
    `str.translate` table o -> o ^ 1 that `_invert` takes."""
    letters = [(lab, sign) for lab in labels for sign in (1, -1)]
    code = {letter: chr(o) for o, letter in enumerate(letters)}
    return letters, code, {o: o ^ 1 for o in range(len(letters))}


def _invert(s: str, flip: dict) -> str:
    """The inverse of an encoded word."""
    return s[::-1].translate(flip)


def _reduce(s: str) -> str:
    """The string kernel of Tietze's free reduction: the encoded word s,
    freely and then cyclically reduced (code points o and o ^ 1 are
    inverse letters)."""
    out = []
    for c in s:
        if out and ord(out[-1]) ^ 1 == ord(c):
            out.pop()
        else:
            out.append(c)
    i, j = 0, len(out) - 1
    while i < j and ord(out[i]) ^ 1 == ord(out[j]):
        i += 1
        j -= 1
    return "".join(out[i:j + 1])


def _solve_generator(s: str, pos: str, neg: str, flip: dict) -> str:
    """Given an encoded relator s = u g^e v with exactly one letter of g,
    whose characters are `pos` and `neg` (g and g^-1), express g in the
    remaining generators: the encoded word g = (v u)^-e."""
    idx = max(s.find(pos), s.find(neg))
    vu = s[idx + 1:] + s[:idx]
    return _invert(vu, flip) if s[idx] == pos else vu


def _rotations(s: str, flip: dict) -> list[tuple]:
    """The cyclic rotations of the encoded relator s, then those of s^-1,
    each by start offset, as (head, doubled, start) triples: the rotation
    is doubled[start:start + n] and its head is its first half letters
    (n = |s|, half = n // 2 + 1)."""
    n = len(s)
    half = n // 2 + 1
    out = []
    for cand in (s, _invert(s, flip)):
        doubled = cand + cand
        out.extend((doubled[start:start + half], doubled, start)
                   for start in range(n))
    return out


def _shorten_with(r: str, rotations: list, flip: dict) -> str:
    """Shorten the encoded relator r by replacing pieces of a relator s,
    given as `_rotations(s, flip)`, with |s| >= 3.

    The rule, on which the golden Tietze outputs depend: with n = |s| and
    half = n // 2 + 1, repeatedly take the first rotation of s in the
    order of `_rotations` (s first, then s^-1, each by start offset) whose
    longest prefix of length half..n-1 occurs in r; replace the first
    occurrence of that longest prefix by the inverse of the rest of the
    rotation and cyclically reduce. Stop when no rotation has such a prefix.
    A piece of pl > n/2 letters becomes n - pl < pl letters, so every
    replacement strictly shortens r.

    As n >= 3, half <= n - 1, so a prefix of half..n-1 letters occurs in r
    exactly when the rotation's head (its first half letters) does. The
    first rotation whose head is in r is therefore the one the rule takes;
    only the positions where `str.find` finds that head are extended, in
    ascending order, so the earliest longest piece wins. When no head is in
    r, the first loop returns r itself, unchanged.
    """
    n = len(rotations) // 2
    half = n // 2 + 1
    while True:
        for head, doubled, start in rotations:
            if head in r:
                break
        else:
            return r
        size = len(r)
        longest = 0
        k = r.find(head)
        while k >= 0:
            m = half
            stop = min(n - 1, size - k)
            while m < stop and r[k + m] == doubled[start + m]:
                m += 1
            if m > longest:
                longest, at = m, k
                if m == n - 1:
                    break
            k = r.find(head, k + 1)
        repl = _invert(doubled[start + longest:start + n], flip)
        r = _reduce(r[:at] + repl + r[at + longest:])


class _Relator:
    """A current relator of `tietze_simplify`, the encoded string `s`, with
    what the passes derive from s alone, each built when first needed: the
    pass-(a) `bag`, the letters of s with both signs folded onto the even
    code point, sorted, which no rotation or inversion changes, and `key`,
    the least string among the rotations of s and of its inverse; the
    pass-(b) `single`, the least (unprimed, label) of the generators that
    occur once in s, () for none; the pass-(c) `rotations` (`_rotations`);
    and `disjoint`, the relator strings that `_shorten_with` left s
    unchanged against. A relator that changes gets a new record."""
    __slots__ = ("s", "bag", "key", "single", "rotations", "disjoint")

    def __init__(self, s: str):
        self.s = s
        self.bag = self.key = self.single = self.rotations = None
        self.disjoint = set()


def _distinct(relators: list, fold: dict, flip: dict) -> list:
    """Tietze's pass (a): the nonempty `relators`, less every one equal to
    an earlier one up to rotation and inversion, that is, with the same
    `key`. Equal keys have equal bags, so a relator whose bag no earlier
    kept relator has is kept without a key; keys are built only within a
    bag that two relators share. `fold` maps a code point to the even one of
    its generator. The lists by bag hold records, so they end with this
    call rather than keep the records that pass (c) replaces alive."""
    kept: dict[str, list] = {}  # the relators kept so far, by bag
    out = []
    for r in relators:
        if not r.s:
            continue
        if r.bag is None:
            r.bag = "".join(sorted(r.s.translate(fold)))
        same = kept.setdefault(r.bag, [])
        if same:
            for q in (r, *same):
                if q.key is None:
                    s, n = q.s, len(q.s)
                    q.key = min(cand[start:start + n]
                                for cand in (s + s, 2 * _invert(s, flip))
                                for start in range(n))
            if any(q.key == r.key for q in same):
                continue
        same.append(r)
        out.append(r)
    return out


# Tietze's pass budget; no raw grid presentation takes more than 12 passes.
TIETZE_PASSES = 50


def tietze_simplify(p: Presentation) -> TietzeResult:
    """Eliminate redundant generators and shorten relators.

    Deterministic; every move is an elementary Tietze transformation, so the
    isomorphism type is preserved (tested via fingerprints). Returns the
    presentation the last pass left: that of the first pass to change
    nothing, or of pass `TIETZE_PASSES` when the budget runs out
    (`exhausted`). It is not the shortest one seen and can be longer than
    the input: raw projective T_{5,5} goes from 1,454 to 1,692 letters.
    Relator lengths are not bounded: the substitutions of pass (b) can
    lengthen relators, and pass (c) only shortens them.

    Each pass, until one changes nothing:
    (a) drops trivial relators and every relator equal to an earlier one up
        to rotation and inversion;
    (b) eliminates the generator of the least (primed first, relator
        length, label, relator index) among the generators that occur
        exactly once in a relator: it solves that relator for it (the
        letters after it, then those before, inverted for a positive
        letter) and substitutes the solution into the other relators;
    (c) only when (b) found none: for i, then j, over the relators as they
        stand, shortens r_i with `_shorten_with` against r_j.

    The relators are encoded once on entry, one character per letter
    (`_alphabet`: generator k of `p.generators` is chr(2k), its inverse
    chr(2k + 1)), and decoded into Words once on exit. Every relator stays
    freely and cyclically reduced: `Presentation` reduces its relators, and
    each move reduces the relators it makes with the kernel `_reduce`.

    Each current relator is a `_Relator`, which holds what the passes
    derive from its string; a relator that changes is replaced by a fresh
    one, so only a changed relator is recomputed. Pass (a) (`_distinct`)
    sorts a relator's letters, with both signs folded onto the even code
    point, into its bag, and builds its key, the least string among its
    rotations and those of its inverse, only when an earlier kept relator
    has the same bag. Pass (b) counts a relator's letters in its bag, and
    substitutes with `str.replace` into the relators that contain the
    eliminated generator; the others stay as they are.

    Pass (c) calls `_shorten_with` directly, with the rotations of s built
    once per relator. It skips a pair when r is shorter than the head of s,
    |r| < |s| // 2 + 1: no head of s then occurs in r, so `_shorten_with`
    would return r unchanged. That also skips a relator pass (c) has just
    shortened to the empty word. The result depends only on the strings r
    and s, so r keeps the strings s that left it unchanged and does not try
    them again.
    """
    labels = p.generators
    letters, code, flip = _alphabet(labels)
    fold = {o: o & ~1 for o in flip}
    # pass (b)'s order on a generator, by the character of its positive letter
    rank = {code[lab, 1]: (0 if lab.endswith("p") else 1, lab) for lab in labels}
    gens = list(labels)
    relators = [_Relator("".join(map(code.__getitem__, r.letters))) for r in p.relators]
    passes = 0
    exhausted = False
    while True:
        if passes >= TIETZE_PASSES:
            exhausted = True
            break
        passes += 1
        changed = False
        # (a) dedupe (up to rotation and inversion) + drop trivial
        cleaned = _distinct(relators, fold, flip)
        if len(cleaned) != len(relators):
            changed = True
        relators = cleaned
        # (b) eliminate a generator occurring exactly once in some relator;
        # primed (conic) generators go first, then shortest defining relator.
        for r in relators:
            if r.single is None:
                r.single = min((rank[g] for g, cnt in Counter(r.bag).items()
                                if cnt == 1), default=())
        pick = min(((r.single[0], len(r.s), r.single[1], ridx)
                    for ridx, r in enumerate(relators) if r.single), default=None)
        if pick is not None:
            _, _, label, ridx = pick
            pos, neg = code[label, 1], code[label, -1]
            image = _solve_generator(relators[ridx].s, pos, neg, flip)
            inverse = _invert(image, flip)
            del relators[ridx]
            for k, r in enumerate(relators):
                if pos in r.s or neg in r.s:
                    relators[k] = _Relator(
                        _reduce(r.s.replace(pos, image).replace(neg, inverse)))
            gens = [g for g in gens if g != label]
            changed = True
        else:
            # (c) shortening of relators against each other
            for i in range(len(relators)):
                r = relators[i]
                for j, other in enumerate(relators):
                    n = len(other.s)
                    if i == j or n < 3 or n // 2 + 1 > len(r.s) or other.s in r.disjoint:
                        continue
                    if other.rotations is None:
                        other.rotations = _rotations(other.s, flip)
                    shortened = _shorten_with(r.s, other.rotations, flip)
                    if shortened == r.s:
                        r.disjoint.add(other.s)
                        continue
                    r = relators[i] = _Relator(shortened)
                    changed = True
        if not changed:
            break
    words = [Word(tuple(letters[ord(c)] for c in r.s)) for r in relators]
    out = Presentation(tuple(gens), tuple(words))
    return TietzeResult(out, passes, exhausted)


# --------------------------------------------------------------------------
# homomorphism counting
# --------------------------------------------------------------------------


# A relator whose head and segments read at most this many generators keys
# its masks first on those generators' values: at most |G|^3 keys per
# relator, 13,824 for S4. Keying every relator on its values grows the memos
# as |G|^reads: on the `homcount-stated` benchmark workload it raised the
# peak RSS from 27.7 to 30.9 MB and was no faster. A value-key miss falls
# back to the shared memo keyed on signs, head and segment values, which
# answers 13,186 of the 14,957 misses in one seed-0 sweep of that workload.
VALUE_KEY_GENERATORS = 3


def _hom_plan(p: Presentation) -> tuple:
    """The part of `count_homs(p, ...)` that depends on p alone: (k, closed,
    hoisted), k being the number of generators. The generators are ordered
    greedily, the next being the first unplaced one that closes the most
    relators, and each nonempty relator is split as `count_homs` describes
    into its shape ((head, seg1, ...), (s1 > 0, ...)), the parts as tuples
    of `vals` slots. A relator whose parts read no generator is (d, shape)
    in `closed`, d being its closing depth. Any other is (d, reads, shape)
    in hoisted[h], h being the deepest generator its parts read; `reads` is
    None when they read more than VALUE_KEY_GENERATORS generators, else an
    itemgetter of their values."""
    labels = p.generators
    k = len(labels)
    rel_labels = [frozenset(lab for lab, _ in r.letters) for r in p.relators]
    order: list[str] = []
    placed: set[str] = set()

    def closes(lab: str) -> int:
        return sum(lab in ls and ls <= placed | {lab} for ls in rel_labels)

    while len(order) < k:
        nxt = max((lab for lab in labels if lab not in placed), key=closes)
        order.append(nxt)
        placed.add(nxt)
    pos = {lab: i for i, lab in enumerate(order)}
    closed = []
    hoisted: list[list[tuple]] = [[] for _ in range(k)]
    for r in p.relators:
        if not r:
            continue
        lets = [(pos[lab], sign) for lab, sign in r.letters]
        depth = max(px for px, _ in lets)
        if (depth, 1) not in lets:
            lets = [(px, -sign) for px, sign in reversed(lets)]
        last = max(i for i, let in enumerate(lets) if let == (depth, 1))
        parts: list[list[int]] = [[]]
        positive = []
        for px, sign in lets[last + 1:] + lets[:last]:
            if px == depth:
                parts.append([])
                positive.append(sign > 0)
            else:
                parts[-1].append(2 * px + (sign < 0))
        shape = (tuple(map(tuple, parts)), tuple(positive))
        read = sorted({slot >> 1 for part in parts for slot in part})
        if not read:
            closed.append((depth, shape))
        elif len(read) <= VALUE_KEY_GENERATORS:
            hoisted[read[-1]].append((depth, itemgetter(*(2 * px for px in read)), shape))
        else:
            hoisted[read[-1]].append((depth, None, shape))
    return k, tuple(closed), tuple(map(tuple, hoisted))


def count_homs(p: Presentation, target: FiniteGroup, *, plan=None, subgroups=None):
    """Number of homomorphisms into `target`: assignments generator -> element
    under which every relator evaluates to the identity. With `subgroups`, a
    sequence of groups, the one search also counts the homomorphisms into
    each of them that embeds in `target`, and the result is a dict of counts
    by group name, `target` first.

    Backtracking search over the generators in a greedy order that lets short
    relators close early; a relator closes at the depth d of its last
    generator in that order.

    Automorphism orbits at every depth: if phi is a homomorphism, so is
    alpha phi for every automorphism alpha of the target. Let S be the
    automorphisms that fix the values of x_0 .. x_{d-1}. Every pending mask
    is computed from those values, so it is S-invariant, and the
    completions with x_d = e and with x_d = alpha(e), alpha in S, are in
    bijection. So x_d takes one representative per S-orbit of its pending
    mask (`target.orbits`), weighted by the orbit size, and its subtree
    carries S intersected with the stabilizer of the representative. Depth
    0 starts from the whole of Aut(target). x_d walks the bits of its mask
    that are S-orbit representatives: every bit once S is trivial.

    Candidate masks: a relator closing at depth d is inverted if every x_d
    letter in it is negative (r and r^-1 impose the same condition),
    rotated to end with its last positive x_d letter and split into a head
    and the segments between its x_d letters. The x_d images it allows, as
    a bitmask over the target's elements, depend only on the signs of the
    other x_d letters and the values of the head and segments. They are
    computed once per key of those signs and values and kept in one memo
    that every relator shares and that lives only inside this call, so a
    mask one relator computed answers any relator whose signs and values
    match, a rotation or the inverse of it among them.

    Value array: one list per call holds x_i at slot 2i and x_i^-1 at slot
    2i + 1, both written when x_i is assigned. A head or segment is a tuple
    of slots, so evaluating it reads the array with no sign test.

    Value keys: a relator whose head and segments read at most
    VALUE_KEY_GENERATORS generators first looks its mask up by the values
    assigned to those generators, so a hit evaluates no word. Only a miss
    evaluates the head and segments, and falls back to the shared memo. A
    relator that reads more generators keeps to the shared memo alone,
    which bounds the value-keyed memos at |G|^3 entries each.

    Hoisting and forward checking: the key is fixed once the deepest
    generator read by the head and segments, x_h, is assigned. The mask is
    looked up right then, in the search loop itself, and ANDed into the
    pending candidate mask of depth d; a relator in x_d alone is ANDed in
    before the search. The pending masks are copied only at a depth that
    has hoisted relators, and a candidate is pruned at the first mask that
    empties.

    The last depth is counted in place. `below` has one candidate loop; at
    depth k - 2 a candidate that survives its hoisted relators (all of
    which close at k - 1) adds the number of bits left in the pending mask
    of x_{k-1}, weighted by its orbit size, instead of a call for depth
    k - 1.

    Plan: the greedy order, and each relator's closing depth, shape and
    read generators, depend on p alone. `_hom_plan(p)` builds them; a
    caller that counts p into several targets (`fingerprint`) builds it
    once and passes it as `plan`, which the search only reads. The memos
    are made afresh in every call.

    Subgroups: let H have N_H copies H' in `target` (`target.copies(H)`).
    A homomorphism into H is one into `target` whose image lies in a given
    copy, so |Hom(p, H)| = (1/N_H) sum over H' of #{phi : im phi in H'}.
    Each node carries `inside`, the bitmask of the copies (of every H) that
    hold all the values assigned so far, ANDed per candidate with the
    copies that hold it (`member`), and the path weight, the product of the
    orbit sizes above it. At depth k - 2 a candidate adds, for each copy
    still inside, the path weight times the bits of the last pending mask
    in that copy. The copies of H are Aut(target)-stable, so the orbit walk
    keeps each H's sum, though not each copy's. Each sum must divide by
    N_H; the count into `target` itself is the search's own.
    """
    k, closed, plan_hoisted = _hom_plan(p) if plan is None else plan
    copies = [(h.name, m) for h in subgroups or () for m in target.copies(h)]
    tally = [0] * len(copies)
    mult, inv, ident = target.mult, target.inv, target.identity
    every = range(target.order)
    vals = [ident] * (2 * k)
    masks: dict[tuple, int] = {}

    def allowed(shape) -> int:
        """Bitmask of the x_d images under which a relator of this shape
        evaluates to the identity, for the current values of its head and
        segments."""
        parts, positive = shape
        key = [positive]
        for part in parts:
            acc = ident
            for slot in part:
                acc = mult[acc][vals[slot]]
            key.append(acc)
        key = tuple(key)
        mask = masks.get(key)
        if mask is None:
            mask = 0
            _, head, *segs = key
            steps = tuple(zip(positive, segs))
            for e in every:
                ie = inv[e]
                acc = head
                for pos_sign, sv in steps:
                    acc = mult[mult[acc][e if pos_sign else ie]][sv]
                # acc * x_d is the identity
                if acc == ie:
                    mask |= 1 << e
            masks[key] = mask
        return mask

    # a relator in x_d alone is ANDed into the pending mask of depth d
    # before the search; each hoisted relator with value keys gets its own
    # value-keyed memo, (d, reads, memo, shape)
    pending = [(1 << target.order) - 1] * k
    for depth, shape in closed:
        pending[depth] &= allowed(shape)
    hoisted = [[(d, reads, None if reads is None else {}, shape) for d, reads, shape in rels]
               for rels in plan_hoisted]
    orbits, stabilizers = target.orbits, target.stabilizers
    member = [0] * target.order  # the copies that hold each element
    for c, (_, m) in enumerate(copies):
        for e in every:
            if m >> e & 1:
                member[e] |= 1 << c

    def below(depth: int, pending: list[int], stab: int, inside: int, weight: int) -> int:
        """Completions of the assignment of x_0 .. x_{depth-1}, whose
        stabilizer in Aut(target) is the bitmask `stab`, whose values all
        lie in the copies `inside` and whose path weight is `weight`;
        depth < k - 1. Adds the completions inside copies to `tally`."""
        reps, sizes = orbits[stab]
        # the mask is a union of orbits: walk the representatives in it
        mask = pending[depth] & reps
        rels = hoisted[depth]
        slot = 2 * depth
        total = 0
        penultimate = depth + 2 == k
        while mask:
            low = mask & -mask
            mask ^= low
            e = low.bit_length() - 1
            vals[slot] = e
            vals[slot + 1] = inv[e]
            child = pending.copy() if rels else pending
            for d, reads, memo, shape in rels:
                if reads is None:
                    got = allowed(shape)
                else:
                    key = reads(vals)
                    got = memo.get(key)
                    if got is None:
                        got = memo[key] = allowed(shape)
                m = child[d] & got
                if not m:
                    break
                child[d] = m
            else:
                if penultimate:
                    # x_{k-1} is the only depth left: count it, and its part
                    # in each copy that holds every value so far
                    total += sizes[e] * child[-1].bit_count()
                    if inside:
                        within = inside & member[e]
                        while within:
                            bit = within & -within
                            within ^= bit
                            c = bit.bit_length() - 1
                            tally[c] += weight * sizes[e] * (child[-1] & copies[c][1]).bit_count()
                else:
                    total += sizes[e] * below(depth + 1, child, stab & stabilizers[e],
                                              inside and inside & member[e], weight * sizes[e])
        return total

    if k < 2:
        # nothing to walk: the mask of x_0, or with no generators the one
        # empty assignment, as the identity's bit, which every copy holds
        last = pending[0] if k else int(all(not r for r in p.relators))
        total = last.bit_count()
        tally = [(last & m).bit_count() for _, m in copies]
    else:
        total = below(0, pending, (1 << len(target.automorphisms)) - 1,
                      (1 << len(copies)) - 1, 1)
    # `below` reaches itself through its closure cell; emptying the cell
    # frees the memos now rather than at the next cyclic collection
    del below
    if subgroups is None:
        return total
    counts = {target.name: total}
    for h in subgroups:
        n = len(target.copies(h))
        s = sum(t for (name, _), t in zip(copies, tally) if name == h.name)
        if s % n:
            raise ArithmeticError(f"{h.name} in {target.name}: {s} homs over {n} copies")
        counts[h.name] = s // n
    return counts


# --------------------------------------------------------------------------
# fingerprints and comparison
# --------------------------------------------------------------------------

S4_GENERATOR_LIMIT = 6


@dataclass(frozen=True)
class Fingerprint:
    counts: dict[str, int] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()


def battery_names(battery=None) -> tuple[str, ...]:
    """The group names of a fingerprint battery: DEFAULT_BATTERY for None. A
    battery that is a string, is empty or names an unknown group raises
    ValueError naming the valid groups; one that names a group twice raises
    ValueError naming that group."""
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
    repeated = dict.fromkeys(name for i, name in enumerate(names) if name in names[:i])
    if repeated:
        raise ValueError(f"repeated battery groups: {', '.join(repeated)}")
    return names


def fingerprint(p: Presentation, battery=None) -> Fingerprint:
    """Hom counts into each battery group, in battery order. The input is
    Tietze-simplified first (hom counts are presentation-independent); S4
    is skipped when more than six generators survive simplification. The
    battery is checked by `battery_names`. The search plan of the
    simplified presentation (`_hom_plan`) is built once and passed to every
    `count_homs` call.

    The cover rule: the groups that run, largest first, each count every
    not yet counted one that embeds in it (`FiniteGroup.copies`) in their
    own search (`count_homs`'s `subgroups`). The default battery takes one
    search, into S4, which holds S3, D4 and A4; with S4 skipped, or for S3,
    D4 and A4 alone, none embeds in another and each takes its own."""
    names = battery_names(battery)
    q = tietze_simplify(p).presentation
    plan = _hom_plan(q)
    skipped = tuple(name for name in names
                    if name == "S4" and len(q.generators) > S4_GENERATOR_LIMIT)
    run = sorted((BATTERY[name] for name in names if name not in skipped),
                 key=lambda g: -g.order)
    counts: dict[str, int] = {}
    for group in run:
        if group.name not in counts:
            inner = [h for h in run if h.name not in counts and h is not group
                     and group.copies(h)]
            counts.update(count_homs(q, group, plan=plan, subgroups=inner))
    return Fingerprint({name: counts[name] for name in names if name in counts}, skipped)


@dataclass(frozen=True)
class CompareReport:
    per_target: dict[str, tuple[int, int]]
    # "consistent" | "distinguished" | "inconclusive" (no target compared)
    verdict: str
    skipped: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def compare(p1: Presentation, p2: Presentation, battery=None) -> CompareReport:
    f1 = fingerprint(p1, battery)
    f2 = fingerprint(p2, battery)
    shared = [k for k in f1.counts if k in f2.counts]
    per = {k: (f1.counts[k], f2.counts[k]) for k in shared}
    verdict = ("inconclusive" if not per else
               "consistent" if all(a == b for a, b in per.values()) else "distinguished")
    skipped = tuple(sorted(set(f1.skipped) | set(f2.skipped)))
    return CompareReport(per, verdict, skipped)
