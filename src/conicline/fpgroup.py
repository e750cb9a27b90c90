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

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import groupby
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


# A relator whose head and segments read at most this many sources, x_h
# included, keys its masks first on their values (`count_homs`): at most
# |G|^3 entries per relator, 13,824 for S4. A source is a generator, or in
# a wider relator a run of its letters (`_hom_plan`). Raising it to 99 keys
# every row on generators, which grows the memos as |G|^reads: the largest
# tracemalloc peak of `test_count_homs_memory_stays_bounded` goes from
# 31,100 to 67,220 bytes. A miss falls back to the shared memo keyed on
# signs, head and segment values, which computes 3,668 of the 33,654 masks
# asked of it in four seed-11 sweeps of the `homcount-stated` benchmark
# workload.
VALUE_KEY_GENERATORS = 3


def _repeated(names) -> str:
    """The names that occur more than once in `names`, once each, joined
    by commas; "" when none does."""
    return ", ".join(dict.fromkeys(name for i, name in enumerate(names) if name in names[:i]))


def _no_sources(vals) -> tuple:
    """The row key of a relator whose parts read x_h alone: one row per call."""
    return ()


def _hom_order(p: Presentation) -> list[str]:
    """The generators in the search order of `count_homs`, chosen greedily:
    the next is the unplaced one that closes the most relators, a tie going
    to the one with the most letters in the relators, then to the first in
    `p.generators`. So where nothing closes, as at depth 0, the search
    starts from the generator the relators read most."""
    flat = [lab for r in p.relators for lab, _ in r.letters]
    letters = {lab: flat.count(lab) for lab in p.generators}
    rel_labels = [frozenset(lab for lab, _ in r.letters) for r in p.relators]
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(p.generators):
        # for each relator one generator short of closing, that generator
        closes = [min(rest) for ls in rel_labels if len(rest := ls - placed) == 1]
        nxt = max((lab for lab in p.generators if lab not in placed),
                  key=lambda lab: (closes.count(lab), letters[lab]))
        order.append(nxt)
        placed.add(nxt)
    return order


def _hom_plan(p: Presentation) -> tuple:
    """The part of `count_homs(p, ...)` that depends on p alone: (k, closed,
    hoisted, runs), k being the number of generators. The generators are
    taken in the order of `_hom_order`, and each nonempty relator is split
    as `count_homs` describes into its shape ((head, seg1, ...),
    (s1 > 0, ...)), the parts as tuples of `vals` slots. A relator whose
    parts read no generator is (d, shape) in `closed`, d being its closing
    depth. Any other is (d, key, shape) in hoisted[h], h being the deepest
    generator its parts read.

    Sources: a relator that reads at most VALUE_KEY_GENERATORS generators
    keeps its parts, and its sources are the generators it reads before
    x_h. In a wider one the letters other than x_h in each part fall into
    maximal runs, all of generators placed before x_h. A run of two or
    more letters is one slot from 2k on, (slot, run) in runs[h], shared by
    the relators hoisted to h that have it, and is a source; a run of one
    letter keeps its slot, and its generator is the source.

    `key` maps `vals` to a row key: an itemgetter of the sources' slots, or
    `_no_sources` when there is none. It is None when there is no row: when
    the sources and x_h are more than VALUE_KEY_GENERATORS, or when the
    sources include every generator before x_h, whose values no two nodes
    at depth h share, so that a row would never be read twice."""
    k = len(p.generators)
    pos = {lab: i for i, lab in enumerate(_hom_order(p))}
    closed = []
    hoisted: list[list[tuple]] = [[] for _ in range(k)]
    run_slots: dict[tuple, int] = {}  # (h, run) -> its slot
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
        read = sorted({slot >> 1 for part in parts for slot in part})
        if not read:
            closed.append((depth, (tuple(map(tuple, parts)), tuple(positive))))
            continue
        h = read[-1]
        if len(read) <= VALUE_KEY_GENERATORS:
            sources = {2 * px for px in read[:-1]}
        else:
            sources = set()
            for i, part in enumerate(parts):
                parts[i] = []
                for at_h, run in groupby(part, lambda slot: slot >> 1 == h):
                    run = tuple(run)
                    if at_h:
                        parts[i] += run
                    elif len(run) == 1:
                        parts[i] += run
                        sources.add(run[0] & ~1)
                    else:
                        slot = run_slots.setdefault((h, run), 2 * k + len(run_slots))
                        parts[i].append(slot)
                        sources.add(slot)
        if len(sources) >= VALUE_KEY_GENERATORS or sources >= {2 * px for px in range(h)}:
            key = None
        else:
            key = itemgetter(*sorted(sources)) if sources else _no_sources
        hoisted[h].append((depth, key, (tuple(map(tuple, parts)), tuple(positive))))
    runs: list[list[tuple]] = [[] for _ in range(k)]
    for (h, run), slot in run_slots.items():
        runs[h].append((slot, run))
    return k, tuple(closed), tuple(map(tuple, hoisted)), tuple(map(tuple, runs))


def count_homs(p: Presentation, target: FiniteGroup, *, plan=None, subgroups=None):
    """Number of homomorphisms into `target`: assignments generator -> element
    under which every relator evaluates to the identity. With `subgroups`, a
    sequence of groups, the one search also counts the homomorphisms into
    each of them, and the result is a dict of counts by group name, `target`
    first. A group named twice, one named as `target`, or one with no copy
    in `target`, raises ValueError naming it.

    Backtracking search over the generators in a greedy order
    (`_hom_order`) that lets short relators close early; a relator closes
    at the depth d of its last generator in that order.

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
    2i + 1, both written when x_i is assigned, and from slot 2k on the
    values of the runs (`_hom_plan`). A head or segment is a tuple of
    slots, so evaluating it reads the array with no sign test.

    Hoisting and forward checking: the key is fixed once the deepest
    generator read by the head and segments, x_h, is assigned. The mask is
    looked up right then, in the search loop itself, and ANDed into the
    pending candidate mask of depth d; a relator in x_d alone is ANDed in
    before the search. A candidate is pruned at the first mask that
    empties.

    Rows and runs: entering a node at depth h, the search multiplies out
    the runs of runs[h], whose letters are all assigned, and fetches for
    each relator hoisted there with a value key one row, keyed on the
    values of the sources its parts read before x_h, generators or runs.
    Above depth k - 2 a row is a list of |G| slots. Each candidate e reads
    slot e of it, so a hit evaluates no word; a miss evaluates the head and
    segments, falls back to the shared memo and fills the slot. A relator
    with more than VALUE_KEY_GENERATORS sources, x_h included, has no row
    and keeps to the shared memo alone, which bounds each relator's rows
    at |G|^3 masks; its runs still save it letters. So does a relator
    whose sources include every generator before x_h, as no other node
    could read its row.

    The last two depths: the search is one recursion, `below`, which
    copies the pending masks per candidate only at a depth with hoisted
    relators. Every relator hoisted to k - 2 closes at k - 1, so its last
    level, depth k - 2, counts x_{k-2} and x_{k-1} together on ints of |G|
    blocks of |G| bits (`FiniteGroup.rep`), block e standing for
    x_{k-2} = e: the pending mask of x_{k-1} in the candidates' blocks, one
    product with no loop (`FiniteGroup.tile`), ANDed with the row of each
    relator hoisted there with a value key. That row is a matrix whose
    block e is the mask the relator allows for x_{k-2} = e, with the
    bitmask of the blocks filled so far; a node fills through `allowed`
    only its candidate blocks not yet filled. A relator without a row is
    then checked on each candidate whose block is not empty. The count is,
    over the size classes of the node's stabilizer (`FiniteGroup.orbits`),
    each size s times the bits left in the blocks of size s. Above k - 2
    rows stay lists, as each candidate reads its own mask to narrow its
    child, and a block read (shift, mask and filled-bit test) costs about
    five times a list slot read in CPython 3.11.

    Plan: the greedy order, and each relator's closing depth, shape, value
    key and runs, depend on p alone. `_hom_plan(p)` builds them; a caller
    that counts p into several targets (`fingerprint`) builds it once and
    passes it as `plan`, which the search only reads. The memos and rows
    are made afresh in every call.

    Subgroups: let H have N_H copies H' in `target` (`target.copies(H)`).
    A homomorphism into H is one into `target` whose image lies in a given
    copy, so |Hom(p, H)| = (1/N_H) sum over H' of #{phi : im phi in H'}.
    Each node carries `inside`, the bitmask of the copies (of every H) that
    hold all the values assigned so far, ANDed per candidate with the
    copies that hold it (`member`), and the path weight, the product of the
    orbit sizes above it, which is computed only while `inside` is not
    empty (never in a plain search). At depth k - 2 each copy still inside
    adds the path weight times the count of the matrix cut to the pairs
    (x_{k-2}, x_{k-1}) the copy holds: its mask in the blocks of its
    elements. The copies of H are Aut(target)-stable, so
    the orbit walk keeps each H's sum, though not each copy's. Each sum
    must divide by N_H; the count into `target` itself is the search's own.
    """
    k, closed, plan_hoisted, runs = _hom_plan(p) if plan is None else plan
    copies = []
    if subgroups:
        repeated = _repeated([h.name for h in subgroups])
        if repeated:
            raise ValueError(f"repeated subgroups: {repeated}")
        if any(h.name == target.name for h in subgroups):
            raise ValueError(f"subgroups named as the target: {target.name}")
        absent = [h.name for h in subgroups if not target.copies(h)]
        if absent:
            raise ValueError(f"subgroups with no copy in {target.name}: {', '.join(absent)}")
        copies = [(h.name, m) for h in subgroups for m in target.copies(h)]
    tally = [0] * len(copies)
    mult, inv, ident, n = target.mult, target.inv, target.identity, target.order
    every = range(n)
    full = (1 << n) - 1
    vals = [ident] * (2 * k + sum(map(len, runs)))
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
    # before the search; one hoisted above k - 2 is (d, key, rows, shape),
    # rows by row key or None; one hoisted to k - 2 is (key, rows, shape)
    # in `rowed`, each row a [matrix, filled blocks] list, or in `unrowed`
    pending = [full] * k
    for depth, shape in closed:
        pending[depth] &= allowed(shape)
    if k < 2:
        # nothing to walk: the mask of x_0, or with no generators the one
        # empty assignment, as the identity's bit, which every copy holds
        # (`Presentation` makes every relator over no generators empty)
        last = pending[0] if k else 1
        return _by_name(target, subgroups, copies, last.bit_count(),
                        [(last & m).bit_count() for _, m in copies])
    blank = [None] * n
    hoisted = [[(d, key, None if key is None else defaultdict(blank.copy), shape)
                for d, key, shape in rels]
               for rels in plan_hoisted[:k - 2]]
    at_k2 = plan_hoisted[k - 2]
    rowed = [(key, defaultdict([0, 0].copy), shape)
             for _, key, shape in at_k2 if key is not None]
    unrowed = [shape for _, key, shape in at_k2 if key is None]
    orbits, stabilizers = target.orbits, target.stabilizers
    rep, tile = target.rep, target.tile
    member = [0] * n  # the copies that hold each element
    for c, (_, m) in enumerate(copies):
        for e in every:
            if m >> e & 1:
                member[e] |= 1 << c
    # each copy's pairs (x_{k-2}, x_{k-1}), both in the copy, as blocks
    paired = [m * (m * tile & rep) for _, m in copies]
    # the slot of x_{k-2}, and the stride of the blocks (`FiniteGroup.rep`)
    tail, stride = 2 * k - 4, n + 1

    def below(depth: int, pending: list[int], stab: int, inside: int, weight: int) -> int:
        """Completions of the assignment of x_0 .. x_{depth-1}, whose
        stabilizer in Aut(target) is the bitmask `stab`, whose values all
        lie in the copies `inside` and whose path weight is `weight`. Adds
        the completions inside copies to `tally`. At depth k - 2 it counts
        x_{k-2} and x_{k-1} together, on a matrix whose block e holds the
        x_{k-1} images left for x_{k-2} = e."""
        reps, sizes, classes = orbits[stab]
        # the mask is a union of orbits: walk the representatives in it
        mask = pending[depth] & reps
        for at, run in runs[depth]:
            acc = ident
            for slot in run:
                acc = mult[acc][vals[slot]]
            vals[at] = acc
        if depth == k - 2:
            acc = pending[-1] * (mask * tile & rep)
            for key, rows, shape in rowed:
                row = rows[key(vals)]
                new = mask & ~row[1]
                if new:
                    row[1] |= new
                    matrix = row[0]
                    while new:
                        low = new & -new
                        new ^= low
                        e = low.bit_length() - 1
                        vals[tail] = e
                        vals[tail + 1] = inv[e]
                        matrix |= allowed(shape) << e * stride
                    row[0] = matrix
                acc &= row[0]
            if unrowed:
                while mask:
                    low = mask & -mask
                    mask ^= low
                    e = low.bit_length() - 1
                    block = got = acc >> e * stride & full
                    if got:
                        vals[tail] = e
                        vals[tail + 1] = inv[e]
                        for shape in unrowed:
                            got &= allowed(shape)
                            if not got:
                                break
                        acc ^= (block ^ got) << e * stride
            total = 0
            for size, of_size in classes:
                total += size * (acc & of_size).bit_count()
            while inside:
                bit = inside & -inside
                inside ^= bit
                c = bit.bit_length() - 1
                held = acc & paired[c]
                if held:
                    for size, of_size in classes:
                        tally[c] += weight * size * (held & of_size).bit_count()
            return total
        rels = [(d, None if key is None else rows[key(vals)], shape)
                for d, key, rows, shape in hoisted[depth]]
        slot = 2 * depth
        total = 0
        while mask:
            low = mask & -mask
            mask ^= low
            e = low.bit_length() - 1
            vals[slot] = e
            vals[slot + 1] = inv[e]
            child = pending.copy() if rels else pending
            for d, row, shape in rels:
                got = row[e] if row else allowed(shape)
                if got is None:
                    got = row[e] = allowed(shape)
                m = child[d] = child[d] & got
                if not m:
                    break
            else:
                size = sizes[e]
                within = inside and inside & member[e]
                total += size * below(depth + 1, child, stab & stabilizers[e],
                                      within, within and weight * size)
        return total

    total = below(0, pending, (1 << len(target.automorphisms)) - 1, (1 << len(copies)) - 1, 1)
    # `below` reaches itself through its closure cell; emptying the cell
    # frees the memos now rather than at the next cyclic collection
    del below
    return _by_name(target, subgroups, copies, total, tally)


def _by_name(target: FiniteGroup, subgroups, copies: list, total: int, tally: list):
    """`count_homs`' result from the search's count into `target` and the
    tallies of `copies`: `total` itself without `subgroups`, else the counts
    by group name, each subgroup's tally summed over its copies and divided
    by their number."""
    if subgroups is None:
        return total
    counts = {target.name: total}
    for h in subgroups:
        n_h = len(target.copies(h))
        s = sum(t for (name, _), t in zip(copies, tally) if name == h.name)
        if s % n_h:
            raise ArithmeticError(f"{h.name} in {target.name}: {s} homs over {n_h} copies")
        counts[h.name] = s // n_h
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
    repeated = _repeated(names)
    if repeated:
        raise ValueError(f"repeated battery groups: {repeated}")
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
