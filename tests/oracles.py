"""Test-only oracles, fixtures and input generators: the word builders
`word` and `parse_word`, the relator shapes composed from `multiply` and
`invert`, a brute-force hom counter, the leaf-visiting backtracking hom
search with the conjugacy class and centralizer orbit tables it weights
by, the invariant factors of an integer matrix from its minors (the
oracle of the Smith normal form), the canonical form of a relator up to
rotation and inversion, the naive Tietze shortening scan, the reference
Tietze simplification on letter tuples, the Word-level substitution and the letter-by-letter Artin action built on it,
the transfer count of the stated C_n's homomorphisms,
the permutation, product, inverse and powers of braid words, random
presentations, and the matrices of Z/2 * Z/3 words in SL(2, Z)."""

import functools
import itertools
import math
import random
from collections import Counter

from conicline import fpgroup, words
from conicline.braid import ArtinWord, band_transport, compile_skeleton
from conicline.finite_groups import FiniteGroup
from conicline.vankampen import Presentation, cyclic_reduce, presentation
from conicline.words import Word, _inverse, gen, invert, multiply


def word(*items) -> Word:
    """Build a word from labels and (label, sign) pairs."""
    letters = []
    for it in items:
        if isinstance(it, str):
            letters.append((it, 1))
        else:
            letters.append(tuple(it))
    return Word(tuple(letters))


def parse_word(text: str) -> Word:
    """Inverse of `word_text`. A token is a generator label, optionally
    followed by `^1` or `^-1`; any other `^` suffix (`x1^2`, `x^0`) raises
    ValueError naming the token."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters = []
    for tok in text.split():
        label, caret, power = tok.partition("^")
        if caret and (not label or power not in ("1", "-1")):
            raise ValueError(f"bad letter {tok!r}: expected a generator label "
                             "optionally followed by ^1 or ^-1")
        letters.append((label, -1 if power == "-1" else 1))
    return Word(tuple(letters))


def composed_shapes(a: Word, b: Word) -> dict[int, Word]:
    """`eq`, `commutator` and `sq` of (a, b), keyed by the factor power as
    `vankampen.RELATOR_SHAPES` is, each composed of reduced products."""
    ab, ba = multiply(a, b), multiply(b, a)
    return {1: multiply(a, invert(b)),
            2: multiply(a, b, invert(a), invert(b)),
            4: multiply(ab, ab, invert(ba), invert(ba))}


def invariant_factors_by_minors(matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of an integer matrix from its
    determinantal divisors: d_k is the gcd of the k x k minors, and the k-th
    factor is d_k / d_{k-1}. Each k x k minor is expanded along its first
    row into the (k-1) x (k-1) minors of the layer before."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    minors = {((), ()): 1}
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        minors = {(rs, cs): sum((-1) ** x * matrix[rs[0]][c]
                                * minors[rs[1:], cs[:x] + cs[x + 1:]]
                                for x, c in enumerate(cs))
                  for rs in itertools.combinations(range(rows), k)
                  for cs in itertools.combinations(range(cols), k)}
        d = math.gcd(*minors.values())
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


def count_homs_bruteforce(p: Presentation, target: FiniteGroup) -> int:
    """Plain |G|^g enumeration; the oracle count_homs must agree with."""
    labels = p.generators
    mult, inv, ident = target.mult, target.inv, target.identity
    total = 0
    for combo in itertools.product(range(target.order), repeat=len(labels)):
        assign = dict(zip(labels, combo))
        ok = True
        for r in p.relators:
            acc = ident
            for lab, sign in r.letters:
                e = assign[lab]
                acc = mult[acc][e if sign > 0 else inv[e]]
            if acc != ident:
                ok = False
                break
        if ok:
            total += 1
    return total


def _conjugation_orbits(group: FiniteGroup, by) -> dict[int, int]:
    """Orbits of the elements `by` acting on the group by conjugation, as
    {smallest element: orbit size}."""
    mult, inv = group.mult, group.inv
    orbits: dict[int, int] = {}
    seen: set[int] = set()
    for x in range(group.order):
        if x not in seen:
            orbit = {mult[mult[g][x]][inv[g]] for g in by}
            seen |= orbit
            orbits[x] = len(orbit)
    return orbits


@functools.cache
def conjugacy_classes(group: FiniteGroup) -> dict[int, int]:
    """Conjugacy classes as {smallest element: class size}."""
    return _conjugation_orbits(group, range(group.order))


@functools.cache
def centralizer_orbits(group: FiniteGroup) -> dict[int, dict[int, int]]:
    """For each class representative a, the orbits of the centralizer of
    a acting on the group by conjugation, as {smallest element: orbit
    size}."""
    mult = group.mult
    return {a: _conjugation_orbits(
                group, [g for g in range(group.order) if mult[g][a] == mult[a][g]])
            for a in conjugacy_classes(group)}


def centralizer(group: FiniteGroup, g: int) -> int:
    """The centralizer of g, as a bitmask of its elements."""
    mult = group.mult
    return sum(1 << x for x in range(group.order) if mult[x][g] == mult[g][x])


def count_homs_cn(n: int, target: FiniteGroup, projective: bool) -> int:
    """|Hom(C_n, target)| for the stated C_n (`presentation_cn_affine`, or
    `presentation_cn_proj` with `projective`) by a transfer count over the
    lines, with no search. The conic x1 = a is fixed first. Line x_i (i = 2
    .. n + 1) must satisfy sq(a, x_i) and commute with a^-1 x_h a for every
    earlier line h, so what the later lines may do depends on the earlier
    ones only through the state (Z, w): Z is the intersection of the
    centralizers of a^-1 x_h a so far, as a bitmask, and w = x_i ... x_2. A
    line x is allowed when x is in Z and (a x)^2 = (x a)^2; then Z becomes
    Z & C(a^-1 x a) and w becomes x w. The affine group accepts a final
    state when [w, a] = 1, the projective one when w a^2 = 1."""
    mult, inv, ident = target.mult, target.inv, target.identity
    every = range(target.order)
    cent = [centralizer(target, g) for g in every]
    total = 0
    for a in every:
        states = Counter({((1 << target.order) - 1, ident): 1})
        for _ in range(n):
            after = Counter()
            for (z, w), count in states.items():
                for x in every:
                    ax, xa = mult[a][x], mult[x][a]
                    if z >> x & 1 and mult[ax][ax] == mult[xa][xa]:
                        after[z & cent[mult[mult[inv[a]][x]][a]], mult[x][w]] += count
            states = after
        for (z, w), count in states.items():
            wa = mult[w][a]
            if (mult[wa][a] == ident) if projective else (wa == mult[a][w]):
                total += count
    return total


def count_homs_backtrack(p: Presentation, target: FiniteGroup) -> int:
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
    labels = p.generators
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

    classes = conjugacy_classes(target)
    total = 0
    for a in survivors(0, classes):
        assignment[0] = a
        if k == 1:
            total += classes[a]
            continue
        orbits = centralizer_orbits(target)[a]
        for b in survivors(1, orbits):
            assignment[1] = b
            total += classes[a] * orbits[b] * below(2)
    return total


def random_presentation(rng: random.Random, max_gens: int = 3,
                        max_relators: int = 3, max_len: int = 6) -> Presentation:
    k = rng.randint(1, max_gens)
    labels = [f"g{i}" for i in range(1, k + 1)]
    rels = []
    for _ in range(rng.randint(0, max_relators)):
        letters = tuple((rng.choice(labels), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, max_len)))
        rels.append(Word(letters))
    return presentation(labels, rels)


def shorten_with_naive(r: Word, s: Word) -> Word:
    """Replace a long subword of r matching more than half of a cyclic
    rotation of s (or s^-1) with the complementary shorter word."""
    best = r
    n = len(s)
    if n < 2:
        return best
    variants = []
    for cand in (s, invert(s)):
        doubled = cand.letters + cand.letters
        for start in range(n):
            variants.append(doubled[start:start + n])
    half = n // 2 + 1
    changed = True
    while changed:
        changed = False
        for rot in variants:
            for piece_len in range(n - 1, half - 1, -1):
                piece = rot[:piece_len]
                repl = tuple((lab, -sg) for lab, sg in reversed(rot[piece_len:]))
                letters = best.letters
                for k in range(len(letters) - piece_len + 1):
                    if letters[k:k + piece_len] == piece:
                        cand = Word(letters[:k] + repl + letters[k + piece_len:])
                        cand = cyclic_reduce(cand)
                        if len(cand) < len(best):
                            best = cand
                            changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return best


def cyclic_canonical(w: Word) -> tuple:
    """The least letter tuple among the rotations of cyclic_reduce(w) and of
    its inverse: two relators are equal up to cyclic rotation and inversion
    exactly when their canonical forms are equal."""
    w = cyclic_reduce(w)
    if not w:
        return ()
    return min(cand[r:] + cand[:r] for cand in (w.letters, _inverse(w.letters))
               for r in range(len(cand)))


# The reference Tietze simplification: `fpgroup.tietze_simplify` as it was on
# letter tuples, before it ran on encoded strings. It reads the pass budget
# `fpgroup.TIETZE_PASSES` at call time, so a test that patches the budget
# patches both.


def _solve_generator(r: Word, label: str) -> tuple:
    """Given a relator r = p g^s q with exactly one occurrence of g = `label`,
    express g in the remaining generators: the letters of g = (q p)^-s."""
    idx = next(k for k, (lab, _) in enumerate(r.letters) if lab == label)
    qp = r.letters[idx + 1:] + r.letters[:idx]
    return _inverse(qp) if r.letters[idx][1] > 0 else qp


def _rotations(s: Word) -> list[tuple]:
    """The cyclic rotations of s, then those of s^-1, each by start offset,
    as (head, doubled letters, start) triples: the rotation is
    doubled[start:start + n] and its head is its first half letters
    (n = |s|, half = n // 2 + 1)."""
    n = len(s)
    half = n // 2 + 1
    out = []
    for cand in (s.letters, _inverse(s.letters)):
        doubled = cand + cand
        out.extend((doubled[start:start + half], doubled, start)
                   for start in range(n))
    return out


def _windows(letters, half: int) -> set:
    """The length-half windows of a letter sequence."""
    return {letters[k:k + half] for k in range(len(letters) - half + 1)}


def _shorten_with(r: Word, rotations: list, windows: set) -> Word:
    """Shorten r by replacing pieces of a relator s, given as `_rotations(s)`,
    with |s| >= 3; `windows` is `_windows(r.letters, half)`. The rule is
    that of `fpgroup._shorten_with`: the first rotation whose head is a
    window, its earliest longest piece, replaced and cyclically reduced,
    until no head is a window."""
    n = len(rotations) // 2
    half = n // 2 + 1
    while True:
        letters = r.letters
        size = len(letters)
        for head, doubled, start in rotations:
            if head in windows:
                break
        else:
            return r
        longest = 0
        for k in range(size - half + 1):
            if letters[k:k + half] != head:
                continue
            m = half
            stop = min(n - 1, size - k)
            while m < stop and letters[k + m] == doubled[start + m]:
                m += 1
            if m > longest:
                longest, at = m, k
                if m == n - 1:
                    break
        repl = _inverse(doubled[start + longest:start + n])
        r = cyclic_reduce(Word(letters[:at] + repl + letters[at + longest:]))
        windows = _windows(r.letters, half)


def tietze_reference(p: Presentation) -> fpgroup.TietzeResult:
    """The oracle of `fpgroup.tietze_simplify`: the same passes, picks and
    shortenings on (label, sign) letter tuples, with `cyclic_canonical`
    keys and `words.substitute`."""
    gens = list(p.generators)
    relators = list(p.relators)
    passes = 0
    exhausted = False
    while True:
        if passes >= fpgroup.TIETZE_PASSES:
            exhausted = True
            break
        passes += 1
        changed = False
        # (a) dedupe (up to rotation and inversion) + drop trivial
        seen = set()
        cleaned = []
        for r in relators:
            key = cyclic_canonical(r)
            if not key or key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        if len(cleaned) != len(relators):
            changed = True
        relators = cleaned
        # (b) eliminate a generator occurring exactly once in some relator;
        # primed (conic) generators go first, then shortest defining relator.
        pick = min(((0 if lab.endswith("p") else 1, len(r), lab, ridx)
                    for ridx, r in enumerate(relators)
                    for lab, cnt in Counter(lab for lab, _ in r.letters).items()
                    if cnt == 1), default=None)
        if pick is not None:
            _, _, label, ridx = pick
            image = _solve_generator(relators[ridx], label)
            images = {label: (image, _inverse(image))}
            relators = [cyclic_reduce(Word(words.substitute(r.letters, images)))
                        for k, r in enumerate(relators) if k != ridx]
            gens = [g for g in gens if g != label]
            changed = True
        else:
            # (c) shortening of relators against each other
            rotations = [_rotations(r) for r in relators]
            heads = [frozenset(h for h, _, _ in rots) for rots in rotations]
            for i in range(len(relators)):
                windows: dict = {}
                for j in range(len(relators)):
                    n = len(relators[j])
                    if i == j or n < 3:
                        continue
                    half = n // 2 + 1
                    win = windows.get(half)
                    if win is None:
                        win = windows[half] = _windows(relators[i].letters, half)
                    if win.isdisjoint(heads[j]):
                        continue
                    shorter = _shorten_with(relators[i], rotations[j], win)
                    if len(shorter) < len(relators[i]):
                        relators[i] = shorter
                        windows = {}
                        rotations[i] = _rotations(shorter)
                        heads[i] = frozenset(h for h, _, _ in rotations[i])
                        changed = True
        if not changed:
            break
    out = Presentation(tuple(gens), tuple(relators))
    return fpgroup.TietzeResult(out, passes, exhausted)


def substitute(w: Word, images: dict[str, Word]) -> Word:
    """Replace each generator of w that has an image by that image (its
    inverse, built here, for a negative letter); generators without one
    stay. Word-level, apart from the library's `words.substitute`, which
    takes precomputed image and inverse-image letters."""
    letters = []
    for lab, sign in w.letters:
        img = images.get(lab)
        if img is None:
            letters.append((lab, sign))
        elif sign > 0:
            letters.extend(img.letters)
        else:
            letters.extend(invert(img).letters)
    return Word(tuple(letters))


def _letter_images(idx: int, sign: int) -> dict[str, Word]:
    xi, xj = gen(f"x{idx}"), gen(f"x{idx + 1}")
    if sign > 0:
        return {f"x{idx}": xj, f"x{idx + 1}": multiply(xj, xi, invert(xj))}
    return {f"x{idx}": multiply(invert(xi), xj, xi), f"x{idx + 1}": xi}


def apply_braid(b: ArtinWord, w: Word) -> Word:
    """Act on a word over x1..xN, letters applied in written order."""
    for idx, sign in b.letters:
        w = substitute(w, _letter_images(idx, sign))
    return w


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def permutation(b: ArtinWord) -> tuple[int, ...]:
    """The image tuple of b, composing the adjacent transpositions of its
    letters in written order."""
    perm = tuple(range(1, b.strand_count + 1))
    for idx, _ in b.letters:
        swap = transposition(b.strand_count, idx, idx + 1)
        perm = tuple(swap[i - 1] for i in perm)
    return perm


def braid_product(*braids: ArtinWord) -> ArtinWord:
    """The concatenation of braid words in one B_n."""
    counts = {b.strand_count for b in braids}
    if len(counts) != 1:
        raise ValueError("strand counts differ")
    return ArtinWord(counts.pop(), tuple(x for b in braids for x in b.letters))


def braid_inverse(b: ArtinWord) -> ArtinWord:
    return ArtinWord(b.strand_count, _inverse(b.letters))


def braid_power(b: ArtinWord, k: int) -> ArtinWord:
    """b^k as its letters (those of b^-1 for k < 0) repeated |k| times."""
    base = b if k >= 0 else braid_inverse(b)
    return ArtinWord(b.strand_count, base.letters * abs(k))


def conjugator_braid(t, n: int) -> ArtinWord:
    """V, the product of the conjugators' full-twist powers, left to right."""
    return braid_product(ArtinWord(n), *(braid_power(compile_skeleton(skel, n), p)
                                         for skel, p in t.conjugators))


def fiber_rename(labels: tuple[str, ...]) -> dict[str, str]:
    """x_k -> labels[k - 1], the rename `vankampen.relation_pair` takes."""
    return {f"x{k}": lab for k, lab in enumerate(labels, start=1)}


def relation_pair(f, n: int, labels: tuple[str, ...]):
    """`vankampen.relation_pair` through the letter-by-letter action, as a
    pair of Words."""
    v = conjugator_braid(f.twist, n)
    d_letters, core = band_transport(f.twist.base)
    e = braid_product(braid_inverse(ArtinWord(n, d_letters)), v)
    rename = fiber_rename(labels)
    return tuple(Word(tuple((rename[l], s) for l, s in apply_braid(e, gen(f"x{k}")).letters))
                 for k in (core, core + 1))


# Z/2 * Z/3 = <s, t | s^2, t^3> is PSL(2, Z) under s -> [[0, -1], [1, 0]] and
# t -> [[0, -1], [1, 1]]; these have orders 4 and 6 in SL(2, Z), with squares
# and cubes -I, so a syllable word's matrix is determined up to sign and is
# +-I exactly when the word is the identity.
_SL2Z = {("s", 1): ((0, -1), (1, 0)), ("s", -1): ((0, 1), (-1, 0)),
         ("t", 1): ((0, -1), (1, 1)), ("t", -1): ((1, 1), (-1, 0))}


def psl2z_element(syllables) -> tuple:
    """The image of a raw syllable word (letter, exponent) in PSL(2, Z): its
    SL(2, Z) matrix or the negative, whichever has a positive first nonzero
    entry. Two words are the same element exactly when their images agree."""
    m = ((1, 0), (0, 1))
    for letter, e in syllables:
        g = _SL2Z[letter, 1 if e > 0 else -1]
        for _ in range(abs(e)):
            m = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(2)) for j in range(2))
                      for i in range(2))
    first = next(x for row in m for x in row if x)
    return m if first > 0 else tuple(tuple(-x for x in row) for row in m)
