"""Small permutation groups with precomputed multiplication tables, used as
homomorphism-count targets, and their automorphism tables, built on first
use."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    generators: tuple[int, ...]  # elements that generate the group

    @property
    def order(self) -> int:
        return len(self.mult)

    identity = 0

    def _extension(self, images) -> tuple[int, ...] | None:
        """The homomorphism that sends the generators to `images`, as the
        tuple of element images, extended along the Cayley graph
        (x g -> phi(x) image(g)); None when two edges disagree."""
        mult = self.mult
        phi = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, a in zip(self.generators, images):
                y, b = mult[x][g], mult[phi[x]][a]
                if y not in phi:
                    phi[y] = b
                    frontier.append(y)
                elif phi[y] != b:
                    return None
        return tuple(phi[x] for x in range(self.order))

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """The automorphisms as element permutations, sorted, so that the
        identity is automorphism 0: the bijective extensions of every choice
        of images for the generators."""
        maps = map(self._extension, product(range(self.order), repeat=len(self.generators)))
        return tuple(sorted(m for m in maps if m and len(set(m)) == self.order))

    @cached_property
    def stabilizers(self) -> tuple[int, ...]:
        """For each element, the automorphisms that fix it, as a bitmask over
        `automorphisms`."""
        return tuple(sum(1 << i for i, a in enumerate(self.automorphisms) if a[x] == x)
                     for x in range(self.order))

    @cached_property
    def orbits(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """For the whole automorphism group and each subgroup obtained from it
        by fixing orbit representatives one after another, keyed by its
        bitmask: its orbits on the elements, as the bitmask of their smallest
        elements and the orbit size of each element. The identity alone,
        key 1, has every element as a representative of size 1."""
        auts, stabilizers = self.automorphisms, self.stabilizers
        table: dict[int, tuple[int, tuple[int, ...]]] = {}
        todo = [(1 << len(auts)) - 1]
        while todo:
            stab = todo.pop()
            if stab in table:
                continue
            by = [a for i, a in enumerate(auts) if stab >> i & 1]
            reps, sizes = 0, [0] * self.order
            for x in range(self.order):
                if not sizes[x]:
                    orbit = {a[x] for a in by}
                    for y in orbit:
                        sizes[y] = len(orbit)
                    reps |= 1 << x
                    todo.append(stab & stabilizers[x])
            table[stab] = (reps, tuple(sizes))
        return table

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _compose(p, q):
    """p then q, acting on points."""
    return tuple(q[p[i]] for i in range(len(p)))


def _from_permutations(name: str, perms: list[tuple[int, ...]],
                       generators: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """Number the sorted `perms` 0, 1, ...: the identity, the least tuple, is 0."""
    index = {p: k for k, p in enumerate(perms)}
    deg = len(perms[0])
    mult = []
    for p in perms:
        mult.append(tuple(index[_compose(p, q)] for q in perms))
    inv = []
    for p in perms:
        pinv = [0] * deg
        for i, v in enumerate(p):
            pinv[v] = i
        inv.append(index[tuple(pinv)])
    return FiniteGroup(name, tuple(mult), tuple(inv), tuple(index[g] for g in generators))


def _generated(name: str, *generators: tuple[int, ...]) -> FiniteGroup:
    """The group the permutations `generators` generate, by closure."""
    perms = {tuple(range(len(generators[0])))}
    frontier = list(perms)
    while frontier:
        p = frontier.pop()
        for q in (_compose(p, g) for g in generators):
            if q not in perms:
                perms.add(q)
                frontier.append(q)
    return _from_permutations(name, sorted(perms), generators)


S3 = _generated("S3", (1, 0, 2), (1, 2, 0))
S4 = _generated("S4", (1, 0, 2, 3), (1, 2, 3, 0))
A4 = _generated("A4", (1, 2, 0, 3), (0, 2, 3, 1))
D4 = _generated("D4", (1, 2, 3, 0), (1, 0, 3, 2))  # the square's symmetries on its vertices

BATTERY = {"S3": S3, "D4": D4, "A4": A4, "S4": S4}
DEFAULT_BATTERY = ("S3", "D4", "A4", "S4")
