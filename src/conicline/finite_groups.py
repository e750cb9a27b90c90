"""Small permutation groups with precomputed multiplication tables, used as
homomorphism-count targets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.mult)

    identity = 0

    def _conjugation_orbits(self, by) -> dict[int, int]:
        """Orbits of the elements `by` acting on the group by conjugation, as
        {smallest element: orbit size}."""
        mult, inv = self.mult, self.inv
        orbits: dict[int, int] = {}
        seen: set[int] = set()
        for x in range(self.order):
            if x not in seen:
                orbit = {mult[mult[g][x]][inv[g]] for g in by}
                seen |= orbit
                orbits[x] = len(orbit)
        return orbits

    @cached_property
    def conjugacy_classes(self) -> dict[int, int]:
        """Conjugacy classes as {smallest element: class size}."""
        return self._conjugation_orbits(range(self.order))

    @cached_property
    def centralizer_orbits(self) -> dict[int, dict[int, int]]:
        """For each class representative a, the orbits of the centralizer of
        a acting on the group by conjugation, as {smallest element: orbit
        size}."""
        mult = self.mult
        return {a: self._conjugation_orbits(
                    [g for g in range(self.order) if mult[g][a] == mult[a][g]])
                for a in self.conjugacy_classes}

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _compose(p, q):
    """p then q, acting on points."""
    return tuple(q[p[i]] for i in range(len(p)))


def _from_permutations(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
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
    return FiniteGroup(name, tuple(mult), tuple(inv))


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
    return _from_permutations(name, sorted(perms))


S3 = _generated("S3", (1, 0, 2), (1, 2, 0))
S4 = _generated("S4", (1, 0, 2, 3), (1, 2, 3, 0))
A4 = _generated("A4", (1, 2, 0, 3), (0, 2, 3, 1))
D4 = _generated("D4", (1, 2, 3, 0), (1, 0, 3, 2))  # the square's symmetries on its vertices

BATTERY = {"S3": S3, "D4": D4, "A4": A4, "S4": S4}
DEFAULT_BATTERY = ("S3", "D4", "A4", "S4")
