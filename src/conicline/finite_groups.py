"""Small permutation groups with precomputed multiplication tables, used as
homomorphism-count targets."""

from __future__ import annotations

import itertools
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


def _from_permutations(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    index = {p: k for k, p in enumerate(perms)}
    deg = len(perms[0])
    mult = []
    for p in perms:
        row = []
        for q in perms:
            # p then q, acting on points
            row.append(index[tuple(q[p[i]] for i in range(deg))])
        mult.append(tuple(row))
    inv = []
    for p in perms:
        pinv = [0] * deg
        for i, v in enumerate(p):
            pinv[v] = i
        inv.append(index[tuple(pinv)])
    return FiniteGroup(name, tuple(mult), tuple(inv))


def _sorted_perms(perms) -> list[tuple[int, ...]]:
    perms = sorted(set(perms))
    ident = tuple(range(len(perms[0])))
    perms.remove(ident)
    return [ident] + perms


def symmetric(n: int, name: str) -> FiniteGroup:
    return _from_permutations(name, _sorted_perms(itertools.permutations(range(n))))


def _parity(p) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


S3 = symmetric(3, "S3")
S4 = symmetric(4, "S4")
A4 = _from_permutations(
    "A4", _sorted_perms(p for p in itertools.permutations(range(4)) if _parity(p) == 0))
# dihedral group of the square, as permutations of its vertices
_rot = (1, 2, 3, 0)
_ref = (1, 0, 3, 2)


def _compose(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _d4_perms():
    out = set()
    r = (0, 1, 2, 3)
    for _ in range(4):
        out.add(r)
        out.add(_compose(r, _ref))
        r = _compose(r, _rot)
    return out


D4 = _from_permutations("D4", _sorted_perms(_d4_perms()))

BATTERY = {"S3": S3, "D4": D4, "A4": A4, "S4": S4}
DEFAULT_BATTERY = ("S3", "D4", "A4", "S4")
