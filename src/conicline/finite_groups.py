"""Small permutation groups with precomputed multiplication tables, used as
homomorphism-count targets, and their automorphism and subgroup-copy
tables, built on first use."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    generators: tuple[int, ...]  # elements that generate the group
    # copies(h) by h's name, built on first use
    _copies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.mult)

    identity = 0

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of each element."""
        orders = []
        for x in range(self.order):
            n, y = 1, x
            while y != self.identity:
                n, y = n + 1, self.mult[y][x]
            orders.append(n)
        return tuple(orders)

    def _extension(self, target: FiniteGroup, images) -> tuple[int, ...] | None:
        """The homomorphism into `target` that sends the generators to
        `images`, as the tuple of element images, extended along the Cayley
        graph (x g -> phi(x) image(g)) with `target`'s table; None when two
        edges disagree."""
        mult, tmult = self.mult, target.mult
        phi = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, a in zip(self.generators, images):
                y, b = mult[x][g], tmult[phi[x]][a]
                if y not in phi:
                    phi[y] = b
                    frontier.append(y)
                elif phi[y] != b:
                    return None
        return tuple(phi[x] for x in range(self.order))

    def _injections(self, target: FiniteGroup):
        """The injective homomorphisms into `target`, as element image
        tuples: the injective extensions of every choice of images for the
        generators among the elements of `target` of the same orders (an
        injection keeps every element's order)."""
        orders = target.element_orders
        choices = [[y for y in range(target.order) if orders[y] == self.element_orders[g]]
                   for g in self.generators]
        for images in product(*choices):
            phi = self._extension(target, images)
            if phi and len(set(phi)) == self.order:
                yield phi

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """The automorphisms as element permutations, sorted, so that the
        identity is automorphism 0: the injections into the group itself."""
        return tuple(sorted(self._injections(self)))

    def copies(self, h: FiniteGroup) -> tuple[int, ...]:
        """The subgroups isomorphic to `h`, as bitmasks of their elements,
        sorted: the images of the injections of h; () when h does not embed.
        The set is Aut-stable. Built on first use per h and kept on the
        group."""
        got = self._copies.get(h.name)
        if got is None:
            got = self._copies[h.name] = tuple(sorted(
                {sum(1 << y for y in phi) for phi in h._injections(self)}))
        return got

    @cached_property
    def stabilizers(self) -> tuple[int, ...]:
        """For each element, the automorphisms that fix it, as a bitmask over
        `automorphisms`."""
        return tuple(sum(1 << i for i, a in enumerate(self.automorphisms) if a[x] == x)
                     for x in range(self.order))

    @cached_property
    def orbits(self) -> dict[int, tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]]:
        """For the whole automorphism group and each subgroup obtained from it
        by fixing orbit representatives one after another, keyed by its
        bitmask: its orbits on the elements, as the bitmask of their smallest
        elements, the orbit size of each element, and its size classes, each
        as (size, the `rep` blocks of the elements of that size), sizes
        ascending. The identity alone, key 1, has every element as a
        representative of size 1."""
        auts, stabilizers, n = self.automorphisms, self.stabilizers, self.order
        full = (1 << n) - 1
        table: dict[int, tuple] = {}
        todo = [(1 << len(auts)) - 1]
        while todo:
            stab = todo.pop()
            if stab in table:
                continue
            by = [a for i, a in enumerate(auts) if stab >> i & 1]
            reps, sizes, blocks = 0, [0] * n, {}
            for x in range(n):
                if not sizes[x]:
                    orbit = {a[x] for a in by}
                    size = len(orbit)
                    for y in orbit:
                        sizes[y] = size
                        blocks[size] = blocks.get(size, 0) | full << y * (n + 1)
                    reps |= 1 << x
                    todo.append(stab & stabilizers[x])
            table[stab] = (reps, tuple(sizes), tuple(sorted(blocks.items())))
        return table

    @cached_property
    def rep(self) -> int:
        """The bit e(|G| + 1) for each element e. Read an int as |G| blocks
        of |G| bits one spare bit apart, block e being bits e(|G| + 1) ..
        e(|G| + 1) + |G| - 1: a mask over the elements times `rep` is that
        mask in every block."""
        return sum(1 << e * (self.order + 1) for e in range(self.order))

    @cached_property
    def tile(self) -> int:
        """The bit e|G| for each element e: a mask times `tile` is |G|
        copies of it edge to edge, copy e holding its bit e at e(|G| + 1),
        the first bit of block e. So (mask * tile) & rep has the first bit
        of block e for each e in the mask, and x times that is x in those
        blocks."""
        return sum(1 << e * self.order for e in range(self.order))

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
