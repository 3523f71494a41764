"""Builders that regenerate src/pi1curves/data/catalog.json.

Groups that have no convenient small-degree permutation model are
assembled as abstract multiplication tables (cyclic pieces, direct and
semidirect products, dicyclic groups, central quotients) and realized
through the left regular representation.  build_catalog() returns every
catalog group in catalog order; test_catalog.py checks the shipped file
against it, and the tests build small groups with cyclic, dihedral,
symmetric and alternating.
"""

from pi1curves.errors import require
from pi1curves.groups import PermutationGroup
from pi1curves.perms import Perm


# -- abstract tables --------------------------------------------------------

class GroupTable:
    """A finite group as explicit elements + multiplication, with a chosen
    generating set.  Elements must be hashable."""

    def __init__(self, elements, mul, identity, generators):
        self.elements = list(elements)
        self.mul = mul
        self.identity = identity
        self.generators = list(generators)

    def to_permutation_group(self) -> PermutationGroup:
        """Left regular representation on the element list."""
        index = {e: i for i, e in enumerate(self.elements)}
        gens = []
        for g in self.generators:
            images = tuple(index[self.mul(g, e)] for e in self.elements)
            gens.append(Perm(images))
        return PermutationGroup.from_generators(gens, len(self.elements))


def cyclic_table(n: int) -> GroupTable:
    return GroupTable(range(n), lambda a, b: (a + b) % n, 0,
                      [1] if n > 1 else [])


def direct_table(a: GroupTable, b: GroupTable) -> GroupTable:
    elements = [(x, y) for x in a.elements for y in b.elements]

    def mul(u, v):
        return (a.mul(u[0], v[0]), b.mul(u[1], v[1]))

    gens = ([(g, b.identity) for g in a.generators]
            + [(a.identity, g) for g in b.generators])
    return GroupTable(elements, mul, (a.identity, b.identity), gens)


def semidirect_table(n: GroupTable, h: GroupTable, act) -> GroupTable:
    """N ⋊ H with act(h_elt) an automorphism of N (a callable on N)."""
    elements = [(x, y) for x in n.elements for y in h.elements]

    def mul(u, v):
        return (n.mul(u[0], act(u[1])(v[0])), h.mul(u[1], v[1]))

    gens = ([(g, h.identity) for g in n.generators]
            + [(n.identity, g) for g in h.generators])
    return GroupTable(elements, mul, (n.identity, h.identity), gens)


def cyclic_power_action(n: int, k: int):
    """The automorphism x -> k*x of Z/n, raised to the acting exponent."""
    def act(h):
        mult = pow(k, h, n)
        return lambda x: (x * mult) % n
    return act


def dicyclic_table(m: int) -> GroupTable:
    """Dicyclic group of order 4m: <a, b | a^(2m), b^2 = a^m, bab' = a^(-1)>.
    Elements are (i, j) standing for a^i b^j."""
    n = 2 * m

    def mul(u, v):
        i1, j1 = u
        i2, j2 = v
        if j1 == 0:
            return ((i1 + i2) % n, j2)
        if j2 == 0:
            return ((i1 - i2) % n, 1)
        return ((i1 - i2 + m) % n, 0)

    elements = [(i, j) for j in (0, 1) for i in range(n)]
    return GroupTable(elements, mul, (0, 0), [(1, 0), (0, 1)])


def central_quotient_table(table: GroupTable, central_elements) -> GroupTable:
    """Quotient by a (central) subgroup given as an element list."""
    sub = list(central_elements)
    cosets = {}
    reps = []
    for e in table.elements:
        if e in cosets:
            continue
        rep = e
        reps.append(rep)
        for z in sub:
            cosets[table.mul(e, z)] = rep

    def mul(u, v):
        return cosets[table.mul(u, v)]

    gens = []
    for g in table.generators:
        r = cosets[g]
        if r != cosets[table.identity] and r not in gens:
            gens.append(r)
    return GroupTable(reps, mul, cosets[table.identity], gens)


# -- named constructions ----------------------------------------------------

def cyclic(n: int) -> PermutationGroup:
    if n == 1:
        return PermutationGroup.trivial(1)
    return PermutationGroup.from_generators(
        [Perm.from_cycles(n, [tuple(range(1, n + 1))])])


def dihedral(n: int) -> PermutationGroup:
    """Dihedral group of order 2n acting on n points (n >= 3)."""
    rotation = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    reflection = Perm(tuple(-i % n for i in range(n)))
    return PermutationGroup.from_generators([rotation, reflection])


def symmetric(n: int) -> PermutationGroup:
    return PermutationGroup.from_generators(
        [Perm.from_cycles(n, [(1, 2)]),
         Perm.from_cycles(n, [tuple(range(1, n + 1))])])


def alternating(n: int) -> PermutationGroup:
    cycle = (tuple(range(1, n + 1)) if n % 2
             else tuple(range(2, n + 1)))
    return PermutationGroup.from_generators(
        [Perm.from_cycles(n, [(1, 2, 3)]), Perm.from_cycles(n, [cycle])])


def _abelian(*orders) -> GroupTable:
    table = cyclic_table(orders[0])
    for n in orders[1:]:
        table = direct_table(table, cyclic_table(n))
    return table


def _sl23_table() -> GroupTable:
    """SL(2, 3) as 2x2 matrices over F3."""
    import itertools
    elements = [m for m in itertools.product(range(3), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]

    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[2]) % 3,
                (a[0] * b[1] + a[1] * b[3]) % 3,
                (a[2] * b[0] + a[3] * b[2]) % 3,
                (a[2] * b[1] + a[3] * b[3]) % 3)

    return GroupTable(elements, mul, (1, 0, 0, 1),
                      [(1, 1, 0, 1), (0, 2, 1, 0)])


def _klein4_cycle_action():
    """C3 permuting the three involutions of C2 x C2 cyclically."""
    order = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0)}

    def act(h):
        def f(x):
            for _ in range(h % 3):
                x = order[x]
            return x
        return f
    return act


def _swap_action():
    """C4 (or C2) swapping the coordinates of C2 x C2."""
    def act(h):
        if h % 2 == 0:
            return lambda x: x
        return lambda x: (x[1], x[0])
    return act


def _inversion_action(n: int):
    def act(h):
        if h % 2 == 0:
            return lambda x: x
        return lambda x: tuple(-c % n for c in x) if isinstance(x, tuple) \
            else (-x) % n
    return act


def _build_tables() -> dict:
    """name -> GroupTable or PermutationGroup, insertion order = catalog order."""
    c2, c3, c4 = cyclic_table(2), cyclic_table(3), cyclic_table(4)
    c8 = cyclic_table(8)
    v4 = _abelian(2, 2)
    d4_table = semidirect_table(c4, c2, cyclic_power_action(4, 3))
    q8_table = dicyclic_table(2)

    groups: dict = {}

    def add(name, obj):
        require(name not in groups, "INTERNAL_INVARIANT",
                f"catalog name {name} used twice")
        groups[name] = obj

    # abelian groups, all orders <= 24
    for n in range(1, 25):
        add(f"C{n}", cyclic(n))
    for spec in [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4),
                 (2, 2, 4), (2, 2, 2, 2), (2, 3, 3), (2, 10), (2, 12),
                 (2, 2, 2, 3)]:
        name = "x".join(f"C{k}" for k in sorted(spec, reverse=True))
        add(name, _abelian(*spec))

    # dihedral groups D3..D12 (order 2n)
    for n in range(3, 13):
        add(f"D{n}", dihedral(n))

    # dicyclic groups: Q8 = Dic2, Dic3 (12), Q16 = Dic4, Dic5 (20), Dic6 (24)
    add("Q8", dicyclic_table(2))
    add("Dic3", dicyclic_table(3))
    add("Q16", dicyclic_table(4))
    add("Dic5", dicyclic_table(5))
    add("Dic6", dicyclic_table(6))

    add("S3", symmetric(3))
    add("S4", symmetric(4))
    add("A4", alternating(4))
    add("A5", alternating(5))

    # remaining nonabelian groups of order 16
    add("SD16", semidirect_table(c8, c2, cyclic_power_action(8, 3)))
    add("M16", semidirect_table(c8, c2, cyclic_power_action(8, 5)))
    add("C4:C4", semidirect_table(c4, c4, cyclic_power_action(4, 3)))
    add("C2xC2:C4", semidirect_table(v4, c4, _swap_action()))
    add("C2xD4", direct_table(c2, d4_table))
    add("C2xQ8", direct_table(c2, q8_table))
    c4xd4 = direct_table(c4, d4_table)
    # central product: kill the diagonal of the two centers {(0,e), (2,r^2)}
    add("C4oD4", central_quotient_table(c4xd4, [(0, (0, 0)), (2, (2, 0))]))

    # order 18
    add("C3xC3:C2", semidirect_table(_abelian(3, 3), c2, _inversion_action(3)))
    add("S3xC3", direct_table(semidirect_table(c3, c2, cyclic_power_action(3, 2)), c3))

    # order 20 / 21
    add("F20", semidirect_table(cyclic_table(5), c4, cyclic_power_action(5, 2)))
    add("C7:C3", semidirect_table(cyclic_table(7), c3, cyclic_power_action(7, 2)))

    # remaining order 24
    add("SL23", _sl23_table())
    add("C3:C8", semidirect_table(c3, c8, cyclic_power_action(3, 2)))
    add("C3xD4", direct_table(c3, d4_table))
    add("C3xQ8", direct_table(c3, q8_table))
    add("S3xC4", direct_table(semidirect_table(c3, c2, cyclic_power_action(3, 2)), c4))
    add("C2xA4", direct_table(c2, semidirect_table(v4, c3, _klein4_cycle_action())))
    add("C2xD6", direct_table(c2, semidirect_table(cyclic_table(6), c2,
                                                   cyclic_power_action(6, 5))))
    add("C2xDic3", direct_table(c2, dicyclic_table(3)))
    add("C3:D4", semidirect_table(c3, d4_table, _d4_on_c3_action()))
    return groups


def _d4_on_c3_action():
    """D4 = <r, s> acting on C3 with r inverting and s acting trivially
    (kernel <r^2, s>); this is the order-24 group C3:D4, not D12."""
    def act(h):
        i, _ = h  # D4 element (i, j) = r^i s^j in the semidirect table
        if i % 2 == 0:
            return lambda x: x
        return lambda x: (-x) % 3
    return act


def build_catalog() -> dict:
    """name -> PermutationGroup for every catalog entry."""
    out = {}
    for name, obj in _build_tables().items():
        if isinstance(obj, GroupTable):
            obj = obj.to_permutation_group()
        out[name] = obj
    return out
