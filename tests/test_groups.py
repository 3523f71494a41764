import random

import pytest

from pi1curves import groups
from pi1curves.catalog import (alternating, catalog_group, catalog_groups,
                               cyclic, dihedral, symmetric)
from pi1curves.errors import DomainError
from pi1curves.groups import (
    PermutationGroup,
    abelianization,
    abelianization_p_rank,
    count_generating_tuples,
    derived_subgroup,
    eulerian,
    is_p_group,
    min_generators,
    moebius,
    nakajima_tG,
    normal_closure,
    quasi_p_part,
    quotient,
    subgroup_generated,
    subgroup_lattice,
    sylow_subgroup,
)
from pi1curves.perms import Perm


def test_orders():
    assert cyclic(12).order() == 12
    assert dihedral(7).order() == 14
    assert symmetric(5).order() == 120
    assert alternating(5).order() == 60


def test_membership():
    S4 = symmetric(4)
    A4 = alternating(4)
    three_cycle = Perm.from_cycles(4, [(1, 2, 3)])
    transposition = Perm.from_cycles(4, [(1, 2)])
    assert three_cycle in A4
    assert transposition in S4
    assert transposition not in A4


def test_elements_sorted_and_closed():
    S3 = symmetric(3)
    elems = S3.elements()
    assert len(elems) == 6
    assert list(elems) == sorted(elems)
    for a in elems:
        for b in elems:
            assert a * b in elems


def test_random_subgroup_orders_divide():
    rng = random.Random(11)
    S5 = symmetric(5)
    elems = S5.elements()
    for _ in range(20):
        gens = rng.sample(elems, 2)
        H = subgroup_generated(S5, gens)
        assert S5.order() % H.order() == 0


def test_normal_closure():
    S4 = symmetric(4)
    double = Perm.from_cycles(4, [(1, 2), (3, 4)])
    V = normal_closure(S4, [double])
    assert V.order() == 4
    three_cycle = Perm.from_cycles(4, [(1, 2, 3)])
    assert normal_closure(S4, [three_cycle]).order() == 12


def test_sylow():
    S4 = symmetric(4)
    assert sylow_subgroup(S4, 2).order() == 8
    assert sylow_subgroup(S4, 3).order() == 3
    assert sylow_subgroup(S4, 5).order() == 1
    with pytest.raises(DomainError) as err:
        sylow_subgroup(S4, 4)
    assert err.value.code == "NOT_PRIME"


def test_quasi_p_part():
    S3 = symmetric(3)
    assert quasi_p_part(S3, 2).order() == 6   # p(S3) at 2 is S3
    assert quasi_p_part(S3, 3).order() == 3   # A3
    assert quasi_p_part(cyclic(3), 2).order() == 1
    assert quasi_p_part(S3, 0).order() == 1


def test_quotient():
    S4 = symmetric(4)
    A4 = alternating(4)
    hom = quotient(S4, A4)
    assert hom.image.order() == 2
    assert hom.map_element(Perm.from_cycles(4, [(1, 2)])) != \
        hom.map_element(Perm.identity(4))
    with pytest.raises(DomainError) as err:
        quotient(S4, subgroup_generated(S4, [Perm.from_cycles(4, [(1, 2)])]))
    assert err.value.code == "NOT_NORMAL"


def test_min_generators():
    assert min_generators(PermutationGroup.trivial(1)) == 0
    assert min_generators(cyclic(6)) == 1
    assert min_generators(symmetric(3)) == 2
    klein_cubed = catalog_group("C2xC2xC2")
    assert min_generators(klein_cubed) == 3
    assert min_generators(alternating(5)) == 2


def test_abelianization():
    assert abelianization(symmetric(4)).image.order() == 2
    assert abelianization(alternating(5)).image.order() == 1
    assert derived_subgroup(symmetric(3)).order() == 3


def test_hasse_witt_sigma():
    assert abelianization_p_rank(symmetric(3), 3) == 0
    assert abelianization_p_rank(symmetric(3), 2) == 1
    assert abelianization_p_rank(dihedral(4), 2) == 2
    assert abelianization_p_rank(catalog_group("C2xC2xC2"), 2) == 3
    assert abelianization_p_rank(cyclic(15), 5) == 1


# number of subgroups and μ(1, G)
LATTICES = {"S3": (6, 3), "S4": (30, -12), "A5": (59, -60), "D4": (10, 0),
            "Q8": (6, 0), "C2xC2xC2": (16, -8), "SL23": (15, 0)}


@pytest.mark.parametrize("name", LATTICES)
def test_subgroup_lattice(name):
    subgroups, mu_trivial = LATTICES[name]
    G = catalog_group(name)
    lattice = subgroup_lattice(G)
    assert len(lattice) == subgroups
    mu = moebius(G)
    assert mu[frozenset(G.elements())] == 1
    assert mu[frozenset([Perm.identity(G.degree)])] == mu_trivial


def _perm_closure(degree, gens):
    identity = Perm.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [y for y in {g * x for x in frontier for g in gens}
                    if y not in seen]
        seen.update(frontier)
    return seen


def test_span_matches_perm_closure():
    rng = random.Random(5)
    for name, G in catalog_groups(24):
        elements = G.elements()
        assert G.span(()) == 1
        for _ in range(6):
            positions = tuple(rng.randrange(len(elements))
                              for _ in range(rng.randint(0, 3)))
            mask = G.span(positions)
            expected = _perm_closure(G.degree, [elements[i] for i in positions])
            assert {elements[i] for i in range(len(elements))
                    if mask >> i & 1} == expected, (name, positions)


def test_eulerian_vs_exhaustive():
    for name, k in [("S3", 2), ("C6", 1), ("C2xC2", 2), ("D4", 2), ("Q8", 2)]:
        G = catalog_group(name)
        assert eulerian(G, k) == count_generating_tuples(G, k)
    assert eulerian(symmetric(3), 2) == 18
    assert eulerian(cyclic(6), 1) == 2


def test_eulerian_k_zero():
    assert eulerian(PermutationGroup.trivial(1), 0) == 1
    assert eulerian(cyclic(2), 0) == 0


def test_p_group_predicates():
    assert is_p_group(dihedral(4), 2)
    assert not is_p_group(symmetric(3), 2)
    assert nakajima_tG(catalog_group("C2xC2"), 2) == 2
    assert nakajima_tG(cyclic(5), 5) == 1
    assert nakajima_tG(symmetric(3), 3) is None


def test_conjugate_preserves_order():
    S4 = symmetric(4)
    H = sylow_subgroup(S4, 2)
    t = Perm.from_cycles(4, [(1, 2, 3)])
    assert H.conjugate(t).order() == H.order()


QUOTIENT_GROUPS = [name for name, _ in catalog_groups(60)]


@pytest.mark.parametrize("name", QUOTIENT_GROUPS)
def test_quotient_layer(name):
    G = catalog_group(name)
    order, elements = G.order(), G.elements()
    for p in (2, 3, 5, 7):
        p_part = 1
        while order % (p_part * p) == 0:
            p_part *= p
        assert sylow_subgroup(G, p).order() == p_part
    rng = random.Random(name)
    chosen = [rng.choice(elements) for _ in range(rng.randint(1, 2))]
    N = normal_closure(G, chosen)
    members = set(N.elements())
    assert set(chosen) <= members
    assert all(g * n * g.inverse in members
               for g in G.generators for n in N.generators)
    assert members == _perm_closure(
        G.degree, [g * s * g.inverse for g in elements for s in chosen])
    hom = quotient(G, N)
    assert hom.image.order() == order // len(members)
    for _ in range(8):
        a, b = rng.choice(elements), rng.choice(elements)
        assert hom.map_element(a * b) == hom.map_element(a) * hom.map_element(b)


def test_quotient_layer_builds_no_chain(monkeypatch):
    # only the group's own chain (for its order) and the chain of a
    # quotient's image may be built; sigma needs no quotient at all
    G = catalog_group("SL23")
    G.order()
    chained = []
    chain = PermutationGroup._chain

    def recording(self):
        if "chain" not in self._memo:
            chained.append(self)
        return chain(self)

    def forbidden(*args):
        raise AssertionError("sigma must not form a quotient")

    monkeypatch.setattr(PermutationGroup, "_chain", recording)
    N = normal_closure(G, [G.elements()[5]])
    sylow_subgroup(G, 2)
    quasi_p_part(G, 3)
    monkeypatch.setattr(groups, "quotient", forbidden)
    monkeypatch.setattr(groups, "abelianization", forbidden)
    assert abelianization_p_rank(G, 2) == 0
    assert abelianization_p_rank(G, 3) == 1
    assert chained == []
    monkeypatch.undo()
    monkeypatch.setattr(PermutationGroup, "_chain", recording)
    image = quotient(G, N).image
    assert all(c is image for c in chained)


def test_quotient_layer_needs_an_enumerable_group():
    S8 = symmetric(8)  # 40,320 elements, above ENUM_BOUND
    calls = [lambda: normal_closure(S8, []), lambda: derived_subgroup(S8),
             lambda: quasi_p_part(S8, 11), lambda: quasi_p_part(S8, 2),
             lambda: quotient(S8, PermutationGroup.trivial(8)),
             lambda: abelianization_p_rank(S8, 2)]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "GROUP_TOO_LARGE"
    # p does not divide |S8|: the trivial Sylow subgroup needs no elements
    assert sylow_subgroup(S8, 11).order() == 1
