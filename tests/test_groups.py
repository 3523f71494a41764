import json
import random
import time
from functools import reduce
from math import factorial, prod
from operator import mul

import pytest

from pi1curves import groups, perms
from pi1curves.catalog import (catalog_group, catalog_groups, group_from_json,
                               group_to_json)
from pi1curves.cli import main
from pi1curves.covers import build_descriptor, is_connected
from pi1curves.curves import CurveConfiguration, PointRef
from pi1curves.errors import DomainError
from pi1curves.groups import (
    LATTICE_BOUND,
    PermutationGroup,
    abelianization,
    abelianization_p_rank,
    derived_subgroup,
    eulerian,
    is_p_group,
    is_prime,
    min_generators,
    moebius,
    nakajima_tG,
    normal_closure,
    quasi_p_part,
    quotient,
    subgroup_lattice,
    sylow_subgroup,
)
from pi1curves.oracle import (cross_check_descent, enumerate_connected_covers,
                              nodal_curve, two_node_curve)
from pi1curves.perms import Perm

from catalog_builders import alternating, cyclic, dihedral, symmetric
from oracles import (compose, conjugate, count_generating_tuples,
                     perm_closure, sheet_graph_connected, subgroup_generated,
                     subgroup_lattice_by_closure)


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


def _fresh(G):
    # a fresh copy: the shared catalog group may be indexed already
    return PermutationGroup.from_generators(G.generators, G.degree)


def _elementary_abelian(p, n):
    """C_p^n on p*n points, one p-cycle per factor."""
    return PermutationGroup.from_generators(
        [Perm.from_cycles(p * n, [tuple(range(p * i + 1, p * i + p + 1))])
         for i in range(n)])


def test_min_generators_on_elementary_abelian_groups():
    # d = σ_p = n by Burnside's basis theorem: no level is built
    started = time.perf_counter()
    assert min_generators(_elementary_abelian(2, 5)) == 5
    assert min_generators(_elementary_abelian(2, 6)) == 6
    assert time.perf_counter() - started < 2
    for p, n in ((2, 7), (3, 4)):
        started = time.perf_counter()
        assert min_generators(_elementary_abelian(p, n)) == n
        assert time.perf_counter() - started < 1
    assert min_generators(_elementary_abelian(3, 3)) == 3


def _counting_sigma(monkeypatch, answer=None):
    """Record each prime min_generators asks σ_p for; answer, when given,
    replaces the true σ_p."""
    calls, true_sigma = [], groups.abelianization_p_rank

    def sigma(G, p):
        calls.append(p)
        return true_sigma(G, p) if answer is None else answer
    monkeypatch.setattr(groups, "abelianization_p_rank", sigma)
    return calls


def _recording_levels(monkeypatch):
    """Record each level min_generators takes from _subgroup_levels."""
    taken, levels = [], groups._subgroup_levels

    def recording(G):
        for level in levels(G):
            taken.append(level)
            yield level
    monkeypatch.setattr(groups, "_subgroup_levels", recording)
    return taken


def _smallest_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


def test_sigma_bound_is_taken_only_past_the_pair_probes(monkeypatch):
    # a p-group asks σ_p once, for its own prime, and takes no level
    # (Burnside's basis theorem); of the other groups, those with d <= 2
    # never reach the σ step, nor does C3xC3:C2 (d = 3), since no p^3
    # divides 18; every other one with d >= 3 asks once, for p = 2, whose
    # cube divides its order
    calls, taken = _counting_sigma(monkeypatch), _recording_levels(monkeypatch)
    for name, G in catalog_groups():
        p = _smallest_prime(G.order()) if G.order() > 1 else None
        for seed in range(5):
            calls.clear()
            taken.clear()
            d = min_generators(_fresh(G), seed)
            if p is not None and is_p_group(G, p):
                assert (calls, taken) == ([p], []), (name, seed)
            else:
                expected = [2] if d >= 3 and name != "C3xC3:C2" else []
                assert calls == expected, (name, seed)


def test_sigma_bound_without_a_witness_falls_back(monkeypatch):
    # a σ bound below d leaves every L-tuple probe failing, and the level
    # search decides (C3^3:C2 x C2^2, of order 216, has σ_2 = 3 < d = 4);
    # here σ_2(C2^4 x C3) = 4 is reported as 3
    G = PermutationGroup.from_generators(
        [Perm.from_cycles(11, [cycle])
         for cycle in ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10, 11))])
    assert G.order() == 48
    calls = _counting_sigma(monkeypatch, answer=3)
    started = time.perf_counter()
    assert min_generators(_fresh(G)) == 4
    assert calls == [2]
    assert time.perf_counter() - started < 1


def test_non_abelian_groups_skip_the_level_search(monkeypatch):
    # two generators that do not commute make G non-cyclic, so a
    # generating pair probe proves d = 2 before any level is built; an
    # abelian group that is not a p-group still takes level 1, which
    # alone proves d = 1 for a cyclic one
    ds = {name: min_generators(_fresh(G)) for name, G in catalog_groups()}
    taken = _recording_levels(monkeypatch)
    non_abelian, abelian = 0, 0
    for name, G in catalog_groups():
        order = G.order()
        if order == 1 or is_p_group(G, _smallest_prime(order)):
            continue
        for seed in range(5):
            taken.clear()
            assert min_generators(_fresh(G), seed) == ds[name]
            if derived_subgroup(G).order() > 1:
                non_abelian += 1
                assert ds[name] > 2 or taken == [], (name, seed)
            else:
                abelian += 1
                assert taken, (name, seed)
                if ds[name] == 1:
                    assert len(taken) == 1, (name, seed)
    assert non_abelian and abelian


def _level_search_d(G):
    """d(G) by the level search alone: the first level of _subgroup_levels
    that holds G."""
    full = (1 << len(G.elements())) - 1
    if full == 1:
        return 0
    return next(k for k, level in enumerate(groups._subgroup_levels(G), 1)
                if full in level)


def _small_subgroups_of_s6(count):
    """`count` distinct seeded subgroups of S6 of order <= 200, each made
    by 1-4 random elements or 2-4 random involutions."""
    rng = random.Random(26)
    S6 = symmetric(6).elements()
    involutions = [g for g in S6 if g.order() == 2]
    found = {}
    while len(found) < count:
        pool, low = (S6, 1) if rng.random() < 0.5 else (involutions, 2)
        G = PermutationGroup.from_generators(
            rng.sample(pool, rng.randint(low, 4)), 6)
        if G.order_at_most(200):
            found.setdefault(frozenset(G.elements()), G)
    return list(found.values())


def test_min_generators_is_exact_whatever_the_seed():
    # every seed gives the level search's answer, on every catalog group
    # and on 40 seeded subgroups of S6
    subgroups = [(f"S6 subgroup {i}", G)
                 for i, G in enumerate(_small_subgroups_of_s6(40))]
    ds = {}
    for name, G in [*catalog_groups(), *subgroups]:
        ds[name] = _level_search_d(_fresh(G))
        assert [min_generators(_fresh(G), seed) for seed in range(5)] \
            == [ds[name]] * 5, name
    assert set(ds.values()) == {0, 1, 2, 3, 4}
    assert {ds[name] for name, _ in subgroups} == {1, 2, 3}


def test_min_generators_is_exact_on_p_groups_outside_the_catalog():
    # σ_p (Burnside's basis theorem) against the level search, on p-groups
    # in other permutation representations: the Sylow 2- and 3-subgroups
    # of S6 and the Sylow subgroups of every catalog group; and C2^5, C3^3
    S6 = symmetric(6)
    p_groups = [sylow_subgroup(S6, 2), sylow_subgroup(S6, 3)]
    for _, G in catalog_groups():
        order = G.order()
        p_groups += [sylow_subgroup(G, p) for p in range(2, order + 1)
                     if order % p == 0 and is_prime(p)]
    ds = []
    for G in p_groups:
        ds.append(_level_search_d(_fresh(G)))
        assert [min_generators(_fresh(G), seed) for seed in range(5)] \
            == [ds[-1]] * 5, G
    assert ds[:2] == [3, 2] and set(ds) == {1, 2, 3, 4}
    for p, n in ((2, 5), (3, 3)):
        G = _elementary_abelian(p, n)
        assert _level_search_d(_fresh(G)) == n
        assert [min_generators(_fresh(G), seed) for seed in range(5)] \
            == [n] * 5


def test_sigma_is_a_lower_bound_for_d():
    for name, G in catalog_groups():
        order, d = G.order(), min_generators(G)
        for p in range(2, order + 1):
            if order % p == 0 and is_prime(p):
                assert abelianization_p_rank(G, p) <= d, (name, p)


def _product_row(G, i):
    index, g = G.index(), G.elements()[i].images
    return tuple(index[compose(g, x)] for x in index)


def test_rows_match_products():
    for name, G in catalog_groups():
        G = _fresh(G)
        for i in range(len(G.elements())):
            assert G.left_row(i) == _product_row(G, i), (name, i)


def test_rows_of_a_deep_search_tree():
    # one generator of order lcm(7, 8, 9, 11) = 5544: the search finds g^k
    # from g^(k-1), so the tree is a path and g^-1 is 5543 steps deep
    cycles, start = [], 1
    for length in (7, 8, 9, 11):
        cycles.append(tuple(range(start, start + length)))
        start += length
    g = Perm.from_cycles(35, cycles)
    G = PermutationGroup.from_generators([g])
    assert len(G.elements()) == 5544
    index = G.index()
    for power in (g.inverse, g.inverse * g.inverse, g * g):
        i = index[power.images]
        assert G.left_row(i) == _product_row(G, i)


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


def test_p_group_sigma_equals_d():
    # Burnside's basis theorem: d(G) is the F_p-dimension of G/[G,G]G^p,
    # which is sigma; so for p-groups the Nakajima bound t_G = d(G) is the
    # Hasse-Witt bound, and projective_realizable needs only the latter;
    # nakajima_tG and min_generators both read sigma (the level search
    # checks min_generators on p-groups outside the catalog)
    pairs = [(G, p) for _, G in catalog_groups() for p in range(2, 25)
             if G.order() > 1 and is_prime(p) and is_p_group(G, p)]
    assert len(pairs) == 32  # every catalog group of prime-power order
    for G, p in pairs:
        assert abelianization_p_rank(G, p) == nakajima_tG(_fresh(G), p) \
            == min_generators(G)


def test_nakajima_tG_above_the_min_generators_bound():
    # |C2^11| = 2048 > MIN_GEN_BOUND, where min_generators refuses
    G = _elementary_abelian(2, 11)
    with pytest.raises(DomainError) as err:
        min_generators(_fresh(G))
    assert err.value.code == "GROUP_TOO_LARGE"
    started = time.perf_counter()
    assert nakajima_tG(G, 2) == 11
    assert time.perf_counter() - started < 1


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


def test_subgroup_lattice_matches_closure_oracle():
    for name, G in catalog_groups(LATTICE_BOUND):
        expected = subgroup_lattice_by_closure(G)
        lattice = [frozenset(x.images for x in H) for H in subgroup_lattice(G)]
        assert lattice == expected, name
        # the defining recursion: the sum of mu(K, G) over H <= K <= G is 1
        # for H = G and 0 otherwise
        mu = {frozenset(x.images for x in H): m
              for H, m in moebius(G).items()}
        assert set(mu) == set(expected), name
        whole = expected[-1]
        for H in expected:
            assert sum(mu[K] for K in expected if H <= K) == (H == whole)


def test_span_matches_perm_closure():
    rng = random.Random(5)
    for name, G in catalog_groups(24):
        elements = G.elements()
        assert G.span(()) == 1
        for _ in range(6):
            positions = tuple(rng.randrange(len(elements))
                              for _ in range(rng.randint(0, 3)))
            mask = G.span(positions)
            expected = perm_closure(G.degree, [elements[i] for i in positions])
            assert {elements[i] for i in range(len(elements))
                    if mask >> i & 1} == expected, (name, positions)


def test_coset_map_gives_the_right_cosets():
    # the trivial subgroup and every cyclic subgroup of each group, against
    # the right cosets Hx taken with Perm products
    for name, G in catalog_groups(24):
        elements = G.elements()
        n = len(elements)
        quotients = {(x, y): elements[y] * elements[x].inverse
                     for x in range(n) for y in range(n)}
        subgroups = {frozenset([elements[0]]): []}
        for i in range(1, n):
            subgroups.setdefault(
                frozenset(perm_closure(G.degree, [elements[i]])), [i])
        for H, positions in subgroups.items():
            ids, reps = G.coset_map(positions)
            classes = [[x for x in range(n) if ids[x] == c]
                       for c in range(len(reps))]
            assert len(classes) == n // len(H), (name, positions)
            assert all(len(c) == len(H) for c in classes), (name, positions)
            assert list(reps) == [c[0] for c in classes], (name, positions)
            for (x, y), q in quotients.items():
                assert (ids[x] == ids[y]) == (q in H), (name, positions, x, y)


def test_eulerian_vs_exhaustive():
    for name, k in [("S3", 2), ("C6", 1), ("C2xC2", 2), ("D4", 2), ("Q8", 2)]:
        G = catalog_group(name)
        assert eulerian(G, k) == count_generating_tuples(G, k)
    assert eulerian(symmetric(3), 2) == 18
    assert eulerian(cyclic(6), 1) == 2


def test_eulerian_k_zero():
    assert eulerian(PermutationGroup.trivial(1), 0) == 1
    assert eulerian(cyclic(2), 0) == 0


def test_eulerian_refuses_a_large_group_on_every_call():
    # μ is kept only once the lattice is built, so the bound is checked
    # again on each call
    S6 = symmetric(6)
    for _ in range(2):
        with pytest.raises(DomainError) as err:
            eulerian(S6, 2)
        assert str(err.value) == \
            f"GROUP_TOO_LARGE: |G| = 720 > {LATTICE_BOUND}"
    assert "moebius" not in S6._memo


def test_moebius_result_does_not_share_the_kept_mu():
    G = catalog_group("S4")
    before = [eulerian(G, k) for k in range(4)]
    mu = moebius(G)
    mu.clear()
    assert [eulerian(G, k) for k in range(4)] == before == [0, 0, 216, 10080]


def test_kept_mu_gives_the_values_of_a_fresh_group():
    # φ_k on each catalog group, its μ kept from the first call, against a
    # fresh copy per k that builds the lattice anew
    for name, G in catalog_groups(LATTICE_BOUND):
        assert [eulerian(G, k) for k in range(4)] == [
            eulerian(group_from_json(group_to_json(G)), k)
            for k in range(4)], name


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
    assert conjugate(H, t).order() == H.order()


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
    assert members == perm_closure(
        G.degree, [g * s * g.inverse for g in elements for s in chosen])
    hom = quotient(G, N)
    assert hom.image.order() == order // len(members)
    for _ in range(8):
        a, b = rng.choice(elements), rng.choice(elements)
        assert hom.map_element(a * b) == hom.map_element(a) * hom.map_element(b)


def test_quotient_layer_builds_no_chain(chained, monkeypatch):
    # sigma needs no quotient at all, and a quotient lists its image
    G = _fresh(catalog_group("SL23"))
    N = normal_closure(G, [G.elements()[5]])
    sylow_subgroup(G, 2)
    quasi_p_part(G, 3)

    def forbidden(*args):
        raise AssertionError("sigma must not form a quotient")

    with monkeypatch.context() as patch:
        patch.setattr(groups, "quotient", forbidden)
        patch.setattr(groups, "abelianization", forbidden)
        assert abelianization_p_rank(G, 2) == 0
        assert abelianization_p_rank(G, 3) == 1
    image = quotient(G, N).image
    assert image.order() == len(image.elements())
    assert chained == []


def test_enumeration_builds_no_chain(chained):
    # a listed group takes its order, and every bound, from the listing
    G = PermutationGroup.from_generators(symmetric(5).generators)
    assert len(G.elements()) == 120 and len(G.index()) == 120
    assert G.order() == 120
    assert G.span([1]).bit_count() == G.elements()[1].order()
    H = subgroup_generated(G, [G.elements()[7], G.elements()[30]])
    n = len(H.elements())
    assert len(H.index()) == n and H.span(range(n)) == (1 << n) - 1
    assert min_generators(G) == 2
    S4 = PermutationGroup.from_generators(symmetric(4).generators)
    assert min_generators(S4) == 2 and eulerian(S4, 2) == 216
    assert is_p_group(S4, 2) is False
    D4 = _fresh(dihedral(4))
    assert nakajima_tG(D4, 2) == 2 and nakajima_tG(_fresh(D4), 3) is None
    assert len(abelianization(S4).image.elements()) == 2
    assert abelianization_p_rank(S4, 2) == 1
    # a Sylow subgroup takes |G| from the listing, whatever p divides
    for p, sylow, quasi_p in ((2, 8, 24), (3, 3, 12), (5, 1, 1)):
        S4 = PermutationGroup.from_generators(symmetric(4).generators)
        assert len(sylow_subgroup(S4, p).elements()) == sylow
        assert len(quasi_p_part(_fresh(S4), p).elements()) == quasi_p
    # the enumeration bound |G|^delta takes |G| from the listing
    theta = two_node_curve(5)
    for name, count in (("S3", 18), ("C4", 12), ("D4", 24), ("Q8", 24)):
        G = _fresh(catalog_group(name))
        assert enumerate_connected_covers(G, theta)[0] == count
        report = cross_check_descent(_fresh(G), nodal_curve(5))
        assert report.ok and report.checked == len(G.elements())
    assert chained == []


def test_cli_enumeration_builds_no_chain(chained, capsys, tmp_path):
    # every --group file is read into a fresh group
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(two_node_curve(5).to_json()))
    for name, count in (("S3", 18), ("C4", 12), ("D4", 24), ("Q8", 24)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(group_to_json(catalog_group(name))))
        assert main(["enumerate", str(theta), "--group", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == count
    assert chained == []


def test_a_stopped_search_is_remembered(monkeypatch):
    S8 = symmetric(8)  # 40,320 elements, above ENUM_BOUND
    with pytest.raises(DomainError) as err:
        S8.elements()
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 40320 > 10000"

    def searched(*_):
        raise AssertionError("a second search")

    # every product of a search is a compose; the chain is built already
    monkeypatch.setattr(groups, "compose", searched)
    assert S8.order_at_most(5000) is False
    assert S8.order_at_most(40_320) is True
    with pytest.raises(DomainError) as err:
        sylow_subgroup(S8, 2)
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 40320 > 10000"
    assert sylow_subgroup(S8, 11).order() == 1
    with pytest.raises(DomainError) as err:
        S8.elements()
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 40320 > 10000"
    assert "elements" not in S8._memo


def test_enumeration_bound_comes_before_the_listing_bound():
    # S8 on the two-node curve: |G|^delta is checked before listing fails
    for check in (enumerate_connected_covers, cross_check_descent):
        with pytest.raises(DomainError) as err:
            check(symmetric(8), two_node_curve(5))
        assert str(err.value) == ("TOO_LARGE: |G|^delta = 40320^2 exceeds "
                                  "the enumeration bound")


def _chain_order(G):
    return prod(len(orbit) for _, orbit, _ in _fresh(G)._chain())


def test_order_is_the_chain_order_before_and_after_listing():
    rng = random.Random(6)
    S6 = symmetric(6).elements()
    subgroups = [PermutationGroup.from_generators(rng.sample(S6, k), 6)
                 for k in (1, 1, 2, 2, 2, 3)]
    for G in [_fresh(G) for _, G in catalog_groups()] + subgroups:
        expected = _chain_order(G)
        assert G.order() == expected
        H = _fresh(G)
        assert len(H.elements()) == expected and H.order() == expected
        assert "chain" not in H._memo


def test_min_generators_between_its_bound_and_enum_bound(chained):
    # |S7| = 5040 lies between MIN_GEN_BOUND and ENUM_BOUND: the listing
    # stops at the bound and the message's order comes from the chain
    S7 = symmetric(7)
    with pytest.raises(DomainError) as err:
        min_generators(S7)
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 5040 > 2000"
    assert "elements" not in S7._memo and chained == [S7]
    # a listed group checks the bound against its listing
    S7.elements()
    with pytest.raises(DomainError) as err:
        min_generators(S7)
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 5040 > 2000"
    with pytest.raises(DomainError) as err:
        subgroup_lattice(S7)
    assert str(err.value) == f"GROUP_TOO_LARGE: |G| = 5040 > {LATTICE_BOUND}"


def test_elements_above_enum_bound_names_the_order():
    with pytest.raises(DomainError) as err:
        symmetric(8).elements()
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 40320 > 10000"


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
    with pytest.raises(DomainError) as err:
        sylow_subgroup(symmetric(8), 2)
    assert str(err.value) == "GROUP_TOO_LARGE: |G| = 40320 > 10000"


def test_normal_closure_error_table():
    S3 = catalog_group("S3")
    flip = next(g for g in S3.elements() if g.order() == 2)
    A3 = subgroup_generated(S3, [next(g for g in S3.elements()
                                      if g.order() == 3)])
    for given, message in (([Perm.identity(4)], "DEGREE_MISMATCH: 4 != 3"),
                           ([flip], "NOT_A_MEMBER: Perm[(2 3)] not in group")):
        with pytest.raises(DomainError) as err:
            normal_closure(A3, given)
        assert str(err.value) == message


@pytest.mark.parametrize("p", [0, 1])
def test_p_must_be_prime(p):
    S3 = catalog_group("S3")
    for call in (sylow_subgroup, abelianization_p_rank, nakajima_tG):
        with pytest.raises(DomainError) as err:
            call(S3, p)
        assert (err.value.code, str(err.value)) == ("NOT_PRIME",
                                                    f"NOT_PRIME: p = {p}")


def test_huge_p_is_bad_characteristic():
    # above the bound trial division would not finish: is_prime refuses it
    S3, p = catalog_group("S3"), 10 ** 18 + 3
    calls = (sylow_subgroup, abelianization_p_rank, nakajima_tG,
             lambda group, p: is_prime(p))
    for call in calls:
        with pytest.raises(DomainError) as err:
            call(S3, p)
        assert str(err.value) == f"BAD_CHARACTERISTIC: {p} exceeds 2147483647"
    assert is_prime(2 ** 31 - 1)


def test_sigma_takes_powers_mod_the_order(monkeypatch):
    # g^p is g^(p mod the order of g), a few products rather than p of them
    calls = []
    compose = groups.compose
    monkeypatch.setattr(groups, "compose",
                        lambda a, b: calls.append(1) or compose(a, b))
    assert abelianization_p_rank(cyclic(2), 1_000_003) == 0
    assert len(calls) < 100


# -- the stabilizer chain against sympy --------------------------------------

def _standard_generators():
    """S_n and A_n (n = 8..12), M11 and M12 on standard generators, with
    their orders."""
    out = {}
    for n in range(8, 13):
        cycle = tuple(range(1, n + 1))
        out[f"S{n}"] = (factorial(n), [Perm.from_cycles(n, [(1, 2)]),
                                       Perm.from_cycles(n, [cycle])])
        odd_cycle = cycle if n % 2 else cycle[1:]
        out[f"A{n}"] = (factorial(n) // 2,
                        [Perm.from_cycles(n, [(1, 2, 3)]),
                         Perm.from_cycles(n, [odd_cycle])])
    m11 = [Perm.from_cycles(11, [tuple(range(1, 12))]),
           Perm.from_cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)])]
    out["M11"] = (7920, m11)
    out["M12"] = (95040, [
        Perm.from_cycles(12, [tuple(range(1, 12))]),
        Perm.from_cycles(12, [(3, 7, 11, 8), (4, 10, 5, 6)]),
        Perm.from_cycles(12, [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9),
                              (7, 10)])])
    return out


def _padded_conjugate(rng, gens):
    """gens and two random words of length 20 in them, conjugated by a
    random permutation."""
    degree = gens[0].degree
    padded = gens + [reduce(mul, rng.choices(gens, k=20)) for _ in range(2)]
    images = list(range(degree))
    rng.shuffle(images)
    t = Perm(tuple(images))
    return [t * g * t.inverse for g in padded]


def _random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(tuple(images))


def _agrees_with_sympy(sympy_groups, G, queries):
    S = sympy_groups.PermutationGroup(
        [sympy_groups.Permutation(list(g.images)) for g in G.generators]
        or [sympy_groups.Permutation(list(range(G.degree)))])
    assert G.order() == S.order()
    return [G.contains(x) for x in queries] == \
        [S.contains(sympy_groups.Permutation(list(x.images)))
         for x in queries]


@pytest.fixture(scope="module")
def sympy_groups():
    return pytest.importorskip("sympy.combinatorics")


def test_chain_matches_sympy_on_catalog(sympy_groups):
    rng = random.Random(3)
    for name, G in catalog_groups():
        queries = list(G.elements()[:5]) + [_random_perm(rng, G.degree)
                                            for _ in range(5)]
        assert _agrees_with_sympy(sympy_groups, G, queries), name


@pytest.mark.parametrize("name", sorted(_standard_generators()))
def test_chain_matches_sympy_on_large_groups(sympy_groups, name):
    order, gens = _standard_generators()[name]
    rng = random.Random(name)
    conj = _padded_conjugate(rng, gens)
    G = PermutationGroup.from_generators(conj)
    members = [reduce(mul, rng.choices(conj, k=rng.randint(5, 30)))
               for _ in range(10)]
    queries = members + [_random_perm(rng, G.degree) for _ in range(10)]
    assert _agrees_with_sympy(sympy_groups, G, queries)
    assert G.order() == order
    assert all(G.contains(x) for x in members)
    if name[0] != "S":  # an even group: no odd permutation lies in it
        outside = Perm.from_cycles(G.degree, [(1, 2)])
        assert not any(G.contains(x * outside) for x in members)


def test_chain_matches_sympy_on_random_groups(sympy_groups):
    rng = random.Random(1)
    for _ in range(150):
        degree = rng.randint(1, 16)
        gens = [_random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
        if degree > 1 and rng.random() < 0.5:  # sparse: a transposition
            gens[0] = Perm.from_cycles(degree, [tuple(rng.sample(
                range(1, degree + 1), 2))])
        G = PermutationGroup.from_generators(gens, degree)
        queries = [_random_perm(rng, degree) for _ in range(5)]
        assert _agrees_with_sympy(sympy_groups, G, queries), gens


def test_no_perm_product_in_chain_or_index(monkeypatch):
    # the chain and the element index compose image tuples; a Perm product
    # anywhere below would raise here
    def refuse(a, b):
        raise AssertionError("Perm.__mul__ called")

    order, gens = _standard_generators()["S12"]
    padded = _padded_conjugate(random.Random(0), gens)
    monkeypatch.setattr(Perm, "__mul__", refuse)
    G = PermutationGroup.from_generators(padded)
    assert G.order() == order and G.contains(Perm(tuple(reversed(range(12)))))
    # (name, p, |p(G)|, |G/p(G)|, phi_2(G), |G'|, [sigma_2(G), sigma_3(G)])
    for name, p, normal, image, phi2, derived, sigmas in (
            ("S4", 3, 12, 2, 216, 12, [1, 0]),
            ("SL23", 2, 8, 3, 384, 8, [0, 1])):
        # a fresh copy: the shared catalog group may be indexed already
        G = PermutationGroup.from_generators(catalog_group(name).generators)
        elements, index = G.elements(), G.index()
        n = len(elements)
        assert [index[x.images] for x in elements] == list(range(n))
        for i in range(n):
            row = G.left_row(i)
            assert row[0] == i and sorted(row) == list(range(n))
        assert G.span(range(n)) == (1 << n) - 1
        assert len(G.coset_map([1])[1]) * G.span([1]).bit_count() == n
        assert min_generators(G) == 2 and eulerian(G, 2) == phi2
        N = quasi_p_part(G, p)
        hom = quotient(G, N)
        assert N.order() == normal and hom.image.order() == image
        assert {hom.map_element(x) for x in elements} \
            == set(hom.image.elements())
        assert derived_subgroup(G).order() == derived
        assert [abelianization_p_rank(G, q) for q in (2, 3)] == sigmas
        assert conjugate(G, elements[-1]).order() == n
    # the transport along the spanning tree runs on element positions
    G = PermutationGroup.from_generators(catalog_group("S3").generators)
    flip = next(x for x in G.elements() if x.order() == 2)
    P = PointRef
    config = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 1), ("C3", 1)],
        {"C1": ["a", "b"], "C2": ["a", "b"], "C3": ["a", "b"]},
        [[P("C1", "b"), P("C2", "a")], [P("C2", "b"), P("C3", "a")],
         [P("C3", "b"), P("C1", "a")]])
    rng = random.Random(3)
    for _ in range(10):
        gluings = {ci: {cls[1]: rng.choice(G.elements())}
                   for ci, cls in enumerate(config.identification_classes)}
        cover = build_descriptor(
            config, G, monodromy={"C2": subgroup_generated(G, [flip])},
            gluings=gluings)
        assert is_connected(cover) == sheet_graph_connected(cover)
    assert perms._INTERNED == {}


def test_chain_degree_mismatch():
    with pytest.raises(DomainError) as err:
        symmetric(4).contains(Perm.identity(5))
    assert err.value.code == "DEGREE_MISMATCH"


def test_group_equality_and_hash_ignore_the_memo():
    # degree and generators decide equality and the hash, as on the tuple
    # (degree, generators); what elements() and order() cache does not
    gens = symmetric(4).generators
    G = PermutationGroup(4, gens)
    for _ in range(2):
        fresh = PermutationGroup(4, gens)
        assert G == fresh and hash(G) == hash(fresh) == hash((4, gens))
        assert {fresh: 1}[G] == 1
        G.elements(), G.order()
    assert G != PermutationGroup(4, gens[:1]) != PermutationGroup(5, ())
    assert G != (4, gens)
    assert repr(G) == f"PermutationGroup(degree=4, generators={gens!r})"
    with pytest.raises(DomainError) as err:
        PermutationGroup(5, gens)
    assert err.value.code == "DEGREE_MISMATCH"


def test_every_generator_must_have_the_degree():
    # an identity too: the degree is checked before identities are dropped
    flip = Perm.from_cycles(3, [(1, 2)])
    for gens in ([Perm.identity(2), flip], [flip, Perm.identity(2)]):
        for build in (lambda: PermutationGroup.from_generators(gens, 3),
                      lambda: PermutationGroup(3, gens)):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == "DEGREE_MISMATCH: generator degree 2 != 3"
    # identities and repeats are dropped however the group is built
    G = PermutationGroup(3, (Perm.identity(3), flip, Perm.identity(3), flip))
    assert G == PermutationGroup(3, (flip,)) == \
        PermutationGroup.from_generators([flip, flip, Perm.identity(3)])
    assert G.generators == (flip,)


def test_quotient_hom_fields():
    G = symmetric(4)
    hom = quotient(G, derived_subgroup(G))
    assert hom.source is G and hom.image.order() == len(hom.reps) == 2
    assert sorted(set(hom.cosets)) == [0, 1] and hom.reps[0] == 0
