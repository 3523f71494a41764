from functools import cached_property

import pytest

from pi1curves import curves
from pi1curves.catalog import catalog_group, catalog_groups, catalog_names
from pi1curves.curves import (CurveConfiguration, PointRef, delta, factorize,
                              require_projective)
from pi1curves.errors import DomainError
from pi1curves.groups import min_generators, quasi_p_part, quotient
from pi1curves.oracle import enumerate_connected_covers
from pi1curves.realizability import (
    RealizabilityVerdict,
    affine_realizable,
    hasse_witt_check,
    nakajima_check,
    pro_p_rank,
    projective_realizable,
    tame_realizable,
)

from catalog_builders import cyclic
from oracles import affine_curve

P = PointRef


def nodal(p=5):
    return CurveConfiguration.build(
        p, [("C1", 0)], {"C1": ["0", "1"]}, [[P("C1", "0"), P("C1", "1")]])


def two_node(p=5):
    return CurveConfiguration.build(
        p, [("C1", 0)], {"C1": list("0123")},
        [[P("C1", "0"), P("C1", "1")], [P("C1", "2"), P("C1", "3")]])


def test_affine_quasi_p_always_yes():
    # p(G) = G makes the quotient trivial, so any affine curve works
    for name, p in (("S3", 2), ("A4", 3), ("A5", 2), ("A5", 3), ("A5", 5)):
        G = catalog_group(name)
        assert quasi_p_part(G, p).order() == G.order()
        assert affine_realizable(
            G, p, affine_curve(p, 0, 1, 0)).verdict == "Yes"


def test_affine_c3_in_char_2():
    C3 = catalog_group("C3")
    assert affine_realizable(C3, 2, affine_curve(2, 0, 1, 0)).verdict == "No"
    assert affine_realizable(C3, 2, affine_curve(2, 0, 1, 1)).verdict == "Yes"


def test_affine_char_zero_uses_full_d():
    G = catalog_group("C2xC2")
    assert affine_realizable(G, 0, affine_curve(0, 0, 2, 0)).verdict == "No"
    assert affine_realizable(G, 0, affine_curve(0, 0, 3, 0)).verdict == "Yes"


def test_affine_monotone():
    for name in ("C6", "S3", "Q8", "A4", "C2xC2xC2"):
        G = catalog_group(name)
        for p in (0, 2, 3):
            previous = None
            for bound_params in [(0, 1, 0), (0, 1, 1), (0, 2, 1),
                                 (1, 2, 1), (1, 2, 2)]:
                verdict = affine_realizable(
                    G, p, affine_curve(p, *bound_params)).verdict
                if previous == "Yes":
                    assert verdict == "Yes", (name, p, bound_params)
                previous = verdict


def test_affine_smooth_abhyankar_regression():
    # delta = 0, one component: exactly the classical criterion
    for name in catalog_names():
        G = catalog_group(name)
        for p in (2, 3, 5):
            verdict = affine_realizable(G, p, affine_curve(p, 0, 1, 0)).verdict
            reduced = quotient(G, quasi_p_part(G, p)).image
            expected = "Yes" if min_generators(reduced) <= 0 else "No"
            assert verdict == expected, (name, p)


def test_projective_genus_zero_exact():
    assert projective_realizable(cyclic(11), 5, nodal()).verdict == "Yes"
    assert projective_realizable(cyclic(11), 11, nodal()).verdict == "Yes"
    assert projective_realizable(
        catalog_group("C2xC2"), 5, nodal()).verdict == "No"
    assert projective_realizable(
        catalog_group("Q8"), 5, two_node()).verdict == "Yes"
    assert projective_realizable(
        catalog_group("C2xC2xC2"), 5, two_node()).verdict == "No"


def test_projective_positive_genus_branches():
    g1 = CurveConfiguration.build(5, [("E", 1, 0)], {"E": []}, [])
    # p-rank 0 elliptic component: no etale C5-cover in char 5
    assert projective_realizable(cyclic(5), 5, g1).verdict == "No"
    # prime-to-p cyclic cover of a genus-1 curve: plausible but undecided here
    assert projective_realizable(cyclic(7), 5, g1).verdict == "Unknown"
    ordinary = CurveConfiguration.build(5, [("E", 1)], {"E": []}, [])
    assert projective_realizable(cyclic(5), 5, ordinary).verdict == "Unknown"


def test_projective_rank_bound_no():
    g1 = CurveConfiguration.build(5, [("E", 1)], {"E": []}, [])
    verdict = projective_realizable(catalog_group("C2xC2xC2"), 5, g1)
    assert verdict.verdict == "No"
    assert verdict.rule == "rank-bound"


def test_projective_requires_connected():
    config = CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0)], {"C1": [], "C2": []}, [])
    with pytest.raises(DomainError) as err:
        projective_realizable(cyclic(2), 5, config)
    assert err.value.code == "NOT_CONNECTED"


def test_pro_p_rank():
    assert pro_p_rank(nodal()) == 1
    config = CurveConfiguration.build(5, [("C1", 2, 1)], {"C1": []}, [])
    assert pro_p_rank(config) == 1
    cross = CurveConfiguration.build(
        5, [("C1", 1, 1), ("C2", 1, 0)], {"C1": ["x"], "C2": ["x"]},
        [[P("C1", "x"), P("C2", "x")]])
    assert pro_p_rank(cross) == 1


def test_pro_p_rank_rule_on_a_characteristic_0_configuration():
    # projective_realizable reads the pro-p rank from rank_report, so the
    # p-group rule answers for the p it is given; pro_p_rank, which has no
    # p of its own, still refuses characteristic 0
    supersingular = CurveConfiguration.build(0, [("E", 1, 0)], {"E": []}, [])
    for config in (supersingular, supersingular._replace(characteristic=5)):
        v = projective_realizable(cyclic(5), 5, config)
        assert (v.verdict, v.rule, v.evidence) == (
            "No", "pro-p-rank", {"d_G": 1, "bound": 0})
    with pytest.raises(DomainError) as err:
        pro_p_rank(supersingular)
    assert str(err.value) == "BAD_CHARACTERISTIC: pro-p rank needs p > 0"


def test_hasse_witt():
    assert hasse_witt_check(
        catalog_group("C2xC2xC2"), 2, two_node(2)).verdict == "No"
    assert hasse_witt_check(cyclic(2), 2, nodal(2)).verdict == "Unknown"
    # order prime to p: sigma = 0, always passes
    assert hasse_witt_check(cyclic(3), 2, nodal(2)).verdict == "Unknown"


def test_hasse_witt_never_yes():
    for name in ("C1", "C2", "C4", "S3", "Q8", "C2xC2xC2"):
        v = hasse_witt_check(catalog_group(name), 2, nodal(2))
        assert v.verdict in ("No", "Unknown")


def test_nakajima():
    assert nakajima_check(
        catalog_group("C2xC2"), 2, nodal(2)).verdict == "No"
    assert nakajima_check(cyclic(2), 2, nodal(2)).verdict == "Unknown"
    v = nakajima_check(catalog_group("S3"), 3, nodal(3))
    assert v.verdict == "Unknown"
    assert "unsupported" in v.evidence["reason"]


def test_hasse_witt_says_no_wherever_nakajima_does():
    # why projective_realizable has no Nakajima step: for p-groups
    # t_G = d(G) = sigma(G), and both checks use the bound sum g_i + delta
    elliptic_node = CurveConfiguration.build(
        0, [("E", 1)], {"E": ["x", "y"]}, [[P("E", "x"), P("E", "y")]])
    nakajima_no = 0
    for p in (2, 3, 5):
        configs = (nodal(p), two_node(p),
                   elliptic_node._replace(characteristic=p))
        for _, G in catalog_groups(24):
            for config in configs:
                if nakajima_check(G, p, config).verdict == "No":
                    nakajima_no += 1
                    assert hasse_witt_check(G, p, config).verdict == "No"
                assert projective_realizable(G, p, config).rule != "nakajima"
    assert nakajima_no > 10


AFFINE_INVALID = CurveConfiguration.build(
    5, [("C1", -1)], {"C1": ["x"]}, [], removed=[P("C1", "x")])
AFFINE_DISCONNECTED = CurveConfiguration.build(
    5, [("C1", 0), ("C2", 0)], {"C1": ["x"], "C2": []}, [],
    removed=[P("C1", "x")])
DISCONNECTED = CurveConfiguration.build(
    5, [("C1", 0), ("C2", 0)], {"C1": [], "C2": []}, [])


@pytest.mark.parametrize("guarded", [
    require_projective, delta, factorize, pro_p_rank,
    lambda config: enumerate_connected_covers(cyclic(2), config),
    lambda config: hasse_witt_check(cyclic(5), 5, config),
    lambda config: nakajima_check(cyclic(5), 5, config),
    lambda config: projective_realizable(cyclic(5), 5, config),
], ids=["require_projective", "delta", "factorize", "pro_p_rank",
        "enumerate", "hasse_witt", "nakajima", "projective_realizable"])
def test_projective_guard_order(guarded):
    # validity first, then removed points, then connectedness
    for config, code in ((AFFINE_INVALID, "INVALID_CONFIG"),
                         (AFFINE_DISCONNECTED, "NOT_PROJECTIVE"),
                         (DISCONNECTED, "NOT_CONNECTED")):
        with pytest.raises(DomainError) as err:
            guarded(config)
        assert err.value.code == code
        if code == "NOT_PROJECTIVE":
            assert str(err.value) == "NOT_PROJECTIVE: removed points present"


def test_one_violation_scan_per_verdict(monkeypatch):
    # the guards of projective_realizable, delta and hasse_witt_check all
    # read the violations that one scan left on the configuration
    scans = []
    scan = curves._scan_violations
    monkeypatch.setattr(curves, "_scan_violations",
                        lambda config: scans.append(config) or scan(config))
    for name, verdict, rule in (("C2xC2xC2", "No", "hasse-witt"),
                                ("C4", "Yes", "free-factor")):
        elliptic_node = CurveConfiguration.build(
            2, [("E", 1)], {"E": ["x", "y"]}, [[P("E", "x"), P("E", "y")]])
        v = projective_realizable(catalog_group(name), 2, elliptic_node)
        assert (v.verdict, v.rule) == (verdict, rule)
        assert scans == [elliptic_node]
        curves.validate(elliptic_node).append(("X", "a caller's own list"))
        assert curves.validate(elliptic_node) == [] and len(scans) == 1
        scans.clear()


def test_connectivity_decided_once_per_configuration(monkeypatch):
    # require_projective decides connectivity once per object, however
    # many guards (projective_realizable, delta, hasse_witt_check,
    # pro_p_rank, require_enumerable) run on it, from the spanning tree
    # and with no union-find
    finds, decided = [], []
    find = curves.equivalence_classes
    monkeypatch.setattr(curves, "equivalence_classes",
                        lambda pairs: finds.append(pairs) or find(pairs))
    connected = CurveConfiguration._connected.func
    recording = cached_property(
        lambda config: decided.append(config) or connected(config))
    recording.__set_name__(CurveConfiguration, "_connected")
    monkeypatch.setattr(CurveConfiguration, "_connected", recording)
    for name, verdict, rule in (("C2xC2xC2", "No", "hasse-witt"),
                                ("C2xC2", "Unknown", "structure")):
        elliptic_node = CurveConfiguration.build(
            2, [("E", 1)], {"E": ["x", "y"]}, [[P("E", "x"), P("E", "y")]])
        v = projective_realizable(catalog_group(name), 2, elliptic_node)
        assert (v.verdict, v.rule) == (verdict, rule)
        assert decided == [elliptic_node]
        decided.clear()
    theta = two_node(5)
    assert enumerate_connected_covers(cyclic(2), theta)[0] == 3
    assert decided == [theta] and finds == []


def test_tame():
    assert tame_realizable(
        cyclic(3), 2, affine_curve(2, 0, 1, 1)).verdict == "Yes"
    assert tame_realizable(
        catalog_group("C2xC2"), 3, affine_curve(3, 0, 1, 1)).verdict == "No"
    v = tame_realizable(cyclic(2), 2, affine_curve(2, 0, 1, 1))
    assert v.verdict == "Unknown"
    assert tame_realizable(
        catalog_group("C2xC2"), 2, affine_curve(2, 0, 1, 1)).verdict == "No"
    assert tame_realizable(
        cyclic(5), 0, affine_curve(0, 0, 1, 0)).verdict == "No"
    assert tame_realizable(
        cyclic(5), 0, affine_curve(0, 0, 2, 0)).verdict == "Yes"


@pytest.mark.parametrize("rule, mode, no_removed", [
    (affine_realizable, "affine",
     "affine curve needs at least one removed point"),
    (tame_realizable, "tame", "tame criterion needs a removed point")])
def test_affine_rules_guard_order(rule, mode, no_removed):
    # each case also breaks every guard after the one it expects
    two = CurveConfiguration.build(
        5, [("A", -1), ("B", 0)], {"A": [], "B": []}, [])
    invalid = CurveConfiguration.build(5, [("C", -1)], {"C": []}, [])
    cases = ((two, 4, f"NOT_AFFINE: --mode {mode} needs a single component"),
             (invalid, 4, "INVALID_CONFIG: [('NEGATIVE_GENUS', 'C')]"),
             (affine_curve(5, 0, 0, 1), 4,
              "BAD_CHARACTERISTIC: 4 is not prime or 0"),
             (affine_curve(5, 0, 0, 1), 5, f"NOT_AFFINE: {no_removed}"))
    for config, p, message in cases:
        with pytest.raises(DomainError) as err:
            rule(cyclic(2), p, config)
        assert str(err.value) == message

def test_verdict_json_shape():
    v = hasse_witt_check(catalog_group("C2xC2xC2"), 2, two_node(2))
    assert v.to_json() == {"verdict": "No",
                           "evidence": {"sigma": 3, "bound": 2},
                           "rule": "hasse-witt"}


def test_verdict_outside_three_values_is_domain_error():
    with pytest.raises(DomainError) as err:
        RealizabilityVerdict("Maybe", "none", {})
    assert err.value.code == "INTERNAL_INVARIANT"


def test_verdict_is_a_validated_tuple():
    v = RealizabilityVerdict("Yes", "free-factor", {"d_G": 1, "delta": 1})
    assert v == ("Yes", "free-factor", {"d_G": 1, "delta": 1})
    assert v._replace(verdict="No") == ("No", "free-factor", v.evidence)
    with pytest.raises(DomainError) as err:
        v._replace(verdict="Maybe")
    assert err.value.code == "INTERNAL_INVARIANT"
