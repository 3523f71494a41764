import itertools

import pytest

from pi1curves import covers, oracle
from pi1curves.catalog import catalog_group, catalog_groups
from pi1curves.covers import Gluing, build_descriptor, spanning_tree
from pi1curves.curves import (CurveConfiguration, PointRef, delta, factorize,
                              replay, strip_identifications)
from pi1curves.errors import DomainError
from pi1curves.groups import PermutationGroup, eulerian, min_generators
from pi1curves.oracle import (
    cross_check_descent,
    enumerate_connected_covers,
    nodal_curve,
    quotient_census,
    census_report,
    two_node_curve,
)

from catalog_builders import cyclic
from oracles import perm_closure, sheet_graph_connected


def test_counts_match_spec_examples():
    count, _ = enumerate_connected_covers(catalog_group("S3"),
                                          two_node_curve(5))
    assert count == 18
    count, _ = enumerate_connected_covers(cyclic(2), nodal_curve(5))
    assert count == 1
    count, _ = enumerate_connected_covers(PermutationGroup.trivial(1),
                                          two_node_curve(5))
    assert count == 1


def test_count_equals_eulerian_small_groups():
    nodal = nodal_curve(5)
    theta = two_node_curve(5)
    for name, G in catalog_groups(10):
        count, _ = enumerate_connected_covers(G, nodal)
        assert count == eulerian(G, 1), name
        count, _ = enumerate_connected_covers(G, theta)
        assert count == eulerian(G, 2), name


def test_rejects_positive_genus():
    config = CurveConfiguration.build(5, [("E", 1)], {"E": []}, [])
    with pytest.raises(DomainError) as err:
        enumerate_connected_covers(cyclic(2), config)
    assert err.value.code == "GENUS_NONZERO"


def test_rejects_too_large():
    big = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": [f"p{i}" for i in range(12)]},
        [[PointRef("C1", f"p{2 * i}"), PointRef("C1", f"p{2 * i + 1}")]
         for i in range(6)])
    assert delta(big) == 6
    with pytest.raises(DomainError) as err:
        enumerate_connected_covers(catalog_group("S4"), big)
    assert err.value.code == "TOO_LARGE"


def test_witnesses_are_the_connected_product_tuples():
    # in product order, and the group's own elements, as the same objects
    for config in (nodal_curve(5), two_node_curve(5)):
        _, free = spanning_tree(config)
        for name, G in catalog_groups(8):
            expected = []
            for constants in itertools.product(G.elements(),
                                               repeat=len(free)):
                gluings: dict = {}
                for (ci, branch), c in zip(free, constants):
                    gluings.setdefault(ci, {})[branch] = c
                if sheet_graph_connected(
                        build_descriptor(config, G, gluings=gluings)):
                    expected.append(constants)
            count, witnesses = enumerate_connected_covers(G, config)
            assert count == len(witnesses) == len(expected), name
            assert all(a is b for got, want in zip(witnesses, expected)
                       for a, b in zip(got, want, strict=True)), name


def three_node_curve(p):
    """A rational curve with three nodes (delta = 3)."""
    refs = [PointRef("C1", s) for s in "012345"]
    return CurveConfiguration.build(p, [("C1", 0)], {"C1": list("012345")},
                                    [refs[0:2], refs[2:4], refs[4:6]])


@pytest.mark.parametrize("config, max_order", [
    (nodal_curve(5), 12), (two_node_curve(5), 12), (three_node_curve(5), 8)])
def test_enumeration_matches_perm_closure(config, max_order):
    # each tuple decided by Perm products alone, not by group.span: the
    # shared answer per union of cyclic subgroups changes no witness
    for name, G in catalog_groups(max_order):
        elements = G.elements()
        expected = [constants for constants
                    in itertools.product(elements, repeat=delta(config))
                    if len(perm_closure(G.degree, constants))
                    == len(elements)]
        count, witnesses = enumerate_connected_covers(G, config)
        assert count == len(expected) and witnesses == expected, name
        assert all(a is b for got, want in zip(witnesses, expected)
                   for a, b in zip(got, want, strict=True)), name


def test_enumeration_spans_once_per_union_of_cyclic_subgroups(monkeypatch):
    # S3 over theta: one span per element (its cyclic subgroup) and one
    # per distinct union of two, not one per tuple (6^2 = 36)
    G, theta = catalog_group("S3"), two_node_curve(5)
    elements = G.elements()
    cyclic_of = [frozenset(perm_closure(G.degree, [x])) for x in elements]
    unions = {a | b for a in cyclic_of for b in cyclic_of}
    calls = []
    span = PermutationGroup.span

    def counted(self, positions):
        calls.append(tuple(positions))
        return span(self, positions)

    monkeypatch.setattr(PermutationGroup, "span", counted)
    assert enumerate_connected_covers(G, theta)[0] == 18
    assert len(calls) <= len(elements) + len(unions) < len(elements) ** 2


def test_census_nodal():
    entries = quotient_census(nodal_curve(5), 12)
    realizable = [e.name for e in entries if e.realizable]
    assert realizable == [f"C{n}" for n in range(1, 13)]
    for e in entries:
        if e.realizable and e.order > 1:
            assert e.witness is not None


def test_census_tree_is_trivial_only():
    tree = CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0)], {"C1": ["x"], "C2": ["x"]},
        [[PointRef("C1", "x"), PointRef("C2", "x")]])
    entries = quotient_census(tree, 8)
    realizable = [e.name for e in entries if e.realizable]
    assert realizable == ["C1"]


def test_census_delta_two_order_eight():
    entries = quotient_census(two_node_curve(5), 8)
    realizable = {e.name for e in entries if e.realizable}
    assert "Q8" in realizable and "D4" in realizable
    assert "C2xC2xC2" not in realizable
    for e in entries:
        assert e.realizable == (min_generators(catalog_group(e.name)) <= 2)


def test_census_stable_under_factorize_round_trip():
    config = two_node_curve(5)
    rebuilt = replay(strip_identifications(config), factorize(config))
    a = [(e.name, e.count) for e in quotient_census(config, 8)]
    b = [(e.name, e.count) for e in quotient_census(rebuilt, 8)]
    assert a == b


def test_census_report_format():
    text = census_report(quotient_census(nodal_curve(5), 4))
    assert "realizable" in text.splitlines()[0]
    assert any(line.endswith("yes") for line in text.splitlines()[1:])


def test_cross_check_descent():
    nodal = nodal_curve(5)
    for name in ("C2", "C3", "C2xC2", "S3"):
        report = cross_check_descent(catalog_group(name), nodal)
        assert report.ok, name
        assert report.negative_controls_rejected == 1
    report = cross_check_descent(catalog_group("S3"), two_node_curve(5))
    assert report.checked == 36 and report.ok


@pytest.mark.parametrize("part", ["gluing", "monodromy"])
def test_cross_check_descent_lists_mismatches(monkeypatch, part):
    # the prepared descent changes one gluing constant, or the monodromy
    # group, of the cover it builds for the tuple (target,); only that
    # tuple mismatches
    G = catalog_group("S3")
    elements = G.elements()
    target = elements[1]
    real_descent = oracle.descent

    def descent(*prepared):
        apply = real_descent(*prepared)

        def descend(*args):
            cover = apply(*args)
            (branch, gluing), = cover.gluings[0].items()
            if gluing.constant != target:
                return cover
            if part == "gluing":
                return cover._replace(
                    gluings={0: {branch: Gluing(elements[2])}})
            return cover._replace(monodromy={"C1": G})

        return descend

    monkeypatch.setattr(oracle, "descent", descent)
    report = cross_check_descent(G, nodal_curve(5))
    assert report.checked == 6
    assert report.mismatches == ([target.to_one_indexed()],)
    assert report.negative_controls_rejected == 1


def test_negative_control_is_the_galois_refusal(monkeypatch):
    # the control partitions the fiber, so only the Galois refusal can
    # reject it: it is the one call of the prepared descent that raises,
    # and it raises ACTION_NOT_EQUIVARIANT
    codes = []
    real_descent = oracle.descent

    def descent(*prepared):
        apply = real_descent(*prepared)

        def descend(relation):
            try:
                return apply(relation)
            except DomainError as exc:
                codes.append(exc.code)
                raise

        return descend

    monkeypatch.setattr(oracle, "descent", descent)
    for config in (nodal_curve(5), two_node_curve(5)):
        for name, G in catalog_groups(12):
            if G.order() < 3:
                continue
            codes.clear()
            report = cross_check_descent(G, config)
            assert report.ok and report.negative_controls_rejected == 1, name
            assert codes == ["ACTION_NOT_EQUIVARIANT"], name
    # a descent that takes every row for a left translation lets it pass
    monkeypatch.setattr(covers, "_is_translation", lambda group, row: True)
    report = cross_check_descent(catalog_group("S3"), nodal_curve(5))
    assert report.negative_controls_rejected == 0


def test_cross_check_descent_checks_base_points_once(monkeypatch):
    # the descent is prepared once per cross-check: each base point is
    # checked once, however many tuples (|G|^delta) are descended
    calls = []
    real_check = covers._check_smooth_fiber_point

    def check(config, ref):
        calls.append(ref)
        return real_check(config, ref)

    monkeypatch.setattr(covers, "_check_smooth_fiber_point", check)
    for name, config, tuples in (("C2", nodal_curve(5), 2),
                                 ("S3", nodal_curve(5), 6),
                                 ("C2", two_node_curve(5), 4),
                                 ("S3", two_node_curve(5), 36),
                                 ("D4", two_node_curve(5), 64)):
        calls.clear()
        report = cross_check_descent(catalog_group(name), config)
        assert report.ok and report.checked == tuples, name
        assert sorted(calls) == sorted(
            ref for cls in config.identification_classes
            for ref in cls), name


def _two_components():
    # its first class holds the tree edge and a free edge
    P = PointRef
    return CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0)], {"C1": ["a", "b"], "C2": ["a", "b", "c"]},
        [[P("C1", "a"), P("C2", "a"), P("C2", "b")],
         [P("C1", "b"), P("C2", "c")]])


def test_span_filter_is_cover_connectivity():
    # a tree edge and a three-branch class, which the nodal and two-node
    # curves lack: a tuple spans G iff its cover is connected, by
    # is_connected and by the sheet graph, and the enumeration keeps
    # exactly those tuples
    config = _two_components()
    _, free = spanning_tree(config)
    for name, G in catalog_groups(8):
        elements = G.elements()
        whole = (1 << len(elements)) - 1
        expected = []
        for positions in itertools.product(range(len(elements)),
                                           repeat=len(free)):
            gluings: dict = {}
            for (ci, branch), i in zip(free, positions):
                gluings.setdefault(ci, {})[branch] = elements[i]
            cover = build_descriptor(config, G, gluings=gluings)
            spans = G.span(positions) == whole
            assert covers.is_connected(cover) == spans, (name, positions)
            assert sheet_graph_connected(cover) == spans, (name, positions)
            if spans:
                expected.append(tuple(elements[i] for i in positions))
        assert enumerate_connected_covers(G, config) \
            == (len(expected), expected), name


def test_enumeration_builds_no_cover(monkeypatch):
    G, theta = catalog_group("S3"), two_node_curve(5)
    count, witnesses = enumerate_connected_covers(G, theta)

    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration built or decided a cover")

    monkeypatch.setattr(oracle, "build_descriptor", refuse)
    monkeypatch.setattr(covers, "build_descriptor", refuse)
    monkeypatch.setattr(covers, "is_connected", refuse)
    assert enumerate_connected_covers(G, theta) == (count, witnesses)
    assert count == 18


def test_template_matches_validating_constructor():
    # the descent check swaps each tuple's gluings into the template, so
    # only this comparison catches a wrong template
    P = PointRef
    two_components = _two_components()
    assert spanning_tree(two_components) == (
        ((0, P("C2", "a")),), ((0, P("C2", "b")), (1, P("C2", "c"))))
    G = catalog_group("S3")
    elements = G.elements()
    gluing_of = [Gluing(c) for c in elements]
    for config in (two_components, two_node_curve(5)):
        template = build_descriptor(config, G)
        _, free = spanning_tree(config)
        for positions in itertools.product(range(len(elements)),
                                           repeat=len(free)):
            gluings: dict = {}
            for (ci, branch), i in zip(free, positions):
                gluings.setdefault(ci, {})[branch] = elements[i]
            assert oracle._descriptor_for(template, free, positions,
                                          gluing_of) \
                == build_descriptor(config, G, gluings=gluings)
        assert template == build_descriptor(config, G)


def test_cross_check_descent_guard_is_the_enumeration_guard():
    # one rational component with seven nodes: 24^7 tuples of S4
    labels = [str(i) for i in range(14)]
    seven_nodes = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": labels},
        [[PointRef("C1", a), PointRef("C1", b)]
         for a, b in zip(labels[::2], labels[1::2])])
    messages = []
    for check in (cross_check_descent, enumerate_connected_covers):
        with pytest.raises(DomainError) as err:
            check(catalog_group("S4"), seven_nodes)
        messages.append(str(err.value))
    assert messages == ["TOO_LARGE: |G|^delta = 24^7 exceeds the "
                        "enumeration bound"] * 2


def test_cross_check_descent_without_classes_is_bad_partition():
    # nothing to descend: descend's own answer to an empty relation
    bare = CurveConfiguration.build(5, [("C1", 0)], {"C1": []}, [])
    with pytest.raises(DomainError) as err:
        cross_check_descent(catalog_group("S3"), bare)
    assert err.value.code == "BAD_PARTITION"
