import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi1curves.curves import (
    CurveConfiguration,
    PointRef,
    affine_delta,
    delta,
    dual_graph,
    equivalence_classes,
    factorize,
    identify,
    is_connected,
    rank_report,
    replay,
    strip_identifications,
    validate,
)
from pi1curves.errors import DomainError

from oracles import betti_number

P = PointRef


def nodal():
    return CurveConfiguration.build(
        5, [("C1", 0)], {"C1": ["0", "1"]}, [[P("C1", "0"), P("C1", "1")]])


def triangle():
    return CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0), ("C3", 0)],
        {"C1": ["a", "b"], "C2": ["a", "b"], "C3": ["a", "b"]},
        [[P("C1", "b"), P("C2", "a")],
         [P("C2", "b"), P("C3", "a")],
         [P("C3", "b"), P("C1", "a")]])


def test_delta_examples():
    assert delta(nodal()) == 1
    assert delta(triangle()) == 1
    two = CurveConfiguration.build(
        3, [("C1", 0)], {"C1": list("abcd")},
        [[P("C1", "a"), P("C1", "b")], [P("C1", "c"), P("C1", "d")]])
    assert delta(two) == 2
    tree = CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0)], {"C1": ["x"], "C2": ["x"]},
        [[P("C1", "x"), P("C2", "x")]])
    assert delta(tree) == 0


def test_delta_matches_betti():
    config = triangle()
    assert delta(config) == betti_number(config)


def test_dual_graph_is_a_pair_in_class_order():
    # a 3-member class on A (two loops) between two classes joining A and B
    config = CurveConfiguration.build(
        5, [("A", 0), ("B", 1)], {"A": ["x", "y", "l1", "l2", "l3"],
                                  "B": ["x", "y"]},
        [[P("A", "x"), P("B", "x")],
         [P("A", "l1"), P("A", "l2"), P("A", "l3")],
         [P("A", "y"), P("B", "y")]])
    graph = dual_graph(config)
    assert type(graph) is tuple and len(graph) == 2
    assert graph == (("A", "B"),
                     (("A", "B"), ("A", "A"), ("A", "A"), ("A", "B")))
    assert delta(config) == betti_number(config) == 3


def test_affine_delta_and_tame_rank():
    # one rational component, a node, infinity removed
    config = CurveConfiguration.build(
        2, [("C1", 0)], {"C1": ["0", "1", "inf"]},
        [[P("C1", "0"), P("C1", "1")]], removed=[P("C1", "inf")])
    assert affine_delta(config) == 1
    report = rank_report(config)
    assert report.tame_rank == 1  # 2*0 + 1 - 1 + 1


def test_rank_report_projective():
    report = rank_report(nodal())
    assert report.delta == 1
    assert report.pro_p_rank == 1
    assert report.pi1_rank_bound == 1
    assert report.tame_rank is None


def test_validate_catches_problems():
    config = CurveConfiguration.build(
        5, [("C1", -1)], {"C1": ["a"]},
        [[P("C1", "a"), P("C1", "missing")]])
    codes = {code for code, _ in validate(config)}
    assert "NEGATIVE_GENUS" in codes
    assert "POINT_NOT_FOUND" in codes


def test_validate_overlapping_classes():
    config = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": list("abc")},
        [[P("C1", "a"), P("C1", "b")], [P("C1", "b"), P("C1", "c")]])
    codes = {code for code, _ in validate(config)}
    assert "CLASSES_OVERLAP" in codes


def _ref_repr(label):
    return f"PointRef(component_id='C1', point_label='{label}')"


@pytest.mark.parametrize("components, points, classes, removed, expected", [
    ([("C1", 0), ("C1", 0)], {"C1": []}, [], [],
     ("DUPLICATE_COMPONENT", "component ids ['C1', 'C1']")),
    ([("C1", 1, 2)], {"C1": []}, [], [], ("BAD_P_RANK", "C1: s = 2, g = 1")),
    ([("C1", 1, -1)], {"C1": []}, [], [],
     ("BAD_P_RANK", "C1: s = -1, g = 1")),
    ([("C1", 0)], {"C1": [], "C9": ["a"]}, [], [],
     ("POINT_NOT_FOUND", "component 'C9'")),
    ([("C1", 0)], {"C1": ["a"]}, [], [P("C1", "z")],
     ("POINT_NOT_FOUND", f"removed: {_ref_repr('z')}")),
    ([("C1", 0)], {"C1": ["a", "a"]}, [], [],
     ("DUPLICATE_POINT", "C1: ('a', 'a')")),
    ([("C1", 0)], {"C1": ["a"]}, [[P("C1", "a")]], [],
     ("CLASS_TOO_SMALL", "class 0 has 1 point(s)")),
    ([("C1", 0)], {"C1": ["a"]}, [[P("C1", "a"), P("C1", "a")]], [],
     ("CLASS_TOO_SMALL", "class 0 repeats a point")),
    ([("C1", 0)], {"C1": ["a", "b"]}, [[P("C1", "a"), P("C1", "b")]],
     [P("C1", "a")], ("OVERLAP_WITH_REMOVED", _ref_repr("a"))),
])
def test_validate_error_table(components, points, classes, removed,
                              expected):
    config = CurveConfiguration.build(5, components, points, classes, removed)
    assert validate(config) == [expected]


@pytest.mark.parametrize("relation, expected", [
    ([["a"]], ("CLASS_TOO_SMALL",
               f"merge set [{_ref_repr('a')}] has fewer than 2 points")),
    ([["a", "z"]], ("POINT_NOT_FOUND", _ref_repr("z"))),
    ([["a", "r"]], ("OVERLAP_WITH_REMOVED", _ref_repr("r"))),
])
def test_identify_error_table(relation, expected):
    affine = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": ["a", "b", "r"]}, [], removed=[P("C1", "r")])
    with pytest.raises(DomainError) as err:
        identify(affine, [[P("C1", label) for label in s] for s in relation])
    assert (err.value.code, str(err.value)) == (expected[0],
                                                ": ".join(expected))


def test_bad_characteristic():
    config = CurveConfiguration.build(4, [("C1", 0)], {"C1": []}, [])
    codes = {code for code, _ in validate(config)}
    assert "BAD_CHARACTERISTIC" in codes


def test_delta_requires_connected():
    disconnected = CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0)], {"C1": [], "C2": []}, [])
    assert not is_connected(disconnected)
    with pytest.raises(DomainError) as err:
        delta(disconnected)
    assert err.value.code == "NOT_CONNECTED"


def test_delta_requires_projective():
    affine = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": ["x"]}, [], removed=[P("C1", "x")])
    with pytest.raises(DomainError) as err:
        delta(affine)
    assert err.value.code == "NOT_PROJECTIVE"


def test_identify_merges_into_existing_class():
    config = nodal()
    bigger = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": ["0", "1", "2"]},
        [[P("C1", "0"), P("C1", "1")]])
    merged = identify(bigger, [{P("C1", "1"), P("C1", "2")}])
    assert len(merged.identification_classes) == 1
    assert len(merged.identification_classes[0]) == 3
    assert delta(merged) == 2
    # fresh pair makes a new class
    fresh = identify(config, [{P("C1", "0"), P("C1", "1")}])
    assert len(fresh.identification_classes) == 1


def test_factorize_replay_round_trip():
    for config in (nodal(), triangle()):
        steps = factorize(config)
        assert replay(strip_identifications(config), steps) == config


def test_factorize_step_count():
    # a class of size m contributes m-1 steps
    config = CurveConfiguration.build(
        5, [("C1", 0)], {"C1": list("abc")},
        [[P("C1", "a"), P("C1", "b"), P("C1", "c")]])
    steps = factorize(config)
    assert len(steps) == 2
    assert all(step.same_component for step in steps)


def test_json_round_trip():
    for config in (nodal(), triangle()):
        data = json.loads(json.dumps(config.to_json()))
        assert CurveConfiguration.from_json(data) == config


def test_point_ref_behaviour():
    # a tuple with the two fields: repr, order and hash are the tuple's
    refs = [P("C2", "a"), P("C10", "b"), P("C1", "z"), P("C1", "a")]
    assert repr(refs[0]) == str(refs[0]) \
        == "PointRef(component_id='C2', point_label='a')"
    assert sorted(refs) == [P("C1", "a"), P("C1", "z"), P("C10", "b"),
                            P("C2", "a")]
    assert all(hash(r) == hash((r.component_id, r.point_label))
               for r in refs)
    assert [PointRef.from_json(json.loads(json.dumps(r.to_json())))
            for r in refs] == refs
    assert refs[0].to_json() == ["C2", "a"]
    with pytest.raises(DomainError) as err:
        PointRef.from_json(["C1"])
    assert err.value.code == "BAD_CONFIG_FILE"


def test_from_json_rejects_unknown_fields():
    data = nodal().to_json()
    data["surprise"] = 1
    with pytest.raises(DomainError) as err:
        CurveConfiguration.from_json(data)
    assert err.value.code == "BAD_CONFIG_FILE"


def random_config(rng, max_components=6, max_classes=6):
    n = rng.randint(1, max_components)
    comps = [(f"C{i+1}", rng.choice([0, 0, 0, 1, 2])) for i in range(n)]
    points = {f"C{i+1}": [f"p{j}" for j in range(4)] for i in range(n)}
    refs = [P(c, l) for c in points for l in points[c]]
    classes = []
    used = set()
    # spanning chain first so the result is connected
    for i in range(n - 1):
        a, b = P(f"C{i+1}", "p0"), P(f"C{i+2}", "p1")
        classes.append([a, b])
        used |= {a, b}
    for _ in range(rng.randint(0, max_classes - len(classes))):
        free = [r for r in refs if r not in used]
        if len(free) < 2:
            break
        pair = rng.sample(free, 2)
        classes.append(pair)
        used |= set(pair)
    return CurveConfiguration.build(5, comps, points, classes)


def test_random_configs_delta_betti_and_replay():
    rng = random.Random(2024)
    for _ in range(200):
        config = random_config(rng)
        assert not validate(config)
        assert is_connected(config)
        assert delta(config) == betti_number(config)
        steps = factorize(config)
        assert sum(s.same_component for s in steps) == delta(config)
        assert replay(strip_identifications(config), steps) == config


def test_equivalence_classes_keep_first_seen_order():
    # against Warshall's transitive closure: the same classes, each listing
    # its members in first-seen order, ordered by their first-seen member
    rng = random.Random(28)
    refs = [P(c, str(i)) for c in "AB" for i in range(5)]
    for universe in (list(range(10)), refs):
        for _ in range(150):
            pairs = [tuple(rng.choices(universe, k=2))
                     for _ in range(rng.randrange(10))]
            seen = list(dict.fromkeys(x for pair in pairs for x in pair))
            reach = {(x, x) for x in seen} | set(pairs) \
                | {(b, a) for a, b in pairs}
            for k in seen:
                reach |= {(i, j) for i in seen for j in seen
                          if (i, k) in reach and (k, j) in reach}
            expected, placed = [], set()
            for x in seen:
                if x not in placed:
                    expected.append([y for y in seen if (x, y) in reach])
                    placed.update(expected[-1])
            assert equivalence_classes(pairs) == expected


# -- configuration schema ---------------------------------------------------

SCHEMA = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)
NAMES = st.text(alphabet="abC1_", max_size=3)


@st.composite
def config_json(draw):
    """A configuration in its JSON form, of the right types throughout
    (not necessarily a valid curve: validate() judges that)."""
    ids = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    components = []
    for cid in ids:
        component = {"id": cid}
        for key in ("genus", "p_rank"):
            if draw(st.booleans()):
                component[key] = draw(st.integers(0, 3))
        components.append(component)
    data = {"components": components,
            "characteristic": draw(st.sampled_from([0, 2, 3, 4, 5]))}
    points = {cid: draw(st.lists(NAMES, max_size=3, unique=True))
              for cid in ids if draw(st.booleans())}
    refs = [[cid, label] for cid, labels in points.items() for label in labels]
    if points:
        data["points"] = points
    if refs:
        ref = st.sampled_from(refs)
        data["identifications"] = draw(st.lists(
            st.lists(ref, min_size=2, max_size=3), max_size=2))
        data["removed"] = draw(st.lists(ref, max_size=2))
    return data


def _typed_fields(data):
    """(path, JSON type) of every field the schema types."""
    yield ("characteristic",), int
    yield ("components",), list
    for i, component in enumerate(data["components"]):
        yield ("components", i), dict
        yield ("components", i, "id"), str
        yield ("components", i, "genus"), int
        yield ("components", i, "p_rank"), int
    yield ("points",), dict
    for cid, labels in data.get("points", {}).items():
        yield ("points", cid), list
        for j in range(len(labels)):
            yield ("points", cid, j), str
    yield ("identifications",), list
    for i, members in enumerate(data.get("identifications", [])):
        yield ("identifications", i), list
        for j in range(len(members)):
            yield ("identifications", i, j), list
            yield ("identifications", i, j, 0), str
            yield ("identifications", i, j, 1), str
    yield ("removed",), list
    for i in range(len(data.get("removed", []))):
        yield ("removed", i), list
        yield ("removed", i, 0), str
        yield ("removed", i, 1), str


JSON_VALUES = {type(None): st.none(), bool: st.booleans(),
               int: st.integers(), float: st.floats(), str: NAMES,
               list: st.lists(st.integers(), max_size=2),
               dict: st.dictionaries(NAMES, st.integers(), max_size=2)}


def _wrong_value(kind):
    """Any JSON value whose type is not kind (a bool is not an int)."""
    return st.one_of([s for t, s in JSON_VALUES.items() if t is not kind])


@SCHEMA
@given(config_json())
def test_schema_round_trip(data):
    config = CurveConfiguration.from_json(data)
    again = CurveConfiguration.from_json(json.loads(json.dumps(config.to_json())))
    assert again == config
    assert again.to_json() == config.to_json()


@SCHEMA
@given(config_json(), st.data())
def test_schema_rejects_wrong_types(data, choices):
    path, kind = choices.draw(st.sampled_from(list(_typed_fields(data))))
    wrong = choices.draw(_wrong_value(kind))
    if path[-1] == "p_rank" and wrong is None:
        wrong = "0"  # a null p_rank means "equal to the genus"
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = wrong
    with pytest.raises(DomainError) as err:
        CurveConfiguration.from_json(data)
    assert err.value.code == "BAD_CONFIG_FILE"


def test_replace_carries_over_no_cached_property():
    # the spanning tree and the violation scan are cached on the object;
    # _replace builds a new one that computes its own
    config = triangle()
    assert validate(config) == []
    classes = config.identification_classes
    assert config.spanning_tree == (
        ((0, P("C2", "a")), (2, P("C3", "b"))), ((1, P("C3", "a")),))
    assert {"spanning_tree", "_violations"} <= set(vars(config))
    fewer = config._replace(identification_classes=classes[:2])
    assert vars(fewer) == {}
    assert fewer.spanning_tree == (
        ((0, P("C2", "a")), (1, P("C3", "a"))), ())
    extra = (P("C1", "a"), P("C2", "b"))
    overlap = config._replace(identification_classes=classes + (extra,))
    assert [code for code, _ in validate(overlap)] == ["CLASSES_OVERLAP"] * 2
    assert validate(config) == [] and config.spanning_tree[1] == (
        (1, P("C3", "a")),)
