"""Schema tests for cover descriptors and gluing scripts, like the
configuration schema tests in test_curves.py: a cover survives
cover_from_json and cover_to_json unchanged, and a field of the wrong JSON
type, or an unknown field, exits 1 with a DomainError code, never a
Python exception."""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pi1curves.catalog import catalog_group, catalog_groups
from pi1curves.cli import main
from pi1curves.covers import (Gluing, build_descriptor, cover_from_json,
                              cover_to_json)
from pi1curves.curves import CurveConfiguration, PointRef

from oracles import subgroup_generated
from test_curves import SCHEMA, _wrong_value

GROUPS = [group for _, group in catalog_groups(6) if group.order() > 1]
# class shapes over one component C1 or two, C1 and C2, each with the
# points a, b, c and r (r carries ramification, never a class)
SHAPES = [
    (("C1",), [[("C1", "a"), ("C1", "b")]]),
    (("C1",), [[("C1", "a"), ("C1", "b"), ("C1", "c")]]),
    (("C1", "C2"), [[("C1", "a"), ("C2", "a")], [("C1", "b"), ("C2", "b")]]),
    (("C1", "C2"), [[("C1", "a"), ("C2", "a"), ("C2", "b")]]),
    (("C1", "C2"), []),
]


@st.composite
def cover_json(draw):
    """A valid cover descriptor in its JSON form: any monodromy, licensed
    by ramification on genus-0 components, and per branch a constant, a
    label bijection, or a raw mapping that build_descriptor reads: a label
    bijection or a left translation."""
    group = draw(st.sampled_from(GROUPS))
    element = st.sampled_from(group.elements())
    ids, classes = draw(st.sampled_from(SHAPES))
    config = CurveConfiguration.build(
        5, [(cid, draw(st.integers(0, 1))) for cid in ids],
        {cid: ["a", "b", "c", "r"] for cid in ids},
        [[PointRef(*ref) for ref in cls] for cls in classes])
    monodromy, ramification = {}, {}
    for comp in config.components:
        if draw(st.booleans()):
            gens = draw(st.lists(element, min_size=1, max_size=2))
            monodromy[comp.id] = subgroup_generated(group, gens)
            if comp.genus == 0 or draw(st.booleans()):
                ramification[PointRef(comp.id, "r")] = tuple(gens)
    gluings, elements = {}, group.elements()
    for ci, cls in enumerate(config.identification_classes):
        for branch in cls[1:]:
            row = draw(st.permutations(range(group.order())))
            form = draw(st.sampled_from(["row", "constant", "mapping"]))
            if form == "row":
                gluing = Gluing.of_row(row, group)
            elif form == "constant":
                gluing = Gluing(draw(element))
            else:
                c = draw(element)
                images = [elements[j] for j in row] if draw(st.booleans()) \
                    else [c * x for x in elements]
                gluing = Gluing(mapping=tuple(zip(elements, images)))
            gluings.setdefault(ci, {})[branch] = gluing
    cover = build_descriptor(config, group, monodromy, gluings, ramification)
    return json.loads(json.dumps(cover_to_json(cover)))


def _cover_fields(data, at=()):
    """(path, JSON type) of every field of a cover that its reader types,
    the configuration's own fields aside (test_curves.py types those)."""
    yield at + ("configuration",), dict
    yield at + ("group",), dict  # or a catalog name
    yield at + ("group", "degree"), int
    yield at + ("group", "generators"), list
    for i in range(len(data["group"]["generators"])):
        yield at + ("group", "generators", i), list
        yield at + ("group", "generators", i, 0), int
    yield at + ("monodromy",), dict
    for cid, gens in data["monodromy"].items():
        yield at + ("monodromy", cid), list
        for i in range(len(gens)):
            yield at + ("monodromy", cid, i), list
            yield at + ("monodromy", cid, i, 0), int
    yield at + ("gluings",), list
    for i, entry in enumerate(data["gluings"]):
        here = at + ("gluings", i)
        yield here, dict
        yield here + ("class_index",), int
        yield here + ("branch",), list
        yield here + ("branch", 0), str
        yield here + ("branch", 1), str
        if "constant" in entry:
            yield here + ("constant",), list
            yield here + ("constant", 0), int
        else:
            yield here + ("mapping",), list
            for k in range(len(entry["mapping"])):
                yield here + ("mapping", k), list
                yield here + ("mapping", k, 0), list
                yield here + ("mapping", k, 1), list
    yield at + ("ramification",), list
    for i, entry in enumerate(data["ramification"]):
        here = at + ("ramification", i)
        yield here, dict
        yield here + ("point",), list
        yield here + ("point", 0), str
        yield here + ("point", 1), str
        yield here + ("inertia",), list
        for k in range(len(entry["inertia"])):
            yield here + ("inertia", k), list


def _cover_objects(data, at=()):
    """The path of every object of a cover whose unknown fields are
    rejected: the cover, its gluing entries and its ramification entries."""
    yield at
    for key in ("gluings", "ramification"):
        yield from (at + (key, i) for i in range(len(data[key])))


def _script_json(op, output):
    """A gluing script that exits 0: an A3-cover of a genus-1 curve glued
    to itself by a transposition of S3, or two covers, by <(1 2 3)> and
    <(1 2)>, of two genus-1 curves glued into one S3-cover."""
    S3 = catalog_group("S3")
    rotation = next(g for g in S3.elements() if g.order() == 3)
    flip = next(g for g in S3.elements() if g.order() == 2)

    def cover(cid, generator):
        base = CurveConfiguration.build(5, [(cid, 1)], {cid: ["a", "b"]}, [])
        sub = subgroup_generated(S3, [generator])
        return cover_to_json(build_descriptor(base, sub, {cid: sub}))

    if op == "same_component":
        script = {"covers": {"c": cover("C1", rotation)},
                  "steps": [{"op": op, "ambient": "S3", "cover": "c",
                             "gamma": flip.to_one_indexed(), "y1": ["C1", "a"],
                             "y2": ["C1", "b"], "result": "out"}]}
    else:
        script = {"covers": {"c": cover("C1", rotation),
                             "d": cover("D1", flip)},
                  "steps": [{"op": op, "group": "S3", "cover1": "c",
                             "cover2": "d", "y1": ["C1", "a"],
                             "y2": ["D1", "a"], "result": "out"}]}
    if output:
        script["output"] = "out"
    return script


script_json = st.builds(_script_json,
                        st.sampled_from(["same_component", "two_components"]),
                        st.booleans())


def _script_fields(data):
    yield ("covers",), dict
    for name, cover in data["covers"].items():
        yield from _cover_fields(cover, ("covers", name))
    yield ("steps",), list
    for i, step in enumerate(data["steps"]):
        yield ("steps", i), dict
        for key in step:
            if key == "gamma":
                yield ("steps", i, key), list
                yield ("steps", i, key, 0), int
            elif key in ("y1", "y2"):
                yield ("steps", i, key), list
                yield ("steps", i, key, 0), str
                yield ("steps", i, key, 1), str
            else:
                yield ("steps", i, key), str
    if "output" in data:
        yield ("output",), str


def _script_objects(data):
    yield ()
    for name, cover in data["covers"].items():
        yield from _cover_objects(cover, ("covers", name))
    yield from (("steps", i) for i in range(len(data["steps"])))


def _set(data, path, value):
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def run_file(tmp_path_factory):
    """Write data to a file and run a command on it: (exit code, stdout,
    the error code on stderr or None)."""
    path = tmp_path_factory.mktemp("schema") / "input.json"

    def run(command, data):
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        match = re.match(r"error: ([A-Z_]+): ", err.getvalue())
        return code, out.getvalue(), match and match.group(1)

    return run


@SCHEMA
@given(cover_json())
def test_cover_round_trip(data):
    cover = cover_from_json(copy.deepcopy(data))
    assert cover_to_json(cover) == data
    # each gluing is in its canonical form: a left translation is a constant
    for branches in cover.gluings.values():
        for gluing in branches.values():
            assert gluing == Gluing.of_row(gluing.row(cover.group),
                                           cover.group)


@SCHEMA
@given(cover_json(), st.data())
def test_cover_rejects_wrong_types(run_file, data, choices):
    assert run_file("export-dot", data)[0] == 0
    path, kind = choices.draw(st.sampled_from(list(_cover_fields(data))))
    wrong = choices.draw(_wrong_value(kind))
    if path == ("group",) and isinstance(wrong, str):
        wrong = 5  # a string names a catalog group
    code, out, error = run_file("export-dot", _set(data, path, wrong))
    assert (code, out) == (1, "") and error is not None


@SCHEMA
@given(cover_json(), st.data())
def test_cover_rejects_unknown_fields(run_file, data, choices):
    path = choices.draw(st.sampled_from(list(_cover_objects(data))))
    code, out, error = run_file("export-dot", _set(data, path + ("colour",),
                                                   "red"))
    assert (code, out, error) == (1, "", "BAD_COVER_FILE")


@SCHEMA
@given(script_json, st.data())
def test_script_rejects_wrong_types(run_file, data, choices):
    assert run_file("glue", data)[0] == 0
    path, kind = choices.draw(st.sampled_from(list(_script_fields(data))))
    wrong = choices.draw(_wrong_value(kind))
    if path[-1] == "group" and isinstance(wrong, str):
        wrong = 5  # a string names a catalog group
    code, out, error = run_file("glue", _set(data, path, wrong))
    assert (code, out) == (1, "") and error is not None


@SCHEMA
@given(script_json, st.data())
def test_script_rejects_unknown_fields(run_file, data, choices):
    path = choices.draw(st.sampled_from(list(_script_objects(data))))
    code, out, error = run_file("glue", _set(data, path + ("colour",), "red"))
    assert (code, out, error) == (1, "", "BAD_COVER_FILE")
