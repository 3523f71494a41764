import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pi1curves import catalog
from pi1curves.cli import main
from pi1curves.covers import build_descriptor, cover_to_json
from pi1curves.curves import CurveConfiguration, PointRef
from pi1curves.groups import subgroup_generated
from pi1curves.catalog import catalog_group
from pi1curves.oracle import nodal_curve, quotient_census, two_node_curve

from oracles import affine_curve


@pytest.fixture
def nodal_file(tmp_path):
    path = tmp_path / "nodal.json"
    path.write_text(json.dumps(nodal_curve(5).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, nodal_file):
    code, out, _ = run(capsys, "validate", nodal_file)
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_bad_config(capsys, tmp_path):
    config = {"characteristic": 4, "components": [], "points": {},
              "identifications": [], "removed": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    codes = {v["code"] for v in json.loads(out)["violations"]}
    assert "BAD_CHARACTERISTIC" in codes and "NO_COMPONENTS" in codes


def test_invariants(capsys, nodal_file):
    code, out, _ = run(capsys, "invariants", nodal_file)
    assert code == 0
    report = json.loads(out)
    assert report["delta"] == 1
    assert report["pro_p_rank"] == 1


def test_realizable_affine(capsys, tmp_path):
    path = tmp_path / "nodal_affine.json"
    path.write_text(json.dumps(affine_curve(2, 0, 1, 1).to_json()))
    code, out, _ = run(capsys, "realizable", str(path),
                       "--group", "C3", "--char", "2", "--mode", "affine")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "Yes"
    assert verdict["randomized"] is False


def test_realizable_projective_default(capsys, nodal_file):
    code, out, _ = run(capsys, "realizable", nodal_file, "--group", "C2xC2")
    assert code == 0
    assert json.loads(out)["verdict"] == "No"


def test_realizable_unknown_group(capsys, nodal_file):
    code, _, err = run(capsys, "realizable", nodal_file, "--group", "Nope")
    assert code == 1
    assert "UNKNOWN_GROUP" in err


def test_missing_group_path_is_bad_group_file(capsys, tmp_path, nodal_file):
    # a spec with a path separator or a .json suffix is a file, not a name
    for spec in (str(tmp_path / "missing" / "g"), "g.json"):
        code, out, err = run(capsys, "realizable", nodal_file, "--group", spec)
        assert code == 1 and out == ""
        assert err.startswith(f"error: BAD_GROUP_FILE: {spec}: ")
        assert "No such file or directory" in err


def test_group_directory_is_bad_group_file(capsys, tmp_path, nodal_file,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "groups").mkdir()
    for spec in (str(tmp_path / "groups"), "groups"):
        code, out, err = run(capsys, "realizable", nodal_file, "--group", spec)
        assert code == 1 and out == ""
        assert err.startswith(f"error: BAD_GROUP_FILE: {spec}: ")
        assert "Is a directory" in err


def test_bare_unknown_name_is_unknown_group(capsys, tmp_path, nodal_file,
                                            monkeypatch):
    # a catalog name wins over a directory of that name; a bare name that
    # is neither stays UNKNOWN_GROUP
    monkeypatch.chdir(tmp_path)
    (tmp_path / "S3").mkdir()
    code, out, _ = run(capsys, "realizable", nodal_file, "--group", "S3")
    assert code == 0 and json.loads(out)["verdict"] == "No"
    code, out, err = run(capsys, "realizable", nodal_file, "--group", "NOPE")
    assert code == 1 and out == ""
    assert err == "error: UNKNOWN_GROUP: no catalog group named 'NOPE'\n"


def test_enumerate_count(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(two_node_curve(5).to_json()))
    code, out, _ = run(capsys, "enumerate", str(path), "--group", "S3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 18
    assert payload["eulerian"] == 18
    assert len(payload["witnesses"]) == 18


def test_enumerate_census_text(capsys, nodal_file):
    code, out, _ = run(capsys, "enumerate", nodal_file,
                       "--max-order", "4", "--text")
    assert code == 0
    assert out.splitlines()[0].startswith("group")


def test_enumerate_census_json(capsys, nodal_file):
    code, out, err = run(capsys, "enumerate", nodal_file, "--max-order", "4")
    assert code == 0 and err == ""
    assert out == (
        '[{"count": 1, "group": "C1", "order": 1, "realizable": true, '
        '"witness": [[1]]}, {"count": 1, "group": "C2", "order": 2, '
        '"realizable": true, "witness": [[2, 1]]}, {"count": 2, "group": '
        '"C3", "order": 3, "realizable": true, "witness": [[2, 3, 1]]}, '
        '{"count": 2, "group": "C4", "order": 4, "realizable": true, '
        '"witness": [[2, 3, 4, 1]]}, {"count": 0, "group": "C2xC2", '
        '"order": 4, "realizable": false, "witness": null}]\n')


def test_realizable_tame(capsys, tmp_path):
    path = tmp_path / "nodal_affine.json"
    path.write_text(json.dumps(affine_curve(5, 0, 1, 1).to_json()))
    code, out, _ = run(capsys, "realizable", str(path), "--group", "C3",
                       "--mode", "tame")
    assert code == 0
    assert out == ('{"evidence": {"bound": 1, "d_G": 1}, "randomized": false, '
                   '"rule": "tame-free", "verdict": "Yes"}\n')
    code, out, _ = run(capsys, "realizable", str(path), "--group", "C5",
                       "--mode", "tame")
    assert code == 0
    assert out == ('{"evidence": {"bound": 1, "d_G": 1, "reason": "order '
                   'divisible by p; only the rank bound applies"}, '
                   '"randomized": false, "rule": "tame-rank-bound", '
                   '"verdict": "Unknown"}\n')


def test_affine_modes_need_one_component(capsys, tmp_path):
    two = CurveConfiguration.build(
        5, [("A", 0), ("B", 0)], {"A": ["0"], "B": ["0"]},
        [[PointRef("A", "0"), PointRef("B", "0")]])
    path = tmp_path / "two.json"
    path.write_text(json.dumps(two.to_json()))
    for mode in ("affine", "tame"):
        code, out, err = run(capsys, "realizable", str(path), "--group", "C3",
                             "--mode", mode)
        assert code == 1 and out == ""
        assert err == f"error: NOT_AFFINE: --mode {mode} needs a single " \
                      "component\n"


def test_invariants_affine_reports_tame_rank(capsys, tmp_path):
    path = tmp_path / "nodal_affine.json"
    path.write_text(json.dumps(affine_curve(5, 0, 1, 1).to_json()))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert out == ('{"affine_delta": 1, "delta": 1, "pi1_rank_bound": 1, '
                   '"pro_p_rank": 1, "tame_rank": 1}\n')


def test_export_dot_config(capsys, nodal_file):
    code, out, _ = run(capsys, "export-dot", nodal_file)
    assert code == 0
    assert out.startswith("graph dual {")


def test_export_dot_config_text(capsys, tmp_path):
    # two loops from a 3-member class, and a repeated edge, in class order
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({
        "characteristic": 5,
        "components": [{"id": "A", "genus": 0}, {"id": "B", "genus": 1}],
        "points": {"A": ["x", "y", "l1", "l2", "l3"], "B": ["x", "y"]},
        "identifications": [[["A", "x"], ["B", "x"]],
                            [["A", "l1"], ["A", "l2"], ["A", "l3"]],
                            [["A", "y"], ["B", "y"]]]}))
    code, out, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    assert out == ('graph dual {\n  "A";\n  "B";\n  "A" -- "B";\n'
                   '  "A" -- "A";\n  "A" -- "A";\n  "A" -- "B";\n}\n')


def test_glue_script(capsys, tmp_path):
    S3 = catalog_group("S3")
    rotation = next(g for g in S3.elements() if g.order() == 3)
    flip = next(g for g in S3.elements() if g.order() == 2)
    A3 = subgroup_generated(S3, [rotation])
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    script = {
        "covers": {"c": cover_to_json(cover)},
        "steps": [{"op": "same_component", "ambient": "S3", "cover": "c",
                   "gamma": flip.to_one_indexed(),
                   "y1": ["C1", "a"], "y2": ["C1", "b"], "result": "out"}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, out, _ = run(capsys, "glue", str(path))
    assert code == 0
    result = json.loads(out)
    assert len(result["configuration"]["identifications"]) == 1
    # round-trip through export-dot
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(out)
    code, dot, _ = run(capsys, "export-dot", str(cover_path))
    assert code == 0
    assert dot.startswith("graph sheets {")


def test_glue_script_rejects_mixed_characteristic(capsys, tmp_path):
    S3 = catalog_group("S3")
    rotation = next(g for g in S3.elements() if g.order() == 3)
    flip = next(g for g in S3.elements() if g.order() == 2)
    covers = {}
    for name, p, comp, gen in (("c5", 5, "C1", rotation),
                               ("c3", 3, "D1", flip)):
        base = CurveConfiguration.build(p, [(comp, 1)], {comp: ["a"]}, [])
        sub = subgroup_generated(S3, [gen])
        covers[name] = cover_to_json(
            build_descriptor(base, sub, monodromy={comp: sub}))
    path = tmp_path / "script.json"
    path.write_text(json.dumps({
        "covers": covers,
        "steps": [{"op": "two_components", "group": "S3", "cover1": "c5",
                   "cover2": "c3", "y1": ["C1", "a"], "y2": ["D1", "a"],
                   "result": "out"}]}))
    code, out, err = run(capsys, "glue", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: BAD_CHARACTERISTIC: covers over characteristics "
                   "5 and 3\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # --jobs was removed
        main(["--jobs", "2", "selftest"])
    assert exc.value.code == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "invariants", "/tmp/definitely-missing.json")
    assert code == 1
    assert "BAD_CONFIG_FILE" in err


@pytest.fixture
def fresh_catalog():
    """Empty the catalog cache before and after the test, so that a
    PI1_CATALOG_PATH it sets is read and then forgotten."""
    catalog._catalog_groups.cache_clear()
    yield
    catalog._catalog_groups.cache_clear()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_json",
                                  "not_utf8"])
def test_bad_catalog_path_is_bad_group_file(capsys, monkeypatch, tmp_path,
                                            nodal_file, fresh_catalog, kind):
    path = tmp_path / "catalog.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_json":
        path.write_text("{not json")
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
    monkeypatch.setenv("PI1_CATALOG_PATH", str(path))
    code, out, err = run(capsys, "realizable", nodal_file, "--group", "C5")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: BAD_GROUP_FILE: PI1_CATALOG_PATH {path}")


def test_max_order_lists_groups_and_skips_larger_ones(
        capsys, monkeypatch, tmp_path, fresh_catalog, chained):
    # the order filter of catalog_groups, selftest and the census lists a
    # group up to max_order elements; S8 (40,320 elements, too many to
    # list) is skipped under any max_order below its order, never raised on
    cycle = [list(range(2, n + 1)) + [1] for n in range(9)]
    data = {"C2": {"degree": 2, "generators": [cycle[2]]},
            "C3": {"degree": 3, "generators": [cycle[3]]},
            "S3": {"degree": 3, "generators": [[2, 1, 3], cycle[3]]},
            "S8": {"degree": 8,
                   "generators": [[2, 1, 3, 4, 5, 6, 7, 8], cycle[8]]}}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("PI1_CATALOG_PATH", str(path))
    assert [n for n, _ in catalog.catalog_groups(6)] == ["C2", "C3", "S3"]
    code, out, _ = run(capsys, "selftest", "--max-order", "6")
    assert code == 0 and "S8" not in out and "dmin S3 d=2" in out
    census = quotient_census(nodal_curve(5), 6)
    assert [e.name for e in census] == ["C2", "C3", "S3"]
    assert chained == []
    assert [n for n, _ in catalog.catalog_groups(40_319)] == ["C2", "C3", "S3"]
    assert chained == [catalog.catalog_group("S8")]
    assert [n for n, _ in catalog.catalog_groups(40_320)][-1] == "S8"


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--max-order", "6")
    code2, out2, _ = run(capsys, "selftest", "--max-order", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("failures=0")


def test_selftest_output_is_pinned(capsys):
    # the SHA-256 of the seed-7 selftest up to order 24; any change to an
    # answer the selftest reports changes it
    code, out, _ = run(capsys, "--seed", "7", "selftest", "--max-order", "24")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6295fdf22938c2c97a02ed8d65f42353a6d31b99ff599b1e33b9633d7f240656"


def test_pretty_flag(capsys, nodal_file):
    _, compact, _ = run(capsys, "invariants", nodal_file)
    _, pretty, _ = run(capsys, "--pretty", "invariants", nodal_file)
    assert json.loads(compact) == json.loads(pretty)
    assert "\n" in pretty.strip()


# configuration files of the wrong shape: each used to end in a traceback,
# or (labels_string) to be read as the labels "a" and "b"
MALFORMED_CONFIGS = {
    "genus_not_int": {"components": [{"id": "C1", "genus": "x"}]},
    "characteristic_string": {"characteristic": "5",
                              "components": [{"id": "C1", "genus": 0}]},
    "points_list": {"components": [{"id": "C1", "genus": 0}],
                    "points": [["C1", "a"]]},
    "id_list": {"components": [{"id": ["x"], "genus": 0}]},
    "labels_string": {"components": [{"id": "C1", "genus": 0}],
                      "points": {"C1": "ab"}},
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_is_bad_config_file(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_CONFIGS[name]))
    for command in ("validate", "invariants"):
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: BAD_CONFIG_FILE: ")


def _nodal_cover_with_gluing(**gluing):
    data = cover_to_json(build_descriptor(nodal_curve(5), catalog_group("S3")))
    data["gluings"][0].update(gluing)
    if "mapping" in gluing:
        del data["gluings"][0]["constant"]
    return data


# cover and script files of the wrong shape that used to end in a traceback
# (mapping_pair_short among them), or to be read wrongly: class_index_* used
# to reach build_descriptor and exit with POINT_NOT_FOUND, and constant_* to
# be read as the transposition (1 2) and exit 0.  The last five are cover
# files with wrong values: a group generator of another degree (from_generators
# would drop it), a monodromy identity of another degree (once dropped before
# its degree was checked, and exit 0), monodromy on no component, a map that
# repeats an image, and a map that lists a label twice (once read as its last
# pair and exit 0)
MALFORMED_COVER_INPUTS = {
    "monodromy_list": ("export-dot", "BAD_COVER_FILE", lambda: {
        **cover_to_json(build_descriptor(nodal_curve(5), catalog_group("S3"))),
        "monodromy": []}),
    "bare_number": ("export-dot", "BAD_CONFIG_FILE", lambda: 5),
    "step_not_object": ("glue", "BAD_COVER_FILE",
                        lambda: {"covers": {}, "steps": [5]}),
    "steps_not_list": ("glue", "BAD_COVER_FILE",
                       lambda: {"covers": {}, "steps": 5}),
    "output_not_name": ("glue", "BAD_COVER_FILE",
                        lambda: {"covers": {}, "steps": [], "output": ["x"]}),
    **{f"class_index_{i}": ("export-dot", "BAD_COVER_FILE",
                            lambda i=i: _nodal_cover_with_gluing(
                                class_index=i))
       for i in ("x", "0", True)},
    **{f"constant_{kind}": ("export-dot", "NOT_A_PERMUTATION",
                            lambda c=c: _nodal_cover_with_gluing(constant=c))
       for kind, c in (("float", [2.0, 1.0, 3.0]), ("bool", [2, True, 3]))},
    "mapping_pair_short": ("export-dot", "BAD_COVER_FILE",
                           lambda: _nodal_cover_with_gluing(
                               mapping=[[[1, 2, 3, 4, 5, 6]]])),
    "group_generator_degree": ("export-dot", "DEGREE_MISMATCH", lambda: {
        **_nodal_cover_with_gluing(),
        "group": {"degree": 3, "generators": [[1, 2]]}}),
    "monodromy_identity_degree": ("export-dot", "DEGREE_MISMATCH", lambda: {
        **_nodal_cover_with_gluing(), "monodromy": {"C1": [[1, 2]]}}),
    "monodromy_unknown_component": ("export-dot", "POINT_NOT_FOUND", lambda: {
        **_nodal_cover_with_gluing(), "monodromy": {"C9": [[2, 1, 3]]}}),
    "mapping_image_repeated": ("export-dot", "FIBER_NOT_TORSOR",
                               lambda: _nodal_cover_with_gluing(mapping=[
                                   [g.to_one_indexed(), [1, 2, 3]]
                                   for g in catalog_group("S3").elements()])),
    "mapping_label_repeated": ("export-dot", "FIBER_NOT_TORSOR",
                               lambda: _nodal_cover_with_gluing(mapping=[
                                   [[1, 2, 3], [1, 3, 2]]] + [
                                   [g.to_one_indexed()] * 2
                                   for g in catalog_group("S3").elements()])),
}


@pytest.mark.parametrize("name", MALFORMED_COVER_INPUTS)
def test_malformed_cover_input_exits_1(capsys, tmp_path, name):
    command, error_code, make = MALFORMED_COVER_INPUTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make()))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {error_code}: ")


def test_realizable_projective_on_affine_says_why(capsys, tmp_path):
    path = tmp_path / "nodal_affine.json"
    path.write_text(json.dumps(affine_curve(5, 0, 1, 1).to_json()))
    code, out, err = run(capsys, "realizable", str(path), "--group", "C3",
                         "--mode", "projective")
    assert code == 1 and out == ""
    assert err == "error: NOT_PROJECTIVE: removed points present\n"


def test_realizable_big_group_is_too_large_fast(capsys, tmp_path, nodal_file):
    # S14 on three generators: its order comes from a 13-level chain
    generators = [[2, 1] + list(range(3, 15)), list(range(2, 15)) + [1],
                  [4, 8, 1, 13, 6, 2, 10, 14, 3, 12, 5, 11, 7, 9]]
    path = tmp_path / "g14.json"
    path.write_text(json.dumps({"degree": 14, "generators": generators}))
    started = time.time()
    code, out, err = run(capsys, "realizable", nodal_file, "--group", str(path))
    elapsed = time.time() - started
    assert code == 1 and out == ""
    assert err == "error: GROUP_TOO_LARGE: |G| = 87178291200 > 2000\n"
    assert elapsed < 5, f"{elapsed:.1f}s over the 5s budget"


def test_realizable_char_on_a_characteristic_0_file(capsys, tmp_path):
    # --char p decides the p-group rule with p, whatever the file's
    # characteristic: the answer is the one a characteristic-3 file gets
    path = tmp_path / "elliptic.json"
    expected = {"verdict": "Unknown", "rule": "structure",
                "evidence": {"d_G": 1, "delta": 0, "rank_bound": 2, "reason":
                             "positive-genus component quotients undecided"},
                "randomized": False}
    for head in ({}, {"characteristic": 3}):
        path.write_text(json.dumps(
            {**head, "components": [{"id": "E", "genus": 1}]}))
        code, out, err = run(capsys, "realizable", str(path),
                             "--group", "C5", "--char", "5")
        assert (code, err) == (0, "")
        assert json.loads(out) == expected


@pytest.mark.parametrize("p", [10 ** 18 + 3, 10 ** 39 + 3])
def test_large_prime_characteristic_is_refused_fast(capsys, tmp_path,
                                                    nodal_file, p):
    # both are prime; trial division would run for hours
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"characteristic": p, "components": [{"id": "E", "genus": 1}]}))
    started = time.time()
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"code": "BAD_CHARACTERISTIC", "detail": f"{p} exceeds 2147483647"}]
    assert time.time() - started < 1
    started = time.time()
    code, out, err = run(capsys, "realizable", nodal_file, "--group", "S3",
                         "--char", str(p))
    assert code == 1 and out == ""
    assert err == f"error: BAD_CHARACTERISTIC: {p} exceeds 2147483647\n"
    assert time.time() - started < 1


def test_characteristic_up_to_2_31_minus_1_is_tested(capsys, tmp_path):
    path = tmp_path / "config.json"
    for p, violations in ((2 ** 31 - 1, []), (2 ** 31 - 3, [
            {"code": "BAD_CHARACTERISTIC",
             "detail": f"{2 ** 31 - 3} is not prime or 0"}])):
        path.write_text(json.dumps(
            {"characteristic": p, "components": [{"id": "E", "genus": 1}]}))
        code, out, _ = run(capsys, "validate", str(path))
        assert (code, json.loads(out)["violations"]) == (
            1 if violations else 0, violations)


def test_enumerate_big_group_is_too_large_fast(capsys, tmp_path):
    # S6 on the two-node curve: 720^2 tuples are within the enumeration
    # bound, but eulerian needs the lattice, which stops at order 200
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(two_node_curve(5).to_json()))
    group = tmp_path / "s6.json"
    group.write_text(json.dumps(
        {"degree": 6, "generators": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]}))
    started = time.time()
    code, out, err = run(capsys, "enumerate", str(theta), "--group", str(group))
    elapsed = time.time() - started
    assert code == 1 and out == ""
    assert err == "error: GROUP_TOO_LARGE: |G| = 720 > 200\n"
    assert elapsed < 2, f"{elapsed:.1f}s over the 2s budget"


@pytest.mark.parametrize("degree", ["3", True, 0, None, 2.5])
def test_group_file_degree_must_be_positive_int(capsys, tmp_path, nodal_file,
                                                degree):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": degree, "generators": [[1]]}))
    code, out, err = run(capsys, "realizable", nodal_file, "--group", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: BAD_GROUP_FILE: degree must be")


# a float image used to end in a traceback, and [2, true] to be read as [2, 1]
@pytest.mark.parametrize("degree, generators", [
    (3, [[2.0, 1.0, 3.0], [2, 3, 1]]), (2, [[2, True]])])
def test_group_file_images_must_be_ints(capsys, tmp_path, nodal_file, degree,
                                        generators):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": degree, "generators": generators}))
    code, out, err = run(capsys, "realizable", nodal_file, "--group", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: NOT_A_PERMUTATION: non-integer image")


# each kind of file has its code: a non-UTF-8 configuration or script used
# to end in a UnicodeDecodeError traceback, JSON nested too deep in a
# RecursionError, and a bad --group file or script to be BAD_CONFIG_FILE
@pytest.mark.parametrize("argv, error_code", [
    (["validate", "{file}"], "BAD_CONFIG_FILE"),
    (["export-dot", "{file}"], "BAD_CONFIG_FILE"),
    (["glue", "{file}"], "BAD_COVER_FILE"),
    (["realizable", "{nodal}", "--group", "{file}"], "BAD_GROUP_FILE")],
    ids=["config", "dot", "script", "group"])
@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b"{not json", b"[" * 10 ** 5 + b"]" * 10 ** 5],
    ids=["not_utf8", "not_json", "too_deep"])
def test_unreadable_file_has_its_kinds_code(capsys, tmp_path, nodal_file,
                                            argv, error_code, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *[a.format(file=path, nodal=nodal_file)
                                   for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error_code}: {path}: ")


def test_misspelled_cover_field_is_rejected(capsys, tmp_path):
    # "gluing" for "gluings" used to be ignored: export-dot drew the sheet
    # graph of the identity gluing and exited 0
    data = _nodal_cover_with_gluing(constant=[2, 1, 3, 5, 4, 6])
    data["gluing"] = data.pop("gluings")
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "export-dot", str(path))
    assert (code, out) == (1, "")
    assert err == "error: BAD_COVER_FILE: cover: unknown fields ['gluing']\n"


def test_group_file_degree_is_bounded(tmp_path, nodal_file):
    # with no generators nothing bounded the degree: tuple(range(degree))
    # was built and the process killed for memory; the run is a child
    # process under an address-space limit, so a regression fails, not
    # the machine
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 10 ** 9, "generators": []}))
    limit = 2 ** 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    pythonpath = os.pathsep.join(filter(None, [
        str(Path(catalog.__file__).parent.parent),
        os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pi1curves.cli", "enumerate", nodal_file,
         "--group", str(path)], capture_output=True, text=True, timeout=60,
        preexec_fn=limit_memory, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: BAD_GROUP_FILE: degree must be in "
                           f"1..{catalog.MAX_DEGREE}, not {10 ** 9}\n")
