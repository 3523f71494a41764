"""Command-line front end.

Machine-readable JSON on stdout by default, indented with --pretty.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import oracle, realizability
from .catalog import (catalog_group, catalog_groups, catalog_names,
                      group_from_json)
from .covers import (cover_from_json, cover_to_json, dual_graph_dot,
                     glue_same_component, glue_two_components,
                     sheet_graph_dot)
from .curves import CurveConfiguration, PointRef, rank_report, validate
from .errors import DomainError, fields, read_json, require, typed
from .groups import eulerian, min_generators
from .perms import Perm


def _emit(payload, pretty):
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True))


def _resolve_group(spec):
    """A --group argument is a path to a group JSON file or a catalog name.
    An existing file is read, then a catalog name is looked up; any other
    spec that looks like a path (a path separator, a .json suffix, or it
    exists, as a directory does) is read too, so BAD_GROUP_FILE names it."""
    path = Path(spec)
    separators = [sep for sep in (os.sep, os.altsep) if sep]
    looks_like_path = (path.exists() or spec.endswith(".json")
                       or any(sep in spec for sep in separators))
    if path.is_file() or (looks_like_path and spec not in catalog_names()):
        return group_from_json(read_json(spec, "BAD_GROUP_FILE", spec))
    return catalog_group(spec)


def cmd_validate(args):
    config = CurveConfiguration.from_json(
        read_json(args.config, "BAD_CONFIG_FILE", args.config))
    violations = validate(config)
    payload = {"valid": not violations,
               "violations": [{"code": code, "detail": detail}
                              for code, detail in violations]}
    _emit(payload, args.pretty)
    return 0 if not violations else 1


def cmd_invariants(args):
    config = CurveConfiguration.from_json(
        read_json(args.config, "BAD_CONFIG_FILE", args.config))
    _emit(rank_report(config).to_json(), args.pretty)
    return 0


def cmd_realizable(args):
    config = CurveConfiguration.from_json(
        read_json(args.config, "BAD_CONFIG_FILE", args.config))
    group = _resolve_group(args.group)
    p = args.char if args.char is not None else config.characteristic
    # looked up per call, so that a wrapped rule is the one called
    rule = getattr(realizability, f"{args.mode}_realizable")
    payload = rule(group, p, config).to_json()
    # exact d(G): σ_p on a p-group, else a generating probe or a level search
    payload["randomized"] = False
    _emit(payload, args.pretty)
    return 0


def cmd_enumerate(args):
    config = CurveConfiguration.from_json(
        read_json(args.config, "BAD_CONFIG_FILE", args.config))
    if args.group is not None:
        group = _resolve_group(args.group)
        d = len(oracle.require_enumerable(group, config))
        # GROUP_TOO_LARGE above LATTICE_BOUND, before the |G|^delta tuples
        phi = eulerian(group, d)
        count, witnesses = oracle.enumerate_connected_covers(group, config)
        payload = {"group": args.group, "delta": d,
                   "count": count, "eulerian": phi,
                   "witnesses": [[c.to_one_indexed() for c in w]
                                 for w in witnesses]}
        _emit(payload, args.pretty)
        return 0
    entries = oracle.quotient_census(config, args.max_order)
    if args.text:
        sys.stdout.write(oracle.census_report(entries))
    else:
        _emit([e.to_json() for e in entries], args.pretty)
    return 0


def cmd_export_dot(args):
    data = read_json(args.file, "BAD_CONFIG_FILE", args.file)
    if isinstance(data, dict) and "group" in data:
        cover = cover_from_json(data)
        sys.stdout.write(sheet_graph_dot(cover))
    else:
        config = CurveConfiguration.from_json(data)
        sys.stdout.write(dual_graph_dot(config))
    return 0


_STEP_FIELDS = (("same_component", ("ambient", "cover", "gamma")),
               ("two_components", ("group", "cover1", "cover2")))


def cmd_glue(args):
    """Run a gluing script: named covers plus a list of gluing steps."""
    code = "BAD_COVER_FILE"
    script = fields(read_json(args.script, code, args.script), "script",
                    code, ("steps",), ("covers", "output"))
    covers = {name: cover_from_json(data) for name, data in
              typed(script.get("covers", {}), dict, "covers", code).items()}
    steps = typed(script["steps"], list, "steps", code)

    def named(step, key):
        name = typed(step[key], str, key, code)
        require(name in covers, code, f"no cover named {name!r}")
        return covers[name]

    for step in steps:
        op = typed(typed(step, dict, "step", code).get("op"), str, "op", code)
        extra = dict(_STEP_FIELDS).get(op)
        require(extra is not None, code, f"unknown op {op!r}")
        fields(step, f"{op} step", code, ("op", "result", "y1", "y2") + extra)
        result = typed(step["result"], str, "result", code)
        y1, y2 = PointRef.from_json(step["y1"]), PointRef.from_json(step["y2"])
        if op == "same_component":
            ambient = _resolve_group(typed(step["ambient"], str, "ambient",
                                           code))
            cover = named(step, "cover")
            covers[result] = glue_same_component(
                ambient, cover.group, Perm.from_one_indexed(step["gamma"]),
                cover, y1, y2)
        else:
            group = _resolve_group(typed(step["group"], str, "group", code))
            c1, c2 = named(step, "cover1"), named(step, "cover2")
            covers[result] = glue_two_components(
                group, c1.group, c2.group, c1, c2, y1, y2)
    output = script.get("output", steps[-1]["result"] if steps else "")
    require(typed(output, str, "output", code) in covers, code,
            f"no cover named {output!r}")
    _emit(cover_to_json(covers[output]), args.pretty)
    return 0


def cmd_selftest(args):
    """Deterministic oracle suites; output depends only on --seed."""
    lines = []
    nodal = oracle.nodal_curve(5)
    theta = oracle.two_node_curve(5)
    for name, group in catalog_groups(args.max_order):
        for config, d in ((nodal, 1), (theta, 2)):
            count, _ = oracle.enumerate_connected_covers(group, config)
            expected = eulerian(group, d)
            status = "ok" if count == expected else "MISMATCH"
            lines.append(f"covers {name} delta={d} count={count} "
                         f"eulerian={expected} {status}")
        d_g = min_generators(group, seed=args.seed)
        lines.append(f"dmin {name} d={d_g}")
    for name in ("C2", "C3", "S3"):
        report = oracle.cross_check_descent(catalog_group(name), nodal)
        status = "ok" if report.ok and report.negative_controls_rejected \
            else "MISMATCH"
        lines.append(f"descent {name} checked={report.checked} "
                     f"mismatches={len(report.mismatches)} {status}")
    failures = sum("MISMATCH" in line for line in lines)
    lines.append(f"selftest seed={args.seed} failures={failures}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pi1curves",
        description="Fundamental-group invariants and Galois covers of "
                    "seminormal curves in positive characteristic")
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized search budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check a configuration file")
    s.add_argument("config")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("invariants", help="delta and rank report")
    s.add_argument("config")
    s.set_defaults(func=cmd_invariants)

    s = sub.add_parser("realizable", help="realizability verdict")
    s.add_argument("config")
    s.add_argument("--group", required=True)
    s.add_argument("--char", type=int)
    s.add_argument("--mode", choices=["affine", "projective", "tame"],
                   default="projective")
    s.set_defaults(func=cmd_realizable)

    s = sub.add_parser("glue", help="apply gluing steps from a script file")
    s.add_argument("script")
    s.set_defaults(func=cmd_glue)

    s = sub.add_parser("enumerate", help="count connected covers / census")
    s.add_argument("config")
    s.add_argument("--group")
    s.add_argument("--max-order", type=int, default=12)
    s.add_argument("--text", action="store_true",
                   help="plain-text census table")
    s.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("export-dot", help="DOT graph of a config or cover")
    s.add_argument("file")
    s.set_defaults(func=cmd_export_dot)

    s = sub.add_parser("selftest", help="run the oracle suites")
    s.add_argument("--max-order", type=int, default=12)
    s.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
