"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps the package's public entry points in place: methods are
patched on their class, and module functions are replaced in every
``pi1curves`` module that holds them, under whatever name it imported them
(``oracle`` calls ``covers.is_connected`` as ``cover_connected``).  Each
call records a span (id, name, start, end, parent id) in memory; the spans
are reduced to per-layer counts and self times when the batch ends.  A
layer's self time is the sum of its spans' durations minus the time their
child spans cover.  ``Perm.__mul__`` is too hot for a span and only counts
its calls.

Nothing is patched unless ``Tracer.install`` runs, so untraced children
execute the package unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> entry points ("module:attribute" or "module:Class.attribute")
SPANS = {
    "groups.order": ["groups:PermutationGroup.order"],
    "groups.contains": ["groups:PermutationGroup.contains"],
    "groups.elements": ["groups:PermutationGroup.elements"],
    "groups.lattice": ["groups:subgroup_lattice", "groups:moebius",
                       "groups:eulerian"],
    "groups.min_generators": ["groups:min_generators"],
    "groups.quotient": ["groups:quotient", "groups:quasi_p_part",
                        "groups:normal_closure", "groups:sylow_subgroup",
                        "groups:derived_subgroup", "groups:abelianization",
                        "groups:abelianization_p_rank"],
    "covers.is_connected": ["covers:is_connected"],
    "covers.is_galois": ["covers:is_galois"],
    "covers.glue": ["covers:glue_same_component",
                    "covers:glue_two_components"],
    "covers.descend": ["covers:descend"],
    "covers.build_descriptor": ["covers:build_descriptor"],
    "covers.to_json": ["covers:cover_to_json"],
    "covers.other": ["covers:cover_from_json", "covers:sheet_graph_dot",
                     "covers:dual_graph_dot", "covers:spanning_tree"],
    "oracle.enumerate": ["oracle:enumerate_connected_covers"],
    "oracle.cross_check_descent": ["oracle:cross_check_descent"],
    "realizability": ["realizability:affine_realizable",
                      "realizability:projective_realizable",
                      "realizability:tame_realizable",
                      "realizability:hasse_witt_check",
                      "realizability:nakajima_check",
                      "realizability:pro_p_rank"],
    "curves": ["curves:CurveConfiguration.from_json",
               "curves:CurveConfiguration.build",
               "curves:CurveConfiguration.to_json",
               "curves:validate", "curves:require_valid", "curves:dual_graph",
               "curves:is_connected", "curves:delta", "curves:affine_delta",
               "curves:rank_report", "curves:identify",
               "curves:strip_identifications"],
    "catalog": ["catalog:catalog_group", "catalog:catalog_names",
                "catalog:group_from_json"],
    "cli": ["cli:main"],
}

# per_layer metric names in BENCHMARK.json, in the order they are printed
COUNT_METRICS = [
    "perms.mul_calls", "perms.interned", "groups.order_calls",
    "covers.is_connected.calls", "oracle.tuples_tried",
    "oracle.connected_ratio", "realizability.verdicts.Yes",
    "realizability.verdicts.No", "realizability.verdicts.Unknown",
    "cli.exit1_frac",
]
SELF_METRICS = [f"{name}.self_s" for name in SPANS]
METRICS = COUNT_METRICS + SELF_METRICS + ["trace.overhead_s"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list = []     # (id, name, start, end, parent id)
        self.stack: list = []     # (id, name) of the open spans
        self.next_id = 0
        self.counts: Counter = Counter()

    # -- patching -------------------------------------------------------------

    def install(self, package_modules: dict) -> None:
        """Wrap every entry point in SPANS, and count Perm.__mul__."""
        for span_name, targets in SPANS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = package_modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(span_name, raw.__func__))
                    else:
                        wrapped = self._wrap(span_name, raw)
                    setattr(cls, meth, wrapped)
                else:
                    original = getattr(module, attr)
                    _replace_everywhere(original, self._wrap(span_name, original))
        perm_cls = package_modules["perms"].Perm
        mul = perm_cls.__mul__
        counts = self.counts

        def counted_mul(a, b):
            counts["perms.mul_calls"] += 1
            return mul(a, b)

        perm_cls.__mul__ = counted_mul

    def _wrap(self, span_name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        on_result = _RESULT_HOOKS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else (-1, None)
            stack.append((span_id, span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, span_name, start, end, parent[0]))
            if on_result is not None:
                on_result(counts, parent[1], result)
            return result

        return traced

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, interned: int) -> dict:
        """Counts and self times of one traced batch, keyed by metric name."""
        covered: dict = defaultdict(float)
        names = {}
        for span_id, name, start, end, parent in self.spans:
            covered[parent] += end - start
            names[span_id] = name
        self_time = {name: 0.0 for name in SPANS}
        calls: Counter = Counter()
        tuples_tried = 0
        for span_id, name, start, end, parent in self.spans:
            self_time[name] += (end - start) - covered[span_id]
            calls[name] += 1
            if name == "covers.is_connected" and \
                    names.get(parent) == "oracle.enumerate":
                tuples_tried += 1
        c = self.counts
        out = {
            "perms.mul_calls": c["perms.mul_calls"],
            "perms.interned": interned,
            "groups.order_calls": calls["groups.order"],
            "covers.is_connected.calls": calls["covers.is_connected"],
            "oracle.tuples_tried": tuples_tried,
            "oracle.connected_ratio":
                c["oracle.connected"] / tuples_tried if tuples_tried else 0.0,
            "realizability.verdicts.Yes": c["verdict.Yes"],
            "realizability.verdicts.No": c["verdict.No"],
            "realizability.verdicts.Unknown": c["verdict.Unknown"],
            "cli.exit1_frac":
                c["cli.exit1"] / calls["cli"] if calls["cli"] else 0.0,
        }
        for name, seconds in self_time.items():
            out[f"{name}.self_s"] = seconds
        return out

    def dump_rows(self):
        """Spans as JSON-ready rows: [id, name, start, end, parent]."""
        return [list(span) for span in self.spans]


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "pi1curves"
                                  or name.startswith("pi1curves.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _count_enumerated(counts, parent_name, result):
    counts["oracle.connected"] += result[0]


def _count_verdict(counts, parent_name, result):
    # only outermost verdicts: projective_realizable consults the checkers,
    # and pro_p_rank returns a rank, not a verdict
    verdict = getattr(result, "verdict", None)
    if verdict is not None and parent_name != "realizability":
        counts[f"verdict.{verdict}"] += 1


def _count_exit(counts, parent_name, result):
    if result == 1:
        counts["cli.exit1"] += 1


_RESULT_HOOKS = {
    "oracle.enumerate": _count_enumerated,
    "realizability": _count_verdict,
    "cli": _count_exit,
}
