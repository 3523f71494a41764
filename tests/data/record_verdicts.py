"""Record the realizability verdict of every catalog group of order <= 24
on a fixed set of configurations, for p in {2, 3, 5}.

    PYTHONPATH=src python3 tests/data/record_verdicts.py

Writes tests/data/verdicts.tsv: one line per (p, configuration, mode,
group), tab-separated, with the verdict, the rule and the evidence as JSON
with sorted keys.  `tests/test_verdicts.py` recomputes the table and
prints the lines that changed.  The file pins the verdicts of the commit
it was recorded at; re-record it only in a change that means to alter
them, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from pi1curves import realizability
from pi1curves.catalog import catalog_groups
from pi1curves.curves import CurveConfiguration, PointRef

VERDICTS = Path(__file__).with_name("verdicts.tsv")
PRIMES = (2, 3, 5)


def _twice(a, g, b, h):
    """Components a of genus g and b of genus h meeting in two nodes
    (delta = 1)."""
    return ([(a, g), (b, h)], {a: ["x", "y"], b: ["x", "y"]},
            [[PointRef(a, s), PointRef(b, s)] for s in "xy"])


def _projective():
    node = [[PointRef("C", "x"), PointRef("C", "y")]]
    return {
        "smooth-g1": ([("C", 1)], {"C": []}, []),
        "smooth-g2": ([("C", 2)], {"C": []}, []),
        "nodal-g0": ([("C", 0)], {"C": ["x", "y"]}, node),
        "nodal-g1": ([("C", 1)], {"C": ["x", "y"]}, node),
        "two-elliptic-twice": _twice("E1", 1, "E2", 1),
        "elliptic-rational-twice": _twice("E", 1, "R", 0),
    }


def _affine():
    """One component of genus g, delta nodes and r removed points."""
    shapes = {}
    for g in (0, 1):
        for r in (1, 2, 3):
            for d in (0, 1):
                nodes = [[PointRef("C", f"n{i}a"), PointRef("C", f"n{i}b")]
                         for i in range(d)]
                removed = [PointRef("C", f"r{i}") for i in range(r)]
                labels = ([f"n{i}{s}" for i in range(d) for s in "ab"]
                          + [f"r{i}" for i in range(r)])
                shapes[f"g{g}-r{r}-delta{d}"] = (
                    [("C", g)], {"C": labels}, nodes, removed)
    return shapes


def _verdict(mode, group, p, config):
    """The verdict `realizable --mode MODE --char p` gives."""
    return getattr(realizability, f"{mode}_realizable")(group, p, config)


def table() -> list:
    """The lines of the verdict table: for each p, the projective
    configurations, then the affine shapes in the affine and then the tame
    mode, each over the catalog groups in catalog order."""
    groups = list(catalog_groups(24))
    cases = [(name, "projective", shape)
             for name, shape in _projective().items()]
    cases += [(name, mode, shape) for mode in ("affine", "tame")
              for name, shape in _affine().items()]
    lines = []
    for p in PRIMES:
        for name, mode, shape in cases:
            config = CurveConfiguration.build(p, *shape)
            for group_name, group in groups:
                v = _verdict(mode, group, p, config)
                evidence = json.dumps(v.evidence, sort_keys=True)
                lines.append("\t".join((str(p), name, mode, group_name,
                                        v.verdict, v.rule, evidence)))
    return lines


def main() -> int:
    lines = table()
    VERDICTS.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
