"""Brute-force cross-checks for the structure theorems.

Over a projective configuration whose components are all rational, a
connected G-cover is (after tree normalization) exactly a choice of one
gluing constant per non-tree edge of the dual graph such that the
constants generate G.  Enumerating those tuples therefore counts
generating tuples, and the count must equal the Eulerian function
phi_delta(G).  This module does the enumeration, deciding connectivity
with covers.is_connected (a span of the monodromy and non-tree gluing
constants, the same criterion), so the independent check on the count is
the Moebius-inversion eulerian; it also rebuilds every enumerated cover
through the descent construction and compares it with direct gluing.

Both loops redo per tuple only what depends on the tuple.  Each builds
one validated template, build_descriptor(config, group), and swaps the
free-edge constants into a copy of its gluings (_descriptor_for); the
descent check prepares one covers.descent over the base relation, which
checks the base points and builds the joined base once, builds each
branch's column of (branch, label) pairs once, and reads each tuple's
cover classes through the gluing rows (_induced_relations).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .catalog import catalog_groups
from .covers import (Gluing, build_descriptor, descent,
                     is_connected as cover_connected, spanning_tree)
from .curves import (CurveConfiguration, PointRef, delta,
                     require_projective, strip_identifications)
from .errors import DomainError, require
from .groups import ENUM_BOUND, PermutationGroup
from .perms import compose

ENUMERATION_BOUND = 10 ** 7


def _check_rational(config):
    require_projective(config)
    bad = [c.id for c in config.components if c.genus != 0]
    require(not bad, "GENUS_NONZERO",
            f"components of positive genus: {bad}")


def _descriptor_for(template, free_edges, constants):
    """The template (build_descriptor(config, group): the identity on every
    branch) with these constants on the free edges."""
    gluings = {ci: dict(branches)
               for ci, branches in template.gluings.items()}
    for (ci, branch), c in zip(free_edges, constants):
        gluings[ci][branch] = Gluing(c)
    return template._replace(gluings=gluings)


def require_enumerable(group: PermutationGroup,
                       config: CurveConfiguration):
    """The checks enumerate_connected_covers and cross_check_descent run
    before they enumerate: a projective configuration of rational
    components, and |G|^delta tuples within the bound (TOO_LARGE) over a
    group small enough to list (GROUP_TOO_LARGE).  |G| is the listing's;
    only a group too large to list builds a chain for it.  Returns the
    non-tree edges of spanning_tree()."""
    _check_rational(config)
    _, free_edges = spanning_tree(config)
    d = len(free_edges)
    require(d == delta(config), "INTERNAL_INVARIANT",
            "non-tree edge count differs from delta")
    group.order_at_most(ENUM_BOUND)  # then order() is the listing's
    order = group.order()
    require(order ** d <= ENUMERATION_BOUND, "TOO_LARGE",
            f"|G|^delta = {order}^{d} exceeds the enumeration bound")
    group.elements()  # GROUP_TOO_LARGE above ENUM_BOUND
    return free_edges


def enumerate_connected_covers(group: PermutationGroup,
                               config: CurveConfiguration):
    """Count connected G-covers in tree-normalized form.

    Returns (count, witnesses) where each witness is the tuple of
    non-tree gluing constants of one connected descriptor, in the
    deterministic edge order of spanning_tree().
    """
    free_edges = require_enumerable(group, config)
    template = build_descriptor(config, group)
    count = 0
    witnesses = []
    for constants in itertools.product(group.elements(),
                                       repeat=len(free_edges)):
        descriptor = _descriptor_for(template, free_edges, constants)
        if cover_connected(descriptor):
            count += 1
            witnesses.append(constants)
    return count, witnesses


class CensusEntry(NamedTuple):
    name: str
    order: int
    realizable: bool
    count: int
    witness: tuple | None  # constants of one connected cover, or None

    def to_json(self):
        return {"group": self.name, "order": self.order,
                "realizable": self.realizable, "count": self.count,
                "witness": [c.to_one_indexed() for c in self.witness]
                if self.witness else None}


def quotient_census(config: CurveConfiguration, max_order: int):
    """Which catalog groups of order <= max_order occur as etale Galois
    groups over the configuration, each with an enumeration witness."""
    _check_rational(config)
    entries = []
    for name, group in catalog_groups(max_order):
        count, witnesses = enumerate_connected_covers(group, config)
        entries.append(CensusEntry(name, group.order(), count > 0, count,
                                   witnesses[0] if witnesses else None))
    return entries


def census_report(entries) -> str:
    lines = ["group          order  count  realizable"]
    for e in entries:
        lines.append(f"{e.name:<14} {e.order:>5}  {e.count:>5}  "
                     f"{'yes' if e.realizable else 'no'}")
    return "\n".join(lines) + "\n"


def _induced_relations(config, group):
    """The base relation that rebuilds config's classes from the stripped
    configuration, and the function from per-branch constants already
    stored in a descriptor built on config to the cover relation.  Each
    branch's column of (branch, label) pairs, one per element, is built
    once; the n cover classes over a class zip the base branch's column
    with each other branch's column read through its gluing row."""
    elements = group.elements()
    base_rel = [set(cls) for cls in config.identification_classes]
    columns = [{branch: [(branch, x) for x in elements]
                for branch in cls}
               for cls in config.identification_classes]

    def cover_relation(gluings):
        cover_rel = []
        for ci, cls in enumerate(config.identification_classes):
            column = columns[ci]
            cover_rel.extend(zip(column[cls[0]], *(
                compose(column[branch], gluings[ci][branch].row(group))
                for branch in cls[1:])))
        return cover_rel

    return base_rel, cover_relation


class DescentReport(NamedTuple):
    checked: int
    mismatches: tuple
    negative_controls_rejected: int

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_check_descent(group: PermutationGroup,
                        config: CurveConfiguration) -> DescentReport:
    """Rebuild every enumerated cover through one prepared descent() and
    require descriptor equality with the direct gluing path (equal descriptors
    are equally connected, and the direct one's gluings are constants, so
    an equal one is Galois); also verify that a corrupted cover relation
    is rejected."""
    free_edges = require_enumerable(group, config)
    base_rel, cover_relation = _induced_relations(config, group)
    descend = descent(build_descriptor(strip_identifications(config), group),
                      base_rel)
    template = build_descriptor(config, group)
    elements = group.elements()

    checked, mismatches, rejected = 0, [], 0
    for constants in itertools.product(elements, repeat=len(free_edges)):
        direct = _descriptor_for(template, free_edges, constants)
        checked += 1
        if descend(cover_relation(direct.gluings)) != direct:
            mismatches.append([c.to_one_indexed() for c in constants])

    # negative control: corrupt one cover class and expect a rejection
    if len(elements) > 2:
        a, b = elements[1], elements[2]
        cls = config.identification_classes[0]
        corrupted = []
        for pairs in cover_relation(template.gluings):
            labels = dict(pairs)
            if labels.get(cls[0]) == a:
                labels[cls[1]] = b  # the template glues by 1
            corrupted.append({(ref, x) for ref, x in labels.items()})
        try:
            descend(corrupted)
        except DomainError as exc:
            if exc.code in ("BAD_PARTITION", "ACTION_NOT_EQUIVARIANT"):
                rejected += 1
    else:
        rejected += 1  # no room to corrupt an equivariant relation
    return DescentReport(checked, tuple(mismatches), rejected)


# -- standard test configurations -------------------------------------------

def nodal_curve(p: int) -> CurveConfiguration:
    """Rational curve with one node (delta = 1)."""
    a, b = PointRef("C1", "0"), PointRef("C1", "1")
    return CurveConfiguration.build(p, [("C1", 0)], {"C1": ["0", "1"]},
                                    [[a, b]])


def two_node_curve(p: int) -> CurveConfiguration:
    """Rational curve with two nodes (delta = 2)."""
    refs = [PointRef("C1", s) for s in "0123"]
    return CurveConfiguration.build(
        p, [("C1", 0)], {"C1": ["0", "1", "2", "3"]},
        [[refs[0], refs[1]], [refs[2], refs[3]]])
