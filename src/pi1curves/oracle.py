"""Brute-force cross-checks for the structure theorems.

Over a projective configuration whose components are all rational, a
connected G-cover is (after tree normalization) exactly a choice of one
gluing constant per non-tree edge of the dual graph such that the
constants generate G: the paper's theorem at genus 0, pi_1 = F_delta.
Enumerating those tuples therefore counts generating tuples, and the
count must equal the Eulerian function phi_delta(G).  This module does
the enumeration, keeping the tuples whose span is all of G, so the
independent check on the count is the Moebius-inversion eulerian; it
also rebuilds every enumerated cover through descent, compares it with
direct gluing, and has descent refuse one partition that is not Galois.

Both loops run on element positions: the tuples are
itertools.product(range(|G|), repeat=delta), in the order of the product
of the elements.  The enumeration spans each <x> once and keys a tuple
by the union of its <x_i>, which generates what the tuple does, so one
group.span decides every tuple with that union.  The descent check
builds one validated template, build_descriptor(config, group), and each
element's Gluing once, and swaps the free-edge gluings into a copy of
the template's (_descriptor_for); it prepares one covers.descent over
the base relation, and builds each branch's column of (branch, label)
pairs once, each free branch's under each constant (_induced_relations),
so a tuple's cover relation is a zip of columns.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .catalog import catalog_groups
from .covers import Gluing, build_descriptor, descent, spanning_tree
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


def _descriptor_for(template, free_edges, positions, gluing_of):
    """The template (build_descriptor(config, group): the identity on every
    branch) with gluing_of[i], the Gluing of element i, on the free edge
    of each position i."""
    gluings = {ci: dict(branches)
               for ci, branches in template.gluings.items()}
    for (ci, branch), i in zip(free_edges, positions):
        gluings[ci][branch] = gluing_of[i]
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
    """Count connected G-covers in tree-normalized form: the tuples of
    non-tree gluing constants that generate G.

    Returns (count, witnesses) where each witness is the tuple of
    non-tree gluing constants of one connected descriptor (the group's
    own elements), in the deterministic edge order of spanning_tree(),
    the witnesses in product order.  <x_1..x_delta> is generated by
    <x_1> | ... | <x_delta>, so the first tuple with a given union of
    cyclic masks decides, by one span, every later tuple with it.
    """
    free_edges = require_enumerable(group, config)
    elements = group.elements()
    whole = (1 << len(elements)) - 1
    cyclic = [group.span((i,)) for i in range(len(elements))]
    spans_whole: dict = {}  # union of the <x_i> -> whether it spans G
    witnesses = []
    for positions in itertools.product(range(len(elements)),
                                       repeat=len(free_edges)):
        union = 0
        for i in positions:
            union |= cyclic[i]
        spans = spans_whole.get(union)
        if spans is None:
            spans = spans_whole[union] = group.span(positions) == whole
        if spans:
            witnesses.append(compose(elements, positions))
    return len(witnesses), witnesses


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
                if self.witness is not None else None}


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


def _induced_relations(config, group, free_edges):
    """The base relation that rebuilds config's classes from the stripped
    configuration, and the function from a tuple of positions (the
    constants on free_edges, the identity on every tree edge, as in
    _descriptor_for) to the cover relation.  Each branch's column of
    (branch, label) pairs, one per element, is built once, and each free
    branch's column under each constant c, the column read through the
    left row of c; the n cover classes over a class zip its columns."""
    elements = group.elements()
    rows = [group.left_row(c) for c in range(len(elements))]
    free = {edge: k for k, edge in enumerate(free_edges)}
    base_rel = [set(cls) for cls in config.identification_classes]
    plan = []  # per class: (None, column) or (k, column under each constant)
    for ci, cls in enumerate(config.identification_classes):
        parts = []
        for branch in cls:
            column = [(branch, x) for x in elements]
            k = free.get((ci, branch))
            parts.append((None, column) if k is None else
                         (k, [compose(column, row) for row in rows]))
        plan.append(parts)

    def cover_relation(positions):
        cover_rel = []
        for parts in plan:
            cover_rel.extend(zip(*[column if k is None
                                   else column[positions[k]]
                                   for k, column in parts]))
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
    an equal one is Galois); also verify that a partition that is not
    Galois is refused with ACTION_NOT_EQUIVARIANT."""
    free_edges = require_enumerable(group, config)
    base_rel, cover_relation = _induced_relations(config, group, free_edges)
    descend = descent(build_descriptor(strip_identifications(config), group),
                      base_rel)
    template = build_descriptor(config, group)
    elements = group.elements()
    gluing_of = [Gluing(c) for c in elements]

    checked, mismatches, rejected = 0, [], 0
    for positions in itertools.product(range(len(elements)),
                                       repeat=len(free_edges)):
        direct = _descriptor_for(template, free_edges, positions, gluing_of)
        checked += 1
        if descend(cover_relation(positions)) != direct:
            mismatches.append([elements[i].to_one_indexed()
                               for i in positions])

    # negative control: the all-identity relation with the branch points of
    # the classes through base labels 1 and 2 of the first class swapped, a
    # partition whose row is no left translation (ACTION_NOT_EQUIVARIANT)
    if len(elements) > 2:
        corrupted = cover_relation((0,) * len(free_edges))
        (root1, branch1, *rest1), (root2, branch2, *rest2) = corrupted[1:3]
        corrupted[1:3] = (root1, branch2, *rest1), (root2, branch1, *rest2)
        try:
            descend(corrupted)
        except DomainError as exc:
            rejected += exc.code == "ACTION_NOT_EQUIVARIANT"
    else:
        rejected += 1  # order <= 2: every bijection of G is a translation
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
