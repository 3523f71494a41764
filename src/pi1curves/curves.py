"""Combinatorial model of seminormal curves over their normalizations.

A configuration records the irreducible components of the normalization
(each reduced to its genus and p-rank), the marked points on them, the
identification classes (reduced fibers over the singular points), and an
optional set of removed smooth points (the affine case).  The dual graph
lives here, and `rank_report` is the one home of delta and the rank
bounds of the structure theorems.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, fields, require, typed
from .groups import MAX_CHARACTERISTIC, is_prime


class PointRef(NamedTuple):
    """A marked point; a tuple, so it hashes, compares and sorts in C."""
    component_id: str
    point_label: str

    def to_json(self):
        return [self.component_id, self.point_label]

    @staticmethod
    def from_json(data) -> "PointRef":
        if (not isinstance(data, (list, tuple)) or len(data) != 2
                or not all(isinstance(x, str) for x in data)):
            raise DomainError("BAD_CONFIG_FILE", f"bad point reference {data!r}")
        return PointRef(data[0], data[1])


class ComponentData(NamedTuple):
    id: str
    genus: int = 0
    p_rank: int | None = None  # defaults to the genus

    @property
    def effective_p_rank(self) -> int:
        return self.genus if self.p_rank is None else self.p_rank


class CurveConfiguration(namedtuple(
        "CurveConfiguration", ["characteristic", "components", "points",
                               "identification_classes", "removed_points"],
        defaults=[frozenset()])):
    """characteristic; components, a tuple of ComponentData; points, a
    dict from component id to its tuple of point labels;
    identification_classes, a tuple of classes, each the sorted tuple of
    its PointRef members, whose first member cls[0] is its base branch;
    removed_points, a frozenset of PointRef.  No __slots__: the instance
    dict holds the cached properties, and _replace builds an object with
    none cached."""

    @staticmethod
    def build(characteristic, components, points, classes, removed=()):
        comps = tuple(c if isinstance(c, ComponentData) else ComponentData(*c)
                      for c in components)
        return CurveConfiguration(
            characteristic,
            comps,
            {c: tuple(labels) for c, labels in points.items()},
            tuple(tuple(sorted(m)) for m in classes),
            frozenset(removed))

    def component_ids(self):
        return [c.id for c in self.components]

    def has_point(self, ref: PointRef) -> bool:
        return ref.point_label in self.points.get(ref.component_id, ())

    @cached_property
    def _violations(self) -> tuple:
        """The violations of the invariants, scanned once per object."""
        return tuple(_scan_violations(self))

    @cached_property
    def _connected(self) -> bool:
        """Whether the dual graph is connected, decided once per object:
        INVALID_CONFIG on an invalid configuration, else whether the BFS
        spanning_tree reaches every component, i.e. has n - 1 edges."""
        require_valid(self)
        return len(self.spanning_tree[0]) == len(self.components) - 1

    @cached_property
    def spanning_tree(self) -> tuple:
        """BFS spanning tree of the dual graph from the smallest component
        id, built once per object: (tree edges in BFS order, non-tree
        edges) as tuples of (class index, branch) pairs in class order;
        self-loop edges are never tree edges."""
        classes = self.identification_classes
        edges = [(ci, branch) for ci, cls in enumerate(classes)
                 for branch in cls[1:]]
        adjacency: dict = {c.id: [] for c in self.components}
        for ci, branch in edges:  # in (class index, branch) order
            a, b = classes[ci][0].component_id, branch.component_id
            if a != b:
                adjacency[a].append(((ci, branch), b))
                adjacency[b].append(((ci, branch), a))
        tree = []
        queue = [min(adjacency)]
        visited = set(queue)
        for node in queue:  # breadth first: the queue grows as we go
            for edge, other in adjacency[node]:
                if other not in visited:
                    visited.add(other)
                    tree.append(edge)
                    queue.append(other)
        tree_set = set(tree)
        return tuple(tree), tuple(e for e in edges if e not in tree_set)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "components": [
                {"id": c.id, "genus": c.genus,
                 **({} if c.p_rank is None else {"p_rank": c.p_rank})}
                for c in self.components],
            "points": {c: list(labels) for c, labels in self.points.items()},
            "identifications": [[p.to_json() for p in cls]
                                for cls in self.identification_classes],
            "removed": [p.to_json() for p in sorted(self.removed_points)],
        }

    @staticmethod
    def from_json(data) -> "CurveConfiguration":
        code = "BAD_CONFIG_FILE"
        fields(data, "configuration", code, ("components",),
               ("characteristic", "points", "identifications", "removed"))
        components = []
        for c in typed(data["components"], list, "components", code):
            fields(c, "component", code, ("id",), ("genus", "p_rank"))
            p_rank = c.get("p_rank")
            components.append(ComponentData(
                typed(c["id"], str, "component id", code),
                typed(c.get("genus", 0), int, "genus", code),
                None if p_rank is None else typed(p_rank, int, "p_rank", code)))
        points = typed(data.get("points", {}), dict, "points", code)
        for labels in points.values():
            for label in typed(labels, list, "point labels", code):
                typed(label, str, "point label", code)
        classes = [[PointRef.from_json(p)
                    for p in typed(cls, list, "identification class", code)]
                   for cls in typed(data.get("identifications", []), list,
                                    "identifications", code)]
        removed = [PointRef.from_json(p) for p in
                   typed(data.get("removed", []), list, "removed", code)]
        return CurveConfiguration.build(
            typed(data.get("characteristic", 0), int, "characteristic", code),
            components, points, classes, removed)


def equivalence_classes(pairs) -> list:
    """The classes of the equivalence relation that the pairs generate on
    their members, by union-find with path halving on the members: lists
    of members in first-seen order, ordered by their first-seen member."""
    parent: dict = {}  # in first-seen order

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    classes: dict = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


# -- operations -------------------------------------------------------------

def validate(config: CurveConfiguration) -> list:
    """All invariant violations as (code, detail) pairs; [] when valid."""
    return list(config._violations)


def _scan_violations(config: CurveConfiguration) -> list:
    violations = []
    if not config.components:
        violations.append(("NO_COMPONENTS", "at least one component required"))
    ids = [c.id for c in config.components]
    if len(set(ids)) != len(ids):
        violations.append(("DUPLICATE_COMPONENT", f"component ids {ids}"))
    if config.characteristic > MAX_CHARACTERISTIC:
        violations.append(("BAD_CHARACTERISTIC", f"{config.characteristic} "
                           f"exceeds {MAX_CHARACTERISTIC}"))
    elif config.characteristic != 0 and not is_prime(config.characteristic):
        violations.append(("BAD_CHARACTERISTIC",
                           f"{config.characteristic} is not prime or 0"))
    for comp in config.components:
        if comp.genus < 0:
            violations.append(("NEGATIVE_GENUS", comp.id))
        if comp.p_rank is not None and not 0 <= comp.p_rank <= comp.genus:
            violations.append(("BAD_P_RANK",
                               f"{comp.id}: s = {comp.p_rank}, g = {comp.genus}"))
    for comp_id, labels in config.points.items():
        if comp_id not in ids:
            violations.append(("POINT_NOT_FOUND", f"component {comp_id!r}"))
        if len(set(labels)) != len(labels):
            violations.append(("DUPLICATE_POINT", f"{comp_id}: {labels}"))
    seen: dict = {}
    for i, cls in enumerate(config.identification_classes):
        if len(cls) < 2:
            violations.append(("CLASS_TOO_SMALL", f"class {i} has {len(cls)} point(s)"))
        if len(set(cls)) != len(cls):
            violations.append(("CLASS_TOO_SMALL", f"class {i} repeats a point"))
        for ref in cls:
            if not config.has_point(ref):
                violations.append(("POINT_NOT_FOUND", f"class {i}: {ref}"))
            if ref in seen and seen[ref] != i:
                violations.append(("CLASSES_OVERLAP",
                                   f"{ref} in classes {seen[ref]} and {i}"))
            seen[ref] = i
            if ref in config.removed_points:
                violations.append(("OVERLAP_WITH_REMOVED", str(ref)))
    for ref in config.removed_points:
        if not config.has_point(ref):
            violations.append(("POINT_NOT_FOUND", f"removed: {ref}"))
    return violations


def require_valid(config: CurveConfiguration) -> None:
    violations = validate(config)
    require(not violations, "INVALID_CONFIG", repr(violations))


def dual_graph(config: CurveConfiguration) -> tuple:
    """(component ids, edges), the edges in class order: a class of m
    members gives m - 1 edges (component id, component id) from its base
    branch to each other member, so edges may repeat or be loops."""
    require_valid(config)
    edges = tuple((cls[0].component_id, other.component_id)
                  for cls in config.identification_classes
                  for other in cls[1:])
    return tuple(config.component_ids()), edges


def is_connected(config: CurveConfiguration) -> bool:
    return config._connected


def require_projective(config: CurveConfiguration) -> None:
    """The guard of every projective invariant: a valid configuration
    with no removed points (NOT_PROJECTIVE) and a connected dual graph
    (NOT_CONNECTED), checked in that order."""
    require_valid(config)
    require(not config.removed_points, "NOT_PROJECTIVE",
            "removed points present")
    require(is_connected(config), "NOT_CONNECTED")


def delta(config: CurveConfiguration) -> int:
    """δ = 1 - n + Σ (|class| - 1), the dual graph's Betti number."""
    require_projective(config)
    return rank_report(config).delta


def affine_delta(config: CurveConfiguration) -> int:
    """δ for the affine theorem: Σ (|fiber| - 1) over the singular points."""
    require_valid(config)
    return sum(len(cls) - 1 for cls in config.identification_classes)


class RankReport(NamedTuple):
    delta: int
    pi1_rank_bound: int
    pro_p_rank: int
    affine_delta: int
    tame_rank: int | None  # only when n = 1 and removed points exist

    def to_json(self) -> dict:
        out = {"delta": self.delta, "pi1_rank_bound": self.pi1_rank_bound,
               "pro_p_rank": self.pro_p_rank, "affine_delta": self.affine_delta}
        if self.tame_rank is not None:
            out["tame_rank"] = self.tame_rank
        return out


def rank_report(config: CurveConfiguration) -> RankReport:
    """The ranks read off a configuration, computed only here: δ, the π₁
    rank bound Σ 2g_i + δ, the pro-p rank Σ s_i + δ, the affine δ, and the
    tame rank 2g + r - 1 + affine δ of one component with r removed points."""
    require_valid(config)
    require(is_connected(config), "NOT_CONNECTED")
    comps, removed = config.components, config.removed_points
    d_aff = affine_delta(config)
    d = 1 - len(comps) + d_aff
    return RankReport(
        delta=d,
        pi1_rank_bound=sum(2 * c.genus for c in comps) + d,
        pro_p_rank=sum(c.effective_p_rank for c in comps) + d,
        affine_delta=d_aff,
        tame_rank=(2 * comps[0].genus + len(removed) - 1 + d_aff
                   if len(comps) == 1 and removed else None))


def require_marked(config: CurveConfiguration, ref: PointRef) -> None:
    """A marked point of config that is not removed: POINT_NOT_FOUND,
    then OVERLAP_WITH_REMOVED."""
    if not config.has_point(ref):
        raise DomainError("POINT_NOT_FOUND", str(ref))
    if ref in config.removed_points:
        raise DomainError("OVERLAP_WITH_REMOVED", str(ref))


def identify(config: CurveConfiguration, relation) -> CurveConfiguration:
    """Merge the given sets of points into identification classes.

    Each set must contain existing marked points; a point already inside a
    class drags the whole class into the merge.  Untouched classes keep
    their order; merged/new classes are appended in first-touch order.
    """
    require_valid(config)
    relation = [list(s) for s in relation]
    for merge_set in relation:
        if len(merge_set) < 2:
            raise DomainError("CLASS_TOO_SMALL",
                              f"merge set {merge_set} has fewer than 2 points")
        for ref in merge_set:
            require_marked(config, ref)

    classes = equivalence_classes(
        (s[0], ref) for s in [*config.identification_classes, *relation]
        for ref in s[1:])
    class_of = {ref: i for i, members in enumerate(classes) for ref in members}
    touched = dict.fromkeys(class_of[s[0]] for s in relation)  # in order
    untouched = tuple(cls for cls in config.identification_classes
                      if class_of[cls[0]] not in touched)
    merged = tuple(tuple(sorted(classes[i])) for i in touched)
    return config._replace(identification_classes=untouched + merged)


class IdentificationStep(NamedTuple):
    first: PointRef
    second: PointRef
    same_component: bool  # of the intermediate curve, before this step


def strip_identifications(config: CurveConfiguration) -> CurveConfiguration:
    """The disjoint normalization: same components/points, no classes."""
    return config._replace(identification_classes=())


def factorize(config: CurveConfiguration):
    """Elementary pairwise identifications whose replay rebuilds config.

    Steps are ordered class-by-class (input order), within a class by
    point order.  A step is same-component when its two points already lie
    in one connected part, tracked as a part label per component that
    each step merges; the number of same-component steps equals delta.
    """
    require_projective(config)
    steps = []
    part = {c: c for c in config.component_ids()}  # component -> its part
    for cls in config.identification_classes:
        root = cls[0]
        for other in cls[1:]:
            a, b = part[root.component_id], part[other.component_id]
            steps.append(IdentificationStep(root, other, a == b))
            part = {c: a if p == b else p for c, p in part.items()}
    return steps


def replay(config: CurveConfiguration, steps) -> CurveConfiguration:
    current = strip_identifications(config)
    for step in steps:
        current = identify(current, [{step.first, step.second}])
    return current
