"""Independent oracles and test-only helpers for the test suite.

The oracles recompute an engine answer by the plainest construction at
hand, on image tuples and stabilizer chains, and avoid the engine paths
they check (the element index, its rows and span masks).
"""

import itertools
from dataclasses import dataclass

from pi1curves.curves import (CurveConfiguration, PointRef, dual_graph,
                              equivalence_classes)
from pi1curves.errors import require
from pi1curves.groups import PermutationGroup
from pi1curves.perms import Perm


def compose(a, b) -> tuple:
    """Reference a * b on image tuples, kept apart from perms.compose so
    that the oracles do not share a kernel with the code they check."""
    return tuple(a[i] for i in b)


def invert(a) -> tuple:
    """Reference inverse of an image tuple, through a dict."""
    preimage = {x: i for i, x in enumerate(a)}
    return tuple(preimage[i] for i in range(len(a)))


def subgroup_generated(group, perms) -> PermutationGroup:
    """<perms> as a subgroup of the symmetric group of group.degree."""
    return PermutationGroup.from_generators(list(perms), group.degree)


def count_generating_tuples(group, k: int) -> int:
    """Independent oracle for phi_k(G): plain exhaustive enumeration."""
    order = group.order()
    require(order ** k <= 10 ** 7, "GROUP_TOO_LARGE",
            f"|G|^k = {order ** k} too large")
    elements = group.elements()
    return sum(1 for tup in itertools.product(elements, repeat=k)
               if subgroup_generated(group, tup).order() == order)


def conjugate(group, t):
    """t * group * t^-1, its generators composed on image tuples."""
    t, t_inv = t.images, invert(t.images)
    return PermutationGroup.from_generators(
        [Perm.trusted(compose(compose(t, g.images), t_inv))
         for g in group.generators], group.degree)


def _closure(generators, identity) -> frozenset:
    """The group that image tuples generate, composed here."""
    found, frontier = {identity}, [identity]
    while frontier:
        products = {compose(g, x) for x in frontier for g in generators}
        frontier = list(products - found)
        found |= products
    return frozenset(found)


def perm_closure(degree, gens) -> set:
    """The group that the Perms gens generate, closed under Perm
    products: an oracle for group.span."""
    identity = Perm.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [y for y in {g * x for x in frontier for g in gens}
                    if y not in seen]
        seen.update(frontier)
    return seen


def subgroup_lattice_by_closure(group) -> list:
    """Independent oracle for subgroup_lattice: every subgroup as a
    frozenset of image tuples, sorted by order and then by its sorted
    elements.  It starts from {1} and adjoins each element outside a
    subgroup found to that subgroup's generators, closing by composition;
    every subgroup is reached, one generator at a time."""
    labels = [x.images for x in group.elements()]
    found = {frozenset(labels[:1]): ()}  # subgroup -> its generators
    queue = list(found)
    for sub in queue:  # the queue grows as we go
        for g in labels:
            if g in sub:
                continue
            gens = found[sub] + (g,)
            join = _closure(gens, labels[0])
            if join not in found:
                found[join] = gens
                queue.append(join)
    return sorted(found, key=lambda sub: (len(sub), sorted(sub)))


# group -> {label: [number of label * x for x in G]}; one entry per group
# the tests build a cover on, each at most |G|^2 ints
_TABLES: dict = {}


def affine_curve(p: int, g: int, r: int, delta: int) -> CurveConfiguration:
    """One component C of genus g with delta nodes and r removed points."""
    nodes = [[PointRef("C", f"n{i}a"), PointRef("C", f"n{i}b")]
             for i in range(delta)]
    removed = [PointRef("C", f"r{i}") for i in range(r)]
    labels = ([f"n{i}{s}" for i in range(delta) for s in "ab"]
              + [f"r{i}" for i in range(r)])
    return CurveConfiguration.build(p, [("C", g)], {"C": labels}, nodes,
                                    removed)


def betti_number(config) -> int:
    """Reference for delta: the first Betti number edges - vertices +
    parts of the dual graph, the parts counted by union-find."""
    vertices, edges = dual_graph(config)
    parts = equivalence_classes([*((v, v) for v in vertices), *edges])
    return len(edges) - len(vertices) + len(parts)


def _left_table(group) -> dict:
    """Left multiplication on the labels of group (its image tuples, in
    elements() order), multiplied here rather than read off the engine."""
    table = _TABLES.get(group)
    if table is None:
        labels = [x.images for x in group.elements()]
        number = {x: i for i, x in enumerate(labels)}
        table = _TABLES[group] = {
            g: [number[compose(g, x)] for x in labels]
            for g in labels}
    return table


def sheet_graph_connected(cover) -> bool:
    """Whether a cover is connected, by union-find over its points.

    The points over a component C are the pairs (C, x) for the labels x in
    G.  Every monodromy generator h of C joins (C, x) with (C, h*x), so the
    classes over C are its sheets, the cosets H*x; every gluing joins the
    label x over its base branch with its image over the branch, c*x for a
    constant c.  The cover is connected iff one class is left.
    """
    table = _left_table(cover.group)
    n = len(table)
    offset = {comp.id: k * n for k, comp in enumerate(cover.base.components)}
    parent = list(range(n * len(offset)))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def join(a, b, images):  # (a + i) ~ (b + images[i])
        for i, j in enumerate(images):
            parent[find(a + i)] = find(b + j)

    for comp in cover.base.components:
        for h in cover.monodromy_of(comp.id).generators:
            join(offset[comp.id], offset[comp.id], table[h.images])
    for ci, cls in enumerate(cover.base.identification_classes):
        for branch in cls[1:]:
            gluing = cover.gluings[ci][branch]
            if gluing.constant is None:
                number = {x: i for i, x in enumerate(table)}
                image = {a.images: b.images for a, b in gluing.mapping}
                images = [number[image[x]] for x in table]
            else:
                images = table[gluing.constant.images]
            join(offset[cls[0].component_id],
                 offset[branch.component_id], images)
    return len({find(v) for v in range(len(parent))}) == 1


@dataclass(frozen=True)
class TorsorLabeling:
    fiber: tuple
    base_point: object
    to_group: dict    # fiber point -> Perm, base -> identity
    from_group: dict  # inverse map


def torsor_labeling(group, fiber, action, base_point) -> TorsorLabeling:
    """The bijection of a simply transitive action with G itself.

    action(g, s) applies g in G to a fiber point s.  The label of s is the
    unique g with action(g, s) == base_point; the base point gets the
    identity.
    """
    fiber = tuple(fiber)
    require(base_point in fiber, "NOT_SIMPLY_TRANSITIVE",
            "base point not in the fiber")
    elements = group.elements()
    require(len(fiber) == len(set(fiber)) == len(elements),
            "NOT_SIMPLY_TRANSITIVE",
            f"fiber size {len(fiber)} != |G| = {len(elements)}")
    to_group = {}
    for s in fiber:
        labels = [g for g in elements if action(g, s) == base_point]
        require(len(labels) == 1, "NOT_SIMPLY_TRANSITIVE",
                f"{len(labels)} group elements move {s!r} to the base point")
        to_group[s] = labels[0]
    from_group = {g: s for s, g in to_group.items()}
    require(len(from_group) == len(elements), "NOT_SIMPLY_TRANSITIVE",
            "labels are not distinct")
    return TorsorLabeling(fiber, base_point, to_group, from_group)
