"""Galois covers of curve configurations as torsor-labeled finite data.

A cover of a configuration is stored as: the Galois group G, one
monodromy subgroup per component (the sheets over that component are the
orbits of left multiplication by the subgroup on the label set G), and
one gluing per branch in cls[1:] of every identification class cls, the
sorted tuple of its points, glued to its base branch cls[0].  Fibers
over identified points are G-torsors and the Galois action is RIGHT
multiplication on labels.  A gluing f commutes with it, f(x*g) = f(x)*g,
iff f is the LEFT translation x -> f(1)*x, and that one test
(_is_translation) decides every Galois question here.

build_descriptor stores each gluing as Gluing.of_row reads its row: a
left translation as its constant c (lambda -> c*lambda), any other
bijection of G (a cover that is not Galois; descent builds only Galois
ones) as its map base-fiber label -> branch-fiber label.
_decode is the one reader of a descriptor (a gluing that is missing or
no bijection of G is FIBER_NOT_TORSOR); is_galois tests its rows.

Every check runs on element positions (PermutationGroup.index, its
multiplication rows and span masks), not on Perm products: membership
of a label, an inertia generator or a subgroup is read off the element
index, a prepared descent decodes each cover relation into positions
(descent(cover, base_relation) does the work that depends only on the
base relation once; descend is one call of it), and connectivity is one
orbit (is_connected): by the free-product structure of pi_1, a cover,
Galois or not, is connected iff its monodromy and gluing rows, moved to
one fiber along the spanning tree, act transitively on the labels.  The
test suite checks it against union-find over the sheet graph, and the
bases that gluing and descent build against curves.identify.  Perm
stays the type of labels at the API and JSON boundary.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .catalog import catalog_group, group_from_json, group_to_json
from .curves import (CurveConfiguration, PointRef, dual_graph,
                     is_connected as config_connected, require_marked,
                     require_valid)
from .errors import DomainError, fields, require, typed
from .groups import PermutationGroup, orbit, subgroup_positions
from .perms import Perm, compose, invert


# -- gluings ----------------------------------------------------------------

class Gluing(NamedTuple):
    """Identification of the branch fiber with the base fiber of a class.

    constant is set for left translations (base label x -> branch label
    constant*x); otherwise mapping holds an arbitrary bijection G -> G.
    """
    constant: Perm | None = None
    mapping: tuple | None = None  # sorted tuple of (label, image) pairs

    @staticmethod
    def of_row(row, group: PermutationGroup) -> "Gluing":
        """Build from a bijection of element positions (row[i] is the
        position of the image of element i)."""
        row = tuple(row)
        elements = group.elements()
        if _is_translation(group, row):
            return Gluing(constant=elements[row[0]])
        return Gluing(mapping=tuple((elements[i], elements[j])
                                    for i, j in enumerate(row)))

    def row(self, group: PermutationGroup):
        """The gluing on element positions, or None when it is not a
        bijection of G (a label outside G, or neither field is set)."""
        index = group.index()
        if self.constant is not None:
            c = index.get(self.constant.images)
            return None if c is None else group.left_row(c)
        return _bijection_row(self.mapping or (), index)


def _bijection_row(items, index):
    """Positions of the images of a label map given as (label, image)
    items, or None unless they are |G| items that biject G, each once."""
    row = [None] * len(index)
    for a, b in items:
        i, j = index.get(a.images), index.get(b.images)
        if i is None or j is None or row[i] is not None:
            return None
        row[i] = j
    if None in row or len(set(row)) != len(row):
        return None
    return tuple(row)


def _is_translation(group: PermutationGroup, row: tuple) -> bool:
    """Whether a bijection of element positions commutes with the right
    action.  f(x*g) = f(x)*g for all x, g forces f(x) = f(1)*x, so this
    holds iff row is the left row of f(1) (position 0 is the identity)."""
    return row == group.left_row(row[0])


class CoverDescriptor(NamedTuple):
    base: CurveConfiguration
    group: PermutationGroup
    monodromy: dict            # component id -> PermutationGroup (subgroup of G)
    gluings: dict              # class index -> {branch PointRef: Gluing}
    # PointRef -> tuple of Perm; the default is empty and read-only
    ramification: dict = MappingProxyType({})

    def monodromy_of(self, component_id: str) -> PermutationGroup:
        return (self.monodromy.get(component_id)  # a group is truthy
                or PermutationGroup.trivial(self.group.degree))


def build_descriptor(config, group, monodromy=None, gluings=None,
                     ramification=None) -> CoverDescriptor:
    """Validating constructor.

    Monodromy defaults to trivial on every component; gluings default to
    identity constants on every non-base branch.  A genus-0 component may
    only carry nontrivial monodromy when a ramification annotation on one
    of its points licenses it (ETALE_GENUS_ZERO otherwise).  Each gluing (a
    Perm, a constant or a mapping) is read by its row and stored as
    Gluing.of_row gives it: a left translation as its constant.
    """
    require_valid(config)
    index = group.index()  # GROUP_TOO_LARGE above ENUM_BOUND
    monodromy = dict(monodromy or {})
    ramification = dict(ramification or {})
    # messages are formatted only on failure: Perm and PointRef reprs are
    # costly on the enumeration paths
    for comp_id, sub in monodromy.items():
        if comp_id not in config.component_ids():
            raise DomainError("POINT_NOT_FOUND", f"no component {comp_id!r}")
        if subgroup_positions(group, sub) is None:
            raise DomainError("NOT_A_MEMBER",
                              f"monodromy over {comp_id} is not a subgroup of G")
    for ref, perms in ramification.items():
        if not config.has_point(ref):
            raise DomainError("POINT_NOT_FOUND", str(ref))
        for p in perms:
            if p.images not in index:
                raise DomainError("NOT_A_MEMBER", f"inertia generator {p}")
    for comp in config.components:
        sub = monodromy.get(comp.id)  # generators: the nontrivial ones
        if comp.genus == 0 and sub is not None and sub.generators:
            licensed = any(ref.component_id == comp.id for ref in ramification)
            if not licensed:
                raise DomainError(
                    "ETALE_GENUS_ZERO",
                    f"component {comp.id} has genus 0 and no ramification")
    full, identity = {}, Perm.identity(group.degree)
    given = {ci: dict(branches) for ci, branches in (gluings or {}).items()}
    for ci, cls in enumerate(config.identification_classes):
        branches = given.pop(ci, {})
        unknown = set(branches) - set(cls[1:])
        if unknown:
            raise DomainError("POINT_NOT_FOUND",
                              f"gluing branches {unknown} not in class {ci}")
        full[ci] = {}
        for branch in cls[1:]:
            g = branches.get(branch, identity)
            g = Gluing(g) if isinstance(g, Perm) else g
            row = g.row(group)
            if row is None and g.constant is not None:
                raise DomainError("NOT_A_MEMBER",
                                  f"gluing constant {g.constant} not in G")
            require(row is not None, "FIBER_NOT_TORSOR",
                    "gluing is not a bijection of the fibers")
            full[ci][branch] = Gluing.of_row(row, group)
    if given:
        raise DomainError("POINT_NOT_FOUND",
                          f"gluings for unknown class indices {sorted(given)}")
    return CoverDescriptor(config, group, monodromy, full, ramification)


# -- verdicts ---------------------------------------------------------------

def _decode(cover: CoverDescriptor):
    """The cover on element positions: (the positions of each component's
    monodromy generators, in component order; (class index, branch,
    Gluing.row) for each gluing, in class order).  Raises NOT_A_MEMBER,
    then FIBER_NOT_TORSOR."""
    group = cover.group
    monodromy = [subgroup_positions(group, cover.monodromy_of(comp.id))
                 for comp in cover.base.components]
    require(None not in monodromy, "NOT_A_MEMBER",
            "monodromy is not a subgroup of G")
    gluings = []
    for ci, cls in enumerate(cover.base.identification_classes):
        branches = cover.gluings.get(ci, {})
        for branch in cls[1:]:
            gluing = branches.get(branch)  # a missing gluing is no bijection
            row = gluing.row(group) if gluing else None
            if row is None:
                raise DomainError(
                    "FIBER_NOT_TORSOR",
                    f"gluing at {branch} is not a bijection of G")
            gluings.append((ci, branch, row))
    return monodromy, gluings


def is_connected(cover: CoverDescriptor) -> bool:
    """Whether the cover is connected: by the free-product structure of
    pi_1, whether the monodromy and the gluings, moved to one fiber along
    the spanning tree (_transport), act transitively on its labels; a
    disconnected base gives False."""
    moved = _transport(cover)
    if moved is None:
        return False
    rows = [row for rows in moved[0] for row in rows]
    rows += [row for _, _, row in moved[1]]
    return orbit(rows).bit_count() == len(cover.group.index())


def _transport(cover: CoverDescriptor):
    """Relabel the fiber over each component C by a bijection s_C of
    element positions, read along the spanning tree in BFS order so that
    every tree gluing becomes the identity.  Returns (the rows s_C o h o
    s_C^-1 of each component's monodromy generators h, in component order;
    (class index, branch, s_b o f o s_a^-1) for each gluing row f from
    component a to component b, in class order), or None on a disconnected
    or empty base.  Raises as _decode does."""
    positions, gluings = _decode(cover)
    config, group = cover.base, cover.group
    monodromy = [list(map(group.left_row, hs)) for hs in positions]
    if len(monodromy) == 1:  # one component needs no tree: s = 1
        return monodromy, gluings
    if not monodromy:  # no component: no root, and nothing is connected
        return None
    ids, classes = config.component_ids(), config.identification_classes
    root = group.left_row(0)
    s = {min(ids): (root, root)}  # component id -> (s_C, s_C^-1)
    given = {(ci, branch): f for ci, branch, f in gluings}
    for ci, branch in config.spanning_tree[0]:
        a, b = classes[ci][0].component_id, branch.component_id
        f = given[ci, branch]
        f_inv = invert(f)
        if a in s:  # s_b = s_a o f^-1, so that s_b o f o s_a^-1 = 1
            s[b] = compose(s[a][0], f_inv), compose(f, s[a][1])
        else:  # s_a = s_b o f
            s[a] = compose(s[b][0], f), compose(f_inv, s[b][1])
    if len(s) < len(ids):
        return None

    def moved(row, a, b):  # s_b o row o s_a^-1
        return compose(compose(s[b][0], row), s[a][1])

    return ([[moved(h, comp, comp) for h in rows]
             for comp, rows in zip(ids, monodromy)],
            [(ci, branch, moved(f, classes[ci][0].component_id,
                                branch.component_id))
             for ci, branch, f in gluings])


def is_galois(cover: CoverDescriptor) -> bool:
    """Whether every gluing commutes with the right G-action: a left
    translation.  Raises as _decode does."""
    return all(_is_translation(cover.group, row)
               for _, _, row in _decode(cover)[1])


# -- induction and gluing ---------------------------------------------------

def induce(cover: CoverDescriptor,
           ambient: PermutationGroup) -> CoverDescriptor:
    """Reinterpret an H-cover as a (disconnected) ambient-group cover.

    In the torsor model the label set simply grows from H to the ambient
    group; monodromy subgroups and gluing constants are unchanged.
    """
    positions = subgroup_positions(ambient, cover.group)
    require(positions is not None, "NOT_A_MEMBER",
            "cover group is not a subgroup of the ambient group")
    return cover._replace(group=ambient)


def _check_smooth_fiber_point(config, ref):
    require_marked(config, ref)
    if any(ref in cls for cls in config.identification_classes):
        raise DomainError("FIBER_NOT_TORSOR",
                          f"{ref} is already a singular point")


def _check_glue(group: PermutationGroup, parts, positions=()):
    """The checks both gluings run, in order: for each (cover, subgroup,
    points) part the cover's group is that subgroup of group (NOT_A_MEMBER);
    the subgroups, with the elements at positions, generate group
    (NOT_GENERATING); then, part by part, the cover is connected
    (BASE_NOT_CONNECTED) and each point is a marked smooth point of its
    base."""
    positions = list(positions)
    for cover, sub, _ in parts:
        mine = subgroup_positions(group, cover.group)
        given = subgroup_positions(group, sub)
        require(mine is not None and given is not None
                and group.span(mine) == group.span(given), "NOT_A_MEMBER",
                "cover group is not the given subgroup of G")
        positions += given
    require(group.span(positions).bit_count() == len(group.index()),
            "NOT_GENERATING",
            "the subgroups (and gamma) generate a proper subgroup of G")
    for cover, _, points in parts:
        require(is_connected(cover), "BASE_NOT_CONNECTED",
                "input cover is disconnected")
        for ref in points:
            _check_smooth_fiber_point(cover.base, ref)


def _join(cover: CoverDescriptor, relation):
    """The function glue -> the cover with fresh dicts, each point set of
    relation appended as a class (in order) and glue(branch) at each new
    branch; INVALID_CONFIG here on an invalid base.  Callers check sets:
    pairwise disjoint, of 2+ marked smooth points, none removed."""
    require_valid(cover.base)
    old = cover.base.identification_classes
    added = tuple(tuple(sorted(s)) for s in relation)
    base = cover.base._replace(identification_classes=old + added)

    def join(glue) -> CoverDescriptor:
        gluings = {ci: dict(b) for ci, b in cover.gluings.items()}
        for ci, cls in enumerate(added, len(old)):
            gluings[ci] = {branch: glue(branch) for branch in cls[1:]}
        return CoverDescriptor(base, cover.group, dict(cover.monodromy),
                               gluings, dict(cover.ramification))

    return join


def glue_same_component(ambient: PermutationGroup, sub: PermutationGroup,
                        gamma: Perm, base_cover: CoverDescriptor,
                        y1: PointRef, y2: PointRef) -> CoverDescriptor:
    """Identify two smooth points of a connected cover's base and glue the
    induced ambient-group cover along the new class with constant gamma.

    Requires sub <= ambient = <sub, gamma> and a connected base cover; the
    result is connected and Galois (verified by the test suite, not
    assumed here).
    """
    require(gamma.degree == ambient.degree, "DEGREE_MISMATCH",
            f"{gamma.degree} != {ambient.degree}")
    g = ambient.index().get(gamma.images)
    require(g is not None, "NOT_A_MEMBER", "gamma not in the ambient group")
    _check_glue(ambient, [(base_cover, sub, (y1, y2))], [g])
    require(y1 != y2, "FIBER_NOT_TORSOR", "points must be distinct")

    # label x over y1 is matched with label gamma*x over y2; the new class
    # is {y1, y2}, so its base branch is min(y1, y2)
    gluing = Gluing(gamma if y1 < y2 else gamma.inverse)
    return _join(induce(base_cover, ambient), [{y1, y2}])(lambda _: gluing)


def glue_two_components(group: PermutationGroup,
                        sub1: PermutationGroup, sub2: PermutationGroup,
                        cover1: CoverDescriptor, cover2: CoverDescriptor,
                        y1: PointRef, y2: PointRef) -> CoverDescriptor:
    """Join two disjoint covers across one new class with identity gluing.

    Requires sub1, sub2 <= group = <sub1, sub2>; the matching rule
    identifies equal torsor labels, so the gluing constant is the identity.
    """
    _check_glue(group, [(cover1, sub1, (y1,)), (cover2, sub2, (y2,))])
    c1, c2 = cover1.base, cover2.base
    ids1, ids2 = set(c1.component_ids()), set(c2.component_ids())
    require(not ids1 & ids2, "COMPONENT_OVERLAP",
            f"shared component ids {sorted(ids1 & ids2)}")
    require(c1.characteristic == c2.characteristic, "BAD_CHARACTERISTIC",
            f"covers over characteristics {c1.characteristic} and "
            f"{c2.characteristic}")

    merged = CurveConfiguration(
        c1.characteristic, c1.components + c2.components,
        {**c1.points, **c2.points},
        c1.identification_classes + c2.identification_classes,
        c1.removed_points | c2.removed_points)
    shift = len(c1.identification_classes)
    gluings = {**cover1.gluings,
               **{ci + shift: b for ci, b in cover2.gluings.items()}}
    disjoint = CoverDescriptor(
        merged, group, {**cover1.monodromy, **cover2.monodromy}, gluings,
        {**cover1.ramification, **cover2.ramification})
    gluing = Gluing(Perm.identity(group.degree))
    return _join(disjoint, [{y1, y2}])(lambda _: gluing)


# -- descent ----------------------------------------------------------------

def descend(cover, base_relation, cover_relation) -> CoverDescriptor:
    """Quotient a cover by compatible identifications up and downstairs."""
    return descent(cover, base_relation)(cover_relation)


def descent(cover: CoverDescriptor, base_relation):
    """descend, prepared once per base relation: the function
    cover_relation -> CoverDescriptor.  Every base-side error is raised
    here, in order: an empty relation, a point that is no PointRef of two
    str fields, a class of size < 2, the smooth-point checks, overlapping
    classes, INVALID_CONFIG (_join), GROUP_TOO_LARGE.

    cover_relation: nontrivial classes of cover points ((PointRef, label)
    pairs), in any order and any collection.  Checks: the cover relation
    lies over the base relation (1); each base class's full fiber is
    partitioned into classes of the same size with exactly one point per
    branch (2); and the right G-action permutes the cover classes, so
    every gluing is a constant: the result is Galois.
    """
    config, group = cover.base, cover.group
    # a non-collection reads as a one-item one, whose item the checks refuse
    relation = [list(c) if isinstance(c, Iterable) else [c] for c in (
        base_relation if isinstance(base_relation, Iterable)
        else [base_relation])]
    require(relation, "BAD_PARTITION",
            "both relations must have nontrivial classes")
    require(all(isinstance(ref, PointRef) and isinstance(ref[0], str)
                and isinstance(ref[1], str) for c in relation for ref in c),
            "BAD_PARTITION", "a base class is not a set of PointRef")
    base_classes = [sorted(set(c)) for c in relation]
    for cls in base_classes:
        require(len(cls) >= 2, "BAD_PARTITION", "base class of size < 2")
        for ref in cls:
            _check_smooth_fiber_point(config, ref)
    # a cover point (ref, label) is the pair (slot of ref, label position):
    # slot[ref] = (base class index, place of ref in its sorted class)
    slot = {}
    for i, cls in enumerate(base_classes):
        for k, ref in enumerate(cls):
            if ref in slot:
                raise DomainError("BAD_PARTITION",
                                  f"{ref} in two base classes")
            slot[ref] = (i, k)
    join = _join(cover, base_classes)
    index, elements = group.index(), group.elements()
    n = len(index)
    fiber = list(range(n))  # the base labels of a partition, sorted

    def apply(cover_relation) -> CoverDescriptor:
        cover_relation = list(cover_relation) if isinstance(
            cover_relation, (list, Iterable)) else [cover_relation]
        require(cover_relation, "BAD_PARTITION",
                "both relations must have nontrivial classes")

        # condition (1), in one pass: each cover class becomes a map place
        # -> label position, filed under its base class i (None with no
        # pairs, -1 off one), or {} unless it has one label in G per place
        by_base = [[] for _ in base_classes]
        slot_of, position_of = slot.get, index.get
        for c in cover_relation:
            i, labels, one_each = None, {}, True
            try:
                if c.__class__ is not tuple and not isinstance(c, Iterable):
                    raise ValueError  # an int, say: a point, not a class
                for pair in c:  # the exact-type test is the cheap common case
                    if pair.__class__ is not tuple \
                            and not isinstance(pair, (tuple, list)):
                        raise ValueError  # an int, say: nothing to unpack
                    ref, x = pair  # x not a Perm: no images, so not in G
                    if ref.__class__ is not PointRef \
                            and not isinstance(ref, tuple):  # or a plain pair
                        raise ValueError  # a list, say: no hash to look up
                    j, k = slot_of(ref, (-1, 0))
                    if j != i:
                        i = j if i is None else -1
                    label = position_of(getattr(x, "images", None))
                    if label is None or labels.setdefault(k, label) != label:
                        one_each = False
            except ValueError:  # an item that is not a pair
                raise DomainError("BAD_PARTITION", "a cover point is not a "
                                  "(PointRef, label) pair") from None
            if i is None or i < 0:
                raise DomainError("RELATION_NOT_PRESERVED", "a cover class "
                                  "does not lie over a single base class")
            by_base[i].append(labels if one_each else {})

        # condition (2), base class by base class: n classes with one label
        # on every branch, sorted by base label, partition the fiber iff
        # their base labels are 0..n-1; the labels over a branch are its
        # row, and the right action (base label x -> x*g) permutes the
        # classes iff every row is a left row: a bijection and a constant
        gluings = {}
        for cls, classes in zip(base_classes, by_base):
            require(set(map(len, classes)) <= {len(cls)}, "BAD_PARTITION",
                    "a cover class does not have one point in G on each "
                    "branch")
            if len(classes) != n:  # the message is formatted only on failure
                raise DomainError("BAD_PARTITION", f"{len(classes)} cover "
                                  f"classes over a base class, not |G| = {n}")
            classes.sort(key=itemgetter(0))
            require([c[0] for c in classes] == fiber, "BAD_PARTITION",
                    "cover classes overlap")
            for k, branch in enumerate(cls[1:], 1):
                row = tuple([c[k] for c in classes])
                if not _is_translation(group, row):
                    require(len(set(row)) == n, "BAD_PARTITION",
                            "cover classes overlap")
                    raise DomainError("ACTION_NOT_EQUIVARIANT", "right action "
                                      "does not permute the cover classes")
                gluings[branch] = Gluing(elements[row[0]])
        return join(gluings.__getitem__)

    return apply


# -- spanning-tree normal form ---------------------------------------------

def spanning_tree(config):
    """CurveConfiguration.spanning_tree: (tree edges, non-tree edges)."""
    return config.spanning_tree


def normalize_spanning_tree(cover: CoverDescriptor) -> CoverDescriptor:
    """Relabel fibers component-by-component so every spanning-tree gluing
    constant becomes the identity (_transport).

    The surviving constants, one per non-tree edge, number exactly delta.
    The cover must be Galois (is_galois); raises ACTION_NOT_EQUIVARIANT
    otherwise.
    """
    require(config_connected(cover.base), "BASE_NOT_CONNECTED")
    require(is_galois(cover), "ACTION_NOT_EQUIVARIANT",
            "non-translation gluing cannot be tree-normalized")
    monodromy, moved = _transport(cover)
    monodromy = dict(zip(cover.base.component_ids(), monodromy))
    group, elements = cover.group, cover.group.elements()
    # every moved row is a left row: row[0] is its constant
    gluings = {ci: {} for ci in cover.gluings}
    for ci, branch, row in moved:
        gluings[ci][branch] = Gluing(elements[row[0]])
    return CoverDescriptor(
        cover.base, group,
        {comp_id: PermutationGroup.from_generators(
            [elements[h[0]] for h in monodromy[comp_id]], group.degree)
         for comp_id in cover.monodromy},
        gluings, dict(cover.ramification))


# -- DOT export -------------------------------------------------------------

def _dot(name: str, nodes, edges) -> str:
    """An undirected DOT graph: the quoted nodes, then the edges, in order."""
    lines = [f"graph {name} {{", *(f'  "{v}";' for v in nodes),
             *(f'  "{a}" -- "{b}";' for a, b in edges), "}"]
    return "\n".join(lines) + "\n"


def sheet_graph_dot(cover: CoverDescriptor) -> str:
    """Sheet-connectivity graph: nodes (component, sheet), edges from
    gluing identifications, with deterministic ordering.  Over a component
    with monodromy H the sheets are the cosets H*x."""
    monodromy, gluings = _decode(cover)
    names, sheet = [], {}  # component id -> sheet name of each label
    for comp, positions in zip(cover.base.components, monodromy):
        ids, reps = cover.group.coset_map(positions)
        named = [f"{comp.id}_s{i}" for i in range(len(reps))]
        names += named
        sheet[comp.id] = compose(named, ids)
    classes = cover.base.identification_classes
    edges = {tuple(sorted(edge)) for ci, branch, row in gluings
             for edge in zip(sheet[classes[ci][0].component_id],
                             compose(sheet[branch.component_id], row))}
    return _dot("sheets", sorted(names), sorted(edges))


def dual_graph_dot(config: CurveConfiguration) -> str:
    return _dot("dual", *dual_graph(config))


# -- serialization ----------------------------------------------------------

def cover_to_json(cover: CoverDescriptor) -> dict:
    gluings = []
    for ci in sorted(cover.gluings):
        for branch in sorted(cover.gluings[ci]):
            gluing = cover.gluings[ci][branch]
            entry = {"class_index": ci, "branch": branch.to_json()}
            if gluing.constant is not None:
                entry["constant"] = gluing.constant.to_one_indexed()
            else:
                entry["mapping"] = [[a.to_one_indexed(), b.to_one_indexed()]
                                    for a, b in gluing.mapping]
            gluings.append(entry)
    return {
        "configuration": cover.base.to_json(),
        "group": group_to_json(cover.group),
        "monodromy": {comp_id: [g.to_one_indexed() for g in sub.generators]
                      for comp_id, sub in sorted(cover.monodromy.items())},
        "gluings": gluings,
        "ramification": [
            {"point": ref.to_json(),
             "inertia": [p.to_one_indexed() for p in perms]}
            for ref, perms in sorted(cover.ramification.items())],
    }


def cover_from_json(data) -> CoverDescriptor:
    code = "BAD_COVER_FILE"
    fields(data, "cover", code, ("configuration", "group"),
           ("monodromy", "gluings", "ramification"))
    config = CurveConfiguration.from_json(data["configuration"])
    group = (catalog_group(data["group"]) if isinstance(data["group"], str)
             else group_from_json(data["group"]))
    monodromy = {
        comp_id: PermutationGroup.from_generators(
            [Perm.from_one_indexed(im) for im in
             typed(gens, list, "monodromy generators", code)], group.degree)
        for comp_id, gens in
        typed(data.get("monodromy", {}), dict, "monodromy", code).items()}
    gluings: dict = {}
    for entry in typed(data.get("gluings", []), list, "gluings", code):
        typed(entry, dict, "gluing", code)
        kind = "constant" if "constant" in entry else "mapping"
        fields(entry, "gluing", code, ("class_index", "branch", kind))
        ci = typed(entry["class_index"], int, "class_index", code)
        branch = PointRef.from_json(entry["branch"])
        if kind == "constant":
            g = Gluing(Perm.from_one_indexed(entry["constant"]))
        else:
            pairs = typed(entry["mapping"], list, "mapping", code)
            for pair in pairs:
                require(len(typed(pair, list, "mapping pair", code)) == 2,
                        code, f"mapping pair {pair!r} is not [label, image]")
            g = Gluing(mapping=tuple(tuple(map(Perm.from_one_indexed, pair))
                                     for pair in pairs))
        gluings.setdefault(ci, {})[branch] = g
    ramification = {}
    for entry in typed(data.get("ramification", []), list, "ramification",
                       code):
        fields(entry, "ramification entry", code, ("point", "inertia"))
        ramification[PointRef.from_json(entry["point"])] = tuple(
            Perm.from_one_indexed(im)
            for im in typed(entry["inertia"], list, "inertia", code))
    return build_descriptor(config, group, monodromy, gluings, ramification)
