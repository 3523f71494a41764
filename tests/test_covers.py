import random

import pytest

from pi1curves import covers
from pi1curves.catalog import catalog_group, catalog_groups
from pi1curves.covers import (
    CoverDescriptor,
    Gluing,
    build_descriptor,
    cover_from_json,
    cover_to_json,
    descend,
    descent,
    dual_graph_dot,
    glue_same_component,
    glue_two_components,
    is_connected,
    is_galois,
    sheet_graph_dot,
    spanning_tree,
)
from pi1curves.curves import (CurveConfiguration, PointRef, identify,
                              strip_identifications)
from pi1curves.errors import DomainError
from pi1curves.groups import PermutationGroup
from pi1curves.oracle import nodal_curve, two_node_curve
from pi1curves.perms import Perm

from catalog_builders import cyclic, symmetric
from oracles import (conjugate, sheet_graph_connected, subgroup_generated,
                     torsor_labeling)

P = PointRef


def nodal(p=5):
    return CurveConfiguration.build(
        p, [("C1", 0)], {"C1": ["0", "1"]}, [[P("C1", "0"), P("C1", "1")]])


def s3_and_a3():
    S3 = catalog_group("S3")
    rotation = next(g for g in S3.elements() if g.order() == 3)
    A3 = subgroup_generated(S3, [rotation])
    flip = next(g for g in S3.elements() if g.order() == 2)
    return S3, A3, flip


# -- torsor labelings -------------------------------------------------------

def test_torsor_labeling_regular_action():
    C4 = cyclic(4)
    elems = C4.elements()
    labeling = torsor_labeling(C4, elems, lambda g, s: g * s, elems[0])
    assert labeling.to_group[elems[0]].is_identity()
    for s in elems:
        g = labeling.to_group[s]
        assert labeling.from_group[g] == s


def test_torsor_labeling_rejects_wrong_size():
    C4 = cyclic(4)
    with pytest.raises(DomainError) as err:
        torsor_labeling(C4, C4.elements()[:3], lambda g, s: g * s,
                        C4.elements()[0])
    assert err.value.code == "NOT_SIMPLY_TRANSITIVE"


def test_torsor_labeling_rejects_non_free_action():
    C4 = cyclic(4)
    fiber = ["a", "b", "c", "d"]
    with pytest.raises(DomainError) as err:
        torsor_labeling(C4, fiber, lambda g, s: s, "a")  # trivial action
    assert err.value.code == "NOT_SIMPLY_TRANSITIVE"


# -- descriptors and induction ----------------------------------------------

def test_build_descriptor_etale_genus_zero_guard():
    C2 = cyclic(2)
    base = CurveConfiguration.build(5, [("C1", 0)], {"C1": ["a"]}, [])
    with pytest.raises(DomainError) as err:
        build_descriptor(base, C2, monodromy={"C1": C2})
    assert err.value.code == "ETALE_GENUS_ZERO"
    # a ramification annotation lifts the restriction
    flip = C2.generators[0]
    cover = build_descriptor(base, C2, monodromy={"C1": C2},
                             ramification={P("C1", "a"): (flip,)})
    assert cover.monodromy_of("C1").order() == 2
    # monodromy given by identity generators alone is trivial: no license
    trivial = PermutationGroup(C2.degree, [Perm.identity(C2.degree)] * 2)
    cover = build_descriptor(base, C2, monodromy={"C1": trivial})
    assert cover.monodromy_of("C1").order() == 1
    assert not cover.ramification


def test_decode_builds_the_trivial_group_only_when_needed(monkeypatch):
    # monodromy_of builds PermutationGroup.trivial only for a component
    # with no monodromy
    built = []
    real_init = PermutationGroup.__init__

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    C3 = cyclic(3)
    base = CurveConfiguration.build(
        7, [("E", 1), ("F", 1)], {"E": ["a"], "F": ["a"]},
        [[P("E", "a"), P("F", "a")]])
    for monodromy, groups in (({"E": C3, "F": C3}, 0), ({"E": C3}, 1)):
        cover = build_descriptor(base, C3, monodromy=monodromy)
        monkeypatch.setattr(PermutationGroup, "__init__", init)
        built.clear()
        covers._decode(cover)
        monkeypatch.undo()
        assert len(built) == groups


@pytest.mark.parametrize("name, code", [
    ("monodromy", "NOT_A_MEMBER"),
    ("inertia_generator", "NOT_A_MEMBER"),
    ("gluing_constant", "NOT_A_MEMBER"),
    ("constant_of_another_degree", "NOT_A_MEMBER"),
    ("group_above_enum_bound", "GROUP_TOO_LARGE"),
])
def test_build_descriptor_rejects_non_members(name, code):
    S3, A3, flip = s3_and_a3()
    branch = P("C1", "1")
    arguments = {
        "monodromy": {"monodromy": {"C1": subgroup_generated(S3, [flip])}},
        "inertia_generator": {"ramification": {P("C1", "0"): (flip,)}},
        "gluing_constant": {"gluings": {0: {branch: flip}}},
        "constant_of_another_degree": {
            "gluings": {0: {branch: Perm.identity(4)}}},
        "group_above_enum_bound": {"group": symmetric(8)},
    }[name]
    config = CurveConfiguration.build(
        5, [("C1", 1)], {"C1": ["0", "1"]}, [[P("C1", "0"), branch]])
    with pytest.raises(DomainError) as err:
        build_descriptor(config, **{"group": A3, **arguments})
    assert err.value.code == code


def _ref_repr(label):
    return f"PointRef(component_id='C1', point_label='{label}')"


@pytest.mark.parametrize("arguments, message", [
    ({"ramification": {P("C1", "9"): ()}}, _ref_repr("9")),
    ({"gluings": {0: {P("C1", "9"): Perm.identity(3)}}},
     f"gluing branches {{{_ref_repr('9')}}} not in class 0"),
    ({"gluings": {0: {P("C1", "0"): Perm.identity(3)}}},
     f"gluing branches {{{_ref_repr('0')}}} not in class 0"),
    ({"gluings": {3: {}}}, "gluings for unknown class indices [3]"),
    ({"gluings": {2: {}, 1: {}}}, "gluings for unknown class indices [1, 2]"),
])
def test_build_descriptor_point_not_found_table(arguments, message):
    with pytest.raises(DomainError) as err:
        build_descriptor(nodal(), catalog_group("S3"), **arguments)
    assert (err.value.code, str(err.value)) \
        == ("POINT_NOT_FOUND", f"POINT_NOT_FOUND: {message}")


@pytest.mark.parametrize("label, expected", [
    ("z", ("POINT_NOT_FOUND", _ref_repr("z"))),
    ("c", ("FIBER_NOT_TORSOR",
           f"{_ref_repr('c')} is already a singular point")),
    ("d", ("FIBER_NOT_TORSOR",
           f"{_ref_repr('d')} is already a singular point")),
])
def test_glue_point_must_be_marked_and_smooth(label, expected):
    S3, A3, flip = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": list("abcd")},
                                    [[P("C1", "c"), P("C1", "d")]])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    for y1, y2 in ((P("C1", "a"), P("C1", label)),
                   (P("C1", label), P("C1", "a"))):
        with pytest.raises(DomainError) as err:
            glue_same_component(S3, A3, flip, cover, y1, y2)
        assert (err.value.code, str(err.value)) \
            == (expected[0], ": ".join(expected))


def test_monodromy_outside_the_group_is_not_a_member():
    # build_descriptor refuses it; on a hand-built descriptor is_galois
    # raises as is_connected does
    S3, A3, flip = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    assert is_galois(cover)
    outside = {"C1": subgroup_generated(S3, [flip])}
    with pytest.raises(DomainError) as err:
        is_galois(cover._replace(monodromy=outside))
    assert err.value.code == "NOT_A_MEMBER"


# -- gluing propositions ----------------------------------------------------

def test_glue_same_component():
    S3, A3, flip = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    glued = glue_same_component(S3, A3, flip, cover,
                                P("C1", "a"), P("C1", "b"))
    assert is_connected(glued)
    assert is_galois(glued)
    assert len(glued.base.identification_classes) == 1


def test_glue_same_component_requires_generation():
    S3, A3, _ = s3_and_a3()
    rotation = A3.generators[0]
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    with pytest.raises(DomainError) as err:
        glue_same_component(S3, A3, rotation, cover,
                            P("C1", "a"), P("C1", "b"))
    assert err.value.code == "NOT_GENERATING"


def test_glue_same_component_preserves_ramification():
    S3, A3, flip = s3_and_a3()
    rotation = A3.generators[0]
    base = CurveConfiguration.build(5, [("C1", 1)],
                                    {"C1": ["a", "b", "r"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3},
                             ramification={P("C1", "r"): (rotation,)})
    glued = glue_same_component(S3, A3, flip, cover,
                                P("C1", "a"), P("C1", "b"))
    assert glued.ramification == {P("C1", "r"): (rotation,)}


def test_glue_two_components():
    S3, A3, flip = s3_and_a3()
    C2 = subgroup_generated(S3, [flip])
    base1 = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a"]}, [])
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover1 = build_descriptor(base1, A3, monodromy={"C1": A3})
    cover2 = build_descriptor(base2, C2, monodromy={"D1": C2})
    joined = glue_two_components(S3, A3, C2, cover1, cover2,
                                 P("C1", "a"), P("D1", "a"))
    assert is_connected(joined)
    assert is_galois(joined)


def test_glue_two_components_rejects_overlap():
    S3, A3, flip = s3_and_a3()
    C2 = subgroup_generated(S3, [flip])
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover1 = build_descriptor(base, A3, monodromy={"C1": A3})
    cover2 = build_descriptor(base, C2, monodromy={"C1": C2})
    with pytest.raises(DomainError) as err:
        glue_two_components(S3, A3, C2, cover1, cover2,
                            P("C1", "a"), P("C1", "b"))
    assert err.value.code == "COMPONENT_OVERLAP"


def test_glue_two_components_rejects_mixed_characteristic():
    # the joined base used to take the first cover's characteristic; the
    # component ids and the points are checked first
    S3, A3, flip = s3_and_a3()
    C2 = subgroup_generated(S3, [flip])

    def cover(p, comp, sub):
        base = CurveConfiguration.build(p, [(comp, 1)], {comp: ["a"]}, [])
        return build_descriptor(base, sub, monodromy={comp: sub})

    first, same_id, other = cover(5, "C1", A3), cover(3, "C1", C2), \
        cover(3, "D1", C2)
    for second, y2, code in ((same_id, "C1", "COMPONENT_OVERLAP"),
                             (other, "C1", "POINT_NOT_FOUND"),
                             (other, "D1", "BAD_CHARACTERISTIC")):
        with pytest.raises(DomainError) as err:
            glue_two_components(S3, A3, C2, first, second,
                                P("C1", "a"), P(y2, "a"))
        assert err.value.code == code
    assert str(err.value) == \
        "BAD_CHARACTERISTIC: covers over characteristics 5 and 3"


def test_glue_two_components_rejects_non_generating():
    S3, A3, _ = s3_and_a3()
    base1 = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a"]}, [])
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover1 = build_descriptor(base1, A3, monodromy={"C1": A3})
    cover2 = build_descriptor(base2, A3, monodromy={"D1": A3})
    with pytest.raises(DomainError) as err:
        glue_two_components(S3, A3, A3, cover1, cover2,
                            P("C1", "a"), P("D1", "a"))
    assert err.value.code == "NOT_GENERATING"


def test_glue_two_components_rejects_non_subgroup():
    # <(3 4), (1 2)(5 6)> has the order of G = <(1 2), (3 4)>, but the
    # second cover group does not lie in G
    G = PermutationGroup.from_generators(
        [Perm.from_cycles(6, [(1, 2)]), Perm.from_cycles(6, [(3, 4)])])
    H1 = subgroup_generated(G, [Perm.from_cycles(6, [(3, 4)])])
    H2 = subgroup_generated(G, [Perm.from_cycles(6, [(1, 2), (5, 6)])])
    base1 = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a"]}, [])
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover1 = build_descriptor(base1, H1, monodromy={"C1": H1})
    cover2 = build_descriptor(base2, H2, monodromy={"D1": H2})
    with pytest.raises(DomainError) as err:
        glue_two_components(G, H1, H2, cover1, cover2,
                            P("C1", "a"), P("D1", "a"))
    assert err.value.code == "NOT_A_MEMBER"


@pytest.mark.parametrize("gluing", ["constant", "mapping"])
def test_glue_rejects_disconnected_base(gluing):
    # C2 meets no class of C1, so neither base is connected; a mapping
    # gluing sends is_connected to the sheet graph
    S3, A3, flip = s3_and_a3()
    apart = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 1)], {"C1": ["a", "b", "c", "d"], "C2": ["a"]},
        [[P("C1", "c"), P("C1", "d")]])
    cover = build_descriptor(apart, A3, monodromy={"C1": A3, "C2": A3})
    if gluing == "mapping":
        cover = cover._replace(gluings={0: {P("C1", "d"): Gluing(
            mapping=tuple((x, x) for x in A3.elements()))}})
    with pytest.raises(DomainError) as err:
        glue_same_component(S3, A3, flip, cover, P("C1", "a"), P("C1", "b"))
    assert err.value.code == "BASE_NOT_CONNECTED"
    C2 = subgroup_generated(S3, [flip])
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover2 = build_descriptor(base2, C2, monodromy={"D1": C2})
    for first, second, y1, y2 in ((cover, cover2, P("C1", "a"), P("D1", "a")),
                                  (cover2, cover, P("D1", "a"), P("C1", "a"))):
        with pytest.raises(DomainError) as err:
            glue_two_components(S3, first.group, second.group, first, second,
                                y1, y2)
        assert err.value.code == "BASE_NOT_CONNECTED"


def test_four_argument_descriptor_has_read_only_ramification():
    # the default is one empty mapping that no descriptor can change
    S3, A3, _ = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a"]}, [])
    cover = CoverDescriptor(base, A3, {}, {})
    assert len(cover.ramification) == 0
    with pytest.raises(TypeError):
        cover.ramification[P("C1", "a")] = (S3.elements()[1],)
    assert CoverDescriptor(base, S3, {}, {}).ramification == {}
    assert cover == build_descriptor(base, A3)
    assert cover_to_json(cover)["ramification"] == []


def test_empty_base_is_disconnected():
    # a hand-built descriptor over no component: is_connected answers False
    # and both gluings refuse it as a disconnected base
    C2 = cyclic(2)
    empty = CoverDescriptor(CurveConfiguration(5, (), {}, ()), C2, {}, {})
    assert not is_connected(empty)
    with pytest.raises(DomainError) as err:
        glue_same_component(C2, C2, C2.elements()[1], empty,
                            P("C1", "a"), P("C1", "b"))
    assert err.value.code == "BASE_NOT_CONNECTED"
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover2 = build_descriptor(base2, C2, monodromy={"D1": C2})
    with pytest.raises(DomainError) as err:
        glue_two_components(C2, C2, C2, empty, cover2,
                            P("C1", "a"), P("D1", "a"))
    assert err.value.code == "BASE_NOT_CONNECTED"


def test_glue_same_component_rejects_non_subgroup():
    # membership is checked before generation: <(1 2), rotation> is all
    # of S3, a proper overgroup of the ambient A3; C3 on 3 points lies in
    # no group of degree 4.  Gluing reads the cover as an ambient-group
    # cover only after this check.
    S3, A3, flip = s3_and_a3()
    C4 = cyclic(4)
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    for ambient, outside in ((A3, subgroup_generated(S3, [flip])),
                             (C4, cyclic(3))):
        cover = build_descriptor(base, outside, monodromy={"C1": outside})
        with pytest.raises(DomainError) as err:
            glue_same_component(ambient, outside, ambient.generators[0],
                                cover, P("C1", "a"), P("C1", "b"))
        assert err.value.code == "NOT_A_MEMBER"


@pytest.mark.parametrize("name", ["S3", "SL23"])
def test_cover_calculus_never_sifts(monkeypatch, name):
    # membership is read off the element index: no stabilizer-chain sift
    def forbidden(*args):
        raise AssertionError("sifted through the stabilizer chain")

    G = catalog_group(name)
    a, b = G.generators
    H, H2 = subgroup_generated(G, [a]), subgroup_generated(G, [b])
    monkeypatch.setattr(PermutationGroup, "contains", forbidden)
    base = CurveConfiguration.build(5, [("C1", 1)],
                                    {"C1": ["a", "b", "r"]}, [])
    cover = build_descriptor(base, H, monodromy={"C1": H},
                             ramification={P("C1", "r"): (a,)})
    glued = glue_same_component(G, H, b, cover, P("C1", "a"), P("C1", "b"))
    assert glued.group is G and is_connected(glued) and is_galois(glued)
    data = cover_to_json(glued)
    assert cover_to_json(cover_from_json(data)) == data
    assert sheet_graph_dot(glued).startswith("graph sheets {")
    base2 = CurveConfiguration.build(5, [("D1", 1)], {"D1": ["a"]}, [])
    cover2 = build_descriptor(base2, H2, monodromy={"D1": H2})
    joined = glue_two_components(G, H, H2, cover, cover2,
                                 P("C1", "a"), P("D1", "a"))
    assert is_connected(joined) and is_galois(joined)
    relation = [{(P("C1", "a"), x), (P("C1", "b"), a * x)}
                for x in H.elements()]
    assert is_galois(descend(cover, [{P("C1", "a"), P("C1", "b")}], relation))


# -- hand-built gluings -----------------------------------------------------

def glued_by(group, gluing):
    return build_descriptor(nodal(), group,
                            gluings={0: {P("C1", "1"): gluing}})


def test_hand_built_left_translation_is_galois():
    # build_descriptor stores a left-translation mapping as its constant;
    # a descriptor that keeps the mapping is Galois and connected as the
    # constant is
    for _, G in catalog_groups(12):
        elements = G.elements()
        for c in elements:
            pairs = tuple((x, c * x) for x in elements)
            constant = glued_by(G, Gluing(c))
            assert glued_by(G, Gluing(mapping=pairs)) == constant
            kept = constant._replace(
                gluings={0: {P("C1", "1"): Gluing(mapping=pairs)}})
            assert is_galois(kept)
            assert is_connected(kept) == is_connected(constant)


def test_hand_built_non_translation_is_not_galois():
    # x -> f(x) commutes with the right action only if f(x) = f(1)*x; a
    # right translation by a non-central element is the simplest failure
    S3 = catalog_group("S3")
    c = next(g for g in S3.elements() if g.order() == 2)
    right = Gluing(mapping=tuple((x, x * c) for x in S3.elements()))
    assert not is_galois(glued_by(S3, right))
    # a map that repeats an image is no bijection of the fibers
    repeated = Gluing(mapping=tuple((x, c) for x in S3.elements()))
    with pytest.raises(DomainError) as err:
        glued_by(S3, repeated)
    assert str(err.value) \
        == "FIBER_NOT_TORSOR: gluing is not a bijection of the fibers"
    rng = random.Random(12)
    checked = 0
    for _, G in catalog_groups(12):
        elements = G.elements()
        translations = {tuple(c * x for x in elements) for c in elements}
        for _ in range(6):
            images = tuple(rng.sample(elements, len(elements)))
            if images in translations:
                continue
            gluing = Gluing(mapping=tuple(zip(elements, images)))
            cover = glued_by(G, gluing)
            assert not is_galois(cover)
            assert cover.gluings[0][P("C1", "1")] == gluing
            checked += 1
    assert checked > 100


def test_gluing_without_constant_or_mapping_is_not_a_torsor():
    # Gluing() and a mapping that lists a label twice identify no fiber
    # with the other: every reader raises FIBER_NOT_TORSOR, not TypeError
    S3 = catalog_group("S3")
    e, x = S3.elements()[:2]
    twice = Gluing(mapping=((e, x),) + tuple((g, g) for g in S3.elements()))
    for gluing in (Gluing(), Gluing(mapping=()), twice):
        with pytest.raises(DomainError) as err:
            glued_by(S3, gluing)
        assert str(err.value) \
            == "FIBER_NOT_TORSOR: gluing is not a bijection of the fibers"
        cover = glued_by(S3, Gluing(e))._replace(
            gluings={0: {P("C1", "1"): gluing}})
        for check in (is_connected, is_galois, sheet_graph_dot):
            with pytest.raises(DomainError) as err:
                check(cover)
            assert err.value.code == "FIBER_NOT_TORSOR", check


# -- descent ----------------------------------------------------------------

def cyclic_cover_two_points():
    C3 = cyclic(3)
    base = CurveConfiguration.build(7, [("C1", 1)], {"C1": ["a", "b"]}, [])
    return C3, build_descriptor(base, C3, monodromy={"C1": C3})


def test_descend_constant_relation():
    C3, cover = cyclic_cover_two_points()
    a, b = P("C1", "a"), P("C1", "b")
    x = next(g for g in C3.elements() if g.order() == 3)
    relation = [{(a, l), (b, x * l)} for l in C3.elements()]
    out = descend(cover, [{a, b}], relation)
    gluing = out.gluings[0][max(a, b)]
    assert gluing.constant == x
    assert is_galois(out)


def test_descend_rejects_non_equivariant():
    C3, cover = cyclic_cover_two_points()
    a, b = P("C1", "a"), P("C1", "b")
    e = Perm.identity(3)
    x = next(g for g in C3.elements() if g.order() == 3)
    bad = [{(a, e), (b, e)}, {(a, x), (b, x * x)}, {(a, x * x), (b, x)}]
    with pytest.raises(DomainError) as err:
        descend(cover, [{a, b}], bad)
    assert err.value.code == "ACTION_NOT_EQUIVARIANT"


def test_descend_rejects_bad_partition():
    C3, cover = cyclic_cover_two_points()
    a, b = P("C1", "a"), P("C1", "b")
    x = next(g for g in C3.elements() if g.order() == 3)
    relation = [{(a, l), (b, x * l)} for l in C3.elements()]
    relation[0] = relation[0] | {(b, Perm.identity(3))}  # oversized class
    with pytest.raises(DomainError) as err:
        descend(cover, [{a, b}], relation)
    assert err.value.code == "BAD_PARTITION"


def test_descend_rejects_unrelated_base():
    C3, cover = cyclic_cover_two_points()
    a = P("C1", "a")
    e = Perm.identity(3)
    with pytest.raises(DomainError) as err:
        descend(cover, [{a, P("C1", "b")}], [{(a, e), (P("C1", "zzz"), e)}])
    assert err.value.code == "RELATION_NOT_PRESERVED"


def test_new_classes_match_identify():
    # curves.identify is the reference for the base that descend and the
    # two gluings build: the input's classes, then the new ones in
    # relation order
    rng = random.Random(13)
    labels = [str(i) for i in range(9)]

    def one_component(comp, sub):  # a cover with two classes, free points
        points = [P(comp, s) for s in labels]
        rng.shuffle(points)
        config = CurveConfiguration.build(
            5, [(comp, 1)], {comp: labels}, [points[:2], points[2:5]])
        return build_descriptor(config, sub, monodromy={comp: sub}), points[5:]

    for name in ("S3", "D4", "A4", "SL23"):
        G = catalog_group(name)
        elements, (a, b) = G.elements(), G.generators
        H1, H2 = subgroup_generated(G, [a]), subgroup_generated(G, [b])
        for _ in range(6):
            refs = [P("C1", s) for s in labels] + [P("C2", s) for s in "xyz"]
            rng.shuffle(refs)
            config = CurveConfiguration.build(
                5, [("C1", 0), ("C2", 0)], {"C1": labels, "C2": list("xyz")},
                [refs[:2], refs[2:5]])
            free, base_rel = refs[5:], []
            while len(free) >= 2:
                size = min(len(free), rng.choice((2, 3)))
                base_rel.append(set(free[:size]))
                free = free[size:]
            cover_rel = []
            for cls in base_rel:
                root, *branches = sorted(cls)
                constants = [rng.choice(elements) for _ in branches]
                cover_rel += [{(root, x)} | {(r, c * x) for r, c
                                             in zip(branches, constants)}
                              for x in elements]
            rng.shuffle(cover_rel)
            cover = build_descriptor(config, G)
            out = descend(cover, base_rel, cover_rel)
            assert out.base == identify(config, base_rel)
            cover1, free1 = one_component("C1", H1)
            cover2, free2 = one_component("D1", H2)
            y1, y2 = rng.sample(free1, 2)
            glued = glue_same_component(G, H1, b, cover1, y1, y2)
            assert glued.base == identify(cover1.base, [{y1, y2}])
            y1, y2 = rng.choice(free1), rng.choice(free2)
            c1, c2 = cover1.base, cover2.base
            merged = c1._replace(
                components=c1.components + c2.components,
                points={**c1.points, **c2.points},
                identification_classes=c1.identification_classes
                + c2.identification_classes)
            joined = glue_two_components(G, H1, H2, cover1, cover2, y1, y2)
            assert joined.base == identify(merged, [{y1, y2}])


def test_classes_are_plain_sorted_tuples():
    # a class is the sorted tuple of its points: iteration, len and `in`
    # see the points, and its base branch is its first point
    def check(config):
        assert config.identification_classes
        for cls in config.identification_classes:
            assert type(cls) is tuple
            assert all(type(ref) is PointRef for ref in cls)
            assert list(cls) == sorted(cls)
            assert len(cls) == len(list(cls)) >= 2
            assert all(ref in cls for ref in list(cls))

    S3, A3, flip = s3_and_a3()
    C2 = subgroup_generated(S3, [flip])
    a, b, c, d = (P("C1", s) for s in "dcba")  # listed out of order
    built = CurveConfiguration.build(5, [("C1", 1)], {"C1": list("abcd")},
                                     [[a, c, b]])
    check(built)
    check(identify(built, [[d, a]]))
    bare = built._replace(identification_classes=())
    cover = build_descriptor(bare, A3, monodromy={"C1": A3})
    check(glue_same_component(S3, A3, flip, cover, a, b).base)
    other = build_descriptor(CurveConfiguration.build(
        5, [("D1", 1)], {"D1": ["a"]}, []), C2, monodromy={"D1": C2})
    check(glue_two_components(S3, A3, C2, cover, other, b, P("D1", "a"))
          .base)
    x = A3.generators[0]
    relation = [{(a, l), (c, x * l), (b, l)} for l in A3.elements()]
    check(descend(cover, [{c, a, b}], relation).base)


def _descent_case(name):
    """(cover, base relation, cover relation) for one row of
    test_descend_failure_table: a C3-cover of a curve with points
    a, b, c, d, descended along {a, b} (glued by x) and {c, d} (by 1)."""
    C3 = cyclic(3)
    base = CurveConfiguration.build(
        7, [("C1", 1)], {"C1": ["a", "b", "c", "d", "r"]}, [],
        removed=[P("C1", "r")])
    cover = build_descriptor(base, C3, monodromy={"C1": C3})
    if name.startswith("invalid_config"):  # then the row's other defect
        cover = cover._replace(base=base._replace(characteristic=4))
        name = name[len("invalid_config_"):]
    a, b, c, d = (P("C1", s) for s in "abcd")
    e, x, y = C3.elements()  # y = x*x
    outside = Perm.from_cycles(3, [(1, 2)])
    rel = [{(a, l), (b, x * l)} for l in (e, x, y)] \
        + [{(c, l), (d, l)} for l in (e, x, y)]
    base_rel = [{a, b}, {c, d}]
    unknown = {(c, y), (P("C1", "zzz"), y)}
    if name == "unknown_ref":
        rel[5] = unknown
    elif name == "two_base_classes":
        rel[5] = {(c, y), (a, y)}
    elif name == "empty_class":
        rel.append(set())
    elif name == "label_outside_G":
        rel[0] = {(a, e), (b, outside)}
    elif name == "two_labels_on_one_place":
        rel[0] = rel[0] | {(b, y)}
    elif name == "missing_branch":
        rel[0] = {(a, e)}
    elif name == "wrong_count":
        del rel[0]
    elif name == "repeated_base_label":
        rel[0] = {(a, x), (b, e)}
    elif name == "repeated_branch_label":
        rel[0] = {(a, e), (b, y)}
    elif name.startswith("non_translation"):
        rel[:3] = [{(a, e), (b, e)}, {(a, x), (b, y)}, {(a, y), (b, x)}]
        if name == "non_translation_then_overlap":
            rel[3] = {(c, e), (d, x)}
    elif name == "non_perm_label":
        rel[0] = {(a, e), (b, "x")}
    elif name == "one_item_pair":
        rel[0] = {(a, e), (b,)}
    elif name == "non_iterable_item":
        rel[0] = {(a, e), 5}
    elif name == "list_pairs":
        rel[0] = [[a, e], [b, x]]
    elif name == "repeated_pair_in_list":
        rel[0] = [(a, e), (b, x), (a, e)]
    elif name == "missing_branch_then_unknown_ref":
        rel[0], rel[5] = {(a, e)}, unknown
    elif name == "count_then_label_outside_G":
        del rel[0]
        rel[3] = {(c, e), (d, outside)}
    elif name == "count_and_missing_branch":
        rel[0:2] = [{(a, e)}]
    elif name == "overlapping_base_classes":
        base_rel = [{a, b}, {b, c}]
    elif name == "empty_base_relation":
        base_rel = []
    elif name == "removed_base_point":
        base_rel = [{a, b}, {c, P("C1", "r")}]
    elif name == "empty_cover_relation":
        rel = []
    elif name == "empty_cover_relation_over_bad_base":
        base_rel, rel = [{a, b}, {c, P("C1", "r")}], []
    elif name == "plain_tuple_cover_points":
        rel[0] = {(("C1", "a"), e), (("C1", "b"), x)}
    elif name == "base_relation_not_iterable":
        base_rel = 5
    elif name == "base_class_not_iterable":
        base_rel = [{a, b}, 5]
    elif name == "base_point_plain_tuple":
        base_rel = [{("C1", "a"), b}, {c, d}]
    elif name == "base_point_int":
        base_rel = [{a, 5}, {c, d}]
    elif name == "base_point_list":
        base_rel = [[a, ["C1", "b"]], {c, d}]
    elif name == "base_point_list_field":
        base_rel = [[a, P("C1", ["b"])], {c, d}]
    elif name == "base_point_int_field":
        base_rel = [{a, P("C1", 5)}, {c, d}]
    elif name == "cover_relation_not_iterable":
        rel = 5
    elif name == "cover_class_not_iterable":
        rel[0] = 5
    elif name == "cover_point_unhashable":
        rel[5] = [[["C1", "c"], y], (d, y)]
    return cover, base_rel, rel


BAD_ONE_EACH = ("BAD_PARTITION",
                "a cover class does not have one point in G on each branch")
NOT_OVER_ONE = ("RELATION_NOT_PRESERVED",
                "a cover class does not lie over a single base class")
OVERLAP = ("BAD_PARTITION", "cover classes overlap")
NOT_A_PAIR = ("BAD_PARTITION",
              "a cover point is not a (PointRef, label) pair")
NOT_A_BASE_POINT = ("BAD_PARTITION", "a base class is not a set of PointRef")
EMPTY = ("BAD_PARTITION", "both relations must have nontrivial classes")
NOT_EQUIVARIANT = ("ACTION_NOT_EQUIVARIANT",
                   "right action does not permute the cover classes")
REMOVED = ("OVERLAP_WITH_REMOVED", str(P("C1", "r")))
INVALID = ("INVALID_CONFIG",
           "[('BAD_CHARACTERISTIC', '4 is not prime or 0')]")
# the prefixes of the rows whose error lies in the base relation or the
# base configuration
BASE_SIDE = ("base_", "invalid_config", "overlapping_base_classes",
             "removed_base_point", "empty_cover_relation_over_bad_base")


@pytest.mark.parametrize("name, expected", [
    ("unknown_ref", NOT_OVER_ONE),
    ("two_base_classes", NOT_OVER_ONE),
    ("empty_class", NOT_OVER_ONE),
    ("label_outside_G", BAD_ONE_EACH),
    ("two_labels_on_one_place", BAD_ONE_EACH),
    ("missing_branch", BAD_ONE_EACH),
    ("wrong_count", ("BAD_PARTITION",
                     "2 cover classes over a base class, not |G| = 3")),
    ("repeated_base_label", OVERLAP),
    ("repeated_branch_label", OVERLAP),
    ("non_translation", NOT_EQUIVARIANT),
    # a row that is no left translation is refused at once
    ("non_translation_then_overlap", NOT_EQUIVARIANT),
    ("non_perm_label", BAD_ONE_EACH),
    ("repeated_pair_in_list", "constant"),
    # two defects: condition (1) runs over every cover class before
    # condition (2), which runs base class by base class
    ("missing_branch_then_unknown_ref", NOT_OVER_ONE),
    ("count_then_label_outside_G", ("BAD_PARTITION",
                                    "2 cover classes over a base class, "
                                    "not |G| = 3")),
    ("count_and_missing_branch", BAD_ONE_EACH),
    ("overlapping_base_classes", ("BAD_PARTITION",
                                  f"{P('C1', 'b')} in two base classes")),
    ("removed_base_point", REMOVED),
    ("empty_cover_relation", EMPTY),
    # a bad base relation is refused when the descent is prepared, before
    # the cover relation is read, and an invalid base configuration after
    # every other base-side error
    ("empty_cover_relation_over_bad_base", REMOVED),
    ("invalid_config", INVALID),
    ("invalid_config_removed_base_point", REMOVED),
    ("invalid_config_missing_branch_then_unknown_ref", INVALID),
    ("invalid_config_wrong_count", INVALID),
    ("invalid_config_non_translation", INVALID),
    ("invalid_config_empty_base_relation", EMPTY),
    ("invalid_config_empty_cover_relation_over_bad_base", REMOVED),
    ("one_item_pair", NOT_A_PAIR),
    ("non_iterable_item", NOT_A_PAIR),
    ("list_pairs", "constant"),
    # a plain pair of strings is a cover point; anything that is no
    # collection is a class or a point of its own, and refused as such
    ("plain_tuple_cover_points", "constant"),
    *((name, NOT_A_BASE_POINT)
      for name in ("base_relation_not_iterable", "base_class_not_iterable",
                   "base_point_plain_tuple", "base_point_int",
                   "base_point_list")),
    *((name, NOT_A_PAIR) for name in ("cover_relation_not_iterable",
                                      "cover_class_not_iterable",
                                      "cover_point_unhashable")),
    # a PointRef whose fields are not both str
    ("base_point_list_field", NOT_A_BASE_POINT),
    ("base_point_int_field", NOT_A_BASE_POINT),
])
def test_descend_failure_table(name, expected):
    # descend, a descent prepared in the call, and one descent prepared
    # for the base relation and applied twice, answer alike; a base-side
    # error is raised by preparing the descent alone
    cover, base_rel, rel = _descent_case(name)
    if isinstance(expected, tuple):
        calls = [lambda: descend(cover, base_rel, rel),
                 lambda: descent(cover, base_rel)(rel)]
        if name.startswith(BASE_SIDE):
            calls.append(lambda: descent(cover, base_rel))
        else:
            prepared = descent(cover, base_rel)
            calls += [lambda: prepared(rel)] * 2
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert (err.value.code, str(err.value)) \
                == (expected[0], ": ".join(expected))
        return
    assert expected == "constant"
    prepared = descent(cover, base_rel)
    out = descend(cover, base_rel, rel)
    assert prepared(rel) == out
    e, x, y = cover.group.elements()
    a, b, c, d = (P("C1", s) for s in "abcd")
    assert out.gluings[0][b] == Gluing(x)
    assert out.gluings[1] == {d: Gluing(e)}
    assert out.base.identification_classes == ((a, b), (c, d))


def test_prepared_descent_equals_descend():
    # one descent per cover and base relation, applied to many random
    # cover relations (translations, other bijections, defects), gives
    # what descend gives each time, and no two results, nor a result and
    # the cover, share a mutable dict
    rng = random.Random(25)
    labels = [str(i) for i in range(7)]
    config = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 0)], {"C1": labels, "C2": ["x", "y"]},
        [[P("C1", "0"), P("C2", "x")]])
    free = [P("C1", s) for s in labels[1:]] + [P("C2", "y")]
    outcomes = set()
    for name in ("C2", "C3", "C2xC2", "S3", "D4", "Q8", "A4"):
        G = catalog_group(name)
        elements = G.elements()
        cover = build_descriptor(config, G, monodromy={"C1": G})
        for _ in range(3):
            rng.shuffle(free)
            base_rel = [set(free[:2]), set(free[2:5])]
            prepared = descent(cover, base_rel)
            results = [cover]
            for _ in range(8):
                cover_rel = []
                for cls in base_rel:
                    root, *branches = sorted(cls)
                    images = []
                    for _ in branches:
                        if rng.random() < 0.7:
                            c = rng.choice(elements)
                            images.append([c * x for x in elements])
                        else:
                            images.append(rng.sample(elements, len(elements)))
                    cover_rel += [{(root, x)} | {(r, im[i]) for r, im
                                                 in zip(branches, images)}
                                  for i, x in enumerate(elements)]
                if rng.random() < 0.2:
                    del cover_rel[rng.randrange(len(cover_rel))]
                rng.shuffle(cover_rel)
                try:
                    expected = descend(cover, base_rel, cover_rel)
                except DomainError as exc:
                    with pytest.raises(DomainError) as err:
                        prepared(cover_rel)
                    assert str(err.value) == str(exc)
                    outcomes.add(exc.code)
                    continue
                out = prepared(cover_rel)
                assert out == expected
                outcomes.add(is_galois(out))
                results.append(out)
            dicts = [d for out in results for d in (
                out.monodromy, out.gluings, out.ramification,
                *out.gluings.values())]
            assert len({id(d) for d in dicts}) == len(dicts)
    assert outcomes == {True, "BAD_PARTITION", "ACTION_NOT_EQUIVARIANT"}


def _shuffled(rng, relation):
    """The relation with its classes and the pairs of each class in a
    random order, each class a tuple, list or set, the whole a tuple or
    list."""
    return rng.choice((tuple, list))(
        rng.choice((tuple, list, set))(rng.sample(pairs, len(pairs)))
        for pairs in rng.sample(relation, len(relation)))


def test_descent_ignores_class_order_and_containers():
    # condition (2) sorts each base class's cover classes by base label:
    # the class order, the pair order in a class and the collection type
    # change nothing, and one repeated base label is still an overlap
    rng = random.Random(29)
    for config in (nodal_curve(5), two_node_curve(5)):
        classes = config.identification_classes
        base_rel = [set(cls) for cls in classes]
        for name, G in catalog_groups(12):
            elements = G.elements()
            prepared = descent(
                build_descriptor(strip_identifications(config), G), base_rel)
            gluings = {ci: {branch: rng.choice(elements)
                            for branch in cls[1:]}
                       for ci, cls in enumerate(classes)}
            expected = build_descriptor(config, G, gluings=gluings)
            relation = [[(cls[0], x)] + [(branch, gluings[ci][branch] * x)
                                         for branch in cls[1:]]
                        for ci, cls in enumerate(classes) for x in elements]
            for _ in range(4):
                assert prepared(_shuffled(rng, relation)) == expected, name
            if len(elements) < 2:
                continue
            repeated = [list(pairs) for pairs in relation]
            repeated[0][0] = (classes[0][0], elements[1])  # x = 1 is gone
            with pytest.raises(DomainError) as err:
                prepared(_shuffled(rng, repeated))
            assert (err.value.code, str(err.value)) \
                == ("BAD_PARTITION", "BAD_PARTITION: cover classes overlap")


# -- normal form and connectivity ---------------------------------------------

def random_cyclic_descriptor(rng, group, config):
    _, free = spanning_tree(config)
    elems = group.elements()
    gluings = {}
    for ci, cls in enumerate(config.identification_classes):
        gluings[ci] = {branch: rng.choice(elems)
                       for branch in cls[1:]}
    return build_descriptor(config, group, gluings=gluings)


def chain_config():
    return CurveConfiguration.build(
        5, [("C1", 0), ("C2", 0), ("C3", 0)],
        {"C1": ["a", "b"], "C2": ["a", "b"], "C3": ["a", "b"]},
        [[P("C1", "b"), P("C2", "a")],
         [P("C2", "b"), P("C3", "a")],
         [P("C3", "b"), P("C1", "a")]])


# the sheet graph and dual graph of dot_fixture(), as printed before
# PointRef became a tuple
SHEET_DOT = (
    'graph sheets {\n  "C1_s0";\n  "C1_s1";\n  "C2_s0";\n  "C2_s1";\n'
    '  "C2_s2";\n  "C2_s3";\n  "C2_s4";\n  "C2_s5";\n  "C3_s0";\n'
    '  "C3_s1";\n  "C3_s2";\n  "C1_s0" -- "C1_s0";\n  "C1_s0" -- "C2_s0";\n'
    '  "C1_s0" -- "C2_s3";\n  "C1_s0" -- "C2_s4";\n  "C1_s0" -- "C3_s0";\n'
    '  "C1_s0" -- "C3_s1";\n  "C1_s0" -- "C3_s2";\n  "C1_s1" -- "C1_s1";\n'
    '  "C1_s1" -- "C2_s1";\n  "C1_s1" -- "C2_s2";\n  "C1_s1" -- "C2_s5";\n'
    '  "C1_s1" -- "C3_s0";\n  "C1_s1" -- "C3_s1";\n  "C1_s1" -- "C3_s2";\n'
    '  "C2_s0" -- "C3_s0";\n  "C2_s1" -- "C3_s0";\n  "C2_s2" -- "C3_s1";\n'
    '  "C2_s3" -- "C3_s2";\n  "C2_s4" -- "C3_s1";\n  "C2_s5" -- "C3_s2";\n'
    '}\n')
DUAL_DOT = ('graph dual {\n  "C1";\n  "C2";\n  "C3";\n  "C1" -- "C2";\n'
            '  "C2" -- "C3";\n  "C1" -- "C3";\n  "C1" -- "C1";\n}\n')


def dot_fixture():
    S3 = catalog_group("S3")
    rotation = next(g for g in S3.elements() if g.order() == 3)
    flip = next(g for g in S3.elements() if g.order() == 2)
    config = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 0), ("C3", 1)],
        {"C1": ["a", "b", "c", "d"], "C2": ["a", "b"], "C3": ["a", "b"]},
        [[P("C1", "b"), P("C2", "a")], [P("C2", "b"), P("C3", "a")],
         [P("C3", "b"), P("C1", "a")], [P("C1", "c"), P("C1", "d")]])
    return build_descriptor(
        config, S3,
        monodromy={"C1": subgroup_generated(S3, [rotation]),
                   "C3": subgroup_generated(S3, [flip])},
        gluings={0: {P("C2", "a"): rotation},
                 2: {P("C3", "b"): flip * rotation},
                 3: {P("C1", "d"): rotation}})


def test_dot_outputs_pinned():
    cover = dot_fixture()
    assert sheet_graph_dot(cover) == SHEET_DOT
    assert dual_graph_dot(cover.base) == DUAL_DOT


def _random_subgroup(rng, G):
    return subgroup_generated(G, rng.sample(G.elements(), rng.randint(0, 2)))


def test_is_connected_matches_oracle_on_constant_covers():
    # three- and two-component bases with nontrivial monodromy off the
    # root component C1, and bases that are disconnected
    rng = random.Random(12)
    two = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 1)], {"C1": ["a", "b"], "C2": ["a", "b"]},
        [[P("C1", "a"), P("C2", "a")], [P("C1", "b"), P("C2", "b")]])
    apart = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 1), ("C3", 1)],
        {"C1": ["a", "b", "c"], "C2": ["a"], "C3": ["a", "b"]},
        [[P("C1", "a"), P("C2", "a")], [P("C1", "b"), P("C1", "c")],
         [P("C3", "a"), P("C3", "b")]])
    seen = set()
    for name in ("C2xC2", "S3", "D4", "A4"):
        G = catalog_group(name)
        for config in (chain_config(), two, apart):
            for _ in range(40):
                cover = random_cyclic_descriptor(rng, G, config)
                cover = cover._replace(monodromy={
                    comp.id: _random_subgroup(rng, G)
                    for comp in config.components if rng.random() < 0.7})
                connected = is_connected(cover)
                assert connected == sheet_graph_connected(cover)
                assert not connected or config is not apart
                seen.add(connected)
    assert seen == {False, True}


def test_is_connected_matches_oracle_on_mapping_covers(monkeypatch):
    # build_descriptor keeps a mapping where a class is glued by a
    # bijection that is not a left translation.  On the second
    # base the spanning tree reaches C before B, so the tree edges from B
    # to C are moved from their branch side; is_connected builds no cosets
    def forbidden(*args):
        raise AssertionError("is_connected built cosets")

    monkeypatch.setattr(PermutationGroup, "coset_map", forbidden)
    rng = random.Random(4)
    base = CurveConfiguration.build(
        5, [("C1", 1), ("C2", 1), ("C3", 1)],
        {"C1": ["a", "b", "c"], "C2": ["a", "b"], "C3": ["a"]}, [])
    pairs = [[P("C1", "a"), P("C1", "b")], [P("C1", "c"), P("C2", "a")],
             [P("C2", "b"), P("C3", "a")]]
    reversed_tree = CurveConfiguration.build(
        5, [("A", 1), ("B", 1), ("C", 1)],
        {"A": ["x"], "B": ["w", "x"], "C": ["x", "y", "z"]}, [])
    reversed_pairs = [[P("A", "x"), P("C", "x")], [P("B", "x"), P("C", "y")],
                      [P("B", "w"), P("C", "z")]]
    for base, pairs in ((base, pairs), (reversed_tree, reversed_pairs)):
        seen = set()
        for name in ("C3", "C2xC2", "S3", "D4"):
            G = catalog_group(name)
            elements = G.elements()
            for _ in range(40):
                monodromy = {comp.id: _random_subgroup(rng, G)
                             for comp in base.components}
                chosen = rng.sample(pairs, rng.randint(1, 3))
                gluings = {}  # each pair lo < hi: class ci, branch hi
                for ci, (lo, hi) in enumerate(chosen):
                    images = list(elements)
                    if rng.random() < 0.5:
                        rng.shuffle(images)
                    else:
                        c = rng.choice(elements)
                        images = [c * x for x in elements]
                    gluings[ci] = {hi: Gluing(
                        mapping=tuple(zip(elements, images)))}
                out = build_descriptor(identify(base, chosen), G,
                                       monodromy=monodromy, gluings=gluings)
                connected = is_connected(out)
                assert connected == sheet_graph_connected(out)
                seen.add((connected, is_galois(out)))
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}


def test_is_connected_error_codes_match_sheet_graph():
    S3, A3, flip = s3_and_a3()
    for config in (nodal(), chain_config()):
        cover = build_descriptor(config, A3)
        ci, cls = 0, config.identification_classes[0]
        bad_constant = cover._replace(gluings={
            **cover.gluings, ci: {cls[1]: Gluing(flip)}})
        bad_monodromy = cover._replace(monodromy={
            config.components[-1].id: subgroup_generated(S3, [flip])})
        both = bad_constant._replace(monodromy=bad_monodromy.monodromy)
        # a mapping gluing takes the same decode as a constant
        bad_mapping = cover._replace(gluings={**cover.gluings, ci: {
            cls[1]: Gluing(mapping=((flip, flip),))}})
        for bad, code in ((bad_constant, "FIBER_NOT_TORSOR"),
                          (bad_monodromy, "NOT_A_MEMBER"),
                          (both, "NOT_A_MEMBER"),
                          (bad_mapping, "FIBER_NOT_TORSOR"),
                          (bad_mapping._replace(
                              monodromy=bad_monodromy.monodromy),
                           "NOT_A_MEMBER"),
                          (cover._replace(gluings={}), "FIBER_NOT_TORSOR")):
            for check in (is_connected, sheet_graph_dot, is_galois):
                with pytest.raises(DomainError) as err:
                    check(bad)
                assert err.value.code == code, (check, code, config)


def test_relabeling_invariance():
    # relabeling every fiber by the automorphism x -> t*x*t^-1 of G sends
    # monodromy H to tHt^-1 and a gluing constant c to tct^-1, and changes
    # no verdict
    rng = random.Random(9)
    G = catalog_group("D4")
    config = chain_config()
    assert len(spanning_tree(config)[1]) == 1  # delta
    for _ in range(10):
        cover = random_cyclic_descriptor(rng, G, config)._replace(
            monodromy={"C2": _random_subgroup(rng, G)})
        t = rng.choice(G.elements())
        relabeled = cover._replace(
            monodromy={comp_id: conjugate(H, t)
                       for comp_id, H in cover.monodromy.items()},
            gluings={ci: {branch: Gluing(t * g.constant * t.inverse)
                          for branch, g in branches.items()}
                     for ci, branches in cover.gluings.items()})
        assert is_galois(cover) and is_galois(relabeled)
        assert is_connected(relabeled) == is_connected(cover) \
            == sheet_graph_connected(cover)


# -- serialization and DOT --------------------------------------------------

def test_cover_json_round_trip():
    S3, A3, flip = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    glued = glue_same_component(S3, A3, flip, cover,
                                P("C1", "a"), P("C1", "b"))
    data = cover_to_json(glued)
    assert cover_to_json(cover_from_json(data)) == data


def test_cover_from_json_rejects_garbage():
    with pytest.raises(DomainError) as err:
        cover_from_json({"nope": 1})
    assert err.value.code == "BAD_COVER_FILE"


def test_dot_outputs_deterministic():
    S3, A3, flip = s3_and_a3()
    base = CurveConfiguration.build(5, [("C1", 1)], {"C1": ["a", "b"]}, [])
    cover = build_descriptor(base, A3, monodromy={"C1": A3})
    glued = glue_same_component(S3, A3, flip, cover,
                                P("C1", "a"), P("C1", "b"))
    dot = sheet_graph_dot(glued)
    assert dot == sheet_graph_dot(glued)
    assert dot.startswith("graph sheets {") and dot.endswith("}\n")
    assert dual_graph_dot(glued.base).startswith("graph dual {")


# the sheet graph of a two-component cover with nontrivial monodromy on
# both components, a self-glued class and one non-translation gluing
TWO_COMPONENT_SHEET_DOT = (
    'graph sheets {\n  "A_s0";\n  "A_s1";\n  "B_s0";\n  "B_s1";\n'
    '  "B_s2";\n  "A_s0" -- "A_s0";\n  "A_s0" -- "B_s0";\n'
    '  "A_s0" -- "B_s1";\n  "A_s0" -- "B_s2";\n  "A_s1" -- "A_s1";\n'
    '  "A_s1" -- "B_s0";\n  "A_s1" -- "B_s1";\n  "A_s1" -- "B_s2";\n}\n')


def test_two_component_sheet_dot_pinned():
    S3, A3, flip = s3_and_a3()
    config = CurveConfiguration.build(
        5, [("A", 1), ("B", 1)],
        {"A": ["l1", "l2", "x", "y"], "B": ["x", "y"]},
        [[P("A", "x"), P("B", "x")], [P("A", "l1"), P("A", "l2")],
         [P("A", "y"), P("B", "y")]])
    swap = Gluing(mapping=tuple((x, x * flip) for x in S3.elements()))
    cover = build_descriptor(
        config, S3, monodromy={"A": A3, "B": subgroup_generated(S3, [flip])},
        gluings={0: {P("B", "x"): flip}, 1: {P("A", "l2"): A3.generators[0]},
                 2: {P("B", "y"): swap}})
    assert cover.gluings[2][P("B", "y")] == swap
    assert sheet_graph_dot(cover) == TWO_COMPONENT_SHEET_DOT
