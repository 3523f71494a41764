"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Expected values are either trivial, computed by
an independent brute-force oracle inside the test, or fixed combinatorial
counts (phi_2(S3) = 18, phi_1(C6) = 2)."""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from pi1curves.catalog import catalog_group, catalog_groups, catalog_names
from pi1curves.covers import (build_descriptor, descend,
                              glue_same_component, glue_two_components,
                              is_connected as cover_connected, is_galois,
                              spanning_tree)
from pi1curves.curves import (CurveConfiguration, PointRef, delta, factorize,
                              replay, strip_identifications, validate)
from pi1curves.errors import DomainError
from pi1curves.groups import (PermutationGroup, abelianization,
                              eulerian,
                              min_generators, quasi_p_part, quotient,
                              subgroup_lattice)
from pi1curves.oracle import (cross_check_descent, enumerate_connected_covers,
                              nodal_curve, two_node_curve)
from pi1curves.perms import Perm
from pi1curves.realizability import (affine_realizable, hasse_witt_check,
                                     nakajima_check, pro_p_rank)

from oracles import (affine_curve, betti_number, count_generating_tuples,
                     sheet_graph_connected)

P = PointRef


def report(capsys, number, name, started, failures, limit):
    elapsed = time.time() - started
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {status} "
              f"({elapsed:.1f}s / limit {limit:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < limit, f"{elapsed:.1f}s over the {limit}s budget"


def random_config(rng, max_components=6, max_classes=6):
    n = rng.randint(1, max_components)
    comps = [(f"C{i + 1}", rng.choice([0, 0, 0, 1, 2])) for i in range(n)]
    points = {f"C{i + 1}": [f"p{j}" for j in range(4)] for i in range(n)}
    refs = [P(c, label) for c in points for label in points[c]]
    classes = []
    used = set()
    for i in range(n - 1):  # spanning chain keeps it connected
        pair = [P(f"C{i + 1}", "p0"), P(f"C{i + 2}", "p1")]
        classes.append(pair)
        used |= set(pair)
    for _ in range(rng.randint(0, max(0, max_classes - len(classes)))):
        free = [r for r in refs if r not in used]
        if len(free) < 2:
            break
        pair = rng.sample(free, 2)
        classes.append(pair)
        used |= set(pair)
    return CurveConfiguration.build(5, comps, points, classes)


def test_criterion_1_delta_betti_and_replay(capsys):
    started = time.time()
    rng = random.Random(13)
    failures = []
    for i in range(200):
        config = random_config(rng)
        if validate(config):
            failures.append(("invalid", i))
            continue
        if delta(config) != betti_number(config):
            failures.append(("delta", i))
        steps = factorize(config)
        if replay(strip_identifications(config), steps) != config:
            failures.append(("replay", i))
    report(capsys, 1, "delta/Betti agreement + factorize replay",
           started, failures, 5)


def test_criterion_2_eulerian_cross_check(capsys):
    started = time.time()
    failures = []
    for name, G in catalog_groups(24):
        for k in (1, 2):
            if eulerian(G, k) != count_generating_tuples(G, k):
                failures.append((name, k))
    if eulerian(catalog_group("S3"), 2) != 18:
        failures.append("phi2(S3)")
    if eulerian(catalog_group("C6"), 1) != 2:
        failures.append("phi1(C6)")
    report(capsys, 2, "Eulerian = exhaustive tuple count", started,
           failures, 60)


def test_criterion_3_cover_count_equivalence(capsys):
    started = time.time()
    failures = []
    nodal, theta = nodal_curve(5), two_node_curve(5)
    for name, G in catalog_groups(24):
        for config, d in ((nodal, 1), (theta, 2)):
            count, _ = enumerate_connected_covers(G, config)
            if count != eulerian(G, d):
                failures.append((name, d, count))
    report(capsys, 3, "enumerate = eulerian on nodal/theta", started,
           failures, 120)


def _subgroups_with_generation_test(G):
    lattice = subgroup_lattice(G)
    whole = frozenset(G.elements())
    maximal = [S for S in lattice if S != whole
               and not any(S < T != whole for T in lattice)]
    subs = [(S, PermutationGroup.from_generators(sorted(S), G.degree))
            for S in lattice]

    def generates(elements):
        return not any(elements <= M for M in maximal)

    return subs, generates


def _ramified_base(comp_id, H):
    base = CurveConfiguration.build(
        5, [(comp_id, 0)], {comp_id: ["a", "b", "r"]}, [])
    ram = {P(comp_id, "r"): tuple(H.generators)} if H.order() > 1 else None
    return build_descriptor(base, H, monodromy={comp_id: H},
                            ramification=ram)


def test_criterion_4_gluing_propositions(capsys):
    started = time.time()
    failures = []
    checked = 0
    for name, G in catalog_groups(24):
        subs, generates = _subgroups_with_generation_test(G)
        for S, H in subs:
            cover = _ramified_base("C1", H)
            for gamma in G.elements():
                if not generates(S | {gamma}):
                    continue
                glued = glue_same_component(G, H, gamma, cover,
                                            P("C1", "a"), P("C1", "b"))
                ok = (cover_connected(glued) and is_galois(glued)
                      and glued.ramification == cover.ramification)
                if not ok:
                    failures.append((name, "prop1", gamma))
                checked += 1
        for S1, H1 in subs:
            cover1 = _ramified_base("C1", H1)
            for S2, H2 in subs:
                if not generates(S1 | S2):
                    continue
                cover2 = _ramified_base("D1", H2)
                joined = glue_two_components(G, H1, H2, cover1, cover2,
                                             P("C1", "a"), P("D1", "a"))
                expected_ram = {**cover1.ramification, **cover2.ramification}
                ok = (cover_connected(joined) and is_galois(joined)
                      and joined.ramification == expected_ram)
                if not ok:
                    failures.append((name, "prop2"))
                checked += 1
    assert checked > 10_000
    report(capsys, 4, "gluing propositions (connected+Galois+inertia)",
           started, failures, 60)


def test_criterion_5_descent_equivalence(capsys):
    started = time.time()
    failures = []
    nodal, theta = nodal_curve(5), two_node_curve(5)
    for name, G in catalog_groups(24):
        for config in (nodal, theta):
            rep = cross_check_descent(G, config)
            if not rep.ok:
                failures.append((name, rep.mismatches[:2]))
            if not rep.negative_controls_rejected:
                failures.append((name, "control"))
    # an explicitly corrupted relation dies with the documented codes
    C3 = catalog_group("C3")
    base = strip_identifications(nodal)
    cover = build_descriptor(base, C3)
    a, b = P("C1", "0"), P("C1", "1")
    e = Perm.identity(3)
    x = next(g for g in C3.elements() if not g.is_identity())
    bad = [{(a, e), (b, e)}, {(a, x), (b, x * x)}, {(a, x * x), (b, x)}]
    try:
        from pi1curves.covers import descend
        descend(cover, [{a, b}], bad)
        failures.append("corrupted relation accepted")
    except DomainError as exc:
        if exc.code not in ("ACTION_NOT_EQUIVARIANT", "BAD_PARTITION"):
            failures.append(("wrong code", exc.code))
    report(capsys, 5, "descent = direct gluing", started, failures, 60)


def test_connectivity_oracle_on_criteria_3_to_5(capsys):
    # is_connected against union-find over the sheet graph on every cover
    # that criteria 3-5 build: one constant per free edge of the nodal and
    # two-node curves, directly and through descent, and the gluings of
    # criterion 4 with their ramified bases
    started = time.time()
    failures = []
    checked = 0

    def check(cover, what):
        nonlocal checked
        checked += 1
        if cover_connected(cover) != sheet_graph_connected(cover):
            failures.append(what)

    nodal, theta = nodal_curve(5), two_node_curve(5)
    for name, G in catalog_groups(24):
        for config in (nodal, theta):
            base_cover = build_descriptor(strip_identifications(config), G)
            _, free = spanning_tree(config)
            for constants in itertools.product(G.elements(),
                                               repeat=len(free)):
                gluings = {ci: {branch: c}
                           for (ci, branch), c in zip(free, constants)}
                check(build_descriptor(config, G, gluings=gluings),
                      (name, "direct", constants))
                base_rel = [set(cls)
                            for cls in config.identification_classes]
                cover_rel = [{(cls[0], x), (branch, c * x)}
                             for (ci, branch), c in zip(free, constants)
                             for cls in [config.identification_classes[ci]]
                             for x in G.elements()]
                check(descend(base_cover, base_rel, cover_rel),
                      (name, "descended", constants))
        subs, generates = _subgroups_with_generation_test(G)
        for S, H in subs:
            cover = _ramified_base("C1", H)
            check(cover, (name, "base"))
            for gamma in G.elements():
                if generates(S | {gamma}):
                    check(glue_same_component(G, H, gamma, cover,
                                              P("C1", "a"), P("C1", "b")),
                          (name, "prop1", gamma))
        for S1, H1 in subs:
            cover1 = _ramified_base("C1", H1)
            for S2, H2 in subs:
                if generates(S1 | S2):
                    check(glue_two_components(G, H1, H2, cover1,
                                              _ramified_base("D1", H2),
                                              P("C1", "a"), P("D1", "a")),
                          (name, "prop2"))
    assert checked > 50_000
    report(capsys, "3-5", "is_connected = sheet-graph oracle", started,
           failures, 60)


def random_rational_config(rng):
    """A connected projective configuration of 1-4 rational components:
    a random spanning tree of classes (each joining one earlier component
    to one or two new ones), then extra classes of 2 or 3 branches on any
    components, which raise delta to at most 2.  Returns (config, delta)."""
    ids = [f"C{i + 1}" for i in range(rng.randint(1, 4))]
    points = {c: [] for c in ids}

    def point(comp):
        points[comp].append(f"p{len(points[comp])}")
        return P(comp, points[comp][-1])

    order = rng.sample(ids, len(ids))
    classes, joined = [], 1
    while joined < len(order):
        size = rng.choice((2, 3)) if joined + 1 < len(order) else 2
        members = [rng.choice(order[:joined])]
        members += order[joined:joined + size - 1]
        classes.append([point(c) for c in members])
        joined += size - 1
    d = 0
    while d < 2 and rng.random() < 0.8:
        size = rng.choice((2, 3)) if d == 0 else 2
        classes.append([point(rng.choice(ids)) for _ in range(size)])
        d += size - 1
    rng.shuffle(classes)
    return CurveConfiguration.build(5, [(c, 0) for c in ids], points,
                                    classes), d


def test_free_product_on_rational_shapes(capsys):
    # criteria 3 and 5 and the connectivity oracle on random dual-graph
    # shapes: trees of components, 3-branch classes, delta 0-2
    started = time.time()
    failures = []
    rng = random.Random(16)
    shapes = set()
    for i in range(40):
        config, d = random_rational_config(rng)
        shapes.add((len(config.components), d,
                    max(map(len, config.identification_classes), default=0)))
        if delta(config) != d:
            failures.append((i, "delta", delta(config), d))
            continue
        _, free = spanning_tree(config)
        if len(free) != d:  # one free factor per non-tree edge
            failures.append((i, "non-tree edges", len(free), d))
        branches = [(ci, branch)
                    for ci, cls in enumerate(config.identification_classes)
                    for branch in cls[1:]]
        for name, G in catalog_groups(12):
            count, _ = enumerate_connected_covers(G, config)
            if count != eulerian(G, d):
                failures.append((i, name, "count", count))
            if config.identification_classes:
                rep = cross_check_descent(G, config)
                if not rep.ok or rep.checked != G.order() ** d \
                        or rep.negative_controls_rejected != 1:
                    failures.append((i, name, "descent", rep.mismatches[:2]))
            for _ in range(4):  # a random constant on every branch
                gluings: dict = {}
                for ci, branch in branches:
                    gluings.setdefault(ci, {})[branch] = \
                        rng.choice(G.elements())
                cover = build_descriptor(config, G, gluings=gluings)
                connected = sheet_graph_connected(cover)
                if cover_connected(cover) != connected:
                    failures.append((i, name, "connected", connected))
    # every component count and delta, and 3-branch classes on trees
    assert {n for n, _, _ in shapes} == {1, 2, 3, 4}, shapes
    assert {d for _, d, _ in shapes} == {0, 1, 2}, shapes
    assert any(n > 1 and size == 3 for n, _, size in shapes), shapes
    report(capsys, "3-5 shapes", "free product on rational shapes", started,
           failures, 60)


def test_criterion_6_abhyankar_regression(capsys):
    started = time.time()
    failures = []
    for name in catalog_names():
        G = catalog_group(name)
        for p in (2, 3, 5):
            reduced = quotient(G, quasi_p_part(G, p)).image
            expected = "Yes" if reduced.order() == 1 else "No"
            if affine_realizable(
                    G, p, affine_curve(p, 0, 1, 0)).verdict != expected:
                failures.append((name, p))
    C3 = catalog_group("C3")
    if affine_realizable(C3, 2, affine_curve(2, 0, 1, 0)).verdict != "No":
        failures.append("C3 delta0")
    if affine_realizable(C3, 2, affine_curve(2, 0, 1, 1)).verdict != "Yes":
        failures.append("C3 delta1")
    report(capsys, 6, "smooth Abhyankar at delta=0", started, failures, 10)


def test_criterion_7_necessary_conditions(capsys):
    started = time.time()
    failures = []
    theta2 = two_node_curve(2)
    if hasse_witt_check(catalog_group("C2xC2xC2"), 2, theta2).verdict != "No":
        failures.append("hasse-witt C2^3")
    if nakajima_check(catalog_group("C2xC2"), 2, nodal_curve(2)).verdict != "No":
        failures.append("nakajima C2^2")
    if nakajima_check(catalog_group("C3xC3"), 3, nodal_curve(3)).verdict != "No":
        failures.append("nakajima C3^2")
    rng = random.Random(99)
    for i in range(50):
        config = random_config(rng)
        expected = sum(c.effective_p_rank for c in config.components) \
            + betti_number(config)
        if pro_p_rank(config) != expected:
            failures.append(("pro-p", i))
    report(capsys, 7, "necessary-condition checkers", started, failures, 10)


# -- criterion 8: independent recomputation ---------------------------------

def _closure(degree, gens):
    identity = Perm.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _brute_min_generators(G):
    elems = G.elements()
    order = len(elems)
    if order == 1:
        return 0
    for k in itertools.count(1):
        for tup in itertools.product(elems, repeat=k):
            if len(_closure(G.degree, tup)) == order:
                return k


def _brute_sigma(G, p):
    A = abelianization(G).image
    torsion = sum(1 for a in A.elements() if _power(a, p).is_identity())
    rank = 0
    while p ** rank < torsion:
        rank += 1
    assert p ** rank == torsion
    return rank


def _power(perm, n):
    out = Perm.identity(perm.degree)
    for _ in range(n):
        out = out * perm
    return out


def test_criterion_8_engine_ground_truth(capsys):
    started = time.time()
    failures = []
    for name in catalog_names():
        G = catalog_group(name)
        if G.order() > 60:
            continue
        elems = _closure(G.degree, G.generators)
        if len(elems) != G.order():
            failures.append((name, "order"))
        if min_generators(G) != _brute_min_generators(G):
            failures.append((name, "d"))
        for p in (2, 3, 5):
            from pi1curves.groups import abelianization_p_rank
            if abelianization_p_rank(G, p) != _brute_sigma(G, p):
                failures.append((name, "sigma", p))
            # p(G) is generated by the elements of p-power order
            p_elements = [x for x in elems
                          if _is_p_power_order(x.order(), p)]
            expected = _closure(G.degree, p_elements) if p_elements \
                else {Perm.identity(G.degree)}
            got = set(quasi_p_part(G, p).elements())
            if got != expected:
                failures.append((name, "p(G)", p))
    report(capsys, 8, "engine vs exhaustive recomputation", started,
           failures, 120)


def _is_p_power_order(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_criterion_9_selftest_determinism(capsys):
    started = time.time()
    cmd = [sys.executable, "-m", "pi1curves.cli", "--seed", "7",
           "selftest", "--max-order", "10"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    failures = []
    if first.returncode != 0:
        failures.append(("exit", first.returncode, first.stderr[:200]))
    if first.stdout != second.stdout:
        failures.append("outputs differ")
    if b"failures=0" not in first.stdout:
        failures.append("selftest reported failures")
    report(capsys, 9, "selftest byte-identical", started, failures, 120)
