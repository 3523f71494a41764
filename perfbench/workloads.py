"""The benchmark's four workloads: seeded inputs, timed items and checks.

Each workload provides
  make_inputs(seed, catalog) -> list of items   (plain JSON data)
  run_item(item, ctx)        -> summary         (the timed call into pi1curves)
  check(item, summary, ctx)  -> bool            (is the output correct)
`catalog` maps every catalog group name to its 1-indexed generator arrays.
Inputs are built with the benchmark's own permutation arithmetic, so the
package only ever receives the generated data.  Every batch has a fixed
composition (item kinds, group orders, families), and the seed picks the
concrete groups, subgroups, elements and request variants; this keeps the
work per batch nearly equal across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

from pi1curves import catalog as pcatalog
from pi1curves import cli, covers, curves, groups, oracle, perms

Perm = perms.Perm
PointRef = curves.PointRef


# -- permutation arithmetic on 0-indexed image tuples -----------------------

def _mul(a, b):
    """(a*b)(x) = a(b(x)), the package's convention."""
    return tuple(a[i] for i in b)


def _closure(gens, degree):
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _mul(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _zero(images):
    return tuple(i - 1 for i in images)


def _one(images):
    return [i + 1 for i in images]


def _cycles(degree, cycles):
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def _sign(images):
    seen, parity = set(), 0
    for i in range(len(images)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = images[j]
            length += 1
        parity ^= (length - 1) & 1
    return -1 if parity else 1


def _catalog_elements(catalog, name):
    data = catalog[name]
    gens = [_zero(g) for g in data["generators"]]
    return data["degree"], sorted(_closure(gens, data["degree"]))


# -- glue-sweep -----------------------------------------------------------

GLUE_ORDERS = (12, 24)
GLUE_PER_GROUP = {"same": 2, "two": 2}


def _random_subgroup_gens(rng, elements):
    k = rng.choice((1, 2, 3))
    nontrivial = elements[1:]  # elements are sorted; the identity is first
    return [rng.choice(nontrivial) for _ in range(k)]


def glue_inputs(seed, catalog):
    rng = random.Random(f"glue-sweep:{seed}")
    items = []
    for name in catalog:
        degree, elements = _catalog_elements(catalog, name)
        if not GLUE_ORDERS[0] <= len(elements) <= GLUE_ORDERS[1]:
            continue
        order = len(elements)
        for _ in range(GLUE_PER_GROUP["same"]):
            while True:
                h = _random_subgroup_gens(rng, elements)
                gamma = rng.choice(elements)
                if len(_closure(h + [gamma], degree)) == order:
                    break
            items.append({"kind": "same", "group": name,
                          "h": [_one(x) for x in h], "gamma": _one(gamma)})
        for _ in range(GLUE_PER_GROUP["two"]):
            while True:
                h1 = _random_subgroup_gens(rng, elements)
                h2 = _random_subgroup_gens(rng, elements)
                if len(_closure(h1 + h2, degree)) == order:
                    break
            items.append({"kind": "two", "group": name,
                          "h1": [_one(x) for x in h1],
                          "h2": [_one(x) for x in h2]})
    rng.shuffle(items)
    return items


def _ramified_base(comp_id, sub):
    """A genus-0 component carrying monodromy `sub`, licensed by inertia."""
    base = curves.CurveConfiguration.build(
        5, [(comp_id, 0)], {comp_id: ["a", "b", "r"]}, [])
    ram = {PointRef(comp_id, "r"): tuple(sub.generators)} \
        if sub.generators else None
    return covers.build_descriptor(base, sub, monodromy={comp_id: sub},
                                   ramification=ram)


def _subgroup(gens, degree):
    return groups.PermutationGroup.from_generators(
        [Perm.from_one_indexed(g) for g in gens], degree)


def glue_run(item, ctx):
    G = pcatalog.catalog_group(item["group"])
    if item["kind"] == "same":
        H = _subgroup(item["h"], G.degree)
        cover = _ramified_base("C1", H)
        glued = covers.glue_same_component(
            G, H, Perm.from_one_indexed(item["gamma"]), cover,
            PointRef("C1", "a"), PointRef("C1", "b"))
        expected_ram = cover.ramification
    else:
        H1 = _subgroup(item["h1"], G.degree)
        H2 = _subgroup(item["h2"], G.degree)
        cover1 = _ramified_base("C1", H1)
        cover2 = _ramified_base("D1", H2)
        glued = covers.glue_two_components(
            G, H1, H2, cover1, cover2, PointRef("C1", "a"), PointRef("D1", "a"))
        expected_ram = {**cover1.ramification, **cover2.ramification}
    connected = covers.is_connected(glued)
    galois = covers.is_galois(glued)
    constants = sorted(
        (ci, str(branch), g.constant.images)
        for ci, branches in glued.gluings.items()
        for branch, g in branches.items())
    return [connected, galois, glued.ramification == expected_ram, constants]


def glue_check(item, summary, ctx):
    connected, galois, ram_ok, _ = summary
    return connected is True and galois is True and ram_ok is True


# -- census-descent --------------------------------------------------------

# (lowest order, highest order, groups drawn per batch) for each stratum
CENSUS_STRATA = ((2, 6, 5), (7, 10, 7), (11, 12, 4))


def census_inputs(seed, catalog):
    rng = random.Random(f"census-descent:{seed}")
    orders = {name: len(_catalog_elements(catalog, name)[1])
              for name in catalog}
    items = []
    for low, high, count in CENSUS_STRATA:
        pool = [n for n in catalog if low <= orders[n] <= high]
        for name in rng.sample(pool, count):
            p = rng.choice((2, 3, 5, 7))
            for curve in ("nodal", "theta"):
                for op in ("enumerate", "descent"):
                    items.append({"group": name, "order": orders[name],
                                  "curve": curve, "op": op, "p": p})
    rng.shuffle(items)
    return items


def census_run(item, ctx):
    G = pcatalog.catalog_group(item["group"])
    if item["curve"] == "nodal":
        config, d = oracle.nodal_curve(item["p"]), 1
    else:
        config, d = oracle.two_node_curve(item["p"]), 2
    if item["op"] == "enumerate":
        count, witnesses = oracle.enumerate_connected_covers(G, config)
        return ["enumerate", count, groups.eulerian(G, d), len(witnesses)]
    report = oracle.cross_check_descent(G, config)
    return ["descent", report.checked, len(report.mismatches),
            report.negative_controls_rejected]


def census_check(item, summary, ctx):
    d = 1 if item["curve"] == "nodal" else 2
    if summary[0] == "enumerate":
        _, count, phi, witnesses = summary
        return count == phi == witnesses
    _, checked, mismatches, rejected = summary
    return checked == item["order"] ** d and mismatches == 0 and rejected == 1


# -- requests --------------------------------------------------------------

def _config(char, components, points, classes, removed=()):
    return {"characteristic": char,
            "components": [dict(c) for c in components],
            "points": points,
            "identifications": classes,
            "removed": list(removed)}


CONFIGS = {
    "nodal": _config(5, [{"id": "C1", "genus": 0}], {"C1": ["0", "1"]},
                     [[["C1", "0"], ["C1", "1"]]]),
    "theta": _config(5, [{"id": "C1", "genus": 0}],
                     {"C1": ["0", "1", "2", "3"]},
                     [[["C1", "0"], ["C1", "1"]], [["C1", "2"], ["C1", "3"]]]),
    "ell_node": _config(3, [{"id": "E", "genus": 1, "p_rank": 1}],
                        {"E": ["0", "1"]}, [[["E", "0"], ["E", "1"]]]),
    "two_comp": _config(2, [{"id": "C1", "genus": 0},
                            {"id": "C2", "genus": 1, "p_rank": 0}],
                        {"C1": ["a", "b"], "C2": ["a", "b"]},
                        [[["C1", "a"], ["C2", "a"]],
                         [["C1", "b"], ["C2", "b"]]]),
    "triple": _config(7, [{"id": "X", "genus": 2, "p_rank": 1}],
                      {"X": ["0", "1", "2"]},
                      [[["X", "0"], ["X", "1"], ["X", "2"]]]),
    "affine_nodal": _config(5, [{"id": "C1", "genus": 0}],
                            {"C1": ["0", "1", "inf"]},
                            [[["C1", "0"], ["C1", "1"]]], [["C1", "inf"]]),
    "affine_ell": _config(3, [{"id": "E", "genus": 1, "p_rank": 0}],
                          {"E": ["0", "1", "i1", "i2"]},
                          [[["E", "0"], ["E", "1"]]],
                          [["E", "i1"], ["E", "i2"]]),
    "affine_line": _config(2, [{"id": "C1", "genus": 0}],
                           {"C1": ["i1", "i2"]}, [],
                           [["C1", "i1"], ["C1", "i2"]]),
}
PROJECTIVE = ("nodal", "ell_node", "two_comp")
AFFINE = ("affine_nodal", "affine_ell")

# Malformed requests: (name, argv template, file content, expected error
# code).  {file} is replaced by the path of the written content.  A code of
# None marks the inputs known to crash with a Python exception instead of
# a DomainError: they must still exit 1 with some stable code, so each one
# counts as a failed item until the parser rejects it properly.
MALFORMED = [
    ("bad_char_no_components", ["validate", "{file}"],
     _config(4, [], {}, []), ""),
    ("disconnected", ["invariants", "{file}"],
     _config(5, [{"id": "C1"}, {"id": "C2"}], {}, []), "NOT_CONNECTED"),
    ("unknown_field", ["validate", "{file}"],
     {"components": [{"id": "C1"}], "colour": "red"}, "BAD_CONFIG_FILE"),
    ("missing_components", ["invariants", "{file}"],
     {"characteristic": 5}, "BAD_CONFIG_FILE"),
    ("not_json", ["validate", "{file}"], "{not json", "BAD_CONFIG_FILE"),
    ("unknown_group", ["realizable", "{file}", "--group", "NOPE"],
     CONFIGS["nodal"], "UNKNOWN_GROUP"),
    ("bad_char_flag", ["realizable", "{file}", "--group", "S3", "--char", "4"],
     CONFIGS["nodal"], "BAD_CHARACTERISTIC"),
    ("affine_two_components",
     ["realizable", "{file}", "--group", "C3", "--mode", "affine"],
     CONFIGS["two_comp"], "NOT_AFFINE"),
    ("projective_on_affine", ["realizable", "{file}", "--group", "C3"],
     CONFIGS["affine_nodal"], "NOT_PROJECTIVE"),
    ("enumerate_positive_genus", ["enumerate", "{file}", "--group", "C3"],
     CONFIGS["ell_node"], "GENUS_NONZERO"),
    ("genus_not_int", ["validate", "{file}"],
     {"components": [{"id": "C1", "genus": "x"}]}, None),
    ("characteristic_string", ["invariants", "{file}"],
     {"characteristic": "5", "components": [{"id": "C1", "genus": 0}]}, None),
    ("points_list", ["validate", "{file}"],
     {"components": [{"id": "C1", "genus": 0}], "points": [["C1", "a"]]},
     None),
    ("id_list", ["validate", "{file}"],
     {"components": [{"id": ["x"], "genus": 0}]}, None),
]

# Requests per batch, by kind.  On top of these, every catalog group gets
# one projective or tame verdict and every malformed entry runs once.
# Both of those modes compute d(G) of the whole group, so each group costs
# about the same whichever the seed picks; an affine verdict computes d of
# G/p(G), which depends on p, so affine requests come from small groups.
# The batch size, 120, puts the reported tail (p95, six items from the top
# of a batch) in the middle of the eight groups whose verdicts take over
# 30 ms, rather than on the drop below them.
REQUEST_MIX = {"affine": 6, "validate": 6, "invariants": 4, "enumerate": 4,
               "glue": 4, "glue_bad": 1, "dot_config": 2, "dot_cover": 3}
SMALL_ORDER = 8     # enumerate --group
SCRIPT_ORDER = 12   # affine verdicts, glue scripts and sheet-graph covers


def _cover_json(comp_id, degree, gens):
    """Descriptor of a genus-0 component with monodromy <gens>, licensed by
    inertia at r, as written by hand in a gluing script."""
    config = _config(5, [{"id": comp_id, "genus": 0}],
                     {comp_id: ["a", "b", "r"]}, [])
    return {"configuration": config,
            "group": {"degree": degree, "generators": gens},
            "monodromy": {comp_id: gens},
            "gluings": [],
            "ramification": ([{"point": [comp_id, "r"], "inertia": gens}]
                             if gens else [])}


def _first_generating(base, elements, degree, order):
    base0 = [_zero(g) for g in base]
    for x in elements:
        if len(_closure(base0 + [x], degree)) == order:
            return _one(x)
    raise ValueError("no generating element")


def request_pool(catalog):
    """Every request the workload can draw besides MALFORMED, by kind, in
    a fixed order.  Each entry is (key, argv template, {placeholder: file
    content}) plus, for requests that must fail, the expected error code."""
    names = list(catalog)
    orders = {n: len(_catalog_elements(catalog, n)[1]) for n in names}
    pool = {kind: [] for kind in ("validate", "invariants", "realizable",
                                  "affine", "enumerate", "glue", "glue_bad",
                                  "dot_config", "dot_cover")}
    for cname, config in CONFIGS.items():
        pool["validate"].append((f"validate {cname}",
                                 ["validate", "{file}"], {"file": config}))
        pool["dot_config"].append((f"dot {cname}",
                                   ["export-dot", "{file}"], {"file": config}))
        pool["invariants"].append((f"invariants {cname}",
                                   ["invariants", "{file}"],
                                   {"file": config}))
    for name in names:
        for p in (2, 3, 5):
            for cname in PROJECTIVE:
                pool["realizable"].append((
                    f"realizable {name} p={p} projective {cname}",
                    ["realizable", "{file}", "--group", name,
                     "--char", str(p), "--mode", "projective"],
                    {"file": CONFIGS[cname]}))
            for mode in ("affine", "tame"):
                if mode == "affine" and orders[name] > SCRIPT_ORDER:
                    continue
                for cname in AFFINE:
                    pool["realizable" if mode == "tame" else "affine"].append((
                        f"realizable {name} p={p} {mode} {cname}",
                        ["realizable", "{file}", "--group", name,
                         "--char", str(p), "--mode", mode],
                        {"file": CONFIGS[cname]}))
        if orders[name] <= SMALL_ORDER:
            for cname in ("nodal", "theta"):
                pool["enumerate"].append((
                    f"enumerate {name} {cname}",
                    ["enumerate", "{file}", "--group", name],
                    {"file": CONFIGS[cname]}))
        if 1 < orders[name] <= SCRIPT_ORDER:
            degree, elements = _catalog_elements(catalog, name)
            gens = catalog[name]["generators"]
            gamma = _first_generating(gens[:-1], elements, degree,
                                      orders[name])
            same = {"covers": {"c": _cover_json("C1", degree, gens[:-1])},
                    "steps": [{"op": "same_component", "ambient": name,
                               "cover": "c", "gamma": gamma,
                               "y1": ["C1", "a"], "y2": ["C1", "b"],
                               "result": "out"}]}
            two = {"covers": {"c": _cover_json("C1", degree, gens[:1]),
                              "d": _cover_json("D1", degree, gens[1:])},
                   "steps": [{"op": "two_components", "group": name,
                              "cover1": "c", "cover2": "d",
                              "y1": ["C1", "a"], "y2": ["D1", "a"],
                              "result": "out"}]}
            pool["glue"].append((f"glue same {name}", ["glue", "{file}"],
                                 {"file": same}))
            pool["glue"].append((f"glue two {name}", ["glue", "{file}"],
                                 {"file": two}))
            nodal_cover = {"configuration": CONFIGS["nodal"], "group": name,
                           "monodromy": {},
                           "gluings": [{"class_index": 0,
                                        "branch": ["C1", "1"],
                                        "constant": gamma}]}
            pool["dot_cover"].append((f"dot cover {name}",
                                      ["export-dot", "{file}"],
                                      {"file": nodal_cover}))
            if orders[name] > 2:
                # the identity never generates a nontrivial group
                bad_gamma = json.loads(json.dumps(same))
                bad_gamma["covers"]["c"] = _cover_json("C1", degree, [])
                bad_gamma["steps"][0]["gamma"] = list(range(1, degree + 1))
                pool["glue_bad"].append((f"glue bad-gamma {name}",
                                         ["glue", "{file}"],
                                         {"file": bad_gamma},
                                         "NOT_GENERATING"))
    return pool


def requests_inputs(seed, catalog):
    rng = random.Random(f"requests:{seed}")
    pool = request_pool(catalog)
    items = []
    # one projective or tame verdict per catalog group, so every batch
    # carries the same groups; the seed picks the mode, configuration and p
    per_group: dict = {}
    for key, argv, files in pool["realizable"]:
        per_group.setdefault(argv[3], []).append((key, argv, files))
    for name in catalog:
        items.append(_request(rng.choice(per_group[name])))
    for kind, count in REQUEST_MIX.items():
        for entry in rng.sample(pool[kind], count):
            items.append(_request(entry))
    for name, argv, content, code in MALFORMED:
        items.append(_request((f"malformed {name}", argv,
                               {"file": content}, code)))
    rng.shuffle(items)
    return items


def _request(entry):
    """A request item; "code" is present only on requests that must fail."""
    key, argv, files, *code = entry
    item = {"key": key, "argv": argv, "files": files}
    if code:
        item["code"] = code[0]
    return item


def requests_prepare(items, workdir: Path):
    """Write each request's files; returns the argv lists to run."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, item in enumerate(items):
        paths = {}
        for slot, content in item["files"].items():
            path = workdir / f"{i}-{slot}.json"
            text = content if isinstance(content, str) else json.dumps(content)
            path.write_text(text, encoding="utf-8")
            paths[slot] = str(path)
        argvs.append([a.format(**paths) for a in item["argv"]])
    return argvs


_CODE = re.compile(r"^error: ([A-Z_]+)\b")
EMPTY = hashlib.sha256(b"").hexdigest()[:16]


def requests_run(item, ctx):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(ctx["argv"][ctx["index"]])
    match = _CODE.match(err.getvalue())
    stdout_digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return [code, match.group(1) if match else "", stdout_digest]


def requests_check(item, summary, ctx):
    code, error_code, stdout_digest = summary
    expected = ctx["expected"]
    if "code" in item:
        want = item["code"]
        if want is None:   # known crash: any stable DomainError code will do
            return code == 1 and error_code != "" and stdout_digest == EMPTY
        if want == "":     # validate reports violations on stdout
            return code == 1 and stdout_digest == expected[item["key"]]
        return code == 1 and error_code == want and stdout_digest == EMPTY
    return code == 0 and stdout_digest == expected[item["key"]]


# -- chain -----------------------------------------------------------------

PAD_WORDS = 2        # random words appended to the standard generators
PAD_LENGTH = 20      # letters per padding word; long words keep the chain
                     # cost of a family nearly the same from seed to seed
QUERIES = 10         # member words and odd permutations per group

# The groups of one batch, in order.  One item (order() plus the queries)
# takes from ~10 ms (M11, A8, S8) through ~35 ms (A9, M12, S9) to ~1.7 s
# (A12, S12), so per-item latencies form clusters.  The 17 copies of M11
# and 5 of M12 put the median and the 75th percentile (the tail reported
# for 32 items in three batches) inside a cluster instead of on the edge
# between two, where either would jump from seed to seed.  The copies are
# spread between the slow groups, so that the latencies behind the median
# and the tail are taken throughout the batch, not all in its first tenth
# of a second, when the host may happen to run fast or slow.
CHAIN_BATCH = ("M11", "A8", "M11", "M12", "M11", "A12", "M11", "S8",
               "M11", "M12", "M11", "A11", "M11", "A9", "M11", "M12",
               "M11", "S12", "M11", "S9", "M11", "M12", "M11", "S11",
               "M11", "A10", "M11", "M12", "M11", "S10", "M11", "M11")


def _standard_generators():
    out = {}
    for n in range(8, 13):
        out[f"S{n}"] = (n, [_cycles(n, [(1, 2)]),
                            _cycles(n, [tuple(range(1, n + 1))])])
        cycle = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
        out[f"A{n}"] = (n, [_cycles(n, [(1, 2, 3)]), _cycles(n, [cycle])])
    m11 = [_cycles(11, [tuple(range(1, 12))]),
           _cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)])]
    out["M11"] = (11, m11)
    out["M12"] = (12, [_cycles(12, [tuple(range(1, 12))]),
                       _cycles(12, [(3, 7, 11, 8), (4, 10, 5, 6)]),
                       _cycles(12, [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9),
                                    (7, 10)])])
    return out


def _known_order(name):
    n = int(name[1:])
    if name == "M11":
        return 7920
    if name == "M12":
        return 95040
    factorial = 1
    for k in range(2, n + 1):
        factorial *= k
    return factorial if name[0] == "S" else factorial // 2


def _word(rng, gens, length):
    w = rng.choice(gens)
    for _ in range(length - 1):
        w = _mul(w, rng.choice(gens))
    return w


def chain_inputs(seed, catalog):
    rng = random.Random(f"chain:{seed}")
    standard = _standard_generators()
    items = []
    for name in CHAIN_BATCH:
        degree, gens = standard[name]
        padded = gens + [_word(rng, gens, PAD_LENGTH) for _ in range(PAD_WORDS)]
        images = list(range(degree))
        rng.shuffle(images)
        t = tuple(images)
        t_inv = tuple(sorted(range(degree), key=lambda i: t[i]))
        conj = [_mul(_mul(t, g), t_inv) for g in padded]
        queries = [[_one(_word(rng, conj, rng.randint(5, 30))), True]
                   for _ in range(QUERIES)]
        even = name[0] != "S"
        for _ in range(QUERIES):
            x = list(range(degree))
            rng.shuffle(x)
            if _sign(x) == 1:
                x[0], x[1] = x[1], x[0]
            queries.append([_one(x), not even])
        items.append({"group": name, "order": _known_order(name),
                      "generators": [_one(g) for g in conj],
                      "queries": queries})
    # no shuffle: the interned-permutation table, and with it the cost of
    # each garbage collection, grows item by item, so a seeded order would
    # move latencies between seeds
    return items


def chain_run(item, ctx):
    G = groups.PermutationGroup.from_generators(
        [Perm.from_one_indexed(g) for g in item["generators"]])
    order = G.order()
    answers = [G.contains(Perm.from_one_indexed(q)) for q, _ in item["queries"]]
    return [order, answers]


def chain_check(item, summary, ctx):
    order, answers = summary
    return order == item["order"] and \
        answers == [want for _, want in item["queries"]]


# -- registry --------------------------------------------------------------

WORKLOADS = {
    "glue-sweep": (glue_inputs, glue_run, glue_check),
    "census-descent": (census_inputs, census_run, census_check),
    "requests": (requests_inputs, requests_run, requests_check),
    "chain": (chain_inputs, chain_run, chain_check),
}


def load_catalog():
    """Catalog name -> {"degree", "generators"}, through the public API."""
    return {name: pcatalog.group_to_json(pcatalog.catalog_group(name))
            for name in pcatalog.catalog_names()}
