import json
import os
import subprocess
import sys

import pytest

from pi1curves.catalog import (
    catalog_group,
    catalog_names,
    catalog_groups,
    group_from_json,
    group_to_json,
)
from pi1curves.errors import DomainError
from pi1curves.groups import abelianization, derived_subgroup, min_generators

from catalog_builders import build_catalog

# number of isomorphism classes of groups of each order 1..24
CLASS_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5,
                1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15]


def _invariant(G):
    """A cheap isomorphism invariant: order profile plus a few subgroup
    orders and the abelianization's order profile."""
    elems = G.elements()
    orders = tuple(sorted(x.order() for x in elems))
    ab = abelianization(G).image
    ab_orders = tuple(sorted(x.order() for x in ab.elements()))
    center = sum(1 for x in elems if all(x * y == y * x for y in elems))
    return (G.order(), orders, derived_subgroup(G).order(), center, ab_orders)


def test_counts_per_order():
    names = catalog_names()
    seen = {}
    for name in names:
        order = catalog_group(name).order()
        seen.setdefault(order, []).append(name)
    for order, expected in enumerate(CLASS_COUNTS, start=1):
        got = seen.get(order, [])
        # D3 and S3 are the same class under two names
        distinct = len(got) - (1 if order == 6 else 0)
        assert distinct == expected, (order, got)
    assert "A5" in names


def test_invariants_distinguish_classes():
    groups = [(name, catalog_group(name)) for name in catalog_names()
              if catalog_group(name).order() <= 24]
    by_invariant = {}
    for name, G in groups:
        by_invariant.setdefault(_invariant(G), []).append(name)
    collisions = [v for v in by_invariant.values() if len(v) > 1]
    assert collisions == [["D3", "S3"]]


def test_shipped_json_matches_builders():
    shipped = {name: catalog_group(name) for name in catalog_names()}
    rebuilt = build_catalog()
    assert set(shipped) == set(rebuilt)
    for name in shipped:
        assert shipped[name].elements() == rebuilt[name].elements(), name


def test_group_json_round_trip():
    for name in ("S3", "Q8", "SL23", "A5"):
        G = catalog_group(name)
        assert group_from_json(group_to_json(G)).elements() == G.elements()


def test_catalog_groups_bound():
    small = catalog_groups(8)
    assert all(G.order() <= 8 for _, G in small)


def test_some_known_structure():
    assert catalog_group("Q8").order() == 8
    assert min_generators(catalog_group("Q8")) == 2
    assert catalog_group("SL23").order() == 24
    assert derived_subgroup(catalog_group("SL23")).order() == 8  # Q8
    assert catalog_group("F20").order() == 20
    assert derived_subgroup(catalog_group("F20")).order() == 5


def test_catalog_groups_are_shared():
    # one instance per process, so its chain, elements and rows are kept
    assert catalog_group("S4") is catalog_group("S4")
    assert dict(catalog_groups(4))["C4"] is catalog_group("C4")
    with pytest.raises(DomainError) as err:
        catalog_group("NOPE")
    assert err.value.code == "UNKNOWN_GROUP"


@pytest.mark.parametrize("data", [
    {"C5only": group_to_json(catalog_group("C5")),
     "bad": {"degree": "3", "generators": [[2, 3, 1]]}},
    ["C5only"]], ids=["bad_entry", "not_an_object"])
def test_catalog_path_malformed_entry_fails_every_lookup(tmp_path, data):
    # every entry is validated at the first lookup, not only the one named
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(data))
    code = (
        "from pi1curves.catalog import catalog_group;"
        "from pi1curves.errors import DomainError\n"
        "try:\n"
        "    catalog_group('C5only')\n"
        "except DomainError as exc:\n"
        "    assert exc.code == 'BAD_GROUP_FILE', exc\n"
        "else:\n"
        "    raise SystemExit('no error')"
    )
    env = dict(os.environ, PI1_CATALOG_PATH=str(path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_catalog_path_override(tmp_path):
    data = {"C5only": group_to_json(catalog_group("C5"))}
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(data))
    code = (
        "from pi1curves.catalog import catalog_names, catalog_group;"
        "assert catalog_names() == ['C5only'];"
        "assert catalog_group('C5only').order() == 5"
    )
    env = dict(os.environ, PI1_CATALOG_PATH=str(path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
