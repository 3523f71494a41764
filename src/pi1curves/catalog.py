"""Small-group catalog: every group of order <= 24, plus A5.

The catalog is shipped as JSON data (data/catalog.json) mapping names to
{"degree": d, "generators": [[...], ...]} with 1-indexed image arrays;
PI1_CATALOG_PATH names another file.  One cache reads the file and builds
every group once per process, at the first lookup or listing of names.

The builders in tests/catalog_builders.py regenerate the data, and the
test suite checks the shipped file against them.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from importlib import resources

from .errors import DomainError, fields, read_json, typed
from .groups import PermutationGroup
from .perms import Perm


# -- JSON data --------------------------------------------------------------

def group_to_json(group: PermutationGroup) -> dict:
    return {"degree": group.degree,
            "generators": [g.to_one_indexed() for g in group.generators]}


# even with no generators, a group's chain and elements hold range(degree)
MAX_DEGREE = 10_000


def group_from_json(data) -> PermutationGroup:
    code = "BAD_GROUP_FILE"
    fields(data, "group", code, ("degree", "generators"))
    degree = typed(data["degree"], int, "degree", code)
    if not 1 <= degree <= MAX_DEGREE:
        raise DomainError(code, f"degree must be in 1..{MAX_DEGREE}, "
                                f"not {degree}")
    return PermutationGroup.from_generators(
        [Perm.from_one_indexed(images) for images in
         typed(data["generators"], list, "generators", code)], degree)


@lru_cache(maxsize=None)
def _catalog_groups() -> dict:
    """name -> group, read and built once: each keeps its own index."""
    path = os.environ.get("PI1_CATALOG_PATH")
    if path:
        data = read_json(path, "BAD_GROUP_FILE", f"PI1_CATALOG_PATH {path}")
    else:
        ref = resources.files(__package__) / "data" / "catalog.json"
        data = json.loads(ref.read_text(encoding="utf-8"))
    typed(data, dict, "catalog", "BAD_GROUP_FILE")
    return {n: group_from_json(e) for n, e in data.items()}


def catalog_names() -> list:
    return list(_catalog_groups())


def catalog_group(name: str) -> PermutationGroup:
    groups = _catalog_groups()
    if name not in groups:
        raise DomainError("UNKNOWN_GROUP", f"no catalog group named {name!r}")
    return groups[name]


def catalog_groups(max_order=None):
    """(name, group) pairs, optionally capped by order_at_most, in order."""
    for name, group in _catalog_groups().items():
        if max_order is None or group.order_at_most(max_order):
            yield name, group
