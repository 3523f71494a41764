"""Domain errors with machine-readable codes, and the JSON boundary.

Every failure mode of the library raises DomainError carrying a stable
``code`` string (e.g. NOT_CONNECTED, NOT_PRIME).  INTERNAL_INVARIANT
marks a broken internal invariant (a bug, not bad input), checked with
require so that it holds under ``python -O`` too.  The CLI maps these to
exit status 1; usage errors exit with 2.

JSON input is read by read_json and checked by fields (required and unknown
fields) and typed (JSON types), each given its kind of file's code.
"""

import json


class DomainError(Exception):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


def require(condition: bool, code: str, message: str = "") -> None:
    if not condition:
        raise DomainError(code, message)


def typed(value, kind: type, what: str, code: str):
    """value, when its type is exactly kind (so a bool is not an int)."""
    if type(value) is not kind:
        raise DomainError(code, f"{what} must be {kind.__name__}, not {value!r}")
    return value


def fields(data, what: str, code: str, required, optional=()) -> dict:
    """data, when it is a JSON object with every required field and no
    field outside required and optional."""
    typed(data, dict, what, code)
    missing = [f for f in required if f not in data]
    if missing:  # messages are formatted only on failure
        raise DomainError(code, f"{what}: missing fields {missing}")
    unknown = [f for f in data if f not in required and f not in optional]
    if unknown:
        raise DomainError(code, f"{what}: unknown fields {sorted(unknown)}")
    return data


def read_json(path, code: str, label: str):
    """The parsed content of a UTF-8 JSON file; a file that cannot be read,
    decoded or parsed is DomainError(code) with the label in front."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(code, f"{label}: {exc}")
