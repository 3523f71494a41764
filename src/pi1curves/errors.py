"""Domain errors with machine-readable codes.

Every failure mode of the library raises DomainError carrying a stable
``code`` string (e.g. NOT_CONNECTED, NOT_PRIME).  INTERNAL_INVARIANT
marks a broken internal invariant (a bug, not bad input), checked with
require so that it holds under ``python -O`` too.  The CLI maps these to
exit status 1; usage errors exit with 2.
"""


class DomainError(Exception):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


def require(condition: bool, code: str, message: str = "") -> None:
    if not condition:
        raise DomainError(code, message)
