"""Permutations on {1..deg}, stored as 0-indexed image tuples.

Composition follows function convention: (a * b)(x) = a(b(x)).
The JSON wire format uses 1-indexed image arrays ([2,1,3] swaps 1 and 2).
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import itemgetter

from .errors import DomainError, typed

_new = tuple.__new__


class Perm(namedtuple("Perm", "images")):
    """A permutation as the one-field tuple (images,), where images[i] is
    the image of point i (0-indexed); it hashes, compares and sorts in C,
    as its images do."""
    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(len(images))):
            raise DomainError("NOT_A_PERMUTATION", f"bad image array {images}")
        return _new(cls, (images,))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates as well
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(tuple(range(degree)))

    @staticmethod
    def trusted(images: tuple) -> "Perm":
        """A Perm on images known to be a permutation, unvalidated."""
        return _new(Perm, (images,))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        """Build a permutation from 1-indexed cycles, e.g. [(1,2,3)]."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b - 1
        return Perm(tuple(images))

    @staticmethod
    def from_one_indexed(images) -> "Perm":
        """From a JSON image array.  Every image must be an int: a float or
        bool would compare equal to one and pass as a permutation."""
        typed(images, list, "image array", "NOT_A_PERMUTATION")
        if not all(type(i) is int for i in images):
            raise DomainError("NOT_A_PERMUTATION",
                              f"non-integer image in {images!r}")
        return Perm(tuple(i - 1 for i in images))

    def to_one_indexed(self) -> list[int]:
        return [i + 1 for i in self.images]

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DomainError("DEGREE_MISMATCH",
                              f"{len(a)} != {len(b)}")
        return _new(Perm, (compose(a, b),))

    @property
    def inverse(self) -> "Perm":
        return _new(Perm, (invert(self.images),))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> list:
        """The cycles of length at least 2, 0-indexed, each starting at its
        smallest point, in the order of those points."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(cycle)
        return out

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(str(c + 1) for c in cycle) + ")"
                       for cycle in self.cycles()) or "()"

    def __repr__(self):
        return f"Perm[{self.cycle_string()}]"


def compose(a, b) -> tuple:
    """a * b on image tuples (or lists, or rows of positions): the tuple of
    a[i] for i in b, by itemgetter, which gives a bare item for one i."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[i] for i in b)


def invert(a) -> tuple:
    inverse = [0] * len(a)
    for i, x in enumerate(a):
        inverse[x] = i
    return tuple(inverse)


_INTERNED: dict = {}  # always empty; perfbench/worker.py reports its size
