import random

import pytest

from pi1curves.errors import DomainError
from pi1curves.perms import Perm


def test_identity_and_composition():
    e = Perm.identity(4)
    a = Perm.from_cycles(4, [(1, 2, 3)])
    assert a * e == e * a == a
    assert (a * a * a).is_identity()
    assert a.order() == 3


def test_composition_convention():
    # (a*b)(x) = a(b(x))
    a = Perm.from_cycles(3, [(1, 2)])
    b = Perm.from_cycles(3, [(2, 3)])
    ab = a * b
    assert ab(b.inverse(a.inverse(0))) == 0
    assert ab(2) == a(b(2))


def test_inverse_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        images = list(range(n))
        rng.shuffle(images)
        p = Perm(tuple(images))
        assert (p * p.inverse).is_identity()
        assert (p.inverse * p).is_identity()


def test_order_is_smallest_identity_power():
    rng = random.Random(3)
    for _ in range(50):
        images = list(range(rng.randint(1, 12)))
        rng.shuffle(images)
        p = Perm(tuple(images))
        power, k = p, 1
        while not power.is_identity():
            power, k = power * p, k + 1
        assert p.order() == k
    assert Perm.from_cycles(5, [(1, 2), (3, 4, 5)]).order() == 6
    assert Perm.identity(1).order() == 1


def test_one_indexed_round_trip():
    p = Perm.from_cycles(5, [(1, 3, 5)])
    assert Perm.from_one_indexed(p.to_one_indexed()) == p


def test_degree_mismatch():
    with pytest.raises(DomainError) as err:
        Perm.identity(3) * Perm.identity(4)
    assert err.value.code == "DEGREE_MISMATCH"


def test_cycle_string():
    assert Perm.from_cycles(4, [(1, 2), (3, 4)]).cycle_string() == "(1 2)(3 4)"
    assert Perm.identity(3).cycle_string() == "()"
