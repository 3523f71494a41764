import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi1curves import perms
from pi1curves.errors import DomainError
from pi1curves.perms import Perm

import oracles

KERNEL = settings(derandomize=True, database=None, deadline=None,
                  max_examples=300)
# degrees 0-40; 0 and 1, which compose builds without itemgetter, often
DEGREES = st.one_of(st.just(0), st.just(1), st.integers(0, 40))


@st.composite
def images(draw, degree):
    """A permutation of range(degree), as a tuple or a list."""
    container = draw(st.sampled_from([tuple, list]))
    return container(draw(st.permutations(range(degree))))


@KERNEL
@given(st.data())
def test_kernel_agrees_with_the_reference(data):
    n = data.draw(DEGREES)
    a, b = data.draw(images(n)), data.draw(images(n))
    product, inverse = perms.compose(a, b), perms.invert(a)
    assert type(product) is tuple and type(inverse) is tuple
    assert product == oracles.compose(a, b)
    assert inverse == oracles.invert(a)
    assert perms.compose(a, inverse) == tuple(range(n))


@KERNEL
@given(st.data())
def test_compose_reads_any_row_of_positions(data):
    # the element index reads position rows of any length through others
    values = data.draw(st.lists(st.integers(), min_size=1, max_size=40))
    container = data.draw(st.sampled_from([tuple, list]))
    row = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=40))
    product = perms.compose(container(values), container(row))
    assert type(product) is tuple
    assert product == oracles.compose(values, row)


def test_short_products_are_tuples_and_identities():
    assert Perm(()) * Perm(()) == Perm(()) == Perm.identity(0)
    assert (Perm((0,)) * Perm((0,))).images == (0,)
    assert Perm((0,)).inverse == Perm((0,))
    for a in ([], [0], (), (0,)):
        assert perms.compose(a, a) == tuple(a)
        assert perms.invert(a) == tuple(a)
    assert perms.compose(["x"], [0, 0]) == ("x", "x")


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


def test_perm_is_the_tuple_of_its_images():
    # a one-field tuple: hash, equality and order are those of (images,)
    rng = random.Random(5)
    perms = []
    for _ in range(30):
        images = list(range(rng.randint(1, 6)))
        rng.shuffle(images)
        perms.append(Perm(tuple(images)))
    assert all(hash(p) == hash((p.images,)) for p in perms)
    assert all(p == (p.images,) and len(p) == 1 for p in perms)
    assert sorted(perms) == sorted(perms, key=lambda p: p.images)
    assert all(Perm.trusted(p.images) == p for p in perms)
    assert repr(perms[0]) == f"Perm[{perms[0].cycle_string()}]"


@pytest.mark.parametrize("images", [(0, 0), (1, 2), (0, 2, 1, 5), (-1, 0)])
def test_not_a_permutation(images):
    with pytest.raises(DomainError) as err:
        Perm(images)
    assert err.value.code == "NOT_A_PERMUTATION"
    with pytest.raises(DomainError) as err:
        Perm.identity(len(images))._replace(images=images)
    assert err.value.code == "NOT_A_PERMUTATION"
