"""Finite permutation-group engine.

Group elements are plain image tuples inside the engine; every product of
image tuples or of position rows is perms.compose, one C call, and Perm
appears only at the API boundary (generators in, elements() out).  A
listed group's order is the length of its element index; order_at_most
lists at most its bound and remembers a search that stopped, and the
package lists a group before it asks for its order, so a listable group
never builds a chain for it.  Membership, and the order of a group not
listed (as in each GROUP_TOO_LARGE message), go through a stabilizer
chain, built by deterministic Schreier-Sims with sifting: every Schreier
generator is sifted through the deeper levels, only a residue that fails
to sift becomes a new strong generator, and a new level takes the smallest
point that residue moves.  The order is the product of the orbit sizes and
membership is a sift.  Everything that enumerates runs on the element
index of a group small enough to list (|G| <= ENUM_BOUND, or a caller's
smaller bound, checked by counting while listing, without a chain):
elements are numbered by their position in elements(), index() maps each
image tuple to its position, there is one multiplication table, of cached
left rows (each composed from its parent's row along the search tree of
elements(), one compose per row), and a subgroup is an int bitmask over
those positions (span), so the subset test is a & ~b == 0 and the order
is a.bit_count().  On the index run the cover calculus, Sylow subgroups,
normal closures, quotients, sigma(G), which is d(G) on a p-group, and one
join search over subgroups (_subgroup_levels) behind the lattice, Moebius
and Eulerian counting (μ kept per group) and d(G) of any other group,
which a pair probe (first, if G is non-abelian) or a sigma bound can cut
short; they raise GROUP_TOO_LARGE above their bound and build no chain.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import gcd, isqrt, prod
from random import Random
from typing import NamedTuple

from .errors import DomainError, require
from .perms import Perm, compose, invert

ENUM_BOUND = 10_000          # full element enumeration allowed up to here
MIN_GEN_BOUND = 2_000        # deterministic min_generators bound
LATTICE_BOUND = 200          # subgroup lattice bound
MAX_CHARACTERISTIC = 2 ** 31 - 1  # is_prime divides by trial up to the root


def is_prime(p: int) -> bool:
    require(p <= MAX_CHARACTERISTIC, "BAD_CHARACTERISTIC",
            f"{p} exceeds {MAX_CHARACTERISTIC}")
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _p_part(n: int, p: int) -> int:
    """The largest power of the prime p that divides n >= 1."""
    part = 1
    while n % (part * p) == 0:
        part *= p
    return part


# A stabilizer chain is a list of levels (base point, orbit, generators) on
# image tuples: the orbit maps each point q to (u, u^-1) with u(base) = q,
# and each strong generator added at the level is paired with its inverse.

def _sift(chain: list, g: tuple, start: int = 0) -> tuple:
    """Strip g through chain[start:]; g lies in the group of chain[start]
    iff the residue is the identity."""
    for base, orbit, _ in chain[start:]:
        coset = orbit.get(g[base])
        if coset is None:
            return g
        g = compose(coset[1], g)
    return g


def _extend(chain: list, depth: int, g: tuple, identity: tuple) -> None:
    """Add g, which fixes the base points above depth and does not sift
    through chain[depth:], as a strong generator at depth (a new level takes
    the smallest point g moves).  Each new Schreier generator u_q^-1 * s * u_p
    (every old orbit point p with g, every new one with every generator) is
    sifted through the deeper levels; a residue that is not the identity is
    added one level down.
    """
    if depth == len(chain):
        base = next(i for i, x in enumerate(g) if i != x)
        chain.append((base, {base: (identity, identity)}, []))
    _, orbit, gens = chain[depth]
    gens.append((g, invert(g)))
    pairs = [(p, gens[-1]) for p in orbit]
    while pairs:
        seen = len(orbit)
        for p, (s, s_inv) in pairs:
            u, u_inv = orbit[p]
            su = compose(s, u)
            coset = orbit.get(s[p])
            if coset is None:
                orbit[s[p]] = (su, compose(u_inv, s_inv))
                continue
            residue = _sift(chain, compose(coset[1], su), depth + 1)
            if residue != identity:
                _extend(chain, depth + 1, residue, identity)
        pairs = [(p, gen) for p in list(orbit)[seen:] for gen in gens]


class PermutationGroup:
    """A group given by its degree and generators, which alone decide
    equality and the hash; _memo keeps what is computed from them (the
    chain, the element index, its rows, the bound a stopped listing
    passed, and μ on the subgroup lattice, once it is built).  Every
    given generator, an identity too, must have the degree
    (DEGREE_MISMATCH); identities and repeats are then dropped."""
    __slots__ = ("degree", "generators", "_memo")

    def __init__(self, degree: int, generators):
        kept = {}  # the nontrivial generators, each once, in order
        for g in generators:
            if g.degree != degree:
                raise DomainError("DEGREE_MISMATCH",
                                  f"generator degree {g.degree} != {degree}")
            if not g.is_identity():
                kept[g] = None
        self.degree, self.generators, self._memo = degree, tuple(kept), {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.generators) == \
            (other.degree, other.generators)

    def __hash__(self):
        return hash((self.degree, self.generators))

    def __repr__(self):
        return (f"PermutationGroup(degree={self.degree!r}, "
                f"generators={self.generators!r})")

    @staticmethod
    def from_generators(generators, degree=None) -> "PermutationGroup":
        generators = tuple(generators)
        if degree is None:
            require(bool(generators), "DEGREE_MISMATCH",
                    "degree required for the trivial group")
            degree = generators[0].degree
        return PermutationGroup(degree, generators)

    @staticmethod
    def trivial(degree: int) -> "PermutationGroup":
        return PermutationGroup(degree, ())

    # -- order / membership -------------------------------------------------

    def _chain(self) -> list:
        if "chain" not in self._memo:
            identity, chain = tuple(range(self.degree)), []
            for g in self.generators:
                residue = _sift(chain, g.images)
                if residue != identity:
                    _extend(chain, 0, residue, identity)
            self._memo["chain"] = chain
        return self._memo["chain"]

    def order(self) -> int:
        """|G|: the length of the element index once the group has been
        listed, else the product of the chain's orbit sizes."""
        elements = self._memo.get("elements")
        if elements is not None:
            return len(elements)
        return prod(len(orbit) for _, orbit, _ in self._chain())

    def contains(self, perm) -> bool:
        if perm.degree != self.degree:
            raise DomainError("DEGREE_MISMATCH",
                              f"{perm.degree} != {self.degree}")
        return _sift(self._chain(), perm.images) == tuple(range(self.degree))

    def __contains__(self, perm) -> bool:
        return self.contains(perm)

    def elements(self, bound: int = ENUM_BOUND) -> tuple:
        """All elements, sorted; GROUP_TOO_LARGE above bound <= ENUM_BOUND."""
        if not self.order_at_most(bound):
            raise DomainError("GROUP_TOO_LARGE",
                              f"|G| = {self.order()} > {bound}")
        return self._memo["elements"]

    def order_at_most(self, bound: int) -> bool:
        """Whether |G| <= bound: lists G, with the search tree and left rows
        that _tree_row reads, unless the search passes min(bound, ENUM_BOUND)
        elements (remembered: no call searches that far again); no chain is
        built unless bound > ENUM_BOUND."""
        limit = min(bound, ENUM_BOUND)
        passed = self._memo.get("passed", -1)  # |G| > passed
        if "elements" not in self._memo and limit > passed:
            gens = [g.images for g in self.generators]
            queue = [tuple(range(self.degree))]
            found = {queue[0]: 0}            # image tuple -> queue position
            via, parent = [0], [0]           # x = gens[via[x]] * parent[x]
            left = [[] for _ in gens]        # queue position of g * x
            for b, x in enumerate(queue):  # the queue grows as we go
                for k, g in enumerate(gens):
                    y = compose(g, x)
                    j = found.get(y)
                    if j is None:
                        j = found[y] = len(queue)
                        queue.append(y)
                        via.append(k)
                        parent.append(b)
                    left[k].append(j)
                if len(queue) > limit:
                    self._memo["passed"] = limit  # |G| > limit
                    break
            else:
                order = sorted(range(len(queue)), key=queue.__getitem__)
                index = {queue[b]: i for i, b in enumerate(order)}
                rank = list(map(index.__getitem__, queue))

                def ranked(values):  # positions over the queue -> sorted
                    return compose(rank, compose(values, order))

                self._memo["tree"] = compose(via, order), ranked(parent)
                self._memo["left gens"] = [ranked(row) for row in left]
                self._memo["index"] = index
                self._memo["elements"] = tuple(map(Perm.trusted, index))
        if "elements" in self._memo:
            return len(self._memo["elements"]) <= bound
        return bound > ENUM_BOUND and self.order() <= bound

    # -- element index ------------------------------------------------------
    #
    # The cover calculus works on positions in elements() rather than on
    # Perm objects.  The identity is always position 0: its image tuple is
    # the smallest in sort order.

    def index(self) -> dict:
        """Image tuple -> position in elements(), keys in that order."""
        if "index" not in self._memo:
            self.elements()
        return self._memo["index"]

    def left_row(self, i: int) -> tuple:
        """Left multiplication by element i: position of g*x for each x."""
        rows = self._memo.get("left")
        if rows is None:
            n = len(self.elements())
            rows = self._memo["left"] = [tuple(range(n))] + [None] * (n - 1)
        return rows[i] or self._tree_row(rows, i)

    def _tree_row(self, rows: list, i: int) -> tuple:
        """Row i composed along the search tree: for x = g * y, left(x) =
        left(g) o left(y).  The tree can be |G|-1 deep: after 32 steps up
        without a known row, the walk takes the row it stands on from
        products."""
        (via, parent), gens = self._memo["tree"], self._memo["left gens"]
        path = []
        while rows[i] is None and len(path) < 32:
            path.append(i)
            i = parent[i]
        row = rows[i]
        if row is None:
            index, g = self.index(), self.elements()[i].images
            row = rows[i] = tuple(index[compose(g, x)] for x in index)
        for j in reversed(path):
            row = rows[j] = compose(gens[via[j]], row)
        return row

    def span(self, positions) -> int:
        """The subgroup generated by the elements at these positions, as a
        bitmask over positions in elements(): bit i is set iff element i
        lies in it.  The empty span is the trivial subgroup, mask 1."""
        return orbit([self.left_row(i) for i in set(positions)])

    def coset_map(self, positions):
        """The right cosets H*x of the subgroup H generated by the elements
        at these positions: (coset of each position, smallest position in
        each coset).

        Cosets are the orbits of H's left rows, numbered in order of their
        smallest element; H is the whole group iff there is one coset.
        """
        rows = [self.left_row(i) for i in positions]
        n = len(self.elements())
        if not rows:
            return range(n), range(n)
        ids = [-1] * n
        reps = []
        for x in range(n):
            if ids[x] >= 0:
                continue
            ids[x] = len(reps)
            stack = [x]
            while stack:
                y = stack.pop()
                for row in rows:
                    z = row[y]
                    if ids[z] < 0:
                        ids[z] = len(reps)
                        stack.append(z)
            reps.append(x)
        return ids, reps


def orbit(rows) -> int:
    """The orbit of position 0 under the bijections of positions in rows
    (row[x] is the image of x), as a bitmask: bit x is set iff x is in it."""
    mask, queue = 1, [0]
    for x in queue:  # breadth first: the queue grows as we go
        for row in rows:
            y = row[x]
            if not mask >> y & 1:
                mask |= 1 << y
                queue.append(y)
    return mask


# -- basic constructions ----------------------------------------------------

def subgroup_positions(group: PermutationGroup, sub: PermutationGroup):
    """Positions of sub's generators in group.elements(), or None unless
    sub is a subgroup of group."""
    index = group.index()
    positions = [index.get(h.images) for h in sub.generators]
    if sub.degree != group.degree or None in positions:
        return None
    return positions


def _normal_closure(group: PermutationGroup, perms):
    """The normal closure of perms in group, as (the positions of its
    generators: the nontrivial perms, then every conjugate that was not yet
    in the closure, in the order found; its mask)."""
    index = group.index()
    gens = []
    for s in perms:
        if s.degree != group.degree:
            raise DomainError("DEGREE_MISMATCH", f"{s.degree} != {group.degree}")
        if s.images not in index:
            raise DomainError("NOT_A_MEMBER", f"{s} not in group")
        if index[s.images]:
            gens.append(index[s.images])
    mask, elements = group.span(gens), group.elements()
    conjugators = [(g.images, g.inverse.images) for g in group.generators]
    for n in gens:  # conjugates only the generators, as they are added
        x = elements[n].images
        for g, g_inv in conjugators:
            c = index[compose(compose(g, x), g_inv)]
            if not mask >> c & 1:
                gens.append(c)
                mask = group.span(gens)
    return gens, mask


def normal_closure(group: PermutationGroup, perms) -> PermutationGroup:
    """Smallest normal subgroup of `group` containing `perms`."""
    elements = group.elements()
    return PermutationGroup.from_generators(
        [elements[i] for i in _normal_closure(group, perms)[0]], group.degree)


def sylow_subgroup(group: PermutationGroup, p: int) -> PermutationGroup:
    """A Sylow p-subgroup, by ascending chain through normalizing p-elements."""
    require(is_prime(p), "NOT_PRIME", f"p = {p}")
    group.order_at_most(ENUM_BOUND)  # then order() is the listing's
    p_part = _p_part(group.order(), p)
    if p_part == 1:
        return PermutationGroup.trivial(group.degree)
    elements, index = group.elements(), group.index()
    mask, gens = 1, []
    while mask.bit_count() < p_part:
        for i, x in enumerate(elements):
            if mask >> i & 1:
                continue
            # p-power part of x
            k = x.order()
            m = _p_part(k, p)
            if m == 1:
                continue
            j = index[reduce(compose, [x.images] * (k // m))]
            if mask >> j & 1:  # the identity is position 0, always set
                continue
            # y must normalize the current p-subgroup
            y, y_inv = elements[j].images, elements[j].inverse.images
            if all(mask >> index[compose(compose(y, elements[g].images),
                                         y_inv)] & 1 for g in gens):
                gens.append(j)
                mask = group.span(gens)
                break
        else:  # cannot happen for a genuine group; guard anyway
            raise DomainError("INTERNAL_INVARIANT", "sylow ascent stalled")
    return PermutationGroup.from_generators([elements[i] for i in gens],
                                            group.degree)


def quasi_p_part(group: PermutationGroup, p: int) -> PermutationGroup:
    """p(G): the normal subgroup generated by all Sylow p-subgroups.

    p = 0 is the characteristic-zero regime and yields the trivial group.
    """
    if p == 0:
        return PermutationGroup.trivial(group.degree)
    return normal_closure(group, sylow_subgroup(group, p).generators)


class GroupHom(NamedTuple):
    """Quotient presentation G -> G/N with image acting on the cosets of N,
    numbered in order of their smallest element."""
    source: PermutationGroup
    image: PermutationGroup
    cosets: list   # coset of each position
    reps: tuple    # smallest position of each coset

    def map_element(self, g):
        """Image of g as a permutation of the cosets."""
        row = self.source.left_row(self.source.index()[g.images])
        return Perm(tuple(self.cosets[row[r]] for r in self.reps))


def quotient(group: PermutationGroup, normal: PermutationGroup) -> GroupHom:
    positions = subgroup_positions(group, normal)
    require(positions is not None, "NOT_A_MEMBER", "kernel is not a subgroup")
    mask = group.span(positions)
    require(_normal_closure(group, normal.generators)[1] == mask, "NOT_NORMAL",
            "subgroup is not normal")
    cosets, reps = group.coset_map(positions)
    hom = GroupHom(group, None, cosets, tuple(reps))
    image = PermutationGroup.from_generators(
        [hom.map_element(g) for g in group.generators], max(1, len(reps)))
    require(len(cosets) == mask.bit_count() * len(image.elements()),
            "INTERNAL_INVARIANT", "|G| != |N| * |G/N|")
    return hom._replace(image=image)


# -- subgroup search --------------------------------------------------------

def _subgroup_levels(group: PermutationGroup):
    """The nontrivial subgroups, level by level, as {mask: positions that
    generate it}.  Level 1 holds the cyclic subgroups, each with the
    smallest position that generates it: the powers x^k of each position
    x are read off its left row, and its generators, the x^k with k prime
    to the order, are not visited again.  Level k+1 joins each entry of
    level k with every cyclic subgroup not inside it and keeps the masks
    not seen before; the search stops at the first empty level.

    This is exact: <h_1..h_k> is the join of <h_1..h_k-1>, found at a
    level j < k, with <h_k>, so it is found by level j+1.  So every
    subgroup H is found, and it first appears at level d(H)."""
    cyclic: dict = {}
    found = bytearray(len(group.elements()))  # generates a cyclic subgroup
    for i in range(1, len(found)):  # the identity is position 0
        if found[i]:
            continue
        row, powers = group.left_row(i), [0]
        while row[powers[-1]]:
            powers.append(row[powers[-1]])
        for k, x in enumerate(powers):
            if gcd(k, len(powers)) == 1:
                found[x] = 1
        cyclic[sum(1 << x for x in powers)] = (i,)
    level, seen = cyclic, set(cyclic)
    while level:
        yield level
        joins: dict = {}
        for mask, gens in level.items():
            for (i,) in cyclic.values():
                if not mask >> i & 1:
                    join = group.span(gens + (i,))
                    if join not in seen:
                        seen.add(join)
                        joins[join] = gens + (i,)
        level = joins


def min_generators(group: PermutationGroup, seed: int = 0) -> int:
    """d(G), exact for every seed; GROUP_TOO_LARGE above MIN_GEN_BOUND.
    A p-group has d = σ_p(G) by Burnside's basis theorem (Φ(P) = P'P^p).
    Else level k of _subgroup_levels exhausted proves d > k, and a
    generating probe (of 64 seeded (k+1)-tuples) proves d = k+1; the pair
    probe comes before level 1 when two generators do not commute.  Past
    level 1, d >= L = max σ_p(G) over the primes p^3 | |G| (σ_p <=
    v_p(|G|)), so when L > 2 a generating L-tuple probe proves d = L."""
    order = len(group.elements(MIN_GEN_BOUND))
    primes, rest = [], order  # the primes of |G|, by trial division
    for p in range(2, isqrt(order) + 1):
        if rest % p == 0:
            primes.append(p)
            rest //= _p_part(rest, p)
    primes += [rest] if rest > 1 else []
    if len(primes) < 2:  # trivial, or a p-group
        return abelianization_p_rank(group, primes[0]) if primes else 0
    full = (1 << order) - 1
    nontrivial = range(1, order)  # the identity is position 0
    rng = Random(seed)

    def probes(size):
        return (group.span([rng.choice(nontrivial) for _ in range(size)])
                for _ in range(64))

    gens = [g.images for g in group.generators]
    abelian = all(compose(a, b) == compose(b, a) for a in gens for b in gens)
    if not abelian and full in probes(2):  # not cyclic, so d >= 2
        return 2
    for k, level in enumerate(_subgroup_levels(group), 1):
        if full in level:
            return k
        if (abelian or k > 1) and full in probes(k + 1):  # pairs once
            return k + 1
        if k == 1:  # the σ bound, once, before level 2 is built
            sigma = max((abelianization_p_rank(group, p) for p in primes
                         if order % p ** 3 == 0), default=0)
            if sigma > 2 and full in probes(sigma):
                return sigma
    raise DomainError("INTERNAL_INVARIANT", "no level holds the group")


# -- abelianization ---------------------------------------------------------

def _commutators(group: PermutationGroup) -> list:
    gens = [(g.images, invert(g.images)) for g in group.generators]
    return [Perm.trusted(compose(compose(a, b), compose(a_inv, b_inv)))
            for a, a_inv in gens for b, b_inv in gens]


def derived_subgroup(group: PermutationGroup) -> PermutationGroup:
    return normal_closure(group, _commutators(group))


def abelianization(group: PermutationGroup) -> GroupHom:
    return quotient(group, derived_subgroup(group))


def abelianization_p_rank(group: PermutationGroup, p: int) -> int:
    """σ(G): rank of the maximal elementary abelian p-quotient G/G'G^p,
    where G'G^p is the normal closure of the generators' commutators and
    p-th powers; g^p is g^(p mod the order of g), so p may be large."""
    require(is_prime(p), "NOT_PRIME", f"p = {p}")
    elements = group.elements()  # GROUP_TOO_LARGE before any power
    powers = [Perm.trusted(reduce(compose, [g.images] * (p % g.order()),
                                  elements[0].images))
              for g in group.generators]
    _, mask = _normal_closure(group, _commutators(group) + powers)
    order = len(elements) // mask.bit_count()
    rank = 0
    while p ** rank < order:
        rank += 1
    require(p ** rank == order, "INTERNAL_INVARIANT",
            "elementary abelian quotient is not a p-group")
    return rank


# -- subgroup lattice and counting ------------------------------------------

def _lattice_masks(group: PermutationGroup) -> list:
    """All subgroups as masks (PermutationGroup.span): the trivial one and
    every level of _subgroup_levels, sorted by order and then by the
    sorted list of their element positions; GROUP_TOO_LARGE above
    LATTICE_BOUND."""
    group.elements(LATTICE_BOUND)
    masks = [1, *itertools.chain.from_iterable(_subgroup_levels(group))]
    return sorted(masks, key=lambda m: (m.bit_count(), _positions_of(m)))


def _positions_of(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _moebius_masks(group: PermutationGroup) -> dict:
    """μ(H, G) as {mask of H: μ}, largest subgroups first, kept in the
    group's _memo once the lattice is built (so a group above
    LATTICE_BOUND raises GROUP_TOO_LARGE on every call)."""
    if "moebius" not in group._memo:
        mu: dict = {}
        for h in sorted(_lattice_masks(group), key=lambda m: -m.bit_count()):
            # every subgroup already in mu is at least as large as h, so the
            # proper overgroups of h among them are exactly its supersets
            mu[h] = -sum(m for k, m in mu.items() if not h & ~k) if mu else 1
        group._memo["moebius"] = mu
    return group._memo["moebius"]


def _frozenset_of(group: PermutationGroup, mask: int) -> frozenset:
    elements = group.elements()
    return frozenset(elements[i] for i in _positions_of(mask))


def subgroup_lattice(group: PermutationGroup):
    """All subgroups (up to equality) as frozensets of elements, sorted by
    order and then by their sorted elements.

    Computed level by level from the cyclic subgroups (_subgroup_levels).
    """
    return [_frozenset_of(group, m) for m in _lattice_masks(group)]


def moebius(group: PermutationGroup):
    """Moebius function μ(H, G) on the subgroup lattice, as {H: μ}."""
    return {_frozenset_of(group, h): m
            for h, m in _moebius_masks(group).items()}


def eulerian(group: PermutationGroup, k: int) -> int:
    """φ_k(G): the number of generating k-tuples, via Moebius inversion."""
    return sum(m * h.bit_count() ** k
               for h, m in _moebius_masks(group).items())


def is_p_group(group: PermutationGroup, p: int) -> bool:
    order = group.order()
    return _p_part(order, p) == order


def nakajima_tG(group: PermutationGroup, p: int):
    """t_G, the minimal generator count of the augmentation ideal.

    Exact only for p-groups (where the group algebra is local and
    t_G = d(G) = σ_p(G), by Burnside's basis theorem); returns None
    (Unknown) otherwise.
    """
    require(is_prime(p), "NOT_PRIME", f"p = {p}")
    group.order_at_most(MIN_GEN_BOUND)  # then order() is the listing's
    if not is_p_group(group, p):
        return None
    return abelianization_p_rank(group, p)
