"""The commutator pairing on pairs (element, character) and the structural
abelian-index bound.

For a base group K of order m, points are pairs p = (k, l) with k in K and
l a character.  The exponent pairing

    e((k, l), (k', l')) = <l', k> - <l, k'>   (mod m)

is exactly the central exponent of the theta-group commutator of any two
lifts of p and p'.  Abelian subgroups upstairs that contain the center
correspond to isotropic subgroups down here, maximal isotropic subgroups
have order m, and therefore the maximal abelian order is m * m and the
minimal abelian index is exactly m.  That closed form is the structural
route; the brute-force route searches the pairing space's table for the
largest subgroup on which the pairing vanishes.  A point's index is
rank(k)*m + rank(l) by the base's codec, the theta index without its a
digit, and the table and the isotropy masks come from the base's unchecked
_add and _pairing on the points it enumerates, not from the theta law.
"""

from __future__ import annotations

from typing import NamedTuple

from .abelian import Coords, ENUMERATION_CAP, FiniteAbelianGroup, check_cap
from .abelian import check_int, index_tuple
from .lattice import ConcreteGroup, DEFAULT_ORACLE_CAP, _max_related

Point = tuple[Coords, Coords]


class PairingSpace(NamedTuple):
    """The group K + K^ of (element, character) pairs with its pairing."""

    base: FiniteAbelianGroup

    @property
    def m(self) -> int:
        return self.base.order

    @property
    def order(self) -> int:
        return self.base.order ** 2

    def zero(self) -> Point:
        z = self.base.zero()
        return (z, z)

    def check_point(self, p: Point) -> None:
        """ValueError naming p unless it is a 2-tuple of base elements."""
        if isinstance(p, tuple) and len(p) == 2:
            try:
                self.base.check_element(p[0])
                self.base.check_element(p[1])
                return
            except ValueError:
                pass
        raise ValueError(
            f"point {p!r} is not a pair of elements of {self.base.spec_string()}"
        )

    def add(self, p: Point, q: Point) -> Point:
        self.check_point(p)
        self.check_point(q)
        return tuple(map(self.base._add, p, q))

    def neg(self, p: Point) -> Point:
        self.check_point(p)
        return tuple(map(self.base._neg, p))

    def pairing(self, p: Point, q: Point) -> int:
        """Antisymmetric, bilinear, nondegenerate exponent pairing mod m: the
        exponent of the central commutator of any theta-group lifts of p, q."""
        self.check_point(p)
        self.check_point(q)
        return self._pairing(p, q)

    def _pairing(self, p: Point, q: Point) -> int:
        """pairing(p, q), unchecked: the caller has validated p and q."""
        (k, l), (k2, l2) = p, q
        return (self.base._pairing(l2, k) - self.base._pairing(l, k2)) % self.m

    def points(self, cap: int = ENUMERATION_CAP) -> list[Point]:
        """All |K|^2 points, element-major lexicographic; zero comes first."""
        check_cap(self.order, cap, "pairing space")
        els = self.base.elements(cap)
        return [(k, l) for k in els for l in els]

    def index(self, p: Point) -> int:
        """rank(k)*m + rank(l): the theta index without its a digit."""
        self.check_point(p)
        rank = self.base._rank
        return rank(p[0]) * self.m + rank(p[1])

    def point(self, idx: int) -> Point:
        index_tuple((idx,), self.order)
        coords = self.base._coords
        return (coords(idx // self.m), coords(idx % self.m))

    def to_concrete(self, cap: int = ENUMERATION_CAP) -> ConcreteGroup:
        """The additive group of the space as an explicit table on indices
        k*m + l, computed from the base's add table."""
        check_cap(self.order, cap, "pairing space")
        m, K = self.m, self.base
        els = K.elements(cap)
        add = [[K._rank(K._add(x, y)) for y in els] for x in els]
        table = [
            tuple([add[k][k2] * m + add[l][l2] for k2 in range(m) for l2 in range(m)])
            for k in range(m) for l in range(m)
        ]
        return ConcreteGroup(table, identity=0, describe=lambda i: str(self.point(i)))


def pairing_space(base: FiniteAbelianGroup) -> PairingSpace:
    return PairingSpace(base)


def is_isotropic(space: PairingSpace, points) -> bool:
    """Whether the pairing vanishes identically on a subgroup of the space.

    Every point must pass check_point, and the input must be closed under
    addition (a subgroup); otherwise ValueError is raised.
    """
    pts = list(points)
    for p in pts:
        space.check_point(p)
    pset = set(pts)
    if space.zero() not in pset:
        raise ValueError("not a subgroup: the zero point is missing")
    for p in pts:
        for q in pts:
            if tuple(map(space.base._add, p, q)) not in pset:
                raise ValueError(f"not closed under addition: {p} + {q} missing")
    return all(space._pairing(p, q) == 0 for p in pts for q in pts)


def max_isotropic_order(space: PairingSpace, method: str = "both",
                        cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Maximal order of an isotropic subgroup of the pairing space.

    'brute' runs the pruned subgroup search of the abelian oracle on the
    space's table, with isotropy (read off the base's evaluation table) in
    place of commuting; 'structural' returns the closed form |K|; 'both'
    (default) runs the brute force when the space fits under the cap,
    checks it against the closed form, and falls back to the closed form
    above the cap.  Every method reads the cap as an int, after the method.
    """
    if method not in ("brute", "both", "structural"):
        raise ValueError(f"unknown method {method!r}")
    cap = check_int(cap, "cap")
    structural = space.base.order
    if method == "structural" or method == "both" and space.order > cap:
        return structural
    check_cap(space.order, cap, "pairing space")
    m, K = space.m, space.base
    els = K.elements(cap)
    ev = [[K._pairing(l, x) for x in els] for l in els]
    # iso[i] masks the points pairing to 0 with point i
    iso = [
        sum(1 << (k2 * m + l2) for k2 in range(m) for l2 in range(m)
            if ev[l2][k] == ev[l][k2])
        for k in range(m) for l in range(m)
    ]
    best = _max_related(space.to_concrete(cap)._mul, iso).bit_count()
    if method == "both" and best != structural:
        raise RuntimeError(
            f"brute-force isotropic maximum {best} disagrees with the "
            f"structural value {structural}"
        )
    return best


def structural_min_abelian_index(base: FiniteAbelianGroup) -> int:
    """Exact minimal abelian-subgroup index of the theta group over this base.

    Upper-bounds: an abelian subgroup maps to an isotropic subgroup of the
    pairing space, so its order is at most m * m, giving index at least
    m^3 / m^2 = m.  Exactness: the preimage of K + {trivial character} is
    abelian of order m^2.  Hence the index is exactly |K|.
    """
    return base.order
