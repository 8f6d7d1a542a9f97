"""Exact arithmetic for finite abelian groups and their character duals.

A group is described by its invariant factors d_1 | d_2 | ... | d_r (all
at least 2; the empty chain is the trivial group).  Elements and characters
are coordinate vectors reduced modulo those factors, with characters using
the same coordinates as elements (the dual of a finite abelian group is
isomorphic to the group itself).  Character values are kept as additive
exponents of a fixed primitive m-th root of unity, so every operation here
is integer arithmetic; no floating point, no complex numbers.  A group's
one mixed-radix codec ranks an element by its position in elements(), the
last coordinate running fastest, at place values computed once.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import gcd, prod
from operator import add, mod, mul, neg

# Elements and characters are both plain coordinate tuples.
Coords = tuple[int, ...]
AbElement = Coords
Character = Coords

ENUMERATION_CAP = 4096


class CapExceeded(RuntimeError):
    """An operation would enumerate more elements than its cap allows."""


def check_int(value: int, what: str, least: int | None = None) -> int:
    """value as an int (bools count, and come back as 0 or 1); ValueError
    naming `what` for a non-integer or a value below `least`."""
    if not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    if least is not None and value < least:
        raise ValueError(f"{what} {value} must be >= {least}")
    return int(value)


def check_cap(order: int, cap: int, what: str) -> None:
    """CapExceeded naming `what` when its order is above the cap."""
    cap = check_int(cap, "cap")
    if order > cap:
        raise CapExceeded(f"{what} of order {order} exceeds the cap {cap}")


def _divisibility_chain(factors: list[int]) -> list[int]:
    # Replacing a pair (a, b) with (gcd, lcm) preserves the multiset of
    # prime-power components.  One pass over the pairs i < j suffices: once
    # position i has met every later position it divides all of them, and
    # later swaps (which replace two multiples of fs[i] by their gcd and lcm)
    # keep that.  So the result is the unique invariant-factor chain, with
    # the 1s first.  No integer factorization needed.
    fs = [f for f in factors if f > 1]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            if b % a:
                g = gcd(a, b)
                fs[i], fs[j] = g, a * b // g
    return [f for f in fs if f > 1]


class _Frozen:
    """Base of the validated value types: immutable after __init__, equal
    only to the same class, and hashed and shown by the field _field names."""

    __slots__ = ()
    _field = ""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return getattr(self, self._field) == getattr(other, self._field)
        return NotImplemented

    def __hash__(self):
        return hash((getattr(self, self._field),))

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={getattr(self, self._field)!r})"

    def __reduce__(self):
        return type(self), (getattr(self, self._field),)


class FiniteAbelianGroup(_Frozen):
    """Canonical invariant-factor form of a finite abelian group."""

    __slots__ = ("invariant_factors", "order", "rank", "_scales", "_places")
    _field = "invariant_factors"

    def __init__(self, invariant_factors: Coords = ()):
        fs = tuple(check_int(d, "invariant factor") for d in invariant_factors)
        for i, d in enumerate(fs):
            if d < 2:
                raise ValueError(f"invariant factor {d} is < 2")
            if i and d % fs[i - 1]:
                raise ValueError(f"factors {fs} break the divisibility chain")
        object.__setattr__(self, "invariant_factors", fs)
        # Cached shape: slots outside _field, so equality and hashing still
        # see only the invariant factors.
        order = prod(fs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", len(fs))
        # char(x) = zeta^(sum c_i x_i m/d_i) at the default ambient order m
        object.__setattr__(self, "_scales", tuple(order // d for d in fs))
        # the place value of each coordinate in _rank: the last runs fastest
        object.__setattr__(self, "_places", tuple(
            prod(fs[t + 1:]) for t in range(len(fs))))

    def spec_string(self) -> str:
        """Render as group-spec grammar, e.g. 'Z4xZ2' ('Z1' when trivial)."""
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    def zero(self) -> AbElement:
        return (0,) * self.rank

    def check_element(self, x: Coords) -> None:
        """ValueError unless x is a tuple of ints c with 0 <= c < d_i."""
        if not isinstance(x, tuple) or len(x) != self.rank:
            raise ValueError(
                f"element {x!r} does not have {self.rank} coordinates"
            )
        for c, d in zip(x, self.invariant_factors):
            if not 0 <= check_int(c, "coordinate") < d:
                raise ValueError(f"coordinate {c} out of range for Z_{d}")

    def add(self, x: AbElement, y: AbElement) -> AbElement:
        self.check_element(x)
        self.check_element(y)
        return self._add(x, y)

    def neg(self, x: AbElement) -> AbElement:
        self.check_element(x)
        return self._neg(x)

    def elements(self, cap: int = ENUMERATION_CAP) -> list[AbElement]:
        """All elements in lexicographic coordinate order; zero comes first."""
        check_cap(self.order, cap, "group")
        return list(_cartesian(*(range(d) for d in self.invariant_factors)))

    def evaluate(self, char: Character, x: AbElement, m: int | None = None) -> int:
        """Exponent e with char(x) = zeta^e for zeta = exp(2*pi*i/m).

        m defaults to the group order; every invariant factor must divide m,
        which makes the formula sum(c_i * x_i * (m / d_i)) well defined.
        The map (char, x) -> Z_m is bilinear.  This validates char, x and m,
        then reads _pairing: e/m and _pairing/order are the same fraction.
        """
        self.check_element(char)
        self.check_element(x)
        if m is None:
            return self._pairing(char, x)
        check_int(m, "ambient order", 1)
        for d in self.invariant_factors:
            if m % d:
                raise ValueError(f"factor {d} does not divide ambient order {m}")
        return self._pairing(char, x) * m // self.order

    # Unchecked arithmetic and the one codec: the caller validated every operand.

    def _add(self, x: AbElement, y: AbElement) -> AbElement:
        return tuple(map(mod, map(add, x, y), self.invariant_factors))

    def _neg(self, x: AbElement) -> AbElement:
        return tuple(map(mod, map(neg, x), self.invariant_factors))

    def _pairing(self, char: Character, x: AbElement) -> int:
        """evaluate(char, x) at the default ambient order; on a cyclic base
        (every level of the family is one) the one-coordinate case written out."""
        if self.rank == 1:
            return char[0] * x[0] % self.order
        return sum(map(mul, map(mul, char, x), self._scales)) % self.order

    def _rank(self, x: Coords) -> int:
        """The position of x in elements().  Linear in the digits, so a
        digit out of range keeps its excess in the rank."""
        return sum(map(mul, x, self._places))

    def _coords(self, r: int) -> AbElement:
        """The element at position r of elements(), 0 <= r < order."""
        return tuple(r // p % d for p, d in zip(self._places, self.invariant_factors))


def index_tuple(values, n: int | None, what: str = "index") -> tuple[int, ...]:
    """values as a tuple of element indices of a group of order n.

    An index is a Python int in 0..n-1; n None checks only that.  A value
    that is not a plain int goes through check_int: a bool comes back as 0
    or 1, anything else raises ValueError naming `what`.  A tuple of plain
    ints comes back as is, without a copy, so tables keep tuple rows.
    """
    t = tuple(values)
    if not {int}.issuperset(map(type, t)):
        t = tuple([check_int(v, what) for v in t])
    if n is not None and t and (min(t) < 0 or max(t) >= n):
        bad = next(v for v in t if not 0 <= v < n)
        raise ValueError(f"{what} {bad} out of range 0..{n - 1}")
    return t


def make_group(cyclic_factors) -> FiniteAbelianGroup:
    """Canonical invariant-factor form of a direct sum of cyclic groups.

    Factors equal to 1 are dropped; factors below 1 are rejected.  The
    result is isomorphic to the input direct sum and idempotent under
    re-canonicalization.
    """
    factors = [check_int(f, "cyclic factor", 1) for f in cyclic_factors]
    return FiniteAbelianGroup(tuple(_divisibility_chain(factors)))


def parse_group_spec(text: str) -> FiniteAbelianGroup:
    """Parse the group-spec grammar: 'Z<d>' atoms joined by 'x'.

    Case-insensitive ('z4XZ2' is fine); whitespace anywhere is rejected.
    """
    if not isinstance(text, str) or not text:
        raise ValueError("empty group spec")
    if any(ch.isspace() for ch in text):
        raise ValueError(f"whitespace is not allowed in group spec {text!r}")
    factors = []
    for atom in text.lower().split("x"):
        body = atom[1:]
        if not atom.startswith("z") or not body.isdigit() or not body.isascii():
            raise ValueError(f"bad atom {atom!r} in group spec {text!r}")
        factors.append(int(body))
    return make_group(factors)


def is_pairing_nondegenerate(G: FiniteAbelianGroup, cap: int = ENUMERATION_CAP) -> bool:
    """Whether the evaluation pairing separates points on both sides.

    True for every well-formed group; exposed as a duality sanity check.
    """
    els = G.elements(cap)
    for x in els[1:]:  # every element but zero, on the point and character side
        if (all(G._pairing(l, x) == 0 for l in els)
                or all(G._pairing(x, l) == 0 for l in els)):
            return False
    return True
