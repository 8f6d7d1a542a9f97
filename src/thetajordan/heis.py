"""Finite theta groups over a finite abelian base.

For a base group K of order m, the theta group lives on triples (a, k, l)
where a is a root-of-unity exponent mod m, k is an element of K and l a
character of K, with the multiplication

    (a, k, l) * (a', k', l') = (a + a' + <l', k>, k + k', l + l')

written additively on exponents; <l', k> is the evaluation exponent of the
character l' at k.  The center is the exponent factor {(a, 0, 0)} and every
commutator lands in it, which is what the whole abelian-index analysis
hangs on.

The law runs on element indices: the mixed-radix index a*m^2 + rank(k)*m
+ rank(l) that index() defines and the tables use, so a value check is one
int test and one range compare.  ThetaElement appears only at the public
boundary: arguments, results and messages.  On a cyclic base (every level
of the family is one) the law runs in a scalar form on // and % of the
indices, <l', k> = l0' * k0 mod m; every other rank decodes the digits with
_kl (radix_unrank underneath) and works coordinate by coordinate, which is
the reference the scalar form must equal.  The commutator bridge takes its
closed form from the base's evaluation pairing (FiniteAbelianGroup._pairing,
read unchecked on the digits _kl decodes from validated indices), not from
the law's twist, so one broken twist cannot break the law and its check
alike.

All values are immutable and all operations are pure functions, so shared
group descriptions are safe to use concurrently.
"""

from __future__ import annotations

from itertools import chain
from operator import add, mod, mul, neg
from typing import NamedTuple

from .abelian import (
    Coords,
    ENUMERATION_CAP,
    FiniteAbelianGroup,
    check_cap,
    check_int,
    index_tables,
    index_tuple,
    radix_rank,
    radix_unrank,
)
from .lattice import ConcreteGroup, Subgroup


class ThetaElement(NamedTuple):
    a: int
    k: Coords
    l: Coords


class ThetaGroup:
    """The group of order m^3 on triples (a, k, l), m = |K|."""

    def __init__(self, base: FiniteAbelianGroup):
        self.base = base
        self.m = m = base.order
        self.order = m ** 3
        self._fs = fs = base.invariant_factors
        self._scales = tuple(m // d for d in fs)  # <l, k> = sum l_i k_i m/d_i
        self._radices = (m, *fs, *fs)  # index() digits: a, then k, then l
        self._cyclic = len(fs) == 1  # scalar law: <l, k> = l0 * k0 mod m
        self._mm = m * m  # place value of a in the index

    def __eq__(self, other) -> bool:
        return isinstance(other, ThetaGroup) and other.base == self.base

    def __hash__(self) -> int:
        return hash(("ThetaGroup", self.base))

    def __repr__(self) -> str:
        return f"ThetaGroup({self.base.spec_string()})"

    def identity(self) -> ThetaElement:
        return ThetaElement(0, self.base.zero(), self.base.zero())

    def check_element(self, g: ThetaElement) -> None:
        if not isinstance(g, ThetaElement):
            raise ValueError(f"{g!r} is not a ThetaElement")
        a, k, l = g
        check_int(a, "central exponent")
        if not 0 <= a < self.m:
            raise ValueError(f"central exponent {a} out of range mod {self.m}")
        self.base.check_element(k)
        self.base.check_element(l)

    def _check_index(self, x: int) -> int:
        """x, checked as an element index: an int in 0..order-1, else
        ValueError naming x, by index_tuple's rule.  The int test keeps a
        law that returns floats out: 2.0 == 2 passes any range compare."""
        if not (isinstance(x, int) and 0 <= x < self.order):
            index_tuple((x,), self.order)
        return x

    def _kl(self, i: int) -> tuple[Coords, Coords]:
        """The base coordinates (k, l) of index i, unchecked: the caller has
        validated i.  The one digit decoder of the law and the bridge."""
        m = self.m
        if self._cyclic:
            return (i // m % m,), (i % m,)
        coords = radix_unrank(i % self._mm, self._radices[1:])
        r = self.base.rank
        return coords[:r], coords[r:]

    def _parts(self, i: int) -> ThetaElement:
        """The element of index i, unchecked: the caller has validated i.
        An index past the order keeps its excess in a, as the law left it."""
        return ThetaElement(i // self._mm, *self._kl(i))

    def _twist(self, l: Coords, k: Coords) -> int:
        """<l, k>, the exponent of the character l at k, mod m."""
        return sum(map(mul, map(mul, l, k), self._scales)) % self.m

    # The law itself is unchecked, on indices: the public methods and the
    # sanity sweep validate each value once, before the law consumes it.

    def _mul(self, i: int, j: int) -> int:
        """The product's index.  On a cyclic base a scalar form on operators:
        gk and hl are the k digit of i and the l digit of j, and each sum
        reduces the digits it needs with // and %."""
        m, mm = self.m, self._mm
        if self._cyclic:
            gk, hl = i // m % m, j % m
            return ((i // mm + j // mm + hl * gk) % m * mm
                    + (gk + j // m) % m * m + (i + hl) % m)
        (gk, gl), (hk, hl) = self._kl(i), self._kl(j)
        fs = self._fs
        return radix_rank((
            (i // mm + j // mm + self._twist(hl, gk)) % m,
            *map(mod, map(add, gk, hk), fs),
            *map(mod, map(add, gl, hl), fs),
        ), self._radices)

    def _inv(self, i: int) -> int:
        """Closed-form inverse (-a + <l, k>, -k, -l)."""
        m, mm = self.m, self._mm
        if self._cyclic:
            k, l = i // m % m, i % m
            return (l * k - i // mm) % m * mm + -k % m * m + -l % m
        k, l = self._kl(i)
        fs = self._fs
        return radix_rank((
            (self._twist(l, k) - i // mm) % m,
            *map(mod, map(neg, k), fs),
            *map(mod, map(neg, l), fs),
        ), self._radices)

    def _bridge(self, g: int, h: int, gh: int, hg: int) -> int:
        """g h g^-1 h^-1 as gh (hg)^-1, checked against the closed form
        (<h.l, g.k> - <g.l, h.k>, 0, 0).

        The caller has validated g, h and the products gh and hg; this
        validates (hg)^-1.  The closed form comes from the evaluation
        pairing of the base, read unchecked on the digits _kl decodes from
        g and h, not from the law's own twist, so a broken twist cannot
        break both.  A mismatch raises RuntimeError.
        """
        direct = self._mul(gh, self._check_index(self._inv(hg)))
        (gk, gl), (hk, hl) = self._kl(g), self._kl(h)
        pairing = self.base._pairing
        closed = (pairing(hl, gk) - pairing(gl, hk)) % self.m * self._mm
        if direct != closed:
            raise RuntimeError(
                f"commutator mismatch: definitional {self._parts(direct)} "
                f"vs closed form {self._parts(closed)}"
            )
        return direct

    def mul(self, g: ThetaElement, h: ThetaElement) -> ThetaElement:
        return self._parts(self._mul(self.index(g), self.index(h)))

    def inv(self, g: ThetaElement) -> ThetaElement:
        """Closed-form inverse (-a + <l, k>, -k, -l)."""
        return self._parts(self._inv(self.index(g)))

    def commutator(self, g: ThetaElement, h: ThetaElement) -> ThetaElement:
        """g h g^-1 h^-1, computed two ways that must agree.

        The definitional product is checked against the closed form; a
        mismatch means the group law is broken and raises RuntimeError.  The
        result is always central.
        """
        i, j = self.index(g), self.index(h)
        gh = self._mul(i, j)
        hg = self._mul(j, i)
        self._check_index(hg)  # hg before gh: the order the law consumes them
        self._check_index(gh)
        return self._parts(self._bridge(i, j, gh, hg))

    def element_order(self, g: ThetaElement) -> int:
        """Least t >= 1 with g^t = identity (costs t multiplications)."""
        x = i = self.index(g)
        t = 1
        while x:  # the identity is index 0
            x = self._check_index(self._mul(x, i))
            t += 1
        return t

    def index(self, g: ThetaElement) -> int:
        """Mixed-radix rank of (a, k, l), a most significant; identity -> 0."""
        self.check_element(g)
        return radix_rank((g.a, *g.k, *g.l), self._radices)

    def element(self, idx: int) -> ThetaElement:
        """Inverse of index()."""
        index_tuple((idx,), self.order)
        return self._parts(idx)

    def elements(self, cap: int = ENUMERATION_CAP) -> list[ThetaElement]:
        """All elements in index order."""
        check_cap(self.order, cap, "theta group")
        ks = self.base.elements(cap)
        return [ThetaElement(a, k, l) for a in range(self.m) for k in ks for l in ks]

    def generators(self) -> list[ThetaElement]:
        """Central exponent 1 plus the base and character unit vectors."""
        zero = self.base.zero()
        out = []
        if self.m > 1:
            out.append(ThetaElement(1, zero, zero))
        for i in range(self.base.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.base.rank))
            out.append(ThetaElement(0, unit, zero))
            out.append(ThetaElement(0, zero, unit))
        return out

    def center(self, cap: int = ENUMERATION_CAP) -> Subgroup:
        """Elements commuting with everything, as indices.

        Commuting with the generating set is equivalent to commuting with
        the whole group; for a nontrivial base this is exactly the exponent
        factor {(a, 0, 0)}, of size m.
        """
        gens = self.generators()
        e = self.identity()
        members = [
            i
            for i, g in enumerate(self.elements(cap))
            if all(self.commutator(g, t) == e for t in gens)
        ]
        return Subgroup(tuple(members))

    def to_concrete(self, cap: int = ENUMERATION_CAP) -> ConcreteGroup:
        """Materialize multiplication and inverse tables over element indices.

        The tables are computed on indices a*m^2 + k*m + l (k, l the ranks
        of the base coordinates, as in index()) from the base's add, neg
        and evaluation tables; mul and inv are the reference they must
        equal.  Rows are built one (k, l) at a time: the m^2 entries of row
        (0, k, l) with a' = 0 are computed in index arithmetic, the m central
        rotations x -> x + a*m^2 (mod n) of one shared list of n ints extend
        them to the whole row, and the row of (a, k, l) is that row rotated
        by a*m^2, a slice of it doubled.  So only one row is alive beside the
        table, and every entry is one of n shared int objects.
        """
        check_cap(self.order, cap, "theta group")
        m, n = self.m, self.order
        mm = m * m
        add, neg, ev = index_tables(self.base, cap)
        ranks = range(m)
        vals = list(range(n))
        rotations = [vals[a * mm:] + vals[:a * mm] for a in ranks]
        table = [None] * n
        for k in ranks:
            for l in ranks:
                block = [
                    ev[l2][k] * mm + add[k][k2] * m + add[l][l2]
                    for k2 in ranks for l2 in ranks
                ]
                # map, not itemgetter: a one-entry block (m = 1) stays a row
                line = tuple(chain.from_iterable(
                    map(rot.__getitem__, block) for rot in rotations))
                line += line
                for a in ranks:
                    table[a * mm + k * m + l] = line[a * mm:a * mm + n]
        inv_table = [
            (ev[l][k] - a) % m * mm + neg[k] * m + neg[l]
            for a in ranks for k in ranks for l in ranks
        ]
        return ConcreteGroup(
            table,
            inv_table=inv_table,
            identity=0,
            describe=lambda i: format_element(self.element(i)),
        )

    def random_element(self, rng) -> ThetaElement:
        """Digits a, then k, then l, each drawn by rng.randrange(d)."""
        draw = rng.randrange
        return ThetaElement(
            draw(self.m), tuple(map(draw, self._fs)), tuple(map(draw, self._fs))
        )


def theta_group(base: FiniteAbelianGroup) -> ThetaGroup:
    """Theta group of the given base; order |K|^3, identity (0, 0, 0)."""
    return ThetaGroup(base)


def format_element(g: ThetaElement) -> str:
    """Render '(a; k1,..,kr; l1,..,lr)'; parse_element is the exact inverse."""
    return "({}; {}; {})".format(
        g.a, ",".join(map(str, g.k)), ",".join(map(str, g.l))
    )


def parse_element(group: ThetaGroup, text: str) -> ThetaElement:
    """Parse the format_element rendering back into a validated element."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"element text {text!r} is not parenthesized")
    parts = s[1:-1].split(";")
    if len(parts) != 3:
        raise ValueError(f"element text {text!r} does not have three ';' fields")

    def number(tok: str) -> int:
        # only what format_element emits: ASCII digits, no sign or '_'
        tok = tok.strip()
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"bad number {tok!r} in element text {text!r}")
        return int(tok)

    def coords(part: str) -> Coords:
        if not part.strip():
            return ()
        return tuple(map(number, part.split(",")))

    g = ThetaElement(number(parts[0]), coords(parts[1]), coords(parts[2]))
    group.check_element(g)
    return g
