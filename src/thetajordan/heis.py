"""Finite theta groups over a finite abelian base.

For a base group K of order m, the theta group lives on triples (a, k, l)
where a is a root-of-unity exponent mod m, k is an element of K and l a
character of K, with the multiplication

    (a, k, l) * (a', k', l') = (a + a' + <l', k>, k + k', l + l')

written additively on exponents; <l', k> is the evaluation exponent of the
character l' at k.  The center is the exponent factor {(a, 0, 0)} and every
commutator lands in it, which is what the whole abelian-index analysis
hangs on.

On a cyclic base (every level of the family is one) the law runs in a
scalar form: k = (k0,), l = (l0,) and <l', k> = l0' * k0 mod m in plain int
arithmetic, and random_element draws each digit with getrandbits exactly
as randrange(m) does, so a seeded sample is the same elements.  Every other
rank runs the generic coordinate-wise form, which is the reference the
scalar form must equal.  The commutator bridge takes its closed form from
the base's evaluation pairing (FiniteAbelianGroup._pairing, read unchecked
on operands already validated as parts of theta elements), not from the
law's twist, so one broken twist cannot break the law and its check alike.

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


# builds a ThetaElement from one tuple without the NamedTuple __new__ frame
_new = tuple.__new__


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
        self._width = m.bit_length()  # getrandbits width of randrange(m)
        self._zero = base.zero()

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
        # On a cyclic base one pass over the three digits accepts; any other
        # rank, and any value that pass rejects, takes the per-part checks
        # below, which name what is wrong.
        a, k, l = g
        if self._cyclic:
            m = self.m
            if (isinstance(k, tuple) and isinstance(l, tuple)
                    and len(k) == 1 and len(l) == 1):
                k0 = k[0]
                l0 = l[0]
                if (isinstance(a, int) and isinstance(k0, int)
                        and isinstance(l0, int)
                        and 0 <= a < m and 0 <= k0 < m and 0 <= l0 < m):
                    return
        check_int(a, "central exponent")
        if not 0 <= a < self.m:
            raise ValueError(f"central exponent {a} out of range mod {self.m}")
        self.base.check_element(k)
        self.base.check_element(l)

    def _twist(self, l: Coords, k: Coords) -> int:
        """<l, k>, the exponent of the character l at k, mod m."""
        return sum(map(mul, map(mul, l, k), self._scales)) % self.m

    # The law itself is unchecked: the public methods and the sanity sweep
    # validate each value once, before the law consumes it.

    def _mul(self, g: ThetaElement, h: ThetaElement) -> ThetaElement:
        m = self.m
        if self._cyclic:
            ga, (gk,), (gl,) = g
            ha, (hk,), (hl,) = h
            return _new(ThetaElement, (
                (ga + ha + hl * gk) % m, ((gk + hk) % m,), ((gl + hl) % m,)
            ))
        fs = self._fs
        return ThetaElement(
            (g.a + h.a + self._twist(h.l, g.k)) % m,
            tuple(map(mod, map(add, g.k, h.k), fs)),
            tuple(map(mod, map(add, g.l, h.l), fs)),
        )

    def _inv(self, g: ThetaElement) -> ThetaElement:
        """Closed-form inverse (-a + <l, k>, -k, -l)."""
        m = self.m
        if self._cyclic:
            a, (k,), (l,) = g
            return _new(ThetaElement, ((l * k - a) % m, (-k % m,), (-l % m,)))
        fs = self._fs
        return ThetaElement(
            (self._twist(g.l, g.k) - g.a) % m,
            tuple(map(mod, map(neg, g.k), fs)),
            tuple(map(mod, map(neg, g.l), fs)),
        )

    def _bridge(self, g: ThetaElement, h: ThetaElement, gh: ThetaElement,
                hg: ThetaElement) -> ThetaElement:
        """g h g^-1 h^-1 as gh (hg)^-1, checked against the closed form
        (<h.l, g.k> - <g.l, h.k>, 0, 0).

        The caller has validated g, h and the products gh and hg; this
        validates (hg)^-1.  The closed form comes from the evaluation
        pairing of the base, read unchecked on the parts of g and h, not
        from the law's own twist, so a broken twist cannot break both.  A
        mismatch raises RuntimeError.
        """
        hg_inv = self._inv(hg)
        self.check_element(hg_inv)
        direct = self._mul(gh, hg_inv)
        pairing, zero = self.base._pairing, self._zero
        twist = (pairing(h.l, g.k) - pairing(g.l, h.k)) % self.m
        closed = _new(ThetaElement, (twist, zero, zero))
        if direct != closed:
            raise RuntimeError(
                f"commutator mismatch: definitional {direct} vs closed form {closed}"
            )
        return direct

    def mul(self, g: ThetaElement, h: ThetaElement) -> ThetaElement:
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def inv(self, g: ThetaElement) -> ThetaElement:
        """Closed-form inverse (-a + <l, k>, -k, -l)."""
        self.check_element(g)
        return self._inv(g)

    def commutator(self, g: ThetaElement, h: ThetaElement) -> ThetaElement:
        """g h g^-1 h^-1, computed two ways that must agree.

        The definitional product is checked against the closed form; a
        mismatch means the group law is broken and raises RuntimeError.  The
        result is always central.
        """
        check = self.check_element
        check(g)
        check(h)
        gh = self._mul(g, h)
        hg = self._mul(h, g)
        check(hg)  # hg before gh: the order the law consumes them
        check(gh)
        return self._bridge(g, h, gh, hg)

    def element_order(self, g: ThetaElement) -> int:
        """Least t >= 1 with g^t = identity (costs t multiplications)."""
        self.check_element(g)
        e = self.identity()
        x = g
        t = 1
        while x != e:
            x = self._mul(x, g)
            self.check_element(x)
            t += 1
        return t

    def index(self, g: ThetaElement) -> int:
        """Mixed-radix rank of (a, k, l), a most significant; identity -> 0."""
        self.check_element(g)
        return radix_rank((g.a, *g.k, *g.l), self._radices)

    def element(self, idx: int) -> ThetaElement:
        """Inverse of index()."""
        index_tuple((idx,), self.order)
        a, *coords = radix_unrank(idx, self._radices)
        r = self.base.rank
        return ThetaElement(a, tuple(coords[:r]), tuple(coords[r:]))

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
        """Digits a, then k, then l, each as rng.randrange(d) draws it on a
        random.Random.

        On a cyclic base each digit is getrandbits(w), w = m.bit_length(),
        redrawn while it is >= m: randrange's own rejection loop without its
        argument handling, so the stream is the same.  Other ranks call
        randrange, which stays the reference.
        """
        if self._cyclic:
            m, w, bits = self.m, self._width, rng.getrandbits
            a = bits(w)
            while a >= m:
                a = bits(w)
            k = bits(w)
            while k >= m:
                k = bits(w)
            l = bits(w)
            while l >= m:
                l = bits(w)
            return _new(ThetaElement, (a, (k,), (l,)))
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
