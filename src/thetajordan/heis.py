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
+ rank(l) that index() defines and the tables use, where rank is the base's
one codec (FiniteAbelianGroup._rank, the position in elements()), so a
value check is one int test and one range compare.  ThetaElement appears
only at the public boundary: arguments and results.  _mul and
_inv are the one formula of the law: _law_cells reads the cells that
to_concrete's table and the oracle's central extension are built from.
Every rank runs one loop over the digits of the indices, coordinate by
coordinate, at the base's place values, with <l', k> = sum l'_t k_t m/d_t
mod m; on a cyclic base (every level of the family is one) the law runs
that loop's rank-1 case written out, a scalar form on // and % of the
indices, and the loop is the reference it must equal.  The commutator
bridge takes its closed form from the base's evaluation pairing
(FiniteAbelianGroup._pairing, read unchecked on the digits _kl decodes from
validated indices), not from the law, so a broken law does not break its
own check.  The sanity sweep lives here too, so only heis runs the law.

All values are immutable and all operations are pure functions, so shared
group descriptions are safe to use concurrently.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .abelian import (
    Coords,
    ENUMERATION_CAP,
    FiniteAbelianGroup,
    check_cap,
    check_int,
    index_tuple,
)
from .lattice import (
    ConcreteGroup,
    DEFAULT_ORACLE_CAP,
    Subgroup,
    _lagrange_index,
    extension_max_abelian_order,
)

SWEEP_ROUNDS = 24
# The sweep's last rounds (g, h, f) are fixed.  Each element is written
# (a, k, l): one value for a and one for every digit of k and of l, each 0,
# 1 or -1, read mod m and mod each digit's d, so a is 0 or m - 1 and every
# digit 0, 1 or d - 1.  The first two rounds square the last index, n - 1,
# beside a third element, so associativity reads that cell.
EDGE_ROUNDS = (
    ((-1, -1, -1), (-1, -1, -1), (0, 1, 1)),
    ((0, 1, 1), (-1, -1, -1), (-1, -1, -1)),
    ((-1, -1, 0), (0, 0, -1), (-1, -1, -1)),
    ((0, 0, -1), (-1, -1, 0), (0, 1, 1)),
    ((-1, 1, -1), (-1, -1, 1), (0, -1, -1)),
    ((-1, 0, 0), (0, -1, -1), (-1, 1, 0)),
)


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
        self._cyclic = len(fs) == 1  # scalar law: <l, k> = l0 * k0 mod m
        self._mm = m * m  # place value of a in the index
        # per base coordinate t: place values of k_t and l_t in the index,
        # d_t, and the pairing scale m/d_t
        self._digits = tuple(zip([m * p for p in base._places], base._places,
                                 fs, base._scales))

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
        validated i.  The digit decoder of _parts and the bridge."""
        m = self.m
        if self._cyclic:
            return (i // m % m,), (i % m,)
        coords = self.base._coords
        return coords(i // m % m), coords(i % m)

    def _parts(self, i: int) -> ThetaElement:
        """The element of index i, unchecked: the caller has validated i.
        An index past the order keeps its excess in a, as the law left it."""
        return ThetaElement(i // self._mm, *self._kl(i))

    def _edge_indices(self) -> list[int]:
        """The EDGE_ROUNDS elements as indices, round after round."""
        # the index's share of a, of every k digit and of every l digit at
        # x, for x = 0, 1 and -1, so that shares[-1] is x = -1; each l
        # digit's place is its k digit's over m
        shares = [(0, 0, 0)]
        for x in (1, -1):
            k_share = sum(x % d * kp for kp, _, d, _ in self._digits)
            shares.append((x % self.m * self._mm, k_share, k_share // self.m))
        return [shares[a][0] + shares[k][1] + shares[l][2]
                for triple in EDGE_ROUNDS for a, k, l in triple]

    def _show(self, *indices: int) -> str:
        """Unchecked indices as format_element renders their elements."""
        return ", ".join(format_element(self._parts(i)) for i in indices)

    # The law itself is unchecked, on indices: the public methods and
    # _sanity_sweep validate each value once, before the law consumes it.

    def _mul(self, i: int, j: int) -> int:
        """The product's index, one base coordinate at a time: gk and hl are
        the k_t digit of i and the l_t digit of j, and each sum reduces the
        digits it needs with // and %.  On a cyclic base, the one-coordinate
        case written out."""
        m, mm = self.m, self._mm
        if self._cyclic:
            gk, hl = i // m % m, j % m
            return ((i // mm + j // mm + hl * gk) % m * mm
                    + (gk + j // m) % m * m + (i + hl) % m)
        a, kl = i // mm + j // mm, 0
        for kp, lp, d, scale in self._digits:
            gk, hl = i // kp % d, j // lp % d
            a += hl * gk * scale
            kl += (gk + j // kp) % d * kp + (i // lp + hl) % d * lp
        return a % m * mm + kl

    def _inv(self, i: int) -> int:
        """Closed-form inverse (-a + <l, k>, -k, -l)."""
        m, mm = self.m, self._mm
        if self._cyclic:
            k, l = i // m % m, i % m
            return (l * k - i // mm) % m * mm + -k % m * m + -l % m
        a, kl = -(i // mm), 0
        for kp, lp, d, scale in self._digits:
            k, l = i // kp % d, i // lp % d
            a += l * k * scale
            kl += -k % d * kp + -l % d * lp
        return a % m * mm + kl

    def _bridge(self, g: int, h: int, gh: int, hg: int) -> int:
        """g h g^-1 h^-1 as gh (hg)^-1, checked against the closed form
        (<h.l, g.k> - <g.l, h.k>, 0, 0).

        The caller has validated g, h and the products gh and hg; this
        validates (hg)^-1.  The closed form comes from the evaluation
        pairing of the base, read unchecked on the digits _kl decodes from
        g and h, not from the law, so a broken law cannot break both.  A
        mismatch raises RuntimeError.
        """
        direct = self._mul(gh, self._check_index(self._inv(hg)))
        (gk, gl), (hk, hl) = self._kl(g), self._kl(h)
        pairing = self.base._pairing
        closed = (pairing(hl, gk) - pairing(gl, hk)) % self.m * self._mm
        if direct != closed:
            raise RuntimeError(
                f"commutator mismatch: definitional {self._show(direct)} "
                f"vs closed form {self._show(closed)}"
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
        """Least t >= 1 with g^t = identity (costs t multiplications); a law
        under which g has no such t <= order raises RuntimeError."""
        x = i = self.index(g)
        t = 1
        while x:  # the identity is index 0
            if t == self.order:
                raise RuntimeError(
                    f"{format_element(g)} has no order: its first {t} powers "
                    f"miss the identity, and the group has order {t}"
                )
            x = self._check_index(self._mul(x, i))
            t += 1
        return t

    def index(self, g: ThetaElement) -> int:
        """a*m^2 + rank(k)*m + rank(l), rank the base's codec; identity -> 0."""
        self.check_element(g)
        rank = self.base._rank
        return g.a * self._mm + rank(g.k) * self.m + rank(g.l)

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
        factor {(a, 0, 0)}, of size m.  Runs on indices, as the sweep does:
        each generator is checked once, and each value the law returns.
        """
        check_cap(self.order, cap, "theta group")
        gens = list(map(self.index, self.generators()))
        mul, check = self._mul, self._check_index
        return Subgroup(tuple(i for i in range(self.order) if not any(
            self._bridge(i, t, check(mul(i, t)), check(mul(t, i))) for t in gens)))

    def _law_cells(self) -> tuple[list[list[int]], list[int]]:
        """The law's cells that to_concrete and the oracle read:
        (block, inverses).

        The central rotation premise comes first: the row and column of the
        central element c = (1, 0, 0) must both be x -> x + m^2 (mod n),
        read off _mul (2n calls, each result checked as an index), else
        ValueError.  Then the a = 0 block: block[u][v] = _mul(u, v) for
        u, v < m^2, each checked as an index, so it is beta(u, v)*m^2 +
        w(u, v) for the product w on V = K + K^ and the cocycle beta, and
        central rotation fills in the rest of the table from it.  The n
        inverses come from _inv; the group check reads them.
        """
        n, mm = self.order, self._mm
        mul, check = self._mul, self._check_index
        c = mm % n  # index of (1, 0, 0); the identity when m = 1
        for x in range(n):
            cx = (x + mm) % n
            if check(mul(c, x)) != cx or check(mul(x, c)) != cx:
                show = self._show
                raise ValueError(f"the central element {show(c)} does not "
                                 f"rotate {show(x)} to {show(cx)} on both sides")
        block = [[check(mul(u, v)) for v in range(mm)] for u in range(mm)]
        return block, list(map(self._inv, range(n)))

    def to_concrete(self, cap: int = ENUMERATION_CAP) -> ConcreteGroup:
        """Materialize multiplication and inverse tables over element indices.

        The tables are read off the law: _mul and _inv, on the indices
        a*m^2 + k*m + l (k, l the ranks of the base coordinates, as in
        index()), through _law_cells.  Row (0, k, l) is its block row
        extended by the m central rotations x -> x + a*m^2 (mod n) of one
        shared list of n ints, and the row of (a, k, l) is that row rotated
        by a*m^2, a slice of it doubled.  So every entry is one of n shared
        int objects.  The table's group check then proves the table a group.
        It agrees with the law on the a' = 0 block, on the inverses and on
        c's row and column; elsewhere only the sanity sweep compares them.
        """
        check_cap(self.order, cap, "theta group")
        m, n, mm = self.m, self.order, self._mm
        block, inverses = self._law_cells()
        ranks = range(m)
        vals = list(range(n))
        rotations = [vals[a * mm:] + vals[:a * mm] for a in ranks]
        table = [None] * n
        for kl, row in enumerate(block):
            # map, not itemgetter: a one-entry block (m = 1) stays a row
            line = tuple(chain.from_iterable(
                map(rot.__getitem__, row) for rot in rotations))
            line += line
            for a in ranks:
                table[a * mm + kl] = line[a * mm:a * mm + n]
        return ConcreteGroup(
            table,
            inv_table=inverses,
            identity=0,
            describe=lambda i: format_element(self.element(i)),
        )

    def min_abelian_index(self, cap: int = DEFAULT_ORACLE_CAP) -> int:
        """The oracle: the minimal abelian index, from the law alone.

        It proves and searches the central extension Z_m x_beta V that
        _law_cells reads (lattice.extension_max_abelian_order): m^4 block
        cells, not to_concrete's m^6 entries, with the same answer and the
        same ValueError for cells that make no group.  RuntimeError when
        the search maximum breaks Lagrange.
        """
        check_cap(self.order, cap, "oracle search")
        return _lagrange_index(
            self.order, extension_max_abelian_order(self.m, *self._law_cells()))

    def random_element(self, rng) -> ThetaElement:
        """Digits a, then k, then l, each drawn by rng.randrange(d)."""
        draw = rng.randrange
        return ThetaElement(
            draw(self.m), tuple(map(draw, self._fs)), tuple(map(draw, self._fs))
        )


def theta_group(base: FiniteAbelianGroup) -> ThetaGroup:
    """Theta group of the given base; order |K|^3, identity (0, 0, 0)."""
    return ThetaGroup(base)


def _draw_indices(rng, n: int, count: int) -> list[int]:
    """count values of rng.randrange(n), drawn as CPython 3.10-3.13 draws
    them but without its three calls per value: n.bit_length() random bits,
    redrawn until they are below n."""
    out, draw, bits = [], rng.getrandbits, n.bit_length()
    while len(out) < count:
        if (r := draw(bits)) < n:
            out.append(r)
    return out


def _sanity_sweep(theta: ThetaGroup, rng) -> list[str]:
    """Seeded random group-law spot checks; returns violation messages,
    which name no level: the caller labels them.

    Works at any level because it never enumerates the group: associativity
    on random triples, inverse law, and the commutator closed-form bridge.
    It runs the unchecked law on element indices g, h and f, each drawn as
    one rng.randrange(order), round by round and all before the first, and
    so in range by construction, except in the last len(EDGE_ROUNDS) of its
    SWEEP_ROUNDS rounds, which take them from EDGE_ROUNDS: the law's
    boundary cells, which the oracle's block and a random draw rarely read,
    are read at every level.  Each round
    checks the five values the law returns (gh, hf, g^-1, hg and, in the
    bridge, (hg)^-1) once each, before the law consumes them; messages
    render elements with format_element.  A product or inverse that leaves
    the group is a violation too, and it ends the sweep.
    """
    out = []
    check, mul, inv, show = theta._check_index, theta._mul, theta._inv, theta._show
    picks = _draw_indices(rng, theta.order, 3 * (SWEEP_ROUNDS - len(EDGE_ROUNDS)))
    picks = iter(picks + theta._edge_indices())
    for g, h, f in zip(picks, picks, picks):
        try:
            gh = check(mul(g, h))
            hf = check(mul(h, f))
            if mul(gh, f) != mul(g, hf):
                out.append(f"associativity failed at {show(g, h, f)}")
            g_inv = check(inv(g))
            if mul(g, g_inv) != 0:  # the identity is index 0
                out.append(f"inverse law failed at {show(g)}")
            hg = check(mul(h, g))
            theta._bridge(g, h, gh, hg)
        except RuntimeError as exc:
            out.append(str(exc))
        except ValueError as exc:
            out.append(f"group law left the group at {show(g, h, f)}: {exc}")
            break
    return out


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
