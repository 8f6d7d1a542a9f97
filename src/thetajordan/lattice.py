"""Subgroup machinery for concrete finite groups.

A ConcreteGroup is an explicit multiplication table on element indices
0..order-1; theta tables are read off the theta law, and pairing-space
tables are computed from their base group's add table.  Subgroups
are bitmasks (one Python int each), and two routines answer every subgroup
question: _generate closes a seed from greedy generators, and _max_related
is the pruned search for the largest subgroup whose members pairwise
relate (commute for the abelian oracle, pair to zero for isotropy).  The
search on a table runs on the quotient by the center, whose table it reads
off the verified multiplication table; the theta oracle's search runs on a
central extension Z_m x_beta V, given by its block over V, on V itself.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable

from .abelian import ENUMERATION_CAP, _Frozen, check_cap, index_tuple

DEFAULT_ORACLE_CAP = 512


class ConcreteGroup:
    """Finite group given by mul/inverse tables over indices 0..order-1.

    Construction verifies the identity and inverse laws and associativity
    exhaustively.  Associativity uses Light's test on a generating set read
    off the table: the elements g with x(gy) = (xg)y for all x, y are closed
    under the table's product and include the identity, so when every
    generator passes and every element is a product of generators, all do.
    """

    def __init__(self, mul_table, inv_table=None, identity: int = 0,
                 describe: Callable[[int], str] | None = None):
        self.order = n = len(mul_table)
        if n == 0:
            raise ValueError("empty multiplication table")
        # tuple rows: a builder's rows are kept without a copy (a copy holds
        # a second 16.8M-entry table at order 4096), and none can change
        # after _verify has checked it
        self._mul = [index_tuple(row, n, "multiplication table entry")
                     for row in mul_table]
        if set(map(len, self._mul)) != {n}:
            raise ValueError("malformed multiplication table")
        self.identity = index_tuple((identity,), n, "identity index")[0]
        if inv_table is None:
            self._inv = self._derive_inverses()
        else:
            self._inv = index_tuple(inv_table, n, "inverse table entry")
            if len(self._inv) != n:
                raise ValueError("inverse table length does not match the order")
        self._describe = describe
        self._verify()

    @classmethod
    def from_mul_fn(cls, order: int, mul_fn: Callable[[int, int], int],
                    identity: int = 0,
                    describe: Callable[[int], str] | None = None) -> "ConcreteGroup":
        table = [tuple([mul_fn(i, j) for j in range(order)]) for i in range(order)]
        return cls(table, identity=identity, describe=describe)

    def _derive_inverses(self) -> list[int]:
        e = self.identity
        out = []
        for i, row in enumerate(self._mul):
            try:
                out.append(row.index(e))
            except ValueError:
                raise ValueError(f"element {i} has no right inverse") from None
        return out

    def _verify(self) -> None:
        e = self.identity
        mul = self._mul
        for i in range(self.order):
            if mul[e][i] != i or mul[i][e] != i:
                raise ValueError(f"index {e} is not a two-sided identity")
            j = self._inv[i]
            if mul[i][j] != e or mul[j][i] != e:
                raise ValueError(f"inverse table is wrong at element {i}")
        self._gens = _generate(mul, (1 << self.order) - 1, e)[0]
        # itemgetter returns a one-entry row as a bare value, but only an
        # order-1 table has such rows, and it has no generators
        for g in self._gens:
            x_g_y = itemgetter(*mul[g])  # row of x -> the products x(gy)
            for row_x in mul:
                if x_g_y(row_x) != mul[row_x[g]]:
                    raise ValueError("multiplication table is not associative")

    # The public lookups validate their indices; internal loops read the
    # verified _mul and _inv rows directly.

    def mul(self, i: int, j: int) -> int:
        index_tuple((i, j), self.order, "element index")
        return self._mul[i][j]

    def inv(self, i: int) -> int:
        index_tuple((i,), self.order, "element index")
        return self._inv[i]

    def commute(self, i: int, j: int) -> bool:
        index_tuple((i, j), self.order, "element index")
        return self._mul[i][j] == self._mul[j][i]

    def describe(self, i: int) -> str:
        i, = index_tuple((i,), self.order, "element index")
        return (self._describe or str)(i)

    def centralizer_masks(self) -> list[int]:
        """masks[g] has bit h set iff g and h commute."""
        mul = self._mul
        masks = []
        for g, row in enumerate(mul):
            m = 0
            for h in range(self.order):
                if row[h] == mul[h][g]:
                    m |= 1 << h
            masks.append(m)
        return masks

    def center_mask(self) -> int:
        """The elements that commute with every generator _verify found."""
        mul = self._mul
        out = 0
        for g, row in enumerate(mul):
            if all(row[x] == mul[x][g] for x in self._gens):
                out |= 1 << g
        return out


class Subgroup(_Frozen):
    """Deduplicated, sorted member indices; the canonical subgroup key."""

    __slots__ = ("members",)
    _field = "members"

    def __init__(self, members: Iterable[int]):
        ms = tuple(sorted(set(index_tuple(members, None, "member"))))
        object.__setattr__(self, "members", ms)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    @classmethod
    def from_mask(cls, mask: int) -> "Subgroup":
        return cls(tuple(_mask_bits(mask)))


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _generate(mul, seed_mask: int, identity: int) -> tuple[list[int], int]:
    # Greedy generators of the seed: each is the first seed member not yet
    # reached from the identity by right multiplication with the earlier
    # ones.  In a finite group the reached set is the generated subgroup.
    gens: list[int] = []
    reached = 1 << identity
    members = [identity]
    rest = seed_mask & ~reached
    while rest:
        gens.append((rest & -rest).bit_length() - 1)
        stack = members[:]  # so each is also multiplied by the new generator
        while stack:
            row = mul[stack.pop()]
            for h in gens:
                y = row[h]
                if not reached >> y & 1:
                    reached |= 1 << y
                    members.append(y)
                    stack.append(y)
        rest &= ~reached
    return gens, reached


def _extend_mask(mul, smask: int, h: int) -> int:
    # smask must be a subgroup that h centralizes; the extension is then
    # the union of cosets S, S*h, S*h^2, ...
    out = smask
    hp = h
    while not out >> hp & 1:
        coset = 0
        for b in _mask_bits(smask):
            coset |= 1 << mul[b][hp]
        out |= coset
        hp = mul[hp][h]
    return out


def closure(G: ConcreteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators (just the identity if empty)."""
    gens = set(index_tuple(generators, G.order, "element index"))
    mask = sum(1 << g for g in gens)
    sub = Subgroup.from_mask(_generate(G._mul, mask, G.identity)[1])
    if G.order % sub.order:
        raise RuntimeError(
            f"closure of size {sub.order} does not divide the group order {G.order}"
        )
    return sub


def is_subgroup(G: ConcreteGroup, members: Iterable[int]) -> bool:
    """Independent re-check: identity present, closed under mul and inverse.

    ValueError when a member is not an element index of G.
    """
    ms = set(index_tuple(members, G.order, "element index"))
    if G.identity not in ms:
        return False
    inv = G._inv
    for a in ms:
        if inv[a] not in ms:
            return False
        row = G._mul[a]
        for b in ms:
            if row[b] not in ms:
                return False
    return True


def is_abelian(G: ConcreteGroup, S: Subgroup) -> bool:
    """Whether the members pairwise commute; ValueError when one is not an
    element index of G."""
    ms = index_tuple(S.members, G.order, "element index")
    mul = G._mul
    for i, a in enumerate(ms):
        row = mul[a]
        for b in ms[i + 1:]:
            if row[b] != mul[b][a]:
                return False
    return True


def all_subgroups(G: ConcreteGroup, cap: int = DEFAULT_ORACLE_CAP) -> list[Subgroup]:
    """Every subgroup of G, by iterated single-generator extension.

    Exhaustive because any subgroup arises by repeatedly adjoining one more
    of its own elements, starting from the trivial subgroup.  An element
    that centralizes the current subgroup extends it by cosets; any other
    is adjoined by regenerating.  Results are sorted by (order, members).
    """
    check_cap(G.order, cap, "subgroup search")
    mul = G._mul
    cents = G.centralizer_masks()
    triv = 1 << G.identity
    seen = {triv}
    stack = [triv]
    while stack:
        smask = stack.pop()
        for h in range(G.order):
            if smask >> h & 1:
                continue
            if cents[h] & smask == smask:
                tmask = _extend_mask(mul, smask, h)
            else:
                tmask = _generate(mul, smask | (1 << h), G.identity)[1]
            if tmask not in seen:
                seen.add(tmask)
                stack.append(tmask)
    subs = [Subgroup.from_mask(m) for m in seen]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def _max_related(mul, rel: list[int], start: int) -> int:
    # Largest subgroup containing `start` whose members pairwise relate.
    # rel[g] masks the elements related to g: a subgroup containing g, by a
    # symmetric relation under which an h related to all of a subgroup S
    # normalizes S, so <S, h> is a union of cosets.  `start` is a subgroup
    # related to every element.  Growth adjoins related elements on all
    # branches, deduplicated by mask, and prunes a branch whose related set
    # cannot beat the best order found.
    best, best_size = start, start.bit_count()
    seen = set()
    stack = [(start, (1 << len(mul)) - 1)]
    while stack:
        smask, cmask = stack.pop()
        size = smask.bit_count()
        if size > best_size:
            best, best_size = smask, size
        if cmask.bit_count() <= best_size:
            continue
        cands = cmask & ~smask
        while cands:
            h = (cands & -cands).bit_length() - 1
            # every h' in the coset S*h gives the same <S, h'> = <S, h>, so
            # the coset (which holds h) is tried once
            for b in _mask_bits(smask):
                cands &= ~(1 << mul[b][h])
            tmask = _extend_mask(mul, smask, h)
            if tmask not in seen:
                seen.add(tmask)
                # related to all of <S, h> = related to all of S and to h
                stack.append((tmask, cmask & rel[h]))
    return best


def max_abelian_order(G: ConcreteGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact maximum order over all abelian subgroups of G.

    Every maximal abelian subgroup contains the center Z, and whether two
    elements commute depends only on their cosets mod Z.  So the pruned
    search for the largest subgroup whose members pairwise commute runs on
    G/Z, relating two cosets when their representatives commute, and its
    order times |Z| is the answer.  The quotient comes from the table alone.
    """
    check_cap(G.order, cap, "oracle search")
    mul = G._mul
    center = list(_mask_bits(G.center_mask()))
    coset = [-1] * G.order
    reps = []
    for g, row in enumerate(mul):
        if coset[g] < 0:
            for z in center:
                coset[row[z]] = len(reps)
            reps.append(g)
    qmul = []
    qrel = []
    for a in reps:
        row = mul[a]
        qmul.append([coset[row[b]] for b in reps])
        rel = 0
        for j, b in enumerate(reps):
            if row[b] == mul[b][a]:
                rel |= 1 << j
        qrel.append(rel)
    start = 1 << coset[G.identity]
    return _max_related(qmul, qrel, start).bit_count() * len(center)


def min_abelian_index(G: ConcreteGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Group order divided by the maximum abelian subgroup order."""
    return _lagrange_index(G.order, max_abelian_order(G, cap))


def _lagrange_index(order: int, top: int) -> int:
    """order // top, or RuntimeError when no subgroup can have order top."""
    if order % top:
        raise RuntimeError(f"abelian maximum {top} does not divide the order {order}")
    return order // top


def extension_max_abelian_order(m: int, block, inv_table) -> int:
    """Exact maximum abelian order of the central extension E = Z_m x_beta V
    given by its a = 0 block and its inverse table, proven a group first.

    E's element a*|V| + u is (a, u), and block[u][v] = beta(u, v)*|V| +
    w(u, v), in 0..|E|-1, gives (a, u)(b, v) = (a + b + beta(u, v), w(u, v)).
    The proof raises the ValueError, with its text, that the ConcreteGroup
    of E's whole table would: an inverse out of range, then identity and
    inverse at each element in index order, then associativity, which holds
    iff V is a group (V's ConcreteGroup) and beta a cocycle (Light's test on
    the lifts (0, t) of V's generators; (1, 0) passes by construction).
    (a, u) and (b, v) commute iff the block is symmetric at (u, v), so the
    search runs on V, from R, the members related to all of V.
    """
    size = len(block)
    n = m * size
    inv = index_tuple(inv_table, n, "inverse table entry")
    for i, j in enumerate(inv):
        u, v = i % size, j % size
        if block[0][u] != u or block[u][0] != u:
            raise ValueError("index 0 is not a two-sided identity")
        shift = i - u + j - v
        if (block[u][v] + shift) % n or (block[v][u] + shift) % n:
            raise ValueError(f"inverse table is wrong at element {i}")
    V = ConcreteGroup([[r % size for r in row] for row in block],
                      inv_table=[j % size for j in inv[:size]])
    beta = [[r // size for r in row] for row in block]
    for t in V._gens:
        # itemgetter returns a one-entry row as a bare value, but V then
        # has order 1 and no generators
        t_v = itemgetter(*V._mul[t])  # row of u -> its entries at tv
        beta_t = beta[t]
        for u, row in enumerate(beta):
            ut, but = V._mul[u][t], row[t]
            if any((x + y - z - but) % m
                   for x, y, z in zip(t_v(row), beta_t, beta[ut])):
                raise ValueError("multiplication table is not associative")
    rel = [sum(1 << v for v, (x, y) in enumerate(zip(row, col)) if x == y)
           for row, col in zip(block, zip(*block))]
    full = (1 << size) - 1
    center = sum(1 << u for u, r in enumerate(rel) if r == full)
    return m * _max_related(V._mul, rel, center).bit_count()


def order_sequence(G: ConcreteGroup, cap: int = ENUMERATION_CAP) -> Counter:
    """Multiset {element order: count}; a cheap isomorphism-class fingerprint."""
    check_cap(G.order, cap, "concrete group")
    mul = G._mul
    e = G.identity
    out: Counter = Counter()
    for g in range(G.order):
        t = 1
        x = g
        while x != e:
            x = mul[x][g]
            t += 1
        out[t] += 1
    return out
