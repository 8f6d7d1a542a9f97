"""Subgroup machinery for concrete finite groups.

A ConcreteGroup is an explicit multiplication table on element indices
0..order-1; theta and pairing-space tables are computed in index
arithmetic from their base group's add and evaluation tables.  All
subgroup searches work on bitmask sets (one Python int per subgroup), which
keeps closure, centralizer intersection and deduplication cheap at orders
up to the 4096 enumeration cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .abelian import CapExceeded, ENUMERATION_CAP

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
        self.order = len(mul_table)
        if self.order == 0:
            raise ValueError("empty multiplication table")
        self._mul = [list(map(int, row)) for row in mul_table]
        for row in self._mul:
            if len(row) != self.order or min(row) < 0 or max(row) >= self.order:
                raise ValueError("malformed multiplication table")
        self.identity = int(identity)
        if not 0 <= self.identity < self.order:
            raise ValueError(f"identity index {identity} out of range")
        self._inv = self._derive_inverses() if inv_table is None else list(map(int, inv_table))
        if len(self._inv) != self.order:
            raise ValueError("inverse table length does not match the order")
        self._describe = describe
        self._cent_masks: list[int] | None = None
        self._verify()

    @classmethod
    def from_mul_fn(cls, order: int, mul_fn: Callable[[int, int], int],
                    identity: int = 0,
                    describe: Callable[[int], str] | None = None) -> "ConcreteGroup":
        table = [[mul_fn(i, j) for j in range(order)] for i in range(order)]
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
        # Greedy generators: each is the first element not yet reachable
        # from the identity by right multiplication with earlier generators.
        gens: list[int] = []
        reached = {e}
        for g in range(self.order):
            if g in reached:
                continue
            gens.append(g)
            stack = list(reached)  # so each is also multiplied by g
            while stack:
                row = mul[stack.pop()]
                for h in gens:
                    y = row[h]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        for g in gens:
            row_g = mul[g]
            for row_x in mul:
                if list(map(row_x.__getitem__, row_g)) != mul[row_x[g]]:
                    raise ValueError("multiplication table is not associative")

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def commute(self, i: int, j: int) -> bool:
        return self._mul[i][j] == self._mul[j][i]

    def describe(self, i: int) -> str:
        return self._describe(i) if self._describe else str(i)

    def centralizer_masks(self) -> list[int]:
        """masks[g] has bit h set iff g and h commute.  Cached."""
        if self._cent_masks is None:
            mul = self._mul
            masks = []
            for g in range(self.order):
                row = mul[g]
                m = 0
                for h in range(self.order):
                    if row[h] == mul[h][g]:
                        m |= 1 << h
                masks.append(m)
            self._cent_masks = masks
        return self._cent_masks

    def center_mask(self) -> int:
        full = (1 << self.order) - 1
        out = 0
        for g, m in enumerate(self.centralizer_masks()):
            if m == full:
                out |= 1 << g
        return out


@dataclass(frozen=True)
class Subgroup:
    """Deduplicated, sorted member indices; the canonical subgroup key."""

    members: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(sorted({int(i) for i in self.members}))
        object.__setattr__(self, "members", ms)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def mask(self) -> int:
        m = 0
        for i in self.members:
            m |= 1 << i
        return m

    @classmethod
    def from_mask(cls, mask: int) -> "Subgroup":
        return cls(tuple(_mask_bits(mask)))


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_mask(mul, seed_mask: int, identity: int) -> int:
    # Pairwise product fixpoint: each unordered pair is multiplied exactly
    # once, in both orders, when the later member is reached.
    got = seed_mask | (1 << identity)
    members = list(_mask_bits(got))
    i = 0
    while i < len(members):
        a = members[i]
        row = mul[a]
        for j in range(i + 1):
            b = members[j]
            for c in (row[b], mul[b][a]):
                if not got >> c & 1:
                    got |= 1 << c
                    members.append(c)
        i += 1
    return got


def _extend_mask(mul, smask: int, h: int, commuting: bool, identity: int) -> int:
    # smask must already be a subgroup.  When h commutes with all of it the
    # extension is the union of cosets S, S*h, S*h^2, ...
    if not commuting:
        return _close_mask(mul, smask | (1 << h), identity)
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
    mask = 0
    for g in generators:
        gi = int(g)
        if not 0 <= gi < G.order:
            raise ValueError(f"element index {gi} out of range 0..{G.order - 1}")
        mask |= 1 << gi
    sub = Subgroup.from_mask(_close_mask(G._mul, mask, G.identity))
    if G.order % sub.order:
        raise RuntimeError(
            f"closure of size {sub.order} does not divide the group order {G.order}"
        )
    return sub


def is_subgroup(G: ConcreteGroup, members: Iterable[int]) -> bool:
    """Independent re-check: identity present, closed under mul and inverse."""
    ms = set(members)
    if G.identity not in ms:
        return False
    for a in ms:
        if G.inv(a) not in ms:
            return False
        for b in ms:
            if G.mul(a, b) not in ms:
                return False
    return True


def is_abelian(G: ConcreteGroup, S: Subgroup) -> bool:
    ms = S.members
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
    of its own elements, starting from the trivial subgroup.  Results are
    sorted by (order, members).
    """
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds the subgroup-search cap {cap}")
    mul = G._mul
    abelian = G.center_mask() == (1 << G.order) - 1
    triv = 1 << G.identity
    seen = {triv}
    stack = [triv]
    while stack:
        smask = stack.pop()
        for h in range(G.order):
            if smask >> h & 1:
                continue
            tmask = _extend_mask(mul, smask, h, abelian, G.identity)
            if tmask not in seen:
                seen.add(tmask)
                stack.append(tmask)
    subs = [Subgroup.from_mask(m) for m in seen]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def max_abelian_order(G: ConcreteGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact maximum order over all abelian subgroups of G.

    Abelian subgroups are grown by adjoining commuting outside elements and
    re-closing, all branches, with dedup on the member bitmask.  Growth may
    start from closure(center + {g}) because every maximal abelian subgroup
    contains the center; a state whose centralizer adds nothing is maximal.
    Branches whose whole centralizer cannot beat the best known order are
    pruned (an abelian overgroup of S lives inside the centralizer of S).
    """
    if G.order > cap:
        raise CapExceeded(
            f"order {G.order} exceeds the oracle cap {cap}; use the structural bound"
        )
    n = G.order
    full = (1 << n) - 1
    mul = G._mul
    cents = G.centralizer_masks()
    zmask = G.center_mask()
    if zmask == full:
        return n
    best = zmask.bit_count()
    seen = set()
    stack = []
    for g in range(n):
        if zmask >> g & 1:
            continue
        smask = _extend_mask(mul, zmask, g, True, G.identity)
        if smask not in seen:
            seen.add(smask)
            # centralizer of <center, g> is exactly the centralizer of g
            stack.append((smask, cents[g]))
    while stack:
        smask, cmask = stack.pop()
        size = smask.bit_count()
        if size > best:
            best = size
        if cmask.bit_count() <= best:
            continue
        cands = cmask & ~smask
        while cands:
            low = cands & -cands
            h = low.bit_length() - 1
            cands ^= low
            tmask = _extend_mask(mul, smask, h, True, G.identity)
            if tmask not in seen:
                seen.add(tmask)
                stack.append((tmask, cmask & cents[h]))
    return best


def min_abelian_index(G: ConcreteGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Group order divided by the maximum abelian subgroup order."""
    m = max_abelian_order(G, cap)
    if G.order % m:
        raise RuntimeError(f"abelian maximum {m} does not divide the order {G.order}")
    return G.order // m


def order_sequence(G: ConcreteGroup, cap: int = ENUMERATION_CAP) -> Counter:
    """Multiset {element order: count}; a cheap isomorphism-class fingerprint."""
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds the enumeration cap {cap}")
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
