"""Independent oracles for the test suite.

Everything here deliberately avoids the library's fast paths: closures are
set-based, character values are computed with complex exponentials, and the
reference maximal-abelian search grows from small commuting subsets without
center seeding or bitmask tricks.
"""

import cmath
from collections import Counter
from itertools import combinations, permutations, product
from math import gcd, lcm


def divisor_chains(max_order):
    """All invariant-factor chains (d1 | d2 | ...) with product <= max_order."""
    out = []

    def grow(chain, order):
        out.append(tuple(chain))
        low = chain[-1] if chain else 2
        for d in range(low, max_order + 1):
            if order * d > max_order:
                break
            if chain and d % chain[-1]:
                continue
            chain.append(d)
            grow(chain, order * d)
            chain.pop()

    grow([], 1)
    return out


def direct_sum_order_census(factors):
    """Element-order census of the direct sum of Z_f, via lcm arithmetic."""
    census = Counter()
    for xs in product(*(range(f) for f in factors)):
        o = 1
        for x, f in zip(xs, factors):
            o = lcm(o, f // gcd(f, x))
        census[o] += 1
    return census


def char_value_complex(factors, char, x):
    """Character value as an actual complex number on the unit circle."""
    val = complex(1.0, 0.0)
    for c, a, d in zip(char, x, factors):
        val *= cmath.exp(2j * cmath.pi * c * a / d)
    return val


def root_of_unity(exponent, m):
    return cmath.exp(2j * cmath.pi * exponent / m)


def brute_isomorphic(mul_a, mul_b):
    """Isomorphism test by trying every bijection (orders up to ~7)."""
    n = len(mul_a)
    if len(mul_b) != n:
        return False
    idx = range(n)
    for perm in permutations(idx):
        if all(perm[mul_a[i][j]] == mul_b[perm[i]][perm[j]] for i in idx for j in idx):
            return True
    return False


def addition_table(factors):
    """Mul table of the direct sum of Z_f on lexicographic element indices."""
    elems = list(product(*(range(f) for f in factors)))
    pos = {e: i for i, e in enumerate(elems)}
    return [
        [pos[tuple((a + b) % f for a, b, f in zip(x, y, factors))] for y in elems]
        for x in elems
    ]


def horner_rank(digits, radices):
    """Mixed-radix rank by Horner's rule, the first digit most significant;
    a digit out of range keeps its excess."""
    r = 0
    for c, d in zip(digits, radices):
        r = r * d + c
    return r


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n):
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 flips."""
    def mul(x, y):
        e, i = divmod(x, n)
        f, j = divmod(y, n)
        jj = j if e == 0 else -j % n
        return (e ^ f) * n + (i + jj) % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def alternating4_table(relabel):
    """A4 as the even permutations of range(4) in permutations() order,
    entry (p, q) the index of x -> p[q[x]]; new index i is old element
    relabel[i].  Index 0 stays the identity when relabel[0] == 0."""
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0]
    old = {p: i for i, p in enumerate(even)}
    new = {o: i for i, o in enumerate(relabel)}
    return [[new[old[tuple(even[p][even[q][x]] for x in range(4))]]
             for q in relabel] for p in relabel]


def table_census(mul, identity=0):
    out = Counter()
    for g in range(len(mul)):
        t = 1
        x = g
        while x != identity:
            x = mul[x][g]
            t += 1
        out[t] += 1
    return out


def naive_closure(mul, gens, identity=0):
    """Set-based fixpoint closure, independent of the bitmask engine."""
    members = {identity, *gens}
    while True:
        new = {mul[a][b] for a in members for b in members} - members
        if not new:
            return frozenset(members)
        members |= new


def naive_max_abelian_order(mul, identity=0):
    """Reference maximum abelian subgroup order for small tables.

    Closes every pairwise-commuting subset of size <= 3, then grows every
    closure by every commuting outside element, exploring all branches.
    """
    n = len(mul)

    def commute(a, b):
        return mul[a][b] == mul[b][a]

    seeds = set()
    for a in range(n):
        seeds.add(naive_closure(mul, (a,), identity))
    for a, b in combinations(range(n), 2):
        if commute(a, b):
            seeds.add(naive_closure(mul, (a, b), identity))
    for a, b, c in combinations(range(n), 3):
        if commute(a, b) and commute(a, c) and commute(b, c):
            seeds.add(naive_closure(mul, (a, b, c), identity))

    best = 1
    seen = set()
    stack = list(seeds)
    while stack:
        S = stack.pop()
        if S in seen:
            continue
        seen.add(S)
        best = max(best, len(S))
        for h in range(n):
            if h in S:
                continue
            if all(commute(h, s) for s in S):
                T = naive_closure(mul, S | {h}, identity)
                if T not in seen:
                    stack.append(T)
    return best


def concrete_mul_table(G):
    """Copy a ConcreteGroup's multiplication into a plain list table."""
    return [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)]
