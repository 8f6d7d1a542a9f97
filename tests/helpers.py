"""Independent oracles and the planted-defect catalog of the test suite.

The oracles deliberately avoid the library's fast paths: closures are
set-based, character values are computed with complex exponentials, and the
reference maximal-abelian search grows from small commuting subsets without
center seeding or bitmask tricks.

The catalog is every defect the suite plants in-process: LAWS, the wrong
laws and attribute patches that plant_law patches in, and PLANTED_RUNS,
the command-line runs under them, which planted_tests turns into tests.
"""

import cmath
import hashlib
import json
import re
from collections import Counter
from itertools import combinations, permutations, product
from math import gcd, lcm
from pathlib import Path
from typing import NamedTuple

import pytest

from thetajordan import heis
from thetajordan.abelian import make_group
from thetajordan.bundlemodel import level_data
from thetajordan.cli import main
from thetajordan.heis import ThetaElement, ThetaGroup, theta_group


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


def counting_checks(monkeypatch, cls=ThetaGroup,
                    names=("check_element", "_check_index")):
    """Patch the named methods of cls (a class or a module) to count their
    calls; returns the count.  On ThetaGroup, check_element checks the
    ThetaElements the public methods take, and _check_index the indices the
    law returns."""
    calls = [0]
    for name in names:
        check = getattr(cls, name, None)
        if check is None:
            continue

        def counted(*args, check=check):
            calls[0] += 1
            return check(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def recording(monkeypatch, owner, name, note=lambda *args: args, seen=None):
    """Patch owner.name (a method when owner is a class) to append
    note(*args) to seen, a new list by default, and still run; returns
    seen."""
    seen = [] if seen is None else seen
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(note(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return seen


# Theta groups the sanity sweep runs on: levels and non-cyclic bases.
THETAS = [level_data(n).theta for n in (1, 2, 5, 12)] + [
    theta_group(make_group(fs)) for fs in ([2, 2], [4, 2], [2, 2, 2])
]


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def plant_law(monkeypatch, law):
    """Patch the attributes in law: a bare name is ThetaGroup's (its
    unchecked law _mul and _inv, or a method a test replaces), a dotted
    name the full path of a module attribute."""
    for name, value in law.items():
        if "." in name:
            monkeypatch.setattr(name, value)
        else:
            monkeypatch.setattr(ThetaGroup, name, value)


# Broken laws, patched into the one unchecked law (ThetaGroup._mul and
# _inv) that the validated public methods, the sanity sweep and the
# oracle's table all run.
# The law runs on element indices; most broken laws below are written on
# ThetaElements and patched in through on_indices.
_int_mul = ThetaGroup._mul
_int_inv = ThetaGroup._inv


def _rank(self, g):
    """Index of g by the base's unchecked codec: a digit the law left out of
    range stays out, so a leaky law gives an index past the order."""
    rank = self.base._rank
    return g.a * self._mm + rank(g.k) * self.m + rank(g.l)


def on_indices(law):
    """law on ThetaElements as a law on indices: operands decoded by
    _parts, the result encoded by _rank.  Both are exact on the group, so
    the law's products are the same on every pair."""
    def on_ints(self, *indices):
        return _rank(self, law(self, *map(self._parts, indices)))

    return on_ints


def _correct_mul(self, g, h):
    return self._parts(_int_mul(self, _rank(self, g), _rank(self, h)))


def _correct_inv(self, g):
    return self._parts(_int_inv(self, _rank(self, g)))


def _leaky_mul(self, g, h):
    """The theta law without its final reduction of the central exponent."""
    K = self.base
    twist = K.evaluate(h.l, g.k, self.m)
    return ThetaElement(g.a + h.a + twist, K.add(g.k, h.k), K.add(g.l, h.l))


def cubic_mul(self, g, h):
    """The twist gains g.k^2 * h.k on the last base coordinate, which is not
    a cocycle when that coordinate's factor is above 2 (on Z2 it is one),
    so the law is not associative."""
    right = _correct_mul(self, g, h)
    return right._replace(a=(right.a + g.k[-1] ** 2 * h.k[-1]) % self.m)


def _cubic_inv(self, g):
    """Right inverse under cubic_mul."""
    right = _correct_inv(self, g)
    return right._replace(a=(right.a - g.k[-1] ** 2 * right.k[-1]) % self.m)


def off_by_one_inv(self, g):
    right = _correct_inv(self, g)
    return right._replace(a=(right.a + 1) % self.m)


def _leaky_inv(self, g):
    """The closed-form inverse, with m added to its central exponent when
    g.k is zero: out of range, though the law's reduction mod m absorbs it
    in g g^-1, so only a check of g^-1 itself sees the leak at such a g."""
    right = _correct_inv(self, g)
    return right._replace(a=right.a + self.m * (not any(g.k)))


def symmetric_mul(self, g, h):
    """An abelian group law: the twist <h.l, g.k> + <g.l, h.k> is a
    symmetric bilinear cocycle, so associativity and inverses hold."""
    right = _correct_mul(self, g, h)
    extra = self.base.evaluate(g.l, h.k, self.m)
    return right._replace(a=(right.a + extra) % self.m)


def _symmetric_inv(self, g):
    right = _correct_inv(self, g)
    extra = self.base.evaluate(g.l, g.k, self.m)
    return right._replace(a=(right.a + extra) % self.m)


def _doubled_central_mul(self, g, h):
    """The central exponents add as a + 2a': the law is right on the a' = 0
    block, which is all of the table that the central rotations do not
    fill in."""
    right = _correct_mul(self, g, h)
    return right._replace(a=(right.a + h.a) % self.m)


def _twisted_law(twist):
    """The theta law with twist(self, l, k) in place of <l, k>, as the
    _mul and _inv it replaces."""
    def mul(self, g, h):
        K = self.base
        a = (g.a + h.a + twist(self, h.l, g.k)) % self.m
        return ThetaElement(a, K.add(g.k, h.k), K.add(g.l, h.l))

    def inv(self, g):
        K = self.base
        a = (twist(self, g.l, g.k) - g.a) % self.m
        return ThetaElement(a, K.neg(g.k), K.neg(g.l))

    return {"_mul": on_indices(mul), "_inv": on_indices(inv)}


def _first_coordinate_twist(self, l, k):
    """<l, k> from the first base coordinate alone, dropping the rest."""
    return l[0] * k[0] * (self.m // self.base.invariant_factors[0]) % self.m


def _float_mul(self, i, j):
    """The law's products as floats: 2.0 == 2 passes every range compare."""
    return float(_int_mul(self, i, j))


def _carrying_mul(digit):
    """The scalar law with the % m of one digit, "k" or "l", dropped: its
    carry runs into the digit above, so products change or leave the
    group.  On a non-cyclic base it reads the ranks of k and l as digits."""
    def carrying_mul(self, i, j):
        m, mm = self.m, self._mm
        ga, gkl = divmod(i, mm)
        gk, gl = divmod(gkl, m)
        ha, hkl = divmod(j, mm)
        hk, hl = divmod(hkl, m)
        k, l = gk + hk, gl + hl
        if digit == "k":
            l %= m
        else:
            k %= m
        return (ga + ha + hl * gk) % m * mm + k * m + l

    return carrying_mul


def _rare_cell(self, i, j):
    """One wrong cell, (n - 1)(n - 1) = (0, 0, 0), at levels 7 and above:
    the oracle reads only the a = 0 block, c's row and column and the
    inverses, and a random round meets that cell once in n^2."""
    if self.m > 6 and i == j == self.order - 1:
        return 0
    return _int_mul(self, i, j)


def wrong_cell(cell, value=None):
    """The patch, for plant_law, that sets one cell of the law to value, by
    default the next index: cell (i, j) is the product ij, cell (i,) the
    inverse of i."""
    name, law = ("_mul", _int_mul) if len(cell) == 2 else ("_inv", _int_inv)

    def wrong(self, *operands):
        r = law(self, *operands)
        if operands != cell:
            return r
        return (r + 1) % self.order if value is None else value

    return {name: wrong}


def law_cells_read(G):
    """The cells of G's law that _law_cells reads, as wrong_cell names them:
    the a = 0 block, the central element's row and column, the inverses."""
    n, mm = G.order, G.m ** 2
    c = mm % n
    return sorted({(u, v) for u in range(mm) for v in range(mm)}
                  | {cell for x in range(n) for cell in ((c, x), (x, c), (x,))})


_search = heis.extension_max_abelian_order
_INDEX = "thetajordan.bundlemodel.structural_min_abelian_index"

# name -> the patch that plants the defect
LAWS = {
    "correct": {},
    "cubic": {"_mul": on_indices(cubic_mul), "_inv": on_indices(_cubic_inv)},
    "off-by-one inverse": {"_inv": on_indices(off_by_one_inv)},
    "float": {"_mul": _float_mul},
    "carrying k": {"_mul": _carrying_mul("k")},
    "carrying l": {"_mul": _carrying_mul("l")},
    "symmetric": {"_mul": on_indices(symmetric_mul),
                  "_inv": on_indices(_symmetric_inv)},
    "leaky": {"_mul": on_indices(_leaky_mul)},
    "leaky inverse": {"_inv": on_indices(_leaky_inv)},
    "doubled central": {"_mul": on_indices(_doubled_central_mul)},
    # <l, k> = 0 everywhere: the law becomes the abelian Z_m x K x K^
    "zero twist": _twisted_law(lambda self, l, k: 0),
    "first-coordinate twist": _twisted_law(_first_coordinate_twist),
    # the cyclic group of the theta group's order: its cells make an
    # abelian extension, so every run that reads it must fail, in the
    # sweep and in the oracle
    "cyclic": {"_mul": lambda self, i, j: (i + j) % self.order,
               "_inv": lambda self, i: -i % self.order},
    "rare cell": {"_mul": _rare_cell},
    # (0; 0; 1)^2 lands on (0; 1; 0): the block stays a loop with the law's
    # inverses, and only associativity fails
    "wrong cell": wrong_cell((1, 1)),
    # (0; 0; 0)(0; 1; 1) moved: index 0 is no longer an identity
    "wrong identity cell": wrong_cell((0, 4)),
    # the closed form of the sweep's bridge is the base's pairing: broken
    # there, with the law intact
    "zero pairing": {"thetajordan.abelian.FiniteAbelianGroup._pairing":
                     lambda self, l, k: 0},
    # no subgroup of order 27 has order 7
    "maximum off Lagrange": {"thetajordan.heis.extension_max_abelian_order":
                             lambda m, *cells: 7 if m == 3 else _search(m, *cells)},
    # the structural index at n - 1, and at n, the route's own answer
    "index n - 1": {_INDEX: lambda base: base.order - 1},
    "index n": {_INDEX: lambda base: base.order},
}
# the laws whose cells fail the group check of the table the oracle reads
BROKEN_TABLES = ["cubic", "off-by-one inverse", "float", "carrying k", "carrying l"]


def _readme_zero_twist_line():
    """The violation README.md quotes for a law with no twist."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    (line,) = re.findall(r"reports the one line\s+`(.*?)`", readme, re.S)
    return " ".join(line.split())


class PlantedRun(NamedTuple):
    """`verify <argv>` under the law LAWS[law], the test case `case` (its
    class::name[id]): its exit code, its report's violations (the list, or
    the sha256 of its JSON), each entry's (max abelian order, index,
    method), report after report, and its stderr."""
    case: str
    law: str
    argv: str
    code: int
    violations: "list[str] | str"
    entries: list
    err: str = ""


_SWEEP = "TestSanitySweep::"
_JSON = "--format json --no-timestamps"
# twist -> mode-spec -> sha256 of the violations
_TWISTED = {
    "zero twist": {
        "oracle-Z4xZ2": "ad74b9c90bd3cd13b64ff3f8fd9d4435ac75534bb4aa518e0995bbc05b88b810",
        "oracle-Z2xZ2xZ2": "92dc107f05d9964d81345686899231f64957468fd81a8f7c7b48f3a0217d7a09",
        "structural-Z4xZ2": "cfccaa4de63378c93a89261ea4f78385eb6182debf0ec9bd83b7fac17a0ba0ea",
        "structural-Z2xZ2xZ2": "0cb3b3d4e08bc3c3baa709e76e30f162d8dee34099fffff732b9f7ecb8832198",
        "both-Z4xZ2": "d6b664d7bacc3ac1359a52d2fe7173ce78ee175f138697398d14f6c541b0b935",
        "both-Z2xZ2xZ2": "a1e4220b8280cf80bb2dd66a87a4222617ac8b83a223bc31493667d2d6a85171",
    },
    "first-coordinate twist": {
        "oracle-Z4xZ2": "27c868f6fc1b60e89cf4c14e780d4ab3921f29ff9ad200d3b9382123f91f0b21",
        "oracle-Z2xZ2xZ2": "b0997c6088ac5638ce9a5e5be269048f90c2d6618ef311a57b5ec65639f21428",
        "structural-Z4xZ2": "8bf95089af6c747b3ef26fc8ba00ccba3fb3293d65d9f6b8492587986c080c08",
        "structural-Z2xZ2xZ2": "0405cf610f5b543f9e9895d02edf4677d349ac6d3425b1761b87557f28a70d7a",
        "both-Z4xZ2": "4ac957405816267b0a0a2718b59a56fe011ac869266a9b212d6c51efc3524a68",
        "both-Z2xZ2xZ2": "500c17daae6d48864ab178a8e688c2e029c6829dddf96a60f361f21b42457f08",
    },
}
# spec-law -> sha256 of the violations, in mode oracle and in mode both
_BROKEN = {
    "Z5-cubic": "3ee66ba4f34f219daba62373b6454b98878d517d95d7752be36560d4f728db48",
    "Z5-off-by-one inverse": "5364f6d1586456d7e5eb57bfc97c374ae01b60f7953df086de7c44efe37ccff3",
    "Z5-float": "6602e97e08288df22f09836045833bb4f89d0e172486f804c3c53d043b4d2816",
    "Z5-carrying k": "a06a08bbceeecf3582b1be016995366d82a738fc95aa8e46046f562ab2d1afe7",
    "Z5-carrying l": "c6ff433b7ca12ebec06e1e3abaa6ad3befac5121d9535e67a3d61bdb37d58113",
    "Z2xZ4-cubic": "67f4a8b2aead76fbc89dff96b49a4eb0b334a3aff9a973f9140e1f3b5a29cd30",
    "Z2xZ4-off-by-one inverse": "9d2c718fe502000c276a117292afabc5359ed29d492e3e3f6042e02cdef1b8e6",
    "Z2xZ4-float": "9960aa670fda80bf6002b387fabebcb3c27cf1d7b61acc67ea47ad241cfec2e6",
    "Z2xZ4-carrying k": "80e7142e3abeab2656d4b3c5d82b0313d2166fc484bea68110ab888eea129b70",
    "Z2xZ4-carrying l": "3f17e7e6192ad652ccf435c27b313d21507531988ec5af20efd9f2c4cd4ed249",
}
PLANTED_RUNS = [
    # a twist broken in the law alone shows as a commutator mismatch; the
    # oracle searches the law's own table, abelian under the zero twist.
    # The case id names the twist by its function's name, _zero_twist
    *[PlantedRun(f"{_SWEEP}test_broken_twist_exits_1[{key}-_{re.sub('[ -]', '_', law)}]",
                 law, f"--base-group {spec} --mode {mode} {_JSON}", 1, digest,
                 [(64, 8, mode) if mode == "structural" else
                  (512, 1, mode) if law == "zero twist" else (256, 2, mode)])
      for law, runs in _TWISTED.items() for key, digest in runs.items()
      for mode, spec in [key.split("-")]],
    # the structural route does not read the law, so it still answers
    # index 4; only the sweep fails the run, with the line README.md quotes
    PlantedRun(f"{_SWEEP}test_repeats_within_a_level_collapse", "zero twist",
               f"--base-group Z2xZ2 --mode structural {_JSON}", 1,
               [_readme_zero_twist_line()], [(16, 4, "structural")]),
    PlantedRun(f"{_SWEEP}test_every_violation_names_its_level", "zero twist",
               f"--max-n 4 --mode structural {_JSON}", 1,
               "bafc5c15b939bd48728d44abcd1ec969265812eb0b6528a99bf376dd162205e5",
               [(n * n, n, "structural") for n in (2, 4, 1, 3)]),
    # a broken law fails the table's group check: a violation of that
    # level, not a usage error, and the entry answers from the closed form
    *[PlantedRun(f"{_SWEEP}test_broken_table_exits_1_with_report[{mode}-{key}]",
                 law, f"--base-group {spec} --mode {mode} {_JSON}", 1, digest,
                 [(25, 5, "structural") if spec == "Z5" else (64, 8, "structural")])
      for mode in ("oracle", "both") for key, digest in _BROKEN.items()
      for spec, law in [key.split("-", 1)]],
    # a table built from the a' = 0 block and central rotations equals the
    # true law's here; the check of c = (1, 0, 0)'s row and column fails
    *[PlantedRun(f"{_SWEEP}test_central_rotation_is_checked[{key}]", "doubled central",
                 f"--base-group {key.split('-')[0]} --mode oracle {_JSON}", 1,
                 digest, [(64, 8, "structural")]) for key, digest in [
        ("Z8-level 8-(1; 0; 0)-(0; 0; 0)",
         "9739dec821276d8c52b1241ca10ecc81fcce17a9a93b417348a95dee1521533f"),
        ("Z2xZ4-Z2xZ4-(1; 0,0; 0,0)-(0; 0,0; 0,0)",
         "f6a9f0f1092bcc3c31d979d03b3503e56464b62b559170706708ee41a2ba2340")]],
    # the paper's bound is index >= n: n - 1 breaks it, and n does not
    *[PlantedRun(f"{_SWEEP}test_bound_at_its_boundary[{spec}-{label}-{n}-{off}]",
                 "index n - 1" if off else "index n",
                 f"--base-group {spec} --mode structural {_JSON}", -off,
                 [f"{label}: min abelian index {n - 1} is below the bound {n} "
                  "(structural)"] if off else [],
                 [(n ** 3 // (n + off), n + off, "structural")])
      for spec, label, n in [("Z6", "level 6", 6), ("Z2xZ4", "Z2xZ4", 8)]
      for off in (-1, 0)],
    # the index is read through ThetaGroup.min_abelian_index's Lagrange
    # check, and the entry answers from the closed form
    *[PlantedRun(f"{_SWEEP}test_search_maximum_off_lagrange_exits_1[{mode}]",
                 "maximum off Lagrange", f"--base-group Z3 --mode {mode} {_JSON}", 1,
                 ["level 3: oracle search failed: abelian maximum 7 does not "
                  "divide the order 27"], [(9, 3, "structural")])
      for mode in ("oracle", "both")],
    PlantedRun(f"{_SWEEP}test_bridge_reads_base_pairing[args0]", "zero pairing",
               f"--base-group Z4xZ2 {_JSON}", 1,
               "ae4fc294daf3372482516e09b57a534684704df9d6a3011b6d53cb251af0c0ac",
               [(64, 8, "both")]),
    PlantedRun(f"{_SWEEP}test_bridge_reads_base_pairing[args1]", "zero pairing",
               f"--max-n 3 {_JSON}", 1,
               "32fd4c7e29136240ace884afe3eab5acb85e94d00b5560887e2759770639592c",
               [(n * n, n, "both") for n in (2, 1, 3)]),
    PlantedRun(f"{_SWEEP}test_law_leaving_the_group_exits_1_with_report", "leaky",
               "--class 1 --max-n 3 --mode structural --format json", 1,
               ["level 3: group law left the group at (0; 2; 1), (2; 0; 0), "
                "(1; 2; 2): index 35 out of range 0..26"],
               [(1, 1, "structural"), (9, 3, "structural")]),
    # the sweep's fixed edge rounds read the rare cell; the oracle's answers
    # stand, as the defect lies outside what it reads
    PlantedRun(f"{_SWEEP}test_rare_cell_is_caught", "rare cell", f"--max-n 8 {_JSON}", 1,
               [f"level {n}: associativity failed at {at}"
                for n in (8, 7) for top in [f"({n - 1}; {n - 1}; {n - 1})"]
                for at in (f"{top}, {top}, (0; 1; 1)", f"(0; 1; 1), {top}, {top}")],
               [(n * n, n, "both") for n in (2, 4, 6, 8, 1, 3, 5, 7)]),
    # with timestamps: violations name no time
    PlantedRun("TestRun::test_corrupt_hook_forces_violation", "cyclic",
               "--class 0 --max-n 2 --format json", 1,
               "22e22236cd5b41e341dae9f534ded41f2271a726d1b7be44ec1ea06b7fb98c93",
               [(8, 1, "both")]),
]


def _run_planted(monkeypatch, capsys, row):
    plant_law(monkeypatch, LAWS[row.law])
    code = main(["verify", *row.argv.split()])
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (code, err, doc["ok"]) == (row.code, row.err, row.code == 0)
    violations = doc["violations"]
    if isinstance(row.violations, str):
        digest = hashlib.sha256(json.dumps(violations).encode()).hexdigest()
        assert digest == row.violations, violations
    else:
        assert violations == row.violations
    assert [(e["max_abelian_order"], e["min_abelian_index"], e["method"])
            for report in doc["reports"]
            for e in report["entries"]] == row.entries


def planted_tests(cls):
    """Class decorator: adds to cls each test that PLANTED_RUNS lists under
    it, one case per row, under the row's case id."""
    tests = {}
    for row in PLANTED_RUNS:
        where, _, case = row.case.partition("::")
        name, _, param = case.partition("[")
        if where == cls.__name__:
            tests.setdefault(name, {})[param[:-1]] = row
    for name, rows in tests.items():
        if list(rows) == [""]:
            def test(self, monkeypatch, capsys, row=rows[""]):
                _run_planted(monkeypatch, capsys, row)
        else:
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def test(self, monkeypatch, capsys, row):
                _run_planted(monkeypatch, capsys, row)
        setattr(cls, name, test)
    return cls
