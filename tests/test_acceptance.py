"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are exact integer equality unless a runtime bound is
stated.
"""

import json
import subprocess
import sys
import time
from collections import Counter

from thetajordan.abelian import make_group
from thetajordan.bundlemodel import (
    DiffeoClass,
    diffeo_class,
    family_for_class,
    jordan_certificate,
    torsion_group,
    torsion_inclusion,
)
from thetajordan.heis import theta_group
from thetajordan.lattice import min_abelian_index, order_sequence
from thetajordan.symplectic import (
    max_isotropic_order,
    pairing_space,
    structural_min_abelian_index,
)


def _report(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _concrete(factors):
    return theta_group(make_group(factors)).to_concrete()


def test_criterion_1_index_bound_at_desk_scale():
    # oracle values for every level n <= 6, split by parity class
    start = time.perf_counter()
    computed = {}
    for parity in (0, 1):
        for level in family_for_class(DiffeoClass(parity), 6):
            concrete = level.theta.to_concrete()
            idx = min_abelian_index(concrete)
            assert idx >= level.n
            computed[level.n] = idx
    elapsed = time.perf_counter() - start
    values = [computed[n] for n in range(1, 7)]
    _report(
        1,
        values == [1, 2, 3, 4, 5, 6] and elapsed < 60.0,
        f"oracle min indices {values} in {elapsed:.1f}s",
    )


def test_criterion_2_oracle_structural_agreement():
    # every isomorphism type of a base group with |K| <= 8
    types = [[2], [3], [4], [2, 2], [5], [6], [7], [8], [4, 2], [2, 2, 2]]
    start = time.perf_counter()
    results = []
    for factors in types:
        base = make_group(factors)
        oracle = min_abelian_index(theta_group(base).to_concrete())
        structural = structural_min_abelian_index(base)
        results.append(oracle == structural == base.order)
    elapsed = time.perf_counter() - start
    _report(
        2,
        all(results) and len(results) == 10 and elapsed < 300.0,
        f"10 base types agree exactly in {elapsed:.1f}s",
    )


def test_criterion_3_group_law():
    # associativity over all |G|^3 triples for |G| <= 64
    triples = 0
    for factors in ([2], [3], [4], [2, 2]):
        G = _concrete(factors)
        t = G._mul
        n = G.order
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        _report(3, False, f"associativity broken in {factors}")
                triples += n
    # identity and inverse laws over every element for |G| <= 216
    checked = 0
    for factors in ([2], [3], [4], [2, 2], [5], [6]):
        theta = theta_group(make_group(factors))
        e = theta.identity()
        for g in theta.elements():
            assert theta.mul(e, g) == g == theta.mul(g, e)
            assert theta.mul(g, theta.inv(g)) == e == theta.mul(theta.inv(g), g)
            checked += 1
    _report(3, True, f"{triples} triples associative, {checked} identity/inverse checks")


def test_criterion_4_commutator_bridge():
    # commutator() verifies definitional == closed form internally and
    # raises on mismatch; drive it over all pairs for |G| <= 216
    pairs = 0
    for factors in ([2], [3], [4], [2, 2], [5], [6]):
        theta = theta_group(make_group(factors))
        els = theta.elements()
        for g in els:
            for h in els:
                theta.commutator(g, h)
                pairs += 1
    _report(4, True, f"closed form agreed on {pairs} pairs")


def test_criterion_5_torsion_model():
    orders_ok = all(torsion_group(k).order == k * k for k in range(1, 101))
    embeddings = 0
    for k in range(1, 25):
        big = torsion_group(k)
        for d in range(1, k + 1):
            if k % d:
                continue
            embed = torsion_inclusion(d, k)
            small = torsion_group(d)
            els = small.elements()
            images = [embed(x) for x in els]
            # f(x + y) = f(x) + f(y) for every x and every generator y, with
            # f(0) = 0, is the homomorphism law over all pairs: each w is a
            # sum of generators s_1 + ... + s_r, and by induction on r,
            # f(x + w) = f(x) + f(s_1) + ... + f(s_r) = f(x) + f(w)
            assert embed(small.zero()) == big.zero()
            units = [tuple(int(i == j) for j in range(small.rank))
                     for i in range(small.rank)]
            for x, ex in zip(els, images):
                for y in units:
                    assert embed(small.add(x, y)) == big.add(ex, embed(y))
            assert len(set(images)) == small.order  # injective
            embeddings += 1
    _report(
        5,
        orders_ok,
        f"orders exact for k<=100, {embeddings} divisor embeddings verified",
    )


def test_criterion_6_parity_classification():
    parity_ok = all(diffeo_class(n).parity == n % 2 for n in range(101))
    evens = [lv.n for lv in family_for_class(DiffeoClass(0), 100)]
    odds = [lv.n for lv in family_for_class(DiffeoClass(1), 100)]
    families_ok = evens == list(range(2, 101, 2)) and odds == list(range(1, 101, 2))
    _report(6, parity_ok and families_ok, "diffeo_class is parity, families exact")


def test_criterion_7_max_isotropic():
    results = []
    for factors in ([2], [3], [4], [2, 2]):
        P = pairing_space(make_group(factors))
        brute = max_isotropic_order(P, method="brute")
        structural = max_isotropic_order(P, method="structural")
        results.append(brute == structural == P.base.order)
    _report(7, all(results), "brute-force isotropic maxima equal |K| for |K| <= 4")


def test_criterion_8_structure_fingerprint():
    census = order_sequence(_concrete([2]))
    ok = census == Counter({1: 1, 2: 5, 4: 2})
    _report(8, ok, f"order census of the 8-element group is {dict(census)}")


def test_criterion_9_certificates():
    ok = True
    for parity in (0, 1):
        cls = DiffeoClass(parity)
        for c in (1, 5, 10, 10 ** 6):
            cert = jordan_certificate(cls, c)
            ok &= cert.n > c and cert.n % 2 == parity and cert.n - 2 <= c
            ok &= cert.min_abelian_index >= cert.n
    cls = DiffeoClass(1)
    jordan_certificate(cls, 10 ** 6, mode="structural")  # warm-up
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        jordan_certificate(cls, 10 ** 6, mode="structural")
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    ok &= best < 0.001
    _report(9, ok, f"8 minimal certificates, structural c=10^6 in {best * 1e6:.0f}us")


def test_criterion_10_deterministic_json():
    args = [
        sys.executable, "-m", "thetajordan",
        "verify", "--no-timestamps", "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    identical = (
        first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    payload = json.loads(first.stdout)
    _report(
        10,
        identical and payload["schema"] == "theta-jordan/1",
        f"two runs byte-identical ({len(first.stdout)} bytes)",
    )
