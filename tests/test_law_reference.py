"""The one-pass element checks and the precomputed theta law against the
straightforward reference they replaced.

The reference functions below are the plain per-part checks and the
coordinate-by-coordinate law: every accepted input must give the same
result, and every rejected one the same ValueError message.
"""

import random

import pytest

from thetajordan.abelian import FiniteAbelianGroup
from thetajordan.heis import ThetaElement, theta_group

from helpers import divisor_chains


def ref_base_check(K, x):
    if not isinstance(x, tuple) or len(x) != K.rank:
        raise ValueError(f"element {x!r} does not have {K.rank} coordinates")
    for c, d in zip(x, K.invariant_factors):
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} out of range for Z_{d}")


def ref_check(G, g):
    if not isinstance(g, ThetaElement):
        raise ValueError(f"{g!r} is not a ThetaElement")
    if not 0 <= g.a < G.m:
        raise ValueError(f"central exponent {g.a} out of range mod {G.m}")
    ref_base_check(G.base, g.k)
    ref_base_check(G.base, g.l)


def ref_twist(G, l, k):
    fs = G.base.invariant_factors
    return sum(c * a * (G.m // d) for c, a, d in zip(l, k, fs)) % G.m


def ref_mul(G, g, h):
    ref_check(G, g)
    ref_check(G, h)
    fs = G.base.invariant_factors
    return ThetaElement(
        (g.a + h.a + ref_twist(G, h.l, g.k)) % G.m,
        tuple((x + y) % d for x, y, d in zip(g.k, h.k, fs)),
        tuple((x + y) % d for x, y, d in zip(g.l, h.l, fs)),
    )


def ref_inv(G, g):
    ref_check(G, g)
    fs = G.base.invariant_factors
    return ThetaElement(
        (ref_twist(G, g.l, g.k) - g.a) % G.m,
        tuple(-x % d for x, d in zip(g.k, fs)),
        tuple(-x % d for x, d in zip(g.l, fs)),
    )


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def bad_elements(G):
    """Malformed elements of G, one per way of being malformed."""
    r = G.base.rank
    zero = (0,) * r
    d = G.base.invariant_factors[-1]
    last = (0,) * (r - 1)
    return [
        ThetaElement(0, zero + (0,), zero),  # k one coordinate too long
        ThetaElement(0, zero, zero[1:]),  # l one coordinate too short
        ThetaElement(0, list(zero), zero),  # a list instead of a tuple
        ThetaElement(0, zero, list(zero)),
        ThetaElement(0, last + (-1,), zero),  # negative coordinate
        ThetaElement(0, zero, last + (-1,)),
        ThetaElement(0, last + (d,), zero),  # coordinate equal to d
        ThetaElement(0, zero, last + (d,)),
        (0, zero, zero),  # a plain tuple, not a ThetaElement
        None,
        ThetaElement(G.m, zero, zero),  # a equal to m
        ThetaElement(-1, zero, zero),
    ]


class TestAgainstReference:
    def test_every_pair_small(self):
        for fs in divisor_chains(4):
            G = theta_group(FiniteAbelianGroup(fs))
            els = G.elements()
            for g in els:
                assert G.check_element(g) is ref_check(G, g) is None
                assert G.inv(g) == ref_inv(G, g)
                for h in els:
                    assert G.mul(g, h) == ref_mul(G, g, h)

    def test_sampled_every_base_up_to_16(self):
        rng = random.Random(20261018)
        for fs in divisor_chains(16):
            G = theta_group(FiniteAbelianGroup(fs))
            for _ in range(300):
                g = G.random_element(rng)
                h = G.random_element(rng)
                assert G.mul(g, h) == ref_mul(G, g, h)
                assert G.inv(g) == ref_inv(G, g)

    def test_random_element_draws_as_before(self):
        # one randrange per digit, a first, then k, then l
        for fs in ((), (6,), (2, 4), (2, 2, 2)):
            G = theta_group(FiniteAbelianGroup(fs))
            new, old = random.Random(5), random.Random(5)
            for _ in range(50):
                assert G.random_element(new) == ThetaElement(
                    old.randrange(G.m),
                    tuple(old.randrange(d) for d in fs),
                    tuple(old.randrange(d) for d in fs),
                )

    @pytest.mark.parametrize("fs", [(2,), (5,), (2, 4), (2, 2, 2)])
    def test_bad_inputs_same_message(self, fs):
        G = theta_group(FiniteAbelianGroup(fs))
        e = G.identity()
        for bad in bad_elements(G):
            want = outcome(ref_check, G, bad)
            assert want[0] == "ValueError", bad
            assert outcome(G.check_element, bad) == want
            assert outcome(G.mul, bad, e) == want
            assert outcome(G.mul, e, bad) == want
            assert outcome(G.inv, bad) == want
            assert outcome(G.index, bad) == want
        K = G.base
        for bad in bad_elements(G)[:8]:
            for x in (bad.k, bad.l):
                assert outcome(K.check_element, x) == outcome(ref_base_check, K, x)

    def test_generated_tuples(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        chains = [fs for fs in divisor_chains(16) if fs]

        @st.composite
        def cases(draw):
            G = theta_group(FiniteAbelianGroup(draw(st.sampled_from(chains))))
            r = G.base.rank
            coord = st.integers(min_value=-2, max_value=17)
            coords = st.lists(coord, min_size=max(r - 1, 0), max_size=r + 1)

            def element():
                return ThetaElement(
                    draw(st.integers(min_value=-2, max_value=G.m + 1)),
                    tuple(draw(coords)),
                    tuple(draw(coords)),
                )

            return G, element(), element()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            G, g, h = case
            assert outcome(G.check_element, g) == outcome(ref_check, G, g)
            assert outcome(G.mul, g, h) == outcome(ref_mul, G, g, h)
            assert outcome(G.inv, g) == outcome(ref_inv, G, g)
            assert outcome(G.base.check_element, g.k) == outcome(
                ref_base_check, G.base, g.k
            )

        check()
