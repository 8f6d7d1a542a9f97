"""The element checks, the theta law on element indices and the sanity
sweep against straightforward references.

The reference functions below are the plain per-part checks, the
coordinate-by-coordinate law on ThetaElements, and the sweep composed of
the validated public methods: every accepted input must give the same
result, and every rejected one the same ValueError message.
"""

import random
from itertools import chain, product

import pytest

from thetajordan.abelian import FiniteAbelianGroup, make_group
from thetajordan.bundlemodel import level_data
from thetajordan.heis import (
    EDGE_ROUNDS,
    SWEEP_ROUNDS,
    ThetaElement,
    _draw_indices,
    _sanity_sweep,
    format_element,
    theta_group,
)

from helpers import (
    LAWS,
    THETAS,
    counting_checks,
    cubic_mul,
    divisor_chains,
    off_by_one_inv,
    outcome,
    plant_law,
    ref_edge,
    symmetric_mul,
)


def ref_base_check(K, x):
    if not isinstance(x, tuple) or len(x) != K.rank:
        raise ValueError(f"element {x!r} does not have {K.rank} coordinates")
    for c, d in zip(x, K.invariant_factors):
        if not isinstance(c, int):
            raise ValueError(f"coordinate {c!r} is not an integer")
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} out of range for Z_{d}")


def ref_check(G, g):
    if not isinstance(g, ThetaElement):
        raise ValueError(f"{g!r} is not a ThetaElement")
    if not isinstance(g.a, int):
        raise ValueError(f"central exponent {g.a!r} is not an integer")
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
        ThetaElement(0, 0, zero),  # an int or a str instead of a tuple
        ThetaElement(0, zero, "0"),
    ]


def odd_elements(G):
    """(digit, element) pairs with a float, str or bool digit at each
    position of an element; only the bools are valid, as bools are ints."""
    zero = G.base.zero()
    out = []
    for odd in (1.0, 0.5, "1", True, False):
        out.append((odd, ThetaElement(odd, zero, zero)))
        for i in range(G.base.rank):
            x = zero[:i] + (odd,) + zero[i + 1:]
            out.append((odd, ThetaElement(0, x, zero)))
            out.append((odd, ThetaElement(0, zero, x)))
    return out


# Cyclic bases, which run the scalar form of the law; [2, 3] canonicalizes
# to Z6.
CYCLIC = [[m] for m in (*range(2, 41), 97, 256, 1000)] + [[2, 3]]


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
        for factors in ([1], [2, 4], [2, 2, 2], *CYCLIC):
            G = theta_group(make_group(factors))
            fs = G.base.invariant_factors
            new, old = random.Random(5), random.Random(5)
            for _ in range(50):
                assert G.random_element(new) == ThetaElement(
                    old.randrange(G.m),
                    tuple(old.randrange(d) for d in fs),
                    tuple(old.randrange(d) for d in fs),
                )

    @pytest.mark.parametrize("fs", [(2,), (5,), (2, 4), (2, 2, 2)] + [
        fs for fs in CYCLIC if fs not in ([2], [5])
    ])
    def test_bad_inputs_same_message(self, fs):
        G = theta_group(make_group(fs))
        e = G.identity()
        for bad in bad_elements(G):
            want = outcome(ref_check, G, bad)
            assert want[0] == "ValueError", bad
            assert outcome(G.check_element, bad) == want
            assert outcome(G.mul, bad, e) == want
            assert outcome(G.mul, e, bad) == want
            assert outcome(G.inv, bad) == want
            assert outcome(G.index, bad) == want
        # the same accept or reject, and the same result or message
        g = G.random_element(random.Random(G.m))
        for digit, odd in odd_elements(G):
            want = outcome(ref_check, G, odd)
            assert (want[0] == "ok") == isinstance(digit, bool), odd
            assert outcome(G.check_element, odd) == want
            assert outcome(G.mul, odd, g) == outcome(ref_mul, G, odd, g)
            assert outcome(G.mul, g, odd) == outcome(ref_mul, G, g, odd)
            assert outcome(G.inv, odd) == outcome(ref_inv, G, odd)
        K = G.base
        for bad in bad_elements(G)[:8] + [odd for _, odd in odd_elements(G)]:
            for x in (bad.k, bad.l):
                assert outcome(K.check_element, x) == outcome(ref_base_check, K, x)

    @pytest.mark.parametrize("factors", CYCLIC, ids=lambda fs: "x".join(map(str, fs)))
    def test_scalar_form_sampled(self, factors):
        # a cyclic base runs the scalar form; the generic form, forced on a
        # second copy of the group, must give the same values
        G = theta_group(make_group(factors))
        generic = theta_group(G.base)
        generic._cyclic = False
        rng = random.Random(G.m)
        for _ in range(200):
            g = G.random_element(rng)
            h = G.random_element(rng)
            assert G.check_element(g) is ref_check(G, g) is None
            assert G.mul(g, h) == ref_mul(G, g, h) == generic.mul(g, h)
            assert G.inv(g) == ref_inv(G, g) == generic.inv(g)
            assert G.commutator(g, h) == ref_commutator(G, g, h)
            assert type(G.mul(g, h)) is type(G.inv(g)) is ThetaElement
        # the scalar form carries exactly at digit boundaries, which random
        # pairs at m = 97, 256 and 1000 rarely hit: every pair of them, on
        # the unchecked law, against the generic form and the reference
        m, n = G.m, G.order
        edges = sorted({0, 1, m - 1, m, m * m - 1, m * m, n - m, n - 1})
        for i in edges:
            g = G.element(i)
            assert G._inv(i) == generic._inv(i) == G.index(ref_inv(G, g))
            for j in edges:
                want = G.index(ref_mul(G, g, G.element(j)))
                assert G._mul(i, j) == generic._mul(i, j) == want

    @pytest.mark.parametrize("factors", [[2, 4], [3, 6], [2, 8], [2, 2, 2], [2, 2, 4]],
                             ids=lambda fs: "x".join(map(str, fs)))
    def test_digit_loop_at_digit_boundaries(self, factors):
        # the loop carries between coordinates where a digit is 0, 1 or
        # d_t - 1 and a is 0 or m - 1, which random pairs rarely hit: every
        # pair of such indices on the unchecked law, against the reference
        G = theta_group(make_group(factors))
        digits = [sorted({0, 1, d - 1}) for d in G.base.invariant_factors]
        els = [ThetaElement(a, k, l) for a in (0, G.m - 1)
               for k in product(*digits) for l in product(*digits)]
        edges = list(map(G.index, els))
        for i, g in zip(edges, els):
            assert G._inv(i) == G.index(ref_inv(G, g))
            for j, h in zip(edges, els):
                assert G._mul(i, j) == G.index(ref_mul(G, g, h))

    def test_generated_tuples(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        chains = [fs for fs in divisor_chains(16) if fs]

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            draw = data.draw
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

            g, h = element(), element()
            assert outcome(G.check_element, g) == outcome(ref_check, G, g)
            assert outcome(G.mul, g, h) == outcome(ref_mul, G, g, h)
            assert outcome(G.inv, g) == outcome(ref_inv, G, g)
            assert outcome(G.base.check_element, g.k) == outcome(
                ref_base_check, G.base, g.k
            )

        check()


def ref_commutator(G, g, h):
    """g h g^-1 h^-1 from the validated public mul and inv, checked against
    the closed form (<h.l, g.k> - <g.l, h.k>, 0, 0)."""
    direct = G.mul(G.mul(g, h), G.inv(G.mul(h, g)))
    twist = (ref_twist(G, h.l, g.k) - ref_twist(G, g.l, h.k)) % G.m
    closed = ThetaElement(twist, G.base.zero(), G.base.zero())
    if direct != closed:
        raise RuntimeError(f"commutator mismatch: definitional "
                           f"{format_element(direct)} vs closed form "
                           f"{format_element(closed)}")
    return direct


def ref_sweep(theta, rng):
    """The sanity sweep composed of the validated public mul and inv, which
    re-check every operand, so each round makes 18 checks.  It draws each
    element as the sweep does, as one index rng.randrange(order), then
    runs the EDGE_ROUNDS, and renders elements with format_element."""
    out = []
    e = theta.identity()
    drawn = ([theta.element(rng.randrange(theta.order)) for _ in "ghf"]
             for _ in range(SWEEP_ROUNDS - len(EDGE_ROUNDS)))
    edges = ([ref_edge(theta, *x) for x in triple] for triple in EDGE_ROUNDS)
    for g, h, f in chain(drawn, edges):
        at = ", ".join(map(format_element, (g, h, f)))
        try:
            if theta.mul(theta.mul(g, h), f) != theta.mul(g, theta.mul(h, f)):
                out.append(f"associativity failed at {at}")
            if theta.mul(g, theta.inv(g)) != e:
                out.append(f"inverse law failed at {format_element(g)}")
            ref_commutator(theta, g, h)
        except RuntimeError as exc:
            out.append(str(exc))
        except ValueError as exc:
            out.append(f"group law left the group at {at}: {exc}")
            break
    return out


def sweep_outcome(sweep, theta, seed):
    """The sweep's violation list, or the exception that escaped it (the
    cubic law indexes k[0], which the trivial base does not have)."""
    try:
        return "ok", list(map(leak_cut, sweep(theta, random.Random(seed))))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def leak_cut(violation):
    """The violation, with a 'left the group' entry's check message cut to
    'out of range'.  Both sweeps stop in the same round at the same three
    elements, but the sweep's int check names the leaked index, and the
    reference's element check names the leaked digit."""
    if "left the group" not in violation:
        return violation
    head, _, message = violation.rpartition(": ")
    assert "out of range" in message
    return f"{head}: out of range"


# the laws the sweep and its reference must agree on
SWEEP_LAWS = ["correct", "cubic", "off-by-one inverse", "symmetric", "leaky",
              "leaky inverse"]


class TestSweepAgainstReference:
    @pytest.mark.parametrize("law", SWEEP_LAWS)
    def test_same_violations(self, monkeypatch, law):
        plant_law(monkeypatch, LAWS[law])
        violations = 0
        for theta in THETAS:
            for seed in range(5):
                got = sweep_outcome(_sanity_sweep, theta, seed)
                assert got == sweep_outcome(ref_sweep, theta, seed), (theta, seed)
                violations += len(got[1]) if got[0] == "ok" else 0
        # a broken law must show, or the comparison proves little
        assert (violations == 0) == (law == "correct")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 2 ** 20, 2 ** 20 + 1, 1000 ** 3])
    def test_draws_are_randrange(self, n):
        # the sweep's draws are rng.randrange(n)'s values, and leave the rng
        # where randrange leaves it, on every Python the package supports
        count = 3 * (SWEEP_ROUNDS - len(EDGE_ROUNDS))
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _draw_indices(rng, n, count) == [ref.randrange(n) for _ in range(count)]
            assert rng.random() == ref.random()

    def test_five_checks_per_round(self, monkeypatch):
        # the sweep checks the five indices the law returns (gh, hf, g^-1,
        # hg, (hg)^-1) and makes no element check per round: g, h and f are
        # drawn in range.  The reference makes 18 element checks through
        # the public methods
        ints = counting_checks(monkeypatch, names=("_check_index",))
        elements = counting_checks(monkeypatch, names=("check_element",))
        for theta in THETAS:
            ints[0] = elements[0] = 0
            assert _sanity_sweep(theta, random.Random(3)) == []
            assert (ints[0], elements[0]) == (5 * SWEEP_ROUNDS, 0)
            ints[0] = 0
            ref_sweep(theta, random.Random(3))
            assert (ints[0], elements[0]) == (0, 18 * SWEEP_ROUNDS)

    def test_law_calls_per_round(self, monkeypatch):
        # the law work of a round: g h, h f, (g h) f, g (h f), g g^-1, h g
        # and the bridge's gh (hg)^-1 multiply; g^-1 and (hg)^-1 invert; the
        # closed form reads the base pairing twice.  A cheaper round must
        # come from cheaper calls, not fewer of them
        muls = counting_checks(monkeypatch, names=("_mul",))
        invs = counting_checks(monkeypatch, names=("_inv",))
        pairings = counting_checks(monkeypatch, FiniteAbelianGroup, ("_pairing",))
        for theta in THETAS:
            muls[0] = invs[0] = pairings[0] = 0
            assert _sanity_sweep(theta, random.Random(3)) == []
            assert (muls[0], invs[0], pairings[0]) == (
                7 * SWEEP_ROUNDS, 2 * SWEEP_ROUNDS, 2 * SWEEP_ROUNDS)

    def test_cyclic_round_makes_no_base_check(self, monkeypatch):
        # the sweep checks indices, never ThetaElements, and the bridge
        # reads the base pairing unchecked, so no round calls a base check
        # (level 1 has the trivial, rank-0 base and is not among these)
        calls = counting_checks(monkeypatch, FiniteAbelianGroup)
        for n in (2, 5, 12, 1000):
            assert _sanity_sweep(level_data(n).theta, random.Random(3)) == []
        assert calls[0] == 0

    def test_commutator_and_element_order_check_each_value_once(self, monkeypatch):
        calls = counting_checks(monkeypatch)
        G = level_data(6).theta
        g = ThetaElement(1, (2,), (3,))
        h = ThetaElement(4, (1,), (5,))
        assert G.commutator(g, h) == ref_commutator(G, g, h)
        calls[0] = 0
        G.commutator(g, h)
        assert calls[0] == 5  # g, h as elements; gh, hg, (hg)^-1 as indices
        calls[0] = 0
        assert G.element_order(g) == 6
        assert calls[0] == 6  # g as an element, then g^2 .. g^6 as indices

    def test_one_law(self, monkeypatch):
        # a law patched into the unchecked law is the law the public
        # methods run: there is no second copy of it
        G = level_data(5).theta
        g = ThetaElement(1, (2,), (3,))
        h = ThetaElement(4, (1,), (4,))
        plant_law(monkeypatch, LAWS["cubic"])
        assert G.mul(g, h) == cubic_mul(G, g, h)
        assert G.mul(g, h) != ref_mul(G, g, h)
        plant_law(monkeypatch, LAWS["off-by-one inverse"])
        assert G.inv(g) == off_by_one_inv(G, g)
        assert G.inv(g) != ref_inv(G, g)
        # the powers are indices, so the check names the leaked index
        plant_law(monkeypatch, LAWS["leaky"])
        with pytest.raises(ValueError, match=r"^index \d+ out of range 0\.\.124$"):
            G.element_order(ThetaElement(4, (4,), (4,)))
        plant_law(monkeypatch, LAWS["symmetric"])
        with pytest.raises(RuntimeError, match="commutator mismatch"):
            G.commutator(g, ThetaElement(4, (1,), (1,)))  # closed form (4, 0, 0)
        # the table is read off the same law: every cell of it
        for factors in ([4], [2, 2]):
            H = theta_group(make_group(factors))
            table = H.to_concrete()._mul
            els = H.elements()
            for i, g in enumerate(els):
                for j, h in enumerate(els):
                    want = H.index(symmetric_mul(H, g, h))
                    assert table[i][j] == want

    @pytest.mark.parametrize("factors", [[6], [8], [4, 2], [2, 2, 2]],
                             ids=lambda fs: "x".join(map(str, fs)))
    def test_table_reads_the_law(self, monkeypatch, factors):
        # _mul and _inv are the table's one source: m^4 products (the a' = 0
        # block of each row (0, k, l); central rotations give the rest), 2n
        # more for the central element's row and column, which the rotation
        # rule assumes, n inverses, and no call into the base group
        G = theta_group(make_group(factors))
        muls = counting_checks(monkeypatch, names=("_mul",))
        invs = counting_checks(monkeypatch, names=("_inv",))
        base = counting_checks(monkeypatch, FiniteAbelianGroup, [
            name for name, attr in vars(FiniteAbelianGroup).items()
            if callable(attr) and not name.startswith("__")
        ])
        G.to_concrete()
        assert (muls[0], invs[0], base[0]) == (G.m ** 4 + 2 * G.order, G.order, 0)
