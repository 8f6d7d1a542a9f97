import cmath
import random
from collections import Counter
from itertools import repeat

import pytest

from thetajordan.abelian import CapExceeded, FiniteAbelianGroup, make_group
from thetajordan.heis import (
    ThetaElement,
    format_element,
    parse_element,
    theta_group,
)

from helpers import char_value_complex, divisor_chains, root_of_unity


def theta(factors):
    return theta_group(make_group(factors))


class TestConstruction:
    def test_trivial(self):
        G = theta([1])
        assert G.order == 1
        assert G.identity() == ThetaElement(0, (), ())
        assert G.elements() == [G.identity()]

    def test_orders(self):
        assert theta([2]).order == 8
        assert theta([3]).order == 27
        assert len(theta([2]).elements()) == 8
        assert len(theta([3]).elements()) == 27

    def test_base_factor_divides_m(self):
        for fs in ([2], [4, 2], [2, 2, 2], [6]):
            G = theta(fs)
            assert G.m == G.base.order
            assert all(G.m % d == 0 for d in G.base.invariant_factors)
            assert G.order == G.m ** 3


class TestIndexing:
    @pytest.mark.parametrize("factors", [[1], [2], [3], [2, 2], [4, 2]])
    def test_roundtrip_both_ways(self, factors):
        G = theta(factors)
        els = G.elements()
        assert len(els) == G.order
        for i, g in enumerate(els):
            assert G.index(g) == i
            assert G.element(i) == g

    def test_identity_is_zero(self):
        for factors in ([1], [2], [6]):
            G = theta(factors)
            assert G.element(0) == G.identity()

    def test_out_of_range(self):
        G = theta([2])
        with pytest.raises(ValueError):
            G.element(8)
        with pytest.raises(ValueError):
            G.element(-1)

    def test_rejects_float_index(self):
        with pytest.raises(ValueError, match="index 1.5 is not an integer"):
            theta([2]).element(1.5)

    def test_bool_index_accepted(self):
        G = theta([2])
        assert G.element(True) == G.element(1)

    def test_round_trips_every_base_up_to_16(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        groups = [theta_group(FiniteAbelianGroup(fs)) for fs in divisor_chains(16)]

        @st.composite
        def cases(draw):
            G = draw(st.sampled_from(groups))

            def coords():
                fs = G.base.invariant_factors
                return tuple(draw(st.integers(0, d - 1)) for d in fs)

            g = ThetaElement(draw(st.integers(0, G.m - 1)), coords(), coords())
            return G, g, draw(st.integers(0, G.order - 1))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            G, g, i = case
            assert G.element(G.index(g)) == g
            assert G.index(G.element(i)) == i
            assert parse_element(G, format_element(g)) == g

        check()


class TestGroupLaw:
    def test_identity_law_exhaustive_z2(self):
        G = theta([2])
        e = G.identity()
        for g in G.elements():
            assert G.mul(e, g) == g
            assert G.mul(g, e) == g

    def test_frozen_products_z2(self):
        G = theta([2])
        x = ThetaElement(0, (1,), (0,))
        z = ThetaElement(0, (0,), (1,))
        assert G.mul(x, z) == ThetaElement(1, (1,), (1,))
        assert G.mul(z, x) == ThetaElement(0, (1,), (1,))  # noncommutative pair

    def test_complex_oracle_exhaustive(self):
        # the exponent-based law must match the honest complex-valued law,
        # where the twist a*a'*l'(k) is an actual product on the unit circle
        for factors in ([2], [3], [2, 2]):
            G = theta(factors)
            fs = G.base.invariant_factors
            m = G.m
            for g in G.elements():
                for h in G.elements():
                    prod = G.mul(g, h)
                    lhs = root_of_unity(prod.a, m)
                    rhs = (
                        root_of_unity(g.a, m)
                        * root_of_unity(h.a, m)
                        * char_value_complex(fs, h.l, g.k)
                    )
                    assert cmath.isclose(lhs, rhs, abs_tol=1e-9)
                    assert prod.k == G.base.add(g.k, h.k)
                    assert prod.l == G.base.add(g.l, h.l)

    def test_associativity_exhaustive_small(self):
        for factors in ([2], [3]):
            G = theta(factors)
            els = G.elements()
            for g in els:
                for h in els:
                    gh = G.mul(g, h)
                    for f in els:
                        assert G.mul(gh, f) == G.mul(g, G.mul(h, f))

    def test_associativity_randomized_4096(self):
        # fixed seed, >= 10^5 triples on the order-4096 group.  Public mul
        # is _parts(_mul(index(g), index(h))), and index and _parts are
        # inverse bijections on the group, so (gh)f = g(hf) on elements is
        # the same equation on indices; _check_index keeps each product in
        # the group, as validating it at the next public mul did.  A seeded
        # sample through public mul covers the boundary conversions.
        G = theta([16])
        n, mul, check = G.order, G._mul, G._check_index
        rng = random.Random(20260810)
        for _ in range(100_000):
            g, h, f = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert mul(check(mul(g, h)), f) == mul(g, check(mul(h, f)))
        for _ in range(1000):
            g = G.random_element(rng)
            h = G.random_element(rng)
            f = G.random_element(rng)
            assert G.mul(G.mul(g, h), f) == G.mul(g, G.mul(h, f))

    def test_element_group_mismatch(self):
        G = theta([2])
        with pytest.raises(ValueError):
            G.mul(ThetaElement(0, (1, 0), (0, 0)), G.identity())
        with pytest.raises(ValueError):
            G.mul(ThetaElement(3, (1,), (0,)), G.identity())

    def test_rejects_float_coordinate(self):
        G = theta([2])
        with pytest.raises(ValueError, match="coordinate 0.5 is not an integer"):
            G.mul(ThetaElement(0, (0.5,), (0,)), G.identity())
        with pytest.raises(ValueError, match="exponent 0.5 is not an integer"):
            G.mul(G.identity(), ThetaElement(0.5, (0,), (0,)))

    def test_bool_coordinates_accepted(self):
        G = theta([2])
        g = ThetaElement(True, (True,), (False,))
        assert G.mul(g, G.identity()) == ThetaElement(1, (1,), (0,))


class TestInverse:
    def test_identity(self):
        G = theta([2])
        assert G.inv(G.identity()) == G.identity()

    def test_frozen_z2_by_search(self):
        G = theta([2])
        g = ThetaElement(0, (1,), (1,))
        expected = [h for h in G.elements() if G.mul(g, h) == G.identity()]
        assert expected == [ThetaElement(1, (1,), (1,))]
        assert G.inv(g) == expected[0]

    def test_involution_z4_exhaustive(self):
        G = theta([4])
        for g in G.elements():
            assert G.inv(G.inv(g)) == g

    def test_two_sided_exhaustive(self):
        for factors in ([2], [3], [2, 2]):
            G = theta(factors)
            e = G.identity()
            for g in G.elements():
                assert G.mul(g, G.inv(g)) == e
                assert G.mul(G.inv(g), g) == e


class TestCommutator:
    def test_self_commutator(self):
        G = theta([3])
        for g in G.elements():
            assert G.commutator(g, g) == G.identity()

    def test_frozen_z2(self):
        G = theta([2])
        g = ThetaElement(0, (1,), (0,))
        h = ThetaElement(0, (0,), (1,))
        assert G.commutator(g, h) == ThetaElement(1, (0,), (0,))

    def test_central_elements_commute_z3_exhaustive(self):
        G = theta([3])
        e = G.identity()
        for a in range(3):
            g = ThetaElement(a, (0,), (0,))
            for h in G.elements():
                assert G.commutator(g, h) == e

    def test_commutators_are_central(self):
        for factors in ([2], [3], [2, 2]):
            G = theta(factors)
            zero = G.base.zero()
            for g in G.elements():
                for h in G.elements():
                    c = G.commutator(g, h)
                    assert c.k == zero and c.l == zero

    def test_closed_form_agreement_exhaustive_216(self):
        # commutator() itself raises if definitional and closed form differ;
        # drive it over all pairs for every group of order <= 216
        for factors in ([2], [3], [4], [2, 2], [5], [6]):
            G = theta(factors)
            for g in G.elements():
                for h in G.elements():
                    G.commutator(g, h)


class TestCenterAndOrders:
    def test_center_sizes(self):
        assert theta([1]).center().order == 1
        for factors in ([2], [3], [4], [2, 2], [5], [6]):
            G = theta(factors)
            assert G.center().order == G.m

    def test_center_is_exponent_factor(self):
        G = theta([2])
        Z = G.center()
        assert Z.members == (0, 4)  # (0,0,0) and (1,0,0)
        assert 4 in Z and 1 not in Z

    def test_center_matches_exhaustive_definition(self):
        # per-element commuting test against every element, |K| <= 6
        for factors in ([2], [3], [4], [2, 2], [5], [6]):
            G = theta(factors)
            e = G.identity()
            els = G.elements()
            exhaustive = [
                i
                for i, g in enumerate(els)
                if all(G.mul(g, h) == G.mul(h, g) for h in els)
            ]
            assert list(G.center().members) == exhaustive
            assert G.center().order == G.m

    def test_element_order_example(self):
        G = theta([2])
        assert G.element_order(ThetaElement(0, (1,), (1,))) == 4

    def test_order_census_is_dihedral8(self):
        G = theta([2])
        census = Counter(G.element_order(g) for g in G.elements())
        assert census == {1: 1, 2: 5, 4: 2}

    def test_cap(self):
        G = theta([16])  # order 4096 fits, 17^3 does not
        assert G.center(cap=4096).order == 16
        too_big = "^theta group of order 4913 exceeds the cap 4096$"
        for call in (theta([17]).center, theta([17]).elements,
                     theta([17]).to_concrete):
            with pytest.raises(CapExceeded, match=too_big):
                call()
        for call in (theta([2]).center, theta([2]).elements, theta([2]).to_concrete):
            with pytest.raises(ValueError, match="^cap None is not an integer$"):
                call(cap=None)


class TestRendering:
    def test_format(self):
        assert format_element(ThetaElement(1, (0, 1), (1, 3))) == "(1; 0,1; 1,3)"
        assert format_element(ThetaElement(0, (), ())) == "(0; ; )"

    def test_roundtrip_all_small(self):
        for factors in ([1], [2], [4, 2]):
            G = theta(factors)
            for g in G.elements():
                text = format_element(g)
                assert parse_element(G, text) == g
                assert format_element(parse_element(G, text)) == text

    def test_parse_rejects_garbage(self):
        G = theta([2])
        for bad in ("1; 0; 0", "(1; 0)", "(9; 0; 0)", "(0; 5; 0)", "(a; 0; 0)"):
            with pytest.raises(ValueError):
                parse_element(G, bad)
        # only the ASCII digits format_element emits, even where int() would
        # read a value in range
        G = theta([16])
        for bad in ("(1_0; 0; 0)", "(0; 1_1; 0)", "(0; 0; 1_2)", "(+1; 0; 0)",
                    "(\u0663; 0; 0)", "(-0; 0; 0)", "(; 0; 0)", "(0; 1,; 0)"):
            with pytest.raises(ValueError):
                parse_element(G, bad)
        # whitespace around a token stays allowed
        assert parse_element(G, " ( 10 ;11 ; 12 ) ") == ThetaElement(10, (11,), (12,))


class TestConcrete:
    def test_tables_match_element_law(self):
        # every base with |K| <= 8, so every theta order up to 512.  Table
        # and law share the element index, so every row and the whole
        # inverse table are compared with the int law: every cell, as when
        # each cell went through ThetaElements, and the table's group check
        # then proves the law associative at each of these orders.  The
        # public mul and inv, which convert at the boundary, are compared
        # on a seeded sample of cells.
        rng = random.Random(512)
        for factors in divisor_chains(8):
            G = theta_group(FiniteAbelianGroup(factors))
            C = G.to_concrete()
            n = G.order
            assert C.order == n
            assert C.identity == 0
            assert list(C._inv) == list(map(G._inv, range(n)))
            for i, row in enumerate(C._mul):
                assert list(row) == list(map(G._mul, repeat(i, n), range(n)))
            for _ in range(200):
                i, j = rng.randrange(n), rng.randrange(n)
                g, h = G.element(i), G.element(j)
                assert C.mul(i, j) == G.index(G.mul(g, h))
                assert C.inv(i) == G.index(G.inv(g))

    def test_sampled_cells_at_order_4096(self):
        # the exhaustive comparison above stops at order 512
        for factors in ([16], [4, 4]):
            G = theta(factors)
            C = G.to_concrete(cap=4096)
            rng = random.Random(4096)
            for _ in range(1000):  # 1000 mul cells and 1000 inverse entries
                i, j = rng.randrange(G.order), rng.randrange(G.order)
                g, h = G.element(i), G.element(j)
                assert C.mul(i, j) == G.index(G.mul(g, h))
                assert C.inv(i) == G.index(G.inv(g))
            del C  # one order-4096 table alive at a time

    def test_entries_are_shared_ints(self):
        # every entry of an order-512 table is one of 512 int objects, so
        # comparing rows meets identical objects
        C = theta([8]).to_concrete()
        assert len({id(x) for row in C._mul for x in row}) <= C.order

    def test_describe_renders_elements(self):
        G = theta([2])
        C = G.to_concrete()
        assert C.describe(0) == "(0; 0; 0)"
