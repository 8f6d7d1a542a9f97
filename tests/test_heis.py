import cmath
import random
from collections import Counter
from itertools import repeat

import pytest

from thetajordan.abelian import (
    CapExceeded,
    FiniteAbelianGroup,
    make_group,
    parse_group_spec,
)
from thetajordan.heis import (
    EDGE_ROUNDS,
    ThetaElement,
    format_element,
    parse_element,
    theta_group,
)
from thetajordan.lattice import ConcreteGroup, min_abelian_index

from helpers import (
    BROKEN_TABLES,
    LAWS,
    char_value_complex,
    counting_checks,
    divisor_chains,
    law_cells_read,
    outcome,
    plant_law,
    recording,
    ref_edge,
    root_of_unity,
    wrong_cell,
)


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

    def test_repr_names_the_base(self):
        assert repr(theta([4, 2])) == "ThetaGroup(Z2xZ4)"
        assert repr(theta([1])) == "ThetaGroup(Z1)"

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

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            draw = data.draw
            G = draw(st.sampled_from(groups))

            def coords():
                fs = G.base.invariant_factors
                return tuple(draw(st.integers(0, d - 1)) for d in fs)

            g = ThetaElement(draw(st.integers(0, G.m - 1)), coords(), coords())
            i = draw(st.integers(0, G.order - 1))
            assert G.element(G.index(g)) == g
            assert G.index(G.element(i)) == i
            assert parse_element(G, format_element(g)) == g

        check()

    @pytest.mark.parametrize("spec", [
        "Z1", "Z2", "Z7", "Z997", "Z2xZ4", "Z3xZ9", "Z2xZ2xZ2", "Z2xZ2xZ2xZ2",
        "Z5xZ10xZ20",
    ])
    def test_edge_indices_are_the_boundary_rounds(self, spec):
        # in round order; the first two rounds square n - 1
        G = theta_group(parse_group_spec(spec))
        got = G._edge_indices()
        assert got == [G.index(ref_edge(G, *x)) for triple in EDGE_ROUNDS
                       for x in triple]
        assert got[:2] == got[4:6] == [G.order - 1] * 2


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

    @pytest.mark.parametrize("factors, indices", [
        ([2, 2], 552), ([16], 25344), ([4, 4], 28608), ([2, 2, 2, 2], 36768),
    ], ids=["2x2", "16", "4x4", "2x2x2x2"])
    def test_center_checks_each_generator_once(self, monkeypatch, factors, indices):
        # the 2r + 1 generators are checked once each, two base checks per
        # generator; each pair checks the three values the law returns, gh,
        # hg and the bridge's (hg)^-1, and an element stops at its first
        # generator that does not commute
        G = theta(factors)
        gens = 2 * G.base.rank + 1
        base = counting_checks(monkeypatch, FiniteAbelianGroup)
        elements = counting_checks(monkeypatch, names=("check_element",))
        ints = counting_checks(monkeypatch, names=("_check_index",))
        assert G.center(cap=4096).members == tuple(range(0, G.order, G.m * G.m))
        assert (base[0], elements[0], ints[0]) == (2 * gens, gens, indices)

    def test_element_order_example(self):
        G = theta([2])
        assert G.element_order(ThetaElement(0, (1,), (1,))) == 4

    def test_element_order_is_bounded(self, monkeypatch):
        # under (i + j + 1) % n the powers of index 1 are 1, 3, 5, 7, ...:
        # they never reach the identity, and element_order stops after n
        # steps instead of looping; the counter turns a loop into a failure
        G = theta([2])
        calls = []

        def endless(self, i, j):
            calls.append((i, j))
            assert len(calls) < 10 * self.order, "element_order does not stop"
            return (i + j + 1) % self.order

        plant_law(monkeypatch, {"_mul": endless})
        with pytest.raises(RuntimeError, match=r"^\(0; 0; 1\) has no order: "):
            G.element_order(ThetaElement(0, (0,), (1,)))
        assert len(calls) == G.order - 1

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
        # the exhaustive comparison above stops at order 512.  One table
        # carries the claim at 4096: the builder is the same code on every
        # base, to_concrete checks at run time the central rotation that
        # fills all but the a' = 0 block, and Z4xZ4 runs the digit loop at
        # rank 2.  The Z16 table this test also sampled added the cyclic
        # scalar form at m = 16, which test_law_reference's
        # test_scalar_form_sampled compares with the digit loop
        G = theta([4, 4])
        C = G.to_concrete(cap=4096)
        rng = random.Random(4096)
        for _ in range(1000):  # 1000 mul cells and 1000 inverse entries
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            g, h = G.element(i), G.element(j)
            assert C.mul(i, j) == G.index(G.mul(g, h))
            assert C.inv(i) == G.index(G.inv(g))

    def test_entries_are_shared_ints(self):
        # every entry of an order-512 table is one of 512 int objects, so
        # comparing rows meets identical objects
        C = theta([8]).to_concrete()
        assert len({id(x) for row in C._mul for x in row}) <= C.order

    def test_describe_renders_elements(self):
        G = theta([2])
        C = G.to_concrete()
        assert C.describe(0) == "(0; 0; 0)"


class TestOracle:
    """ThetaGroup.min_abelian_index, which proves and searches the central
    extension read off the law's cells, against the search on the whole
    table that lattice.min_abelian_index runs on to_concrete."""

    def test_cap(self):
        # the default cap is the CLI's, 512: order 729 is refused before
        # any law cell is read
        with pytest.raises(CapExceeded, match="^oracle search of order 729 "
                                              "exceeds the cap 512$"):
            theta([9]).min_abelian_index()
        with pytest.raises(ValueError, match="^cap None is not an integer$"):
            theta([2]).min_abelian_index(cap=None)
        assert theta([9]).min_abelian_index(cap=729) == 9

    @pytest.mark.parametrize("factors", divisor_chains(8), ids=str)
    def test_equals_the_table_search(self, factors):
        # every base with |K| <= 8, so every theta order up to 512
        G = theta_group(FiniteAbelianGroup(factors))
        assert G.min_abelian_index() == min_abelian_index(G.to_concrete()) == G.m

    @pytest.mark.parametrize("law, spec, want", [
        pytest.param(law, spec, want, id=f"{law} {spec}") for law, spec, want in [
            ("zero twist", "Z2xZ2", 1), ("zero twist", "Z4", 1),
            ("first-coordinate twist", "Z4xZ2", 2),
            ("wrong cell", "Z3", "multiplication table is not associative"),
            ("wrong identity cell", "Z3", "index 0 is not a two-sided identity"),
            ("doubled central", "Z8", None), ("cyclic", "Z2xZ2", 1), ("cyclic", "Z3", 1),
            *[(law, "Z5", None) for law in BROKEN_TABLES],
            *[(law, "Z2xZ4", None) for law in BROKEN_TABLES]]])
    def test_planted_defects_match_the_table_path(self, monkeypatch, law, spec,
                                                  want):
        # the same index, or the same ValueError text: the table is the
        # extension, so the first failing element is the same.  want None:
        # a law whose cells make no group, whatever the text
        plant_law(monkeypatch, LAWS[law])
        G = theta_group(parse_group_spec(spec))
        got = outcome(G.min_abelian_index)
        assert got == outcome(lambda: min_abelian_index(G.to_concrete()))
        assert got[1] == want if want is not None else got[0] == "ValueError"

    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z2xZ2"])
    def test_single_cell_defects_match_the_table_path(self, monkeypatch, spec):
        # one wrong cell: on Z2 (order 8) every wrong value at every product
        # cell and inverse entry, 504 laws; on Z3 and Z2xZ2 the next index
        # at every cell that either path reads, 161 and 447 laws
        G = theta_group(parse_group_spec(spec))
        n = G.order
        if n == 8:
            cells = [(i, j) for i in range(n) for j in range(n)]
            cells += [(i,) for i in range(n)]
            laws = [(cell, v) for cell in cells for v in range(n)
                    if v != (G._mul(*cell) if len(cell) == 2 else G._inv(*cell))]
        else:
            laws = [(cell, None) for cell in law_cells_read(G)]
        differ = []
        for cell, value in laws:
            with monkeypatch.context() as patch:
                plant_law(patch, wrong_cell(cell, value))
                got = outcome(G.min_abelian_index)
                if got != outcome(lambda: min_abelian_index(G.to_concrete())):
                    differ.append((cell, value, got))
        assert len(laws) == {8: 504, 27: 161, 64: 447}[n]
        assert differ == []

    @pytest.mark.parametrize("spec", ["Z3", "Z4", "Z2xZ2"])
    def test_cocycle_defects_match_the_table_path(self, monkeypatch, spec):
        # beta one higher at one block cell (u, v), u, v != 0, so V's product
        # stays and only the cocycle can break: 64, 225 and 225 laws
        G = theta_group(parse_group_spec(spec))
        n, mm = G.order, G.m ** 2
        laws = [((u, v), (G._mul(u, v) + mm) % n)
                for u in range(1, mm) for v in range(1, mm)]
        differ, not_associative = [], 0
        for cell, value in laws:
            with monkeypatch.context() as patch:
                plant_law(patch, wrong_cell(cell, value))
                got = outcome(G.min_abelian_index)
                if got != outcome(lambda: min_abelian_index(G.to_concrete())):
                    differ.append((cell, got))
                not_associative += got == ("ValueError", "multiplication "
                                           "table is not associative")
        assert len(laws) == {27: 64, 64: 225}[n]
        assert differ == []
        assert not_associative > 0

    def test_builds_no_second_group(self, monkeypatch):
        # E is proven a group on its own cells: no ConcreteGroup, not for V
        G = theta([2, 2])
        seen = recording(monkeypatch, ConcreteGroup, "__init__",
                         lambda self, table, *rest: len(table))
        assert G.min_abelian_index() == 4
        assert seen == []
