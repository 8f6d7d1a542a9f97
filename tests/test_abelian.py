import cmath
import copy
import pickle
import random
from itertools import product
from math import prod

import pytest

from thetajordan.abelian import (
    CapExceeded,
    FiniteAbelianGroup,
    check_int,
    index_tuple,
    is_pairing_nondegenerate,
    make_group,
    parse_group_spec,
)
from thetajordan.bundlemodel import DiffeoClass, ReportEntry
from thetajordan.lattice import Subgroup

from helpers import (
    addition_table,
    brute_isomorphic,
    char_value_complex,
    direct_sum_order_census,
    divisor_chains,
    horner_rank,
    root_of_unity,
)


class TestMakeGroup:
    def test_already_canonical(self):
        G = make_group([2, 2])
        assert G.invariant_factors == (2, 2)
        assert G.order == 4

    def test_trivial(self):
        G = make_group([1])
        assert G.invariant_factors == ()
        assert G.order == 1

    def test_crt_recombination(self):
        # frozen from the brute-force isomorphism oracle below
        G = make_group([2, 3])
        assert G.invariant_factors == (6,)
        assert brute_isomorphic(addition_table([2, 3]), addition_table([6]))

    def test_regroup_mixed(self):
        assert make_group([4, 6]).invariant_factors == (2, 12)
        assert make_group([6, 10, 15]).invariant_factors == (30, 30)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_group([0])
        with pytest.raises(ValueError):
            make_group([2, -3])

    def test_idempotent_and_chain(self):
        for factors in ([2, 3], [4, 6], [12, 8, 2], [5, 5, 25], [7, 3, 9, 2]):
            G = make_group(factors)
            fs = G.invariant_factors
            for i in range(1, len(fs)):
                assert fs[i] % fs[i - 1] == 0
            assert make_group(list(fs)).invariant_factors == fs

    def test_matches_prime_power_reference(self):
        # invariant factors from the prime-power components: the largest
        # power of each prime goes into the last factor, and so on down
        def reference(factors):
            powers = {}
            for f in factors:
                p = 2
                while f > 1:
                    e = 0
                    while f % p == 0:
                        f //= p
                        e += 1
                    if e:
                        powers.setdefault(p, []).append(p ** e)
                    p += 1
            r = max(map(len, powers.values()), default=0)
            chain = [1] * r
            for qs in powers.values():
                for i, q in enumerate(sorted(qs, reverse=True)):
                    chain[r - 1 - i] *= q
            return tuple(chain)

        rng = random.Random(13)
        lists = [list(t) for n in range(4) for t in product(range(1, 13), repeat=n)]
        lists += [[rng.randint(1, 400) for _ in range(rng.randint(4, 8))]
                  for _ in range(2000)]
        for factors in lists:
            assert make_group(factors).invariant_factors == reference(factors), factors

    def test_order_census_preserved(self):
        # canonicalization must not change the isomorphism type
        for factors in ([2, 3], [4, 6], [2, 2, 9], [10, 4], [3, 3, 2]):
            G = make_group(factors)
            assert direct_sum_order_census(factors) == direct_sum_order_census(
                G.invariant_factors or (1,)
            )

    def test_constructor_rejects_float_factor(self):
        with pytest.raises(ValueError, match="not an integer"):
            FiniteAbelianGroup((2.5,))

    def test_constructor_rejects_string_factor(self):
        with pytest.raises(ValueError, match="not an integer"):
            FiniteAbelianGroup(("3",))

    def test_cached_shape_is_not_a_field(self):
        G = FiniteAbelianGroup([2, 4])
        assert (G.order, G.rank) == (8, 2)
        assert G == make_group([4, 2]) and hash(G) == hash(make_group([4, 2]))
        assert repr(G) == "FiniteAbelianGroup(invariant_factors=(2, 4))"
        # order and rank are stored, and a stale copy of them changes
        # neither equality, nor the hash, nor the repr
        stale = FiniteAbelianGroup([2, 4])
        object.__setattr__(stale, "order", 0)
        object.__setattr__(stale, "rank", 0)
        assert (stale.order, stale.rank) == (0, 0)
        assert stale == G and hash(stale) == hash(G) and repr(stale) == repr(G)

    def test_value_types_reject_assignment(self):
        for value, field in (
            (FiniteAbelianGroup([2]), "invariant_factors"),
            (FiniteAbelianGroup([2]), "order"),
            (DiffeoClass(0), "parity"),
            (Subgroup([0]), "members"),
            (ReportEntry(1, 1, 1, 1, "both", None), "n"),
        ):
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, 5)
            with pytest.raises(AttributeError):
                delattr(value, field)
            # copies still work, and come back equal
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value

    def test_constructor_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((3, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1,))


class TestCheckInt:
    def test_ints_come_back_as_ints(self):
        assert check_int(7, "level") == 7
        assert check_int(0, "cap") == 0
        for flag, value in ((True, 1), (False, 0)):
            got = check_int(flag, "level")
            assert got == value and type(got) is int

    def test_non_integers_are_named(self):
        for bad in (1.5, "3", None):
            with pytest.raises(ValueError, match=f"^level {bad!r} is not an integer$"):
                check_int(bad, "level", 1)

    def test_least(self):
        assert check_int(1, "level", 1) == 1
        with pytest.raises(ValueError, match="^level 0 must be >= 1$"):
            check_int(0, "level", 1)
        with pytest.raises(ValueError, match="^order False must be >= 1$"):
            check_int(False, "order", 1)
        assert check_int(-5, "offset") == -5  # no least, no lower bound


class TestIndexTuple:
    def test_plain_ints_are_not_copied(self):
        t = (0, 2, 1)
        assert index_tuple(t, 3) is t
        assert index_tuple([0, 2, 1], 3) == t

    def test_other_ints_come_back_as_plain_ints(self):
        class Small(int):
            pass

        got = index_tuple([True, 0, False, Small(1)], 2)
        assert got == (1, 0, 0, 1)
        assert set(map(type, got)) == {int}


class TestArithmetic:
    def test_add_mod2(self):
        G = make_group([2, 2])
        assert G.add((1, 0), (1, 1)) == (0, 1)

    def test_neg(self):
        G = make_group([4])
        assert G.neg((3,)) == (1,)

    def test_add_mod6(self):
        G = make_group([6])
        assert G.add((4,), (5,)) == (3,)

    def test_rejects_float_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 0.5 is not an integer"):
            make_group([2]).check_element((0.5,))

    def test_bool_coordinates_accepted(self):
        G = make_group([2, 2])
        G.check_element((True, False))
        assert G.add((True, False), (True, True)) == (0, 1)

    def test_shape_mismatch(self):
        G = make_group([4])
        with pytest.raises(ValueError):
            G.add((1, 2), (0,))
        with pytest.raises(ValueError):
            G.neg((7,))

    def test_group_axioms_exhaustive(self):
        # fully checked for every isomorphism type of order <= 16,
        # plus a couple of order-64 types
        for fs in divisor_chains(16) + [(64,), (8, 8)]:
            G = FiniteAbelianGroup(fs)
            els = G.elements()
            zero = G.zero()
            for x in els:
                assert G.add(x, zero) == x
                assert G.add(x, G.neg(x)) == zero
                for y in els:
                    assert G.add(x, y) == G.add(y, x)
                    if G.order <= 16:
                        for z in els:
                            assert G.add(G.add(x, y), z) == G.add(x, G.add(y, z))


class TestEnumerate:
    def test_trivial(self):
        assert make_group([1]).elements() == [()]

    def test_z2(self):
        assert make_group([2]).elements() == [(0,), (1,)]

    def test_z2z2(self):
        els = make_group([2, 2]).elements()
        assert len(els) == 4
        assert els[0] == (0, 0)
        assert sorted(els) == els

    def test_cap(self):
        G = make_group([2] * 13)  # order 8192
        with pytest.raises(CapExceeded,
                           match="^group of order 8192 exceeds the cap 4096$"):
            G.elements()
        assert len(G.elements(cap=8192)) == 8192


class TestCodec:
    # the one mixed-radix codec: _rank(x) is the position of x in
    # elements(), and _coords is its inverse
    def test_coords_is_elements_and_rank_inverts_it(self):
        for fs in divisor_chains(64):
            G = FiniteAbelianGroup(fs)
            els = G.elements()
            assert [G._coords(r) for r in range(G.order)] == els
            assert [G._rank(x) for x in els] == list(range(G.order))

    def test_rank_is_horner_on_out_of_range_digits(self):
        # a law that leaves a digit out of range is encoded by _rank, and
        # the index must keep the excess, as the Horner form does
        rng = random.Random(64)
        for fs in divisor_chains(64):
            G = FiniteAbelianGroup(fs)
            for _ in range(20):
                x = tuple(rng.randrange(-2 * d, 3 * d) for d in fs)
                assert G._rank(x) == horner_rank(x, fs)


class TestEvaluate:
    def test_trivial_character(self):
        G = make_group([2])
        assert G.evaluate((0,), (0,), 2) == 0
        assert G.evaluate((0,), (1,), 2) == 0

    def test_z2_value(self):
        G = make_group([2])
        assert G.evaluate((1,), (1,), 2) == 1  # value -1

    def test_z2z2_ambient4(self):
        G = make_group([2, 2])
        assert G.evaluate((1, 1), (1, 0), 4) == 2  # value -1

    def test_complex_oracle_exhaustive(self):
        # the exponent must match the honest complex-exponential value
        for fs in divisor_chains(12):
            G = FiniteAbelianGroup(fs)
            m = G.order
            for l in G.elements():
                for k in G.elements():
                    e = G.evaluate(l, k)
                    expected = char_value_complex(fs, l, k)
                    assert cmath.isclose(
                        root_of_unity(e, m), expected, abs_tol=1e-9
                    )

    def test_bilinearity_exhaustive(self):
        for fs in divisor_chains(16):
            G = FiniteAbelianGroup(fs)
            m = G.order
            els = G.elements()
            for l in els:
                for l2 in els:
                    for k in els:
                        assert G.evaluate(G.add(l, l2), k) == (
                            G.evaluate(l, k) + G.evaluate(l2, k)
                        ) % m
                        assert G.evaluate(l, G.add(l2, k)) == (
                            G.evaluate(l, l2) + G.evaluate(l, k)
                        ) % m

    def test_ambient_must_be_multiple(self):
        G = make_group([4])
        with pytest.raises(ValueError):
            G.evaluate((1,), (1,), 6)
        assert G.evaluate((1,), (1,), 8) == 2

    def test_ambient_order_must_be_an_integer(self):
        G = make_group([2])
        for m in (4.0, 2.5, "4"):
            with pytest.raises(ValueError, match=f"ambient order {m!r} is not"):
                G.evaluate((1,), (1,), m)
        assert G.evaluate((1,), (1,), 4) == 2
        # bools count as ints: True is the ambient order 1
        assert make_group([1]).evaluate((), (), True) == 0
        with pytest.raises(ValueError, match="factor 2 does not divide ambient order True"):
            G.evaluate((1,), (1,), True)

    def test_unchecked_pairing_is_evaluate(self):
        # evaluate validates and then reads _pairing; at another ambient
        # order it rescales, and must still equal the direct formula
        for fs in divisor_chains(12):
            G = FiniteAbelianGroup(fs)
            els = G.elements()
            exponent = fs[-1] if fs else 1
            for l in els:
                for k in els:
                    assert G._pairing(l, k) == G.evaluate(l, k)
                    for m in (exponent, 2 * G.order):
                        assert G.evaluate(l, k, m) == sum(
                            c * a * (m // d) for c, a, d in zip(l, k, fs)
                        ) % m


class TestNondegeneracy:
    def test_trivial(self):
        assert is_pairing_nondegenerate(make_group([1]))

    def test_z2(self):
        assert is_pairing_nondegenerate(make_group([2]))

    def test_z4z2(self):
        assert is_pairing_nondegenerate(make_group([4, 2]))

    def test_all_types_up_to_16(self):
        for fs in divisor_chains(16):
            assert is_pairing_nondegenerate(FiniteAbelianGroup(fs))

    # a well-formed group never trips the two rejections; patched pairings
    # that kill a point on one side reach each of them.  The check reads the
    # unchecked _pairing, which is what gets patched
    @pytest.mark.parametrize("pairing", [
        lambda self, l, x: 0,  # no character sees x = 1
        lambda self, l, x: x[0] if l == (0,) else 0,  # l = 1 sees nothing
    ], ids=["point side", "character side"])
    def test_degenerate_pairing_is_detected(self, monkeypatch, pairing):
        monkeypatch.setattr(FiniteAbelianGroup, "_pairing", pairing)
        assert not is_pairing_nondegenerate(make_group([2]))

    def test_characters_give_distinct_functions(self):
        for fs in divisor_chains(12):
            G = FiniteAbelianGroup(fs)
            els = G.elements()
            tables = {tuple(G.evaluate(l, k) for k in els) for l in els}
            assert len(tables) == G.order


class TestGroupSpec:
    def test_parse(self):
        assert parse_group_spec("Z4xZ2").invariant_factors == (2, 4)
        assert parse_group_spec("z4XZ2").invariant_factors == (2, 4)
        assert parse_group_spec("Z12").invariant_factors == (12,)
        assert parse_group_spec("Z1").invariant_factors == ()

    def test_whitespace_rejected(self):
        for bad in ("Z4 xZ2", " Z4", "Z4\t", "Z 4"):
            with pytest.raises(ValueError):
                parse_group_spec(bad)

    def test_malformed(self):
        for bad in ("", "Z", "4", "Z4x", "xZ4", "Z4xx2", "Q8", "Z-3"):
            with pytest.raises(ValueError):
                parse_group_spec(bad)

    def test_roundtrip(self):
        for spec in ("Z1", "Z6", "Z2xZ4", "Z2xZ2xZ2"):
            assert parse_group_spec(spec).spec_string() == spec

    def test_generated_cyclic_factor_lists(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.lists(st.integers(min_value=1, max_value=60), max_size=5),
            st.booleans(),
        )
        def check(factors, lower):
            G = make_group(factors)
            assert parse_group_spec(G.spec_string()) == G
            assert make_group(G.invariant_factors) == G  # idempotent
            assert G.order == prod(factors)
            # the grammar reads any direct sum, not only the canonical one
            spec = "x".join(f"Z{f}" for f in factors) or "Z1"
            assert parse_group_spec(spec.lower() if lower else spec) == G

        check()
