import re

import pytest

from thetajordan import symplectic
from thetajordan.abelian import CapExceeded, FiniteAbelianGroup, make_group
from thetajordan.abelian import is_pairing_nondegenerate
from thetajordan.heis import theta_group
from thetajordan.lattice import all_subgroups, is_abelian
from thetajordan.symplectic import (
    is_isotropic,
    max_isotropic_order,
    pairing_space,
    structural_min_abelian_index,
)

from helpers import counting_checks, divisor_chains, horner_rank


def space(factors):
    return pairing_space(make_group(factors))


def enumerate_isotropic_max(P):
    """Reference: filter every subgroup of the space by the validated pairing."""
    pts = P.points()
    ptab = [[P.pairing(p, q) for q in pts] for p in pts]
    best = 1
    for sub in all_subgroups(P.to_concrete()):
        ms = sub.members
        if sub.order > best and all(ptab[i][j] == 0 for i in ms for j in ms):
            best = sub.order
    return best


class TestPairing:
    def test_diagonal_vanishes(self):
        for factors in ([1], [2], [3], [2, 2]):
            P = space(factors)
            for p in P.points():
                assert P.pairing(p, p) == 0

    def test_frozen_z2(self):
        P = space([2])
        assert P.pairing(((1,), (0,)), ((0,), (1,))) == 1

    def test_frozen_z3_antisymmetric_values(self):
        P = space([3])
        assert P.pairing(((1,), (0,)), ((0,), (1,))) == 1
        assert P.pairing(((0,), (1,)), ((1,), (0,))) == 2  # -1 mod 3

    def test_antisymmetry_and_bilinearity_exhaustive(self):
        for factors in ([2], [3], [4], [2, 2]):
            P = space(factors)
            m = P.m
            pts = P.points()
            for p in pts:
                for q in pts:
                    assert (P.pairing(p, q) + P.pairing(q, p)) % m == 0
                    for r in pts[:6]:
                        assert P.pairing(P.add(p, r), q) == (
                            P.pairing(p, q) + P.pairing(r, q)
                        ) % m

    def test_table_matches_point_law(self):
        for fs in divisor_chains(8):
            P = pairing_space(FiniteAbelianGroup(fs))
            C = P.to_concrete()
            pts = P.points()
            assert C.order == P.order
            assert C.identity == 0
            for i, p in enumerate(pts):
                assert C.inv(i) == P.index(P.neg(p))
                for j, q in enumerate(pts):
                    assert C.mul(i, j) == P.index(P.add(p, q))

    def test_table_matches_add_table_build(self):
        # the build this table replaced, written out: the base's add table
        # on Horner ranks of elements(), entry (k, l) + (k2, l2) at k*m + l
        for fs in divisor_chains(16):
            K = FiniteAbelianGroup(fs)
            m, els = K.order, K.elements()
            add = [[horner_rank(K.add(x, y), fs) for y in els] for x in els]
            want = [[add[k][k2] * m + add[l][l2] for k2 in range(m) for l2 in range(m)]
                    for k in range(m) for l in range(m)]
            assert [list(row) for row in pairing_space(K).to_concrete()._mul] == want

    def test_index_point_roundtrip(self):
        for factors in ([1], [2], [4, 2]):
            P = space(factors)
            for i, p in enumerate(P.points()):
                assert P.index(p) == i
                assert P.point(i) == p

    def test_point_rejects_float_index(self):
        with pytest.raises(ValueError, match="index 4.5 is not an integer"):
            space([2]).point(4.5)

    def test_one_point_check(self):
        P = space([3])
        good = ((0,), (1,))
        bad_points = (
            ((0,), (1,), (2,)),  # a third part
            ((0,),),
            [(0,), (1,)],  # not a tuple
            ((0,), (3,)),  # character out of range
            ((0, 0), (1,)),
            ((0.0,), (1,)),
            None,
        )
        for bad in bad_points:
            for call in (lambda: P.index(bad), lambda: P.neg(bad),
                         lambda: P.add(bad, good), lambda: P.add(good, bad),
                         lambda: P.pairing(bad, good), lambda: P.pairing(good, bad),
                         lambda: is_isotropic(P, [P.zero(), bad])):
                with pytest.raises(ValueError, match=re.escape(f"point {bad!r} ")):
                    call()
        assert P.index(good) == 1

    def test_pairing_checks_each_point_once(self, monkeypatch):
        calls = counting_checks(monkeypatch, FiniteAbelianGroup)
        for factors in ([3], [4, 2]):
            P = space(factors)
            p, q = P.points()[1], P.points()[-1]
            (k, l), (k2, l2) = p, q
            want = (P.base.evaluate(l2, k) - P.base.evaluate(l, k2)) % P.m
            calls[0] = 0
            assert P.pairing(p, q) == want
            assert calls[0] == 4  # two parts of each point, once each

    @pytest.mark.parametrize("call, result, checks", [
        (lambda P, p, q, sub: P.add(p, q), ((3, 3), (3, 0)), 4),
        (lambda P, p, q, sub: P.neg(q), ((1, 1), (1, 1)), 2),
        (lambda P, p, q, sub: is_isotropic(P, sub), True, 32),
        (lambda P, p, q, sub: max_isotropic_order(P, "brute", 256), 16, 0),
        (lambda P, p, q, sub: P.to_concrete().order, 256, 0),
        (lambda P, p, q, sub: is_pairing_nondegenerate(make_group([8, 8])), True, 0),
    ], ids=["add", "neg", "is_isotropic", "brute", "to_concrete", "nondegenerate"])
    def test_each_value_checked_once(self, monkeypatch, call, result, checks):
        # a public function checks each argument once, two base checks per
        # point, and its loops run on the unchecked _add and _pairing: the
        # routes that enumerate their own points make no base check at all
        calls = counting_checks(monkeypatch, FiniteAbelianGroup)
        P = space([4, 4])
        p, q = P.points()[1], P.points()[-1]
        sub = [(k, P.base.zero()) for k in P.base.elements()]  # K + {0}: 16 points
        calls[0] = 0
        assert call(P, p, q, sub) == result
        assert calls[0] == checks


class TestBridgeToCommutator:
    def test_central_exponent_equals_pairing(self):
        # exhaustive over all pairs for every base of order <= 4
        for factors in ([2], [3], [4], [2, 2]):
            K = make_group(factors)
            G = theta_group(K)
            P = pairing_space(K)
            for g in G.elements():
                for h in G.elements():
                    c = G.commutator(g, h)
                    assert c.a == P.pairing((g.k, g.l), (h.k, h.l))


class TestIsotropic:
    def test_zero_subgroup(self):
        P = space([2])
        assert is_isotropic(P, [P.zero()])

    def test_base_times_trivial_character(self):
        for factors in ([2], [3], [2, 2]):
            P = space(factors)
            zero = P.base.zero()
            S = [(k, zero) for k in P.base.elements()]
            assert is_isotropic(P, S)

    def test_full_space_z2_is_not(self):
        P = space([2])
        assert not is_isotropic(P, P.points())

    def test_rejects_nonclosed(self):
        P = space([2])
        with pytest.raises(ValueError):
            is_isotropic(P, [P.zero(), ((1,), (0,)), ((0,), (1,))])
        with pytest.raises(ValueError):
            is_isotropic(P, [((1,), (0,))])  # no zero


class TestMaxIsotropic:
    def test_trivial(self):
        assert max_isotropic_order(space([1])) == 1

    def test_z2(self):
        assert max_isotropic_order(space([2])) == 2

    def test_order16_spaces(self):
        assert max_isotropic_order(space([4])) == 4
        assert max_isotropic_order(space([2, 2])) == 4

    def test_methods_agree(self):
        for factors in ([2], [3], [4], [2, 2]):
            P = space(factors)
            brute = max_isotropic_order(P, method="brute")
            structural = max_isotropic_order(P, method="structural")
            assert brute == structural == P.base.order

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'exact'$"):
            max_isotropic_order(space([2]), method="exact")

    def test_disagreement_raises(self, monkeypatch):
        # a correct search never trips this guard; a patched one that finds
        # only the zero point does
        monkeypatch.setattr(symplectic, "_max_related", lambda mul, rel: 1)
        with pytest.raises(RuntimeError, match="^brute-force isotropic maximum 1 "
                                               "disagrees with the structural value 2$"):
            max_isotropic_order(space([2]))

    def test_brute_cap(self):
        too_big = "^pairing space of order 900 exceeds the cap 512$"
        with pytest.raises(CapExceeded, match=too_big):
            max_isotropic_order(space([30]), method="brute")
        for build in (space([30]).points, space([30]).to_concrete):
            with pytest.raises(CapExceeded, match=too_big):
                build(cap=512)
        # 'both' falls back to the structural constant above the cap
        assert max_isotropic_order(space([30])) == 30
        # and reads its cap through the integer rule before comparing it
        for method in ("both", "brute"):
            for cap in (None, 512.0):
                with pytest.raises(ValueError, match=f"^cap {cap!r} is not an integer$"):
                    max_isotropic_order(space([2]), method, cap)

    def test_structural_reads_its_cap_as_an_int(self):
        # as 'both' and 'brute' do; a bad method still wins over a bad cap
        for cap in ("x", 2.5):
            with pytest.raises(ValueError, match=f"^cap {cap!r} is not an integer$"):
                max_isotropic_order(space([2]), "structural", cap)
        with pytest.raises(ValueError, match="^unknown method 'exact'$"):
            max_isotropic_order(space([2]), "exact", "x")

    def test_agreement_all_types_up_to_8(self):
        for fs in divisor_chains(8):
            if not fs:
                continue
            P = pairing_space(FiniteAbelianGroup(fs))
            assert max_isotropic_order(P, method="brute") == P.base.order

    def test_brute_matches_enumerate_and_filter(self):
        for fs in divisor_chains(8):
            P = pairing_space(FiniteAbelianGroup(fs))
            assert max_isotropic_order(P, method="brute") == enumerate_isotropic_max(P)


class TestAbelianIffIsotropic:
    def test_over_full_subgroup_lattice(self):
        # subgroups of the theta group that contain the center are abelian
        # exactly when their image in the pairing space is isotropic
        for factors in ([2], [3], [4], [2, 2]):
            K = make_group(factors)
            G = theta_group(K)
            P = pairing_space(K)
            C = G.to_concrete()
            center = set(G.center().members)
            for sub in all_subgroups(C):
                if not center <= set(sub.members):
                    continue
                image = {(g.k, g.l) for g in map(G.element, sub.members)}
                isotropic = all(
                    P.pairing(p, q) == 0 for p in image for q in image
                )
                assert is_abelian(C, sub) == isotropic


class TestStructuralIndex:
    def test_values(self):
        assert structural_min_abelian_index(make_group([1])) == 1
        assert structural_min_abelian_index(make_group([2])) == 2
        assert structural_min_abelian_index(make_group([5])) == 5

    def test_matches_oracle_small(self):
        from thetajordan.lattice import min_abelian_index

        for factors in ([2], [3], [4], [2, 2]):
            K = make_group(factors)
            G = theta_group(K).to_concrete()
            assert structural_min_abelian_index(K) == min_abelian_index(G)

    def test_max_abelian_splits_as_center_times_isotropic(self):
        from thetajordan.lattice import max_abelian_order

        for factors in ([2], [3], [4], [2, 2]):
            K = make_group(factors)
            G = theta_group(K).to_concrete()
            P = pairing_space(K)
            assert max_abelian_order(G) == K.order * max_isotropic_order(P)
