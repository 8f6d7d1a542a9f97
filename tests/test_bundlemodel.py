import io
import json
import random
import re
import time

import pytest

from helpers import CYCLIC_LAW, plant_law
from thetajordan import bundlemodel, heis
from thetajordan.abelian import CapExceeded, FiniteAbelianGroup, make_group
from thetajordan.bundlemodel import (
    BoundViolation,
    DiffeoClass,
    build_class_report,
    diffeo_class,
    document,
    family_for_class,
    jordan_certificate,
    level_data,
    level_for_base,
    render_csv,
    render_json,
    render_table,
    torsion_group,
    torsion_inclusion,
    verify_level,
)
from thetajordan.cli import EXIT_VIOLATION, main
from thetajordan.heis import ThetaElement, ThetaGroup, _sanity_sweep, theta_group


class TestTorsionGroup:
    def test_trivial(self):
        assert torsion_group(1).order == 1
        assert torsion_group(1).invariant_factors == ()

    def test_k3(self):
        G = torsion_group(3)
        assert G.invariant_factors == (3, 3)
        assert G.order == 9

    def test_square_orders(self):
        for k in range(1, 30):
            assert torsion_group(k).order == k * k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            torsion_group(0)
        with pytest.raises(ValueError):
            torsion_group(-2)


class TestTorsionInclusion:
    def test_z2_into_z6(self):
        embed = torsion_inclusion(2, 6)
        small = torsion_group(2)
        big = torsion_group(6)
        image = {embed(x) for x in small.elements()}
        assert len(image) == 4
        for y in image:
            big.check_element(y)
            # the image really is 2-torsion inside the bigger group
            assert big.add(y, y) == big.zero()

    def test_homomorphism_and_injectivity(self):
        for d, k in ((2, 6), (3, 12), (4, 8), (1, 5)):
            embed = torsion_inclusion(d, k)
            small = torsion_group(d)
            big = torsion_group(k)
            seen = set()
            for x in small.elements():
                for y in small.elements():
                    assert embed(small.add(x, y)) == big.add(embed(x), embed(y))
                seen.add(embed(x))
            assert len(seen) == small.order

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            torsion_inclusion(4, 6)


class TestLevelData:
    def test_trivial_level(self):
        lv = level_data(1)
        assert lv.theta.order == 1
        assert lv.torsion_order == 1

    def test_level2(self):
        assert level_data(2).theta.order == 8

    def test_level4_consistency(self):
        lv = level_data(4)
        assert lv.base.invariant_factors == (4,)
        # the pairing space of the theta group matches the 4-torsion model
        assert lv.base.order ** 2 == torsion_group(4).order == lv.torsion_order

    def test_pairing_space_isomorphic_to_torsion(self):
        # invariant factors of K + K^ equal those of the torsion group
        from thetajordan.abelian import make_group

        for n in range(2, 10):
            lv = level_data(n)
            doubled = make_group(list(lv.base.invariant_factors) * 2)
            assert doubled == torsion_group(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            level_data(0)

    def test_level_for_base(self):
        # the one derivation of a level: level_data and --base-group share it
        base = make_group([4, 2])
        lv = level_for_base(base)
        assert (lv.n, lv.torsion_order, lv.base) == (8, 64, base)
        assert (lv.theta, lv.label) == (theta_group(base), "Z2xZ4")
        assert level_for_base(make_group([5])) == level_data(5)


class TestLevelArguments:
    CALLS = [
        (level_data, "level"),
        (lambda v: family_for_class(DiffeoClass(0), v), "n_max"),
        (torsion_group, "torsion level"),
        (lambda v: torsion_inclusion(v, 4), "torsion level"),
        (lambda v: torsion_inclusion(2, v), "torsion level"),
        (lambda v: make_group([v]), "cyclic factor"),
    ]
    # inputs whose least value is 0: a parity, and the level diffeo_class reads
    LEAST_ZERO = [(DiffeoClass, "parity"), (diffeo_class, "level")]

    def test_non_integers_are_named(self):
        for call, what in self.CALLS:
            for bad in (2.0, "3", None):
                with pytest.raises(ValueError, match=re.escape(f"{what} {bad!r} is not an integer")):
                    call(bad)

    def test_nonpositive_are_named(self):
        for call, what in self.CALLS:
            with pytest.raises(ValueError, match=f"{what} 0 must be >= 1"):
                call(0)

    def test_least_zero_calls_are_named(self):
        for call, what in self.LEAST_ZERO:
            for bad in (1.0, "1", None):
                with pytest.raises(ValueError, match=re.escape(f"{what} {bad!r} is not an integer")):
                    call(bad)
            with pytest.raises(ValueError, match=f"^{what} -1 must be >= 0$"):
                call(-1)
        assert DiffeoClass(0).parity == diffeo_class(0).parity == 0

    def test_bools_count_as_ints(self):
        assert level_data(True).n == 1
        assert type(level_data(True).n) is int
        assert level_data(True).label == "level 1"
        assert [lv.n for lv in family_for_class(DiffeoClass(1), True)] == [1]
        assert torsion_group(True).order == 1
        assert torsion_inclusion(True, 2)(()) == (0, 0)


class TestDiffeoClass:
    def test_examples(self):
        assert diffeo_class(0).parity == 0
        assert diffeo_class(4).parity == 0
        assert diffeo_class(7).parity == 1

    def test_periodicity(self):
        for n in range(101):
            assert diffeo_class(n) == diffeo_class(n + 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            diffeo_class(-1)

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError, match="^parity 2 is not the integer 0 or 1$"):
            DiffeoClass(2)

    def test_float_parity_rejected(self):
        # check_int names the float, as it does for every integer input
        with pytest.raises(ValueError, match="^parity 1.0 is not an integer$"):
            DiffeoClass(1.0)
        with pytest.raises(ValueError, match="^level 3.0 is not an integer$"):
            diffeo_class(3.0)

    def test_bool_parity_accepted(self):
        assert DiffeoClass(True) == DiffeoClass(1)
        assert type(DiffeoClass(True).parity) is int

    def test_equal_only_to_its_own_class(self):
        assert DiffeoClass(1) != (1,)
        assert DiffeoClass(1) != 1
        assert repr(DiffeoClass(1)) == "DiffeoClass(parity=1)"

    def test_descriptions_differ(self):
        assert DiffeoClass(0).description != DiffeoClass(1).description


class TestFamily:
    def test_odd_family(self):
        levels = family_for_class(DiffeoClass(1), 5)
        assert [lv.n for lv in levels] == [1, 3, 5]

    def test_even_family(self):
        levels = family_for_class(DiffeoClass(0), 6)
        assert [lv.n for lv in levels] == [2, 4, 6]

    def test_empty_family(self):
        assert family_for_class(DiffeoClass(0), 1) == []

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            family_for_class(DiffeoClass(0), 0)


class TestVerifyLevel:
    def test_oracle_entry(self):
        entry, violations = verify_level(level_data(3), mode="oracle")
        assert violations == []
        assert (entry.n, entry.group_order) == (3, 27)
        assert (entry.max_abelian_order, entry.min_abelian_index) == (9, 3)
        assert entry.method == "oracle"
        assert entry.elapsed_s is not None

    def test_structural_entry(self):
        entry, violations = verify_level(level_data(50), mode="structural")
        assert violations == []
        assert entry.min_abelian_index == 50
        assert entry.method == "structural"

    def test_both_falls_back_above_cap(self):
        entry, _ = verify_level(level_data(9), mode="both", oracle_cap=512)
        assert entry.method == "structural"  # 9^3 = 729 > 512
        # cap 0 admits no table, so every level is answered structurally
        entry, _ = verify_level(level_data(2), oracle_cap=0)
        assert entry.method == "structural"

    @pytest.mark.parametrize("cap", [None, "512", 512.0])
    def test_oracle_cap_is_named(self, cap):
        # every public entry point checks the cap in every mode, also where
        # no level of the call would reach the oracle
        msg = re.escape(f"oracle cap {cap!r} is not an integer")
        for mode in ("both", "oracle", "structural"):
            with pytest.raises(ValueError, match=msg):
                verify_level(level_data(2), mode, oracle_cap=cap)
            with pytest.raises(ValueError, match=msg):
                jordan_certificate(DiffeoClass(0), 1, mode, oracle_cap=cap)
            with pytest.raises(ValueError, match=msg):
                build_class_report(DiffeoClass(0), 1, mode, oracle_cap=cap,
                                   thresholds=())

    def test_oracle_cap_error(self):
        from thetajordan.abelian import CapExceeded

        with pytest.raises(CapExceeded):
            verify_level(level_data(9), mode="oracle", oracle_cap=512)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'orakle'"):
            verify_level(level_data(2), mode="orakle")
        # class 0 up to level 1 has no level, and no threshold is asked for
        with pytest.raises(ValueError, match="unknown mode 'orakle'"):
            build_class_report(DiffeoClass(0), 1, mode="orakle",
                               oracle_cap="x", thresholds=())
        with pytest.raises(ValueError, match="oracle cap 'x' is not"):
            build_class_report(DiffeoClass(0), 1, oracle_cap="x", thresholds=())

    def test_unknown_mode_before_the_sweep(self, monkeypatch):
        swept = []
        monkeypatch.setattr(bundlemodel, "_sanity_sweep",
                            lambda *args: swept.append(args) or [])
        with pytest.raises(ValueError, match="unknown mode 'orakle'"):
            verify_level(level_data(5), mode="orakle")
        assert swept == []

    @pytest.mark.parametrize("seed", ["a", None, 1.5, 2.0])
    def test_non_integer_seed_is_named(self, seed):
        msg = re.escape(f"seed {seed!r} is not an integer")
        with pytest.raises(ValueError, match=msg):
            verify_level(level_data(2), seed=seed)
        with pytest.raises(ValueError, match=msg):
            build_class_report(DiffeoClass(0), 2, seed=seed)

    def test_bool_seed_counts_as_int(self):
        assert verify_level(level_data(3), seed=True, with_timing=False) == (
            verify_level(level_data(3), seed=1, with_timing=False)
        )
        report, violations = build_class_report(
            DiffeoClass(1), 3, seed=False, strict=False, with_timing=False
        )
        assert violations == []

    def test_timing_suppressed(self):
        entry, _ = verify_level(level_data(2), with_timing=False)
        assert entry.elapsed_s is None

    def test_corrupt_mul_is_flagged(self, monkeypatch):
        plant_law(monkeypatch, CYCLIC_LAW)
        entry, violations = verify_level(level_data(2))
        assert entry.min_abelian_index == 1
        assert violations  # both the bound and the agreement break


# Broken laws, patched into the one unchecked law (ThetaGroup._mul and
# _inv) that the validated public methods, the sanity sweep and the
# oracle's table all run.
# The law runs on element indices; each broken law below is written on
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


def _cubic_mul(self, g, h):
    """The twist gains g.k^2 * h.k on the last base coordinate, which is not
    a cocycle when that coordinate's factor is above 2 (on Z2 it is one),
    so the law is not associative."""
    right = _correct_mul(self, g, h)
    return right._replace(a=(right.a + g.k[-1] ** 2 * h.k[-1]) % self.m)


def _cubic_inv(self, g):
    """Right inverse under _cubic_mul."""
    right = _correct_inv(self, g)
    return right._replace(a=(right.a - g.k[-1] ** 2 * right.k[-1]) % self.m)


def _off_by_one_inv(self, g):
    right = _correct_inv(self, g)
    return right._replace(a=(right.a + 1) % self.m)


def _leaky_inv(self, g):
    """The closed-form inverse, with m added to its central exponent when
    g.k is zero: out of range, though the law's reduction mod m absorbs it
    in g g^-1, so only a check of g^-1 itself sees the leak at such a g."""
    right = _correct_inv(self, g)
    return right._replace(a=right.a + self.m * (not any(g.k)))


def _symmetric_mul(self, g, h):
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


def _zero_twist(self, l, k):
    """<l, k> = 0 everywhere: the law becomes the abelian Z_m x K x K^."""
    return 0


def _first_coordinate_twist(self, l, k):
    """<l, k> from the first base coordinate alone, dropping the rest."""
    return l[0] * k[0] * (self.m // self.base.invariant_factors[0]) % self.m


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


# name -> the unchecked law methods a law replaces; each fails the group
# check of the table the oracle reads off the law
BROKEN_TABLES = {
    "cubic": {"_mul": on_indices(_cubic_mul), "_inv": on_indices(_cubic_inv)},
    "off-by-one inverse": {"_inv": on_indices(_off_by_one_inv)},
    "float": {"_mul": _float_mul},
    "carrying k": {"_mul": _carrying_mul("k")},
    "carrying l": {"_mul": _carrying_mul("l")},
}


class TestSanitySweep:
    THETAS = [level_data(n).theta for n in (1, 2, 5, 12)] + [
        theta_group(make_group(fs)) for fs in ([2, 2], [4, 2], [2, 2, 2])
    ]

    @staticmethod
    def sweep(theta, seed=7):
        return _sanity_sweep(theta, random.Random(seed))

    @staticmethod
    def kinds(violations):
        return {v.split(" failed at")[0].split(":")[0] for v in violations}

    def test_correct_law_is_clean(self):
        for theta in self.THETAS:
            for seed in range(3):
                assert self.sweep(theta, seed) == []

    def test_broken_associativity(self, monkeypatch):
        monkeypatch.setattr(ThetaGroup, "_mul", on_indices(_cubic_mul))
        monkeypatch.setattr(ThetaGroup, "_inv", on_indices(_cubic_inv))
        violations = self.sweep(level_data(5).theta)
        assert "associativity" in self.kinds(violations)
        assert "inverse law" not in self.kinds(violations)

    def test_broken_inverse_law(self, monkeypatch):
        monkeypatch.setattr(ThetaGroup, "_inv", on_indices(_off_by_one_inv))
        violations = self.sweep(level_data(5).theta)
        assert "inverse law" in self.kinds(violations)
        assert "associativity" not in self.kinds(violations)

    def test_broken_commutator_bridge(self, monkeypatch):
        monkeypatch.setattr(ThetaGroup, "_mul", on_indices(_symmetric_mul))
        monkeypatch.setattr(ThetaGroup, "_inv", on_indices(_symmetric_inv))
        violations = self.sweep(level_data(5).theta)
        assert violations
        assert self.kinds(violations) == {"commutator mismatch"}

    def test_law_leaving_the_group_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(ThetaGroup, "_mul", on_indices(_leaky_mul))
        entry, violations = verify_level(level_data(3), mode="structural")
        assert entry.min_abelian_index == 3
        left = [v for v in violations if "left the group" in v]
        assert left == violations[-1:]  # the sweep stops there
        assert left[0].startswith("level 3: group law left the group at ")
        # the law runs on indices, so the check names the leaked index
        assert re.search(r": index \d+ out of range 0\.\.26$", left[0])

    @pytest.mark.parametrize("twist", [_zero_twist, _first_coordinate_twist])
    @pytest.mark.parametrize("spec", ["Z4xZ2", "Z2xZ2xZ2"])
    @pytest.mark.parametrize("mode", ["oracle", "structural", "both"])
    def test_broken_twist_exits_1(self, monkeypatch, capsys, twist, spec, mode):
        # the bridge's closed form comes from the base's evaluation pairing,
        # so a twist broken in the law alone shows as a commutator mismatch
        for name, law in _twisted_law(twist).items():
            monkeypatch.setattr(ThetaGroup, name, law)
        code = main(["verify", "--base-group", spec, "--mode", mode,
                     "--format", "json", "--no-timestamps"])
        out, _ = capsys.readouterr()
        assert code == EXIT_VIOLATION
        assert "commutator mismatch" in out
        if mode != "structural" and twist is _zero_twist:
            # the oracle searched the law's own table, which is abelian
            entry = json.loads(out)["reports"][0]["entries"][0]
            assert entry["min_abelian_index"] == 1

    @staticmethod
    def zero_twist_violations(monkeypatch, capsys, *args):
        for name, law in _twisted_law(_zero_twist).items():
            monkeypatch.setattr(ThetaGroup, name, law)
        code = main(["verify", *args, "--mode", "structural",
                     "--format", "json", "--no-timestamps"])
        out, _ = capsys.readouterr()
        assert code == EXIT_VIOLATION
        return json.loads(out)["violations"]

    def test_repeats_within_a_level_collapse(self, monkeypatch, capsys):
        # 10 of the sweep's rounds on Z2xZ2 fail the bridge with one message
        violations = self.zero_twist_violations(monkeypatch, capsys,
                                                "--base-group", "Z2xZ2")
        assert violations == [
            "Z2xZ2: commutator mismatch: definitional (0; 0,0; 0,0) vs closed "
            "form (2; 0,0; 0,0) (10 times)"
        ]

    def test_every_violation_names_its_level(self, monkeypatch, capsys):
        violations = self.zero_twist_violations(monkeypatch, capsys,
                                                "--max-n", "4")
        assert violations and len(set(violations)) == len(violations)
        assert all(v.startswith(("level 2: ", "level 3: ", "level 4: "))
                   for v in violations)
        # one message at three levels is three lines: repeats collapse
        # within a level, never across levels
        for n in (2, 3, 4):
            assert [v for v in violations if v.startswith(
                f"level {n}: commutator mismatch: definitional (0; 0; 0) vs "
                f"closed form (1; 0; 0) (")]

    @pytest.mark.parametrize("law", BROKEN_TABLES)
    @pytest.mark.parametrize("spec", ["Z5", "Z2xZ4"])
    @pytest.mark.parametrize("mode", ["oracle", "both"])
    def test_broken_table_exits_1_with_report(self, monkeypatch, capsys, law,
                                              spec, mode):
        # the table is read off the law, so a broken law fails the table's
        # group check: a violation of that level, not a usage error, and
        # the entry answers from the closed form
        plant_law(monkeypatch, BROKEN_TABLES[law])
        code = main(["verify", "--base-group", spec, "--mode", mode,
                     "--format", "json", "--no-timestamps"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_VIOLATION, "")
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["reports"][0]["entries"][0]["method"] == "structural"
        label = "level 5" if spec == "Z5" else spec
        assert [v for v in doc["violations"]
                if v.startswith(f"{label}: theta table is not a group: ")]

    @pytest.mark.parametrize("spec, label, c, e", [
        ("Z8", "level 8", "(1; 0; 0)", "(0; 0; 0)"),
        ("Z2xZ4", "Z2xZ4", "(1; 0,0; 0,0)", "(0; 0,0; 0,0)"),
    ])
    def test_central_rotation_is_checked(self, monkeypatch, capsys, spec,
                                         label, c, e):
        # a table built from the a' = 0 block and central rotations equals
        # the true law's under this defect, so the table's group check alone
        # cannot see it; the check of c = (1, 0, 0)'s row and column does,
        # at e * c = (2, 0, 0)
        monkeypatch.setattr(ThetaGroup, "_mul", on_indices(_doubled_central_mul))
        code = main(["verify", "--base-group", spec, "--mode", "oracle",
                     "--format", "json", "--no-timestamps"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_VIOLATION, "")
        assert (f"{label}: theta table is not a group: the central element "
                f"{c} does not rotate {e} to {c} on both sides"
                ) in json.loads(out)["violations"]

    @pytest.mark.parametrize("offset", [-1, 0])
    @pytest.mark.parametrize("spec, label, n", [("Z6", "level 6", 6),
                                                ("Z2xZ4", "Z2xZ4", 8)])
    def test_bound_at_its_boundary(self, monkeypatch, capsys, offset, spec,
                                   label, n):
        # the paper's bound is index >= n: a structural index of n - 1
        # breaks it, and n does not
        monkeypatch.setattr(bundlemodel, "structural_min_abelian_index",
                            lambda base: base.order + offset)
        code = main(["verify", "--base-group", spec, "--mode", "structural",
                     "--format", "json", "--no-timestamps"])
        out, _ = capsys.readouterr()
        violations = json.loads(out)["violations"]
        if offset:
            assert code == EXIT_VIOLATION
            assert violations == [f"{label}: min abelian index {n - 1} is below "
                                  f"the bound {n} (structural)"]
        else:
            assert (code, violations) == (0, [])

    @pytest.mark.parametrize("mode", ["oracle", "both"])
    def test_search_maximum_off_lagrange_exits_1(self, monkeypatch, capsys,
                                                 mode):
        # no subgroup of order 27 has order 7: the index is read through
        # ThetaGroup.min_abelian_index's Lagrange check, the failure is a
        # violation of that level, and the entry answers from the closed form
        search = heis.extension_max_abelian_order
        monkeypatch.setattr(heis, "extension_max_abelian_order",
                            lambda m, *cells: 7 if m == 3 else search(m, *cells))
        code = main(["verify", "--base-group", "Z3", "--mode", mode,
                     "--format", "json", "--no-timestamps"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_VIOLATION, "")
        doc = json.loads(out)
        entry = doc["reports"][0]["entries"][0]
        assert (entry["max_abelian_order"], entry["min_abelian_index"],
                entry["method"]) == (9, 3, "structural")
        assert doc["violations"] == ["level 3: oracle search failed: abelian "
                                     "maximum 7 does not divide the order 27"]

    def test_broken_table_is_returned_not_raised(self, monkeypatch):
        plant_law(monkeypatch, BROKEN_TABLES["cubic"])
        entry, violations = verify_level(level_data(5), mode="oracle")
        assert (entry.min_abelian_index, entry.method) == (5, "structural")
        assert violations[-1] == ("level 5: theta table is not a group: "
                                  "inverse table is wrong at element 5")
        # a certificate on that level fails through the disagreement's slot
        with pytest.raises(BoundViolation,
                           match="^threshold 4: level 5: theta table is not"):
            jordan_certificate(DiffeoClass(1), 4, mode="oracle")
        # usage errors still raise
        with pytest.raises(ValueError, match="unknown mode"):
            verify_level(level_data(5), mode="bogus")
        with pytest.raises(ValueError, match="oracle cap"):
            verify_level(level_data(5), mode="oracle", oracle_cap=1.5)

    @pytest.mark.parametrize("args", [["--base-group", "Z4xZ2"], ["--max-n", "3"]])
    def test_bridge_reads_base_pairing(self, monkeypatch, capsys, args):
        # the closed form is the base's pairing: a pairing broken there,
        # with the law intact, shows as a commutator mismatch
        monkeypatch.setattr(FiniteAbelianGroup, "_pairing", lambda self, l, k: 0)
        code = main(["verify", *args, "--format", "json", "--no-timestamps"])
        out, _ = capsys.readouterr()
        assert code == EXIT_VIOLATION
        assert "commutator mismatch" in out

    def test_law_leaving_the_group_exits_1_with_report(self, monkeypatch, capsys):
        monkeypatch.setattr(ThetaGroup, "_mul", on_indices(_leaky_mul))
        code = main(["verify", "--class", "1", "--max-n", "3",
                     "--mode", "structural", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == EXIT_VIOLATION
        assert err == ""
        assert '"ok": false' in out
        assert "level 3: group law left the group at" in out

    def test_float_law_leaves_the_group(self, monkeypatch):
        # 2.0 == 2 passes every range compare, so only the check's int test
        # stops a law that returns floats; at level 1 every product is 0.0
        monkeypatch.setattr(ThetaGroup, "_mul", _float_mul)
        for theta in self.THETAS:
            violations = self.sweep(theta)
            assert len(violations) == 1
            assert "group law left the group" in violations[0]
            assert violations[0].endswith(".0 is not an integer")

    @pytest.mark.parametrize("digit", ["k", "l"])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 97, 1000])
    def test_unreduced_digit_is_caught(self, monkeypatch, digit, n):
        monkeypatch.setattr(ThetaGroup, "_mul", _carrying_mul(digit))
        assert self.sweep(level_data(n).theta)

    def test_rare_cell_is_caught(self, monkeypatch, capsys):
        # one wrong cell, (n - 1)(n - 1) = (0, 0, 0), at levels 7 and 8: the
        # oracle reads only the a = 0 block, c's row and column and the
        # inverses, and a random round meets that cell once in n^2, so the
        # sweep's fixed edge rounds are what read it
        def rare_cell(self, i, j):
            if self.m > 6 and i == j == self.order - 1:
                return 0
            return _int_mul(self, i, j)

        monkeypatch.setattr(ThetaGroup, "_mul", rare_cell)
        code = main(["verify", "--max-n", "8", "--format", "json",
                     "--no-timestamps"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_VIOLATION, "")
        doc = json.loads(out)
        tops = {n: f"({n - 1}; {n - 1}; {n - 1})" for n in (7, 8)}
        assert doc["violations"] == [
            f"level {n}: associativity failed at {at}"
            for n in (8, 7)
            for at in (f"{tops[n]}, {tops[n]}, (0; 1; 1)",
                       f"(0; 1; 1), {tops[n]}, {tops[n]}")]
        # the oracle's answers stand: the defect lies outside what it reads
        assert [e["min_abelian_index"] for r in doc["reports"]
                for e in r["entries"]] == [2, 4, 6, 8, 1, 3, 5, 7]


class TestJordanCertificate:
    def test_odd_c1(self):
        cert = jordan_certificate(DiffeoClass(1), 1)
        assert (cert.threshold, cert.n, cert.min_abelian_index) == (1, 3, 3)
        assert cert.method == "both"

    def test_even_c5(self):
        cert = jordan_certificate(DiffeoClass(0), 5)
        assert (cert.n, cert.min_abelian_index) == (6, 6)

    def test_structural_for_huge_threshold(self):
        cert = jordan_certificate(DiffeoClass(1), 10 ** 6, mode="structural")
        assert cert.n == 10 ** 6 + 1
        assert cert.min_abelian_index == 10 ** 6 + 1
        assert cert.method == "structural"

    def test_oracle_mode_falls_back_above_cap(self):
        cert = jordan_certificate(DiffeoClass(0), 100, mode="oracle")
        assert cert.n == 102
        assert cert.method == "structural"

    def test_minimality(self):
        for parity in (0, 1):
            for c in (1, 2, 5, 9, 10):
                cert = jordan_certificate(DiffeoClass(parity), c)
                assert cert.n > c
                assert cert.n % 2 == parity
                # nothing smaller of the right parity beats the threshold
                assert cert.n - 2 <= c

    def test_structural_answer_is_fast(self):
        cls = DiffeoClass(1)
        jordan_certificate(cls, 10 ** 6, mode="structural")  # warm
        best = min(
            _timed(lambda: jordan_certificate(cls, 10 ** 6, mode="structural"))
            for _ in range(5)
        )
        assert best < 0.001  # under a millisecond

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            jordan_certificate(DiffeoClass(0), 0)

    def test_unknown_mode_before_any_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(ThetaGroup, "min_abelian_index",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match="unknown mode 'orakle'"):
            jordan_certificate(DiffeoClass(1), 1, mode="orakle")
        assert built == []

    def test_threshold_must_be_an_integer(self):
        for bad in (1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match=f"threshold {bad!r} is not an integer"):
                jordan_certificate(DiffeoClass(0), bad)
        # ints count, bools included
        assert jordan_certificate(DiffeoClass(1), True).n == 3
        assert type(jordan_certificate(DiffeoClass(1), True).threshold) is int

    def test_corruption_raises_bound_violation(self, monkeypatch):
        plant_law(monkeypatch, CYCLIC_LAW)
        # 'both' sees the disagreement and names the threshold first
        with pytest.raises(BoundViolation, match="^threshold 1: level 2: oracle"):
            jordan_certificate(DiffeoClass(0), 1)
        # 'oracle' has nothing to compare with, so the index itself fails
        with pytest.raises(BoundViolation, match="certificate failed: index 1 "
                                                 "at level 3"):
            jordan_certificate(DiffeoClass(1), 1, mode="oracle")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestClassReport:
    def test_report_shape(self):
        report, violations = build_class_report(
            DiffeoClass(0), 6, thresholds=(1, 5), strict=False
        )
        assert violations == []
        assert [e.n for e in report.entries] == [2, 4, 6]
        assert all(e.n % 2 == 0 for e in report.entries)
        assert [e.min_abelian_index for e in report.entries] == [2, 4, 6]
        assert [c.threshold for c in report.threshold_certificates] == [1, 5]

    def test_bool_inputs_render_as_ints(self):
        def rendered(cls, threshold):
            report, _ = build_class_report(
                cls, 3, thresholds=(threshold,), with_timing=False
            )
            doc = document([report], {}, [])
            out = []
            for render in (render_json, render_csv, render_table):
                fh = io.StringIO()
                render(doc, fh)
                out.append(fh.getvalue())
            return out

        assert rendered(DiffeoClass(True), True) == rendered(DiffeoClass(1), 1)

    def test_entries_sorted_and_bounded(self):
        report, _ = build_class_report(
            DiffeoClass(1), 7, thresholds=(), strict=False
        )
        ns = [e.n for e in report.entries]
        assert ns == sorted(ns) == [1, 3, 5, 7]
        assert all(e.min_abelian_index >= e.n for e in report.entries)

    def test_strict_mode_aborts_on_violation(self, monkeypatch):
        plant_law(monkeypatch, CYCLIC_LAW)
        with pytest.raises(BoundViolation):
            build_class_report(DiffeoClass(0), 2, thresholds=())

    def test_library_ignores_the_corrupt_variable(self, monkeypatch):
        monkeypatch.setenv("THETA_JORDAN_CORRUPT_MUL", "1")
        build_class_report(DiffeoClass(0), 2, thresholds=())

    def test_certificates_reuse_entry_tables(self, monkeypatch):
        # entries n = 2, 4, 6; the certificates for thresholds 1 and 5 land
        # on n = 2 and 6, whose oracle search the entries already ran
        built = []
        original = ThetaGroup.min_abelian_index

        def counting(self, *args, **kwargs):
            built.append(self.order)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThetaGroup, "min_abelian_index", counting)
        report, violations = build_class_report(
            DiffeoClass(0), 6, thresholds=(1, 5), strict=False
        )
        assert violations == []
        assert built == [8, 64, 216]
        assert [c.n for c in report.threshold_certificates] == [2, 6]

    def test_default_run_builds_seven_tables(self, monkeypatch, capsys):
        # entries n = 1..6 and the one certificate level the entries do not
        # cover, n = 7 (class 1, threshold 5); the other certificates land on
        # entries or lie above the 512 cap, and no level's law is read twice.
        # The oracle reads the law's cells once per level and builds no
        # table at all
        built, tables = [], []
        original = ThetaGroup.min_abelian_index

        def counting(self, *args, **kwargs):
            built.append(self.order)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThetaGroup, "min_abelian_index", counting)
        monkeypatch.setattr(ThetaGroup, "to_concrete",
                            lambda self, *args: tables.append(self.order))
        assert main(["verify"]) == 0
        capsys.readouterr()
        assert sorted(built) == [1, 8, 27, 64, 125, 216, 343]
        assert tables == []


class TestAdmission:
    """Every input of a run is checked before its first sweep or oracle run."""

    @pytest.fixture
    def work(self, monkeypatch):
        # records each sweep and oracle run, and still runs it
        done = []
        sweep, build = bundlemodel._sanity_sweep, ThetaGroup.min_abelian_index

        def swept(theta, rng):
            done.append(("sweep", theta.order))
            return sweep(theta, rng)

        def built(self, *args, **kwargs):
            done.append(("oracle", self.order))
            return build(self, *args, **kwargs)

        monkeypatch.setattr(bundlemodel, "_sanity_sweep", swept)
        monkeypatch.setattr(ThetaGroup, "min_abelian_index", built)
        return done

    def test_admitted_run_is_recorded(self, work):
        # the fixture sees the work it guards against: a sweep and an oracle
        # run per level, and none for the certificate on level 2, whose
        # evidence the entry already holds
        build_class_report(DiffeoClass(0), 4, mode="oracle", thresholds=(1,))
        assert work == [("sweep", 8), ("oracle", 8), ("sweep", 64), ("oracle", 64)]

    def test_class_report_admits_every_level(self, work):
        # levels 2..8 fit the 512 cap; level 10 does not
        msg = ("level 10: theta group order 1000 exceeds the oracle cap 512; "
               "use mode 'structural'")
        with pytest.raises(CapExceeded, match=f"^{re.escape(msg)}$"):
            build_class_report(DiffeoClass(0), 10, mode="oracle")
        assert work == []

    def test_refused_runs_stop_at_the_refused_level(self, work, monkeypatch, capsys):
        # admission builds each level as it reads it, so a run refused at
        # level 10 builds levels 2..10 of class 0, not the whole class first;
        # the command line admits through bundlemodel, which builds them all
        built = []
        original = bundlemodel.level_data
        monkeypatch.setattr(bundlemodel, "level_data",
                            lambda n: built.append(n) or original(n))
        assert main(["verify", "--mode", "oracle", "--max-n", "1000000"]) == 2
        assert capsys.readouterr().err == (
            "theta-jordan: level 10: theta group order 1000 exceeds the oracle "
            "cap 512; use mode 'structural'\n")
        assert built == [2, 4, 6, 8, 10]
        built.clear()
        with pytest.raises(CapExceeded, match="^level 10: theta group order 1000 "):
            build_class_report(DiffeoClass(0), 10 ** 6, mode="oracle")
        assert built == [2, 4, 6, 8, 10]
        assert work == []

    def test_oracle_run_admits_each_level_once(self, monkeypatch, capsys):
        # one runner admits both classes: 8 levels to admit, 8 to run and
        # 8 certificate levels; one mode-and-cap check, one admission of
        # the levels, and one check per verify_level and per certificate
        calls = {"level_data": [], "_check_run": []}
        for name, seen in calls.items():
            original = getattr(bundlemodel, name)
            monkeypatch.setattr(bundlemodel, name, lambda *args, seen=seen,
                                original=original: seen.append(args) or original(*args))
        assert main(["verify", "--mode", "oracle", "--max-n", "8"]) == 0
        capsys.readouterr()
        assert len(calls["level_data"]) == 24
        assert len(calls["_check_run"]) == 18

    def test_class_report_checks_thresholds_first(self, work):
        with pytest.raises(ValueError, match="^threshold 0 must be >= 1$"):
            build_class_report(DiffeoClass(0), 10, thresholds=(1, 0))
        assert work == []

    @pytest.mark.parametrize("n_max, level", [("9", 9), ("10", 10)])
    def test_cli_admits_every_class(self, work, capsys, n_max, level):
        # --max-n 9: class 0 fits, class 1 does not; --max-n 10: class 0,
        # which runs first, fails first
        assert main(["verify", "--mode", "oracle", "--max-n", n_max]) == 2
        assert capsys.readouterr() == ("", (
            f"theta-jordan: level {level}: theta group order {level ** 3} "
            "exceeds the oracle cap 512; use mode 'structural'\n"))
        assert work == []

    def test_precedence(self, work):
        # seed, mode, cap, n_max, level size, threshold: made bad from the
        # last to the first, each error wins over every later one
        args = dict(seed=0, mode="oracle", oracle_cap=512, n_max=8,
                    thresholds=(1,))
        for key, bad, msg in [("thresholds", (0,), "threshold 0 must be >= 1"),
                              ("n_max", 10, "level 10: theta group order 1000"),
                              ("n_max", 0, "n_max 0 must be >= 1"),
                              ("oracle_cap", "x", "oracle cap 'x' is not"),
                              ("mode", "orakle", "unknown mode 'orakle'"),
                              ("seed", "a", "seed 'a' is not")]:
            args[key] = bad
            with pytest.raises((ValueError, CapExceeded), match=f"^{msg}"):
                build_class_report(DiffeoClass(0), **args)
        assert work == []

    def test_structural_run_builds_each_level_once(self, monkeypatch, capsys):
        # admission reads levels in mode 'oracle' only, so a structural run
        # builds its entry levels once; the certificates build theirs
        # (n = 2, 6, 12, 10**6 + 2 and 3, 7, 11, 10**6 + 1) themselves
        built = []
        original = bundlemodel.level_data
        monkeypatch.setattr(bundlemodel, "level_data",
                            lambda n: built.append(n) or original(n))
        assert main(["verify", "--mode", "structural", "--max-n", "100"]) == 0
        capsys.readouterr()
        certificates = [2, 6, 12, 10 ** 6 + 2, 3, 7, 11, 10 ** 6 + 1]
        assert sorted(built) == sorted([*range(1, 101), *certificates])
