import copy
import json

import pytest

from thetajordan import lattice
from thetajordan.abelian import CapExceeded, make_group
from thetajordan.heis import ThetaElement, theta_group
from thetajordan.lattice import (
    ConcreteGroup,
    Subgroup,
    _max_related,
    all_subgroups,
    closure,
    extension_max_abelian_order,
    is_abelian,
    is_subgroup,
    max_abelian_order,
    min_abelian_index,
    order_sequence,
)
from thetajordan.symplectic import max_isotropic_order, pairing_space

from helpers import (
    alternating4_table,
    concrete_mul_table,
    counting_checks,
    cyclic_table,
    dihedral_table,
    divisor_chains,
    naive_closure,
    naive_max_abelian_order,
    recording,
    table_census,
)


def concrete_theta(factors):
    return theta_group(make_group(factors)).to_concrete()


@pytest.fixture
def extend_calls(monkeypatch):
    """A one-entry list that counts the searches' _extend_mask calls."""
    return counting_checks(monkeypatch, lattice, ("_extend_mask",))


class TestConcreteGroup:
    def test_rejects_broken_identity(self):
        with pytest.raises(ValueError):
            ConcreteGroup([[1, 0], [0, 1]])  # 0 is not an identity

    def test_rejects_nonassociative(self):
        # a latin square that is not a group table
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError):
            ConcreteGroup(table)

    def test_rejects_swapped_entries_at_order_512(self):
        # two entries of one row swapped: the identity and inverse laws
        # still hold, and few random triples touch the swapped entries
        C = concrete_theta([8])
        table = concrete_mul_table(C)
        table[1][2], table[1][3] = table[1][3], table[1][2]
        inverses = [C.inv(i) for i in range(C.order)]
        with pytest.raises(ValueError, match="not associative"):
            ConcreteGroup(table, inv_table=inverses)

    @pytest.mark.parametrize("table, inv_table, message", [
        ([], None, "empty multiplication table"),
        ([[0, 1], [1]], None, "malformed multiplication table"),
        ([[0, 1], [1, 0]], [0], "inverse table length does not match"),
        ([[0, 1], [1, 1]], None, "element 1 has no right inverse"),
        ([[0, 1], [1, 0]], [0, 0], "inverse table is wrong at element 1"),
    ])
    def test_rejects_malformed_tables(self, table, inv_table, message):
        with pytest.raises(ValueError, match=message):
            ConcreteGroup(table, inv_table=inv_table)

    def test_rejects_negative_inverse_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            ConcreteGroup([[0, 1], [1, 0]], inv_table=[0, -1])

    def test_rejects_inverse_entry_above_order(self):
        with pytest.raises(ValueError, match="out of range"):
            ConcreteGroup([[0, 1], [1, 0]], inv_table=[0, 5])

    @pytest.mark.parametrize("row_type", [tuple, list])
    @pytest.mark.parametrize("bad", [1.5, "1"])
    def test_rejects_non_integer_entry(self, row_type, bad):
        table = [row_type((0, bad)), row_type((bad, 0))]
        with pytest.raises(ValueError, match="not an integer"):
            ConcreteGroup(table)

    def test_rejects_float_identity(self):
        with pytest.raises(ValueError, match="identity index 0.0 is not an integer"):
            ConcreteGroup(cyclic_table(2), identity=0.0)

    def test_rejects_float_inverse_entry(self):
        with pytest.raises(ValueError, match="inverse table entry 1.0 is not"):
            ConcreteGroup(cyclic_table(2), inv_table=[0, 1.0])

    def test_bool_indices_accepted(self):
        G = ConcreteGroup([[False, True], [True, False]], inv_table=[False, True],
                          identity=False)
        assert G.mul(1, 1) == 0
        assert closure(G, [True]).members == (0, 1)
        assert is_subgroup(G, [False, True])
        assert is_abelian(G, Subgroup((True, False)))

    # a bool index is stored and rendered as 0 or 1, as check_int does for
    # scalars; repr tells them apart, since False == 0 and True == 1

    def test_bool_identity_is_stored_as_int(self):
        G = ConcreteGroup([(0, 1), (1, 0)], identity=False)
        assert repr(G.identity) == "0"

    def test_bool_index_is_described_as_int(self):
        assert ConcreteGroup(cyclic_table(3)).describe(True) == "1"
        theta = concrete_theta([2])
        assert theta.describe(True) == theta.describe(1) == "(0; 0; 1)"

    def test_bool_members_are_stored_as_ints(self):
        assert repr(Subgroup([True, 0])) == "Subgroup(members=(0, 1))"

    def test_bool_table_entries_are_stored_as_ints(self):
        G = ConcreteGroup([[False, True], [True, False]], inv_table=[False, True])
        assert repr((G.mul(0, 1), G.mul(1, 1), G.inv(0), G.inv(1))) == "(1, 0, 0, 1)"
        assert json.dumps(G.mul(0, 1)) == "1"

    def test_table_cannot_change_after_verification(self):
        table = cyclic_table(3)
        G = ConcreteGroup(table)
        table[1][1] = 0
        assert G.mul(1, 1) == 2

    def test_builders_emit_tuple_rows(self, monkeypatch):
        seen = recording(monkeypatch, ConcreteGroup, "__init__",
                         lambda self, mul_table, *args: set(map(type, mul_table)))
        theta_group(make_group([2, 2])).to_concrete()
        pairing_space(make_group([4])).to_concrete()
        ConcreteGroup.from_mul_fn(6, lambda i, j: (i + j) % 6)
        assert seen == [{tuple}] * 3

    def test_lookups_follow_the_index_rule(self):
        G = ConcreteGroup(cyclic_table(3))
        lookups = [lambda i: G.mul(i, 0), lambda i: G.mul(0, i), G.inv,
                   lambda i: G.commute(i, 1), lambda i: G.commute(1, i)]
        for lookup in lookups:
            with pytest.raises(ValueError, match="element index -1 out of range 0..2"):
                lookup(-1)  # no wrap to the last row
            with pytest.raises(ValueError, match="element index 3 out of range 0..2"):
                lookup(3)
            with pytest.raises(ValueError, match="element index 1.5 is not an integer"):
                lookup(1.5)
            with pytest.raises(ValueError, match="element index 1.0 is not an integer"):
                lookup(1.0)
        assert (G.mul(True, 2), G.inv(True), G.commute(True, 2)) == (0, 2, True)

    def test_describe_follows_the_index_rule(self):
        plain = ConcreteGroup(cyclic_table(3))
        theta = concrete_theta([2])
        for G, n in ((plain, 3), (theta, 8)):
            for bad in (-1, n):
                with pytest.raises(ValueError,
                                   match=f"element index {bad} out of range 0..{n - 1}"):
                    G.describe(bad)
            with pytest.raises(ValueError, match="element index 1.5 is not an integer"):
                G.describe(1.5)
        assert [plain.describe(i) for i in range(3)] == ["0", "1", "2"]
        assert theta.describe(7) == "(1; 1; 1)"

    def test_from_mul_fn_derives_inverses(self):
        G = ConcreteGroup.from_mul_fn(6, lambda i, j: (i + j) % 6)
        assert [G.inv(i) for i in range(6)] == [0, 5, 4, 3, 2, 1]

    @pytest.mark.parametrize("build", [lambda: concrete_theta([2]),
                                       lambda: ConcreteGroup(dihedral_table(4))],
                             ids=["theta Z2", "dihedral 8"])
    def test_queries_leave_the_table_as_built(self, build):
        # construction sets every attribute; no query fills one in later
        G = build()
        built = copy.deepcopy(vars(G))
        G.centralizer_masks()
        G.center_mask()
        S = closure(G, [1])
        is_subgroup(G, S.members)
        is_abelian(G, S)
        all_subgroups(G)
        max_abelian_order(G)
        min_abelian_index(G)
        order_sequence(G)
        assert vars(G) == built

    def test_centralizer_masks(self):
        G = ConcreteGroup(dihedral_table(4))
        masks = G.centralizer_masks()
        full = (1 << 8) - 1
        assert masks[0] == full  # identity is central
        assert masks[2] == full  # the rotation by pi is central in D4
        assert G.center_mask() == 0b101


class TestClosure:
    def test_empty_generators(self):
        G = concrete_theta([2])
        S = closure(G, [])
        assert S.members == (0,)

    def test_whole_group(self):
        G = concrete_theta([2])
        S = closure(G, range(G.order))
        assert S.order == G.order

    def test_single_involution(self):
        # (0,(1),(0)) squares to the identity
        theta = theta_group(make_group([2]))
        G = theta.to_concrete()
        i = theta.index(ThetaElement(0, (1,), (0,)))
        S = closure(G, [i])
        assert S.order == 2
        assert S.members == (0, i)

    def test_invalid_index(self):
        G = concrete_theta([2])
        with pytest.raises(ValueError):
            closure(G, [99])

    def test_rejects_float_generator(self):
        G = concrete_theta([2])
        with pytest.raises(ValueError, match="element index 1.7 is not an integer"):
            closure(G, [1.7])

    def test_results_pass_independent_recheck(self):
        G = concrete_theta([3])
        for gens in ([], [1], [3], [1, 9], [5, 7], list(range(27))):
            S = closure(G, gens)
            assert is_subgroup(G, S.members)
            assert G.order % S.order == 0  # Lagrange

    def test_size_off_lagrange_raises(self, monkeypatch):
        # a verified table never trips this guard; a patched generation that
        # reaches 2 of Z3's 3 elements does
        G = ConcreteGroup(cyclic_table(3))
        monkeypatch.setattr(lattice, "_generate", lambda mul, seed, e: ([1], 0b11))
        with pytest.raises(RuntimeError,
                           match="^closure of size 2 does not divide the group order 3$"):
            closure(G, [1])

    def test_matches_naive_closure(self):
        tables = [
            concrete_mul_table(concrete_theta([3])),
            concrete_mul_table(concrete_theta([2, 2])),
            dihedral_table(4),
        ]
        for table in tables:
            G = ConcreteGroup(table)
            n = G.order
            for gens in ([], [1], [n - 1], [1, 2], [2, n // 2], [3, 5, 7],
                         [n - 2, n - 3], list(range(n))):
                S = closure(G, gens)
                assert set(S.members) == naive_closure(table, gens)


class TestIsSubgroup:
    def test_rejects_out_of_range_member(self):
        G = ConcreteGroup(cyclic_table(2))
        with pytest.raises(ValueError, match="out of range"):
            is_subgroup(G, [0, -2])
        with pytest.raises(ValueError, match="out of range"):
            is_subgroup(G, [0, 2])

    def test_rejects_float_member(self):
        G = ConcreteGroup(cyclic_table(4))  # {0, 2} is a subgroup
        with pytest.raises(ValueError, match="element index 2.9 is not an integer"):
            is_subgroup(G, [0, 2.9])

    # the three rejections, in Z6: no identity, a member without its
    # inverse (1 without 5), and a product outside (1 * 1 = 2)
    @pytest.mark.parametrize("members", [[1], [0, 1], [0, 1, 5]])
    def test_rejects_non_subgroup(self, members):
        assert not is_subgroup(ConcreteGroup(cyclic_table(6)), members)

    def test_subgroup_rejects_float_member(self):
        with pytest.raises(ValueError, match="member 2.5 is not an integer"):
            Subgroup((0, 2.5))


class TestIsAbelian:
    def test_trivial(self):
        G = concrete_theta([2])
        assert is_abelian(G, Subgroup((0,)))

    def test_center_is_abelian(self):
        theta = theta_group(make_group([3]))
        G = theta.to_concrete()
        assert is_abelian(G, theta.center())

    def test_full_theta_group_is_not(self):
        G = concrete_theta([2])
        assert not is_abelian(G, closure(G, range(G.order)))

    def test_rejects_out_of_range_member(self):
        G = ConcreteGroup(cyclic_table(2))
        with pytest.raises(ValueError, match="out of range"):
            is_abelian(G, Subgroup((0, -1)))
        with pytest.raises(ValueError, match="out of range"):
            is_abelian(G, Subgroup((0, 2)))


class TestAllSubgroups:
    def test_cyclic_z12(self):
        G = ConcreteGroup(cyclic_table(12))
        subs = all_subgroups(G)
        assert [s.order for s in subs] == [1, 2, 3, 4, 6, 12]  # one per divisor

    def test_dihedral8(self):
        G = ConcreteGroup(dihedral_table(4))
        subs = all_subgroups(G)
        assert len(subs) == 10
        assert all(is_subgroup(G, s.members) for s in subs)
        assert all(G.order % s.order == 0 for s in subs)

    def test_theta_z2(self):
        G = concrete_theta([2])
        subs = all_subgroups(G)
        assert len(subs) == 10  # same lattice size as the dihedral group of order 8
        assert all(is_subgroup(G, s.members) for s in subs)


class TestMaxAbelianOracle:
    def test_trivial(self):
        assert max_abelian_order(concrete_theta([1])) == 1

    def test_theta_z2(self):
        assert max_abelian_order(concrete_theta([2])) == 4

    def test_theta_z3(self):
        assert max_abelian_order(concrete_theta([3])) == 9

    def test_abelian_group_shortcut(self):
        assert max_abelian_order(ConcreteGroup(cyclic_table(12))) == 12

    def test_agrees_with_naive_sweep(self):
        # the independent exponential reference on every group of order <= 64
        for factors in ([2], [3], [4], [2, 2]):
            G = concrete_theta(factors)
            assert max_abelian_order(G) == naive_max_abelian_order(
                concrete_mul_table(G)
            )

    def test_naive_sweep_on_dihedral(self):
        table = dihedral_table(6)
        G = ConcreteGroup(table)
        assert max_abelian_order(G) == naive_max_abelian_order(table) == 6

    def test_a4_prune_is_exact(self):
        # A4 has a trivial center, maximal abelian subgroups V4 (order 4)
        # and four C3, and no subgroup of order 6.  Under this labelling the
        # search finds a C3 first, and then the branch that holds V4 has a
        # related set of exactly 4 elements: pruning at <= best + 1 instead
        # of <= best would drop it and answer 3
        table = alternating4_table([0, 8, 7, 9, 3, 1, 11, 4, 6, 10, 2, 5])
        G = ConcreteGroup(table)
        assert max(s.order for s in all_subgroups(G) if is_abelian(G, s)) == 4
        assert max_abelian_order(G) == naive_max_abelian_order(table) == 4

    def test_quotient_search_matches_direct_search(self):
        # the search on G/Z against the same pruned search on G itself, with
        # the center read off the O(n^2) centralizer masks; dihedral groups
        # of order 2n have centers of order 1 (n odd) and 2 (n even)
        groups = [concrete_theta(fs or [1]) for fs in divisor_chains(8)]
        groups += [ConcreteGroup(dihedral_table(n)) for n in range(3, 9)]
        groups.append(ConcreteGroup(cyclic_table(12)))
        for G in groups:
            masks = G.centralizer_masks()
            full = (1 << G.order) - 1
            center = sum(1 << g for g, m in enumerate(masks) if m == full)
            assert G.center_mask() == center
            direct = _max_related(G._mul, masks).bit_count()
            assert max_abelian_order(G) == direct

    def test_theta_maximum_is_base_order_squared(self):
        # every base type with |K| <= 12, theta orders up to 1728
        for fs in divisor_chains(12):
            K = make_group(list(fs) or [1])
            G = theta_group(K).to_concrete()
            assert max_abelian_order(G, cap=G.order) == K.order ** 2, fs

    @pytest.mark.parametrize("fs, calls", [([6], 71), ([7], 48), ([8], 129),
                                           ([4, 2], 417), ([2, 2, 2], 1953)],
                             ids=["Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2"])
    def test_search_work_is_pinned(self, extend_calls, fs, calls):
        # the theta table's quotient by its center and the pairing space over
        # the same base are the same search, so both routes make the same
        # _extend_mask calls
        K = make_group(fs)
        assert max_abelian_order(theta_group(K).to_concrete()) == K.order ** 2
        assert extend_calls[0] == calls
        extend_calls[0] = 0
        assert max_isotropic_order(pairing_space(K), method="brute") == K.order
        assert extend_calls[0] == calls

    def test_each_extension_tried_once(self, extend_calls):
        # Z2xZ2xZ2's quotient: trying every element of every coset S*h, the
        # search made 5733 _extend_mask calls for the same answer
        assert max_abelian_order(concrete_theta([2, 2, 2])) == 64
        assert 0 < extend_calls[0] < 5733 // 2
        for fs in divisor_chains(12):
            K = make_group(list(fs) or [1])
            P = pairing_space(K)
            assert max_isotropic_order(P, method="brute") == K.order, fs

    def test_at_least_center(self):
        for factors in ([2], [3], [2, 2], [4]):
            theta = theta_group(make_group(factors))
            G = theta.to_concrete()
            assert max_abelian_order(G) >= theta.center().order

    def test_cap(self):
        G = concrete_theta([2])
        for search, what in ((max_abelian_order, "oracle search"),
                             (all_subgroups, "subgroup search"),
                             (order_sequence, "concrete group")):
            with pytest.raises(CapExceeded,
                               match=f"^{what} of order 8 exceeds the cap 4$"):
                search(G, cap=4)
            with pytest.raises(ValueError, match="^cap 2.5 is not an integer$"):
                search(G, cap=2.5)


class TestMinAbelianIndex:
    def test_trivial(self):
        assert min_abelian_index(concrete_theta([1])) == 1

    def test_theta_z2(self):
        assert min_abelian_index(concrete_theta([2])) == 2

    def test_theta_z4(self):
        assert min_abelian_index(concrete_theta([4])) == 4

    def test_exact_up_to_5(self):
        for n in range(1, 6):
            assert min_abelian_index(concrete_theta([n] if n > 1 else [1])) == n

    def test_maximum_off_lagrange_raises(self, monkeypatch):
        # a correct search never trips this guard; a patched one does
        monkeypatch.setattr(lattice, "max_abelian_order", lambda G, cap: 4)
        with pytest.raises(RuntimeError,
                           match="^abelian maximum 4 does not divide the order 6$"):
            min_abelian_index(ConcreteGroup(cyclic_table(6)))


class TestExtensionMaxAbelianOrder:
    @pytest.mark.parametrize("cut", ["short", "long"])
    def test_rejects_wrong_length_inverse_table(self, cut):
        # as the ConcreteGroup of E's whole table does: 9 inverses of the
        # 27 elements must not leave elements 9..26 unchecked
        theta = theta_group(make_group([3]))
        block, inv = theta._law_cells()
        assert extension_max_abelian_order(3, block, inv) == 9
        bad = inv[:9] if cut == "short" else inv + [0]
        message = "^inverse table length does not match the order$"
        with pytest.raises(ValueError, match=message):
            extension_max_abelian_order(3, block, bad)
        with pytest.raises(ValueError, match=message):
            ConcreteGroup(theta.to_concrete()._mul, inv_table=bad)


class TestOrderSequence:
    def test_trivial(self):
        assert dict(order_sequence(concrete_theta([1]))) == {1: 1}

    def test_theta_z2(self):
        assert dict(order_sequence(concrete_theta([2]))) == {1: 1, 2: 5, 4: 2}

    def test_cyclic_z4(self):
        G = ConcreteGroup(cyclic_table(4))
        assert dict(order_sequence(G)) == {1: 1, 2: 1, 4: 2}

    def test_matches_independent_census(self):
        table = dihedral_table(5)
        assert order_sequence(ConcreteGroup(table)) == table_census(table)
