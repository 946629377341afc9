import itertools

import pytest

import gammah.operators
from gammah import corpus, hemiring_product_structure
from gammah.core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    Hemiring,
    StructureError,
    matrix_gamma_hemiring,
    product,
    product_monoid,
    validate_hemiring,
)
from gammah.correspondence import build_context
from gammah.operators import (
    FormalSum,
    build_operator,
    find_unity,
    formal_product,
    formal_sum_label,
    realize,
)
from oracles import (
    all_maps_post_check,
    brute_operator,
    embed,
    full_rescan_operator,
    generator_scan_unity,
    rho_equivalent,
)

# Unities of every kind: strong on both sides, not strong on one side
# (Mat(B,2x1) left, Mat(B,1x2) right), and none (Zero2, Zero3).
UNITY_STRUCTURES = [
    *corpus.standard_corpus(),
    *(corpus.zmod(n) for n in (5, 6, 7, 8)),
    corpus.upper_triangular(),
    corpus.zero_action(2),
    corpus.zero_action(3),
    matrix_gamma_hemiring(corpus.boolean_hemiring(), 1, 2),
    *(
        matrix_gamma_hemiring(corpus.zmod_hemiring(n), rows, cols)
        for n in (2, 3)
        for rows, cols in ((2, 1), (1, 2))
    ),
    product(corpus.zmod(3), corpus.zmod(3)),
    product(corpus.boolean(), corpus.boolean()),
    matrix_gamma_hemiring(corpus.boolean_hemiring(), 2, 2),
]


# The sides whose composition is flipped: honest, left, right and both.
COMPOSE_FLIPS = ((), ("left",), ("right",), ("left", "right"))


def _flipped_compose(sides):
    original = gammah.operators._compose

    def corrupted(side, m1, m2):
        if side in sides:
            side = "right" if side == "left" else "left"
        return original(side, m1, m2)

    return corrupted


# Closures whose S has one generator (Z24), three (UT2(Z2)) and four (Mat(B,2x2)).
KEYED_CLOSURES = {
    "Z24": lambda: corpus.zmod(24),
    "UT2(Z2)": corpus.upper_triangular,
    "Mat(B,2x2)": lambda: matrix_gamma_hemiring(corpus.boolean_hemiring(), 2, 2),
}


class TestRealize:
    def test_doubled_term_is_zero_map_on_z2(self, z2):
        f = FormalSum("left", ((1, 1), (1, 1)))
        assert realize(z2, f).table == (0, 0)

    def test_zero_generator_is_zero_map(self, all_corpus):
        for g in all_corpus:
            f = FormalSum("left", ((g.S.zero, 0),))
            assert realize(g, f).table == tuple(g.S.zero for _ in range(g.S.n))

    def test_boolean_top_is_identity(self, boolean):
        assert realize(boolean, FormalSum("left", ((1, 1),))).table == (0, 1)

    def test_right_side_orientation(self, z4):
        # a . 1 . 3 multiplies by 3 on the right
        f = FormalSum("right", ((1, 3),))
        assert realize(z4, f).table == tuple(a * 3 % 4 for a in range(4))

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            FormalSum("left", ())

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            FormalSum("sideways", ((0, 0),))


class TestRhoEquivalence:
    def test_doubled_vs_zero(self, z2):
        f1 = FormalSum("left", ((1, 1), (1, 1)))
        f2 = FormalSum("left", ((0, 0),))
        assert rho_equivalent(z2, f1, f2)

    def test_idempotent_addition(self, boolean):
        f1 = FormalSum("left", ((1, 1),))
        f2 = FormalSum("left", ((1, 1), (1, 1)))
        assert rho_equivalent(boolean, f1, f2)

    def test_identity_differs_from_zero(self, z2):
        assert not rho_equivalent(
            z2, FormalSum("left", ((1, 1),)), FormalSum("left", ((0, 0),))
        )

    def test_side_mismatch_raises(self, z2):
        with pytest.raises(ValueError):
            rho_equivalent(z2, FormalSum("left", ((0, 0),)), FormalSum("right", ((0, 0),)))

    def test_is_congruence_on_short_sums(self, z2):
        pairs = [(x, g) for x in range(2) for g in range(2)]
        sums = [FormalSum("left", (p,)) for p in pairs]
        sums += [FormalSum("left", (p, q)) for p in pairs for q in pairs]
        for f1, f2 in itertools.product(sums, repeat=2):
            if not rho_equivalent(z2, f1, f2):
                continue
            for g in sums:
                assert rho_equivalent(z2, f1 + g, f2 + g)
                assert rho_equivalent(
                    z2, formal_product(z2, f1, g), formal_product(z2, f2, g)
                )


class TestBuildOperator:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sizes_match_brute_force(self, all_corpus, side):
        for g in all_corpus:
            op = build_operator(g, side)
            maps, has_id, strong = brute_operator(g, side)
            assert op.n == len(maps), (g.name, side)
            assert {m.table for m in op.maps} == maps

    def test_boolean_left_has_two_maps(self, boolean):
        op = build_operator(boolean, "left")
        assert op.n == 2

    def test_z4_left_is_multiplication_maps(self, z4):
        op = build_operator(z4, "left")
        expected = {tuple(c * a % 4 for a in range(4)) for c in range(4)}
        assert {m.table for m in op.maps} == expected

    def test_z2_addition_table_is_cyclic(self, ctx_z2):
        op = ctx_z2.L
        one = next(i for i, m in enumerate(op.maps) if m.table == (0, 1))
        assert op.add[one][one] == op.zero

    def test_tables_form_a_hemiring(self, all_corpus):
        for g in all_corpus:
            for side in ("left", "right"):
                op = build_operator(g, side)
                assert validate_hemiring(op).valid, (g.name, side)

    def test_is_the_hemiring_of_its_context(self, all_corpus):
        # The op is itself the hemiring: elements op<k>, name L(...) or
        # R(...), and its product structure is the context's L or R one.
        for g in all_corpus:
            ctx = build_context(g)
            for side, tag, ps in (("left", "L", ctx.l_ps), ("right", "R", ctx.r_ps)):
                op = build_operator(g, side)
                assert isinstance(op, Hemiring), (g.name, side)
                assert op.elements == tuple(f"op{k}" for k in range(len(op.maps))), (g.name, side)
                assert op.name == f"{tag}({g.name})"
                own = hemiring_product_structure(op)
                assert own.carrier.elements == ps.carrier.elements, (g.name, side)
                assert own.carrier.add == ps.carrier.add, (g.name, side)
                assert own.pair_products == ps.pair_products, (g.name, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_full_rescan(self, all_corpus, side):
        wider = [corpus.zmod(8), matrix_gamma_hemiring(corpus.zmod_hemiring(3), 2, 1)]
        for g in [*all_corpus, *wider]:
            op = build_operator(g, side)
            maps, prov, add, mul, zero = full_rescan_operator(g, side)
            assert [m.table for m in op.maps] == maps, (g.name, side)
            assert list(op.provenance) == prov, (g.name, side)
            assert (op.add, op.mul, op.zero) == (add, mul, zero), (g.name, side)

    @pytest.mark.parametrize("flip", COMPOSE_FLIPS, ids=lambda f: "+".join(f) or "honest")
    @pytest.mark.parametrize("name", sorted(KEYED_CLOSURES))
    def test_keyed_closure_matches_full_rescan(self, monkeypatch, name, flip):
        # The closure keys maps by their values on S's generators; it must
        # give the full rescan's maps and tables under any composition.
        monkeypatch.setattr(gammah.operators, "_compose", _flipped_compose(flip))
        g = KEYED_CLOSURES[name]()
        for side in ("left", "right"):
            orientation = ("right" if side == "left" else "left") if side in flip else side
            op = build_operator(g, side)
            maps, prov, add, mul, zero = full_rescan_operator(g, side, orientation)
            assert [m.table for m in op.maps] == maps, side
            assert list(op.provenance) == prov, side
            assert (op.add, op.mul, op.zero) == (add, mul, zero), side

    def test_closure_without_zero_map_rejected(self, boolean):
        # On B with x g a = a for all x and g, every left generator map is the
        # identity, and id + id = id . id = id: no sum or product is zero.
        ident = ((0, 1), (0, 1))
        g = GammaHemiring("B-ident", boolean.S, boolean.Gamma, (ident, ident))
        with pytest.raises(StructureError, match="no zero map"):
            build_operator(g, "left")

    def test_noncommutative_carrier_rejected(self):
        # S = {0, a, b} with x + y = x for nonzero x, y; the left maps are the
        # identity and the swap of a and b, which add differently in each order.
        s = FiniteMonoid(("0", "a", "b"), 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)), "S")
        gam = FiniteMonoid(("0", "1"), 0, ((0, 1), (1, 1)), "Gamma")
        zero, ident, swap = (0, 0, 0), (0, 1, 2), (0, 2, 1)
        g = GammaHemiring("LeftZero", s, gam, ((zero, zero), (zero, ident), (zero, swap)))
        with pytest.raises(StructureError):
            build_operator(g, "left")

    def test_non_additive_action_rejected(self):
        # On Z3, 1 acting by 1 squares its argument: 1 + 1 = 2 goes to 1, not 2.
        z3 = corpus.zmod(3)
        act = [[list(row) for row in plane] for plane in z3.action]
        act[1][1] = [0, 1, 1]
        g = GammaHemiring("Z3-squared", z3.S, z3.Gamma, tuple(tuple(map(tuple, p)) for p in act))
        with pytest.raises(StructureError):
            build_operator(g, "left")

    @pytest.mark.parametrize("g", [corpus.zmod(3), corpus.boolean_matrix_2x1()], ids=lambda g: g.name)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_generator_check_matches_all_maps(self, g, side):
        # Each single-cell corruption of the action table: checking the
        # generators raises what checking every map of the closure raises.
        n, verdicts = g.S.n, set()
        for x, ga, a in itertools.product(range(n), range(g.Gamma.n), range(n)):
            for v in range(n):
                if v == g.action[x][ga][a]:
                    continue
                act = [[list(row) for row in plane] for plane in g.action]
                act[x][ga][a] = v
                bad = GammaHemiring("bad", g.S, g.Gamma, tuple(tuple(map(tuple, p)) for p in act))
                want = all_maps_post_check(bad, side)
                try:
                    build_operator(bad, side)
                    got = None
                except StructureError as err:
                    got = str(err)
                assert got == want, (x, ga, a, v)
                verdicts.add(got is None)
        assert False in verdicts

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_additivity_read_at_every_generator(self, side):
        # S = Z3xZ3, whose generators are (0,1) and (1,0).  The generator
        # [(0,1), 1] sends a to (0, s(a1)) with s = (0, 1, 1): additive at
        # (0,1), which leaves a1 alone, but not at (1,0).
        z3 = corpus.zmod(3).S
        mon = product_monoid(z3, z3)
        bent = tuple((0, 1, 1)[a // 3] for a in range(9))
        zero = (0,) * 9
        action = tuple((zero, bent if x == 1 else zero) for x in range(9))
        g = GammaHemiring("bent", mon, corpus.zmod(2).S, action)
        want = all_maps_post_check(g, side)
        assert want and "not additive" in want
        with pytest.raises(StructureError) as err:
            build_operator(g, side)
        assert str(err.value) == want

    def test_provenance_realizes_each_map(self, all_corpus):
        for g in all_corpus:
            for side in ("left", "right"):
                op = build_operator(g, side)
                for m, f in zip(op.maps, op.provenance):
                    assert realize(g, f).table == m.table

    def test_cap_enforced(self, mat_b, monkeypatch):
        monkeypatch.setenv("GAMMAH_OPERATOR_CAP", "3")
        with pytest.raises(CapacityError):
            build_operator(mat_b, "left")

    def test_closure_maps_are_additive_and_fix_zero(self, all_corpus):
        for g in all_corpus:
            op = build_operator(g, "left")
            add = g.S.add
            for m in op.maps:
                assert m.table[g.S.zero] == g.S.zero
                for a in range(g.S.n):
                    for b in range(g.S.n):
                        assert m.table[add[a][b]] == add[m.table[a]][m.table[b]]


class TestMultiplicationLaw:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_table_matches_formal_sum_products(self, z2, boolean, z4, side):
        for g in (z2, boolean, z4):
            op = build_operator(g, side)
            pairs = [
                (x, ga) if side == "left" else (ga, x)
                for x in range(g.S.n)
                for ga in range(g.Gamma.n)
            ]
            sums = [FormalSum(side, (p,)) for p in pairs]
            sums += [FormalSum(side, (p, q)) for p in pairs for q in pairs]
            for f1 in sums:
                for f2 in sums:
                    k1 = op.index_of(realize(g, f1))
                    k2 = op.index_of(realize(g, f2))
                    via_table = op.maps[op.mul[k1][k2]].table
                    assert via_table == realize(g, formal_product(g, f1, f2)).table

    def test_right_orientation_is_reversed_composition(self, mat_b):
        # On a noncommutative structure the two orientations differ somewhere.
        left = build_operator(mat_b, "left")
        flipped = [
            (i, j)
            for i in range(left.n)
            for j in range(left.n)
            if left.mul[i][j] != left.mul[j][i]
        ]
        assert flipped, "matrix structure should have noncommutative composition"


class TestEmbedding:
    def test_embed_additive(self, all_corpus):
        for g in all_corpus:
            for side in ("left", "right"):
                op = build_operator(g, side)
                for x in range(g.S.n):
                    for y in range(g.S.n):
                        xy = g.S.add[x][y]
                        for ga in range(g.Gamma.n):
                            lhs = op.add[embed(g, op, x, ga)][embed(g, op, y, ga)]
                            assert lhs == embed(g, op, xy, ga)

    def test_boolean_embed_top_is_identity(self, ctx_boolean):
        g, op = ctx_boolean.G, ctx_boolean.L
        k = embed(g, op, 1, 1)
        assert op.maps[k].table == (0, 1)

    def test_zero_embeds_to_zero(self, ctx_z4):
        g, op = ctx_z4.G, ctx_z4.L
        for ga in range(g.Gamma.n):
            assert embed(g, op, 0, ga) == op.zero

    def test_z4_embed_two(self, ctx_z4):
        g, op = ctx_z4.G, ctx_z4.L
        k = embed(g, op, 2, 1)
        assert op.maps[k].table == (0, 2, 0, 2)


class TestUnity:
    def test_strong_unities_on_cyclic_corpus(self, z2, z3, z4, boolean):
        for g in (z2, z3, z4, boolean):
            for side in ("left", "right"):
                op = build_operator(g, side)
                u = find_unity(g, op)
                assert u is not None and u.strong, (g.name, side)
                assert len(u.witness.terms) == 1

    def test_unity_witness_acts_as_identity(self, all_corpus):
        for g in all_corpus:
            for side in ("left", "right"):
                op = build_operator(g, side)
                u = find_unity(g, op)
                if u is not None:
                    assert realize(g, u.witness).table == tuple(range(g.S.n))

    def test_zero_action_has_no_unity(self):
        g = corpus.zero_action(2)
        op = build_operator(g, "left")
        assert find_unity(g, op) is None

    def test_matrix_left_unity_two_terms_not_strong(self, mat_b):
        op = build_operator(mat_b, "left")
        u = find_unity(mat_b, op)
        assert u is not None
        assert not u.strong
        assert len(u.witness.terms) == 2

    @pytest.mark.parametrize("g", UNITY_STRUCTURES, ids=lambda g: g.name)
    def test_unity_and_embed_match_generator_scans(self, g):
        for side in ("left", "right"):
            op = build_operator(g, side)
            assert find_unity(g, op) == generator_scan_unity(g, op), (g.name, side)
            assert op.embed == tuple(
                tuple(embed(g, op, x, ga) for ga in range(g.Gamma.n)) for x in range(g.S.n)
            ), (g.name, side)

    def test_z2_unity_label(self, ctx_z2):
        u = ctx_z2.left_unity
        assert formal_sum_label(ctx_z2.G, u.witness) == "[1,1]"
