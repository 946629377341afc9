import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

import gammah.core
import gammah.correspondence
import gammah.operators
from gammah import corpus
from gammah.core import (
    as_product_structure,
    matrix_gamma_hemiring,
    pair_product_structure,
    product,
    product_monoid,
)
from gammah.correspondence import (
    build_context,
    crisp_plus,
    crisp_plus_prime,
    crisp_star_prime,
    plus,
    plus_prime,
    product_plus,
    product_plus_prime,
    product_star,
    product_star_prime,
    star,
    star_prime,
)
from gammah.fuzzy import (
    cartesian,
    characteristic,
    constant,
    intersect,
    make_fuzzy,
)
from gammah.ideals import crisp, enumerate_fuzzy_h_ideals, enumerate_h_ideals
from gammah.operators import FormalSum, realize
from oracles import (
    down_comprehension,
    embed,
    equals,
    pair_hemiring_ps,
    product_down_comprehension,
    product_up_comprehension,
    rho_equivalent,
    sum_closure_up,
    up_comprehension,
)

GRID = ("0", "1/2", "1")


class TestPlusAndStar:
    def test_plus_takes_min_over_embeddings(self, ctx_z2):
        mu = make_fuzzy(ctx_z2.l_monoid, ["1", "1/3"])  # zero map, identity
        out = plus(ctx_z2, mu)
        assert out.values == (Fraction(1), Fraction(1, 3))

    def test_plus_of_top_is_top(self, ctx_z2):
        assert plus(ctx_z2, constant(ctx_z2.l_monoid, 1)).values == (1, 1)

    def test_star_mirrors_plus_on_commutative(self, ctx_z2):
        delta = make_fuzzy(ctx_z2.r_monoid, ["1", "1/3"])
        assert star(ctx_z2, delta).values == (Fraction(1), Fraction(1, 3))

    def test_carrier_mismatch(self, ctx_z2):
        with pytest.raises(ValueError):
            plus(ctx_z2, constant(ctx_z2.s_monoid, 1))


class TestPlusPrimeAndStarPrime:
    def test_plus_prime_values(self, ctx_z2):
        sigma = make_fuzzy(ctx_z2.s_monoid, ["1", "1/3"])
        out = plus_prime(ctx_z2, sigma)
        by_label = dict(zip(out.carrier.elements, out.values))
        zero_label = f"op{ctx_z2.L.zero}"
        assert by_label[zero_label] == 1
        assert set(out.values) == {Fraction(1), Fraction(1, 3)}

    def test_chi_zero_maps_to_chi_zero_map(self, ctx_z2):
        sigma = characteristic(ctx_z2.s_monoid, [0])
        out = plus_prime(ctx_z2, sigma)
        expected = characteristic(ctx_z2.l_monoid, [ctx_z2.L.zero])
        assert equals(out, expected)

    def test_top_maps_to_top(self, ctx_z2):
        assert set(plus_prime(ctx_z2, constant(ctx_z2.s_monoid, 1)).values) == {Fraction(1)}
        assert set(star_prime(ctx_z2, constant(ctx_z2.s_monoid, 1)).values) == {Fraction(1)}

    def test_well_defined_on_congruence_classes(self, ctx_z2):
        # evaluate through two congruent formal sums and compare directly
        g = ctx_z2.G
        sigma = make_fuzzy(ctx_z2.s_monoid, ["1", "1/2"])
        f1 = FormalSum("left", ((1, 1), (1, 1)))
        f2 = FormalSum("left", ((0, 0),))
        assert rho_equivalent(g, f1, f2)

        def by_formal_sum(f):
            table = realize(g, f).table
            return min(sigma.values[table[s]] for s in range(g.S.n))

        assert by_formal_sum(f1) == by_formal_sum(f2)


class TestCrispMaps:
    def test_crisp_plus_of_zero_map(self, ctx_z2):
        p = crisp(ctx_z2.l_monoid, [ctx_z2.L.zero])
        assert crisp_plus(ctx_z2, p).indices() == (0,)

    def test_crisp_plus_of_all(self, ctx_z2):
        p = crisp(ctx_z2.l_monoid, range(ctx_z2.L.n))
        assert crisp_plus(ctx_z2, p).indices() == (0, 1)

    def test_crisp_plus_of_empty(self, ctx_z2):
        p = crisp(ctx_z2.l_monoid, [])
        assert crisp_plus(ctx_z2, p).indices() == ()

    def test_crisp_plus_prime_examples(self, ctx_z2):
        q0 = crisp(ctx_z2.s_monoid, [0])
        assert crisp_plus_prime(ctx_z2, q0).indices() == (ctx_z2.L.zero,)
        qs = crisp(ctx_z2.s_monoid, [0, 1])
        assert crisp_plus_prime(ctx_z2, qs).indices() == tuple(range(ctx_z2.L.n))

    def test_z4_even_transfers_to_even_maps(self, ctx_z4):
        q = crisp(ctx_z4.s_monoid, [0, 2])
        image = crisp_plus_prime(ctx_z4, q)
        tables = {ctx_z4.L.maps[k].table for k in image.indices()}
        assert tables == {(0, 0, 0, 0), (0, 2, 0, 2)}
        assert crisp_star_prime(ctx_z4, q).size() == 2

    UP_STRUCTURES = {
        **{g.name: (lambda g=g: g) for g in corpus.standard_corpus()},
        **{f"Z{n}": partial(corpus.zmod, n) for n in (5, 6, 8)},
        "UT2(Z2)": corpus.upper_triangular,
        "Zero2": partial(corpus.zero_action, 2),
        "Zero3": partial(corpus.zero_action, 3),
        "Mat(Z2,2x1)": lambda: matrix_gamma_hemiring(corpus.zmod_hemiring(2), 2, 1),
        "Mat(Z2,1x2)": lambda: matrix_gamma_hemiring(corpus.zmod_hemiring(2), 1, 2),
        "Mat(B,1x2)": lambda: matrix_gamma_hemiring(corpus.boolean_hemiring(), 1, 2),
    }

    @pytest.mark.parametrize("name", sorted(UP_STRUCTURES))
    def test_up_maps_need_no_sum_closure(self, name):
        # Each map's values already form a submonoid (build_operator admits
        # only additive, zero-fixing maps), so reading the values alone
        # agrees with closing them under + first, on every subset of S.
        ctx = build_context(self.UP_STRUCTURES[name]())
        mon = ctx.s_monoid
        for bits in range(1 << mon.n):
            q = crisp(mon, [i for i in range(mon.n) if bits >> i & 1])
            for tag, up in (("L", crisp_plus_prime), ("R", crisp_star_prime)):
                assert up(ctx, q).mask == sum(
                    1 << k for k, inside in enumerate(sum_closure_up(tag, ctx, q)) if inside
                ), (tag, bits)

    def test_indicator_squares_on_z4(self, ctx_z4):
        for ideal in enumerate_h_ideals(ctx_z4.s_ps):
            chi = characteristic(ctx_z4.s_monoid, ideal.indices())
            assert equals(
                plus_prime(ctx_z4, chi),
                characteristic(ctx_z4.l_monoid, crisp_plus_prime(ctx_z4, ideal).indices()),
            )
            assert equals(
                star_prime(ctx_z4, chi),
                characteristic(ctx_z4.r_monoid, crisp_star_prime(ctx_z4, ideal).indices()),
            )


class TestRoundTrips:
    def test_left_roundtrip_on_z2_family(self, ctx_z2):
        fam = enumerate_fuzzy_h_ideals(ctx_z2.s_ps, GRID)
        for sigma in fam.members:
            assert equals(plus(ctx_z2, plus_prime(ctx_z2, sigma)), sigma)

    def test_right_roundtrip_on_z4_family(self, ctx_z4):
        fam = enumerate_fuzzy_h_ideals(ctx_z4.s_ps, GRID)
        for sigma in fam.members:
            assert equals(star(ctx_z4, star_prime(ctx_z4, sigma)), sigma)

    def test_operator_side_roundtrip(self, ctx_z4):
        fam = enumerate_fuzzy_h_ideals(ctx_z4.l_ps, GRID)
        for mu in fam.members:
            assert equals(plus_prime(ctx_z4, plus(ctx_z4, mu)), mu)

    def test_lattice_operations_preserved(self, ctx_z4):
        fam = enumerate_fuzzy_h_ideals(ctx_z4.s_ps, GRID)
        for s1, s2 in itertools.combinations(fam.members, 2):
            assert equals(
                plus_prime(ctx_z4, intersect(s1, s2)),
                intersect(plus_prime(ctx_z4, s1), plus_prime(ctx_z4, s2)),
            )


class TestProductMaps:
    def test_commutes_with_cartesian(self, ctx_z2):
        mu = make_fuzzy(ctx_z2.s_monoid, ["1", "1/2"])
        sigma = make_fuzzy(ctx_z2.s_monoid, ["1", "3/4"])
        lhs = product_plus_prime(ctx_z2, cartesian(mu, sigma))
        rhs = cartesian(plus_prime(ctx_z2, mu), plus_prime(ctx_z2, sigma))
        assert equals(lhs, rhs)
        lhs = product_star_prime(ctx_z2, cartesian(mu, sigma))
        rhs = cartesian(star_prime(ctx_z2, mu), star_prime(ctx_z2, sigma))
        assert equals(lhs, rhs)

    def test_plus_prime_pair_value_is_min(self, ctx_z2):
        mu = make_fuzzy(ctx_z2.s_monoid, ["1", "1/2"])
        sigma = make_fuzzy(ctx_z2.s_monoid, ["1", "3/4"])
        out = product_plus_prime(ctx_z2, cartesian(mu, sigma))
        one = next(k for k, m in enumerate(ctx_z2.L.maps) if m.table == (0, 1))
        pair_label = f"(op{one},op{one})"
        assert out.values[out.carrier.index_of(pair_label)] == Fraction(1, 2)

    def test_top_transfers_to_top(self, ctx_z2):
        top = constant(ctx_z2.lxl_monoid, 1)
        assert set(product_plus(ctx_z2, top).values) == {Fraction(1)}

    def test_product_star_of_cartesian(self, ctx_z2):
        mu = make_fuzzy(ctx_z2.r_monoid, ["1", "1/2"])
        sigma = make_fuzzy(ctx_z2.r_monoid, ["1", "0"])
        lhs = product_star(ctx_z2, cartesian(mu, sigma))
        rhs = cartesian(star(ctx_z2, mu), star(ctx_z2, sigma))
        assert equals(lhs, rhs)

    def test_carrier_checks(self, ctx_z2):
        with pytest.raises(ValueError):
            product_plus(ctx_z2, constant(ctx_z2.rxr_monoid, 1))
        with pytest.raises(ValueError):
            product_plus_prime(ctx_z2, constant(ctx_z2.s_monoid, 1))


@pytest.mark.parametrize("g", corpus.standard_corpus(), ids=lambda g: g.name)
def test_product_maps_equal_comprehension_on_any_subset(g):
    """Each fuzzy map equals the min over its definition's indices on
    arbitrary subsets; each product map, taken over distinct index rows,
    equals the min over every index pair on non-cartesian subsets."""
    ctx = build_context(g)
    rng = random.Random(g.name)
    values = [Fraction(k, 4) for k in range(5)]
    cases = (
        (plus, down_comprehension, "L", ctx.l_monoid),
        (star, down_comprehension, "R", ctx.r_monoid),
        (plus_prime, up_comprehension, "L", ctx.s_monoid),
        (star_prime, up_comprehension, "R", ctx.s_monoid),
        (product_plus, product_down_comprehension, "L", ctx.lxl_monoid),
        (product_star, product_down_comprehension, "R", ctx.rxr_monoid),
        (product_plus_prime, product_up_comprehension, "L", ctx.sxs_monoid),
        (product_star_prime, product_up_comprehension, "R", ctx.sxs_monoid),
    )
    for pmap, reference, tag, carrier in cases:
        for _ in range(6):
            phi = make_fuzzy(carrier, [rng.choice(values) for _ in range(carrier.n)])
            assert pmap(ctx, phi) == reference(tag, ctx, phi), (pmap, phi.values)


class TestContext:
    def test_unities_recorded(self, ctx_z2, ctx_zero_action):
        assert ctx_z2.left_unity is not None and ctx_z2.left_unity.strong
        assert ctx_z2.right_unity is not None
        assert ctx_zero_action.left_unity is None
        assert ctx_zero_action.right_unity is None

    def test_product_carriers_align_with_cartesian(self, ctx_z2):
        mu = constant(ctx_z2.s_monoid, 1)
        assert cartesian(mu, mu).carrier == ctx_z2.sxs_monoid
        lmu = constant(ctx_z2.l_monoid, 1)
        assert cartesian(lmu, lmu).carrier == ctx_z2.lxl_monoid

    def test_embedding_tables_match_embed(self, all_corpus):
        mat = matrix_gamma_hemiring(corpus.zmod_hemiring(3), 2, 1)
        for g in [*all_corpus, mat, corpus.zero_action(3)]:
            ctx = build_context(g)
            for op in (ctx.L, ctx.R):
                assert op.embed == tuple(
                    tuple(embed(ctx.G, op, x, ga) for ga in range(g.Gamma.n))
                    for x in range(g.S.n)
                ), (g.name, op.side)

    def test_context_realizes_each_generator_once_per_side(self, all_corpus, monkeypatch):
        # The two closures' generator loops are the only realizations: the
        # embedding tables and the unities are read off the closures.
        calls = []

        def counted(g, f):
            calls.append((f.side, f.terms))
            return realize(g, f)

        monkeypatch.setattr(gammah.operators, "realize", counted)
        for g in [*all_corpus, corpus.zero_action(3)]:
            calls.clear()
            build_context(g)
            generators = [
                (side, (pair,))
                for side in ("left", "right")
                for x in range(g.S.n)
                for ga in range(g.Gamma.n)
                for pair in [(x, ga) if side == "left" else (ga, x)]
            ]
            assert len(calls) == 2 * g.S.n * g.Gamma.n, g.name
            assert sorted(calls) == sorted(generators), g.name

    def test_pair_structure_matches_product_gamma_hemiring(self, all_corpus):
        for g in [*all_corpus, corpus.zero_action(3), corpus.zmod(6)]:
            ctx = build_context(g)
            assert ctx.sxs_ps == as_product_structure(product(ctx.G, ctx.G)), g.name
            assert ctx.sxs_monoid is ctx.sxs_ps.carrier

    def test_pair_carriers_equal_products_when_read(self, all_corpus):
        for g in all_corpus:
            ctx = build_context(g)
            assert ctx.lxl_monoid == product_monoid(ctx.l_monoid, ctx.l_monoid), g.name
            assert ctx.rxr_monoid == product_monoid(ctx.r_monoid, ctx.r_monoid), g.name

    def test_transfers_leave_pair_carriers_unbuilt(self, monkeypatch):
        # |L| = 256 here: an LxL carrier would hold 256^4 cells.  Neither
        # build_context nor a plain map builds any pair carrier, SxS included.
        built = []

        def guarded(a, b):
            built.append(f"a {a.n}x{b.n} product carrier")
            return product_monoid(a, b)

        def guarded_pairs(carrier, columns):
            built.append(f"a pair structure on {carrier.n} elements")
            return pair_product_structure(carrier, columns)

        for module in (gammah.core, gammah.correspondence):
            monkeypatch.setattr(module, "product_monoid", guarded)
        monkeypatch.setattr(gammah.correspondence, "pair_product_structure", guarded_pairs)
        ctx = build_context(matrix_gamma_hemiring(corpus.zmod_hemiring(4), 2, 1))
        assert ctx.L.n == 256
        sigma = characteristic(ctx.s_monoid, [ctx.s_monoid.zero])
        plus(ctx, plus_prime(ctx, sigma))
        star(ctx, star_prime(ctx, sigma))
        assert built == []
        assert "_memo" not in vars(ctx)

    def test_one_object_per_carrier(self, all_corpus):
        for g in all_corpus:
            ctx = build_context(g)
            own = {
                "S": ctx.s_monoid, "L": ctx.l_monoid, "R": ctx.r_monoid,
                "SxS": ctx.sxs_monoid, "LxL": ctx.lxl_monoid, "RxR": ctx.rxr_monoid,
            }
            for which, carrier in own.items():
                assert ctx.ps(which) is ctx.ps(which), (g.name, which)
                assert ctx.ps(which).carrier is carrier, (g.name, which)
            assert ctx.sxs_ps is ctx.ps("SxS") and ctx.sxs_monoid is own["SxS"], g.name
            for which in ("S", "L", "R"):
                mu = constant(own[which], 1)
                assert cartesian(mu, mu).carrier is own[f"{which}x{which}"], (g.name, which)


PAIR_STRUCTURES = [*corpus.standard_corpus(), corpus.zmod(5), corpus.zero_action(2)]


class TestPairStructures:
    @pytest.mark.parametrize("g", PAIR_STRUCTURES, ids=lambda g: g.name)
    def test_pair_structures_match_references(self, g):
        ctx = build_context(g)
        assert ctx.ps("LxL") == pair_hemiring_ps(ctx.L, ctx.lxl_monoid)
        assert ctx.ps("RxR") == pair_hemiring_ps(ctx.R, ctx.rxr_monoid)
        assert ctx.ps("SxS") == as_product_structure(product(ctx.G, ctx.G))

    def test_unknown_carrier(self, ctx_z2):
        with pytest.raises(ValueError, match="unknown carrier 'X'"):
            ctx_z2.ps("X")
