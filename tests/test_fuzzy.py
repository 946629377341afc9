import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gammah import corpus, correspondence, fuzzy
from gammah.core import as_product_structure, product_monoid
from gammah.correspondence import build_context
from gammah.fuzzy import (
    FuzzySubset,
    additive_closure_mask,
    cartesian,
    characteristic,
    constant,
    fuzzy_sum,
    generalized_h_product,
    intersect,
    is_subset,
    make_fuzzy,
    simple_h_product,
    unit_rational,
)
from gammah.ideals import BI, QUASI, SIDEDNESS, _fuzzy_check, h_closure, is_fuzzy_h_ideal
from oracles import (
    cut_mask,
    element_loop_fuzzy_check,
    equals,
    fraction_cartesian,
    fraction_fuzzy_sum,
    fraction_level_product,
    fraction_mins,
    grid_subsets,
    naive_generalized_h_product,
    naive_simple_h_product,
    product_down_comprehension,
    product_up_comprehension,
    rescan_additive_closure,
)

GRID = (Fraction(0), Fraction(1, 2), Fraction(1))


def grid_subset_strategy(carrier):
    return st.tuples(*[st.sampled_from(GRID) for _ in range(carrier.n)]).map(
        lambda values: FuzzySubset(carrier, values)
    )


class TestRationals:
    def test_parses_strings(self):
        assert unit_rational("1/2") == Fraction(1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unit_rational("3/2")
        with pytest.raises(ValueError):
            unit_rational(-1)

    def test_canonical_form(self):
        assert unit_rational("2/4") == Fraction(1, 2)


class TestBasicOps:
    def test_characteristic_full_and_empty(self, z2):
        assert characteristic(z2.S, [0, 1]).values == (1, 1)
        assert characteristic(z2.S, []).values == (0, 0)
        assert characteristic(z2.S, [0]).values == (1, 0)

    def test_characteristic_rejects_foreign_members(self, z2):
        with pytest.raises(ValueError):
            characteristic(z2.S, [5])

    def test_intersect_with_top(self, z2):
        mu = make_fuzzy(z2.S, ["1", "1/2"])
        assert equals(intersect(mu, constant(z2.S, 1)), mu)

    def test_pointwise_min(self, z2):
        a = make_fuzzy(z2.S, ["1", "1/2"])
        b = make_fuzzy(z2.S, ["1", "3/4"])
        assert intersect(a, b).values == (Fraction(1), Fraction(1, 2))

    def test_is_subset(self, z2):
        assert is_subset(make_fuzzy(z2.S, ["1", "0"]), make_fuzzy(z2.S, ["1", "1/2"]))
        assert not is_subset(make_fuzzy(z2.S, ["1", "1/2"]), make_fuzzy(z2.S, ["1", "0"]))

    def test_carrier_mismatch_raises(self, z2, z3):
        with pytest.raises(ValueError):
            intersect(constant(z2.S, 1), constant(z3.S, 1))

    def test_level_sets(self, z2):
        mu = make_fuzzy(z2.S, ["1", "1/2"])
        assert cut_mask(mu, Fraction(1)) == 0b01
        assert cut_mask(mu, Fraction(1, 2)) == 0b11
        assert cut_mask(mu, Fraction(0)) == 0b11


class TestFuzzySum:
    def test_chi_zero_is_neutral_for_top_at_zero(self, z4):
        mu = make_fuzzy(z4.S, ["1", "1/3", "2/3", "0"])
        chi0 = characteristic(z4.S, [0])
        assert equals(fuzzy_sum(mu, chi0), mu)

    def test_chi_zero_idempotent_on_z2(self, z2):
        chi0 = characteristic(z2.S, [0])
        assert equals(fuzzy_sum(chi0, chi0), chi0)

    def test_boolean_sum_reaches_one(self, boolean):
        chi0 = characteristic(boolean.S, [0])
        top = constant(boolean.S, 1)
        assert fuzzy_sum(chi0, top).values[1] == 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutative_and_associative(self, z4, data):
        strat = grid_subset_strategy(z4.S)
        a, b, c = data.draw(strat), data.draw(strat), data.draw(strat)
        assert equals(fuzzy_sum(a, b), fuzzy_sum(b, a))
        assert equals(fuzzy_sum(fuzzy_sum(a, b), c), fuzzy_sum(a, fuzzy_sum(b, c)))


class TestCartesian:
    def test_characteristic_product(self, z2):
        a = characteristic(z2.S, [0])
        b = characteristic(z2.S, [0, 1])
        prod = cartesian(a, b)
        assert prod.carrier.elements == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
        assert prod.values == (1, 1, 0, 0)

    def test_min_values(self, z2):
        mu = make_fuzzy(z2.S, ["1", "1/2"])
        sigma = make_fuzzy(z2.S, ["1", "3/4"])
        prod = cartesian(mu, sigma)
        assert prod.values[prod.carrier.index_of("(1,1)")] == Fraction(1, 2)

    def test_zero_factor(self, z2):
        assert set(cartesian(constant(z2.S, 1), constant(z2.S, 0)).values) == {Fraction(0)}

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry(self, z2, data):
        strat = grid_subset_strategy(z2.S)
        mu, sigma = data.draw(strat), data.draw(strat)
        ab = cartesian(mu, sigma)
        ba = cartesian(sigma, mu)
        pm = product_monoid(z2.S, z2.S)
        for x in range(2):
            for y in range(2):
                assert ab.values[pm.index_of(f"({x},{y})")] == ba.values[
                    pm.index_of(f"({y},{x})")
                ]


class TestHProducts:
    def test_top_product_is_top_on_z2(self, z2):
        ps = as_product_structure(z2)
        top = constant(ps.carrier, 1)
        assert equals(generalized_h_product(ps, top, top), top)

    def test_zero_argument_gives_zero(self, z2):
        ps = as_product_structure(z2)
        zero = constant(ps.carrier, 0)
        top = constant(ps.carrier, 1)
        assert set(generalized_h_product(ps, top, zero).values) == {Fraction(0)}
        assert set(simple_h_product(ps, top, zero).values) == {Fraction(0)}

    def test_boolean_chi_zero_product_is_top(self, boolean):
        ps = as_product_structure(boolean)
        chi0 = characteristic(ps.carrier, [0])
        assert generalized_h_product(ps, chi0, chi0).values == (1, 1)
        assert simple_h_product(ps, chi0, chi0).values == (1, 1)

    def test_z2_simple_product_takes_min(self, z2):
        ps = as_product_structure(z2)
        ms = make_fuzzy(ps.carrier, ["1", "1/3"])
        mt = make_fuzzy(ps.carrier, ["1", "3/4"])
        assert simple_h_product(ps, ms, mt).values == (Fraction(1), Fraction(1, 3))

    def test_carrier_mismatch(self, z2, z3):
        ps = as_product_structure(z2)
        with pytest.raises(ValueError):
            generalized_h_product(ps, constant(z3.S, 1), constant(z3.S, 1))

    def test_matches_naive_oracle_on_z2(self, z2):
        ps = as_product_structure(z2)
        subsets = list(grid_subsets(ps.carrier, GRID))
        for mu, theta in itertools.product(subsets, repeat=2):
            assert equals(
                generalized_h_product(ps, mu, theta),
                naive_generalized_h_product(ps, mu, theta),
            )
            assert equals(
                simple_h_product(ps, mu, theta), naive_simple_h_product(ps, mu, theta)
            )

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_oracle_on_boolean(self, boolean, data):
        ps = as_product_structure(boolean)
        strat = grid_subset_strategy(ps.carrier)
        mu, theta = data.draw(strat), data.draw(strat)
        assert equals(
            generalized_h_product(ps, mu, theta),
            naive_generalized_h_product(ps, mu, theta),
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_simple_below_generalized_and_monotone(self, z4, data):
        ps = as_product_structure(z4)
        strat = grid_subset_strategy(ps.carrier)
        mu, theta, bigger = data.draw(strat), data.draw(strat), data.draw(strat)
        assert is_subset(
            simple_h_product(ps, mu, theta), generalized_h_product(ps, mu, theta)
        )
        mu2 = FuzzySubset(ps.carrier, tuple(map(max, mu.values, bigger.values)))
        assert is_subset(
            generalized_h_product(ps, mu, theta), generalized_h_product(ps, mu2, theta)
        )
        assert is_subset(
            simple_h_product(ps, theta, mu), simple_h_product(ps, theta, mu2)
        )


@pytest.mark.parametrize("g", corpus.standard_corpus(), ids=lambda g: g.name)
def test_additive_closure_equals_rescan(g):
    # Every mask of a carrier with at most 8 elements, and 300 seeded random
    # masks of a larger one (of 1 to n elements, uniformly), on S, L, R and SxS.
    ctx = build_context(g)
    rng = random.Random(0)
    for which in ("S", "L", "R", "SxS"):
        mon = ctx.ps(which).carrier
        masks = range(1 << mon.n) if mon.n <= 8 else [
            sum(1 << i for i in rng.sample(range(mon.n), rng.randint(1, mon.n)))
            for _ in range(300)
        ]
        for mask in masks:
            assert additive_closure_mask(mon, mask) == rescan_additive_closure(mon, mask), (
                which, mask
            )


# S, L, R and SxS of the corpus, and of Z1, whose carriers have one element.
RANK_CONTEXTS = [build_context(g) for g in corpus.standard_corpus() + [corpus.zmod(1)]]
RANK_CARRIERS = [(ctx, which) for ctx in RANK_CONTEXTS for which in ("S", "L", "R", "SxS")]
# The grid 0, 1/3, 1/2, 2/3, 1 with the off-grid v/2 and (1+v)/2 of each.
OFF_GRID = sorted(
    {w for v in map(Fraction, ("0", "1/3", "1/2", "2/3", "1")) for w in (v, v / 2, (1 + v) / 2)}
)


@st.composite
def rank_subsets(draw, carrier):
    """Values from OFF_GRID, some held by fresh objects equal to a pool value;
    a third of the draws have no 0 value and a sixth are all 0."""
    mode = draw(st.sampled_from(("any", "any", "any", "positive", "positive", "zero")))
    pool = {"any": OFF_GRID, "positive": OFF_GRID[1:], "zero": OFF_GRID[:1]}[mode]
    values = []
    for _ in range(carrier.n):
        v = draw(st.sampled_from(pool))
        values.append(Fraction(v.numerator, v.denominator) if draw(st.booleans()) else v)
    return FuzzySubset(carrier, tuple(values))


def assert_same_output(out, want, *inputs):
    """Equal values that print alike, each an input object or ZERO."""
    assert out.carrier == want.carrier
    assert out.values == want.values
    assert list(map(str, out.values)) == list(map(str, want.values))
    held = {id(v) for m in inputs for v in m.values} | {id(fuzzy.ZERO)}
    assert all(id(v) in held for v in out.values)


class TestRankKernels:
    """Each kernel on ranks against the Fraction loop it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sum_cartesian_and_h_products(self, data):
        ctx, which = data.draw(st.sampled_from(RANK_CARRIERS))
        ps = ctx.ps(which)
        mu, theta = data.draw(rank_subsets(ps.carrier)), data.draw(rank_subsets(ps.carrier))
        assert_same_output(fuzzy_sum(mu, theta), fraction_fuzzy_sum(mu, theta), mu, theta)
        if which != "SxS":  # SxS x SxS has |S|^8 addition cells
            assert_same_output(cartesian(mu, theta), fraction_cartesian(mu, theta), mu, theta)
        for product, close in ((generalized_h_product, True), (simple_h_product, False)):
            want = fraction_level_product(ps, mu, theta, close)
            assert_same_output(product(ps, mu, theta), want, mu, theta)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_checker(self, data):
        ctx, which = data.draw(st.sampled_from(RANK_CARRIERS))
        ps = ctx.ps(which)
        mu = data.draw(rank_subsets(ps.carrier))
        variants = [*itertools.product(SIDEDNESS, (False, True)), (BI, False), (QUASI, False)]
        for kind, top in variants:
            want = element_loop_fuzzy_check(ps, mu, kind, top)
            assert _fuzzy_check(ps, mu, kind, top) == want, (kind, top)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_transfer_maps(self, data):
        ctx = data.draw(st.sampled_from(RANK_CONTEXTS))
        tag = data.draw(st.sampled_from(("L", "R")))
        direction = data.draw(st.sampled_from((correspondence.UP, correspondence.DOWN)))
        src, dst, rows = correspondence._transfer(ctx, tag, direction)
        mu = data.draw(rank_subsets(ctx.ps(src).carrier))
        want = FuzzySubset(ctx.ps(dst).carrier, fraction_mins(mu.values, rows))
        assert_same_output(correspondence._fuzzy_map(tag, direction, ctx, mu), want, mu)
        base = ctx.ps(src).carrier
        phi = data.draw(rank_subsets(product_monoid(base, base)))
        up = direction == correspondence.UP
        want = (product_up_comprehension if up else product_down_comprehension)(tag, ctx, phi)
        assert_same_output(correspondence._product_map(tag, direction, ctx, phi), want, phi)


class Counted(Fraction):
    """A Fraction that counts its comparisons and hashes in Counted.calls."""

    calls: Counter = Counter()

    def _count(name):
        def method(self, other=None):
            Counted.calls[name] += 1
            base = getattr(Fraction, name)
            return base(self) if other is None else base(self, other)

        return method

    __lt__, __le__, __gt__, __ge__, __eq__, __hash__ = map(
        _count, ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__")
    )


def test_kernels_compare_few_values():
    """On Z16's S with 3 distinct levels, each kernel compares a handful of
    values and hashes none; the Fraction loops made 512 calls (fuzzy_sum),
    105 (generalized_h_product) and 40, 35 of them hashes (is_fuzzy_h_ideal)."""
    ps = build_context(corpus.zmod(16)).s_ps
    one, half, zero = Counted(1), Counted(1, 2), Counted(0)
    top, mid = h_closure(ps, [0]).mask, h_closure(ps, [4]).mask
    mu = FuzzySubset(ps.carrier, tuple(
        one if top >> x & 1 else half if mid >> x & 1 else zero for x in range(ps.carrier.n)
    ))
    assert 0 < mid.bit_count() < ps.carrier.n and is_fuzzy_h_ideal(ps, mu).holds
    for kernel in (lambda: fuzzy_sum(mu, mu), lambda: generalized_h_product(ps, mu, mu),
                   lambda: is_fuzzy_h_ideal(ps, mu)):
        Counted.calls.clear()
        kernel()
        assert sum(Counted.calls.values()) <= 64, Counted.calls
        assert Counted.calls["__hash__"] == 0
