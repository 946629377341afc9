import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammah.fuzzy
import gammah.ideals
from gammah import corpus
from gammah.core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    as_product_structure,
    from_hemiring,
    matrix_gamma_hemiring,
    product,
)
from gammah.correspondence import build_context
from gammah.fuzzy import (
    additive_closure_mask,
    characteristic,
    constant,
    intersect,
    make_fuzzy,
)
from gammah.ideals import (
    BI,
    QUASI,
    SIDEDNESS,
    CheckResult,
    CrispSubset,
    _closure_mask,
    crisp,
    enumerate_fuzzy_h_ideals,
    enumerate_h_ideals,
    h_closure,
    is_fuzzy_h_bi_ideal,
    is_fuzzy_h_ideal,
    is_fuzzy_h_quasi_ideal,
    is_h_ideal,
    is_prime_fuzzy_h_ideal,
    is_semiprime_fuzzy_h_ideal,
)
from oracles import (
    brute_fuzzy_family,
    brute_h_ideals,
    closure_subsets_h_ideals,
    crisp_h_ideal_loops,
    cut_mask,
    direct_filter,
    element_loop_fuzzy_check,
    pair_scan_prime_like,
    product_cut_quasi_closure,
)
from test_acceptance import corrupted_same_sum_rows

GRID = ("0", "1/2", "1")
GRIDS = (GRID, ("0", "1/3", "2/3", "1"))
KINDS = ("two-sided", "left", "right", BI, QUASI)


def nil_cube() -> GammaHemiring:
    """The ideal (x) of Z2[x]/(x^3) with Gamma = Z2: x.1.x = x2, and every
    triple product vanishes, so {0, x} meets the bi-ideal sandwich rule
    (A.S).A within A but not A.A within A."""
    add = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    S = FiniteMonoid(("0", "x", "x2", "x+x2"), 0, add, "Nil:S")
    gamma = FiniteMonoid(("0", "1"), 0, ((0, 1), (1, 0)), "Nil:Gamma")
    # a.g.b is x2 when g = 1 and both a and b have an x term, else 0.
    action = tuple(
        tuple(tuple(2 if g and a & b & 1 else 0 for b in range(4)) for g in range(2))
        for a in range(4)
    )
    return GammaHemiring("Nil", S, gamma, action)


# S, L and R of the corpus, Z5, Z6, Zero2 and Nil, keyed "structure-carrier".
CARRIERS = {
    f"{ctx.G.name}-{which}": ps
    for ctx in map(
        build_context,
        corpus.standard_corpus()
        + [corpus.zmod(5), corpus.zmod(6), corpus.zero_action(2), nil_cube()],
    )
    for which, ps in (("S", ctx.s_ps), ("L", ctx.l_ps), ("R", ctx.r_ps))
}
MATRIX_RING = "Mat(Z2,2x1)-L"


def matrix_ring_left():
    """L of Mat(Z2,2x1): the 2x2 matrices over Z2, a noncommutative ring."""
    return build_context(matrix_gamma_hemiring(corpus.zmod_hemiring(2), 2, 1)).l_ps


DIRECT_LIMIT = 6 * 10**5
DIRECT_CARRIERS = sorted(k for k, ps in CARRIERS.items() if 3**ps.carrier.n <= DIRECT_LIMIT)
SMALL_CARRIERS = sorted(k for k, ps in CARRIERS.items() if ps.carrier.n <= 5)
LATTICE_CARRIERS = sorted(k for k, ps in CARRIERS.items() if ps.carrier.n <= 6)


def checker_lattice(ps, kind) -> list[tuple[int, ...]]:
    """The closed sets of a kind by the checkers, over every nonempty subset:
    is_h_ideal for a sidedness, the fuzzy checker on chi_A for BI and QUASI."""
    mon = ps.carrier
    want = []
    for bits in range(1, 1 << mon.n):
        members = [i for i in range(mon.n) if bits >> i & 1]
        if any(not bits >> mon.add[a][b] & 1 for a in members for b in members):
            continue  # every kind is closed under addition
        if kind not in (BI, QUASI):
            holds = is_h_ideal(ps, crisp(mon, members), kind).holds
        else:
            holds = fuzzy_check(kind)(ps, characteristic(mon, members)).holds
        if holds:
            want.append(tuple(members))
    return sorted(want, key=lambda t: (len(t), t))


def fuzzy_check(kind):
    """The fuzzy checker of a kind, without the top-at-zero requirement."""
    if kind == BI:
        return is_fuzzy_h_bi_ideal
    if kind == QUASI:
        return is_fuzzy_h_quasi_ideal
    return partial(is_fuzzy_h_ideal, sidedness=kind)


@pytest.fixture(scope="module")
def ps_z2():
    return as_product_structure(corpus.zmod(2))


@pytest.fixture(scope="module")
def ps_z4():
    return as_product_structure(corpus.zmod(4))


@pytest.fixture(scope="module")
def ps_b():
    return as_product_structure(corpus.boolean())


class TestCrispIdeals:
    def test_boolean_zero_is_ideal_but_not_h(self, ps_b):
        zero = crisp(ps_b.carrier, [0])
        res = is_h_ideal(ps_b, zero)
        assert not res.holds
        assert res.condition == "h-condition"
        assert res.witness == {"x": "1", "a": "0", "b": "0", "z": "1"}

    def test_missing_zero_fails_precondition(self, ps_z2):
        res = is_h_ideal(ps_z2, crisp(ps_z2.carrier, [1]))
        assert not res.holds
        assert res.condition == "top-at-zero"

    def test_whole_carrier_is_h_ideal(self, ps_b):
        assert is_h_ideal(ps_b, crisp(ps_b.carrier, [0, 1])).holds

    def test_z4_even_is_h_ideal(self, ps_z4):
        assert is_h_ideal(ps_z4, crisp(ps_z4.carrier, [0, 2])).holds

    def test_non_absorbing_reported(self, ps_z4):
        res = is_h_ideal(ps_z4, crisp(ps_z4.carrier, [0, 1]))
        assert not res.holds
        assert res.condition in ("additive", "left-product", "right-product")

    @pytest.mark.parametrize("relation", ["honest", "skip-z"])
    @pytest.mark.parametrize("carrier", SMALL_CARRIERS)
    def test_matches_crisp_loops(self, monkeypatch, carrier, relation):
        """is_h_ideal, the fuzzy checker on chi_A, gives the crisp loops'
        verdict on every subset and sidedness, under the skip-z same-sum
        relation too; nonempty and h-condition failures keep their witness."""
        if relation == "skip-z":
            monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
            monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
        ps = CARRIERS[carrier]
        for bits in range(1 << ps.carrier.n):
            subset = CrispSubset(ps.carrier, bits)
            for sid in SIDEDNESS:
                got, want = is_h_ideal(ps, subset, sid), crisp_h_ideal_loops(ps, subset, sid)
                assert got.holds == want.holds, (bits, sid)
                if want.condition in ("nonempty", "h-condition"):
                    assert (got.condition, got.witness) == (want.condition, want.witness)


class TestHClosure:
    def test_boolean_zero_closes_to_everything(self, ps_b):
        assert h_closure(ps_b, [0]).indices() == (0, 1)

    def test_z4_two_closes_to_even(self, ps_z4):
        assert h_closure(ps_z4, [2]).indices() == (0, 2)

    def test_empty_set_closes_to_zero(self, ps_z4):
        assert h_closure(ps_z4, []).indices() == (0,)
        assert [h_closure(ps_z4, [], kind).indices() for kind in (BI, QUASI)] == [(), ()]

    def test_whole_carrier_fixed(self, ps_z4):
        assert h_closure(ps_z4, range(4)).indices() == (0, 1, 2, 3)

    @pytest.mark.parametrize("members", [[4], [-1], [7], [0, 5]])
    def test_indices_outside_carrier_rejected(self, ps_z4, members):
        # The ValueError fuzzy.characteristic raises, not an IndexError, a
        # negative shift or a silently empty subset.
        for build in (partial(h_closure, ps_z4), partial(crisp, ps_z4.carrier)):
            with pytest.raises(ValueError, match="outside carrier"):
                build(members)

    def test_unknown_kind_rejected(self):
        ps = build_context(corpus.z2xz2()).s_ps
        one_one = ps.carrier.elements.index("(1,1)")
        assert len(h_closure(ps, [one_one], "two-sided").indices()) == 4
        with pytest.raises(ValueError):
            h_closure(ps, [one_one], "twosided")

    @pytest.mark.parametrize("carrier", sorted(CARRIERS) + [MATRIX_RING])
    def test_quasi_closure_matches_h_product_cuts(self, carrier):
        """The quasi rule hull(A.S) & hull(S.A) equals the meet of the 1-cuts
        of generalized_h_product(chi_A, 1) and (1, chi_A).  Both closures are
        additively closed supersets, so the closure of a mask is the closure
        of its additive closure, and the additively closed masks decide all."""
        ps = matrix_ring_left() if carrier == MATRIX_RING else CARRIERS[carrier]
        mon = ps.carrier
        for mask in {additive_closure_mask(mon, m) for m in range(1 << mon.n)}:
            assert _closure_mask(ps, mask, QUASI) == product_cut_quasi_closure(ps, mask), mask

    def test_closure_is_idempotent_and_minimal(self, ps_z4):
        for bits in range(1, 16):
            members = [i for i in range(4) if bits >> i & 1]
            closed = h_closure(ps_z4, members)
            assert is_h_ideal(ps_z4, closed).holds
            assert h_closure(ps_z4, closed.indices()).mask == closed.mask

    def test_h_ideal_iff_closure_fixes_it(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            n = ps.carrier.n
            if n > 4:
                continue
            for bits in range(1, 1 << n):
                members = [i for i in range(n) if bits >> i & 1]
                if ps.carrier.zero not in members:
                    continue
                subset = crisp(ps.carrier, members)
                fixed = h_closure(ps, subset).mask == subset.mask
                assert is_h_ideal(ps, subset).holds == fixed


class TestEnumerateHIdeals:
    def test_z4_has_three(self, ps_z4):
        assert [i.indices() for i in enumerate_h_ideals(ps_z4)] == [
            (0,),
            (0, 2),
            (0, 1, 2, 3),
        ]

    def test_boolean_only_whole(self, ps_b):
        assert [i.indices() for i in enumerate_h_ideals(ps_b)] == [(0, 1)]

    def test_z2_two(self, ps_z2):
        assert [i.indices() for i in enumerate_h_ideals(ps_z2)] == [(0,), (0, 1)]

    def test_matches_definition_oracle_everywhere(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            if ps.carrier.n > 4:
                continue
            for sid in ("two-sided", "left", "right"):
                got = [i.indices() for i in enumerate_h_ideals(ps, sid)]
                assert got == brute_h_ideals(ps, sid), (g.name, sid)

    def test_matches_subset_closure_oracle(self, ps_z4, ps_b, ps_z2):
        for ps in (ps_z4, ps_b, ps_z2):
            got = [i.indices() for i in enumerate_h_ideals(ps)]
            assert got == closure_subsets_h_ideals(ps)

    def test_closed_under_intersection(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            ideals = enumerate_h_ideals(ps)
            masks = {i.mask for i in ideals}
            for a, b in itertools.combinations_with_replacement(ideals, 2):
                assert a.mask & b.mask in masks

    @pytest.mark.parametrize("kind", KINDS)
    def test_bi_quasi_lattices_match_checker_on_matrix_ring(self, kind):
        # L of Mat(Z2,2x1) acts as the 2x2 matrices over Z2, where quasi-ideals
        # such as {0, E11} are neither left nor right ideals.
        ps = matrix_ring_left()
        got = [c.indices() for c in enumerate_h_ideals(ps, kind)]
        assert got == checker_lattice(ps, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("carrier", LATTICE_CARRIERS)
    def test_lattices_match_checker(self, carrier, kind):
        # The lattice is the closure's fixpoints and is not re-checked, so
        # the checkers' verdicts are compared here, on every subset.
        ps = CARRIERS[carrier]
        got = [c.indices() for c in enumerate_h_ideals(ps, kind)]
        assert got == checker_lattice(ps, kind)

    def test_no_checker_call(self, monkeypatch):
        calls = []
        for name in ("is_h_ideal", "is_fuzzy_h_bi_ideal", "is_fuzzy_h_quasi_ideal"):

            def counted(*args, name=name, **kwargs):
                calls.append(name)
                return CheckResult(True)

            monkeypatch.setattr(gammah.ideals, name, counted)
        ps = build_context(corpus.boolean_matrix_2x1()).l_ps
        for kind in KINDS:
            assert enumerate_h_ideals(ps, kind), kind
        assert calls == []

    @pytest.mark.parametrize("sidedness", ["left", "right"])
    def test_one_sided_lattices_on_matrix_ring(self, sidedness):
        # L of Mat(Z2,2x1) acts as the 2x2 matrices over Z2, a simple ring
        # whose column (row) spaces are left (right) ideals only.
        ps = build_context(matrix_gamma_hemiring(corpus.zmod_hemiring(2), 2, 1)).l_ps
        got = [c.indices() for c in enumerate_h_ideals(ps, sidedness)]
        assert len(got) == 5
        assert got == brute_h_ideals(ps, sidedness)

    def test_carrier_cap(self, ps_z4, monkeypatch):
        monkeypatch.setenv("GAMMAH_IDEAL_CARRIER_CAP", "2")
        with pytest.raises(CapacityError):
            enumerate_h_ideals(ps_z4)

    def test_lattice_cap(self, monkeypatch):
        # The Klein group with the zero action: the principal closures are
        # {0} and the three lines {0, x}; only a join reaches the whole group.
        ps = as_product_structure(product(corpus.zero_action(2), corpus.zero_action(2)))
        assert len({_closure_mask(ps, 1 << i, "two-sided") for i in range(4)}) == 4
        assert len(enumerate_h_ideals(ps)) == 5
        monkeypatch.setattr(gammah.ideals, "DEFAULT_LATTICE_CAP", 4)
        with pytest.raises(CapacityError):
            enumerate_h_ideals(ps)


class TestFuzzyHIdealChecker:
    def test_z2_half_is_h_ideal(self, ps_z2):
        mu = make_fuzzy(ps_z2.carrier, ["1", "1/2"])
        assert is_fuzzy_h_ideal(ps_z2, mu).holds

    def test_boolean_chi_zero_fails_with_witness(self, ps_b):
        res = is_fuzzy_h_ideal(ps_b, characteristic(ps_b.carrier, [0]))
        assert not res.holds
        assert res.condition == "h-condition"
        assert res.witness == {"x": "1", "a": "0", "b": "0", "z": "1"}

    def test_constant_one_always_holds(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            assert is_fuzzy_h_ideal(ps, constant(ps.carrier, 1)).holds

    def test_empty_subset_rejected(self, ps_z2):
        res = is_fuzzy_h_ideal(ps_z2, constant(ps_z2.carrier, 0))
        assert not res.holds and res.condition == "nonempty"

    def test_require_top(self, ps_z2):
        mu = make_fuzzy(ps_z2.carrier, ["1/2", "0"])
        assert is_fuzzy_h_ideal(ps_z2, mu).holds
        assert not is_fuzzy_h_ideal(ps_z2, mu, require_top=True).holds

    def test_unknown_sidedness_rejected(self, z2xz2):
        # A misspelt sidedness must not skip the product conditions.
        ps = as_product_structure(z2xz2)
        mon = ps.carrier
        chi = characteristic(mon, [mon.index_of("(0,0)"), mon.index_of("(1,1)")])
        res = is_fuzzy_h_ideal(ps, chi, "two-sided")
        assert res.condition == "left-product"
        assert res.witness == {"x": "(0,1)", "y": "(1,1)", "xy": "(0,1)"}
        with pytest.raises(ValueError, match="sidedness"):
            is_fuzzy_h_ideal(ps, chi, "twosided")

    def test_indicator_bridge(self, all_corpus):
        # crisp h-ideal iff its characteristic function is a fuzzy h-ideal
        for g in all_corpus:
            ps = as_product_structure(g)
            n = ps.carrier.n
            if n > 4:
                continue
            for bits in range(1, 1 << n):
                members = [i for i in range(n) if bits >> i & 1]
                if ps.carrier.zero not in members:
                    continue
                chi = characteristic(ps.carrier, members)
                assert (
                    is_h_ideal(ps, crisp(ps.carrier, members)).holds
                    == is_fuzzy_h_ideal(ps, chi).holds
                )

    def test_agrees_with_definition_oracle_on_grid(self, ps_z4):
        from oracles import naive_is_fuzzy_h_ideal

        vals = [Fraction(v) for v in GRID]
        for combo in itertools.product(vals, repeat=4):
            mu = make_fuzzy(ps_z4.carrier, combo)
            for sid in ("two-sided", "left", "right"):
                assert is_fuzzy_h_ideal(ps_z4, mu, sid).holds == naive_is_fuzzy_h_ideal(
                    ps_z4, tuple(combo), sid, False
                ), (combo, sid)


class TestBiAndQuasi:
    def test_constant_one_is_bi_and_quasi(self, ps_z4):
        top = constant(ps_z4.carrier, 1)
        assert is_fuzzy_h_bi_ideal(ps_z4, top).holds
        assert is_fuzzy_h_quasi_ideal(ps_z4, top).holds

    def test_z2_half(self, ps_z2):
        mu = make_fuzzy(ps_z2.carrier, ["1", "1/2"])
        assert is_fuzzy_h_bi_ideal(ps_z2, mu).holds
        assert is_fuzzy_h_quasi_ideal(ps_z2, mu).holds

    def test_boolean_chi_zero_fails_both(self, ps_b):
        chi0 = characteristic(ps_b.carrier, [0])
        res_bi = is_fuzzy_h_bi_ideal(ps_b, chi0)
        res_quasi = is_fuzzy_h_quasi_ideal(ps_b, chi0)
        assert not res_bi.holds and res_bi.condition == "h-condition"
        assert not res_quasi.holds

    def test_every_h_ideal_is_bi_and_quasi(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            fam = enumerate_fuzzy_h_ideals(ps, GRID)
            for mu in fam.members:
                assert is_fuzzy_h_bi_ideal(ps, mu).holds, g.name
                assert is_fuzzy_h_quasi_ideal(ps, mu).holds, g.name

    def test_bi_ideal_without_top(self, ps_z2):
        mu = make_fuzzy(ps_z2.carrier, ["1/2", "0"])
        assert is_fuzzy_h_bi_ideal(ps_z2, mu).holds


class TestFamilies:
    def test_z2_family(self, ps_z2):
        fam = enumerate_fuzzy_h_ideals(ps_z2, GRID)
        assert [[str(v) for v in m.values] for m in fam.members] == [
            ["1", "0"],
            ["1", "1/2"],
            ["1", "1"],
        ]

    def test_boolean_family_is_constant_one(self, ps_b):
        fam = enumerate_fuzzy_h_ideals(ps_b, ("0", "1"))
        assert [[str(v) for v in m.values] for m in fam.members] == [["1", "1"]]

    def test_one_element_carrier(self):
        triv = from_hemiring([[0]], [[0]], ["0"])
        fam = enumerate_fuzzy_h_ideals(as_product_structure(triv), ("0", "1"))
        assert [[str(v) for v in m.values] for m in fam.members] == [["1"]]

    def test_matches_brute_family_oracle(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            if ps.carrier.n > 4:
                continue
            for sid in ("two-sided", "left", "right"):
                fam = enumerate_fuzzy_h_ideals(ps, GRID, sid)
                assert [m.values for m in fam.members] == brute_fuzzy_family(
                    ps, GRID, sid
                ), (g.name, sid)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("carrier", DIRECT_CARRIERS)
    def test_cut_family_equals_direct_filter(self, carrier, kind):
        ps = CARRIERS[carrier]
        sided = kind not in (BI, QUASI)
        compared = 0
        for grid in GRIDS:
            if len(grid) ** ps.carrier.n > DIRECT_LIMIT:
                continue
            got = enumerate_fuzzy_h_ideals(ps, grid, kind).members
            want = direct_filter(ps, grid, fuzzy_check(kind), require_top=sided)
            assert [m.values for m in got] == want, grid
            compared += 1
        assert compared

    def test_h_family_capped(self, ps_z4, monkeypatch):
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "1")
        with pytest.raises(CapacityError):
            enumerate_fuzzy_h_ideals(ps_z4, GRID)

    def test_cap_counts_chains(self, ps_z2, monkeypatch):
        # Z2 has three members at GRID: a cap of 3 admits them, 2 does not.
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "3")
        assert len(enumerate_fuzzy_h_ideals(ps_z2, GRID).members) == 3
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "2")
        with pytest.raises(CapacityError, match="more than 2"):
            enumerate_fuzzy_h_ideals(ps_z2, GRID)

    def test_long_grid(self, ps_z2):
        # 1500 positive levels, past the interpreter's recursion limit; one
        # member per value of mu(1).
        grid = [Fraction(i, 1500) for i in range(1501)]
        fam = enumerate_fuzzy_h_ideals(ps_z2, grid)
        assert len(fam.members) == 1501
        assert [m.values for m in fam.members] == [(Fraction(1), t) for t in grid]

    def test_grid_must_contain_bounds(self, ps_z2):
        with pytest.raises(ValueError):
            enumerate_fuzzy_h_ideals(ps_z2, ("0", "1/2"))
        with pytest.raises(ValueError):
            enumerate_fuzzy_h_ideals(ps_z2, ("1", "0"))

    def test_bi_quasi_enumerations_capped(self, ps_z2, monkeypatch):
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "1")
        with pytest.raises(CapacityError):
            enumerate_fuzzy_h_ideals(ps_z2, GRID, BI)
        with pytest.raises(CapacityError):
            enumerate_fuzzy_h_ideals(ps_z2, GRID, QUASI)

    def test_bi_enumeration_contains_family(self, ps_z4):
        fam = {m.values for m in enumerate_fuzzy_h_ideals(ps_z4, GRID).members}
        bi = {m.values for m in enumerate_fuzzy_h_ideals(ps_z4, GRID, BI).members}
        assert fam <= bi


class TestPrime:
    def test_chi_zero_is_prime_relative_to_family_on_z2(self, ps_z2):
        fam = enumerate_fuzzy_h_ideals(ps_z2, GRID)
        chi0 = characteristic(ps_z2.carrier, [0])
        res = is_prime_fuzzy_h_ideal(ps_z2, chi0, fam)
        assert res.holds
        assert res.qualifier == "relative-to-family"

    def test_constant_rejected(self, ps_z2):
        fam = enumerate_fuzzy_h_ideals(ps_z2, GRID)
        res = is_prime_fuzzy_h_ideal(ps_z2, constant(ps_z2.carrier, 1), fam)
        assert not res.holds
        assert res.condition == "non-constant"

    def test_half_is_semiprime_on_z2(self, ps_z2):
        fam = enumerate_fuzzy_h_ideals(ps_z2, GRID)
        mu = make_fuzzy(ps_z2.carrier, ["1", "1/2"])
        res = is_semiprime_fuzzy_h_ideal(ps_z2, mu, fam)
        assert res.holds and res.qualifier == "relative-to-family"

    def test_chi_zero_not_prime_on_z4(self, ps_z4):
        # 2 . 2 lands back on 0, so the zero ideal is not prime
        fam = enumerate_fuzzy_h_ideals(ps_z4, GRID)
        chi0 = characteristic(ps_z4.carrier, [0])
        res = is_prime_fuzzy_h_ideal(ps_z4, chi0, fam)
        assert not res.holds
        assert res.condition == "prime-implication"

    def test_even_ideal_prime_on_z4(self, ps_z4):
        fam = enumerate_fuzzy_h_ideals(ps_z4, GRID)
        chi_even = characteristic(ps_z4.carrier, [0, 2])
        assert is_prime_fuzzy_h_ideal(ps_z4, chi_even, fam).holds

    def test_prime_implies_semiprime(self, ps_z4):
        fam = enumerate_fuzzy_h_ideals(ps_z4, GRID)
        for zeta in fam.members:
            if is_prime_fuzzy_h_ideal(ps_z4, zeta, fam).holds:
                assert is_semiprime_fuzzy_h_ideal(ps_z4, zeta, fam).holds

    def test_non_ideal_rejected(self, ps_b):
        fam = enumerate_fuzzy_h_ideals(ps_b, GRID)
        res = is_prime_fuzzy_h_ideal(ps_b, characteristic(ps_b.carrier, [0]), fam)
        assert not res.holds
        assert res.condition.startswith("h-ideal:")

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_scan_outside_zeta_matches_pair_scan(self, grid):
        # Every member of the corpus's S, L and R families as zeta, against
        # the loop that forms every pair's product before testing the pair.
        for g in corpus.standard_corpus():
            ctx = build_context(g)
            for which in ("S", "L", "R"):
                ps = ctx.ps(which)
                fam = enumerate_fuzzy_h_ideals(ps, grid)
                for zeta in fam.members:
                    for semiprime, check in (
                        (False, is_prime_fuzzy_h_ideal), (True, is_semiprime_fuzzy_h_ideal)
                    ):
                        want = pair_scan_prime_like(ps, zeta, fam, semiprime)
                        got = check(ps, zeta, fam)
                        assert (got.holds, got.condition, got.witness) == (
                            want.holds, want.condition, want.witness
                        ), (g.name, which, zeta.values, semiprime)


class TestLatticeMeet:
    def test_family_closed_under_intersection(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            fam = enumerate_fuzzy_h_ideals(ps, GRID)
            index = {m.values for m in fam.members}
            for a, b in itertools.combinations_with_replacement(fam.members, 2):
                assert intersect(a, b).values in index


@st.composite
def graded_subsets(draw):
    """A carrier, grid and kind with a grid-valued subset: uniform, or built
    from a chain of closed cuts and then perhaps nudged at one element."""
    carrier = draw(st.sampled_from(SMALL_CARRIERS))
    grid = [Fraction(v) for v in draw(st.sampled_from(GRIDS))]
    kind = draw(st.sampled_from(KINDS))
    ps = CARRIERS[carrier]
    n = ps.carrier.n
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n))
    else:
        values = [grid[0]] * n
        seeds = 0
        for t in reversed(grid[1:]):
            seeds |= draw(st.integers(0, (1 << n) - 1))
            cut = _closure_mask(ps, seeds, kind)
            for x in range(n):
                if cut >> x & 1 and values[x] == 0:
                    values[x] = t
        if draw(st.booleans()):
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(grid))
    return carrier, kind, make_fuzzy(ps.carrier, values)


class TestLevelCuts:
    """The level-subset theorem behind the cut-family enumerators."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=graded_subsets())
    def test_member_iff_every_cut_closed(self, case):
        carrier, kind, mu = case
        ps = CARRIERS[carrier]
        cuts = {cut_mask(mu, t) for t in mu.values if t > 0}
        closed = bool(cuts) and all(_closure_mask(ps, c, kind) == c for c in cuts)
        assert fuzzy_check(kind)(ps, mu).holds == closed


WITNESS_CARRIERS = sorted(k for k, ps in CARRIERS.items() if ps.carrier.n <= 16)
# The eight checker variants: each sidedness with and without top at zero,
# then bi and quasi.
VARIANTS = [(side, top) for side in KINDS[:3] for top in (False, True)] + [(BI, False), (QUASI, False)]


@st.composite
def checker_inputs(draw):
    """A carrier and a fuzzy subset on it: random values k/12, or a chain of
    h_closures of a kind with descending values k/12 (often from 1 down);
    then perhaps moved off the twelfths by v -> v/2 or v -> (1+v)/2, at
    every point or at one."""
    carrier = draw(st.sampled_from(WITNESS_CARRIERS))
    ps = CARRIERS[carrier]
    n = ps.carrier.n
    twelfths = st.integers(0, 12).map(lambda k: Fraction(k, 12))
    if draw(st.booleans()):
        values = draw(st.lists(twelfths, min_size=n, max_size=n))
    else:
        kind = draw(st.sampled_from(KINDS))
        levels = set(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
        if draw(st.booleans()):
            levels.add(12)  # top at zero for a sidedness
        values = [Fraction(0)] * n
        members: set[int] = set()
        for k in sorted(levels, reverse=True):
            members.add(draw(st.integers(0, n - 1)))
            members = set(h_closure(ps, members, kind).indices())
            for x in members:
                if values[x] == 0:
                    values[x] = Fraction(k, 12)
    move = draw(st.sampled_from([None, lambda v: v / 2, lambda v: (1 + v) / 2]))
    if move is not None:
        if draw(st.booleans()):
            values = [move(v) for v in values]
        else:
            x = draw(st.integers(0, n - 1))
            values[x] = move(values[x])
    return carrier, make_fuzzy(ps.carrier, values)


class TestCheckerWitnesses:
    """One checker body decides all five kinds on ranks of mu's values."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=checker_inputs())
    def test_first_failure_matches_element_loops(self, case):
        carrier, mu = case
        ps = CARRIERS[carrier]
        for kind, top in VARIANTS:
            if kind in (BI, QUASI):
                got = fuzzy_check(kind)(ps, mu)
            else:
                got = is_fuzzy_h_ideal(ps, mu, kind, require_top=top)
            want = element_loop_fuzzy_check(ps, mu, kind, top)
            assert (got.holds, got.condition, got.witness) == (
                want.holds, want.condition, want.witness
            ), (carrier, kind, top)
