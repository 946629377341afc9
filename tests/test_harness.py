import collections
import dataclasses
import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammah.correspondence
import gammah.fuzzy
import gammah.harness
import gammah.ideals
import gammah.operators
from gammah import corpus
from gammah.core import matrix_gamma_hemiring
from gammah.correspondence import build_context
from gammah.fuzzy import FuzzySubset, cartesian, intersect, same_sum_rows, simple_h_product
from gammah.harness import (
    CATALOG,
    H_IDEAL,
    RL,
    _cartesian_inclusions,
    _characteristic,
    _coproduct_scan,
    _Families,
    _pair_image_scan,
    run_check,
    run_suite,
)
from gammah.ideals import (
    SIDEDNESS,
    TWO_SIDED,
    CrispSubset,
    h_closure,
    is_fuzzy_h_bi_ideal,
    is_fuzzy_h_ideal,
    is_fuzzy_h_quasi_ideal,
)
from oracles import (
    cartesian_inclusion_loop,
    complete_lattices_scan,
    gamma_subset_scan,
    intersection_commutes_scan,
    oplus_law_scan,
    realized_mul_law,
    short_sums_mul_law,
)
from test_acceptance import corrupted_same_sum_rows
from test_ideals import nil_cube

GRID = ("0", "1/2", "1")

EXPECTED_IDS = [
    "S2-axioms",
    "S2-embed-additive",
    "S2-mul-law",
    "S2-oplus",
    "S2-gamma-subset",
    "L3.3",
    "P3.4",
    "P3.5",
    "P3.6",
    "P3.7",
    "T3.8-roundtrip",
    "T3.8-monotone",
    "T3.8-lattice",
    "T3.9",
    "C3.10",
    "L3.11",
    "L3.12",
    "L3.13",
    "L3.14",
    "T3.15",
    "T3.16",
    "P-comp",
    "R-gamma",
    "P-prime-fwd",
    "P-prime-bwd",
    "P-bi-fwd",
    "P-bi-bwd",
    "P-quasi-fwd",
    "P-quasi-bwd",
    "S4-coprod",
    "S4-commute-star",
    "S4-commute-starprime",
    "S4-hideal",
    "S4-prime",
    "T-cores2",
]


class TestCatalog:
    def test_catalog_is_complete_and_ordered(self):
        assert [e.check_id for e in CATALOG] == EXPECTED_IDS

    def test_ids_unique(self):
        ids = [e.check_id for e in CATALOG]
        assert len(set(ids)) == len(ids)

    def test_suite_partition(self):
        for entry in CATALOG:
            assert entry.suite in ("section2", "section3", "section4")

    def test_unknown_id_rejected(self, ctx_z2):
        with pytest.raises(ValueError):
            run_check("T9.9", ctx_z2, GRID)


class TestRunCheck:
    def test_roundtrip_passes_on_z2(self, ctx_z2):
        res = run_check("T3.8-roundtrip", ctx_z2, GRID)
        assert res.status == "pass"
        assert res.witness is None

    def test_roundtrip_unmet_without_unity(self, ctx_zero_action):
        res = run_check("T3.8-roundtrip", ctx_zero_action, ("0", "1"))
        assert res.status == "assumption-unmet"
        assert res.witness == {"missing": "left unity"}

    def test_cores2_needs_strong_left_unity(self, mat_b):
        ctx = build_context(mat_b)
        res = run_check("T-cores2", ctx, ("0", "1"))
        assert res.status == "assumption-unmet"
        assert res.witness == {"missing": "strong left unity"}

    def test_indicator_lemma_on_z4(self, ctx_z4):
        assert run_check("L3.11", ctx_z4, GRID).status == "pass"

    def test_crisp_iso_on_z4(self, ctx_z4):
        assert run_check("T3.15", ctx_z4, GRID).status == "pass"
        assert run_check("T3.16", ctx_z4, GRID).status == "pass"

    def test_grid_without_zero_rejected(self, ctx_z2):
        # S2-axioms reads no family, so only the up-front grid check sees this.
        with pytest.raises(ValueError, match="0 and 1"):
            run_check("S2-axioms", ctx_z2, ("1/2", "1"))


class TestRunSuite:
    def test_section_filtering(self, ctx_z2):
        report = run_suite(ctx_z2, GRID, "section2")
        assert [r.check_id for r in report.results] == EXPECTED_IDS[:5]

    def test_unknown_suite(self, ctx_z2):
        with pytest.raises(ValueError):
            run_suite(ctx_z2, GRID, "section5")

    def test_bad_grid_rejected_before_any_check(self, ctx_z2, monkeypatch):
        ran = []
        monkeypatch.setattr(gammah.harness, "validate_gamma_hemiring", ran.append)
        with pytest.raises(ValueError, match="ascending"):
            run_suite(ctx_z2, ("1", "0"))
        assert ran == []

    def test_zero_action_section3_never_fails(self, ctx_zero_action):
        report = run_suite(ctx_zero_action, ("0", "1"), "section3")
        assert all(r.status != "fail" for r in report.results)
        unmet = {r.check_id for r in report.results if r.status == "assumption-unmet"}
        assert unmet == {"T3.8-roundtrip", "T3.9", "T3.15", "T3.16"}

    def test_zero_action_full_suite(self, ctx_zero_action):
        report = run_suite(ctx_zero_action, ("0", "1"), "all")
        assert report.overall == "pass"
        unmet = {r.check_id for r in report.results if r.status == "assumption-unmet"}
        assert unmet == {"T3.8-roundtrip", "T3.9", "T3.15", "T3.16", "T-cores2"}

    def test_two_point_grid(self, ctx_z4):
        report = run_suite(ctx_z4, ("0", "1"), "section3")
        assert all(r.status == "pass" for r in report.results)
        assert report.grid == (0, 1)

    def test_runs_add_no_per_member_memo(self):
        # Product structures memoize per-carrier tables only: a second run on
        # a finer grid, whose families have new members, adds no entry.
        ctx = build_context(corpus.zmod(4))
        carriers = ("S", "L", "R", "SxS", "LxL", "RxR")

        def memo_keys():
            return {w: set(vars(ctx.ps(w)).get("_memo", {})) for w in carriers}

        run_suite(ctx, ("0", "1"))
        before = memo_keys()
        run_suite(ctx, GRID)
        assert memo_keys() == before

    def test_deterministic_reports(self, ctx_z2):
        a = run_suite(ctx_z2, GRID, "section3").to_json_dict()
        b = run_suite(ctx_z2, GRID, "section3").to_json_dict()
        assert a == b

    def test_json_schema(self, ctx_boolean):
        report = run_suite(ctx_boolean, GRID, "all")
        doc = json.loads(report.to_json())
        assert set(doc) == {"structure", "grid", "results", "overall"}
        assert doc["grid"] == ["0", "1/2", "1"]
        for row in doc["results"]:
            assert set(row) == {"id", "status", "witness", "ms"}
            assert row["ms"] == 0
        assert doc["overall"] == "pass"

    def test_timings_can_be_requested(self, ctx_boolean):
        report = run_suite(ctx_boolean, GRID, "section2")
        doc = report.to_json_dict(with_timings=True)
        assert all(row["ms"] >= 0 for row in doc["results"])

    @pytest.mark.parametrize("structure", [corpus.z2xz2, corpus.boolean_matrix_2x1])
    def test_one_lattice_per_carrier_and_kind(self, monkeypatch, structure):
        # The crisp lattice _Families holds is the fuzzy families' only
        # source, so no (carrier, kind) is enumerated twice in a run.
        honest = gammah.ideals.enumerate_h_ideals
        calls = collections.Counter()

        def counted(ps, sidedness=TWO_SIDED):
            calls[id(ps), sidedness] += 1
            return honest(ps, sidedness)

        monkeypatch.setattr(gammah.harness, "enumerate_h_ideals", counted)
        monkeypatch.setattr(gammah.ideals, "enumerate_h_ideals", counted)
        run_suite(build_context(structure()), GRID)
        assert calls and set(calls.values()) == {1}, calls


class TestFamilies:
    def test_bi_quasi_families_complete_on_mat_b_left(self, mat_b):
        # |grid|^n = 3^16 for L; the constant 1/2 is a member, not only 1.
        ctx = build_context(mat_b)
        grid = tuple(Fraction(v) for v in GRID)
        fams = _Families(ctx, grid)
        ps = ctx.ps("L")
        for members, check in (
            (fams.fuzzy("L", "bi").members, is_fuzzy_h_bi_ideal),
            (fams.fuzzy("L", "quasi").members, is_fuzzy_h_quasi_ideal),
        ):
            assert [set(m.values) for m in members] == [{Fraction(1, 2)}, {Fraction(1)}]
            assert all(check(ps, m).holds for m in members)
        for check_id in ("P-bi-fwd", "P-bi-bwd", "P-quasi-fwd", "P-quasi-bwd"):
            assert run_check(check_id, ctx, grid, fams).status == "pass", check_id


class TestFaultInjection:
    def test_corrupted_plus_prime_fails_roundtrip(self, monkeypatch):
        def corrupted(ctx, sigma):
            values = tuple(
                max(sigma.values[m.table[s]] for s in range(ctx.G.S.n))
                for m in ctx.L.maps
            )
            return FuzzySubset(ctx.l_monoid, values)

        monkeypatch.setattr(gammah.correspondence, "plus_prime", corrupted)
        ctx = build_context(corpus.zmod(2))
        report = run_suite(ctx, GRID, "all")
        failed = [r for r in report.results if r.status == "fail"]
        assert failed
        assert all(r.witness for r in failed)
        assert report.overall == "fail"
        assert any(r.check_id == "T3.8-roundtrip" for r in failed)

    # Each transfer map is a fault-injection seam: corrupting it must make a
    # check that passes honestly fail with a witness.
    SEAMS = {
        "plus": "L3.12",
        "crisp_plus": "L3.12",
        "plus_prime": "L3.11",
        "crisp_plus_prime": "L3.11",
        "star": "L3.14",
        "crisp_star": "L3.14",
        "star_prime": "L3.13",
        "crisp_star_prime": "L3.13",
        "product_plus": "S4-commute-star",
        "product_star": "S4-commute-star",
        "product_plus_prime": "S4-commute-starprime",
        "product_star_prime": "S4-commute-starprime",
    }

    @pytest.fixture(scope="class")
    def ctx_z3(self):
        return build_context(corpus.zmod(3))

    @pytest.mark.parametrize("name", sorted(SEAMS))
    def test_corrupted_map_trips_its_check(self, monkeypatch, ctx_z3, name):
        check_id = self.SEAMS[name]
        assert run_check(check_id, ctx_z3, GRID).status == "pass"
        honest = getattr(gammah.correspondence, name)

        def corrupted(ctx, subset):
            out = honest(ctx, subset)
            if isinstance(out, CrispSubset):  # flip the last member
                return CrispSubset(out.carrier, out.members[:-1] + (not out.members[-1],))
            # flatten to the value at zero
            return FuzzySubset(out.carrier, (out.values[out.carrier.zero],) * out.carrier.n)

        monkeypatch.setattr(gammah.correspondence, name, corrupted)
        res = run_check(check_id, ctx_z3, GRID)
        assert res.status == "fail", res
        assert res.witness


class TestMulLawReference:
    """S2-mul-law checks generator pairs; the reference checks every pair of
    formal sums with up to two terms.  Their verdicts must agree."""

    def test_honest_verdicts_agree(self, all_corpus):
        for g in [*all_corpus, corpus.zmod(5)]:
            ctx = build_context(g)
            assert run_check("S2-mul-law", ctx, GRID).status == "pass", g.name
            assert short_sums_mul_law(ctx) is None, g.name

    def test_flipped_orientation_verdicts_agree(self, monkeypatch):
        original = gammah.operators._compose

        def corrupted(side, m1, m2):
            return original("right" if side == "left" else side, m1, m2)

        monkeypatch.setattr(gammah.operators, "_compose", corrupted)
        # L(Z2) commutes, so the flip changes nothing there; L(Mat(B,2x1)) does not.
        for g, status in ((corpus.zmod(2), "pass"), (corpus.boolean_matrix_2x1(), "fail")):
            ctx = build_context(g)
            res = run_check("S2-mul-law", ctx, GRID)
            assert res.status == status, g.name
            assert (short_sums_mul_law(ctx) is None) == (status == "pass"), g.name
            assert bool(res.witness) == (status == "fail"), g.name


MUL_LAW_STRUCTURES = {
    **{g.name: (lambda g=g: g) for g in corpus.standard_corpus()},
    "Z5": functools.partial(corpus.zmod, 5),
    "UT2(Z2)": corpus.upper_triangular,
    "Zero3": functools.partial(corpus.zero_action, 3),
    "Mat(B,1x2)": lambda: matrix_gamma_hemiring(corpus.boolean_hemiring(), 1, 2),
    "Mat(B,2x2)": lambda: matrix_gamma_hemiring(corpus.boolean_hemiring(), 2, 2),
    "Mat(Z2,1x2)": lambda: matrix_gamma_hemiring(corpus.zmod_hemiring(2), 1, 2),
}

# The sides whose composition is flipped: honest, left, right and both.
COMPOSE_FLIPS = ((), ("left",), ("right",), ("left", "right"))


def _flipped_compose(sides):
    original = gammah.operators._compose

    def corrupted(side, m1, m2):
        if side in sides:
            side = "right" if side == "left" else "left"
        return original(side, m1, m2)

    return corrupted


class TestMulLawTables:
    """S2-mul-law reads generator products from build_operator's embed; the
    reference realizes each product's map.  Status and witness must agree
    for any composition."""

    def test_equals_realized_reference(self, monkeypatch):
        failed = []
        for flip in COMPOSE_FLIPS:
            monkeypatch.setattr(gammah.operators, "_compose", _flipped_compose(flip))
            for name, build in MUL_LAW_STRUCTURES.items():
                ctx = build_context(build())
                res = run_check("S2-mul-law", ctx, GRID)
                ref = realized_mul_law(ctx)
                assert (res.status, res.witness) == (
                    ("pass", None) if ref is None else ("fail", ref)
                ), (flip, name)
                failed += [ref] if ref else []
            monkeypatch.undo()
        assert len(failed) == 12
        assert {w["side"] for w in failed} == {"left", "right"}

    def test_reads_no_realized_map(self, monkeypatch):
        ctx = build_context(corpus.boolean_matrix_2x1())
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("realize", "formal_product"):
            wrapped = counted(name, getattr(gammah.operators, name))
            monkeypatch.setattr(gammah.operators, name, wrapped)
            monkeypatch.setattr(gammah.harness, name, wrapped, raising=False)
        assert run_check("S2-mul-law", ctx, GRID).status == "pass"
        assert calls == []


GRIDS = (GRID, ("0", "1/3", "2/3", "1"))


class TestSection2Proofs:
    """S2-oplus and S2-gamma-subset are decided by the proofs in their
    docstrings; the scans they replace stay as oracles."""

    @pytest.mark.parametrize("grid", [("0", "1"), *GRIDS], ids=",".join)
    def test_verdicts_equal_scans(self, all_corpus, grid):
        for g in all_corpus:
            ctx = build_context(g)
            fams = _Families(ctx, tuple(Fraction(v) for v in grid))
            members = fams.fuzzy("S").members
            for check_id, w in (
                ("S2-oplus", oplus_law_scan(members)),
                ("S2-gamma-subset", gamma_subset_scan(ctx.s_ps, members)),
            ):
                res = run_check(check_id, ctx, grid, fams)
                expected = ("pass", None) if w is None else ("fail", w)
                assert (res.status, res.witness) == expected, (g.name, check_id)

    def test_section2_builds_no_family(self, all_corpus, monkeypatch):
        calls = []
        for module in (gammah.harness, gammah.ideals):
            for name in ("enumerate_h_ideals", "_cut_family"):
                honest = getattr(module, name)

                def counted(*args, honest=honest, **kwargs):
                    calls.append(honest.__name__)
                    return honest(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        for g in all_corpus:
            assert run_suite(build_context(g), GRID, "section2").overall == "pass", g.name
        assert calls == []


# Values on the grid k/4 and off it.
ANY_VALUE = st.sampled_from([Fraction(k, 4) for k in range(5)] + [Fraction(1, 3), Fraction(5, 7)])


@functools.cache
def _section2_context(name):
    return build_context(MUL_LAW_STRUCTURES[name]())


@pytest.mark.parametrize("relation", ["honest", "skip-z"])
@pytest.mark.parametrize("carrier", ["S", "L", "R"])
@pytest.mark.parametrize("name", sorted(MUL_LAW_STRUCTURES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_section2_laws_for_any_subsets(name, carrier, relation, data):
    """(+) commutes and associates, and the simple h-product lies inside the
    generalized one, for any three fuzzy subsets, members or not, under the
    skip-z same-sum relation too (patched as in
    test_lattice_route_equals_full_scan)."""
    ps = _section2_context(name).ps(carrier)
    n = ps.carrier.n
    values = st.lists(ANY_VALUE, min_size=n, max_size=n)
    subsets = [FuzzySubset(ps.carrier, tuple(data.draw(values))) for _ in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        if relation == "skip-z":
            mp.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
            mp.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
        assert oplus_law_scan(subsets) is None
        assert gamma_subset_scan(ps, subsets) is None


FULL_SCANS = {
    "L3.3": intersection_commutes_scan,
    "C3.10": complete_lattices_scan,
    "S4-coprod": lambda ctx, fams: _coproduct_scan(ctx, fams.fuzzy("S").members),
    "S4-hideal": lambda ctx, fams: _pair_image_scan(ctx, fams, RL, H_IDEAL),
}


def _full_scan(ctx, fams, check_id):
    """Status and witness of a check scanned over every member (and, for
    L3.3, every triple of members)."""
    w = FULL_SCANS[check_id](ctx, fams)
    return ("pass", None) if w is None else ("fail", w)


class TestLatticeRoute:
    """S4-coprod runs on the characteristic members and S4-hideal on the
    transferred members, each on its own carrier (the cartesian-product
    lemma); each falls back to the scan over every member pair only when
    that fails."""

    def test_noncommuting_products_pass(self):
        ut2 = build_context(corpus.upper_triangular())
        fams = _Families(ut2, tuple(Fraction(v) for v in GRID))
        chars = _characteristic(fams.fuzzy("S").members)
        assert [set(m.values) for m in chars] == [{0, 1}] * 4 + [{1}]
        differ = [
            (i, j)
            for i, mu in enumerate(chars)
            for j, nu in enumerate(chars)
            if simple_h_product(ut2.s_ps, mu, nu) != simple_h_product(ut2.s_ps, nu, mu)
        ]
        assert differ == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for check_id in ("S4-coprod", "S4-hideal"):
            assert run_check(check_id, ut2, GRID, fams).status == "pass", check_id

    def test_coproduct_route_on_z2xz2(self, monkeypatch):
        # |lattice| = 4: 4^2 S products and 4^4 SxS ones; the scan over all
        # 9 members would take 9^2 + 9^4.
        ctx = build_context(corpus.z2xz2())
        fams = _Families(ctx, tuple(Fraction(v) for v in GRID))
        assert [len(fams.crisp(c)) for c in "SLR"] == [4, 4, 4]
        calls = []

        def counted(ps, mu, nu):
            calls.append(ps)
            return simple_h_product(ps, mu, nu)

        monkeypatch.setattr(gammah.harness, "simple_h_product", counted)
        assert run_check("S4-coprod", ctx, GRID, fams).status == "pass"
        assert calls.count(ctx.s_ps) <= 4**2 and calls.count(ctx.sxs_ps) <= 4**4

    def test_intersection_route_on_z2xz2(self, monkeypatch):
        # L3.3 takes three plus calls per pair of the 9 members, and none per
        # triple.
        ctx = build_context(corpus.z2xz2())
        fams = _Families(ctx, tuple(Fraction(v) for v in GRID))
        n = len(fams.fuzzy("L").members)
        assert n == 9
        honest = gammah.correspondence.plus
        calls = []

        def counted(ctx, mu):
            calls.append(mu)
            return honest(ctx, mu)

        monkeypatch.setattr(gammah.correspondence, "plus", counted)
        assert run_check("L3.3", ctx, GRID, fams).status == "pass"
        assert len(calls) == 3 * n * (n + 1) // 2

    def test_hideal_route_on_z2xz2(self, monkeypatch):
        # The checker runs once per image: 2 directions x 2 sides x 9
        # members, on S, L or R, and no pair carrier of L or R is built.
        ctx = build_context(corpus.z2xz2())
        calls = _count_hideal_route(ctx, monkeypatch)
        assert len(calls) == 2 * 2 * 9
        _assert_factor_route(ctx, calls)

    def test_hideal_route_under_halved_maps(self, monkeypatch):
        # Halving every value below 1 gives images values no member takes, but
        # keeps 1 at zero and keeps their cuts, so each image still passes on
        # its own carrier, with no full scan.
        ctx = build_context(corpus.z2xz2())
        for name in ("plus", "star", "plus_prime", "star_prime"):
            honest_map = getattr(gammah.correspondence, name)
            monkeypatch.setattr(
                gammah.correspondence,
                name,
                lambda ctx, subset, honest_map=honest_map: _halve(honest_map(ctx, subset)),
            )
        calls = _count_hideal_route(ctx, monkeypatch)
        assert len(calls) == 2 * 2 * 9
        _assert_factor_route(ctx, calls)


def _pairs(n):
    return n * (n + 1) // 2


# Fuzzy-map calls per map name on Z2xZ2, as a function of the sizes ns and
# nl of the S and L families: one per member and side, plus one per pair
# only where the identity maps a sum, a meet or an h-product.
MAP_CALLS = {
    "T3.8-monotone": lambda ns, nl: {"plus_prime": ns, "plus": nl},
    "T3.8-lattice": lambda ns, nl: {"plus_prime": ns + 2 * _pairs(ns)},
    "P-comp": lambda ns, nl: {"plus_prime": ns + ns * ns, "star_prime": ns + ns * ns},
    "S4-commute-starprime": lambda ns, nl: {"star_prime": ns, "plus_prime": ns},
}


@pytest.mark.parametrize("check_id", sorted(MAP_CALLS))
def test_each_member_mapped_once(monkeypatch, check_id):
    ctx = build_context(corpus.z2xz2())
    fams = _Families(ctx, tuple(Fraction(v) for v in GRID))
    sizes = [len(fams.fuzzy(c).members) for c in "SL"]
    assert sizes == [9, 9]
    calls = collections.Counter()
    for name in ("plus", "star", "plus_prime", "star_prime"):
        honest_map = getattr(gammah.correspondence, name)

        def counted(ctx, subset, name=name, honest_map=honest_map):
            calls[name] += 1
            return honest_map(ctx, subset)

        monkeypatch.setattr(gammah.correspondence, name, counted)
    assert run_check(check_id, ctx, GRID, fams).status == "pass"
    assert calls == MAP_CALLS[check_id](*sizes)


def _count_hideal_route(ctx, monkeypatch):
    """The carriers of every is_fuzzy_h_ideal call of a passing S4-hideal,
    families prebuilt."""
    fams = _Families(ctx, tuple(Fraction(v) for v in GRID))
    assert [len(fams.fuzzy(c).members) for c in "SLR"] == [9, 9, 9]
    honest = gammah.harness.is_fuzzy_h_ideal
    calls = []

    def counted(ps, mu, *args, **kwargs):
        calls.append(ps)
        return honest(ps, mu, *args, **kwargs)

    monkeypatch.setattr(gammah.harness, "is_fuzzy_h_ideal", counted)
    assert run_check("S4-hideal", ctx, GRID, fams).status == "pass"
    return calls


def _assert_factor_route(ctx, calls):
    assert {id(ps) for ps in calls} == {id(ctx.s_ps), id(ctx.l_ps), id(ctx.r_ps)}
    memo = vars(ctx).get("_memo", {})
    assert "LxL" not in memo and "RxR" not in memo
    for mon in (ctx.l_monoid, ctx.r_monoid):
        assert not any(
            isinstance(key, tuple) and key[0] == "product" for key in vars(mon).get("_memo", {})
        )


def _halve(out):
    # Order-preserving, so every membership survives; but the image of a
    # non-crisp member no longer takes only that member's values.
    return FuzzySubset(out.carrier, tuple(v if v == 1 else v / 2 for v in out.values))


def _drop_top(out):
    # Halve the value at zero of every non-crisp image: it leaves the image's
    # values among the member's, but not its cuts.  Crisp images pass
    # unchanged, so only the scan over all members can fail.
    if set(out.values) <= {0, 1}:
        return out
    values = list(out.values)
    values[out.carrier.zero] /= 2
    return FuzzySubset(out.carrier, tuple(values))


def _lift_one(out):
    # Raise the first value strictly between 0 and 1 halfway to 1: on the
    # coarser grid that leaves every cut at the member's values alone, but
    # adds a value.  Crisp images pass unchanged, as above.
    x = next((i for i, v in enumerate(out.values) if 0 < v < 1), None)
    if x is None:
        return out
    values = list(out.values)
    values[x] = (1 + values[x]) / 2
    return FuzzySubset(out.carrier, tuple(values))


# Full scans of several seconds per case are left out: every UT2(Z2) scan
# (S4-coprod takes 11 s at the coarser grid, S4-hideal 1 to 5 s a case, 13
# cases a grid), whose lattice route is pinned above, and S4-coprod over the
# 16 members of Z2xZ2 at the finer grid (6 s).
ROUTE_STRUCTURES = {
    g.name: g
    for g in corpus.standard_corpus() + [corpus.zmod(5), corpus.zero_action(2), nil_cube()]
}
SLOW = {("Z2xZ2", GRIDS[1], "S4-coprod")}
MAP_FAULTS = {
    f"{name}-{fault.__name__[1:]}": (name, fault)
    for name in ("plus", "star", "plus_prime", "star_prime")
    for fault in (_halve, _drop_top, _lift_one)
}
# skip-z changes nothing where addition cancels (p + z == q + z forces p == q
# on S, hence on L, R and the pair carriers), so it runs where it does not.
ROUTE_CASES = [
    pytest.param(name, grid, case, id=f"{name}-{len(grid) - 1}-{case}")
    for name, g in sorted(ROUTE_STRUCTURES.items())
    for grid in GRIDS
    for case in ["honest", *MAP_FAULTS]
    + (["skip-z"] if corrupted_same_sum_rows(g.S) != same_sum_rows(g.S) else [])
]


@pytest.mark.parametrize("name, grid, case", ROUTE_CASES)
def test_lattice_route_equals_full_scan(monkeypatch, name, grid, case):
    """Status and witness equal the full scan's, honest and under faults the
    lattice pass cannot see: the skip-z same-sum relation, and transfer maps
    (which enter L3.3 and S4-hideal only) corrupted in three ways."""
    checks = ["L3.3", "C3.10", "S4-coprod", "S4-hideal"]
    if case in MAP_FAULTS:
        checks.remove("S4-coprod")
        map_name, fault = MAP_FAULTS[case]
        honest = getattr(gammah.correspondence, map_name)
        monkeypatch.setattr(
            gammah.correspondence, map_name, lambda ctx, subset: fault(honest(ctx, subset))
        )
    if case == "skip-z":
        monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
        monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
    ctx = build_context(ROUTE_STRUCTURES[name])
    fams = _Families(ctx, tuple(Fraction(v) for v in grid))
    for cid in checks:
        if (name, grid, cid) not in SLOW:
            res = run_check(cid, ctx, grid, fams)
            assert (res.status, res.witness) == _full_scan(ctx, fams, cid), cid


FRACTIONS = st.sampled_from([Fraction(k, 4) for k in range(5)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cartesian_inclusions_equal_loop(data):
    """T-cores2's inclusion half, read from a table of member inclusions,
    names the first witness of the loop over every pair of member pairs.
    Members are 1 at zero; images are arbitrary, as a corrupted map makes."""
    members_on = build_context(corpus.zmod(3)).s_monoid
    images_on = build_context(corpus.zmod(2)).s_monoid
    rest = st.lists(FRACTIONS, min_size=members_on.n - 1, max_size=members_on.n - 1)
    rows = data.draw(st.lists(rest, min_size=2, max_size=4, unique_by=tuple))
    members = []
    for row in rows:
        row.insert(members_on.zero, Fraction(1))
        members.append(FuzzySubset(members_on, tuple(row)))
    image_values = st.lists(FRACTIONS, min_size=images_on.n, max_size=images_on.n)
    images = [FuzzySubset(images_on, tuple(data.draw(image_values))) for _ in members]
    image_of = {m.values: im for m, im in zip(members, images)}
    expected = cartesian_inclusion_loop(members, lambda m: image_of[m.values])
    assert _cartesian_inclusions(members, images) == expected


LEMMA_STRUCTURES = {
    g.name: g for g in (corpus.z2xz2(), corpus.boolean_matrix_2x1(), corpus.upper_triangular())
}


@functools.cache
def _lemma_context(name):
    return build_context(LEMMA_STRUCTURES[name])


@st.composite
def _fuzzy_on(draw, ps):
    """A grid-valued subset of ps's carrier: half of them arbitrary (1 at zero
    or not), half a chain of h-closures, 1 on the first and falling from link
    to link, so that both passes and failures of the h-ideal test occur."""
    mon = ps.carrier
    if draw(st.booleans()):
        values = draw(st.lists(FRACTIONS, min_size=mon.n, max_size=mon.n))
        if draw(st.booleans()):
            values[mon.zero] = Fraction(1)
        return FuzzySubset(mon, tuple(values))
    below = draw(st.lists(st.sampled_from([Fraction(k, 4) for k in (1, 2, 3)]), unique=True))
    levels = [Fraction(1), *sorted(below, reverse=True)]
    seeds = [draw(st.lists(st.integers(0, mon.n - 1), max_size=2)) for _ in levels]
    values = [Fraction(0)] * mon.n
    for k, level in reversed(list(enumerate(levels))):
        closed = h_closure(ps, [x for seed in seeds[: k + 1] for x in seed])
        for x in closed.indices():
            values[x] = level
    return FuzzySubset(mon, tuple(values))


@pytest.mark.parametrize("relation", ["honest", "skip-z"])
@pytest.mark.parametrize("carrier", ["S", "L", "R"])
@pytest.mark.parametrize("name", sorted(LEMMA_STRUCTURES))
@settings(max_examples=90, deadline=None, derandomize=True)
@given(data=st.data())
def test_cartesian_product_lemma(name, carrier, relation, data):
    """a x b is a fuzzy h-ideal with top at zero on the pair carrier exactly
    when a and b are on their own carrier: the lemma S4-hideal is decided by.
    Under the skip-z same-sum relation too, patched as in
    test_lattice_route_equals_full_scan."""
    ctx = _lemma_context(name)
    ps, pair_ps = ctx.ps(carrier), ctx.ps(f"{carrier}x{carrier}")
    a, b = data.draw(_fuzzy_on(ps)), data.draw(_fuzzy_on(ps))
    with pytest.MonkeyPatch.context() as mp:
        if relation == "skip-z":
            mp.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
            mp.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
        factors = [is_fuzzy_h_ideal(ps, m, require_top=True).holds for m in (a, b)]
        pair = is_fuzzy_h_ideal(pair_ps, cartesian(a, b), require_top=True).holds
    assert pair == all(factors)


@pytest.mark.parametrize("relation", ["honest", "skip-z"])
@pytest.mark.parametrize("carrier", ["S", "L", "R"])
@pytest.mark.parametrize("name", sorted(ROUTE_STRUCTURES))
def test_meet_lemma(monkeypatch, name, carrier, relation):
    """The intersection of two members of a sided family is a member, at
    every grid, under the skip-z same-sum relation too: the lemma that lets
    L3.3 scan pairs only and C3.10 skip its intersection branch."""
    if relation == "skip-z":
        monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
        monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
    ctx = build_context(ROUTE_STRUCTURES[name])
    for grid in GRIDS:
        fams = _Families(ctx, tuple(Fraction(v) for v in grid))
        for kind in SIDEDNESS:
            members = fams.fuzzy(carrier, kind).members
            index = {m.values for m in members}
            for a, b in itertools.combinations_with_replacement(members, 2):
                assert intersect(a, b).values in index, (grid, kind, a, b)


def test_complete_lattices_failing_branch_on_z4():
    """No structure fails C3.10, so its failing branch runs on a family with
    one member dropped by hand: (1, 1/2, 1, 1/2) on L of Z4, the sum of two
    other members and the meet of no pair of them."""
    ctx = build_context(corpus.zmod(4))
    fams = _Families(ctx, tuple(Fraction(v) for v in GRID))
    fam = fams.fuzzy("L", "left")
    dropped = tuple(Fraction(v) for v in ("1", "1/2", "1", "1/2"))
    members = [m for m in fam.members if m.values != dropped]
    assert len(members) == len(fam.members) - 1
    assert all(intersect(a, b).values != dropped for a in members for b in members)
    fams._cache["fuzzy", "L", "left"] = dataclasses.replace(fam, members=tuple(members))
    res = run_check("C3.10", ctx, GRID, fams)
    assert res.status == "fail"
    assert res.witness == {
        "carrier": "L", "sidedness": "left", "op": "sum",
        "a": ["1", "0", "1", "0"], "b": ["1", "1/2", "1/2", "1/2"],
        "result": ["1", "1/2", "1", "1/2"],
    }
    assert res.witness == complete_lattices_scan(ctx, fams)
