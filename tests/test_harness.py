import json
from fractions import Fraction

import pytest

import gammah.correspondence
import gammah.fuzzy
import gammah.ideals
import gammah.operators
from gammah import corpus
from gammah.correspondence import build_context
from gammah.fuzzy import FuzzySubset
from gammah.harness import CATALOG, _Families, run_check, run_suite
from gammah.ideals import CrispSubset, is_fuzzy_h_bi_ideal, is_fuzzy_h_quasi_ideal
from oracles import short_sums_mul_law

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


class TestRunSuite:
    def test_section_filtering(self, ctx_z2):
        report = run_suite(ctx_z2, GRID, "section2")
        assert [r.check_id for r in report.results] == EXPECTED_IDS[:5]

    def test_unknown_suite(self, ctx_z2):
        with pytest.raises(ValueError):
            run_suite(ctx_z2, GRID, "section5")

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


class TestFamilies:
    def test_bi_quasi_families_complete_on_mat_b_left(self, mat_b):
        # |grid|^n = 3^16 for L; the constant 1/2 is a member, not only 1.
        ctx = build_context(mat_b)
        grid = tuple(Fraction(v) for v in GRID)
        fams = _Families(ctx, grid)
        ps = ctx.ps("L")
        for members, check in (
            (fams.bi("L"), is_fuzzy_h_bi_ideal),
            (fams.quasi("L"), is_fuzzy_h_quasi_ideal),
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
