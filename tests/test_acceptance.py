"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 4 expects one failing catalog check: S4-prime on Z2, Z3, Z4 and
Z2xZ2.  S4-prime states that a cartesian product of prime fuzzy h-ideals is
prime.  Like P x Q in a product ring, that is false as soon as a proper prime
exists, and the catalog refutes it with a witness.  The test hard-codes
where the refutation is expected and re-verifies each witness with the
brute-force oracles of tests/oracles.py.

Criterion 6 injects each fault where it can be seen, and requires a check
that passes on the honest run to fail on the corrupted one.  The "skip z"
corruption runs on B, whose addition is idempotent; the flipped left
composition runs on Mat(B,2x1), whose operator hemiring L does not commute.
On Z2 both corruptions change nothing, and the tests assert that as well.
"""

import hashlib
import importlib.util
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gammah.correspondence
import gammah.fuzzy
import gammah.ideals
import gammah.operators
from gammah import corpus
from gammah.cli import main, structure_from_doc, structure_to_doc
from gammah.core import (
    GammaHemiring,
    as_product_structure,
    validate_gamma_hemiring,
)
from gammah.correspondence import build_context
from gammah.fuzzy import (
    FuzzySubset,
    cartesian,
    equals,
    generalized_h_product,
    same_sum_rows,
    simple_h_product,
)
from gammah.harness import run_check, run_suite
from gammah.ideals import crisp, enumerate_h_ideals, h_closure, is_fuzzy_h_ideal, is_h_ideal
from gammah.operators import build_operator
from oracles import (
    brute_fuzzy_family,
    brute_operator,
    closure_subsets_h_ideals,
    grid_subsets,
    naive_generalized_h_product,
    naive_is_fuzzy_h_ideal,
    naive_simple_h_product,
)

GRID = ("0", "1/2", "1")
STRUCTURES = Path(__file__).resolve().parents[1] / "structures"
CORPUS_FILES = {
    "B": "b",
    "Z2": "z2",
    "Z3": "z3",
    "Z4": "z4",
    "Z2xZ2": "z2xz2",
    "Mat(B,2x1)": "mat_b_2x1",
}


def report_line(name: str, ok: bool, elapsed: float, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s){suffix}")


def _load_bench_refs():
    # The verify digests the benchmark gates on, read from their one home.
    path = Path(__file__).resolve().parents[1] / "bench" / "refs.py"
    spec = importlib.util.spec_from_file_location("bench_refs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


VERIFY_REPORTS = _load_bench_refs().VERIFY_REPORTS


@pytest.fixture(scope="module")
def contexts():
    return {g.name: build_context(g) for g in corpus.standard_corpus()}


# --- criterion 1: axiom gate ---------------------------------------------------

# One single-cell action mutation per axiom per structure, distinct cells,
# found by exhaustive search (tests/oracles-style scan, frozen here).
MUTATIONS = {
    "B": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 1, 0), 1),
        "axiom-3": ((0, 0, 1), 1), "axiom-4": ((0, 1, 1), 1),
        "axiom-5": ((1, 0, 0), 1), "axiom-6": ((1, 0, 1), 1),
    },
    "Z2": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 1, 0), 1),
        "axiom-3": ((0, 0, 1), 1), "axiom-4": ((0, 1, 1), 1),
        "axiom-5": ((1, 0, 0), 1), "axiom-6": ((1, 0, 1), 1),
    },
    "Z3": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 0, 0), 2),
        "axiom-3": ((0, 0, 1), 1), "axiom-4": ((0, 0, 1), 2),
        "axiom-5": ((0, 0, 2), 1), "axiom-6": ((0, 0, 2), 2),
    },
    "Z4": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 0, 0), 2),
        "axiom-3": ((0, 0, 0), 3), "axiom-4": ((0, 0, 1), 1),
        "axiom-5": ((0, 0, 1), 2), "axiom-6": ((0, 0, 1), 3),
    },
    "Z2xZ2": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 0, 0), 2),
        "axiom-3": ((0, 0, 0), 3), "axiom-4": ((0, 0, 1), 1),
        "axiom-5": ((0, 0, 1), 2), "axiom-6": ((0, 0, 1), 3),
    },
    "Mat(B,2x1)": {
        "axiom-1": ((0, 0, 0), 1), "axiom-2": ((0, 0, 0), 2),
        "axiom-3": ((0, 0, 0), 3), "axiom-4": ((0, 0, 1), 1),
        "axiom-5": ((0, 0, 1), 2), "axiom-6": ((0, 0, 1), 3),
    },
}


def mutate_action(g: GammaHemiring, cell, value) -> GammaHemiring:
    a, ga, b = cell
    action = [list(map(list, plane)) for plane in g.action]
    action[a][ga][b] = value
    return GammaHemiring(g.name, g.S, g.Gamma, tuple(tuple(map(tuple, p)) for p in action))


def axiom_violated_at(g: GammaHemiring, axiom: str, w) -> bool:
    """Independent re-evaluation of the reported witness."""
    s, ga = g.S, g.Gamma
    si, gi = s.index_of, ga.index_of
    act, sadd, gadd = g.act, s.add, ga.add
    if axiom == "axiom-1":
        a, b, g1, c = si(w[0]), si(w[1]), gi(w[2]), si(w[3])
        return act(sadd[a][b], g1, c) != sadd[act(a, g1, c)][act(b, g1, c)]
    if axiom == "axiom-2":
        c, g1, a, b = si(w[0]), gi(w[1]), si(w[2]), si(w[3])
        return act(c, g1, sadd[a][b]) != sadd[act(c, g1, a)][act(c, g1, b)]
    if axiom == "axiom-3":
        a, g1, g2, b = si(w[0]), gi(w[1]), gi(w[2]), si(w[3])
        return act(a, gadd[g1][g2], b) != sadd[act(a, g1, b)][act(a, g2, b)]
    if axiom == "axiom-4":
        a, g1, b, g2, c = si(w[0]), gi(w[1]), si(w[2]), gi(w[3]), si(w[4])
        return act(a, g1, act(b, g2, c)) != act(act(a, g1, b), g2, c)
    if axiom == "axiom-5":
        a, g1 = si(w[0]), gi(w[1])
        return act(s.zero, g1, a) != s.zero or act(a, g1, s.zero) != s.zero
    if axiom == "axiom-6":
        a, b = si(w[0]), si(w[1])
        return act(a, ga.zero, b) != s.zero or act(b, ga.zero, a) != s.zero
    raise ValueError(axiom)


def test_criterion_1_axiom_gate():
    start = time.perf_counter()
    for g in corpus.standard_corpus():
        assert validate_gamma_hemiring(g).valid, g.name
        for axiom, (cell, value) in MUTATIONS[g.name].items():
            mutated = mutate_action(g, cell, value)
            rep = validate_gamma_hemiring(mutated, violation_cap=10**6)
            assert not rep.valid, (g.name, axiom)
            hits = [w for law, w in rep.violations if law == axiom]
            assert hits, f"{g.name}: mutation for {axiom} did not trip it"
            assert axiom_violated_at(mutated, axiom, hits[0]), (g.name, axiom)
    elapsed = time.perf_counter() - start
    report_line("criterion-1 axiom gate", True, elapsed)
    assert elapsed < 5.0


# --- criterion 2: operator construction vs brute force -------------------------


def test_criterion_2_operator_construction(contexts):
    start = time.perf_counter()
    for g in corpus.standard_corpus():
        ctx = contexts[g.name]
        for side, op in (("left", ctx.L), ("right", ctx.R)):
            maps, has_id, strong = brute_operator(g, side)
            assert op.n == len(maps), (g.name, side)
            assert {m.table for m in op.maps} == maps
            unity = ctx.left_unity if side == "left" else ctx.right_unity
            assert (unity is not None) == has_id, (g.name, side)
            if unity is not None:
                assert unity.strong == strong, (g.name, side)
    for name in ("B", "Z2", "Z3", "Z4"):
        ctx = contexts[name]
        assert ctx.left_unity.strong and ctx.right_unity.strong
    mat = contexts["Mat(B,2x1)"]
    assert mat.left_unity is not None and not mat.left_unity.strong
    assert len(mat.left_unity.witness.terms) == 2
    assert mat.right_unity is not None
    prod = contexts["Z2xZ2"]
    assert prod.left_unity is not None and prod.right_unity is not None
    elapsed = time.perf_counter() - start
    report_line("criterion-2 operator construction", True, elapsed)
    assert elapsed < 30.0


# --- criterion 3: crisp lattice isomorphism -------------------------------------


def test_criterion_3_crisp_lattice_isomorphism(contexts):
    start = time.perf_counter()
    for g in corpus.standard_corpus():
        ctx = contexts[g.name]
        counts = {
            which: len(enumerate_h_ideals(ps))
            for which, ps in (("S", ctx.s_ps), ("L", ctx.l_ps), ("R", ctx.r_ps))
        }
        assert counts["S"] == counts["L"] == counts["R"], (g.name, counts)
        assert run_check("T3.15", ctx, GRID).status == "pass", g.name
        assert run_check("T3.16", ctx, GRID).status == "pass", g.name
    z4 = contexts["Z4"]
    assert len(enumerate_h_ideals(z4.s_ps)) == 3
    assert len(closure_subsets_h_ideals(z4.s_ps)) == 3
    elapsed = time.perf_counter() - start
    report_line("criterion-3 crisp lattice isomorphism", True, elapsed)
    assert elapsed < 30.0


# --- criterion 4: theorem suite green -------------------------------------------

# The only assumption-unmet tolerated on the corpus: T-cores2 on the matrix
# structure, whose left unity is genuinely not strong.
ALLOWED_UNMET = {"Mat(B,2x1)": {"T-cores2"}}

# The only failures expected on the corpus: S4-prime is refuted on the four
# ring-like structures, where the operator hemiring R has a proper prime.
# On B and Mat(B,2x1) every check passes.
REFUTED = {
    "Z2": {"S4-prime"},
    "Z3": {"S4-prime"},
    "Z4": {"S4-prime"},
    "Z2xZ2": {"S4-prime"},
}


def _fractions(labels) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in labels)


def _below(lhs, rhs) -> bool:
    return all(a <= b for a, b in zip(lhs, rhs))


def _is_prime_by_brute_force(ps, values) -> bool:
    """Non-constant fuzzy h-ideal, prime against every grid-valued one."""
    if len(set(values)) == 1:
        return False
    if not naive_is_fuzzy_h_ideal(ps, values, "two-sided", require_top=True):
        return False
    family = brute_fuzzy_family(ps, GRID)
    for mu in family:
        for nu in family:
            prod = naive_simple_h_product(
                ps, FuzzySubset(ps.carrier, mu), FuzzySubset(ps.carrier, nu)
            )
            if _below(prod.values, values) and not (_below(mu, values) or _below(nu, values)):
                return False
    return True


def _transfer_to_s(ctx, side, delta) -> tuple[Fraction, ...]:
    """delta+ (side L) or delta* (side R) over S, from the definition:
    x -> min over gamma of delta at the class of [x,gamma] or [gamma,x]."""
    g = ctx.G
    n, act = g.S.n, g.action
    op = ctx.L if side == "L" else ctx.R
    index = {m.table: k for k, m in enumerate(op.maps)}

    def generator(x, ga):
        if side == "L":
            return tuple(act[x][ga][a] for a in range(n))
        return tuple(act[a][ga][x] for a in range(n))

    return tuple(
        min(delta[index[generator(x, ga)]] for ga in range(g.Gamma.n)) for x in range(n)
    )


def assert_prime_product_refuted(ctx, witness) -> None:
    """Re-check an S4-prime witness with the brute-force oracles only.

    mu and sigma must be prime in the operator hemiring, their product
    zeta = mu* x sigma* (or mu+ x sigma+) a non-constant fuzzy h-ideal of
    SxS, and the inner pair fuzzy h-ideals whose simple h-product lies in
    zeta while neither of them does.
    """
    assert witness["kind"] == "prime", witness
    assert witness["condition"] == "prime-implication", witness
    side = witness["operator"]
    source = ctx.l_ps if side == "L" else ctx.r_ps
    mu, sigma = _fractions(witness["mu"]), _fractions(witness["sigma"])
    assert _is_prime_by_brute_force(source, mu), ("mu is not prime", witness)
    assert _is_prime_by_brute_force(source, sigma), ("sigma is not prime", witness)

    mu_s, sigma_s = _transfer_to_s(ctx, side, mu), _transfer_to_s(ctx, side, sigma)
    zeta = tuple(min(a, b) for a in mu_s for b in sigma_s)
    mapper = gammah.correspondence.plus if side == "L" else gammah.correspondence.star
    library = cartesian(
        mapper(ctx, FuzzySubset(source.carrier, mu)),
        mapper(ctx, FuzzySubset(source.carrier, sigma)),
    )
    assert library.values == zeta
    target = ctx.sxs_ps
    assert len(set(zeta)) > 1
    assert naive_is_fuzzy_h_ideal(target, zeta, "two-sided", require_top=True)

    inner_mu = _fractions(witness["inner"]["mu"])
    inner_nu = _fractions(witness["inner"]["nu"])
    for inner in (inner_mu, inner_nu):
        assert naive_is_fuzzy_h_ideal(target, inner, "two-sided", require_top=True), inner
    prod = naive_simple_h_product(
        target, FuzzySubset(target.carrier, inner_mu), FuzzySubset(target.carrier, inner_nu)
    )
    assert _below(prod.values, zeta), (prod.values, zeta)
    assert not _below(inner_mu, zeta), (inner_mu, zeta)
    assert not _below(inner_nu, zeta), (inner_nu, zeta)


@pytest.mark.parametrize("name", list(CORPUS_FILES))
def test_criterion_4_theorem_suite(contexts, name):
    ctx = contexts[name]
    start = time.perf_counter()
    report = run_suite(ctx, GRID, "all")
    failed = {r.check_id: r.witness for r in report.results if r.status == "fail"}
    unmet = {r.check_id for r in report.results if r.status == "assumption-unmet"}
    refuted = REFUTED.get(name, set())
    assert set(failed) == refuted, (
        f"{name}: failing checks {sorted(failed)}, expected exactly {sorted(refuted)}; "
        f"witnesses: {failed}"
    )
    assert unmet <= ALLOWED_UNMET.get(name, set()), unmet
    if "S4-prime" in refuted:
        assert_prime_product_refuted(ctx, failed["S4-prime"])
    # The report is the one `gammah verify` prints, byte for byte.
    code, digest = VERIFY_REPORTS[CORPUS_FILES[name]]
    assert hashlib.sha256((report.to_json() + "\n").encode()).hexdigest() == digest, name
    assert code == (0 if report.overall == "pass" else 1), name
    elapsed = time.perf_counter() - start
    report_line(f"criterion-4 theorem suite [{name}]", True, elapsed,
                "S4-prime refuted, witness re-checked" if refuted else "")
    assert elapsed < 60.0


def test_criterion_4_companion_only_known_defect_fails(contexts):
    """Guard: every failure across the corpus is the verified S4-prime refutation."""
    start = time.perf_counter()
    for name, ctx in contexts.items():
        report = run_suite(ctx, GRID, "all")
        for r in report.results:
            if r.status == "fail":
                assert r.check_id == "S4-prime", (name, r.check_id, r.witness)
                assert r.witness["condition"] == "prime-implication"
            elif r.status == "assumption-unmet":
                assert r.check_id in ALLOWED_UNMET.get(name, set()), (name, r.check_id)
    elapsed = time.perf_counter() - start
    report_line("criterion-4 companion (only the S4-prime refutation fails)", True, elapsed)


# --- criterion 5: h-product oracle equivalence ----------------------------------


def test_criterion_5_h_product_oracle_equivalence():
    start = time.perf_counter()
    for g in (corpus.zmod(2), corpus.boolean()):
        ps = as_product_structure(g)
        subsets = list(grid_subsets(ps.carrier, GRID))
        for mu, theta in itertools.product(subsets, repeat=2):
            assert equals(
                generalized_h_product(ps, mu, theta),
                naive_generalized_h_product(ps, mu, theta),
            ), (g.name, mu.values, theta.values)
    elapsed = time.perf_counter() - start
    report_line("criterion-5 h-product oracle equivalence", True, elapsed)
    assert elapsed < 60.0


# --- criterion 6: fault injection ------------------------------------------------


def corrupted_plus_prime(ctx, sigma):
    values = tuple(
        max(sigma.values[m.table[s]] for s in range(ctx.G.S.n)) for m in ctx.L.maps
    )
    return FuzzySubset(ctx.l_monoid, values)


def corrupted_same_sum_rows(mon):
    # "skip z": p + z == q + z degrades to p == q
    return tuple(1 << p for p in range(mon.n))


def _failed_checks(report):
    return [r for r in report.results if r.status == "fail"]


def _newly_failed(honest, corrupted):
    """Checks that pass on the honest run and fail on the corrupted one."""
    passed = {r.check_id for r in honest.results if r.status == "pass"}
    return {
        r.check_id: r for r in corrupted.results
        if r.status == "fail" and r.check_id in passed
    }


def test_criterion_6a_corrupt_plus_prime(monkeypatch):
    start = time.perf_counter()
    monkeypatch.setattr(gammah.correspondence, "plus_prime", corrupted_plus_prime)
    report = run_suite(build_context(corpus.zmod(2)), GRID, "all")
    failed = _failed_checks(report)
    elapsed = time.perf_counter() - start
    ok = bool(failed) and all(r.witness for r in failed)
    report_line("criterion-6a corrupt plus-prime", ok, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_6b_corrupt_h_scan_skip_z(monkeypatch):
    start = time.perf_counter()
    # Every carrier of the Z2 context is a group, where p + z == q + z forces
    # p == q: there the corruption equals the honest relation.
    z2 = build_context(corpus.zmod(2))
    for mon in (z2.s_monoid, z2.l_monoid, z2.r_monoid,
                z2.sxs_monoid, z2.lxl_monoid, z2.rxr_monoid):
        assert corrupted_same_sum_rows(mon) == same_sum_rows(mon), mon.name
    # On B addition is idempotent, so z matters.
    honest = run_suite(build_context(corpus.boolean()), GRID, "all")
    monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
    monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
    ctx = build_context(corpus.boolean())
    tripped = _newly_failed(honest, run_suite(ctx, GRID, "all"))
    elapsed = time.perf_counter() - start
    ok = bool(tripped) and all(r.witness for r in tripped.values())
    report_line("criterion-6b corrupt h-scan (skip z) [B]", ok, elapsed,
                ", ".join(tripped))
    assert tripped, "no check that passes honestly fails under the z-skip corruption"
    assert ok, {k: r.witness for k, r in tripped.items()}
    # The S4-prime witness takes for prime a subset of R(B) that is not even
    # a fuzzy h-ideal: it points straight at the broken h-condition.
    assert "S4-prime" in tripped, sorted(tripped)
    w = tripped["S4-prime"].witness
    source = ctx.l_ps if w["operator"] == "L" else ctx.r_ps
    assert not naive_is_fuzzy_h_ideal(
        source, _fractions(w["mu"]), "two-sided", require_top=True
    ), w
    assert elapsed < 60.0


def test_criterion_6c_corrupt_left_mul_orientation(monkeypatch):
    start = time.perf_counter()
    original = gammah.operators._compose

    def corrupted(side, m1, m2):
        if side == "left":
            return original("right", m1, m2)  # flip the left orientation
        return original(side, m1, m2)

    honest_z2 = build_operator(corpus.zmod(2), "left")
    # Composition in Mat(B,2x1)'s L does not commute, so the flip can show.
    honest = run_suite(build_context(corpus.boolean_matrix_2x1()), GRID, "all")
    monkeypatch.setattr(gammah.operators, "_compose", corrupted)
    # L(Z2) = {0, id} commutes: the flip yields the same maps and table.
    flipped_z2 = build_operator(corpus.zmod(2), "left")
    assert [m.table for m in flipped_z2.maps] == [m.table for m in honest_z2.maps]
    assert flipped_z2.mul == honest_z2.mul
    report = run_suite(build_context(corpus.boolean_matrix_2x1()), GRID, "all")
    tripped = _newly_failed(honest, report)
    elapsed = time.perf_counter() - start
    ok = bool(tripped) and all(r.witness for r in tripped.values())
    report_line("criterion-6c corrupt L multiplication orientation [Mat(B,2x1)]", ok,
                elapsed, ", ".join(tripped))
    assert tripped, "no check that passes honestly fails under the orientation flip"
    assert ok, {k: r.witness for k, r in tripped.items()}
    assert "S2-mul-law" in tripped, sorted(tripped)
    assert elapsed < 60.0


def test_fault_z_skip_caught_by_oracle_gate(monkeypatch):
    """Supplementary: the z-skip bug is caught where z matters (idempotent +)."""
    monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
    monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
    g = corpus.boolean()
    ps = as_product_structure(g)
    chi0 = FuzzySubset(ps.carrier, (Fraction(1), Fraction(0)))
    corrupted = generalized_h_product(ps, chi0, chi0)
    honest = naive_generalized_h_product(ps, chi0, chi0)
    assert not equals(corrupted, honest)
    assert honest.values == (1, 1)
    assert corrupted.values == (1, 0)


def _chi0(ps):
    return FuzzySubset(ps.carrier, (Fraction(1), Fraction(0)))


# Each h-scan of the library on B, with an input whose answer needs z.
H_SCANS = {
    "is_h_ideal": lambda ps: is_h_ideal(ps, crisp(ps.carrier, [0])).holds,
    "h_closure": lambda ps: h_closure(ps, [0]).indices(),
    "h_closure-quasi": lambda ps: h_closure(ps, [0], "quasi").indices(),
    "is_fuzzy_h_ideal": lambda ps: is_fuzzy_h_ideal(ps, _chi0(ps)).holds,
    "simple_h_product": lambda ps: simple_h_product(ps, _chi0(ps), _chi0(ps)).values,
    "generalized_h_product": lambda ps: generalized_h_product(ps, _chi0(ps), _chi0(ps)).values,
}


@pytest.mark.parametrize("scan", sorted(H_SCANS))
def test_fault_z_skip_reaches_every_h_scan(monkeypatch, scan):
    """Supplementary: every h-scan reads same_sum_rows through the patched seam."""
    ps = as_product_structure(corpus.boolean())
    honest = H_SCANS[scan](ps)
    monkeypatch.setattr(gammah.fuzzy, "same_sum_rows", corrupted_same_sum_rows)
    monkeypatch.setattr(gammah.ideals, "same_sum_rows", corrupted_same_sum_rows)
    assert H_SCANS[scan](ps) != honest


def test_fault_orientation_caught_on_noncommutative_structure(monkeypatch):
    """Supplementary: the flip trips S2-mul-law where composition does not commute."""
    original = gammah.operators._compose

    def corrupted(side, m1, m2):
        if side == "left":
            return original("right", m1, m2)
        return original(side, m1, m2)

    monkeypatch.setattr(gammah.operators, "_compose", corrupted)
    ctx = build_context(corpus.boolean_matrix_2x1())
    res = run_check("S2-mul-law", ctx, ("0", "1"))
    assert res.status == "fail"
    assert res.witness


# --- criterion 7: CLI contract ----------------------------------------------------


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_7_cli_contract(capsys):
    start = time.perf_counter()
    for name, stem in CORPUS_FILES.items():
        path = str(STRUCTURES / f"{stem}.json")

        code, out1 = _run_cli(capsys, "validate", path)
        assert code == 0 and out1.strip() == "valid", name
        _, out2 = _run_cli(capsys, "validate", path)
        assert out1 == out2

        code, ops1 = _run_cli(capsys, "operators", path)
        assert code == 0
        _, ops2 = _run_cli(capsys, "operators", path)
        assert ops1 == ops2

        code, dump = _run_cli(capsys, "operators", path, "--side", "left", "--dump-tables")
        assert code == 0
        doc = json.loads(dump)
        assert structure_to_doc(structure_from_doc(doc)) == doc  # round trip

        code, hi1 = _run_cli(capsys, "h-ideals", path)
        assert code == 0, name
        _, hi2 = _run_cli(capsys, "h-ideals", path)
        assert hi1 == hi2

        code, ver1 = _run_cli(capsys, "verify", path, "--suite", "section3")
        report = json.loads(ver1)
        assert code == (0 if report["overall"] == "pass" else 1), name
        _, ver2 = _run_cli(capsys, "verify", path, "--suite", "section3")
        assert ver1 == ver2

    # check/map contract on one structure with both outcomes
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        with open(good, "w") as fh:
            json.dump({"over": "S", "values": {"0": "1", "1": "1/2"}}, fh)
        z2 = str(STRUCTURES / "z2.json")
        b = str(STRUCTURES / "b.json")
        code, chk1 = _run_cli(capsys, "check", z2, good)
        assert code == 0 and chk1.strip() == "holds"
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"over": "S", "values": {"0": "1"}}, fh)
        code, out = _run_cli(capsys, "check", b, bad)
        assert code == 1 and "h-condition" in out
        code, map1 = _run_cli(capsys, "map", z2, good, "--dir", "plusprime")
        assert code == 0
        _, map2 = _run_cli(capsys, "map", z2, good, "--dir", "plusprime")
        assert map1 == map2
        broken = os.path.join(tmp, "broken.json")
        with open(broken, "w") as fh:
            fh.write("{")
        code, _ = _run_cli(capsys, "validate", broken)
        assert code == 2
    os.environ["GAMMAH_OPERATOR_CAP"] = "1"
    try:
        code, _ = _run_cli(capsys, "operators", str(STRUCTURES / "z2.json"))
        assert code == 3
    finally:
        del os.environ["GAMMAH_OPERATOR_CAP"]
    elapsed = time.perf_counter() - start
    report_line("criterion-7 CLI contract", True, elapsed)
    assert elapsed < 30.0
