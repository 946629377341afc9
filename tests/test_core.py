import pytest

from gammah import corpus
from gammah.core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    StructureError,
    as_product_structure,
    from_hemiring,
    matrix_gamma_hemiring,
    product,
    validate_gamma_hemiring,
    validate_hemiring,
    validate_monoid,
)
from oracles import element_loop_axioms, element_loop_hemiring


def mono(elements, zero, add, name=""):
    return FiniteMonoid(tuple(elements), zero, tuple(map(tuple, add)), name)


Z2_MONOID = mono(["0", "1"], 0, [[0, 1], [1, 0]])
MAX_MONOID = mono(["0", "1"], 0, [[0, 1], [1, 1]])


class TestValidateMonoid:
    def test_z2_is_valid(self):
        assert validate_monoid(Z2_MONOID).valid

    def test_boolean_max_is_valid(self):
        assert validate_monoid(MAX_MONOID).valid

    def test_broken_zero_neutral_reports_witness(self):
        bad = mono(["0", "1"], 0, [[0, 0], [1, 0]])
        rep = validate_monoid(bad)
        assert not rep.valid
        assert ("zero-neutral", ("1",)) in rep.violations

    def test_noncommutative_reported(self):
        bad = mono(["0", "1"], 0, [[0, 1], [0, 0]])
        rep = validate_monoid(bad)
        assert any(law == "commutative" for law, _ in rep.violations)

    def test_nonassociative_reported(self):
        bad = mono(["0", "1", "2"], 0, [[0, 1, 2], [1, 2, 2], [2, 2, 1]])
        rep = validate_monoid(bad)
        assert any(law == "associative" for law, _ in rep.violations)

    def test_malformed_shape_raises(self):
        bad = mono(["0", "1"], 0, [[0, 1]])
        with pytest.raises(StructureError):
            validate_monoid(bad)

    def test_out_of_range_entry_raises(self):
        bad = mono(["0", "1"], 0, [[0, 1], [1, 5]])
        with pytest.raises(StructureError):
            validate_monoid(bad)

    def test_duplicate_labels_reported(self):
        bad = mono(["0", "0"], 0, [[0, 1], [1, 0]])
        rep = validate_monoid(bad)
        assert any(law == "label-unique" for law, _ in rep.violations)

    def test_violation_cap_respected(self):
        bad = mono(["0", "1", "2"], 1, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        rep = validate_monoid(bad, violation_cap=2)
        assert len(rep.violations) == 2


class TestValidateGammaHemiring:
    def test_corpus_structures_all_validate(self, all_corpus):
        for g in all_corpus:
            assert validate_gamma_hemiring(g).valid, g.name

    def test_zero_action_validates(self):
        assert validate_gamma_hemiring(corpus.zero_action(3)).valid

    def test_broken_zero_annihilation(self, boolean):
        action = [list(map(list, plane)) for plane in boolean.action]
        action[0][1][1] = 1  # 0 . 1 . 1 should stay 0
        bad = GammaHemiring("bad", boolean.S, boolean.Gamma, tuple(tuple(map(tuple, p)) for p in action))
        rep = validate_gamma_hemiring(bad)
        assert not rep.valid
        assert any(law == "axiom-5" for law, _ in rep.violations)

    def test_carrier_failure_short_circuits(self, boolean):
        bad_s = mono(["0", "1"], 0, [[0, 0], [1, 0]])
        bad = GammaHemiring("bad", bad_s, boolean.Gamma, boolean.action)
        rep = validate_gamma_hemiring(bad)
        assert not rep.valid
        assert all(law.startswith("S:") for law, _ in rep.violations)

    def test_cell_cap(self, boolean, monkeypatch):
        monkeypatch.setenv("GAMMAH_CELL_CAP", "1")
        with pytest.raises(CapacityError):
            validate_gamma_hemiring(boolean)

    @pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Mat(B,2x1)"])
    def test_matches_element_loop_under_single_cell_corruption(self, all_corpus, name):
        # Axiom-4 compares whole rows; every report must still equal the
        # element-by-element scan, in its order and up to its cap.
        g = next(g for g in all_corpus if g.name == name)
        ns, ng = g.S.n, g.Gamma.n
        seen_laws, capped = set(), 0
        for a in range(ns):
            for ga in range(ng):
                for b in range(ns):
                    for v in range(ns):
                        if v == g.action[a][ga][b]:
                            continue
                        action = [list(map(list, plane)) for plane in g.action]
                        action[a][ga][b] = v
                        bad = GammaHemiring(g.name, g.S, g.Gamma,
                                            tuple(tuple(map(tuple, p)) for p in action))
                        for cap in (16, 10_000):  # the default cap, and none
                            rep = validate_gamma_hemiring(bad, violation_cap=cap)
                            want = element_loop_axioms(bad, cap)
                            assert rep.violations == want, ((a, ga, b), v, cap)
                            assert rep.valid == (not want)
                        seen_laws |= {law for law, _ in want}
                        capped += len(want) > 16
        assert "axiom-4" in seen_laws and capped, (seen_laws, capped)


class TestValidateHemiring:
    HEMIRINGS = {
        "B": corpus.boolean_hemiring,
        "Z3": lambda: corpus.zmod_hemiring(3),
        "Z4": lambda: corpus.zmod_hemiring(4),
        "UT2(Z2)": corpus.upper_triangular_hemiring,
    }

    @pytest.mark.parametrize("name", sorted(HEMIRINGS))
    def test_matches_element_loop_under_single_cell_corruption(self, name):
        # The laws are compared as whole rows; every report must still equal
        # the element-by-element scan, in its order and up to its cap.
        h = self.HEMIRINGS[name]()
        seen_laws, capped = set(), 0
        for a in range(h.n):
            for b in range(h.n):
                for v in range(h.n):
                    if v == h.mul[a][b]:
                        continue
                    mul = [list(row) for row in h.mul]
                    mul[a][b] = v
                    bad = type(h)(h.elements, h.zero, h.add, tuple(map(tuple, mul)), h.name)
                    for cap in (16, 10_000):  # the default cap, and none
                        rep = validate_hemiring(bad, violation_cap=cap)
                        want = element_loop_hemiring(bad, cap)
                        assert rep.violations == want, ((a, b), v, cap)
                        assert rep.valid == (not want)
                    seen_laws |= {law for law, _ in want}
                    capped += len(want) > 16
        assert validate_hemiring(h).valid
        # On B no single cell breaks associativity, and no report reaches the cap.
        laws = {"left-distributive", "right-distributive"}
        laws |= {"mul-associative"} if h.n > 2 else set()
        assert laws <= seen_laws and (capped or h.n == 2), (seen_laws, capped)


class TestFromHemiring:
    def test_z2_ring(self, z2):
        g = from_hemiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], ["0", "1"], name="Z2")
        assert g.action == z2.action
        assert validate_gamma_hemiring(g).valid

    def test_boolean_semiring(self, boolean):
        g = from_hemiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], ["0", "1"], name="B")
        assert g.action == boolean.action

    def test_trivial_hemiring(self):
        g = from_hemiring([[0]], [[0]], ["0"])
        assert validate_gamma_hemiring(g).valid
        assert g.S.n == 1

    def test_invalid_tables_raise_with_report(self):
        with pytest.raises(StructureError) as err:
            from_hemiring([[0, 1], [1, 0]], [[0, 1], [0, 1]], ["0", "1"])
        assert err.value.report is not None


class TestProduct:
    def test_z2_squared_validates(self, z2):
        g = product(z2, z2)
        assert g.S.n == 4
        assert validate_gamma_hemiring(g).valid

    def test_boolean_squared_action_is_componentwise_min(self, boolean):
        g = product(boolean, boolean)
        idx = {e: i for i, e in enumerate(g.S.elements)}
        a, b = idx["(1,0)"], idx["(1,1)"]
        # (1,0) . 1 . (1,1) = (1,0)
        assert g.S.elements[g.action[a][1][b]] == "(1,0)"
        assert g.S.elements[g.action[a][0][b]] == "(0,0)"

    def test_neutral_factor_is_isomorphic(self, z2):
        one = from_hemiring([[0]], [[0]], ["e"])
        one = GammaHemiring("one", one.S, z2.Gamma, tuple(tuple(tuple(0 for _ in range(1)) for _ in range(2)) for _ in range(1)))
        assert validate_gamma_hemiring(one).valid
        g = product(z2, one)
        # pair index (x,e) coincides with x, so the tables match outright
        assert g.action == z2.action
        assert g.S.add == z2.S.add

    def test_gamma_mismatch_rejected(self, z2, z3):
        with pytest.raises(StructureError):
            product(z2, z3)

    def test_product_commutes_up_to_swap(self, z2, boolean):
        b2 = GammaHemiring("B2", boolean.S, z2.Gamma, boolean.action)
        left = product(z2, b2)
        right = product(b2, z2)
        n1, n2 = z2.S.n, b2.S.n
        swap = [j * n1 + i for i in range(n1) for j in range(n2)]
        for x in range(left.S.n):
            for g in range(left.Gamma.n):
                for y in range(left.S.n):
                    assert swap[left.action[x][g][y]] == right.action[swap[x]][g][swap[y]]


class TestMatrix:
    def test_boolean_2x1_shape(self, mat_b):
        assert mat_b.S.n == 4
        assert mat_b.Gamma.n == 4
        assert validate_gamma_hemiring(mat_b).valid

    def test_1x1_is_base_hemiring(self, boolean):
        m = matrix_gamma_hemiring(corpus.boolean_hemiring(), 1, 1)
        assert m.S.add == boolean.S.add
        assert m.action == boolean.action

    def test_z2_1x2(self):
        m = matrix_gamma_hemiring(corpus.zmod_hemiring(2), 1, 2)
        assert m.S.n == 4 and m.Gamma.n == 4
        assert validate_gamma_hemiring(m).valid

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("GAMMAH_CELL_CAP", "100")
        with pytest.raises(CapacityError):
            matrix_gamma_hemiring(corpus.boolean_hemiring(), 2, 2)

    def test_bad_dimensions(self):
        with pytest.raises(StructureError):
            matrix_gamma_hemiring(corpus.boolean_hemiring(), 0, 1)


class TestProductStructure:
    def test_boolean_pair_products(self, boolean):
        ps = as_product_structure(boolean)
        assert ps.pair_products[1][1] == (0, 1)

    def test_zero_absorbs(self, all_corpus):
        for g in all_corpus:
            ps = as_product_structure(g)
            for b in range(g.S.n):
                assert ps.pair_products[g.S.zero][b] == (g.S.zero,)

    def test_operator_hemiring_products_are_singletons(self, ctx_z2):
        ps = ctx_z2.l_ps
        one = ps.carrier.index_of("op1")
        assert ps.pair_products[one][one] == (one,)


def test_validate_hemiring_rejects_broken_distributivity():
    h = corpus.zmod_hemiring(3)
    mul = [list(r) for r in h.mul]
    mul[1][2] = 0
    bad = type(h)(h.elements, h.zero, h.add, tuple(map(tuple, mul)), "bad")
    rep = validate_hemiring(bad)
    assert not rep.valid
