import itertools
import random

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
    monoid_generators,
    product,
    product_monoid,
    validate_gamma_hemiring,
    validate_hemiring,
    validate_monoid,
)
from oracles import element_loop_axioms, element_loop_hemiring, spanned_submonoid


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


# Z2xZ2 as a vector space over Z2: element i is the pair of bits of i, so
# addition is XOR and the generators are 1 and 2.
V4 = product_monoid(corpus.zmod(2).S, corpus.zmod(2).S)


def _trilinear(coef) -> GammaHemiring:
    """S = Gamma = V4 acted on by the map that is additive in each argument
    and sends the basis triple (p, q, r) to coef[p][q][r]."""
    def value(a, g, b):
        out = 0
        for p, q, r in itertools.product(range(2), repeat=3):
            if a >> p & g >> q & b >> r & 1:
                out ^= coef[p][q][r]
        return out

    action = tuple(tuple(tuple(value(a, g, b) for b in range(4)) for g in range(4)) for a in range(4))
    return GammaHemiring("trilinear", V4, V4, action)


class TestGeneratorDecision:
    """validate_gamma_hemiring decides validity on the additive generators
    and names violations by the full scan; reports must equal the
    element-by-element scan."""

    def _assert_matches_element_loop(self, g):
        for cap in (16, 10_000):  # the default cap, and none
            rep = validate_gamma_hemiring(g, violation_cap=cap)
            want = element_loop_axioms(g, cap)
            assert rep.violations == want, cap
            assert rep.valid == (not want)
        return want

    def test_trilinear_tables_match_element_loop(self):
        # Axioms 1-3, 5 and 6 hold by construction, so only axiom 4 can fail,
        # and it often fails away from the generators as well.
        rng = random.Random(29)
        valid, laws, off_generators = 0, set(), 0
        for _ in range(400):
            density = rng.choice((2, 4, 8))
            coef = [[[rng.randrange(4) if rng.randrange(density) == 0 else 0 for _ in range(2)]
                     for _ in range(2)] for _ in range(2)]
            want = self._assert_matches_element_loop(_trilinear(coef))
            valid += not want
            laws |= {law for law, _ in want}
            off_generators += any("(1,1)" in w for _, w in want)
        assert laws == {"axiom-4"} and valid and off_generators, (laws, valid, off_generators)

    @pytest.mark.parametrize("law, slot", [("axiom-1", 0), ("axiom-2", 2), ("axiom-3", 1)])
    def test_law_broken_only_at_a_later_generator(self, law, slot):
        # S = Gamma = Z3xZ3, whose first generator is (0,1).  a g c lies in
        # 0xZ3 and reads only the first coordinates, where it is a.g.c mod 3
        # with one factor sent through s = (0, 1, 1), which is not additive.
        # So the broken law holds at the generator (0,1) and fails at (1,0),
        # while every product of a product is zero and axiom 4 holds.
        z3 = corpus.zmod(3).S
        mon = product_monoid(z3, z3)
        assert monoid_generators(mon) == (1, 3)
        s = (0, 1, 1)

        def value(*args):
            first = [v // 3 for v in args]
            first[slot] = s[first[slot]]
            return first[0] * first[1] * first[2] % 3

        action = tuple(tuple(tuple(value(a, g, b) for b in range(9)) for g in range(9)) for a in range(9))
        want = self._assert_matches_element_loop(GammaHemiring("broken", mon, mon, action))
        assert {w_law for w_law, _ in want} == {law}

    @pytest.mark.parametrize("law, rule", [
        ("axiom-5", lambda a, g, b: a & g),  # 1 g b = 1 for g = 1, so 1 1 0 = 1
        ("axiom-5", lambda a, g, b: g & b),  # a 1 1 = 1, so 0 1 1 = 1
        ("axiom-6", lambda a, g, b: a & b),  # 1 g 1 = 1, so 1 0 1 = 1
    ])
    def test_zero_law_broken_alone(self, boolean, law, rule):
        # On B, whose addition is idempotent, axioms 1-3 hold and axiom 4
        # holds on the generator 1; only the zero law sees the product that
        # fails to vanish (axiom 4 fails too, but only at a zero argument).
        action = tuple(tuple(tuple(rule(a, g, b) for b in range(2)) for g in range(2)) for a in range(2))
        want = self._assert_matches_element_loop(GammaHemiring("B", boolean.S, boolean.Gamma, action))
        laws = {w_law for w_law, _ in want}
        assert law in laws and laws <= {law, "axiom-4"}, laws
        assert all("0" in w for w_law, w in want if w_law == "axiom-4")

    def test_matches_element_loop_under_single_cell_corruption_off_diagonal(self):
        # S (1x2 matrices) and Gamma (2x1) differ and have two generators each.
        g = matrix_gamma_hemiring(corpus.zmod_hemiring(2), 1, 2)
        assert len(monoid_generators(g.S)) == len(monoid_generators(g.Gamma)) == 2
        assert g.S.elements != g.Gamma.elements
        ns, ng = g.S.n, g.Gamma.n
        seen_laws = set()
        for a, ga, b in itertools.product(range(ns), range(ng), range(ns)):
            for v in range(ns):
                if v == g.action[a][ga][b]:
                    continue
                action = [list(map(list, plane)) for plane in g.action]
                action[a][ga][b] = v
                bad = GammaHemiring(g.name, g.S, g.Gamma, tuple(tuple(map(tuple, p)) for p in action))
                want = self._assert_matches_element_loop(bad)
                assert want, ((a, ga, b), v)
                seen_laws |= {law for law, _ in want}
        assert {"axiom-1", "axiom-2", "axiom-3", "axiom-4"} <= seen_laws, seen_laws


GENERATOR_MONOIDS = {
    "Z1": corpus.zmod(1).S,
    **{f"Z{n}": corpus.zmod(n).S for n in (2, 3, 6, 12)},
    "B": corpus.boolean().S,
    "max3": FiniteMonoid(("0", "1", "2"), 0, tuple(tuple(max(a, b) for b in range(3)) for a in range(3))),
    "V4": V4,
    "Z2xZ3": product_monoid(corpus.zmod(2).S, corpus.zmod(3).S),
    "BxB": product_monoid(corpus.boolean().S, corpus.boolean().S),
    "Z2xZ2": corpus.z2xz2().S,
    "UT2(Z2)": corpus.upper_triangular().S,
    "Mat(B,2x1)": corpus.boolean_matrix_2x1().S,
    "Mat(Z3,2x1)": matrix_gamma_hemiring(corpus.zmod_hemiring(3), 2, 1).S,
    "Mat(Z2,2x2)": matrix_gamma_hemiring(corpus.zmod_hemiring(2), 2, 2).S,
}


class TestMonoidGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATOR_MONOIDS))
    def test_generators_span_and_are_independent_in_order(self, name):
        mon = GENERATOR_MONOIDS[name]
        gens = monoid_generators(mon)
        assert list(gens) == sorted(set(gens)) and mon.zero not in gens
        assert spanned_submonoid(mon, gens) == set(range(mon.n))
        # The walk takes x exactly when the generators before it miss it, so
        # no generator is a sum of earlier ones.
        for x in range(mon.n):
            earlier = [y for y in gens if y < x]
            assert (x in gens) == (x not in spanned_submonoid(mon, earlier)), (name, x)

    def test_known_generators(self):
        for n in (2, 5, 12, 24):
            assert monoid_generators(corpus.zmod(n).S) == (1,)
        assert monoid_generators(corpus.zmod(1).S) == ()
        assert len(monoid_generators(corpus.z2xz2().S)) == 2
        assert len(monoid_generators(GENERATOR_MONOIDS["Mat(Z3,2x1)"])) == 2


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
