import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammah.cli import main, structure_from_doc, structure_to_doc

STRUCTURES = Path(__file__).resolve().parents[1] / "structures"


@pytest.fixture
def capout(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def spath(name: str) -> str:
    return str(STRUCTURES / f"{name}.json")


def write_fuzzy(tmp_path, doc, name="mu.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_structure(self, capout):
        code, out, _ = capout("validate", spath("b"))
        assert code == 0
        assert out.strip() == "valid"

    def test_broken_axiom_exits_one(self, capout, tmp_path):
        doc = json.loads(Path(spath("b")).read_text())
        doc["action"][0][1][1] = "1"  # zero row must stay zero
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = capout("validate", str(path))
        assert code == 1
        assert "axiom-5" in out

    def test_malformed_json_exits_two(self, capout, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = capout("validate", str(path))
        assert code == 2
        assert "error:" in err

    def test_unknown_label_exits_two(self, capout, tmp_path):
        doc = json.loads(Path(spath("z2")).read_text())
        doc["action"][0][0][0] = "7"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = capout("validate", str(path))
        assert code == 2

    def test_missing_file_exits_two(self, capout):
        code, _, err = capout("validate", "/nonexistent.json")
        assert code == 2


class TestOperators:
    def test_z2_summary(self, capout):
        code, out, _ = capout("operators", spath("z2"))
        assert code == 0
        assert "|L|=2" in out
        assert "strong left unity [1,1]" in out
        assert "strong right unity [1,1]" in out
        assert "op0 = " in out

    def test_matrix_left_unity_not_strong(self, capout):
        code, out, _ = capout("operators", spath("mat_b_2x1"), "--side", "left")
        assert code == 0
        assert "|L|=16" in out
        assert "left unity (2 terms), not strong" in out

    def test_dump_round_trip(self, capout):
        code, out, _ = capout("operators", spath("z4"), "--side", "left", "--dump-tables")
        assert code == 0
        doc = json.loads(out)
        reparsed = structure_from_doc(doc)
        assert structure_to_doc(reparsed) == doc

    def test_dump_requires_single_side(self, capout):
        code, _, err = capout("operators", spath("z2"), "--dump-tables")
        assert code == 2

    def test_capacity_exit(self, capout, monkeypatch):
        monkeypatch.setenv("GAMMAH_OPERATOR_CAP", "1")
        code, _, err = capout("operators", spath("z2"))
        assert code == 3
        assert "capacity" in err


class TestLargeClosures:
    """Structures past the corpus: exit codes and output, not hangs or crashes."""

    @staticmethod
    def write_matrix(tmp_path, n):
        from gammah import corpus
        from gammah.core import matrix_gamma_hemiring

        path = tmp_path / f"mat_z{n}.json"
        g = matrix_gamma_hemiring(corpus.zmod_hemiring(n), 2, 1)
        path.write_text(json.dumps(structure_to_doc(g)))
        return str(path)

    def test_operators_on_mat_z4(self, capout, tmp_path):
        code, out, _ = capout("operators", self.write_matrix(tmp_path, 4))
        assert code == 0
        assert "|L|=256" in out.splitlines()

    def test_dump_tables_respects_cell_cap(self, capout, monkeypatch):
        # |L| = 16 on Mat(B,2x1): its action table holds 16^3 = 4096 cells.
        monkeypatch.setenv("GAMMAH_CELL_CAP", "100")
        code, out, err = capout("operators", spath("mat_b_2x1"), "--side", "left", "--dump-tables")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("capacity:")

    def test_verify_family_cap_exits_three(self, capout, monkeypatch):
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "1")
        code, out, err = capout("verify", spath("z2"))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("capacity:")

    @pytest.mark.parametrize("argv", [("verify",), ("check", "prime")], ids="-".join)
    def test_family_cap_out_of_range(self, capout, tmp_path, monkeypatch, argv):
        # A cap past sys.maxsize is no limit. A negative cap admits no chain,
        # as a negative operator or cell cap admits no map or cell.
        command, *kind = argv
        files = [spath("z2")]
        if kind:
            files.append(write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}}))
            kind = ["--kind", kind[0]]
        expected = capout(command, *files, *kind)
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "99999999999999999999999")
        assert capout(command, *files, *kind) == expected
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "-5")
        code, out, err = capout(command, *files, *kind)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("capacity:")

    def test_pair_carrier_over_cell_cap_exits_three(self, capout, tmp_path, monkeypatch):
        # Validating Z2 takes 2*2*2 = 8 cells; the addition table of its
        # SxS takes (2*2)^2 = 16.
        monkeypatch.setenv("GAMMAH_CELL_CAP", "15")
        mu = write_fuzzy(tmp_path, {"over": "SxS", "values": {"(0,0)": "1"}})
        code, out, err = capout("check", spath("z2"), mu)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("capacity:")

    def test_verify_on_mat_z3_hits_capacity(self, capout, tmp_path):
        code, out, err = capout("verify", self.write_matrix(tmp_path, 3))
        assert code == 3
        assert err.startswith("capacity:")
        assert out == ""


class TestHIdeals:
    def test_z4_three_rows(self, capout):
        code, out, _ = capout("h-ideals", spath("z4"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h-ideals(S)=3 h-ideals(L)=3 h-ideals(R)=3"
        assert lines[-1] == "bijection: verified"
        assert "{0,2}" in out

    def test_boolean_single_row(self, capout):
        code, out, _ = capout("h-ideals", spath("b"))
        assert code == 0
        assert "h-ideals(S)=1" in out

    def test_z2_two_rows(self, capout):
        code, out, _ = capout("h-ideals", spath("z2"))
        assert code == 0
        assert "h-ideals(S)=2" in out


class TestCheck:
    def test_h_ideal_holds(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1/2"}})
        code, out, _ = capout("check", spath("z2"), mu)
        assert code == 0
        assert out.strip() == "holds"

    def test_h_ideal_fails_with_witness(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}})
        code, out, _ = capout("check", spath("b"), mu)
        assert code == 1
        assert "h-condition" in out
        assert "x=1" in out

    def test_prime_constant_rejected(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1"}})
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "prime")
        assert code == 1
        assert "non-constant" in out

    def test_prime_relative_to_family(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}})
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "prime")
        assert code == 0
        assert "relative-to-family" in out

    def test_check_over_operator_carrier(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "L", "values": {"op0": "1", "op1": "1/2"}})
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "bi")
        assert code == 0

    def test_check_over_square_carrier(self, capout, tmp_path):
        mu = write_fuzzy(
            tmp_path,
            {"over": "SxS", "values": {"(0,0)": "1", "(1,0)": "1/2"}},
        )
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "h-ideal")
        assert code == 0 and out.strip() == "holds"

    def test_check_one_sided(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1/2"}})
        code, out, _ = capout("check", spath("z2"), mu, "--side", "left")
        assert code == 0

    def test_quasi_kind(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1/2"}})
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "quasi")
        assert code == 0

    def test_structure_name_mismatch(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "structure": "Z9", "values": {}})
        code, _, err = capout("check", spath("z2"), mu)
        assert code == 2

    def test_bad_value_exits_two(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "5/2"}})
        code, _, err = capout("check", spath("z2"), mu)
        assert code == 2

    def test_unknown_label_exits_two(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"q": "1"}})
        code, _, err = capout("check", spath("z2"), mu)
        assert code == 2

    def test_repeated_pair_labels_exit_two(self, capout, tmp_path):
        # Z2 with 1 relabelled "0,0": the pairs (0, 0,0) and (0,0, 0) both
        # get the label "(0,0,0)".
        doc = json.loads(Path(spath("z2")).read_text())
        relabel = {"0": "0", "1": "0,0"}
        s = doc["S"]
        s["elements"] = [relabel[e] for e in s["elements"]]
        s["add"] = [[relabel[e] for e in row] for row in s["add"]]
        doc["action"] = [[[relabel[e] for e in row] for row in plane] for plane in doc["action"]]
        path = tmp_path / "z2_relabelled.json"
        path.write_text(json.dumps(doc))
        pair = write_fuzzy(tmp_path, {"over": "SxS", "values": {"(0,0,0)": "1"}}, "pair.json")
        code, out, err = capout("check", str(path), pair)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "SxS" in err
        single = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "0,0": "1/2"}}, "s.json")
        code, out, _ = capout("check", str(path), single)
        assert (code, out.strip()) == (0, "holds")


class TestMap:
    def test_plus_prime_example(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1/2"}})
        code, out, _ = capout("map", spath("z2"), mu, "--dir", "plusprime")
        assert code == 0
        doc = json.loads(out)
        assert doc["over"] == "L"
        assert doc["values"] == {"op0": "1", "op1": "1/2"}

    def test_top_maps_to_top(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1", "1": "1"}})
        code, out, _ = capout("map", spath("z2"), mu, "--dir", "plusprime")
        doc = json.loads(out)
        assert set(doc["values"].values()) == {"1"}

    def test_plus_direction(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "L", "values": {"op0": "1", "op1": "1/3"}})
        code, out, _ = capout("map", spath("z2"), mu, "--dir", "plus")
        doc = json.loads(out)
        assert doc["over"] == "S"
        assert doc["values"] == {"0": "1", "1": "1/3"}

    def test_wrong_carrier_exits_two(self, capout, tmp_path):
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}})
        code, _, err = capout("map", spath("z2"), mu, "--dir", "plus")
        assert code == 2

    def test_decimal_values_are_exact(self, capout, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text('{"over": "S", "values": {"0": 1, "1": 0.1}}')
        code, out, _ = capout("map", spath("z2"), str(path), "--dir", "plusprime")
        assert code == 0
        assert json.loads(out)["values"] == {"op0": "1", "op1": "1/10"}


class TestVerify:
    def test_boolean_all_green(self, capout):
        code, out, _ = capout("verify", spath("b"))
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] == "pass"
        assert all(r["ms"] == 0 for r in doc["results"])

    def test_section_flag(self, capout, monkeypatch):
        code, out, _ = capout("verify", spath("z2"), "--suite", "section2")
        assert code == 0
        doc = json.loads(out)
        assert [r["id"] for r in doc["results"]] == [
            "S2-axioms",
            "S2-embed-additive",
            "S2-mul-law",
            "S2-oplus",
            "S2-gamma-subset",
        ]
        # Section 2 enumerates no family, so a family cap cannot end it.
        monkeypatch.setenv("GAMMAH_FUZZY_CANDIDATE_CAP", "1")
        assert capout("verify", spath("z2"), "--suite", "section2") == (0, out, "")

    def test_byte_stable_output(self, capout):
        _, first, _ = capout("verify", spath("z2"), "--suite", "section3")
        _, second, _ = capout("verify", spath("z2"), "--suite", "section3")
        assert first == second

    def test_bad_grid_exits_two(self, capout):
        code, _, err = capout("verify", spath("z2"), "--grid", "1,0")
        assert code == 2

    def test_corrupted_harness_exits_one(self, capout, monkeypatch):
        import gammah.correspondence as corr
        from gammah.fuzzy import FuzzySubset

        def corrupted(ctx, sigma):
            values = tuple(
                max(sigma.values[m.table[s]] for s in range(ctx.G.S.n))
                for m in ctx.L.maps
            )
            return FuzzySubset(ctx.l_monoid, values)

        monkeypatch.setattr(corr, "plus_prime", corrupted)
        code, out, _ = capout("verify", spath("z2"), "--suite", "section3")
        assert code == 1
        doc = json.loads(out)
        assert doc["overall"] == "fail"
        failed = [r for r in doc["results"] if r["status"] == "fail"]
        assert failed and all(r["witness"] for r in failed)


class TestExitCodeContract:
    """Malformed input exits 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("S", "add"), 5),
            (("action",), [5, 6]),
            (("Gamma", "elements"), [["0"], "1"]),
            (("name",), 5),
            (("name",), ["x"]),
            (("name",), None),
        ],
    )
    def test_malformed_structure(self, capout, tmp_path, path, value):
        doc = json.loads(Path(spath("z2")).read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        code, _, err = capout("validate", str(target))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("S", []), ("Gamma", "x")])
    def test_carrier_not_an_object(self, capout, tmp_path, field, value):
        doc = json.loads(Path(spath("z2")).read_text())
        doc[field] = value
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        code, out, err = capout("validate", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: {field}: must be a JSON object\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"values": {"0": null}}',
            '{"values": {"0": [1]}}',
            '{"values": {"0": 1e400}}',
            '{"values": {"0": Infinity}}',
            '{"over": ["S"]}',
            '{"values": {"0": 1e-999999999}}',
            '{"values": {"0": "1e-999999999"}}',
            '{"values": {"0": true, "1": false}}',
            '{"values": {"0": "1", "1": true}}',
        ],
    )
    def test_malformed_fuzzy(self, capout, tmp_path, text):
        path = tmp_path / "mu.json"
        path.write_text(text)
        code, _, err = capout("check", spath("z2"), str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_long_grid(self, capout, tmp_path):
        # 1199 positive levels, past the interpreter's recursion limit.
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1/2"}})
        grid = ",".join(f"{i}/1199" for i in range(1200))
        code, out, err = capout("check", spath("z2"), mu, "--kind", "prime", "--grid", grid)
        assert (code, out, err) == (1, "fails: h-ideal:top-at-zero zero=0, value=1/2\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify",),
            ("check", "prime"),
            ("check", "semiprime"),
            ("check", "h-ideal"),
            ("check", "bi"),
            ("check", "quasi"),
        ],
        ids="-".join,
    )
    def test_bad_grid_rejected_before_context(self, capout, tmp_path, monkeypatch, argv):
        # The grid is read before the operator closures are built, so a
        # closure cap of 1 does not hide the input error behind exit 3.
        monkeypatch.setenv("GAMMAH_OPERATOR_CAP", "1")
        command, *kind = argv
        files = [spath("z2")]
        if kind:
            files.append(write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}}))
            kind = ["--kind", kind[0]]
        code, out, err = capout(command, *files, *kind, "--grid", "1,0")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad grid") and err.count("\n") == 1

    def test_failing_candidate_enumerates_no_family(self, capout, tmp_path, monkeypatch):
        import gammah.cli

        calls = []
        enumerate_family = gammah.cli.enumerate_fuzzy_h_ideals

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_family(*args, **kwargs)

        monkeypatch.setattr(gammah.cli, "enumerate_fuzzy_h_ideals", counted)
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1/2"}})
        for kind in ("prime", "semiprime"):
            code, out, err = capout("check", spath("z2"), mu, "--kind", kind)
            assert (code, out, err) == (1, "fails: h-ideal:top-at-zero zero=0, value=1/2\n", "")
        assert calls == []
        mu = write_fuzzy(tmp_path, {"over": "S", "values": {"0": "1"}})
        code, out, _ = capout("check", spath("z2"), mu, "--kind", "prime")
        assert (code, out) == (0, "holds (relative-to-family)\n")
        assert len(calls) == 1

    def test_huge_grid_exponent(self, capout):
        code, _, err = capout("verify", spath("b"), "--grid", "0,1e-999999999,1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "env, argv",
        [
            ("GAMMAH_OPERATOR_CAP", ("operators", spath("z2"))),
            ("GAMMAH_IDEAL_CARRIER_CAP", ("h-ideals", spath("z2"))),
        ],
    )
    def test_non_integer_cap(self, capout, monkeypatch, env, argv):
        monkeypatch.setenv(env, "abc")
        code, _, err = capout(*argv)
        assert code == 2
        assert env in err


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(),
        st.sampled_from(["0", "1", "1/2", "2", "x", "op0", "S", "L", "SxS"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "x", "over", "values"]), inner, max_size=3),
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def mutated(draw, base):
    """base with one to three nodes replaced by arbitrary JSON, or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _exit_code(tmp_dir, doc, *argv) -> int:
    path = tmp_dir / "doc.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([a if a != "DOC" else str(path) for a in argv])


Z2_DOC = json.loads((STRUCTURES / "z2.json").read_text())
FUZZY_DOC = {"over": "S", "structure": "Z2", "values": {"0": "1", "1": "1/2"}}
KINDS = ["h-ideal", "bi", "quasi", "prime", "semiprime"]


class TestFuzzedInputs:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=mutated(Z2_DOC))
    def test_mutated_structure(self, tmp_path_factory, doc):
        tmp = tmp_path_factory.mktemp("structure")
        assert _exit_code(tmp, doc, "validate", "DOC") in (0, 1, 2, 3)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=mutated(FUZZY_DOC), kind=st.sampled_from(KINDS))
    def test_mutated_fuzzy(self, tmp_path_factory, doc, kind):
        tmp = tmp_path_factory.mktemp("fuzzy")
        assert _exit_code(tmp, doc, "check", spath("z2"), "DOC", "--kind", kind) in (0, 1, 2, 3)
