from __future__ import annotations

import json
import time

import pytest

from sextic_strata.cli import MAX_TABLE_ROWS, main
from sextic_strata.errors import BudgetExceededError, ProfileNotInTable
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, variables
from sextic_strata.kronecker import MAX_MODULE_ENTRIES
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.presentation import (
    MAX_CELL_DEGREE,
    MAX_LOAD_CELLS,
    MAX_LOAD_COEFFICIENTS,
    Presentation,
    load,
    save,
)
from sextic_strata.rng import SplitMix64
from sextic_strata.sampler import SampleRequest, random_form, sample
from sextic_strata.strata import SHAPES, StratumLabel, classify, validate_shape
from sextic_strata.verify import DEFAULT_SEED


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    if code != 0:
        # every error document is schema-versioned
        assert json.loads(out)["schema_version"] == 1, out
    return code, out


def test_sample_then_classify(tmp_path, capsys):
    f = tmp_path / "x5.json"
    code, _ = run(capsys, "sample", "--stratum", "X5", "--field", "p:101", "--seed", "7", "--out", str(f))
    assert code == 0
    code, out = run(capsys, "classify", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "X5"
    assert doc["profile"] == [1, 3, 4, 1]


def test_sample_rational_then_classify(tmp_path, capsys):
    f = tmp_path / "x3.json"
    code, _ = run(capsys, "sample", "--stratum", "X3", "--field", "rational", "--seed", "7", "--out", str(f))
    assert code == 0
    code, out = run(capsys, "classify", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "X3"
    assert doc["profile"] == [0, 2, 2, 0]
    assert doc["violations"] == []


def test_classify_conic_exit_code(tmp_path, capsys):
    # O(-2) -> O has the X0 profile but Hilbert polynomial 2m+1
    field = GF(101)
    X, Y, Z = variables(field)
    P = Presentation((-2,), (0,), PolyMatrix(field, [[X * X + Y * Z]]))
    f = tmp_path / "conic.json"
    save(P, f)
    code, out = run(capsys, "classify", str(f))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ProfileNotInTable"
    assert doc["profile"] == [0, 0, 0, 0]
    assert doc["hilbert"] == [2, 1]
    assert doc["message"] == (
        "profile (0, 0, 0, 0) with Hilbert polynomial 2m+1 is not in the table (needs 6m+1)"
    )


def _best_seconds(call, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("shift", [20, 40])
def test_shifted_twists_rejected_in_bounded_time(tmp_path, capsys, shift):
    # Shifting every twist keeps the cells and det phi but moves chi off 1.
    # The profile is read off the twists, so rejecting it costs the same at
    # any shift; section matrices at these twists have hundreds to
    # thousands of rows.
    X5 = sample(SampleRequest(StratumLabel.X5, GF(101), seed=1))
    P = Presentation([s + shift for s in X5.source], [d + shift for d in X5.target], X5.matrix)
    f = tmp_path / "shifted.json"
    save(P, f)

    def classify_call():
        with pytest.raises(ProfileNotInTable):
            classify(P)

    def cli_call():
        code, out = run(capsys, "classify", str(f))
        assert code == 2
        assert json.loads(out)["error"] == "ProfileNotInTable"

    assert _best_seconds(classify_call) < 0.010
    assert _best_seconds(cli_call) < 0.010


def test_classify_rejects_det_zero(tmp_path, capsys):
    field = GF(101)
    X, Y, Z = variables(field)
    P = Presentation((-1, -1), (0, 0), PolyMatrix(field, [[X, X], [Y, Y]]))
    f = tmp_path / "bad.json"
    save(P, f)
    code, out = run(capsys, "classify", str(f))
    assert code == 2
    assert json.loads(out)["kind"] == "classification_error"


def test_classify_off_table_exit_code(tmp_path, capsys):
    field = GF(101)
    X, Y, Z = variables(field)
    sextic = X * X * X * X * X * X
    P = Presentation((-6,), (0,), PolyMatrix(field, [[sextic]]))
    f = tmp_path / "sextic.json"
    save(P, f)
    code, out = run(capsys, "classify", str(f))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ProfileNotInTable"
    assert "profile" in doc


def test_classify_not_semistable_exit_code(tmp_path, capsys):
    # X5 shape with l | q: the profile is on the X5 row, the cokernel is unstable
    field = GF(101)
    X, Y, Z = variables(field)
    h, g = Z * Z * Z * Z, Y * Y * Y * Y * Y
    P = Presentation((-4, -1), (0, 1), PolyMatrix(field, [[h, X], [g, X * Y]]))
    f = tmp_path / "x5_unstable.json"
    save(P, f)
    code, out = run(capsys, "classify", str(f))
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "classification_error"
    assert doc["error"] == "NotSemistable"
    assert doc["profile"] == [1, 3, 4, 1]
    assert doc["violations"] == ["l divides q"]


def test_malformed_file_exit_code(tmp_path, capsys):
    x5_zero_denominator = {
        "format_version": 1, "field": {"kind": "rational"},
        "source_twists": [-4, -1], "target_twists": [0, 1],
        "matrix": [[[["1/0", 0, 0, 4]], []], [[], []]],
    }
    field_not_an_object = dict(x5_zero_denominator, field=[])
    x5 = {
        "format_version": 1, "field": {"kind": "prime", "p": 101},
        "source_twists": [-4, -1], "target_twists": [0, 1],
        "matrix": [[[[1, 0, 0, 4]], [[1, 1, 0, 0]]], [[], [[1, 0, 2, 0]]]],
    }

    def with_cell_01(cell, **changes):
        return dict(x5, matrix=[[x5["matrix"][0][0], cell], x5["matrix"][1]], **changes)

    # each of these used to be read silently: 1.5 and true as 1, -4.7 as -4,
    # 101.9 as 101, a repeated monomial's later entry over the earlier, and
    # monomials of the wrong degree under a zero coefficient
    not_strict = [
        with_cell_01([[1, 1, 0, 0], [0, 5, 0, 0]]),
        with_cell_01([[1, 1, 0, 0], [0, -1, 1, 1]]),
        with_cell_01([[1, 1.5, 0, 0]]),
        with_cell_01([[1, True, 0, 0]]),
        with_cell_01([[True, 1, 0, 0]]),
        with_cell_01([[True, 1, 0, 0]], field={"kind": "rational"}),
        with_cell_01([[1, 1, 0, 0], [2, 1, 0, 0]]),
        dict(x5, format_version=True),
        dict(x5, source_twists=[-4.7, -1]),
        dict(x5, field={"kind": "prime", "p": 101.9}),
        # and an empty object as a zero cell
        with_cell_01({}),
    ]
    malformed_terms = [
        with_cell_01([[1, 1, 0]]),
        with_cell_01(5),
        with_cell_01([[1, 2**70, 0, 0]]),
        dict(x5, source_twists=[0], target_twists=[-1], matrix=[[[[1, 0, 0, 0]]]]),
        with_cell_01([[1, "1", 0, 0]]),
    ]
    f = tmp_path / "junk.json"
    f.write_text(json.dumps(x5))
    assert run(capsys, "classify", str(f))[0] != 1
    for text in ("{not json", "[]", json.dumps(x5_zero_denominator), json.dumps(field_not_an_object),
                 *map(json.dumps, not_strict + malformed_terms), "[" * 100_000 + "]" * 100_000):
        f.write_text(text)
        code, out = run(capsys, "classify", str(f))
        assert code == 1, text
        err = json.loads(out)
        assert err["kind"] == "error" and err["error"] == "InvalidPresentationError", text
        assert "Traceback" not in out


@pytest.mark.parametrize("command", [["classify"], ["det"], ["cohomology"], ["kron", "check"]])
def test_empty_twist_vector_exits_1_in_the_format_words(tmp_path, capsys, command):
    # an empty source list used to reach range() with step 0 and report
    # "range() arg 3 must not be zero"; both lists get the constructor's message
    one_cell = {"format_version": 1, "field": {"kind": "prime", "p": 101},
                "source_twists": [0], "target_twists": [0], "matrix": [[[]]]}
    f = tmp_path / "empty.json"
    for doc in (dict(one_cell, source_twists=[], matrix=[[]]), dict(one_cell, target_twists=[], matrix=[])):
        f.write_text(json.dumps(doc))
        code, out = run(capsys, *command, str(f))
        assert code == 1, doc
        assert json.loads(out) == {"schema_version": 1, "kind": "error", "error": "InvalidPresentationError",
                                   "message": "twist vectors must be non-empty"}, doc


def test_wrong_degree_cell_exit_code(tmp_path, capsys):
    # cell (1,1) of the X5 grid is a quadric; give its first term a cubic exponent
    f = tmp_path / "x5.json"
    run(capsys, "sample", "--stratum", "X5", "--field", "p:101", "--seed", "7", "--out", str(f))
    doc = json.loads(f.read_text())
    doc["matrix"][1][1][0][1:] = [3, 0, 0]
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "classify", str(f))
    assert code == 1
    err = json.loads(out)
    assert err["kind"] == "error" and err["error"] == "InvalidPresentationError"
    assert "Traceback" not in out


def test_cell_degree_past_load_budget_exits_3(tmp_path, capsys):
    # each cell is built as dim_forms(degree) coefficients, so the degree is
    # checked before any cell is read
    doc = {"format_version": 1, "field": {"kind": "prime", "p": 101},
           "source_twists": [-1_000_000], "target_twists": [0], "matrix": [[[]]]}
    f = tmp_path / "far.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "classify", str(f))
    assert code == 3
    err = json.loads(out)
    assert err["kind"] == "error" and err["error"] == "BudgetExceededError"
    # a cell at the bound still loads: O(-64) -> O by X^64
    f.write_text(json.dumps(dict(doc, source_twists=[-MAX_CELL_DEGREE],
                                 matrix=[[[[1, MAX_CELL_DEGREE, 0, 0]]]])))
    code, out = run(capsys, "det", str(f))
    assert code == 0
    assert json.loads(out)["degree"] == MAX_CELL_DEGREE


def test_many_cells_past_load_budget_exit_3(tmp_path, capsys):
    # 40 x 40 empty cells of degree 64 (a 7 KB file) would build 3432000
    # coefficients; the total is counted from the twists, before any cell
    n = 40
    doc = {"format_version": 1, "field": {"kind": "prime", "p": 101},
           "source_twists": [-MAX_CELL_DEGREE] * n, "target_twists": [0] * n,
           "matrix": [[[] for _ in range(n)] for _ in range(n)]}
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "classify", str(f))
    assert code == 3
    err = json.loads(out)
    assert err["error"] == "BudgetExceededError" and str(MAX_LOAD_COEFFICIENTS) in err["message"]


def _empty_cells_file(path, n):
    """n x n empty cells of degree -1: they hold no coefficient, so only
    the cell budget bounds them."""
    path.write_text(json.dumps({"format_version": 1, "field": {"kind": "prime", "p": 101},
                                "source_twists": [0] * n, "target_twists": [-1] * n,
                                "matrix": [[[] for _ in range(n)] for _ in range(n)]}))
    return path


def test_many_negative_degree_cells_exit_2(tmp_path, capsys):
    # 64 x 64 cells, exactly at the cell budget, load; they share one zero
    # form and classify exits 2
    assert 64 * 64 == MAX_LOAD_CELLS
    code, out = run(capsys, "classify", str(_empty_cells_file(tmp_path / "empty.json", 64)))
    assert code == 2
    assert json.loads(out)["error"] == "NotInjectiveError"


def test_many_cells_past_cell_budget_exit_3(tmp_path, capsys):
    # 300 x 300 cells are refused from the twists, before any cell is read
    f = _empty_cells_file(tmp_path / "empty.json", 300)
    t0 = time.perf_counter()
    code, out = run(capsys, "classify", str(f))
    assert time.perf_counter() - t0 < 1
    assert code == 3
    err = json.loads(out)
    assert err["error"] == "BudgetExceededError" and str(MAX_LOAD_CELLS) in err["message"]


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "classify", "/nonexistent/path.json")
    assert code == 1
    assert json.loads(out)["error"] == "FileNotFoundError"


def test_directory_path_exit_code(tmp_path, capsys):
    code, out = run(capsys, "classify", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "error" and doc["error"] == "IsADirectoryError"


def test_det_and_cohomology(tmp_path, capsys):
    f = tmp_path / "x5.json"
    run(capsys, "sample", "--stratum", "X5", "--field", "p:101", "--seed", "3", "--out", str(f))
    code, out = run(capsys, "det", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 6 and doc["form"]
    code, out = run(capsys, "cohomology", str(f), "--tmin", "-2", "--tmax", "2")
    doc = json.loads(out)
    assert doc["hilbert"] == [6, 1]
    for row in doc["rows"]:
        assert row["chi"] == 6 * row["t"] + 1
    # an empty range keeps its empty table
    code, out = run(capsys, "cohomology", str(f), "--tmin", "5", "--tmax", "-5")
    assert code == 0 and json.loads(out)["rows"] == []


def test_cohomology_table_budget_exit_3(tmp_path, capsys, monkeypatch):
    from sextic_strata import cli

    f = tmp_path / "x0.json"
    run(capsys, "sample", "--stratum", "X0", "--field", "p:101", "--seed", "1", "--out", str(f))
    code, out = run(capsys, "cohomology", str(f), "--tmin", "0", "--tmax", str(MAX_TABLE_ROWS - 1))
    assert code == 0 and len(json.loads(out)["rows"]) == MAX_TABLE_ROWS
    # past the budget the command refuses before the injectivity check or any row
    monkeypatch.setattr(cli, "is_injective", lambda P: pytest.fail("is_injective ran"))
    monkeypatch.setattr(cli, "h0", lambda P, t: pytest.fail("a row was built"))
    for tmax in (MAX_TABLE_ROWS, 1_000_000_000):
        t0 = time.perf_counter()
        code, out = run(capsys, "cohomology", str(f), "--tmin", "0", "--tmax", str(tmax))
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        err = json.loads(out)
        assert (err["kind"], err["error"]) == ("error", "BudgetExceededError")
        assert f"{tmax + 1} rows" in err["message"] and str(MAX_TABLE_ROWS) in err["message"]


def test_cohomology_rejects_zero_determinant(tmp_path, capsys):
    # the 1 x 1 zero matrix O(-2) -> O: h0/h1 would print a table for a
    # cokernel that is not one-dimensional
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"field": {"kind": "prime", "p": 101}, "format_version": 1,
                             "matrix": [[[]]], "source_twists": [-2], "target_twists": [0]}))
    code, out = run(capsys, "cohomology", str(f), "--tmin", "0", "--tmax", "2")
    assert code == 2
    err = json.loads(out)
    assert err["kind"] == "error" and err["error"] == "NotInjectiveError"
    assert "rows" not in err


def test_dual_roundtrip(tmp_path, capsys):
    f = tmp_path / "x3.json"
    g = tmp_path / "x3_dual.json"
    g2 = tmp_path / "x3_back.json"
    run(capsys, "sample", "--stratum", "X3", "--field", "p:101", "--seed", "5", "--out", str(f))
    code, _ = run(capsys, "dual", str(f), "--out", str(g))
    assert code == 0
    code, _ = run(capsys, "dual", str(g), "--out", str(g2))
    assert code == 0
    assert f.read_text() != g.read_text()
    # dual of dual restores the original matrix and twists
    d0 = json.loads(f.read_text())
    d2 = json.loads(g2.read_text())
    assert d0["source_twists"] == d2["source_twists"]
    assert d0["matrix"] == d2["matrix"]


def test_kron_check(tmp_path, capsys):
    # an all-linear presentation file doubles as a Kronecker module
    field = GF(3)
    X, Y, Z = variables(field)
    from sextic_strata.forms import Form

    z = Form.zero(field, 1)
    P = Presentation((-2, -2), (-1, -1, -1), PolyMatrix(field, [[X, z], [Y, X], [Z, Y]]))
    f = tmp_path / "kron.json"
    save(P, f)
    code, out = run(capsys, "kron", "check", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "semistable"


def test_kron_check_budget_exit(tmp_path, capsys, monkeypatch):
    from sextic_strata import kronecker
    from sextic_strata.linalg import ScalarMatrix
    from sextic_strata.rng import SplitMix64
    from sextic_strata.sampler import random_form

    field = GF(101)
    rng = SplitMix64(4)
    rows = [[random_form(field, 1, rng) for _ in range(5)] for _ in range(4)]
    P = Presentation((-2,) * 5, (-1,) * 4, PolyMatrix(field, rows))
    f = tmp_path / "big.json"
    save(P, f)
    code, out = run(capsys, "kron", "check", str(f))
    assert code == 0
    assert json.loads(out)["verdict"] == "semistable"
    # with every blow-up element zero neither certificate can appear, and the
    # GF(101) lattice is past the enumeration budget: exit 3, never a verdict
    monkeypatch.setattr(
        kronecker,
        "_blowup_element",
        lambda slices, Es: ScalarMatrix.zeros(
            field, slices[0].nrows * Es[0].nrows, slices[0].ncols * Es[0].ncols
        ),
    )
    code, out = run(capsys, "kron", "check", str(f))
    assert code == 3
    assert json.loads(out)["error"] == "BudgetExceededError"


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["gf101", "rational"])
def test_kron_check_module_past_budget_exits_3(tmp_path, capsys, monkeypatch, field):
    from sextic_strata import kronecker
    from sextic_strata.rng import SplitMix64
    from sextic_strata.sampler import random_form

    def module_file(n, m):
        rng = SplitMix64(5)
        rows = [[random_form(field, 1, rng) for _ in range(m)] for _ in range(n)]
        f = tmp_path / f"module_{n}x{m}.json"
        save(Presentation((-2,) * m, (-1,) * n, PolyMatrix(field, rows)), f)
        return f

    # 8 x 8 is at the budget and decides
    assert 8 * 8 == MAX_MODULE_ENTRIES
    code, out = run(capsys, "kron", "check", str(module_file(8, 8)))
    assert code == 0 and json.loads(out)["verdict"] == "semistable"

    # past it no blow-up element is built and no lattice enumerated
    def never(*args):
        raise AssertionError("the module budget was not checked first")

    monkeypatch.setattr(kronecker, "_blowup_element", never)
    monkeypatch.setattr(kronecker, "echelon_chunks", never)
    f = module_file(9, 9)
    t0 = time.perf_counter()
    code, out = run(capsys, "kron", "check", str(f))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    err = json.loads(out)
    assert (err["kind"], err["error"]) == ("error", "BudgetExceededError")
    assert "9 x 9" in err["message"] and str(MAX_MODULE_ENTRIES) in err["message"]
    # and the exact mode checks the same budget first
    with pytest.raises(BudgetExceededError):
        kronecker.is_semistable(kronecker.KroneckerModule(load(f).matrix), mode="exact_smallfield")


def test_kron_window(capsys):
    code, out = run(capsys, "kron", "window")
    assert code == 0
    assert json.loads(out) == {
        "schema_version": 1,
        "kind": "polarization_windows",
        "six_inequalities": {"lower": "1/4", "upper": "1/2", "open": [True, True]},
        "refined": {"lower": "3/7", "upper": "1/2", "open": [True, True]},
        "mu2": {"lower": "0", "upper": "1/5", "open": [True, True]},
    }


@pytest.mark.parametrize("argv, named", [
    (("sample", "--stratum", "X9", "--seed", "1"), "X9"),
    (("kron", "window", "--grid", "abc"), "abc"),
    (("kron", "window", "--grid", "700"), "--grid 700"),  # the option is gone
    (("sample", "--stratum", "X5", "--seed", "1", "--max-rejects", "5"), "--max-rejects 5"),  # gone too
    (("verify", "--suite", "table"), "table"),  # so is this suite
    (("kron", "window", "--human"), "--human"),  # and every report's text rendering
    (("verify", "--suite", "dims", "--seed", "7"), "--seed 7"),  # verify runs at DEFAULT_SEED only
], ids=["unknown-choice", "unknown-option-bad-value", "unknown-option", "removed-max-rejects",
        "removed-suite", "removed-human", "removed-verify-seed"])
def test_usage_error_exits_1_with_error_document(capsys, argv, named):
    code, out = run(capsys, *argv)
    assert code == 1
    err = json.loads(out)
    assert (err["kind"], err["error"]) == ("error", "ValueError")
    assert named in err["message"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kron", "--help"])
    assert exc.value.code == 0


def test_verify_dims_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert (doc["schema_version"], doc["kind"], doc["passed"], doc["total"]) == (1, "verification", 2, 2)
    assert doc["seed"] == DEFAULT_SEED
    assert doc["criteria"]["4"]["details"] == "16/16 identities hold"
    assert all(c["passed"] and c["seconds"] >= 0 for c in doc["criteria"].values())


def test_verify_prints_criteria_in_order(capsys):
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 0
    assert list(json.loads(out)["criteria"]) == ["4", "5"]


def test_verify_failing_criterion_exits_2(capsys, monkeypatch):
    from sextic_strata import verify

    monkeypatch.setitem(verify.CRITERIA, 5, ("polarization windows", lambda: (False, "forced"), None))
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 2
    doc = json.loads(out)
    assert (doc["passed"], doc["total"], doc["criteria"]["5"]["passed"]) == (1, 2, False)


def test_det_pretty_on_constructed_example(tmp_path, capsys):
    from sextic_strata.fields import QQ
    from sextic_strata.forms import Form
    from sextic_strata.sampler import construct_x5

    X = Form.monomial(QQ, (1, 0, 0))
    Y2 = Form.monomial(QQ, (0, 2, 0))
    f = Form.monomial(QQ, (6, 0, 0)) + Form.monomial(QQ, (0, 6, 0))
    P = construct_x5(f, X, Y2)
    path = tmp_path / "constructed.json"
    save(P, path)
    code, out = run(capsys, "det", str(path))
    assert code == 0
    assert json.loads(out)["pretty"] == "X^6 + Y^6"


def test_kron_check_unstable_block_module(tmp_path, capsys):
    from sextic_strata.rng import SplitMix64
    from sextic_strata.verify import _block_module

    field = GF(101)
    K = _block_module(field, (3, 2), SplitMix64(9))
    P = Presentation((-2,) * 5, (-1,) * 4, K.matrix)
    f = tmp_path / "mod.json"
    save(P, f)
    code, out = run(capsys, "kron", "check", str(f))
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["mode"]) == ("unstable", "certificate")
    assert (doc["witness"]["dimS"], doc["witness"]["dimT"]) == (3, 2)


def test_rectangular_presentation_exits_2(tmp_path, capsys):
    # a 3 x 2 presentation is a contract violation for every square-only command
    field = GF(101)
    X, Y, Z = variables(field)
    P = Presentation((-1, -1), (0, 0, 0), PolyMatrix(field, [[X, Y], [Y, Z], [Z, X]]))
    f = tmp_path / "rect.json"
    save(P, f)
    for command in ("classify", "cohomology", "det"):
        code, out = run(capsys, command, str(f))
        assert code == 2, command
        assert json.loads(out)["error"] == "NotSquareError", command


def _outcome_inputs():
    """One presentation per outcome of `classify`, each with the row whose
    twist shape it has (None for a shape no row has)."""
    field = GF(101)
    X, Y, Z = variables(field)
    seed42 = {label: sample(SampleRequest(label, field, 42)) for label in StratumLabel}

    def with_cells(P, cells):
        rows = [list(row) for row in P.matrix.entries]
        for (i, j), f in cells.items():
            rows[i][j] = f
        return Presentation(P.source, P.target, PolyMatrix(field, rows))

    x3, x5 = seed42[StratumLabel.X3], seed42[StratumLabel.X5]
    rng = SplitMix64(3)
    src, tgt = SHAPES[StratumLabel.X2]
    inputs = {label.value: (P, label) for label, P in seed42.items()}
    inputs.update({
        "X3 reversed": (Presentation(x3.source[::-1], x3.target[::-1],
                                     PolyMatrix(field, [row[::-1] for row in x3.matrix.entries[::-1]])),
                        StratumLabel.X3),
        "3x2": (Presentation((-1, -1), (0, 0, 0), PolyMatrix(field, [[X, Y], [Y, Z], [Z, X]])), None),
        "zero 1x1": (Presentation((-1,), (0,), PolyMatrix(field, [[Form.zero(field, 1)]])), None),
        "conic": (Presentation((-2,), (0,), PolyMatrix(field, [[X * X + Y * Z]])), None),
        "sextic": (Presentation((-6,), (0,), PolyMatrix(field, [[X * X * X * X * X * X]])), None),
        # test_x2_shape_out_of_normal_position_classifies_as_x1's matrix
        "X2 with constants": (Presentation(src, tgt, PolyMatrix(
            field, [[random_form(field, d - s, rng) for s in src] for d in tgt])), StratumLabel.X2),
        "X1 with L = 0": (with_cells(seed42[StratumLabel.X1], {(0, 1): Form.zero(field, 1),
                                                             (0, 2): Form.zero(field, 1)}), StratumLabel.X1),
        "X5 with l | q": (with_cells(x5, {(1, 1): x5.matrix.entry(0, 1) * x5.matrix.entry(0, 1)}),
                          StratumLabel.X5),
        "X5 with det = 0": (with_cells(x5, {(0, 0): Form.zero(field, 4), (1, 0): Form.zero(field, 5)}),
                            StratumLabel.X5),
    })
    return inputs


def _classification(label, profile, violations="[]"):
    return ('{"det_degree":6,"hilbert":[6,1],"kind":"classification","label":"%s","profile":%s,'
            '"schema_version":1,"violations":%s}\n' % (label, profile, violations))


def _not_semistable(profile, violation):
    return ('{"error":"NotSemistable","hilbert":[6,1],"kind":"classification_error","message":"profile (%s) '
            'is on a stratum row, but the cokernel is not semistable: %s","profile":[%s],"schema_version":1,'
            '"violations":["%s"]}\n' % (profile, violation, profile.replace(" ", ""), violation))


NOT_INJECTIVE = ('{"error":"NotInjectiveError","kind":"classification_error","message":"matrix has det = 0; '
                 'the cokernel is not one-dimensional","schema_version":1}\n')

# input -> (exit code, stdout of `classify`, `validate_shape` on the input's row)
CLASSIFY_DOCUMENTS = {
    "X0": (0, _classification("X0", "[0,0,0,0]"), []),
    "X1": (0, _classification("X1", "[0,1,0,0]"), []),
    "X2": (0, _classification("X2", "[0,1,1,0]"), []),
    "X3": (0, _classification("X3", "[0,2,2,0]"), []),
    "X4": (0, _classification("X4", "[1,2,3,0]"), []),
    "X5": (0, _classification("X5", "[1,3,4,1]"), []),
    "X3 reversed": (0, _classification("X3", "[0,2,2,0]"), [
        "wrong twist shape: expected (-3, -3, -1, -1) -> (-2, 0, 0, 0), got (-1, -1, -3, -3) -> (0, 0, 0, -2)"]),
    "3x2": (2, '{"error":"NotSquareError","kind":"classification_error","message":"presentation is 3x2; '
               'only square resolutions are in scope","schema_version":1}\n', None),
    "zero 1x1": (2, NOT_INJECTIVE, None),
    "conic": (2, '{"error":"ProfileNotInTable","hilbert":[2,1],"kind":"classification_error","message":'
                 '"profile (0, 0, 0, 0) with Hilbert polynomial 2m+1 is not in the table (needs 6m+1)",'
                 '"profile":[0,0,0,0],"schema_version":1}\n', None),
    "sextic": (2, '{"error":"ProfileNotInTable","hilbert":[6,-9],"kind":"classification_error","message":'
                  '"profile (0, 10, 0, 6) with Hilbert polynomial 6m-9 is not in the table (needs 6m+1)",'
                  '"profile":[0,10,0,6],"schema_version":1}\n', None),
    "X2 with constants": (0, _classification("X1", "[0,1,0,0]", '["wrong twist shape: expected (-3, -2, -2) '
                                             '-> (-1, 0, 0), got (-3, -2, -2, -1) -> (-1, -1, 0, 0)"]'),
                          ["profile (0, 1, 0, 0) is not X2's (0, 1, 1, 0)"]),
    "X1 with L = 0": (2, _not_semistable("0, 1, 0, 0", "matrix is equivalent to forbidden pattern P1"),
                      ["matrix is equivalent to forbidden pattern P1"]),
    "X5 with l | q": (2, _not_semistable("1, 3, 4, 1", "l divides q"), ["l divides q"]),
    "X5 with det = 0": (2, NOT_INJECTIVE, ["not injective: det = 0"]),
}


def test_classify_documents_per_outcome(tmp_path, capsys):
    # One input per outcome: the documents and exit codes of CLI `classify`
    # and the violations `validate_shape` gives on the input's row, byte for byte.
    inputs = _outcome_inputs()
    assert inputs.keys() == CLASSIFY_DOCUMENTS.keys()
    f = tmp_path / "input.json"
    for name, (P, row) in inputs.items():
        code, stdout, violations = CLASSIFY_DOCUMENTS[name]
        save(P, f)
        assert run(capsys, "classify", str(f)) == (code, stdout), name
        if row is not None:
            assert validate_shape(P, row) == violations, name
