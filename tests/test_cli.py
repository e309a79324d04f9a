from __future__ import annotations

import json

from sextic_strata.cli import main
from sextic_strata.fields import GF
from sextic_strata.forms import variables
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.presentation import Presentation, save


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
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
    ]
    f = tmp_path / "junk.json"
    f.write_text(json.dumps(x5))
    assert run(capsys, "classify", str(f))[0] != 1
    for text in ("{not json", "[]", json.dumps(x5_zero_denominator), json.dumps(field_not_an_object),
                 *map(json.dumps, not_strict)):
        f.write_text(text)
        code, out = run(capsys, "classify", str(f))
        assert code == 1, text
        err = json.loads(out)
        assert err["kind"] == "error" and err["error"] == "InvalidPresentationError", text


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


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "classify", "/nonexistent/path.json")
    assert code == 1


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


def test_kron_window(capsys):
    code, out = run(capsys, "kron", "window", "--grid", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["six_inequalities"]["endpoints"] == ["26/100", "49/100"]
    assert doc["mu2"]["endpoints"] == ["1/100", "19/100"]


def test_verify_dims_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 0
    assert "[PASS] criterion 4" in out
    assert "[PASS] criterion 5" in out


def test_verify_prints_criteria_in_order(capsys):
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 0
    assert out.index("criterion 4") < out.index("criterion 5")


def test_verify_rejects_empty_pools(capsys):
    # an empty sample pool or oracle batch is an input error, not a traceback
    for argv in (("--suite", "duality", "--samples", "0"), ("--suite", "oracle", "--oracle-matrices", "0")):
        code, out = run(capsys, "verify", *argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["kind"] == "error" and doc["error"] == "ValueError"


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


def test_human_rendering(tmp_path, capsys):
    f = tmp_path / "x1.json"
    run(capsys, "sample", "--stratum", "X1", "--field", "p:101", "--seed", "2", "--out", str(f))
    code, out = run(capsys, "--human", "classify", str(f))
    assert code == 0
    assert "label: X1" in out
