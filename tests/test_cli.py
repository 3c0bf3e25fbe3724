"""CLI subcommands: exit codes, schema, determinism, example values."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import unrolled_sl2
from unrolled_sl2.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_calibrate(capsys):
    code, out, _ = run(capsys, "calibrate", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "unrolled-sl2/1"
    assert doc["pivot_exponent"] == -2
    assert doc["coproduct_variant"] == "EK"
    assert doc["max_rel_error"] < 1e-9
    assert "tried" not in doc


def test_repcheck_single_and_dump(capsys):
    code, out, _ = run(capsys, "repcheck", "--r", "3", "--label", "P(1,0)", "--dump")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["modules"][0]["module"]["dim"] == 6


def test_hopf(capsys):
    code, out, _ = run(capsys, "hopf", "--r", "3", "--closed", "S(1,0)", "--beta", "0.71")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_loghopf_example(capsys):
    code, out, _ = run(capsys, "loghopf", "--r", "3", "--Z", "S(1,0)", "--j", "0", "--l", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["a"] == doc["closed_a"]
    assert "b_by_derivative" not in doc


def test_tangle_typical_and_projective(capsys):
    code, out, _ = run(capsys, "tangle", "--r", "2", "--expr", "open V(0.5) | hopf V(0.37)")
    assert code == 0
    doc = json.loads(out)
    assert "invariant" in doc and "scalar" in doc
    code, out, _ = run(capsys, "tangle", "--r", "2", "--expr", "open P(0,0) | hopf V(0.37)")
    assert code == 0
    doc = json.loads(out)
    assert "endo" in doc


def test_projective_tangle_prints_the_identity_coefficient_check(capsys):
    """residuals.cross_check is the API's residual_cross_check, rounded (1.2e-15 here)."""
    from unrolled_sl2.cli import _num
    from unrolled_sl2.deform import log_tangle_invariant
    from unrolled_sl2.qnum import QContext
    from unrolled_sl2.ribbon import get_config
    from unrolled_sl2.tangle import parse_tangle

    expr = "open P(1,0) | insert 2 S(1,1); br+ 1; br+ 2; br+ 2; br+ 1; tw- 1; evR 2"
    code, out, _ = run(capsys, "tangle", "--r", "4", "--expr", expr)
    assert code == 0
    res = log_tangle_invariant(get_config(QContext(4)), parse_tangle(expr))
    assert json.loads(out)["residuals"]["cross_check"] == _num(res.residual_cross_check)


def test_jet_order_is_not_an_option(capsys):
    """The deformation route sets its own precision, so no subcommand takes it."""
    with pytest.raises(SystemExit) as ei:
        main(["loghopf", "--r", "3", "--Z", "S(1,0)", "--j", "0", "--jet-order", "6"])
    assert ei.value.code == 2
    assert "--jet-order" in capsys.readouterr().err


def test_qdim_example(capsys):
    code, out, _ = run(capsys, "qdim", "--r", "2", "--label", "M(2,1)",
                       "--eps", "-0.6+0.0i")
    assert code == 0
    doc = json.loads(out)
    assert doc["qdim"] == [-1.0, 0.0]
    assert doc["regime"] == "strip(0,0)"


def test_fusion_example(capsys):
    code, out, _ = run(capsys, "fusion", "--r", "2", "--X", "M(2,2)", "--Y", "M(3,2)")
    assert code == 0
    doc = json.loads(out)
    table = {row["label"]: row["mult"] for row in doc["product"]}
    assert table == {"M(4,1)": 2, "M(3,1)": 1, "M(5,1)": 1}


def test_compare_both_modes(capsys):
    code, out, _ = run(capsys, "compare", "--r", "2", "--mode", "continuous",
                       "--X", "S(0,1)", "--eps", "0.3+0.05i")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "compare", "--r", "3", "--mode", "strip",
                       "--X", "S(1,0)", "--j", "1", "--k", "0")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sweep_csv_and_determinism(capsys):
    argv = ["sweep", "--r", "2", "--labels", "M(1,1);F(0.25)",
            "--eps", "0.3;-0.6;-0.6+0.5i", "--output", "csv"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "label,eps_re,eps_im,regime,qdim_re,qdim_im"
    assert len(lines) == 7


def test_usage_errors(capsys):
    code, out, err = run(capsys, "qdim", "--r", "2", "--label", "Z(1)", "--eps", "0.3")
    assert code == 2
    assert "error" in err
    with pytest.raises(SystemExit) as ei:
        main(["qdim", "--r", "2"])
    assert ei.value.code == 2


def test_output_flag_is_sweep_only(capsys):
    """Only sweep can print CSV; elsewhere --output is an unknown flag, not ignored."""
    with pytest.raises(SystemExit) as ei:
        main(["hopf", "--r", "3", "--closed", "S(1,0)", "--beta", "0.71", "--output", "csv"])
    assert ei.value.code == 2
    assert "--output" in capsys.readouterr().err


def test_boundary_eps_is_usage_error(capsys):
    code, out, err = run(capsys, "qdim", "--r", "2", "--label", "M(1,1)",
                         "--eps", "-0.6+0.25i")
    assert code == 2


@pytest.mark.parametrize("expr, says", [
    pytest.param("open S(0,0) | hopf V(0.3)", "Simple(i=0, k=0): not projective",
                 id="open S(0,0) | hopf V(0.3)"),
    pytest.param("open V(1) | hopf V(0.3)", "non-generic integer weight 1",
                 id="open V(1) | hopf V(0.3)"),
])
def test_non_projective_open_color_is_usage_error(capsys, expr, says):
    code, out, err = run(capsys, "tangle", "--r", "3", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err and "deformation" not in err


@pytest.mark.parametrize("expr", ["open P(5,0) | hopf V(0.3)", "open X(5,0,0) | hopf V(0.3)"])
def test_projective_index_out_of_range_is_usage_error(capsys, expr):
    code, out, err = run(capsys, "tangle", "--r", "3", "--expr", expr)
    assert code == 2
    assert err == "error: projective index must lie in 0..1, got 5\n"


def test_identity_coefficient_round_off_is_not_a_mismatch(capsys):
    """An r = 6 word whose a is 0 up to the round-off of the eps^0 contraction."""
    expr = ("open P(1,1) | insert 2 V(0.41-1.1i); br+ 1; br- 2; br+ 1; br- 1; br- 2; br+ 1; "
            "tw- 1; evR 2")
    code, out, err = run(capsys, "tangle", "--r", "6", "--expr", expr)
    assert code == 0, err
    assert json.loads(out)["endo"]["a"] == [0.0, 0.0]


@pytest.mark.parametrize("r, closed, beta, want", [
    (3, "S(1,0)", "0", [2.0, 0.0]),
    (3, "S(1,0)", "3", [-2.0, 0.0]),
    (2, "S(0,0)", "2", [1.0, 0.0]),
    (4, "V(0.3)", "4", None),
    (3, "P(0,1)", "-3", None),
])
def test_hopf_at_beta_in_rz_takes_the_removable_limit(capsys, r, closed, beta, want):
    """{n beta}/{beta} is 0/0 at beta in rZ; the closed form takes its limit."""
    code, out, err = run(capsys, "hopf", "--r", str(r), "--closed", closed, "--beta", beta)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True
    if want is not None:
        assert doc["closed_form"] == want


@pytest.mark.parametrize("argv", [
    ["hopf", "--closed", "X(0,0,0.1)", "--beta", "0.3"],
    ["loghopf", "--Z", "X(0,0,0.1)", "--j", "0"],
])
def test_closed_color_without_closed_form_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], "--r", "3", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: no closed") and err.count("\n") == 1



@pytest.mark.parametrize("argv", [
    ["tangle", "--expr", "open P(0,0) | hopf V(1e300)"],
    ["tangle", "--expr", "open P(0,0) | hopf V(0.3+1000i)"],
    ["hopf", "--closed", "V(0.3+1000i)", "--beta", "0.3"],
])
def test_weight_beyond_double_precision_is_usage_error(capsys, argv):
    """A weight whose q-power a double cannot hold is refused, without
    overflow warnings, a traceback or a wrong invariant."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], "--r", "3", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: weights must have") and err.count("\n") == 1


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only where expm or block_diag is called: a module-level
    import would add its load time to every CLI call."""
    src = os.path.dirname(os.path.dirname(unrolled_sl2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, unrolled_sl2.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

def test_alpha_is_not_an_option(capsys):
    """A generic closed colour is given as --closed "V(...)"; there is no second spelling."""
    with pytest.raises(SystemExit) as ei:
        main(["hopf", "--r", "3", "--closed", "V(0.7)", "--beta", "0.7", "--alpha", "0.3"])
    assert ei.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_complex_generic_color_in_a_tangle(capsys):
    code, out, err = run(capsys, "tangle", "--r", "3", "--expr", "open V(0.3+0.1i) | hopf V(0.37)")
    assert code == 0, err
    want = "open V(0.3+0.1i) | insert 2 V(0.37); br+ 1; br+ 1; evR 2"
    assert json.loads(out)["normal_form"] == want


def test_cross_check_failure_is_a_mismatch(capsys, monkeypatch):
    """Identity coefficients of the two summands that disagree exit 1 with one
    mismatch line."""
    from unrolled_sl2 import cli
    from unrolled_sl2.deform import CrossCheckError

    def disagree(cfg, expr):
        raise CrossCheckError("identity coefficient limits disagree: 0j vs 1j")
    monkeypatch.setattr(cli, "log_tangle_invariant", disagree)
    code, out, err = run(capsys, "tangle", "--r", "3", "--expr", "open P(1,0) | hopf V(0.37)")
    assert code == 1
    assert out == ""
    assert err == "mismatch: identity coefficient limits disagree: 0j vs 1j\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["tangle", "--expr", "open P(0,0) | hopf V(1e400)"], id="colour token"),
    pytest.param(["hopf", "--closed", "V(0.3)", "--beta", "1e400"], id="flag"),
])
def test_overflowing_literal_is_usage_error(capsys, argv):
    """A literal that parses to infinity is refused like nan or inf, with one line."""
    code, out, err = run(capsys, argv[0], "--r", "3", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad c") and "1e400" in err and err.count("\n") == 1


_TOL_ERRORS = {
    "nan": "error: tolerance must be finite and positive",
    "inf": "error: tolerance must be finite and positive",
    # finite, but the fixed ribbon convention fails its anchors at it
    "10": "error: the ribbon convention misses the Hopf anchors",
    "1e-30": "error: open Hopf link with closed color Typical(alpha=0.377) is not scalar",
}


@pytest.mark.parametrize("tol", list(_TOL_ERRORS))
def test_non_finite_tolerance_is_usage_error(capsys, tol):
    """A tolerance the context or the fixed ribbon convention cannot work with
    exits 2 with one error line."""
    code, out, err = run(capsys, "loghopf", "--r", "3", "--tol", tol, "--Z", "V(0.3)",
                         "--j", "0", "--l", "0")
    assert code == 2
    assert out == ""
    assert err.startswith(_TOL_ERRORS[tol]) and err.count("\n") == 1
    if tol in ("10", "1e-30"):  # the calibration failure names the tolerance
        assert err.rstrip().endswith(f"at tol {float(tol)}")


@pytest.mark.parametrize("r, expr", [
    pytest.param(10, "open P(5,-1) | insert 2 V(0.28436+0.619277i); br- 1; br+ 2; br- 1; "
                 "br+ 2; br- 2; br- 1; br+ 1; br+ 1; br- 2; br+ 1; tw+ 1; evR 2", id="pole"),
    pytest.param(10, "open P(7,-1) | insert 2 V(0.634067+0.736738i); br- 2; br+ 1; br+ 1; "
                 "br- 2; br- 1; br- 2; br+ 1; br- 1; br- 2; br+ 1; tw- 1; evR 2", id="non-scalar r10"),
    pytest.param(7, "open P(5,2) | insert 2 V(0.628702+1.22783i); br+ 1; br- 2; br+ 1; br+ 2; "
                 "br+ 2; br+ 1; br+ 2; br+ 2; br+ 2; br- 1; tw- 1; evR 2", id="non-scalar r7"),
])
def test_value_the_engine_cannot_certify_is_a_mismatch(capsys, r, expr):
    """Valid words whose jet limit diverges or whose scalar test fails on
    round-off exit 1 with one mismatch line, not 2 and not a traceback."""
    code, out, err = run(capsys, "tangle", "--r", str(r), "--expr", expr)
    assert code == 1
    assert out == ""
    assert err.startswith("mismatch: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_every_exported_error_has_an_exit_code():
    """Each exception class the package exports is a value the engine could not
    certify (ArithmeticError, exit 1) or a refused input (exit 2)."""
    from unrolled_sl2.cli import _USAGE_ERRORS

    errors = [obj for obj in vars(unrolled_sl2).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(errors) >= 16
    for cls in errors:
        assert issubclass(cls, (ArithmeticError, *_USAGE_ERRORS)), cls


def test_payload_that_is_not_ok_exits_1_with_its_json(capsys):
    """main, not the subcommand, turns a false ok into exit 1; the JSON still prints."""
    code, out, err = run(capsys, "repcheck", "--r", "3", "--tol", "1e-30", "--label", "P(1,0)")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["ok"] is False
    assert (doc["schema"], doc["command"], doc["r"]) == ("unrolled-sl2/1", "repcheck", 3)
