import csv
import io
import json
import math
import subprocess
import sys

import pytest

from mbint import cli, verification
from mbint.errors import ParameterError


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def beta_matrix(tmp_path):
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({
        "rows": 2, "cols": 2,
        "entries": [[0, 0], [-1, 0], [1, 0], [-1, 0]],
    }))
    return str(path)


def test_eval_pfq_gauss_value(capsys):
    code, obj = run_json(capsys, "eval", "pfq", "--num", "1,1", "--den", "2",
                         "--z", "-0.5")
    assert code == 0
    re, im = obj["value"]
    assert abs(re - 0.8109302162163288) < 1e-8 and abs(im) < 1e-12


def test_eval_g_exponential(capsys):
    code, obj = run_json(capsys, "eval", "g", "--orders", "1,0,0,1",
                         "--b", "0", "--z", "1")
    assert code == 0
    re, im = obj["value"]
    assert abs(re - 0.3678794411714423) < 1e-9 and abs(im) < 1e-12


def test_eval_g_method_flag(capsys):
    code, obj = run_json(capsys, "eval", "g", "--orders", "1,0,0,1",
                         "--b", "0.5", "--z", "2", "--method", "residues")
    assert code == 0 and obj["method"] == "residues_right"


def test_eval_g_divergent_line_by_residues(capsys):
    # z^0.3 e^-z at z = -2, whose line diverges: it used to exit 3
    code, obj = run_json(capsys, "eval", "g", "--orders", "1,0,0,1",
                         "--b", "0.3", "--z", "-2")
    assert code == 0 and obj["method"] == "residues_right"
    exact = (-2) ** 0.3 * math.exp(2.0)
    assert abs(complex(*obj["value"]) - exact) < 1e-9 * abs(exact)


def test_eval_h_unit_multipliers(capsys):
    code, obj = run_json(capsys, "eval", "h", "--orders", "1,0,0,1",
                         "--b", "0", "--beta", "1", "--z", "1")
    assert code == 0
    assert abs(obj["value"][0] - 0.3678794411714423) < 1e-9


def test_dual_fde_rendering(capsys, beta_matrix):
    code, obj = run_json(capsys, "dual", "--matrix", beta_matrix,
                         "--as", "fde")
    assert code == 0
    assert obj["rendered"] == "x f(x) - (x + 2) f(x+1) = 0"
    assert obj["orders"] == {"ode_order": 1, "ode_exp_degree": 1,
                             "fde_order": 1, "fde_poly_degree": 1}
    assert obj["coefficients"][0] == [[0.0, 0.0], [1.0, 0.0]]


def test_dual_ode_rendering(capsys, beta_matrix):
    code, obj = run_json(capsys, "dual", "--matrix", beta_matrix,
                         "--as", "ode")
    assert code == 0
    assert "psi^(1)(t)" in obj["rendered"]
    assert "u = exp(-t)" in obj["rendered"]


def test_solve_fde_rising_form(capsys):
    code, obj = run_json(capsys, "solve-fde", "--p-coeffs", "0,1",
                         "--q-coeffs", "-1,-1")
    assert code == 0
    assert obj["rho"] == [[-0.0, 0.0]] or obj["rho"] == [[0.0, 0.0]]
    assert obj["sigma"][0][0] == -2.0
    assert obj["c"] == [1.0, 0.0]
    assert obj["kernel"]["up_right"] == [[1.0, 0.0, 1.0]]


def test_solve_fde_form_aliases(capsys):
    base = ("solve-fde", "--p-coeffs", "0,1", "--q-coeffs", "-1,-1")
    _, semantic = run_json(capsys, *base, "--form", "reflected")
    _, numeric = run_json(capsys, *base, "--form", "3.5")
    assert semantic == numeric
    _, split = run_json(capsys, *base, "--form", "split", "--m", "1",
                        "--n", "1")
    assert split["split"] == {"m": 1, "n": 1}


def test_pochhammer_check_report(capsys, beta_matrix):
    code, obj = run_json(capsys, "pochhammer-check", "--matrix", beta_matrix,
                         "--x", "1.5", "--beta", "2")
    assert code == 0
    assert obj["fde_residual"] < 1e-6
    assert obj["beta_oracle_rel_err"] < 1e-6


def test_pochhammer_check_with_a_slow_tail(capsys, tmp_path):
    # psi = e^{2t} (1 - e^{-t}/2): at x = 2.05 e^{-x t} psi decays at rate
    # 0.05, and e^{2t} taken apart from e^{-x t} overflowed to a nan error;
    # psi(0) = 1/2 leaves a boundary term, so the residual is not small
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "rows": 2, "cols": 2,
        "entries": [[-2, 0], [0.5, 0], [1, 0], [-0.5, 0]],
    }))
    code, obj = run_json(capsys, "pochhammer-check", "--matrix", str(path),
                         "--x", "2.05")
    assert code == 0
    assert math.isfinite(obj["fde_residual"])


def test_dump_integrand_csv(capsys, tmp_path):
    out = tmp_path / "dump.csv"
    code, obj = run_json(capsys, "dump-integrand", "--orders", "1,0,0,1",
                         "--b", "0", "--z", "1", "--out", str(out),
                         "--points", "32")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "im_s,re_integrand,im_integrand,abs_integrand"
    assert len(lines) == 33


def test_dump_integrand_refuses_zero_argument(capsys, tmp_path):
    # as `eval g --z 0` does: z^s has no value at z = 0, nor at a z that
    # is not finite (it wrote 512 rows of zeros or NaNs)
    out = tmp_path / "dump.csv"
    for z in ("0", "inf", "nan"):
        code, obj = run_json(capsys, "dump-integrand", "--orders", "1,0,0,1",
                             "--b", "0", "--z", z, "--out", str(out))
        assert code == 2
        assert obj["error"]["code"] == "parameter_error"
        assert not out.exists()
        code, obj = run_json(capsys, "eval", "g", "--orders", "1,0,0,1",
                             "--b", "0", "--z", z)
        assert code == 2
        assert obj["error"]["code"] == "parameter_error"


@pytest.mark.parametrize("flag", ["--p-coeffs", "--q-coeffs"])
@pytest.mark.parametrize("value", ["", ",", "0"])
def test_solve_fde_refuses_a_zero_polynomial(capsys, flag, value):
    # an empty list is the zero polynomial too; it used to exit 1 with an
    # IndexError traceback
    code, obj = run_json(capsys, *_VALID["solve-fde"], f"{flag}={value}")
    assert code == 2
    assert obj["error"]["code"] == "parameter_error"


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_dump_integrand_refuses_fewer_than_two_points(capsys, tmp_path,
                                                      points):
    out = tmp_path / "dump.csv"
    code, obj = run_json(capsys, "dump-integrand", "--orders", "1,0,0,1",
                         "--b", "0", "--z", "1", "--out", str(out),
                         "--points", points)
    assert code == 2
    assert obj["error"]["code"] == "parameter_error"
    assert not out.exists()


def test_verify_suite_passes(capsys):
    code, obj = run_json(capsys, "verify", "--suite", "duality",
                         "--seed", "7")
    assert code == 0 and obj["passed"]
    assert all(c["passed"] for c in obj["checks"])


def test_verify_unknown_suite_usage_error(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 64


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_run_suite_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # numpy's generator raised an untyped ValueError on -1
    with pytest.raises(ParameterError):
        verification.run_suite("gamma", seed)


def test_determinism_byte_identical(capsys):
    argv = ("eval", "g", "--orders", "1,0,0,1", "--b", "0.5", "--z", "2")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    _, v1 = run_cli(capsys, "verify", "--suite", "fde", "--seed", "3")
    _, v2 = run_cli(capsys, "verify", "--suite", "fde", "--seed", "3")
    assert json.loads(v1)["checks"] == json.loads(v2)["checks"]


def test_domain_error_exit_code_and_error_object(capsys):
    code, obj = run_json(capsys, "eval", "pfq", "--num", "1", "--den", "-2",
                         "--z", "0.5")
    assert code == 2
    err = obj["error"]
    assert err["code"] == "invalid_denominator_error"
    assert "message" in err and "context" in err


@pytest.mark.parametrize("z", ["inf", "nan"])
def test_eval_pfq_non_finite_argument_is_domain_error(capsys, z):
    # the series used to spend its term budget and exit 3
    code, obj = run_json(capsys, "eval", "pfq", "--num", "0.5", "--den",
                         "1.5", "--z", z)
    assert code == 2
    assert obj["error"]["code"] == "parameter_error"


@pytest.mark.parametrize("param", [("--num=-inf", "--den", "1"),
                                   ("--num", "inf", "--den", "1"),
                                   ("--num", "1", "--den", "nan")])
def test_eval_pfq_non_finite_parameter_is_parameter_error(capsys, param):
    # -inf used to exit 1 with a traceback, inf and nan to spend the term
    # budget and exit 3
    code, obj = run_json(capsys, "eval", "pfq", *param, "--z", "0.5")
    assert code == 2
    assert obj["error"]["code"] == "parameter_error"


def test_eval_pfq_overflow_is_numerical_failure(capsys):
    # the sum e^720 overflows: it used to exit 0 and print Infinity, which
    # is not JSON
    code, obj = run_json(capsys, "eval", "pfq", "--num", "1", "--den", "1",
                         "--z", "720")
    assert code == 3
    assert obj["error"]["code"] == "convergence_error"


def test_numeric_error_exit_code(capsys):
    # all-denominator kernel has no decay: the integral diverges
    code, obj = run_json(capsys, "eval", "g", "--orders", "0,0,1,1",
                         "--a", "0.3", "--b", "0.1", "--z", "0.5")
    assert code == 3
    assert obj["error"]["code"] == "convergence_error"


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "eval", "g", "--orders", "9", "--b", "0",
                      "--z", "1")
    assert code == 64


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan"])
def test_nonpositive_tolerance_is_usage_error(capsys, tol):
    code, _ = run_cli(capsys, "eval", "g", "--orders", "1,0,0,1", "--b", "0",
                      "--z", "1", "--tol", tol)
    assert code == 64


def test_params_file_merging(capsys, tmp_path):
    blob = tmp_path / "params.json"
    blob.write_text(json.dumps({"num": [1, 1], "den": [2]}))
    code, obj = run_json(capsys, "eval", "pfq", "--z", "-0.5",
                         "--params", str(blob))
    assert code == 0
    assert abs(obj["value"][0] - 0.8109302162163288) < 1e-8


def test_text_output_mode(capsys):
    code, out = run_cli(capsys, "--output", "text", "eval", "g", "--orders",
                        "1,0,0,1", "--b", "0", "--z", "1")
    assert code == 0
    assert "value" in out and "0.367879" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mbint", "eval", "pfq", "--num", "",
         "--den", "", "--z", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert abs(obj["value"][0] - 2.718281828459045) < 1e-11


def test_import_loads_neither_mpmath_nor_scipy():
    # both load on first use only: mpmath's import alone costs tens of ms
    # of every cold CLI call
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mbint, mbint.cli; "
         "print(sorted({'mpmath', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# every numeric flag of every subcommand, each with a malformed value: the
# value is appended to a valid argv (argparse keeps the last one)
_VALID = {
    "eval pfq": ["eval", "pfq", "--num", "1", "--den", "2", "--z", "0.5"],
    "eval g": ["eval", "g", "--orders", "1,0,0,1", "--b", "0", "--z", "1"],
    "eval h": ["eval", "h", "--orders", "1,0,0,1", "--b", "0", "--beta", "1",
               "--z", "1"],
    "solve-fde": ["solve-fde", "--p-coeffs", "0,1", "--q-coeffs", "-1,-1"],
    "pochhammer-check": ["pochhammer-check", "--matrix", "{matrix}", "--x",
                         "1.5"],
    "dump-integrand": ["dump-integrand", "--orders", "1,0,0,1", "--b", "0",
                       "--z", "1", "--out", "{out}"],
    "verify": ["verify", "--suite", "duality"],
}

_MALFORMED = [
    ("eval pfq", "--num", "1,x"), ("eval pfq", "--den", "y"),
    ("eval pfq", "--z", "0.5,1,2"), ("eval pfq", "--z", "x"),
    ("eval pfq", "--z", ""), ("eval pfq", "--tol", "x"),
    ("eval pfq", "--tol", "0"),
    ("eval g", "--orders", "1,0,x,1"), ("eval g", "--orders", "1,0,0"),
    ("eval g", "--orders", "1,0,0,1.5"), ("eval g", "--a", "x"),
    ("eval g", "--b", "0,y"), ("eval g", "--z", "x,y"),
    ("eval g", "--z", "1+2"), ("eval g", "--tol", "-1e-10"),
    ("eval h", "--orders", "1,0,0,1,0"), ("eval h", "--a", "x"),
    ("eval h", "--alpha", "x"), ("eval h", "--b", "x"),
    ("eval h", "--beta", "x"), ("eval h", "--beta", "1j"),
    ("eval h", "--z", "1,2,3"), ("eval h", "--tol", "nan"),
    ("solve-fde", "--p-coeffs", "0,x"), ("solve-fde", "--q-coeffs", "y"),
    ("solve-fde", "--m", "x"), ("solve-fde", "--n", "1.5"),
    ("pochhammer-check", "--x", "1,b"), ("pochhammer-check", "--x", "x"),
    ("pochhammer-check", "--beta", "x"), ("pochhammer-check", "--tol", "0"),
    ("dump-integrand", "--orders", "1,0,x,1"), ("dump-integrand", "--a", "x"),
    ("dump-integrand", "--b", "x"), ("dump-integrand", "--z", "x,y"),
    ("dump-integrand", "--points", "x"),
    ("verify", "--seed", "x"), ("verify", "--seed", "1.5"),
    ("verify", "--seed", "-1"),
]


@pytest.mark.parametrize("command,flag,value", _MALFORMED)
def test_malformed_flag_is_usage_error(capsys, beta_matrix, tmp_path,
                                       command, flag, value):
    # each of these used to exit 1 with a traceback (or, for --tol, to be
    # refused in run() after parsing)
    out = tmp_path / "dump.csv"
    argv = [a.format(matrix=beta_matrix, out=out) for a in _VALID[command]]
    code = cli.run(argv + [f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert flag in captured.err.splitlines()[0]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_malformed_flag_cases_start_from_valid_argv(capsys, beta_matrix,
                                                    tmp_path):
    assert {command for command, _, _ in _MALFORMED} == set(_VALID)
    for command, argv in _VALID.items():
        out = tmp_path / "dump.csv"
        argv = [a.format(matrix=beta_matrix, out=out) for a in argv]
        assert cli.run(argv) == 0, command


@pytest.mark.parametrize("func", ["pfq", "g"])
def test_infinite_tolerance_reaches_the_library(capsys, func):
    command = f"eval {func}"
    code, obj = run_json(capsys, *_VALID[command], "--tol", "inf")
    assert code == 2
    assert obj["error"]["code"] == "parameter_error"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return str(path)


@pytest.mark.parametrize("content,code", [
    (None, "io_error"),                   # unreadable: was parameter_error
    ("{", "parameter_error"),                 # invalid JSON
    (b"\xff\xfe{}", "parameter_error"),       # not UTF-8
    ("[1, 2]", "parameter_error"),            # not an object: was ignored
    ('{"num": ["x"]}', "parameter_error"),    # an entry that does not parse
    ('{"num": [[1, 2]]}', "parameter_error"),
    ('{"beta": ["x"]}', None),                # eval pfq reads no beta
])
def test_params_file_defects(capsys, tmp_path, content, code):
    path = (str(tmp_path / "missing.json") if content is None
            else _write(tmp_path, "params.json", content))
    got, obj = run_json(capsys, "eval", "pfq", "--z", "1", "--params", path)
    if code is None:
        assert got == 0 and abs(obj["value"][0] - math.e) < 1e-12
    else:
        assert got == 2 and obj["error"]["code"] == code


@pytest.mark.parametrize("content,code", [
    (None, "io_error"),
    ("{", "parameter_error"),                 # was JSONDecodeError, exit 1
    (b"\xff\xfe{}", "parameter_error"),
    ("[1, 2]", "parameter_error"),            # was TypeError
    ('{"rows": 2, "entries": []}', "parameter_error"),  # was KeyError
    ('{"rows": "x", "cols": 2, "entries": []}', "parameter_error"),
    ('{"rows": 1, "cols": 2, "entries": [[1], [1, 0]]}',  # was IndexError
     "parameter_error"),
    ('{"rows": 1, "cols": 2, "entries": [["1", 0], [1, 0]]}',
     "parameter_error"),
])
@pytest.mark.parametrize("command", [["dual", "--as", "fde"],
                                     ["pochhammer-check", "--x", "1.5"]])
def test_matrix_file_defects(capsys, tmp_path, content, code, command):
    path = (str(tmp_path / "missing.json") if content is None
            else _write(tmp_path, "matrix.json", content))
    got, obj = run_json(capsys, *command, "--matrix", path)
    assert got == 2
    assert obj["error"]["code"] == code


def test_g_params_file_ignores_h_multipliers(capsys, tmp_path):
    # a G file may hold alpha: eval g reads a and b only
    path = _write(tmp_path, "g.json",
                  json.dumps({"a": [0.5], "b": [0.2], "alpha": [2.0]}))
    base = ("eval", "g", "--orders", "1,1,1,1", "--z", "0.5")
    _, from_file = run_cli(capsys, *base, "--params", path)
    _, from_flags = run_cli(capsys, *base, "--a", "0.5", "--b", "0.2")
    assert from_file == from_flags


def test_h_params_file_supplies_multipliers(capsys, tmp_path):
    path = _write(tmp_path, "h.json", json.dumps(
        {"a": [0.5], "alpha": [1.5], "b": [0.2], "beta": "1"}))
    base = ("eval", "h", "--orders", "1,1,1,1", "--z", "0.5")
    _, from_file = run_cli(capsys, *base, "--params", path)
    _, from_flags = run_cli(capsys, *base, "--a", "0.5", "--alpha", "1.5",
                            "--b", "0.2", "--beta", "1")
    assert json.loads(from_file)["command"] == "eval h"
    assert from_file == from_flags


def test_complex_argument_forms_agree(capsys):
    base = ("eval", "h", "--orders", "1,0,0,1", "--b", "0", "--beta", "2")
    outs = {run_cli(capsys, *base, "--z", z)[1]
            for z in ("0.5,0.3", "0.5+0.3j", " 0.5 + 0.3j ")}
    assert len(outs) == 1
    assert json.loads(outs.pop())["command"] == "eval h"


def _csv_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    return dict(rows[1:])


def test_csv_output_flattens_nested_keys(capsys):
    argv = ("eval", "g", "--orders", "1,0,0,1", "--b", "0", "--z", "1")
    code, out = run_cli(capsys, "--output", "csv", *argv)
    assert code == 0
    rows = _csv_rows(out)
    _, obj = run_json(capsys, *argv)
    assert rows["contour.anchor"] == json.dumps(obj["contour"]["anchor"])
    assert rows["contour.truncation"] == \
        json.dumps(obj["contour"]["truncation"])
    assert rows["value"] == json.dumps(obj["value"])
    assert "contour" not in rows

    argv = ("verify", "--suite", "duality", "--seed", "7")
    code, out = run_cli(capsys, "--output", "csv", *argv)
    assert code == 0
    rows = _csv_rows(out)
    _, obj = run_json(capsys, *argv)
    assert rows["checks[0].name"] == json.dumps(obj["checks"][0]["name"])
    assert rows["checks[1].passed"] == "true"
    assert "checks" not in rows
