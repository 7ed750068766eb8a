"""README's "Library sketch" block runs as written, and each line that
carries a comment produces the value the comment states; each command of
its "CLI" block runs and prints one JSON object."""

import ast
import cmath
import json
import math
import pathlib
import re
import shlex

import pytest

import mbint
from mbint import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _sketch():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _roots_as_stated(roots):
    return (list(roots.rho) == [0] and list(roots.sigma) == [-2]
            and roots.c == 1)


# the code of each commented line -> (its comment, a check of the value
# the code produces), so a changed comment needs a changed check
CHECKS = {
    "mbint.orders(A)": ("(1, 1, 1, 1): order/degree swap",
                        lambda v: v == (1, 1, 1, 1)),
    "roots = mbint.coefficient_roots(inst)": ("rho = [0], sigma = [-2], c = 1",
                                              _roots_as_stated),
    # Gamma(2.5) / Gamma(4.5) = 1 / (2.5 * 3.5)
    "kernel = mbint.gamma_quotient(roots)": (
        "Gamma(x)/Gamma(x+2) as a kernel",
        lambda v: cmath.isclose(mbint.solution_value(v, 2.5), 1.0 / 8.75,
                                rel_tol=1e-13)),
    "mbint.fde_ratio_residual(kernel, roots, 2.5)": (
        "~1e-15", lambda v: 0.0 <= v < 1e-14),
    "mbint.meijer_g(params, 2.0, tol=1e-11).value": (
        "sqrt(2) e^{-2}",
        lambda v: cmath.isclose(v, math.sqrt(2.0) * math.exp(-2.0),
                                rel_tol=1e-11)),
    "mbint.pfq((1, 1), (2,), 0.5)": (
        "2 log 2",
        lambda v: cmath.isclose(v, 2.0 * math.log(2.0), rel_tol=1e-12)),
}


def test_library_sketch_runs_and_matches_its_comments():
    source = _sketch()
    lines = source.splitlines()
    namespace = {}
    checked = set()
    for stmt in ast.parse(source).body:
        line = lines[stmt.lineno - 1]
        code, _, comment = line.partition("#")
        code = code.strip()
        if not comment:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        assert code in CHECKS, f"no check for the README line {code!r}"
        stated, check = CHECKS[code]
        assert comment.strip() == stated, code
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                     namespace)
        if isinstance(stmt, ast.Assign):
            namespace[stmt.targets[0].id] = value
        assert check(value), (code, stated, value)
        checked.add(code)
    assert checked == set(CHECKS)
    assert namespace["mbint"] is mbint


def _cli_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("mbint ")]


def test_cli_block_shows_every_subcommand():
    shown = {line.split()[1] for line in _cli_lines()}
    assert shown == {"eval", "dual", "solve-fde", "pochhammer-check",
                     "dump-integrand", "verify"}


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_block_runs(line, tmp_path, monkeypatch, capsys):
    # the optional [...] parts left out; beta.json in the Notes' format
    monkeypatch.chdir(tmp_path)
    (tmp_path / "beta.json").write_text(json.dumps({
        "rows": 2, "cols": 2,
        "entries": [[0, 0], [-1, 0], [1, 0], [-1, 0]]}))
    argv = shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]
    assert cli.run(argv) == 0, line
    out = capsys.readouterr().out
    assert out.endswith("}\n") and out.count("\n") == 1, line
    assert isinstance(json.loads(out), dict), line
