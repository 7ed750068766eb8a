"""Command-line interface.

Subcommands: eval (pfq | g | h), dual, solve-fde, pochhammer-check,
dump-integrand, verify.  Complex numbers serialize as [re, im] pairs and
output is a single sorted-key JSON object by default, so identical argv
(and seed) produce byte-identical bytes.  Exit codes: 0 success, 2
parameter/domain errors, 3 numerical failure, 64 usage errors.
"""

import argparse
import csv
import json
import logging
import os
import re
import sys

import numpy as np

from . import duality, fde_solutions as fde, laplace
from . import mellin_barnes as mb
from . import special_functions as sf
from . import verification
from .cgamma import log_gamma
from .errors import MBIntError, ParameterError

_FORM_ALIASES = {"rising": "rising", "reflected": "reflected",
                 "split": "split",
                 "3.4": "rising", "3.5": "reflected", "3.6": "split"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative numbers and comma lists like "-1,-1" pass as values
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise UsageError(message)


def _parse_complex(text):
    text = text.strip()
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number: {text!r}") from exc


def _parse_complex_list(text):
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(complex(piece))
        except ValueError as exc:
            raise UsageError(f"cannot parse parameter list entry: "
                             f"{piece!r}") from exc
    return tuple(out)


def _parse_real_list(text):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_orders(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise UsageError("--orders expects m,n,p,q")
    return tuple(int(p) for p in parts)


def _c(value):
    value = complex(value)
    return [value.real, value.imag]


def _load_params_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read parameter file: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"parameter file is not valid JSON: {exc}",
                             path=path)


def _merge_params(args, names):
    """Fill missing flag values from --params JSON, if provided."""
    if not getattr(args, "params", None):
        return
    blob = _load_params_file(args.params)
    for name in names:
        key = name.replace("-", "_")
        if getattr(args, key, None) is None and name in blob:
            val = blob[name]
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            setattr(args, key, str(val))


def _format_poly(coeffs, var="x"):
    """Human-readable polynomial with a factored leading minus sign."""
    coeffs = [complex(c) for c in coeffs]
    if all(c == 0 for c in coeffs):
        return "0"

    def fmt_num(c):
        if c.imag == 0:
            r = c.real
            return str(int(r)) if r == int(r) else f"{r:g}"
        return f"({c.real:g}{c.imag:+g}i)"

    negate = all(c.real <= 0 and c.imag == 0 for c in coeffs) \
        and any(c != 0 for c in coeffs)
    if negate:
        coeffs = [-c for c in coeffs]
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(fmt_num(c))
        else:
            lead = "" if c == 1 else ("-" if c == -1 else fmt_num(c) + " ")
            power = var if k == 1 else f"{var}^{k}"
            terms.append(f"{lead}{power}")
    body = " + ".join(terms).replace("+ -", "- ")
    if negate:
        return f"-({body})" if len(terms) > 1 else f"-{body}"
    return f"({body})" if len(terms) > 1 else body


def _render_fde(matrix):
    spec = duality.as_fde(matrix)
    pieces = []
    for k in range(spec.order + 1):
        poly = _format_poly(spec.coefficient_in_x(k))
        if poly == "0":
            continue
        pieces.append(f"{poly} f(x+{k})" if k else f"{poly} f(x)")
    joined = " + ".join(pieces).replace("+ -(", "- (")
    return joined + " = 0"


def _render_ode(matrix):
    spec = duality.as_ode(matrix)
    pieces = []
    for h in range(spec.order + 1):
        poly = _format_poly(spec.coefficient(h), var="u")
        if poly == "0":
            continue
        deriv = "psi(t)" if h == 0 else f"psi^({h})(t)"
        pieces.append(f"{poly} {deriv}")
    joined = " + ".join(pieces).replace("+ -(", "- (")
    return joined + " = 0,  u = exp(-t)"


def _emit(args, obj):
    if args.output == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    elif args.output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value"])
        for key, val in sorted(_flatten(obj)):
            writer.writerow([key, val])
    else:
        _emit_text(obj)


def _flatten(obj, prefix=""):
    rows = []
    for key in sorted(obj):
        val = obj[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_flatten(val, name + "."))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                rows.extend(_flatten(item, f"{name}[{i}]."))
        else:
            rows.append((name, json.dumps(val)))
    return rows


def _emit_text(obj, indent=""):
    for key in sorted(obj):
        val = obj[key]
        if isinstance(val, dict):
            sys.stdout.write(f"{indent}{key}:\n")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for item in val:
                _emit_text(item, indent + "  ")
                sys.stdout.write("\n")
        else:
            sys.stdout.write(f"{indent}{key}: {val}\n")


def build_parser():
    top = _Parser(prog="mbint", description=__doc__)
    top.add_argument("--output", choices=("json", "text", "csv"),
                     default="json")
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a special function")
    evsub = ev.add_subparsers(dest="func", required=True)

    pf = evsub.add_parser("pfq")
    pf.add_argument("--num", default=None, help="a1,a2,...")
    pf.add_argument("--den", default=None, help="b1,b2,...")
    pf.add_argument("--z", required=True)
    pf.add_argument("--tol", type=float, default=1e-12)
    pf.add_argument("--params", default=None)

    gp = evsub.add_parser("g")
    gp.add_argument("--orders", required=True, help="m,n,p,q")
    gp.add_argument("--a", default=None)
    gp.add_argument("--b", default=None)
    gp.add_argument("--z", required=True)
    gp.add_argument("--tol", type=float, default=1e-10)
    gp.add_argument("--method", choices=("quad", "residues"), default=None)
    gp.add_argument("--params", default=None)

    hp = evsub.add_parser("h")
    hp.add_argument("--orders", required=True)
    hp.add_argument("--a", default=None)
    hp.add_argument("--alpha", default=None)
    hp.add_argument("--b", default=None)
    hp.add_argument("--beta", default=None)
    hp.add_argument("--z", required=True)
    hp.add_argument("--tol", type=float, default=1e-10)
    hp.add_argument("--method", choices=("quad", "residues"), default=None)
    hp.add_argument("--params", default=None)

    du = sub.add_parser("dual", help="read a matrix as an ODE or FDE")
    du.add_argument("--matrix", required=True)
    du.add_argument("--as", dest="reading", choices=("ode", "fde"),
                    required=True)

    so = sub.add_parser("solve-fde", help="gamma-quotient closed form")
    so.add_argument("--p-coeffs", required=True,
                    help="coefficients of P(x), ascending")
    so.add_argument("--q-coeffs", required=True,
                    help="coefficients of the shifted polynomial in "
                         "powers of (x+1), ascending")
    so.add_argument("--form", default="rising",
                    choices=sorted(set(_FORM_ALIASES)),
                    help="factor arrangement: rising (all numerator "
                         "factors rise in x), reflected, or split")
    so.add_argument("--m", type=int, default=None)
    so.add_argument("--n", type=int, default=None)

    pc = sub.add_parser("pochhammer-check",
                        help="ODE -> transform -> FDE residual pipeline")
    pc.add_argument("--matrix", required=True)
    pc.add_argument("--x", required=True)
    pc.add_argument("--beta", type=float, default=None,
                    help="compare against the beta-function gamma ratio")
    pc.add_argument("--tol", type=float, default=1e-9)

    di = sub.add_parser("dump-integrand", help="CSV samples along a contour")
    di.add_argument("--orders", required=True)
    di.add_argument("--a", default=None)
    di.add_argument("--b", default=None)
    di.add_argument("--z", required=True)
    di.add_argument("--out", required=True)
    di.add_argument("--points", type=int, default=512)

    ve = sub.add_parser("verify", help="run a property suite")
    ve.add_argument("--suite", required=True,
                    choices=sorted(verification.SUITES) + ["all"])
    ve.add_argument("--seed", type=int, default=0)
    return top


def _cmd_eval_pfq(args):
    _merge_params(args, ("num", "den", "z"))
    a = _parse_complex_list(args.num or "")
    b = _parse_complex_list(args.den or "")
    z = _parse_complex(args.z)
    value = sf.pfq(a, b, z, tol=args.tol)
    return {"command": "eval pfq", "value": _c(value),
            "regime": sf.classify_pfq(len(a), len(b), z)}


def _g_params_from_args(args):
    m, n, p, q = _parse_orders(args.orders)
    a = _parse_complex_list(args.a or "")
    b = _parse_complex_list(args.b or "")
    return sf.GParams(m, n, p, q, a, b)


def _cmd_eval_g(args):
    _merge_params(args, ("orders", "a", "b", "z"))
    params = _g_params_from_args(args)
    z = _parse_complex(args.z)
    res = sf.meijer_g(params, z, tol=args.tol, method=args.method)
    return {"command": "eval g", **res.to_json()}


def _cmd_eval_h(args):
    _merge_params(args, ("orders", "a", "alpha", "b", "beta", "z"))
    m, n, p, q = _parse_orders(args.orders)
    params = sf.HParams(m, n, p, q,
                        _parse_complex_list(args.a or ""),
                        _parse_complex_list(args.b or ""),
                        _parse_real_list(args.alpha or ""),
                        _parse_real_list(args.beta or ""))
    z = _parse_complex(args.z)
    res = sf.fox_h(params, z, tol=args.tol, method=args.method)
    return {"command": "eval h", **res.to_json()}


def _cmd_dual(args):
    with open(args.matrix) as fh:
        matrix = duality.CoefficientMatrix.from_json(json.load(fh))
    m, p, p2, m2 = duality.orders(matrix)
    out = {"command": "dual", "reading": args.reading,
           "orders": {"ode_order": m, "ode_exp_degree": p,
                      "fde_order": p2, "fde_poly_degree": m2}}
    if args.reading == "ode":
        spec = duality.as_ode(matrix)
        out["rendered"] = _render_ode(matrix)
        out["coefficients"] = [[_c(c) for c in spec.coefficient(h)]
                               for h in range(spec.order + 1)]
        out["singular_polynomial"] = \
            [_c(c) for c in duality.ode_singular_polynomial(matrix)]
    else:
        spec = duality.as_fde(matrix)
        out["rendered"] = _render_fde(matrix)
        out["coefficients"] = [[_c(c) for c in spec.coefficient_in_x(k)]
                               for k in range(spec.order + 1)]
        out["singular_polynomial"] = \
            [_c(c) for c in duality.fde_singular_polynomial(matrix)]
    return out


def _cmd_solve_fde(args):
    inst = fde.FirstOrderFDE.from_coefficient_columns(
        _parse_complex_list(args.p_coeffs),
        _parse_complex_list(args.q_coeffs))
    roots = fde.coefficient_roots(inst)
    p, q = len(roots.rho), len(roots.sigma)
    m, n = {"rising": (0, p), "reflected": (q, 0),
            "split": (q // 2, p // 2)}[_FORM_ALIASES[args.form]]
    m = m if args.m is None else args.m
    n = n if args.n is None else args.n
    kernel = fde.gamma_quotient(roots, m=m, n=n)
    return {"command": "solve-fde",
            "rho": [_c(r) for r in roots.rho],
            "sigma": [_c(s) for s in roots.sigma],
            "c": _c(kernel.base),
            "split": {"m": m, "n": n},
            "kernel": kernel.to_json()}


def _cmd_pochhammer_check(args):
    with open(args.matrix) as fh:
        matrix = duality.CoefficientMatrix.from_json(json.load(fh))
    if matrix.ode_order != 1:
        raise ParameterError("pipeline expects a first-order ODE "
                             "(two-row matrix)", rows=matrix.ode_order + 1)
    x = _parse_complex(args.x)
    psi = laplace.solve_first_order_ode(matrix.row(0), matrix.row(1))
    transforms = {}

    def f(xx):
        transforms[xx] = laplace.laplace_transform(psi, xx, tol=args.tol)
        return transforms[xx]

    residual = laplace.fde_numeric_residual(matrix, f, x)
    out = {"command": "pochhammer-check", "x": _c(x),
           "psi": psi.to_json(), "fde_residual": residual}
    if args.beta is not None:
        beta = args.beta
        oracle = complex(np.exp(log_gamma(x) + log_gamma(beta)
                                - log_gamma(x + beta)))
        got = transforms[x]  # the residual's f(x + 0)
        out["beta_oracle_rel_err"] = abs(got - oracle) / abs(oracle)
        out["beta"] = beta
    return out


def _cmd_dump_integrand(args):
    if args.points < 2:
        raise ParameterError("--points must be at least 2",
                             points=args.points)
    params = _g_params_from_args(args)
    z = _parse_complex(args.z)
    if z == 0:
        raise ParameterError("argument must be nonzero")
    kernel = params.to_kernel()
    contour = mb.choose_contour(kernel)
    logz = np.log(z)
    # the height integrate takes at this z and eval g's default tol
    T, _ = mb._truncation(kernel, contour.anchor, logz, 1e-10,
                          contour.truncation)
    ys = np.linspace(-T, T, args.points)
    s = contour.anchor + 1j * ys
    with np.errstate(all="ignore"):
        vals = np.exp(mb.kernel_log_grid(kernel, s)[0] + s * logz)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["im_s", "re_integrand", "im_integrand",
                         "abs_integrand"])
        for y, v in zip(ys, vals):
            writer.writerow([repr(float(y)), repr(float(v.real)),
                             repr(float(v.imag)), repr(float(abs(v)))])
    return {"command": "dump-integrand", "out": args.out,
            "points": int(args.points), "anchor": contour.anchor,
            "truncation": T}


def _cmd_verify(args):
    report = verification.run_suite(args.suite, args.seed)
    report["command"] = "verify"
    return report


_HANDLERS = {
    ("eval", "pfq"): _cmd_eval_pfq,
    ("eval", "g"): _cmd_eval_g,
    ("eval", "h"): _cmd_eval_h,
    ("dual", None): _cmd_dual,
    ("solve-fde", None): _cmd_solve_fde,
    ("pochhammer-check", None): _cmd_pochhammer_check,
    ("dump-integrand", None): _cmd_dump_integrand,
    ("verify", None): _cmd_verify,
}


def run(argv):
    """Parse argv and execute; returns the process exit code."""
    if os.environ.get("MB_LOG"):
        logging.basicConfig(level=os.environ["MB_LOG"].upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "tol", 1.0) > 0:  # also refuses NaN
            raise UsageError("tolerance must be positive")
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 64
    try:
        handler = _HANDLERS[(args.command, getattr(args, "func", None))]
        result = handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except MBIntError as exc:
        err = {"error": {"code": exc.code, "message": str(exc),
                         "context": {k: repr(v) for k, v
                                     in exc.context.items()}}}
        _emit(args, err)
        return 2 if exc.kind == "domain" else 3
    except OSError as exc:
        _emit(args, {"error": {"code": "io_error", "message": str(exc),
                               "context": {}}})
        return 2
    _emit(args, result)
    if args.command == "verify" and not result.get("passed", False):
        return 3
    return 0


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
