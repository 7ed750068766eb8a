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


def _numbers(text, kind=complex, count=None):
    """The comma-separated entries of ``text`` as ``kind`` (complex, float
    or int), empty entries skipped; ``count`` fixes how many there are.
    Every number the CLI reads, from a flag or a --params file, passes
    through here; as an argparse ``type``, a bad entry is a usage error
    naming its flag."""
    try:
        out = tuple(kind(piece) for piece in text.split(",") if piece.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as {kind.__name__} entries") from None
    if count is not None and len(out) != count:
        raise argparse.ArgumentTypeError(
            f"expected {count} comma-separated entries, got {text!r}")
    return out


def _reals(text):
    return _numbers(text, float)


def _orders(text):
    return _numbers(text, int, 4)  # m,n,p,q


def _complex(text):
    """One complex number, written as Python does (spaces allowed) or as
    re,im."""
    if "," in text:
        return complex(*_numbers(text, float, 2))
    return _numbers(text.replace(" ", ""), complex, 1)[0]


def _tolerance(text):
    tol = _numbers(text, float, 1)[0]
    if not tol > 0:  # also refuses NaN
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return tol


def _c(value):
    value = complex(value)
    return [value.real, value.imag]


def _read_json(path):
    """The JSON document in the file at ``path``.  A file that cannot be
    read raises OSError (io_error); one that is not JSON is a
    ParameterError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # not JSON, not UTF-8, or nested past the recursion limit
            raise ParameterError(f"file is not valid JSON: {exc}",
                                 path=path) from None


# the list flags a --params file may supply, by entry kind; --orders and
# --z are required flags
_LIST_PARAMS = {"num": complex, "den": complex, "a": complex, "b": complex,
                "alpha": float, "beta": float}


def _merge_params(args):
    """Fill the list flags of this command left unset from the --params
    JSON object."""
    if not getattr(args, "params", None):
        return
    blob = _read_json(args.params)
    if not isinstance(blob, dict):
        raise ParameterError("parameter file must hold a JSON object",
                             path=args.params)
    for name, kind in _LIST_PARAMS.items():
        if name in blob and getattr(args, name, ()) is None:
            val = blob[name]
            text = ",".join(map(str, val)) if isinstance(val, list) else val
            try:
                setattr(args, name, _numbers(str(text), kind))
            except argparse.ArgumentTypeError as exc:
                raise ParameterError(f"parameter file entry {name!r}: {exc}",
                                     path=args.params) from None


def _format_poly(coeffs, var):
    """Human-readable nonzero polynomial with a factored leading minus
    sign."""
    coeffs = [complex(c) for c in coeffs]

    def fmt_num(c):
        if c.imag == 0:
            r = c.real
            return str(int(r)) if r == int(r) else f"{r:g}"
        return f"({c.real:g}{c.imag:+g}i)"

    negate = all(c.real <= 0 and c.imag == 0 for c in coeffs)
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


def _render(pairs, var):
    """The equation sum poly(var) term = 0 over (coefficients, term) pairs,
    zero polynomials left out."""
    pieces = [f"{_format_poly(coeffs, var)} {term}"
              for coeffs, term in pairs if any(coeffs)]
    return " + ".join(pieces).replace("+ -(", "- (") + " = 0"


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


def _add_kernel_args(sp, fox=False):
    """--orders, --a, --b and --z of a G kernel, with --alpha and --beta
    for Fox H."""
    sp.add_argument("--orders", required=True, type=_orders, help="m,n,p,q")
    sp.add_argument("--a", type=_numbers, default=None)
    if fox:
        sp.add_argument("--alpha", type=_reals, default=None)
    sp.add_argument("--b", type=_numbers, default=None)
    if fox:
        sp.add_argument("--beta", type=_reals, default=None)
    sp.add_argument("--z", required=True, type=_complex)


def build_parser():
    top = _Parser(prog="mbint", description=__doc__)
    top.add_argument("--output", choices=("json", "text", "csv"),
                     default="json")
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a special function")
    evsub = ev.add_subparsers(dest="func", required=True)

    pf = evsub.add_parser("pfq")
    pf.add_argument("--num", type=_numbers, default=None, help="a1,a2,...")
    pf.add_argument("--den", type=_numbers, default=None, help="b1,b2,...")
    pf.add_argument("--z", required=True, type=_complex)
    pf.add_argument("--tol", type=_tolerance, default=1e-12)
    pf.add_argument("--params", default=None)

    for func in ("g", "h"):
        kp = evsub.add_parser(func)
        _add_kernel_args(kp, fox=func == "h")
        kp.add_argument("--tol", type=_tolerance, default=1e-10)
        kp.add_argument("--method", choices=("quad", "residues"),
                        default=None)
        kp.add_argument("--params", default=None)

    du = sub.add_parser("dual", help="read a matrix as an ODE or FDE")
    du.add_argument("--matrix", required=True)
    du.add_argument("--as", dest="reading", choices=("ode", "fde"),
                    required=True)

    so = sub.add_parser("solve-fde", help="gamma-quotient closed form")
    so.add_argument("--p-coeffs", required=True, type=_numbers,
                    help="coefficients of P(x), ascending")
    so.add_argument("--q-coeffs", required=True, type=_numbers,
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
    pc.add_argument("--x", required=True, type=_complex)
    pc.add_argument("--beta", type=float, default=None,
                    help="compare against the beta-function gamma ratio")
    pc.add_argument("--tol", type=_tolerance, default=1e-9)

    di = sub.add_parser("dump-integrand", help="CSV samples along a contour")
    _add_kernel_args(di)
    di.add_argument("--out", required=True)
    di.add_argument("--points", type=int, default=512)

    ve = sub.add_parser("verify", help="run a property suite")
    ve.add_argument("--suite", required=True,
                    choices=sorted(verification.SUITES) + ["all"])
    ve.add_argument("--seed", type=int, default=0)
    return top


def _cmd_eval_pfq(args):
    _merge_params(args)
    a, b = args.num or (), args.den or ()
    value = sf.pfq(a, b, args.z, tol=args.tol)
    return {"command": "eval pfq", "value": _c(value),
            "regime": sf.classify_pfq(len(a), len(b), args.z)}


def _kernel_params(args):
    """GParams from the kernel flags and --params; HParams for eval h."""
    _merge_params(args)
    a, b = args.a or (), args.b or ()
    if getattr(args, "func", None) == "h":
        return sf.HParams(*args.orders, a, b, args.alpha or (),
                          args.beta or ())
    return sf.GParams(*args.orders, a, b)


def _cmd_eval_kernel(args):
    evaluate = sf.fox_h if args.func == "h" else sf.meijer_g
    res = evaluate(_kernel_params(args), args.z, tol=args.tol,
                   method=args.method)
    return {"command": f"eval {args.func}", **res.to_json()}


def _cmd_dual(args):
    matrix = duality.CoefficientMatrix.from_json(_read_json(args.matrix))
    m, p, p2, m2 = duality.orders(matrix)
    if args.reading == "ode":
        spec = duality.as_ode(matrix)
        polys = [spec.coefficient(h) for h in range(m + 1)]
        terms = [f"psi^({h})(t)" if h else "psi(t)" for h in range(m + 1)]
        rendered = _render(zip(polys, terms), "u") + ",  u = exp(-t)"
        singular = duality.ode_singular_polynomial(matrix)
    else:
        spec = duality.as_fde(matrix)
        polys = [spec.coefficient_in_x(k) for k in range(p2 + 1)]
        terms = [f"f(x+{k})" if k else "f(x)" for k in range(p2 + 1)]
        rendered = _render(zip(polys, terms), "x")
        singular = duality.fde_singular_polynomial(matrix)
    return {"command": "dual", "reading": args.reading,
            "orders": {"ode_order": m, "ode_exp_degree": p,
                       "fde_order": p2, "fde_poly_degree": m2},
            "rendered": rendered,
            "coefficients": [[_c(c) for c in poly] for poly in polys],
            "singular_polynomial": [_c(c) for c in singular]}


def _cmd_solve_fde(args):
    inst = fde.FirstOrderFDE.from_coefficient_columns(args.p_coeffs,
                                                      args.q_coeffs)
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
    matrix = duality.CoefficientMatrix.from_json(_read_json(args.matrix))
    if matrix.ode_order != 1:
        raise ParameterError("pipeline expects a first-order ODE "
                             "(two-row matrix)", rows=matrix.ode_order + 1)
    x = args.x
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
    kernel = _kernel_params(args).to_kernel()
    tol = 1e-10  # eval g's default
    logz = np.log(mb.check_argument(args.z, tol))
    contour = mb.choose_contour(kernel)
    # the height integrate takes at this z and tol
    T, _ = mb._truncation(kernel, contour.anchor, logz, tol,
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
    ("eval", "g"): _cmd_eval_kernel,
    ("eval", "h"): _cmd_eval_kernel,
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
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 64
    try:
        handler = _HANDLERS[(args.command, getattr(args, "func", None))]
        result = handler(args)
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
