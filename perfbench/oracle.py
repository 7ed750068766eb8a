"""Independent mpmath references for every case of a bank, and the judge.

Run as a script, it rebuilds the bank of one workload and seed and prints
the references as JSON on stdout:

    python3 perfbench/oracle.py --workload series_bank --seed 3

The benchmark runs it in a child process before timing starts, so oracle
time and mpmath's precision caches never reach a measured number.  This
module never imports mbint.

References, all at 30 significant digits:

* G:         mpmath.meijerg;
* H:         the right-closing residue sum in mpmath, with the working
             precision raised until 30 digits survive the cancellation;
* pfq and pfq_via_g: mpmath.hyper;
* pipeline:  B(x, beta) for the beta family, else the transform of psi
             summed as a series of beta functions, at x, x+1, ..., x+d;
* fde:       the gamma-quotient arrangement rebuilt from mpmath.polyroots.
"""

import argparse
import cmath
import json
import math
import sys

import mpmath

import bank

DPS = 30
EPS = 2.0 ** -52


def _mpc(z):
    return mpmath.mpc(z.real, z.imag)


def _meijer_g(case):
    n, m = case["n"], case["m"]
    a, b = list(case["a"]), list(case["b"])
    return mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]], _mpc(case["z"]))


def _h_family(case, j, logz, dps):
    """Sum of the residues at the poles s = (b_j + l)/beta_j, l = 0, 1, ...

    Each pole contributes (-1)^l / (l! beta_j) * (the other gamma factors
    at s) * z^s.  Returns (sum, largest term magnitude).
    """
    m, n = case["m"], case["n"]
    a = [mpmath.mpf(v) for v in case["a"]]
    b = [mpmath.mpf(v) for v in case["b"]]
    alpha = [mpmath.mpf(v) for v in case["alpha"]]
    beta = [mpmath.mpf(v) for v in case["beta"]]
    total = mpmath.mpc(0)
    biggest = mpmath.mpf(0)
    negligible = mpmath.mpf(10) ** (-dps - 3)
    small = 0
    for l in range(20000):
        s = (b[j] + l) / beta[j]
        t = (-1) ** l / (mpmath.factorial(l) * beta[j]) * mpmath.exp(s * logz)
        for i in range(m):
            if i != j:
                t *= mpmath.gamma(b[i] - beta[i] * s)
        for i in range(n):
            t *= mpmath.gamma(1 - a[i] + alpha[i] * s)
        for i in range(m, len(b)):
            t *= mpmath.rgamma(1 - b[i] + beta[i] * s)
        for i in range(n, len(a)):
            t *= mpmath.rgamma(a[i] - alpha[i] * s)
        total += t
        biggest = max(biggest, abs(t))
        # past the growth phase, stop after 5 terms below the noise floor
        small = small + 1 if l > 10 and abs(t) <= biggest * negligible else 0
        if small >= 5:
            return total, biggest
    raise ArithmeticError("H residue sum did not settle")


def _fox_h(case):
    dps = DPS + 10
    for _ in range(4):
        with mpmath.workdps(dps):
            logz = mpmath.log(_mpc(case["z"]))
            total = mpmath.mpc(0)
            biggest = mpmath.mpf(0)
            for j in range(case["m"]):
                fam, big = _h_family(case, j, logz, dps)
                total += fam
                biggest = max(biggest, big)
            lost = 0.0 if total == 0 else float(
                mpmath.log10(biggest / abs(total)))
            if dps - lost >= DPS + 5:
                return total
        dps = int(DPS + 10 + lost)
    raise ArithmeticError("H residue sum lost too many digits")


def _transform_series(case):
    """Taylor coefficients c_k of prod over the roots r != 1 of
    (1 - u/r)^mu, from (n+1) c_{n+1} = sum_k g_k c_{n-k} with
    g_k = -sum mu r^{-(k+1)} (the logarithmic derivative)."""
    pairs = [(_mpc(r), _mpc(mu)) for r, mu in zip(case["roots"], case["mus"])
             if r != 1]
    if not pairs:
        return [mpmath.mpc(1)]
    ratio = max(1 / abs(r) for r, _ in pairs)
    count = int((DPS + 8) / -math.log10(ratio)) + 20
    g = [-sum(mu * r ** -(k + 1) for r, mu in pairs) for k in range(count)]
    c = [mpmath.mpc(1)]
    for n in range(count - 1):
        c.append(mpmath.fsum(g[k] * c[n - k] for k in range(n + 1)) / (n + 1))
    return c


def _transform(case, x, coeffs):
    """integral_0^inf e^{-xt} psi(t) dt with u = e^{-t}:

        integral_0^1 u^{a-1} (1-u)^{mu_1} prod (1 - u/r)^mu du,  a = x - lam,

    summed term by term as sum c_k B(a + k, mu_1 + 1) (or c_k / (a + k)
    without a root at u = 1); every other root has |r| >= 2, so the
    Taylor series in u converges geometrically on [0, 1].
    """
    if "beta" in case:
        return mpmath.beta(x, case["beta"])
    a = x - _mpc(case["lam"])
    ends = [_mpc(mu) for r, mu in zip(case["roots"], case["mus"]) if r == 1]
    total = mpmath.mpc(0)
    if ends:
        b = ends[0] + 1
        w = mpmath.beta(a, b)
        for k, ck in enumerate(coeffs):
            total += ck * w
            w *= (a + k) / (a + k + b)
    else:
        for k, ck in enumerate(coeffs):
            total += ck / (a + k)
    return total


def _sorted_roots(coeffs):
    desc = [_mpc(c) for c in reversed(coeffs)]
    if len(desc) == 2:
        roots = [-desc[1] / desc[0]]
    else:
        roots = mpmath.polyroots(desc, maxsteps=200, extraprec=60)
    return sorted(roots, key=lambda r: (float(r.real), float(r.imag)))


def _fde_value(case):
    """f(x) of the (m, n) arrangement of the first-order FDE solution."""
    rho = _sorted_roots(case["p_poly"])
    sigma = _sorted_roots(case["q_poly"])
    m, n, p = case["m"], case["n"], len(rho)
    c = -_mpc(case["p_poly"][-1]) / _mpc(case["q_poly"][-1])
    if (m + n - p) % 2:
        c = -c
    x = _mpc(case["x"])
    out = mpmath.exp(x * mpmath.log(c))
    for s in sigma[:m]:
        out *= mpmath.gamma(1 + s - x)
    for r in rho[:n]:
        out *= mpmath.gamma(x - r)
    for s in sigma[m:]:
        out *= mpmath.rgamma(x - s)
    for r in rho[n:]:
        out *= mpmath.rgamma(1 + r - x)
    return out


def reference(case):
    """Reference values of one case, as a list of Python complex numbers."""
    kind = case["kind"]
    with mpmath.workdps(DPS):
        if kind == "g":
            vals = [_meijer_g(case)]
        elif kind == "h":
            vals = [_fox_h(case)]
        elif kind in ("pfq", "pfq_via_g"):
            vals = [mpmath.hyper(list(case["a"]), list(case["b"]),
                                 _mpc(case["z"]))]
        elif kind == "pipeline":
            d = len(case["rows"][0]) - 1
            coeffs = None if "beta" in case else _transform_series(case)
            vals = [_transform(case, _mpc(case["x"]) + k, coeffs)
                    for k in range(d + 1)]
        elif kind == "fde":
            vals = [_fde_value(case)]
        else:
            raise ValueError(f"unknown case kind {kind!r}")
    return [complex(v) for v in vals]


def references(workload, seed):
    """Reference list for the bank; None where mpmath itself gave up."""
    out = []
    for case in bank.make_bank(workload, seed):
        try:
            ref = reference(case)
        except (ArithmeticError, ValueError, ZeroDivisionError):
            ref = None
        if ref is not None and not all(cmath.isfinite(v) for v in ref):
            ref = None
        out.append(ref)
    return out


# --------------------------------------------------------------------------
# judging a reply from the library against its reference


class Raised:
    """Stands for a call that raised: the exception's type name, whether it
    is one of the library's typed errors, and the message, without the
    traceback that would keep the call's frames alive for the whole run."""

    __slots__ = ("error", "typed", "message")

    def __init__(self, exc):
        self.error = type(exc).__name__
        self.typed = type(exc).__module__ == "mbint.errors"
        self.message = str(exc)

    def __repr__(self):
        return f"{self.error}: {self.message}"


def _miss(value, ref, bound):
    return abs(value - ref) > bound + 8.0 * EPS * abs(ref)


def judge(case, reply, ref):
    """Classify one reply as "ok", "miss" or "fail".

    ``reply`` is what the benchmark's call returned: an EvalResult-like
    object (value, err_estimate) for G, H and pfq_via_g, a complex for pfq,
    (values, residual) for the pipeline and (value, ratio_residual) for the
    FDE closed form.  A value misses when it is farther from the reference
    than its own error estimate (or, where the library returns none, the
    requested tolerance times |reference|) plus 8 eps |reference|.
    A raised exception (``Raised``) or a non-finite value is a failure.
    """
    if isinstance(reply, Raised):
        return "fail"
    kind = case["kind"]
    tol = case["tol"]
    if kind in ("g", "h", "pfq_via_g"):
        pairs = [(complex(reply.value), float(reply.err_estimate))]
        extra = []
    elif kind == "pfq":
        pairs = [(complex(reply), tol * abs(ref[0]))]
        extra = []
    elif kind == "pipeline":
        values, residual = reply
        pairs = [(complex(v), tol * abs(r)) for v, r in zip(values, ref)]
        extra = [residual]
    else:
        value, residual = reply
        pairs = [(complex(value), tol * abs(ref[0]))]
        extra = [residual]
    if not all(cmath.isfinite(v) and math.isfinite(b) for v, b in pairs) \
            or not all(math.isfinite(e) for e in extra):
        return "fail"
    if kind == "fde" and extra[0] > tol:
        return "miss"
    if any(_miss(v, r, b) for (v, b), r in zip(pairs, ref)):
        return "miss"
    return "ok"


def perturbed(case, reply, ref):
    """The reply with its first value moved by 10x its own bound.

    Used by the benchmark's self-check: the judge must call it a miss.
    Returns None for replies the judge would not pass in the first place,
    and where the bound is 0 (an exact zero), which no move can exceed.
    """
    if judge(case, reply, ref) != "ok":
        return None
    kind = case["kind"]
    if kind in ("g", "h", "pfq_via_g"):
        bound = max(float(reply.err_estimate), 8.0 * EPS * abs(ref[0]))
    else:
        bound = case["tol"] * abs(ref[0])
    if bound == 0.0:
        return None
    if kind in ("g", "h", "pfq_via_g"):
        return _Reply(complex(reply.value) + 10.0 * bound,
                      float(reply.err_estimate))
    if kind == "pfq":
        return complex(reply) + 10.0 * bound
    values, residual = reply
    if kind == "pipeline":
        return (complex(values[0]) + 10.0 * bound,) + tuple(values[1:]), \
            residual
    return complex(values) + 10.0 * bound, residual


class _Reply:
    def __init__(self, value, err_estimate):
        self.value = value
        self.err_estimate = err_estimate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bank.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    refs = references(args.workload, args.seed)
    enc = [None if r is None else [[v.real, v.imag] for v in r] for r in refs]
    json.dump({"workload": args.workload, "seed": args.seed, "refs": enc},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
