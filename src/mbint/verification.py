"""Seeded property suites behind the ``verify`` CLI subcommand.

Each suite replays the structural identities its module promises (round
trips, recurrences, oracle agreement between quadrature and residue
summation) on randomized instances and reports per-property residual
statistics.  The kernel bank doubles as the fixed test set for the
cross-validation checks.
"""

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cgamma, duality, fde_solutions as fde, laplace, polyroots
from . import mellin_barnes as mb
from . import special_functions as sf
from .errors import MBIntError, ParameterError

# random instances per suite
GAMMA_SAMPLES = 300
DUALITY_SAMPLES = 300
FDE_SAMPLES = 300
BINOMIAL_SAMPLES = 5  # laplace: psi with a root off u = 1
SPECIAL_SAMPLES = 60  # special: series term-ratio recurrences
DIVERGENT_SAMPLES = 30  # special: G inputs whose line diverges

# (GParams, z) pairs with nonempty separation windows; every entry converges
# absolutely for quadrature and sums a convergent right-side residue series.
KERNEL_BANK = [
    (sf.GParams(1, 0, 0, 1, (), (0.0,)), 1.0),
    (sf.GParams(1, 0, 0, 1, (), (0.5,)), 2.0),
    (sf.GParams(1, 0, 0, 1, (), (2.0,)), 0.1),
    (sf.GParams(2, 0, 0, 2, (), (0.3, -0.2)), 1.5),
    (sf.GParams(2, 0, 0, 2, (), (0.0, 0.5)), 0.4),
    (sf.GParams(2, 0, 0, 2, (), (1.0, 0.25)), 3.0),
    (sf.GParams(1, 1, 1, 1, (0.7,), (0.2,)), 0.5),
    (sf.GParams(1, 1, 1, 1, (1.3,), (0.4,)), 0.8),
    (sf.GParams(1, 1, 1, 2, (0.9,), (0.3, -0.4)), 1.2),
    (sf.GParams(1, 2, 2, 2, (0.0, 0.0), (0.0, -1.0)), 0.5),
    (sf.GParams(1, 2, 2, 2, (0.2, -0.3), (0.0, -0.7)), 0.9),
    (sf.GParams(1, 1, 1, 2, (0.5,), (0.0, -0.5)), 2.5),
    (sf.GParams(2, 1, 1, 2, (0.6,), (0.1, 0.45)), 0.7),
    (sf.GParams(2, 1, 2, 2, (0.8, 1.6), (0.2, 0.9)), 0.6),
    (sf.GParams(2, 2, 2, 2, (0.4, 1.1), (0.5, 0.35)), 0.3),
    (sf.GParams(1, 0, 0, 1, (), (0.0,)), 0.7 * np.exp(0.25j * np.pi)),
    (sf.GParams(1, 1, 1, 1, (0.7,), (0.2,)), 0.5 * np.exp(-1j * np.pi / 3)),
    (sf.GParams(2, 0, 0, 2, (), (0.25, 0.6)), 2.2 * np.exp(1j * np.pi / 3)),
    (sf.GParams(1, 2, 2, 3, (0.1, 0.9), (0.0, -0.6, 0.7)), 1.1),
    (sf.GParams(2, 1, 1, 3, (0.35,), (0.15, 0.8, -0.3)), 0.9),
]


@dataclass
class PropertyCheck:
    name: str
    max_residual: float
    threshold: float
    samples: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_residual < self.threshold)

    def to_json(self):
        return {"name": self.name, "max_residual": self.max_residual,
                "threshold": self.threshold, "samples": self.samples,
                "passed": self.passed}


def _random_complex(rng, n, box=3.0):
    return rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)


# --------------------------------------------------------------------------


def suite_gamma(seed):
    rng = np.random.default_rng(seed)
    checks = []

    z = (rng.uniform(0.5, 10.0, GAMMA_SAMPLES)
         + 1j * rng.uniform(-10, 10, GAMMA_SAMPLES))
    worst = 0.0
    for zz in z:
        zz = complex(zz)
        lg0 = cgamma.log_gamma(zz)
        res = abs(cgamma.log_gamma(zz + 1) - lg0 - np.log(zz))
        worst = max(worst, res / (1.0 + abs(lg0)))
    checks.append(PropertyCheck("log_gamma recurrence", worst, 1e-13,
                                GAMMA_SAMPLES))

    worst = 0.0
    for zz in z[:100]:
        zz = complex(zz)
        diff = cgamma.log_gamma(np.conj(zz)) - np.conj(cgamma.log_gamma(zz))
        worst = max(worst, abs(diff))
    checks.append(PropertyCheck("log_gamma conjugate symmetry", worst,
                                1e-300 + np.finfo(float).tiny, 100))

    worst = 0.0
    alphas = _random_complex(rng, 50)
    for alpha in alphas:
        alpha = complex(alpha)
        for n in (0, 1, 5, 17):
            lhs = cgamma.pochhammer(alpha, n + 1)
            rhs = cgamma.pochhammer(alpha, n) * (alpha + n)
            worst = max(worst, abs(lhs - rhs))
    checks.append(PropertyCheck("pochhammer recurrence (exact)", worst,
                                1e-300 + np.finfo(float).tiny, 200))

    err50, err100, err200 = (
        max(abs(cgamma.asymptotic_log_abs_gamma(a, eta)
                - cgamma.log_gamma(complex(a, eta)).real)
            for a in (0.5, 1.0, 2.0))
        for eta in (50.0, 100.0, 200.0))
    checks.append(PropertyCheck("asymptotic |Gamma| error at eta=50",
                                err50, 0.02, 3))
    mono = 0.0 if err200 < err100 < err50 else 1.0
    checks.append(PropertyCheck("asymptotic error decreasing 50->100->200",
                                mono, 0.5, 3))
    return checks


def suite_duality(seed):
    rng = np.random.default_rng(seed)
    checks = []
    worst_rt = 0.0
    worst_orders = 0.0
    for _ in range(DUALITY_SAMPLES):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        entries = _random_complex(rng, rows * cols).reshape(rows, cols)
        entries[-1, rng.integers(0, cols)] += 4.0  # keep top row/col nonzero
        entries[rng.integers(0, rows), -1] += 4.0
        A = duality.CoefficientMatrix(tuple(map(tuple, entries)))
        back_ode = duality.as_ode(A).to_matrix()
        back_fde = duality.as_fde(A).to_matrix()
        if back_ode.entries != A.entries or back_fde.entries != A.entries:
            worst_rt = 1.0
        m, p, p2, m2 = duality.orders(A)
        if p2 != p or m2 != m:
            worst_orders = 1.0
        ot = duality.orders(A.transpose())
        if ot != (p, m, m, p):
            worst_orders = 1.0
        if duality.CoefficientMatrix.from_json(A.to_json()).entries != A.entries:
            worst_rt = 1.0
    checks.append(PropertyCheck("matrix<->spec round trips entry-exact",
                                worst_rt, 0.5, DUALITY_SAMPLES))
    checks.append(PropertyCheck("order/degree swap (m,p)<->(p,m)",
                                worst_orders, 0.5, DUALITY_SAMPLES))
    return checks


def _random_fde_instance(rng, max_deg=4):
    p = int(rng.integers(1, max_deg + 1))
    q = int(rng.integers(1, max_deg + 1))
    rho = _random_complex(rng, p)
    sigma = _random_complex(rng, q)
    lead_p = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
    lead_q = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
    return fde.FirstOrderFDE(tuple(polyroots.from_roots(rho, lead_p)),
                             tuple(polyroots.from_roots(sigma, lead_q)))


def suite_fde(seed):
    rng = np.random.default_rng(seed)
    checks = []
    worst_ratio = 0.0
    worst_rec = 0.0
    worst_form = 0.0
    for _ in range(FDE_SAMPLES):
        inst = _random_fde_instance(rng)
        roots = fde.coefficient_roots(inst)
        rebuilt = polyroots.from_roots(np.asarray(roots.rho), inst.lead_p)
        scale = max(abs(c) for c in inst.p_poly)
        worst_rec = max(worst_rec, float(np.max(np.abs(
            rebuilt - np.asarray(inst.p_poly))) / scale))
        p, q = len(roots.rho), len(roots.sigma)
        x = complex(4.5 + rng.uniform(0, 1), rng.uniform(-1, 1))
        m = int(rng.integers(0, q + 1))
        n = int(rng.integers(0, p + 1))
        kernel = fde.gamma_quotient(roots, m=m, n=n)
        worst_ratio = max(worst_ratio,
                          fde.fde_ratio_residual(kernel, roots, x))
        # arrangements agree up to a constant on unit-spaced points
        k0 = fde.gamma_quotient(roots, m=0, n=p)
        vals = []
        for j in range(3):
            v0 = fde.solution_value(k0, x + j)
            v1 = fde.solution_value(kernel, x + j)
            vals.append(v0 / v1)
        for j in (1, 2):
            worst_form = max(worst_form, abs(vals[j] / vals[0] - 1.0))
    checks.append(PropertyCheck("root reconstruction", worst_rec, 1e-9,
                                FDE_SAMPLES))
    checks.append(PropertyCheck("gamma-quotient ratio identity", worst_ratio,
                                1e-11, FDE_SAMPLES))
    checks.append(PropertyCheck("arrangement equivalence (unit-spaced)",
                                worst_form, 1e-10, FDE_SAMPLES))
    return checks


def suite_laplace(seed):
    rng = np.random.default_rng(seed)
    checks = []
    worst_beta = 0.0
    worst_res = 0.0
    # psi = e^{lam t} (1 - e^{-t})^{beta - 1} has B(x - lam, beta): at lam = 0
    # analytic, smooth, singular and near-divergent heads (mu* = beta - 1),
    # then rates x - lam of 0.02 and 1 under e^{lam t} up to e^{100 t}
    cases = [(0.0, beta, x) for beta in (2.0, 3.5, 0.05, 1e-4)
             for x in (1.5, 2.5)]
    cases += [(lam, beta, lam + shift) for lam in (-1.0, 2.0, 30.0, 100.0)
              for beta in (0.4, 2.5) for shift in (0.02, 1.0)]
    for lam, beta, x in cases:
        A = duality.CoefficientMatrix(((-lam, lam - beta + 1.0), (1.0, -1.0)))
        psi = laplace.solve_first_order_ode(A.row(0), A.row(1))

        def f(x, psi=psi):
            return laplace.laplace_transform(psi, x, tol=1e-9)

        oracle = np.exp(cgamma.log_gamma(x - lam) + cgamma.log_gamma(beta)
                        - cgamma.log_gamma(x - lam + beta))
        worst_beta = max(worst_beta, abs(f(x) - oracle) / abs(oracle))
        worst_res = max(worst_res, laplace.fde_numeric_residual(A, f, x))
    checks.append(PropertyCheck("transform matches gamma-ratio oracle",
                                worst_beta, 1e-6, len(cases)))
    checks.append(PropertyCheck("transform solves the FDE", worst_res,
                                1e-6, len(cases)))

    # a root off u = 1: psi = e^{lam t} (1 - e^{-t}/z)^mu against its
    # binomial series sum_k C(mu, k) (-1/z)^k / (x - lam + k), |z| >= 1.5
    worst_binom = 0.0
    for _ in range(BINOMIAL_SAMPLES):
        z = cmath.rect(rng.uniform(1.5, 4.0), rng.uniform(-math.pi, math.pi))
        mu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        lam = rng.uniform(-1.0, 2.0)
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
        psi = laplace.ClosedFormPsi(lam, ((z, mu),))
        got = laplace.laplace_transform(psi, lam + s, tol=1e-9)
        coeff, total, k = 1.0 + 0.0j, 0.0j, 0
        while True:
            term = coeff / (s + k)
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
            coeff *= -(mu - k) / ((k + 1) * z)
            k += 1
        worst_binom = max(worst_binom, abs(got - total) / abs(total))
    checks.append(PropertyCheck("transform of a root off 1 matches its "
                                "binomial series", worst_binom, 1e-7,
                                BINOMIAL_SAMPLES))
    return checks


def _ratio(gap, budget):
    return gap / budget if budget else math.inf


def contour_robustness(kernel, z, base):
    """Acceptance criterion 10 on one kernel: (anchor ratio, truncation
    ratio).

    ``base`` is mb.integrate(kernel, z, tol=1e-10).  The anchor moves inside
    the separation window (half a unit off a half-infinite one, a quarter
    of a bounded one) and the truncation height doubles; each ratio is the
    shift in value over the error estimates that must cover it, so both
    stay below 1 when the estimates hold.
    """
    contour = base.contour
    lo, hi = mb.contour_window(kernel)
    if lo == -math.inf:
        alt_anchor = contour.anchor - 0.5
    elif hi == math.inf:
        alt_anchor = contour.anchor + 0.5
    else:
        alt_anchor = contour.anchor + 0.25 * (hi - lo)
    alt = mb.Contour(alt_anchor, contour.truncation)
    moved = mb.integrate(kernel, z, contour=alt, tol=1e-10)
    doubled = mb.Contour(contour.anchor, 2.0 * contour.truncation)
    tall = mb.integrate(kernel, z, contour=doubled, tol=1e-10)
    return (_ratio(abs(base.value - moved.value),
                   base.err_estimate + moved.err_estimate),
            _ratio(abs(base.value - tall.value), base.err_estimate))


def _empty_window_ratio(seed):
    """Worst |error| / estimate of the line on G^{1,1}_{1,1}(z | b + 1 + g;
    b) = Gamma(-g) z^b (1 + z)^g, g = 5e-4 and 1e-4, against mpmath: the
    line crosses the pole b, where Gamma(1 - a + s) is g from a pole."""
    import mpmath
    rng = np.random.default_rng(seed)
    worst = 0.0
    for gap in (5e-4,) * 12 + (1e-4,) * 12:
        b = float(rng.uniform(-0.5, 2.0))
        z = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-0.75, 0.75) * np.pi)
        a = b + 1.0 + gap
        res = mb.integrate(sf.GParams(1, 1, 1, 1, (a,), (b,)).to_kernel(), z)
        with mpmath.workdps(30):
            a_, b_, z_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(z)
            exact = complex(mpmath.gamma(1 - a_ + b_) * z_ ** b_
                            * (1 + z_) ** (a_ - b_ - 1))
        worst = max(worst, _ratio(abs(res.value - exact), res.err_estimate))
    return worst


def suite_mb(seed):
    checks = []
    worst_pair = 0.0
    worst_anchor = 0.0
    worst_trunc = 0.0
    worst_imag = 0.0
    for params, z in KERNEL_BANK:
        kernel = params.to_kernel()
        quad = mb.integrate(kernel, z, tol=1e-10)
        res = mb.residue_series(kernel, z, "right", n_max=800, tol=1e-12)
        gap = abs(quad.value - res.value)
        budget = 10.0 * (quad.err_estimate + res.err_estimate)
        worst_pair = max(worst_pair, _ratio(gap, budget))

        anchor, trunc = contour_robustness(kernel, z, quad)
        worst_anchor = max(worst_anchor, anchor)
        worst_trunc = max(worst_trunc, trunc)

        if complex(z).imag == 0.0 and all(
                complex(v).imag == 0.0 for v in params.a + params.b):
            worst_imag = max(worst_imag, abs(quad.value.imag))
    n = len(KERNEL_BANK)
    checks.append(PropertyCheck("quadrature vs residue oracle", worst_pair,
                                1.0, n))
    checks.append(PropertyCheck("contour independence", worst_anchor, 1.0, n))
    checks.append(PropertyCheck("truncation soundness", worst_trunc, 1.0, n))
    checks.append(PropertyCheck("real kernels give real values", worst_imag,
                                1e-12, n))
    checks.append(PropertyCheck("empty-window line vs closed form",
                                _empty_window_ratio(seed), 1.0, 24))
    return checks


def _divergent_line_ratio(seed):
    """Worst |error| / estimate of meijer_g's default route on random G
    inputs whose line diverges, which it sums on the convergent residue
    side, against mpmath.meijerg; for p = q and |z| > 1 that side is the L-
    loop, mpmath.meijerg of the swapped parameters at 1/z (DLMF 16.19.1).
    |z| stays 0.5 or more off 1, where the p = q series converge slowly;
    m and n are drawn so that the side's loop encloses poles.  A refusal
    counts as an infinite ratio."""
    import mpmath
    rng = np.random.default_rng(seed)
    worst, count = 0.0, 0
    while count < DIVERGENT_SAMPLES:
        q = int(rng.integers(1, 4))
        p = int(rng.integers(0, q + 1))
        m, n = int(rng.integers(1, q + 1)), int(rng.integers(min(p, 1), p + 1))
        a = tuple(rng.uniform(-1.0, 2.0, p).round(4))
        b = tuple(rng.uniform(-1.0, 2.0, q).round(4))
        z = cmath.rect(rng.choice((rng.uniform(0.1, 0.5),
                                   rng.uniform(1.5, 3.0))),
                       rng.uniform(-np.pi, np.pi))
        try:
            params = sf.GParams(m, n, p, q, a, b)
        except ParameterError:
            continue
        if mb.convergence_class(params.to_kernel(), z) \
                is not mb.ConvergenceClass.DIVERGENT:
            continue
        count += 1
        with mpmath.workdps(30):
            zz = mpmath.mpc(z)
            if p == q and abs(z) > 1:
                a, b = [1 - v for v in b], [1 - v for v in a]
                m, n, zz = n, m, 1 / zz
            exact = complex(mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]],
                                           zz))
        try:
            res = sf.meijer_g(params, z, tol=1e-10)
        except MBIntError:
            return math.inf
        worst = max(worst, _ratio(abs(res.value - exact), res.err_estimate))
    return worst


def suite_special(seed):
    rng = np.random.default_rng(seed)
    checks = []

    worst_h = 0.0
    worst_pt = 0.0
    for params, z in KERNEL_BANK:
        hp = sf.HParams(params.m, params.n, params.p, params.q,
                        params.a, params.b,
                        (1.0,) * params.p, (1.0,) * params.q)
        g = sf.meijer_g(params, z, tol=1e-10)
        h = sf.fox_h(hp, z, tol=1e-10)
        worst_h = max(worst_h, abs(g.value - h.value) / abs(g.value))
        kg, kh = params.to_kernel(), hp.to_kernel()
        s = complex(g.contour.anchor if g.contour else 0.25, 0.7)
        diff = abs(mb.kernel_log_eval(kg, s) - mb.kernel_log_eval(kh, s))
        worst_pt = max(worst_pt, diff)
    checks.append(PropertyCheck("H reduces to G at unit multipliers",
                                worst_h, 1e-9, len(KERNEL_BANK)))
    checks.append(PropertyCheck("H/G kernels pointwise equal", worst_pt,
                                1e-12, len(KERNEL_BANK)))

    # orders restricted to p <= q+1: beyond that the term ratio itself grows
    # like n^(p-q-1) and its representation error alone exceeds the bound
    worst_rec = 0.0
    for _ in range(SPECIAL_SAMPLES):
        q = int(rng.integers(0, 4))
        p = int(rng.integers(0, q + 2))
        a = tuple(rng.uniform(0.3, 3.0, p))
        b = tuple(rng.uniform(0.5, 3.0, q))
        n = int(rng.integers(0, 51))
        worst_rec = max(worst_rec, sf.series_recurrence_residual(a, b, n))
    checks.append(PropertyCheck("series term-ratio recurrence", worst_rec,
                                1e-14, SPECIAL_SAMPLES))

    worst_cls = 0.0
    for p in range(6):
        for q in range(6):
            for mag in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                got = sf.classify_pfq(p, q, mag)
                if p <= q:
                    ok = got == sf.PFQClass.CONVERGES_EVERYWHERE
                elif p == q + 1:
                    ok = got == sf.PFQClass.CONVERGES_UNIT_DISK
                else:
                    ok = got == sf.PFQClass.DIVERGES_NONZERO
                if not ok:
                    worst_cls = 1.0
    checks.append(PropertyCheck("series trichotomy", worst_cls, 0.5, 144))

    worst_struct = 0.0
    for _ in range(100):
        inst = _random_fde_instance(rng, max_deg=3)
        roots = fde.coefficient_roots(inst)
        p, q = len(roots.rho), len(roots.sigma)
        m = int(rng.integers(0, q + 1))
        n = int(rng.integers(0, p + 1))
        derived = sf.derive_g_ode(inst, m=m, n=n)
        params = sf.GParams(m=m, n=n, p=p, q=q,
                            a=tuple(1.0 + r for r in roots.rho),
                            b=tuple(1.0 + s for s in roots.sigma))
        direct = sf.theta_form_from_g(params)
        if derived != direct:
            worst_struct = 1.0
    checks.append(PropertyCheck("factored operator structural equality",
                                worst_struct, 0.5, 100))

    bridge = 0.0
    for z in (-0.5, -0.25):
        exact = -np.log(1.0 - z) / z
        got = sf.pfq_via_g((1.0, 1.0), (2.0,), z, tol=1e-10).value
        bridge = max(bridge, abs(got - exact) / abs(exact))
    got = sf.pfq_via_g((1.0,), (2.0,), -1.0, tol=1e-10).value
    exact = 1.0 - math.exp(-1.0)
    bridge = max(bridge, abs(got - exact) / abs(exact))
    checks.append(PropertyCheck("series/contour bridge", bridge, 1e-8, 3))

    checks.append(PropertyCheck("default route on divergent lines",
                                _divergent_line_ratio(seed), 1.0,
                                DIVERGENT_SAMPLES))

    gode = max(sf.g_ode_residual(params, z) for params, z in KERNEL_BANK)
    checks.append(PropertyCheck("factored-operator residual", gode, 1e-8,
                                len(KERNEL_BANK)))
    return checks


SUITES = {
    "gamma": suite_gamma,
    "duality": suite_duality,
    "fde": suite_fde,
    "laplace": suite_laplace,
    "mb": suite_mb,
    "special": suite_special,
}


def run_suite(name, seed=0):
    """Structured pass/fail report for one suite (or 'all'), on the
    nonnegative integer ``seed``."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError("seed must be a nonnegative integer", seed=seed)
    if name == "all":
        names = sorted(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise MBIntError(f"unknown suite: {name}")
    t0 = time.monotonic()
    checks = []
    for nm in names:
        checks.extend(SUITES[nm](seed))
    return {"suite": name, "seed": seed,
            "elapsed_s": round(time.monotonic() - t0, 3),
            "passed": all(c.passed for c in checks),
            "checks": [c.to_json() for c in checks]}
