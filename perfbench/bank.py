"""Seeded input banks for the three workloads.

Every case is plain data (a dict of numbers, tuples and strings), so the
oracle process can rebuild the same bank from the same seed without
importing mbint, and the timed process hands mbint nothing but the
generated inputs.  ``make_bank(workload, seed)`` is the only entry point.

Draws are stratified (a jittered product grid of log|z| x arg z for
tabulate_quad, a Latin hypercube per order pair for series_bank, fixed
counts per case family everywhere), so two seeds give banks of the same
shape and cost and differ only in where inside each stratum a draw lands.
The one exception is series_bank's G inputs that are heavy-tailed in cost
(p = q or |z| > 5: a single call can take 100x the median) or have two
parameters an integer apart (the inputs the residue route refuses or
mis-sums at baseline): they are one fixed draw shared by every seed, so
that every seed's bank holds the same known defects.
"""

import math
import random

TOL = 1e-10           # requested tolerance of every G, H and pFq call
TRANSFORM_TOL = 1e-9  # requested tolerance of the transform pipeline

# integer and half-integer parameter values (Bessel-like integer differences)
_LATTICE = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_LATTICE_SHARE = 0.35

# The residue-route inputs from the baseline defect list that every
# series_bank keeps, whatever the seed: a residue sum that misses its own
# error estimate at large |z|, and the structural-zero early stop.
PINNED_SERIES = (
    {"kind": "g", "m": 1, "n": 0, "p": 0, "q": 1, "a": (), "b": (-0.6,),
     "z": complex(18.60, -0.29), "method": "residues", "tol": TOL},
    {"kind": "g", "m": 1, "n": 0, "p": 0, "q": 2, "a": (), "b": (0.0, 3.0),
     "z": complex(0.5, 0.0), "method": "residues", "tol": TOL},
)

# (spec, kappa): fixed parameter sets of tabulate_quad with the decay rate
# of their Mellin-Barnes kernel; |arg| of the contour argument stays below
# 0.85 kappa (and below 0.95 pi) so every call lies in the absolutely
# convergent sector.
TABULATE_SETS = (
    ({"kind": "g", "m": 2, "n": 2, "p": 2, "q": 2,
      "a": (0.3, 0.8), "b": (0.1, 0.6)}, 2.0 * math.pi),
    ({"kind": "g", "m": 2, "n": 0, "p": 0, "q": 2,
      "a": (), "b": (0.25, 0.75)}, math.pi),
    ({"kind": "h", "m": 2, "n": 0, "p": 0, "q": 2, "a": (), "b": (0.3, 0.7),
      "alpha": (), "beta": (1.0, 0.5)}, 0.75 * math.pi),
    ({"kind": "h", "m": 1, "n": 1, "p": 1, "q": 2, "a": (0.4,),
      "b": (0.2, -0.3), "alpha": (0.6,), "beta": (1.3, 0.5)}, 0.7 * math.pi),
    ({"kind": "pfq_via_g", "a": (0.3, 0.9), "b": (1.4,)}, math.pi),   # 2F1
    ({"kind": "pfq_via_g", "a": (0.6,), "b": (1.7,)}, 0.5 * math.pi),  # 1F1
)
TABULATE_RADII = 10
TABULATE_ARGS = 5
# the slowest calls lie at the smallest |z|, where the node count climbs
# steeply as |z| falls: with half a stratum of jitter the p99 node count
# moved by 10% between seeds, with a fifth by 2%
TABULATE_JITTER = 0.2

SERIES_G = 780
SERIES_H = 120
SERIES_PFQ = 300
SERIES_Z_JITTER = 0.5

TRANSFORM_PIPELINE = 160
TRANSFORM_FDE = 48


def _strata(rng, k, jitter=1.0):
    """k stratified uniforms in [0, 1), one per stratum, strata in order;
    each lands within ``jitter`` times the stratum width of its centre."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / k for i in range(k)]


def _log_uniform(lo, hi, u):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _polar(r, theta):
    return complex(r * math.cos(theta), r * math.sin(theta))


def tabulate_quad(seed):
    """Each parameter set on a jittered product grid of log|z| x arg z, the
    shape of a tabulation for a plot or a fit."""
    rng = random.Random(f"tabulate_quad:{seed}")
    cases = []
    for spec, kappa in TABULATE_SETS:
        theta_max = min(0.85 * kappa, 0.95 * math.pi)
        off_disk = spec["kind"] == "pfq_via_g"
        lo = 1.2 if off_disk else 0.05
        for u in _strata(rng, TABULATE_RADII, TABULATE_JITTER):
            for v in _strata(rng, TABULATE_ARGS, TABULATE_JITTER):
                w = _polar(_log_uniform(lo, 20.0, u),
                           theta_max * (2.0 * v - 1.0))
                # pfq_via_g evaluates its G function at -z
                z = -w if off_disk else w
                cases.append(dict(spec, z=z, tol=TOL, method=None))
    return cases


def _param(u):
    """Parameter in [-1, 2] from a uniform: the lowest _LATTICE_SHARE of u
    lands on the integer/half-integer lattice, the rest spreads evenly."""
    if u < _LATTICE_SHARE:
        return _LATTICE[min(len(_LATTICE) - 1,
                            int(u / _LATTICE_SHARE * len(_LATTICE)))]
    return -1.0 + 3.0 * (u - _LATTICE_SHARE) / (1.0 - _LATTICE_SHARE)


def _is_positive_integer(x, tol=1e-9):
    return x >= 0.5 and abs(x - round(x)) <= tol


def _pick(u, lo, hi):
    """Integer in [lo, hi] from a uniform."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _z(u, z_max):
    r_u, a_u = next(u), next(u)
    return _polar(_log_uniform(0.05, z_max, r_u), math.pi * (2.0 * a_u - 1.0))


def _integer_gap(params, tol=1e-9):
    """True when two of the parameters differ by an integer: coincident or
    cancelling gamma poles, which the library's residue route refuses
    (HigherOrderPoleError) or escalates into a gamma pole (ValueError)."""
    return any(abs((x - y) - round(x - y)) <= tol
               for i, x in enumerate(params) for y in params[i + 1:])


def _g_case(rng, p, q, u, gaps=True):
    """A G input whose residue series the library's side rule can sum.
    With ``gaps=False`` no two parameters lie an integer apart."""
    z = _z(u, 20.0 if p < q else 3.0)
    # p = q with |z| > 1 closes left, around the a-poles, so n >= 1
    m = _pick(next(u), 1, q)
    n = _pick(next(u), 1 if p == q and abs(z) > 1.0 else 0, p)
    a = [_param(next(u)) for _ in range(p)]
    b = [_param(next(u)) for _ in range(q)]
    # a_j - b_k a positive integer is outside the function's domain (the
    # library rejects it as input): redraw until the pair is admissible
    while any(_is_positive_integer(a_j - b_k)
              for a_j in a[:n] for b_k in b[:m]) \
            or not gaps and _integer_gap(a + b):
        a = [_param(rng.random()) for _ in range(p)]
        b = [_param(rng.random()) for _ in range(q)]
    return {"kind": "g", "m": m, "n": n, "p": p, "q": q, "a": tuple(a),
            "b": tuple(b), "z": z, "method": "residues", "tol": TOL}


def _h_case(rng, p, q, u):
    """An H input with non-unit multipliers and an entire residue series.

    sum(beta) - sum(alpha) is kept in [1, 2.5] so the right-closing series
    grows no faster than exp(|z|) before it converges.  Parameters are
    drawn off the integer lattice, so every pole of the series is simple
    (coincident poles are covered by the G inputs).
    """
    z = _z(u, 20.0)
    m = _pick(next(u), 1, q)
    n = _pick(next(u), 0, p)
    a = tuple(-1.0 + 3.0 * next(u) for _ in range(p))
    b = tuple(-1.0 + 3.0 * next(u) for _ in range(q))
    while True:
        alpha = tuple(rng.uniform(0.5, 1.2) for _ in range(p))
        beta = tuple(rng.uniform(0.6, 1.6) for _ in range(q))
        if 1.0 <= sum(beta) - sum(alpha) <= 2.5:
            break
    return {"kind": "h", "m": m, "n": n, "p": p, "q": q, "a": a, "b": b,
            "alpha": alpha, "beta": beta, "z": z, "method": "residues",
            "tol": TOL}


def _pfq_case(rng, p, q, u):
    if p == q + 1:
        z = _z(u, 0.9)
    else:
        z = _z(u, 20.0 if p < q else 3.0)
    a = tuple(_param(next(u)) for _ in range(p))
    b = []
    for _ in range(q):
        v = _param(next(u))
        # a denominator on 0, -1, ... is invalid input: move it to -1/2, 1/2
        b.append(v + 0.5 if v <= 0.0 and v == round(v) else v)
    return {"kind": "pfq", "a": a, "b": tuple(b), "z": z, "tol": TOL}


_DIMS = 10  # uniforms per case: log|z|, arg z, m, n, up to 3 + 3 parameters


def _spread(rng, orders, total, make):
    """``total`` cases split evenly over ``orders``; each order pair is a
    Latin hypercube over every uniform its cases consume (log|z|, arg z,
    split indices, parameters), so the per-seed mix is balanced.

    log|z| stays near its stratum centres: the residue route's cost grows
    without bound as |z| nears the series' radius of convergence, so free
    draws there would make the cost of a bank swing from seed to seed.
    """
    cases = []
    for i, (p, q) in enumerate(orders):
        k = total // len(orders) + (1 if i < total % len(orders) else 0)
        cols = []
        for d in range(_DIMS):
            col = _strata(rng, k, SERIES_Z_JITTER if d == 0 else 1.0)
            rng.shuffle(col)
            cols.append(col)
        cases.extend(make(rng, p, q, iter(row)) for row in zip(*cols))
    return cases


def _interleave(major, minor):
    """``major`` in order, with ``minor`` spread evenly between its items."""
    out = []
    stride = len(major) / len(minor)
    j = 0
    for i, case in enumerate(major):
        out.append(case)
        while j < len(minor) and (j + 1) * stride <= i + 1:
            out.append(minor[j])
            j += 1
    return out + minor[j:]


def _heavy_tailed(case):
    """G inputs whose residue sums have heavy-tailed cost: p = q (slow
    convergence near |z| = 1) and |z| > 5 (cancellation, mpmath
    escalation).  One of them can cost 100x the median call."""
    return case["p"] == case["q"] or abs(case["z"]) > 5.0


def _gap_free_g_case(rng, p, q, u):
    return _g_case(rng, p, q, u, gaps=False)


def series_bank(seed):
    rng = random.Random(f"series_bank:{seed}")
    g_orders = [(p, q) for q in (1, 2, 3) for p in range(q + 1)]
    h_orders = [(p, q) for q in (1, 2, 3) for p in range(q)]
    pfq_orders = [(p, q) for q in (0, 1, 2, 3) for p in range(q + 2)
                  if p + q > 0]
    # the heavy-tailed G inputs are one fixed draw shared by every seed, so
    # that a few of them cannot swing a seed's throughput and p99; so are
    # the light ones with parameters an integer apart, so that the bank's
    # refusals (and its count of failed calls) are the same for every seed
    seeded = _spread(rng, g_orders, SERIES_G, _gap_free_g_case)
    panel = _spread(random.Random("series_bank:panel"), g_orders, SERIES_G,
                    _g_case)
    mb_cases = ([c for c in seeded if not _heavy_tailed(c)]
                + [c for c in panel if _heavy_tailed(c)
                   or _integer_gap(c["a"] + c["b"])]
                + _spread(rng, h_orders, SERIES_H, _h_case))
    rng.shuffle(mb_cases)
    mb_cases = list(PINNED_SERIES) + mb_cases
    pfq_cases = _spread(rng, pfq_orders, SERIES_PFQ, _pfq_case)
    rng.shuffle(pfq_cases)
    return _interleave(mb_cases, pfq_cases)


def _poly_mul(c, d):
    out = [0j] * (len(c) + len(d) - 1)
    for i, ci in enumerate(c):
        for j, dj in enumerate(d):
            out[i + j] += ci * dj
    return out


def _poly_from_roots(roots):
    c = [1 + 0j]
    for r in roots:
        c = _poly_mul(c, [-r, 1 + 0j])
    return c


def _pipeline_case(rng, shape):
    """Two-row matrix whose first-order ODE has the closed form
    psi = e^{lam t} prod (1 - e^{-t}/z_i)^{mu_i}, by construction.

    A1 = prod (u - z_i) and A0 = -lam A1 + sum mu_i u prod_{j != i} (u - z_j),
    so that -A0/A1 = psi'/psi.  The beta family (one root at u = 1, lam = 0)
    is psi = (1 - e^{-t})^{beta - 1}, whose transform is B(x, beta).
    """
    beta_family = shape is None
    if beta_family:
        beta = rng.uniform(0.35, 3.0)
        roots, mus, lam = [1 + 0j], [complex(beta - 1.0)], 0j
    else:
        d, endpoint = shape
        roots, mus = [], []
        if endpoint:
            roots.append(1 + 0j)
            mus.append(complex(rng.uniform(-0.6, 1.5)))
        while len(roots) < d:
            r = _polar(rng.uniform(2.0, 5.0), rng.uniform(-math.pi, math.pi))
            if all(abs(r - s) > 0.3 for s in roots):
                roots.append(r)
                mus.append(complex(rng.uniform(-1.0, 1.5),
                                   rng.uniform(-0.5, 0.5)))
        lam = complex(rng.uniform(-1.0, 0.5))
    a1 = _poly_from_roots(roots)
    a0 = [-lam * c for c in a1]
    for i, mu in enumerate(mus):
        rest = _poly_from_roots(roots[:i] + roots[i + 1:])
        term = _poly_mul([0j, mu], rest)
        for k, c in enumerate(term):
            a0[k] += c
    x = complex(lam.real + 0.6 + rng.uniform(0.0, 2.5),
                0.0 if beta_family else rng.uniform(-0.5, 0.5))
    case = {"kind": "pipeline", "rows": (tuple(a0), tuple(a1)), "x": x,
            "roots": tuple(roots), "mus": tuple(mus), "lam": lam,
            "tol": TRANSFORM_TOL}
    if beta_family:
        case["beta"] = beta
    return case


_FORMS = ("rising", "reflected", "split")


def _fde_case(rng, form, p_deg, q_deg):
    """First-order FDE with random complex P and Q of the given degrees.

    Complex coefficients keep root real parts distinct, so the (Re, Im)
    root order that fixes which factors a split arrangement takes is
    unambiguous.
    """
    def poly(deg):
        c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(deg)]
        lead = _polar(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        return tuple(c + [lead])

    if form == "rising":
        m, n = 0, p_deg
    elif form == "reflected":
        m, n = q_deg, 0
    else:
        while True:
            m, n = rng.randint(0, q_deg), rng.randint(0, p_deg)
            if (m, n) not in ((0, p_deg), (q_deg, 0)):
                break
    x = complex(rng.uniform(0.3, 3.0),
                rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5))
    return {"kind": "fde", "p_poly": poly(p_deg), "q_poly": poly(q_deg),
            "form": form, "m": m, "n": n, "x": x, "tol": TRANSFORM_TOL}


def transform_pipeline(seed):
    rng = random.Random(f"transform_pipeline:{seed}")
    # fixed counts of each shape: a quarter beta family, the rest cycling
    # through (number of roots 1..3) x (root at u = 1 or not); one FDE per
    # arrangement and degree pair.  Pipelines are the majority of calls, so
    # the latency median is a transform's, not a sub-millisecond FDE's.
    shapes = [(d, endpoint) for endpoint in (True, False) for d in (1, 2, 3)]
    pipes = [_pipeline_case(rng, None if i % 4 == 0
                            else shapes[(i - i // 4 - 1) % len(shapes)])
             for i in range(TRANSFORM_PIPELINE)]
    fdes = [_fde_case(rng, _FORMS[i % 3], 1 + i // 3 % 4, 1 + i // 12 % 4)
            for i in range(TRANSFORM_FDE)]
    rng.shuffle(pipes)
    rng.shuffle(fdes)
    return _interleave(pipes, fdes)


WORKLOADS = {
    "tabulate_quad": tabulate_quad,
    "series_bank": series_bank,
    "transform_pipeline": transform_pipeline,
}


def make_bank(workload, seed):
    return WORKLOADS[workload](int(seed))


def describe(case):
    """One-line, JSON-friendly description of a case for defect lists."""
    def enc(v):
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, tuple):
            return [enc(x) for x in v]
        return v
    return {k: enc(v) for k, v in case.items()}

