"""Spans and counts around mbint's layers, from outside the library.

``Tracer.install()`` replaces public functions of the mbint modules (and
the copies other modules bound with ``from .cgamma import ...``) by thin
wrappers that record a span per call: name, start, end, parent span and
evaluation id, plus a small ``info`` value (points, nodes, dps, ...).
``uninstall()`` puts every original back.  Spans stay in memory until the
benchmark writes them out at the end.

Self time of a span is its duration minus the durations of its direct
child spans; since the workload runs on one thread, children of one span
never overlap.
"""

import contextlib
import json
import statistics
import time

import mpmath
import numpy as np

from mbint import cgamma, duality, laplace, polyroots, quadrature
from mbint import fde_solutions as fde
from mbint import mellin_barnes as mb
from mbint import special_functions as sf
from mbint.errors import QuadratureError

_now = time.perf_counter_ns

# name -> unit of every per-layer metric, in report order
METRICS = {
    "cgamma.grid_calls": "count", "cgamma.grid_points": "count",
    "cgamma.grid_s": "s", "cgamma.grid_ns_per_point": "ns",
    "cgamma.scalar_calls": "count", "cgamma.scalar_s": "s",
    "cgamma.detect_pole_calls": "count",
    "mb.kernel_grid_calls": "count", "mb.kernel_grid_self_s": "s",
    "mb.contour_calls": "count", "mb.contour_s": "s",
    "mb.integrate_calls": "count", "mb.integrate_self_s": "s",
    "mb.nodes_per_eval": "count", "mb.truncation_median": "1",
    "mb.residue_calls": "count", "mb.residue_terms": "count",
    "mb.residue_terms_per_s": "1/s", "mb.residue_self_s": "s",
    "mb.mp_escalations": "count", "mb.mp_s": "s", "mb.mp_dps_max": "digits",
    "quad.calls": "count", "quad.nodes": "count", "quad.panels": "count",
    "quad.refine_rounds": "count", "quad.self_s": "s",
    "quad.converged_frac": "ratio",
    "laplace.transform_calls": "count", "laplace.transform_self_s": "s",
    "laplace.quad_nodes": "count", "laplace.psi_points": "count",
    "laplace.psi_s": "s", "laplace.solve_ode_s": "s",
    "polyroots.roots_calls": "count", "polyroots.roots_s": "s",
    "polyroots.companion_fallbacks": "count",
    "fde.gamma_quotient_s": "s", "fde.ratio_residual_calls": "count",
    "fde.ratio_residual_s": "s",
    "duality.views_s": "s",
    "sf.route_self_s": "s", "sf.quad_fallbacks": "count",
    "sf.pfq_calls": "count", "sf.pfq_s": "s",
}

# (module, attribute, span name); a function bound under several names is
# wrapped under each of them
_SPANNED = (
    (cgamma, "log_gamma_grid", "cgamma.grid"),
    (mb, "log_gamma_grid", "cgamma.grid"),
    (cgamma, "log_gamma", "cgamma.scalar"),
    (sf, "log_gamma", "cgamma.scalar"),
    (cgamma, "log_gamma_unchecked", "cgamma.scalar"),
    (mb, "log_gamma_unchecked", "cgamma.scalar"),
    (mb, "kernel_log_grid", "mb.kernel_grid"),
    (mb, "choose_contour", "mb.contour"),
    (mb, "convergence_class", "mb.contour"),
    (mb, "contour_window", "mb.contour"),
    (mb, "integrate", "mb.integrate"),
    (mb, "residue_series", "mb.residue"),
    (quadrature, "integrate_adaptive", "quad"),
    (mb, "integrate_adaptive", "quad"),
    (laplace, "integrate_adaptive", "quad"),
    (laplace, "laplace_transform", "laplace.transform"),
    (laplace, "solve_first_order_ode", "laplace.solve_ode"),
    (polyroots, "roots", "polyroots.roots"),
    (fde, "gamma_quotient", "fde.gamma_quotient"),
    (fde, "fde_ratio_residual", "fde.ratio_residual"),
    (duality, "as_ode", "duality.views"),
    (duality, "as_fde", "duality.views"),
    (duality, "orders", "duality.views"),
    (duality, "ode_singular_polynomial", "duality.views"),
    (duality, "fde_singular_polynomial", "duality.views"),
    (sf, "meijer_g", "sf.route"),
    (sf, "fox_h", "sf.route"),
    (sf, "pfq_via_g", "sf.route"),
    (sf, "pfq", "sf.pfq"),
)

# (module, attribute, counter): counted only, too cheap to span
_COUNTED = (
    (cgamma, "detect_pole", "cgamma.detect_pole_calls"),
    (mb, "detect_pole", "cgamma.detect_pole_calls"),
    (sf, "detect_pole", "cgamma.detect_pole_calls"),
    (quadrature, "kronrod_panel", "quad.panels"),
    (np, "roots", "polyroots.companion_fallbacks"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "eval_id", "info",
                 "error")

    def __init__(self, name, parent, eval_id):
        self.name = name
        self.parent = parent
        self.eval_id = eval_id
        self.start = self.end = 0
        self.info = None
        self.error = None

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.eval_id,
                self.info, self.error]


class _MpmathProxy:
    """Stands in for the ``mpmath`` name inside mellin_barnes, so every
    ``mpmath.workdps`` entry (the residue route's precision escalation)
    becomes an ``mb.mp`` span carrying its dps."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(mpmath, name)

    @contextlib.contextmanager
    def workdps(self, dps):
        span = self._tracer.open("mb.mp")
        span.info = dps
        error = None
        try:
            with mpmath.workdps(dps):
                yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._tracer.close(span, error)


def _info(name, args, kwargs, out, panels):
    """What a returned call leaves on its span, by span name."""
    if name == "cgamma.grid":
        return int(np.size(args[0]))
    if name == "laplace.psi":
        return int(np.size(args[1]))
    if name == "mb.integrate":
        return [out.nodes_used, out.contour.truncation]
    if name == "mb.residue":
        return out.nodes_used
    if name == "quad":
        return [out.nodes, int(out.converged),
                kwargs.get("initial_panels", 8), panels]
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for _, _, name in _COUNTED}
        self.fallbacks = 0
        self.eval_id = -1
        self._stack = []
        self._undo = []
        self._quad_error_eval = None

    # -- span bookkeeping ------------------------------------------------

    def open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1,
                    self.eval_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _now()
        return span

    def close(self, span, error=None):
        span.end = _now()
        self._stack.pop()
        if error is not None:
            span.error = type(error).__name__

    def begin_eval(self):
        self.eval_id += 1
        return self.open("eval")

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if name == "mb.residue" \
                    and tracer._quad_error_eval == tracer.eval_id:
                # this evaluation's quadrature raised QuadratureError
                tracer.fallbacks += 1
                tracer._quad_error_eval = None
            panels = counts["quad.panels"]
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                if name == "mb.integrate" and isinstance(exc, QuadratureError):
                    tracer._quad_error_eval = tracer.eval_id
                raise
            tracer.close(span)
            span.info = _info(name, args, kwargs, out,
                              counts["quad.panels"] - panels)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        wrapped = {}
        for module, attr, name in _SPANNED:
            fn = getattr(module, attr)
            key = (id(fn), name)
            if key not in wrapped:
                wrapped[key] = self._spanned(name, fn)
            self._replace(module, attr, wrapped[key])
        for module, attr, name in _COUNTED:
            fn = getattr(module, attr)
            key = (id(fn), name)
            if key not in wrapped:
                wrapped[key] = self._counted(name, fn)
            self._replace(module, attr, wrapped[key])
        self._replace(laplace.ClosedFormPsi, "__call__",
                      self._spanned("laplace.psi",
                                    laplace.ClosedFormPsi.__call__))
        self._replace(mb, "mpmath", _MpmathProxy(self))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self):
        spans = self.spans
        child = [0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        by_name = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span.name, []).append(i)

        def dur(i):
            return spans[i].end - spans[i].start

        def of(name):
            return by_name.get(name, [])

        def outermost(name):
            """Spans of ``name`` not nested in another span of ``name``."""
            return [i for i in of(name)
                    if spans[i].parent < 0 or spans[spans[i].parent].name != name]

        def total_s(idx):
            return sum(dur(i) for i in idx) * 1e-9

        def self_s(name):
            return sum(dur(i) - child[i] for i in of(name)) * 1e-9

        def ok(name):
            return [i for i in of(name) if spans[i].error is None]

        grid = of("cgamma.grid")
        grid_points = sum(spans[i].info for i in grid if spans[i].info)
        scalar = outermost("cgamma.scalar")
        contour = outermost("mb.contour")
        integ = ok("mb.integrate")
        integ_evals = {spans[i].eval_id for i in of("mb.integrate")}
        residue = of("mb.residue")
        residue_terms = sum(spans[i].info for i in ok("mb.residue"))
        mp = of("mb.mp")
        quad = ok("quad")
        quad_nodes = sum(spans[i].info[0] for i in quad)
        transform = of("laplace.transform")
        laplace_quad = [i for i in quad if spans[i].parent >= 0
                        and spans[spans[i].parent].name == "laplace.transform"]
        psi = of("laplace.psi")

        out = {
            "cgamma.grid_calls": len(grid),
            "cgamma.grid_points": grid_points,
            "cgamma.grid_s": total_s(grid),
            "cgamma.grid_ns_per_point":
                total_s(grid) * 1e9 / grid_points if grid_points else 0.0,
            "cgamma.scalar_calls": len(scalar),
            "cgamma.scalar_s": total_s(scalar),
            "cgamma.detect_pole_calls": self.counts["cgamma.detect_pole_calls"],
            "mb.kernel_grid_calls": len(of("mb.kernel_grid")),
            "mb.kernel_grid_self_s": self_s("mb.kernel_grid"),
            "mb.contour_calls": len(of("mb.contour")),
            "mb.contour_s": total_s(contour),
            "mb.integrate_calls": len(of("mb.integrate")),
            "mb.integrate_self_s": self_s("mb.integrate"),
            "mb.nodes_per_eval": (sum(spans[i].info[0] for i in integ)
                                  / len(integ_evals) if integ_evals else 0.0),
            "mb.truncation_median":
                (statistics.median(spans[i].info[1] for i in integ)
                 if integ else 0.0),
            "mb.residue_calls": len(residue),
            "mb.residue_terms": residue_terms,
            "mb.residue_terms_per_s":
                residue_terms / total_s(residue) if residue else 0.0,
            "mb.residue_self_s": self_s("mb.residue"),
            "mb.mp_escalations": len(mp),
            "mb.mp_s": total_s(mp),
            "mb.mp_dps_max": max((spans[i].info for i in mp), default=0),
            "quad.calls": len(of("quad")),
            "quad.nodes": quad_nodes,
            "quad.panels": self.counts["quad.panels"],
            "quad.refine_rounds": sum((spans[i].info[3] - spans[i].info[2]) // 2
                                      for i in quad),
            "quad.self_s": self_s("quad"),
            "quad.converged_frac":
                (sum(spans[i].info[1] for i in quad) / len(quad)
                 if quad else 0.0),
            "laplace.transform_calls": len(transform),
            "laplace.transform_self_s": self_s("laplace.transform"),
            "laplace.quad_nodes": sum(spans[i].info[0] for i in laplace_quad),
            "laplace.psi_points": sum(spans[i].info or 0 for i in psi),
            "laplace.psi_s": total_s(psi),
            "laplace.solve_ode_s": total_s(of("laplace.solve_ode")),
            "polyroots.roots_calls": len(of("polyroots.roots")),
            "polyroots.roots_s": total_s(of("polyroots.roots")),
            "polyroots.companion_fallbacks":
                self.counts["polyroots.companion_fallbacks"],
            "fde.gamma_quotient_s": total_s(of("fde.gamma_quotient")),
            "fde.ratio_residual_calls": len(of("fde.ratio_residual")),
            "fde.ratio_residual_s": total_s(of("fde.ratio_residual")),
            "duality.views_s": total_s(of("duality.views")),
            "sf.route_self_s": self_s("sf.route"),
            "sf.quad_fallbacks": self.fallbacks,
            "sf.pfq_calls": len(of("sf.pfq")),
            "sf.pfq_s": total_s(of("sf.pfq")),
        }
        return out

    def routes(self, failed_evals):
        """Share of evaluations by route: refused (raised or non-finite),
        mp_escalated, residues, quadrature, or direct (no contour, residue
        or quadrature layer: pFq partial sums, gamma-quotient closed forms)."""
        used = {}
        for span in self.spans:
            if span.error is None and span.name in ("mb.mp", "mb.residue",
                                                     "quad"):
                used.setdefault(span.eval_id, set()).add(span.name)
        counts = dict.fromkeys(("quadrature", "residues", "mp_escalated",
                                "refused", "direct"), 0)
        for e in range(self.eval_id + 1):
            names = used.get(e, set())
            if e in failed_evals:
                counts["refused"] += 1
            elif "mb.mp" in names:
                counts["mp_escalated"] += 1
            elif "mb.residue" in names:
                counts["residues"] += 1
            elif "quad" in names:
                counts["quadrature"] += 1
            else:
                counts["direct"] += 1
        total = max(1, self.eval_id + 1)
        return {k: v / total for k, v in counts.items()}
