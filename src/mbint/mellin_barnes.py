"""Mellin-Barnes machinery.

A MellinKernel is a signed product/quotient of gamma factors of a complex
variable s, split into four families named for where their poles open and
whether they sit above or below the fraction bar:

* up_left    Gamma(b - beta*s)      numerator, right-opening poles
* up_right   Gamma(1 - a + alpha*s) numerator, left-opening poles
* down_left  Gamma(1 - b + beta*s)  denominator
* down_right Gamma(a - alpha*s)     denominator

plus a ``base`` constant contributing base**s.  The families are read
once, by the table _FAMILIES when the kernel is built, into
``kernel.terms``: Gamma(coeff + slope*s)^sign per factor, the one list the
pole ladders, residue terms, quadrature grid and decay rates all read.
Evaluation composes log-gamma values and exponentiates once.  The integral

    (1 / 2 pi i) * integral over L of  K(s) z^s ds

is computed over a truncated vertical line, mapped by y = sinh u and
integrated by the nested trapezoidal rule (quadrature.integrate_adaptive),
plus the residues of the poles that line leaves on the wrong side, with
residue summation over either pole family available as an independent
route.
"""

import cmath
import collections
import functools
import heapq
import itertools
import math
import sys
import threading
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .cgamma import (POLE_TOLERANCE, asymptotic_log_abs_gamma, detect_pole,
                     log_gamma_grid, log_gamma_unchecked, on_pole)
from .errors import (ContourError, ConvergenceError, HigherOrderPoleError,
                     NonConvergentSeriesError, ParameterError, PoleError,
                     QuadratureError)
from .quadrature import (MAX_NODES, check_tolerance, integrate_adaptive,
                         modulus)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # below it, exp rounds on the subnormal grid
_LOG_MAX = math.log(np.finfo(float).max)  # exp() of more overflows
_T_MIN = 8.0  # the lowest truncation height _truncation tries
_T_MAX = 6000.0
_NEG_INF = complex(float("-inf"), 0.0)
_MP_LOCK = threading.Lock()  # mpmath precision context is process-global
_CANCEL_TOL = 1e-12  # MellinKernel.simplify's parameter match
mpmath = None  # see _mpmath


@dataclass(frozen=True, init=False)
class GammaFactor:
    coeff: complex
    mult: float = 1.0

    # sets each field once (a dataclass __init__ and __post_init__: twice)
    def __init__(self, coeff, mult=1.0):
        coeff, mult = complex(coeff), float(mult)
        if not (cmath.isfinite(coeff) and math.isfinite(mult)):
            raise ParameterError("gamma-factor parameters must be finite",
                                 coeff=coeff, mult=mult)
        if mult <= 0:
            raise ParameterError("gamma-factor multiplier must be positive",
                                 mult=mult)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "mult", mult)


# (family, whether its argument rises with s, power), read once per kernel
_FAMILIES = (("up_left", False, 1), ("up_right", True, 1),
             ("down_left", True, -1), ("down_right", False, -1))


def _coeff(a, slope):
    """a for Gamma(a - m s), 1 - a for Gamma(1 - a + m s), in a's type."""
    return 1 - a if slope > 0 else a


@dataclass(frozen=True)
class MellinKernel:
    up_left: tuple = ()
    up_right: tuple = ()
    down_left: tuple = ()
    down_right: tuple = ()
    base: complex = 1.0
    # principal branch of log(base); the recorded c^x branch choice
    base_log: complex = field(init=False, repr=False, compare=False)
    # (coeff, slope, sign, a): Gamma(coeff + slope s)^sign, parameter a
    terms: tuple = field(init=False, repr=False, compare=False)
    # the hash of (terms, base), computed once: a kernel is its plan's key
    # (_plan), looked up several times a call
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = []
        for name, rising, sign in _FAMILIES:
            factors = []
            for f in getattr(self, name):
                f = f if isinstance(f, GammaFactor) else GammaFactor(*f)
                factors.append(f)
                slope = f.mult if rising else -f.mult
                terms.append((_coeff(f.coeff, slope), slope, sign, f.coeff))
            object.__setattr__(self, name, tuple(factors))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "base", complex(self.base))
        if self.base == 0 or not cmath.isfinite(self.base):
            raise ParameterError("kernel base must be finite and nonzero",
                                 base=self.base)
        object.__setattr__(self, "base_log", complex(np.log(self.base)))
        object.__setattr__(self, "_hash", hash((self.terms, self.base)))

    # the dataclass's comparison of the four families and the base, on
    # kernel.terms, which holds each factor's family, parameter and
    # multiplier in family order: plain numbers, not GammaFactor objects
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self.base == other.base

    def __hash__(self):
        return self._hash

    def simplify(self):
        """Cancel numerator/denominator factor pairs of identical shape.

        Gamma(1 - a + alpha s) against Gamma(1 - b + beta s) and
        Gamma(b - beta s) against Gamma(a - alpha s), whenever the
        parameters agree within 1e-12; the represented function is
        unchanged because the cancelled factors are equal.
        """
        def cancel(num, den):
            num, den = list(num), list(den)
            kept = []
            for f in num:
                hit = next((g for g in den
                            if abs(g.coeff - f.coeff) < _CANCEL_TOL
                            and abs(g.mult - f.mult) < _CANCEL_TOL), None)
                if hit is not None:
                    den.remove(hit)
                else:
                    kept.append(f)
            return tuple(kept), tuple(den)

        ur, dl = cancel(self.up_right, self.down_left)
        ul, dr = cancel(self.up_left, self.down_right)
        return MellinKernel(ul, ur, dl, dr, self.base)

    def to_json(self):
        return {**{name: [[f.coeff.real, f.coeff.imag, f.mult]
                          for f in getattr(self, name)]
                   for name, _, _ in _FAMILIES},
                "base": [self.base.real, self.base.imag]}


def check_split(m, n, p, q, error):
    """Raise ``error`` unless m, n are integers (Python or numpy) in 0..q
    and 0..p."""
    integer = (int, np.integer)
    if not (isinstance(m, integer) and isinstance(n, integer)
            and 0 <= m <= q and 0 <= n <= p):
        raise error("split indices out of range", m=m, n=n, p=p, q=q)


def g_kernel(m, n, a, b, alpha=None, beta=None, base=1.0):
    """The kernel of G^{m,n}_{p,q}(a; b), or of Fox H with multipliers
    alpha, beta (all 1 when None), times base**s: Gamma(b_k - beta_k s),
    k < m, in up_left, Gamma(1 - a_j + alpha_j s), j < n, in up_right, the
    other b's in down_left and a's in down_right.  The caller checks the
    split indices (check_split)."""
    alpha = (1.0,) * len(a) if alpha is None else alpha
    beta = (1.0,) * len(b) if beta is None else beta
    if len(alpha) != len(a) or len(beta) != len(b):
        raise ParameterError("parameter vector lengths must match p, q",
                             len_alpha=len(alpha), len_beta=len(beta))
    a, b = list(zip(a, alpha)), list(zip(b, beta))
    return MellinKernel(b[:m], a[:n], b[m:], a[n:], base)


def kernel_log_grid(kernel, s):
    """(log K, size) on the grid ``s``; no pole checks (see log_gamma_grid).

    ``size``, the sum of |log Gamma| over the factors and |s log base|,
    bounds the rounding of log K in units of eps; a denominator gamma on a
    pole makes K an exact zero (log K = -inf), of size 0.  The arguments
    coeff + slope*s of every gamma factor are stacked into one array, so
    the whole grid costs a single log_gamma_grid call.
    """
    s = np.asarray(s, dtype=np.complex128)
    out = np.zeros(s.shape, dtype=np.complex128)
    size = np.zeros(s.shape)
    stacked = _plan(kernel).stacked
    if stacked is not None:
        coeff, slope, sign = stacked
        args = coeff + slope * s.ravel()
        logs = log_gamma_grid(args).reshape(args.shape)
        size = np.abs(logs).sum(axis=0).reshape(s.shape)
        # negated, not multiplied by -1: (-1 + 0j)(inf + ib) has a NaN part
        np.negative(logs, out=logs, where=sign < 0)
        # rows added in kernel.terms order, equal to one call per factor
        out = out + logs.sum(axis=0).reshape(s.shape)
        size[np.isinf(size)] = 0.0
    if kernel.base != 1.0:
        out = out + s * kernel.base_log
        size = size + np.abs(s * kernel.base_log)
    return out, size


def _log_gammas(terms, s):
    """Sum of sign * log Gamma(coeff + slope*s) over ``terms``.

    Raises PoleError when a numerator gamma (sign > 0) sits on a pole; a
    denominator gamma on a pole makes the product zero, returned as None.
    """
    total = 0.0 + 0.0j
    for coeff, slope, sign, _ in terms:
        w = coeff + slope * s
        if on_pole(w):
            if sign > 0:
                raise PoleError("kernel evaluated at a numerator pole",
                                s=s, argument=w)
            return None
        total += sign * log_gamma_unchecked(w)
    return total


def kernel_log_eval(kernel, s):
    """log K(s) for scalar s.

    Raises PoleError when s sits on a numerator-gamma pole; a denominator
    pole (a zero of the kernel) yields -inf instead.
    """
    s = complex(s)
    total = _log_gammas(kernel.terms, s)
    if total is None:
        return _NEG_INF
    return total + s * kernel.base_log


def kernel_eval(kernel, s):
    """K(s) itself; exponentiation happens only here."""
    value = kernel_log_eval(kernel, s)
    if value.real == float("-inf"):
        return 0.0 + 0.0j
    return complex(np.exp(value))


# --------------------------------------------------------------------------
# pole bookkeeping


@dataclass(frozen=True)
class Pole:
    location: complex
    order: int
    sources: tuple  # of (family, factor_index, ladder_index)


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 3x as much
class _Ladder:
    """The poles of one gamma factor: an arithmetic progression in s.

    Gamma(coeff + slope s), kernel.terms[term], has the poles s_l =
    (origin + step * l) / mult, 0 <= l < length, with step = -sgn(slope),
    origin = step * coeff and mult = |slope|: right-opening for
    Gamma(b - beta s) (up_left), left-opening for Gamma(1 - a + alpha s)
    (up_right).  The contour code uses unbounded ladders (length inf).
    """
    step: int
    term: int
    length: int
    origin: complex
    mult: float

    @property
    def family(self):
        return "up_left" if self.step > 0 else "up_right"

    def location(self, l):
        return (self.origin + self.step * l) / self.mult

    def ratio(self, other):
        """(p, q) in lowest terms if other.mult is p / q times mult, to
        POLE_TOLERANCE, with q = 1 or p = 1 (whole ratios either way, any
        size) or q <= 12, else None: past those, the multiple of 1 / 27720
        = 1 / lcm(1, ..., 12) nearest the ratio, reduced.  A ratio or its
        inverse past the double range (0 or inf) is a ParameterError."""
        r, inverse = other.mult / self.mult, self.mult / other.mult
        if not (0 < r < math.inf and 0 < inverse < math.inf):
            raise ParameterError("gamma-factor multiplier ratio past the "
                                 "double range", mult=self.mult,
                                 other=other.mult)
        k = round(r)
        if k and abs(r - k) <= POLE_TOLERANCE:
            return k, 1
        k = round(inverse)
        if k and abs(inverse - k) <= POLE_TOLERANCE:
            return 1, k
        n = round(r * 27720)
        g = math.gcd(n, 27720)
        p, q = n // g, 27720 // g
        return (p, q) if p and q <= 12 and abs(r - p / q) <= POLE_TOLERANCE \
            else None

    def meets(self, other):
        """The first index pair (l, l'), by l, with s_l within
        POLE_TOLERANCE of the pole s'_l' of ``other``, else None.

        At a ratio p / q (ratio) they meet only on q step' l' = p step l
        + n, n the integer nearest p origin - q origin': l on one residue
        class modulo q, l' moving by step step' p per q; a closed form.
        Otherwise a numpy sweep holds each pole short of other's far end
        (its head if opening the other way, else its last pole, which must
        be finite) against its nearest pole."""
        step, step2 = self.step, other.step
        if step != step2 and (other.location(0) - self.location(0)).real \
                * step < -POLE_TOLERANCE:
            return None  # opening apart from heads that do not overlap
        ratio = self.ratio(other)
        if ratio is not None:
            p, q = ratio
            n = round(p * self.origin.real - q * other.origin.real)
            l = -n * pow(p * step, -1, q) % q if q > 1 else 0
            l2 = step2 * (p * step * l + n) // q
            move = step * step2 * p
            # the first j >= 0 that puts l2 + move j in 0 .. other.length - 1
            j = max(0, -(l2 // p)) if move > 0 else 0 if l2 < other.length \
                else -((other.length - 1 - l2) // p)
            l, l2 = l + q * j, l2 + move * j
            if l < self.length and 0 <= l2 < other.length and abs(
                    self.location(l) - other.location(l2)) <= POLE_TOLERANCE:
                return l, l2
            return None
        far = other.location(0 if step != step2 else other.length - 1).real
        count = min(self.length, 2 + math.floor(self.mult * (
            self.step * far + POLE_TOLERANCE) - self.step * self.origin.real))
        for lo in range(0, count, 4096):  # bounded memory for a huge count
            s = self.location(np.arange(lo, min(count, lo + 4096)))
            near = np.rint(other.step * (s * other.mult - other.origin).real)
            near = np.clip(near, 0, other.length - 1)
            hit = np.flatnonzero(np.abs(s - other.location(near))
                                 <= POLE_TOLERANCE)
            if hit.size:
                return lo + int(hit[0]), int(near[hit[0]])
        return None

    def before(self, bound):
        """How many poles precede the line Re s = bound: read off the
        progression, settled on location(), monotone in l in floats too.
        Callers pass bounded ladders: the settling walks one pole at a time,
        and far out many poles round to one location."""
        l = math.ceil(self.step * (bound * self.mult - self.origin.real))
        l = min(max(l, 0), self.length)
        while l > 0 and self.step * (self.location(l - 1).real - bound) >= 0:
            l -= 1
        while l < self.length \
                and self.step * (self.location(l).real - bound) < 0:
            l += 1
        return l


def _pole_ladders(kernel, side, length, den=False):
    """The ladders that closing the contour on ``side`` encircles; with
    ``den``, those of the denominator gammas whose poles open that way."""
    step = 1 if side == "right" else -1
    sign = -1 if den else 1
    out = []  # a loop: a comprehension costs a third more
    for i, (coeff, slope, power, _) in enumerate(kernel.terms):
        if power == sign and step * slope < 0:
            out.append(_Ladder(step, i, length, step * coeff, abs(slope)))
    return out


def _ladder_poles(ladder, idx):
    """(key, Im s_l, idx, l, s_l) for l = 0, 1, ..., in ladder order.

    The key is step * Re s_l (Re s_l rightward, -Re s_l leftward), so
    merging a family's ladders lists its poles in opening order, ties
    broken by Im s_l, then by ``idx``, the ladder's place in the merge;
    (key, Im, idx, l) is unique per pole, so s_l is never compared.
    """
    step = ladder.step
    for l in range(ladder.length):
        loc = ladder.location(l)
        yield step * loc.real, loc.imag, idx, l, loc


def _merged_poles(ladders):
    """The poles of one family's ladders, drawn lazily in opening order."""
    return heapq.merge(*map(_ladder_poles, ladders, range(len(ladders))))


def _first_meeting(pairs):
    """s_l of a at the first pair (a, b) that meets (_Ladder.meets) or None."""
    return next((a.location(hit[0]) for a, b in pairs
                 if (hit := a.meets(b))), None)


def _live_length(ladder, dens):
    """The index from which every residue on ``ladder`` vanishes, else
    math.inf: its first meeting with a ladder in ``dens`` at a ratio p / 1,
    whose denominator gamma then sits on a pole at every pole after."""
    if not dens:
        return math.inf
    unbounded = _Ladder(ladder.step, ladder.term, math.inf, ladder.origin,
                        ladder.mult)  # replace() costs 7 times as much
    return min([hit[0] for den in dens
                if (ratio := ladder.ratio(den)) and ratio[1] == 1
                and (hit := unbounded.meets(den))], default=math.inf)


def pole_families(kernel, count):
    """First ``count`` poles per factor, merged and ordered by opening side.

    Returns (left_opening, right_opening); left-opening poles come from the
    Gamma(1 - a + alpha s) factors and are listed moving leftward,
    right-opening ones from Gamma(b - beta s), moving rightward, in the
    order the residue route draws them (_merged_poles): poles with equal
    real parts by ascending Im.  Poles where distinct factors collide
    carry order > 1: a pole joins the first earlier one within
    POLE_TOLERANCE, among those whose merge key is that close.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ParameterError("count must be an integer >= 1", count=count)
    out = []
    for side in ("left", "right"):
        ladders = _pole_ladders(kernel, side, count)
        clusters = []  # [key, location, sources], in merge order
        for key, _, idx, l, loc in _merged_poles(ladders):
            src = (ladders[idx].family, idx, l)
            near = itertools.takewhile(
                lambda c: key - c[0] <= POLE_TOLERANCE, reversed(clusters))
            hit = next((c for c in near
                        if abs(loc - c[1]) <= POLE_TOLERANCE), None)
            if hit is None:
                hit = [key, loc, []]
                clusters.append(hit)
            hit[2].append(src)
        out.append([Pole(loc, len(srcs), tuple(srcs))
                    for _, loc, srcs in clusters])
    return tuple(out)


def find_pole_collision(kernel):
    """The first right-opening pole on a left-opening ladder, or None
    (_first_meeting, ladders in factor order).  Unbounded ladders opening
    apart meet only short of the other's head, so the search ends."""
    return _first_meeting(itertools.product(
        _pole_ladders(kernel, "right", math.inf),
        _pole_ladders(kernel, "left", math.inf)))


# --------------------------------------------------------------------------
# contours


@dataclass(frozen=True, slots=True)
class Contour:
    """The line Re s = anchor, integrated up to |Im s| >= truncation; the
    contributions of the poles it crosses are added (_crossed_poles)."""
    anchor: float
    truncation: float

    def __post_init__(self):
        object.__setattr__(self, "anchor", float(self.anchor))
        object.__setattr__(self, "truncation", float(self.truncation))
        if not math.isfinite(self.anchor):
            raise ParameterError("contour anchor must be finite",
                                 anchor=self.anchor)
        if not self.truncation > 0:
            raise ParameterError("truncation height must be positive",
                                 truncation=self.truncation)

    def to_json(self):
        return {"anchor": self.anchor, "truncation": self.truncation}


def _debug(msg, *args):
    """Log ``msg`` at debug level, in a process that imported logging: in
    one that did not, no handler could print it, so mbint does not import
    logging itself."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(msg, *args)


def decay_rate(kernel):
    """Exponential decay rate kappa of |K| along a vertical line."""
    total = 0.0
    for _, slope, sign, _ in kernel.terms:
        total += sign * abs(slope)
    return 0.5 * np.pi * total


def _algebraic_exponent(kernel, sigma):
    """Coefficient of log|y| in log|K(sigma + iy)| for large |y|."""
    total = 0.0
    for coeff, slope, sign, _ in kernel.terms:
        total += sign * ((coeff + slope * sigma).real - 0.5)
    return total


def contour_window(kernel):
    """Open strip (lo, hi) of anchors separating the two pole families."""
    lo = max((lad.location(0).real
              for lad in _pole_ladders(kernel, "left", math.inf)),
             default=-math.inf)
    hi = min((lad.location(0).real
              for lad in _pole_ladders(kernel, "right", math.inf)),
             default=math.inf)
    return lo, hi


def choose_contour(kernel):
    """Deterministic pole-separating contour (_separating_contour's),
    built once per kernel, in its plan."""
    return _plan(kernel).contour


def _separating_contour(kernel, collision):
    """choose_contour's rule; ``collision`` is find_pole_collision's
    verdict on ``kernel``.

    Anchor at the midpoint of the separation window when it is bounded, at
    window edge -/+ 0.5 when half-infinite.  When the window is empty the
    line is placed just right of every left-opening pole, in the widest gap
    between right-opening pole abscissae; integrate adds back the residues
    of the right-opening poles left of it (_crossed_poles).  The truncation
    is _T_MIN, the lowest height integrate tries (_truncation).
    """
    if collision is not None:
        raise ContourError("a pole lies in both families; no contour can "
                           "separate them", location=collision)
    lo, hi = contour_window(kernel)
    if lo + 1e-9 < hi:
        if lo == -math.inf:
            anchor = 0.0 if hi == math.inf else hi - 0.5
        elif hi == math.inf:
            anchor = lo + 0.5
        else:
            anchor = 0.5 * (lo + hi)
        return Contour(anchor, _T_MIN)

    # empty window: anchor inside (lo, lo + 1], clear of every left-opening
    # pole, placed in the widest gap between right-opening abscissae
    cuts = sorted({loc.real
                   for lad in _pole_ladders(kernel, "right", MAX_NODES + 1)
                   for loc in map(lad.location, range(lad.before(lo),
                                                      lad.before(lo + 1.0)))
                   if loc.real > lo})
    bounds = [lo] + cuts + [lo + 1.0]
    widths = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
    i_best = int(np.argmax(widths))
    return Contour(0.5 * (bounds[i_best] + bounds[i_best + 1]), _T_MIN)


def _crossed_poles(kernel, anchor):
    """The poles the line Re s = ``anchor`` leaves on the wrong side, as
    (ladder, terms) pairs (_ladder_model) whose poles l < ladder.length are
    crossed: right-opening poles left of the line, left-opening ones right
    of it.  Refuses, with ContourError, a pole on the line, two crossed
    poles of one family that meet (_first_meeting, as residue_series does)
    and more than MAX_NODES crossed poles on a ladder, one residue each.
    The plan keeps the chosen contour's (_Plan.crossed).
    """
    out = []
    for side in ("right", "left"):
        crossed = []
        for lad in _pole_ladders(kernel, side, MAX_NODES + 1):
            # the ladder's real parts are monotone: only the last pole
            # crossed can sit within POLE_TOLERANCE of the line
            count = lad.before(anchor + lad.step * POLE_TOLERANCE)
            if count > MAX_NODES:
                raise ContourError("the line crosses more poles than the "
                                   "node budget", anchor=anchor)
            if count and abs((loc := lad.location(count - 1)).real
                             - anchor) <= POLE_TOLERANCE:
                raise ContourError("a pole lies on the integration line",
                                   location=loc, anchor=anchor)
            if count:
                crossed.append(replace(lad, length=count))
        # two poles that meet are crossed together
        loc = _first_meeting(itertools.combinations(crossed, 2))
        if loc is not None:
            raise ContourError("crossed pole has order > 1", location=loc,
                               anchor=anchor)
        for lad in crossed:
            lad, terms, _ = _ladder_model(kernel, lad, exact=False)
            out.append((lad, tuple(terms)))  # shared by every caller
    return tuple(out)


# --------------------------------------------------------------------------
# the plan: what evaluation reads of the kernel alone


PLAN_MEMO = 256  # plans _plan keeps; past it, the oldest is dropped
_PLANS = collections.OrderedDict()  # kernel -> plan, oldest first
_PLANS_LOCK = threading.Lock()  # held to add a plan, not to read one


class _Plan:
    """What evaluating a kernel reads of the kernel alone, whatever z.

    Each field is built on its first read and kept, so a call that never
    reads one (a residue sum reads no contour) never builds it; a build
    that raises keeps nothing and raises again on the next read.  The
    fields are read-only once built, and two threads that build one at
    once build equal values.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._line = None  # the _Line last asked for

    @functools.cached_property
    def stacked(self):
        """The (coeff, slope, sign) columns of kernel.terms as read-only
        (k, 1) arrays; None for a kernel without gamma factors."""
        if not self.kernel.terms:
            return None
        cols = tuple(np.array(col)[:, None]
                     for col in tuple(zip(*self.kernel.terms))[:3])
        for col in cols:
            col.flags.writeable = False  # shared by every caller
        return cols

    @functools.cached_property
    def collision(self):
        """find_pole_collision's verdict, which GParams and HParams read."""
        return find_pole_collision(self.kernel)

    @functools.cached_property
    def contour(self):
        return _separating_contour(self.kernel, self.collision)

    @functools.cached_property
    def crossed(self):
        """_crossed_poles at the chosen contour's anchor."""
        return _crossed_poles(self.kernel, self.contour.anchor)

    @functools.cached_property
    def kappa(self):
        return decay_rate(self.kernel)

    @functools.cached_property
    def folded(self):
        return _conjugate_symmetric(self.kernel)

    @functools.cached_property
    def opening(self):
        return _opening(self.kernel)

    @functools.cached_property
    def residue_rule(self):
        return _residue_rule(self.kernel)

    def line(self, sigma, t_min):
        """The _Line of Re s = sigma from the height t_min; the plan keeps
        the last one asked for, which integrate asks for at every z."""
        line = self._line
        if line is None or line.key != (sigma, t_min):
            line = self._line = _Line(self, sigma, t_min)
        return line


def _plan(kernel):
    """The plan of ``kernel``: the memo's, one for equal kernels, else a
    new one, which the memo keeps."""
    plan = _PLANS.get(kernel)
    if plan is None:
        with _PLANS_LOCK:
            plan = _PLANS.setdefault(kernel, _Plan(kernel))
            if len(_PLANS) > PLAN_MEMO:
                _PLANS.popitem(last=False)
    return plan


def _kept_field(kernel, name, build):
    """Field ``name`` of the kernel's kept plan; for a kernel with none,
    ``build(kernel)``, kept nowhere.  For the fields as cheap to build
    again as to look up (the collision verdict, the residue side), read
    at every construction and residue sum: kernels summed only by
    residues, where nothing repeats, never fill the memo."""
    plan = _PLANS.get(kernel)
    return build(kernel) if plan is None else getattr(plan, name)


def _opening(kernel):
    """Where the numerator gammas' poles open: True for rightward (a set,
    read only)."""
    return {slope < 0 for _, slope, sign, _ in kernel.terms if sign > 0}


def _residue_rule(kernel):
    """(side, radius) of the residue-side rule, by Delta = -sum sign *
    slope over kernel.terms = sum beta - sum alpha: ("right", None) for
    Delta > 0, ("left", None) for Delta < 0, and for Delta = 0 None and the
    radius prod beta^beta prod alpha^-alpha, inf past the double range (0
    below it)."""
    betas, alphas = [], []  # by sign * slope < 0 and > 0, in term order
    for _, slope, sign, _ in kernel.terms:
        (betas if sign * slope < 0 else alphas).append(abs(slope))
    slack = sum(betas) - sum(alphas)
    if slack > 1e-12:
        return "right", None
    if slack < -1e-12:
        return "left", None
    log_radius = sum(m * math.log(m) for m in betas) \
        - sum(m * math.log(m) for m in alphas)
    return None, math.inf if log_radius > _LOG_MAX else math.exp(log_radius)


# --------------------------------------------------------------------------
# convergence classification


class ConvergenceClass(Enum):
    ABSOLUTE = "absolute"
    CONDITIONAL = "conditional"
    DIVERGENT = "divergent"


def _effective_arg(kernel, z, branch_k=0):
    z = complex(z)
    return math.atan2(z.imag, z.real) + 2.0 * math.pi * branch_k \
        + kernel.base_log.imag


def convergence_class(kernel, z, branch_k=0):
    """Classify the contour integral of K(s) (base z)^s.

    Compares the exponential decay rate kappa of |K| against |arg| of the
    effective argument; on the boundary the algebraic falloff along the
    default contour decides between conditional convergence and divergence.
    """
    z = complex(z)
    if z == 0:
        return ConvergenceClass.DIVERGENT
    kappa = _plan(kernel).kappa
    delta = kappa - abs(_effective_arg(kernel, z, branch_k))
    if delta > 1e-12:
        return ConvergenceClass.ABSOLUTE
    if delta < -1e-12:
        return ConvergenceClass.DIVERGENT
    try:
        sigma = choose_contour(kernel).anchor
    except ContourError:
        sigma = 0.0
    if _algebraic_exponent(kernel, sigma) < -1e-12:
        return ConvergenceClass.CONDITIONAL
    return ConvergenceClass.DIVERGENT


# --------------------------------------------------------------------------
# evaluation results


@dataclass(frozen=True, slots=True)
class EvalResult:
    value: complex
    err_estimate: float
    nodes_used: int
    contour: Contour = None
    method: str = "quadrature"
    arg_branch: int = 0

    def to_json(self):
        out = {"value": [self.value.real, self.value.imag],
               "err_estimate": self.err_estimate,
               "nodes_used": self.nodes_used,
               "method": self.method,
               "arg_branch": self.arg_branch}
        if self.contour is not None:
            out["contour"] = self.contour.to_json()
        return out


# --------------------------------------------------------------------------
# residues


def _mpmath():
    """The mpmath module, imported on first use (by the re-summation only)."""
    global mpmath
    if mpmath is None:
        import mpmath
    return mpmath


def _mp_number(x):
    """The double ``x`` exactly, as an mpf when real (cheaper arithmetic)."""
    return mpmath.mpf(x.real) if x.imag == 0 else mpmath.mpc(x.real, x.imag)


def _ladder_model(kernel, ladder, exact):
    """(ladder, terms, moves): the other gamma factors along ``ladder``.

    ``terms`` holds kernel.terms but the ladder's own, and ``moves`` the
    step of each one's argument from pole to pole: +/-1 when its
    multiplier equals the ladder's, else None.  With ``exact`` they and
    the ladder are mpmath numbers read from the exact parameters.
    """
    terms = list(kernel.terms)
    moves = [ladder.step * (1 if slope > 0 else -1)
             if abs(slope) == ladder.mult else None
             for _, slope, _, _ in terms]
    if exact:
        terms = [(_coeff(_mp_number(a), slope), mpmath.mpf(slope), sign, a)
                 for _, slope, sign, a in terms]
        ladder = replace(ladder, origin=ladder.step * terms[ladder.term][0],
                         mult=mpmath.mpf(ladder.mult))
    del terms[ladder.term], moves[ladder.term]
    return ladder, terms, moves


def _log_residue(ladder, terms, l, shift):
    """The contribution of pole l of ``ladder`` in double, (-1)^l / (mult
    l!) times the other factors and z^s there, composed in log space
    by _log_gammas and exponentiated once, all in Python complex: cmath.exp
    costs a fifth of np.exp on one scalar, and equals it bit for bit below
    Re 708.3 (above, it scales by e and may differ by an ulp)."""
    s = ladder.location(l)
    total = _log_gammas(terms, s)
    if total is None:
        return 0.0 + 0.0j
    total += s * shift
    total -= math.lgamma(l + 1) + math.log(ladder.mult)
    if total.real > _LOG_MAX:
        # past the double range: the sum's typed overflow check fires
        return complex(math.inf, 0.0)
    return cmath.exp(total) if l % 2 == 0 else -cmath.exp(total)


def _gamma_residue(ladder, terms, l, shift):
    """The contribution of pole l of an mpmath ``ladder`` (see
    _ladder_model), as in _log_residue: a product of mpmath.gamma/rgamma
    values with the pole rules of _log_gammas.  mpmath.loggamma costs more
    than gamma, and a log-space sum of them is complex, so a Fox H term
    composed as in double costs about 1.5 times as much."""
    s = ladder.location(l)
    term = mpmath.mpf(1 if l % 2 == 0 else -1)
    for coeff, slope, sign, _ in terms:
        w = coeff + slope * s
        if on_pole(complex(w)):
            if sign > 0:
                raise PoleError("kernel evaluated at a numerator pole",
                                s=complex(s), argument=complex(w))
            return 0.0 + 0.0j
        term *= mpmath.gamma(w) if sign > 0 else mpmath.rgamma(w)
    return term / mpmath.factorial(l) / ladder.mult * mpmath.exp(s * shift)


class _Dyadic:
    """The number (re + i im) 2^exp with integers re and im: a term of the
    exact pass's Gamma-ratio recurrence (_ratio_residues), or a sum of
    such terms.  A sum is exact, on the finer of the two exponents, and
    complex() rounds to the nearest double."""
    __slots__ = ("re", "im", "exp")

    def __init__(self, re, im, exp):
        self.re, self.im, self.exp = re, im, exp

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        if other.__class__ is not _Dyadic:
            return self  # 0 + term, the start of a sum
        k = self.exp - other.exp
        if k >= 0:
            return _Dyadic((self.re << k) + other.re,
                           (self.im << k) + other.im, other.exp)
        return _Dyadic(self.re + (other.re << -k), self.im + (other.im << -k),
                       self.exp)

    __radd__ = __add__

    def __complex__(self):
        re, im, exp = self.re, self.im, self.exp
        try:
            # float(int) rounds once; the scaling is exact in normal range
            return complex(math.ldexp(re, exp), math.ldexp(im, exp))
        except OverflowError:  # a mantissa, or the value, past 2^1024
            if exp >= 0:
                return complex(math.inf, 0.0)
        unit = 1 << -exp
        try:
            return complex(re / unit, im / unit)  # int / int rounds once
        except OverflowError:
            return complex(math.inf, 0.0)


def _dyadic(x):
    """The mpmath number ``x`` (or a complex zero) exactly, as a _Dyadic,
    read from its mantissas and exponents."""
    if not x:
        return _Dyadic(0, 0, 0)
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, (0, 0, 0, 0))
    exp = min(e for _, man, e, _ in parts if man)
    re, im = ((-int(man) if sign else int(man)) << (e - exp) if man else 0
              for sign, man, e, _ in parts)
    return _Dyadic(re, im, exp)


def _ratio_residues(ladder, terms, moves, shift):
    """The contributions of an mpmath ``ladder`` whose other factors all move
    by +/-1 (see _ladder_residues), by Gamma(w + 1) = w Gamma(w) in
    integer arithmetic.

    The arguments w = coeff +/- (origin + step l), from the model's
    numbers, are exact dyadic (Gaussian) rationals because the parameters
    are doubles; they are held as integers on one binary exponent, so each
    step's ratio is a quotient of exact integer products.  A term is a
    _Dyadic with its own exponent and a mantissa of P or P + 1 bits, P
    the working precision in bits.  Each step multiplies it by the ratio
    and rounds once, to within one unit of that mantissa, so a term l steps
    from its anchor is within l 2^(3-P) of itself, the rounding of
    e^(step shift / mult) to the working precision included.  The anchors,
    the first term and the term after a zero one, are _gamma_residue's
    products, converted exactly.
    """
    prec = mpmath.mp.prec
    values = [_dyadic(ladder.origin)] + [_dyadic(t[0]) for t in terms]
    exp = min(0, *(v.exp for v in values))
    (o_re, o_im), *coeffs = [(v.re << (v.exp - exp), v.im << (v.exp - exp))
                             for v in values]
    one = 1 << -exp
    # The step to pole l takes Gamma(w + 1) / Gamma(w) = w of a rising
    # argument at l - 1 and Gamma(w) / Gamma(w + 1) = 1 / w of a falling
    # one at l: that w is c + m l, with Im w = c_im.  Real arguments
    # multiply as plain integers.
    num, den, num_c, den_c = [], [], [], []
    for (c_re, c_im), (_, slope, sign, _), move in zip(coeffs, terms, moves):
        side = 1 if slope > 0 else -1
        c_re += side * o_re - (one if move > 0 else 0)
        c_im += side * o_im
        up = (move > 0) == (sign > 0)
        if c_im:
            (num_c if up else den_c).append((c_re, c_im, move * one))
        else:
            (num if up else den).append((c_re, move * one))
    e_step = _dyadic(-mpmath.exp(ladder.step * shift / ladder.mult))
    e_re, e_im = e_step.re, e_step.im
    scale = e_step.exp + exp * (len(num) + len(num_c) - len(den) - len(den_c))
    term = _dyadic(_gamma_residue(ladder, terms, 0, shift))
    yield term
    for l in range(1, ladder.length):
        if not term:
            term = _dyadic(_gamma_residue(ladder, terms, l, shift))
            yield term
            continue
        p = 1
        for c, m in num:
            p *= c + m * l
        d = l
        for c, m in den:
            d *= c + m * l
        x_re = (term.re * e_re - term.im * e_im) * p
        x_im = (term.re * e_im + term.im * e_re) * p
        for c, w_im, m in num_c:
            w_re = c + m * l
            x_re, x_im = x_re * w_re - x_im * w_im, x_re * w_im + x_im * w_re
        for c, w_im, m in den_c:  # times conj(w) / |w|^2
            w_re = c + m * l
            x_re, x_im = x_re * w_re + x_im * w_im, x_im * w_re - x_re * w_im
            d *= w_re * w_re + w_im * w_im
        if d <= 0:
            if not d:
                raise PoleError("numerator gamma on a pole at a residue "
                                "location")
            d, x_re, x_im = -d, -x_re, -x_im
        # the quotient keeps P or P + 1 bits
        bits = prec + d.bit_length() - max(x_re.bit_length(), x_im.bit_length())
        if bits >= 0:
            x_re, x_im = x_re << bits, x_im << bits
        else:
            d <<= -bits
        half = d >> 1
        term = _Dyadic((x_re + half) // d, (x_im + half) // d,
                       term.exp + scale - bits)
        yield term


def _ladder_residues(kernel, ladder, shift, exact=False):
    """The contributions of the poles l = 0, 1, ... of ``ladder``: the
    residues of K(s) z^s there, negated on a right-opening ladder.

    ``shift`` is log(base) + log z.  A numerator gamma on a pole raises
    PoleError; a denominator gamma on a pole gives a zero term.  In double
    every term is composed in log space by _log_residue.  With ``exact``,
    inside the caller's workdps, a term is the mpmath product
    _gamma_residue; when every other factor's argument moves by +/-1 from
    pole to pole (multipliers equal to the ladder's), each term after the
    first (and after a zero term) follows from the previous one through
    Gamma(w + 1) = w Gamma(w) on Python integers (_ratio_residues), with
    no gamma call and no mpmath arithmetic.
    """
    ladder, terms, moves = _ladder_model(kernel, ladder, exact)
    if exact and None not in moves:
        yield from _ratio_residues(ladder, terms, moves, shift)
        return
    residue = _gamma_residue if exact else _log_residue
    for l in range(ladder.length):
        yield residue(ladder, terms, l, shift)


def _sum_residues(kernel, ladders, shift, tol, budget, exact=False):
    """The residue sum over ``ladders``, merged lazily in opening order.

    Returns (total, abs_sum, tail, nterms).  Summation stops after three
    consecutive terms of at most tol * |partial|, counted once the partial
    sum is nonzero: a term that underflows to 0 counts where tol * |partial|
    does too.  ``tail``, the charge for the terms left out, is the last
    term's magnitude or, where they weigh more, the ladders' geometric
    tails: r |t| / (1 - r) for a last term t that fell by r = |t / t'| < 1
    from the one before, bounding the rest while the ratios keep falling;
    |t| if r >= 1; nothing once a ladder is drawn out.  Terms are complex
    numbers, mpmath numbers or _Dyadic ones (the exact pass's Gamma-ratio
    recurrence), and the sum is of their type: the loop uses only +,
    complex() and the zero test.  A _Dyadic sum is exact.  Ladders all cut
    short of ``budget`` give a complete sum, with no tail.  A ladder of
    ``budget`` poles that draws its last one before the stop rule settles
    ends the sum, refused with NonConvergentSeriesError: the other ladders'
    terms say nothing about its tail.  Only a sum whose every term
    underflowed is kept then, when the last two terms of each such ladder
    fall (_underflowed_tail, charged as the tail).
    """
    runs = [_ladder_residues(kernel, lad, shift, exact) for lad in ladders]
    total = 0
    abs_sum = 0.0
    ok = 0
    nterms = 0
    mag = 0.0
    # each ladder's last two term magnitudes; the last 0 once drawn out
    last, before = [0.0] * len(ladders), [0.0] * len(ladders)

    def tail():
        geometric = 0.0
        for t, t0 in zip(last, before):
            r = t / t0 if t0 else math.inf
            geometric += t * r / (1.0 - r) if r < 1.0 else t
        return max(mag, geometric)

    for _, _, idx, l, loc in _merged_poles(ladders):
        try:
            term = next(runs[idx])
        except PoleError as exc:
            raise HigherOrderPoleError(
                "residue location collides with another pole family",
                location=loc) from exc
        total += term
        # magnitudes in double suffice for the stop rule and the estimate
        mag = modulus(term)
        before[idx], last[idx] = last[idx], mag
        if l == ladders[idx].length - 1:
            last[idx] = 0.0
        abs_sum += mag
        nterms += 1
        if not math.isfinite(mag):
            raise NonConvergentSeriesError("residue terms overflow",
                                           terms=nterms)
        # structurally zero leading terms (a denominator gamma at a pole)
        # say nothing about convergence while the partial sum is still zero
        if total and mag <= tol * modulus(total):
            ok += 1
            if ok >= 3:
                return total, abs_sum, tail(), nterms
        else:
            ok = 0
        if l == budget - 1:
            break  # a ladder ran into the budget before the rule settled
    else:
        return total, abs_sum, 0.0, nterms  # every ladder drawn out
    rest = tail() if abs_sum else _underflowed_tail(
        kernel, [lad for lad in ladders if lad.length == budget], shift)
    if abs_sum or not math.isfinite(rest):
        raise NonConvergentSeriesError("residue series did not settle",
                                       terms=nterms, tail=rest)
    return total, abs_sum, rest, nterms


def _underflowed_tail(kernel, ladders, shift):
    """The tail past the last poles of ``ladders``, whose residues all
    underflow in double: per ladder r |t| / (1 - r) for its last two terms
    t', t with r = |t / t'| < 1, read off their log moduli (composed as in
    _log_residue); math.inf if some ladder's terms do not fall."""
    tail = 0.0
    for ladder in ladders:
        if ladder.length < 2:
            return math.inf
        ladder, terms, _ = _ladder_model(kernel, ladder, False)
        logs = []
        for l in (ladder.length - 2, ladder.length - 1):
            s = ladder.location(l)
            total = _log_gammas(terms, s)  # None: a denominator on a pole
            logs.append(-math.inf if total is None else
                        (total + s * shift).real - math.lgamma(l + 1)
                        - math.log(ladder.mult))
        if not logs[1] < logs[0]:
            return math.inf
        # r / (1 - r) = 1 / expm1(log |t'| - log |t|)
        tail += math.exp(logs[1] - math.log(math.expm1(logs[0] - logs[1])))
    return tail


def check_argument(z, tol):
    """complex(z) for a finite nonzero z, with ``tol`` a positive finite
    number; else ParameterError."""
    z = complex(z)
    if z == 0 or not cmath.isfinite(z):
        raise ParameterError("argument must be finite and nonzero", z=z)
    check_tolerance(tol)
    return z


_RESIDUE_METHOD = {"left": "residues_left", "right": "residues_right"}
_SUBNORMAL = 2.0 ** -1073  # a double term's rounding on the subnormal grid
_EXACT_BUDGET = 4  # the exact pass's ladders: this many times n_max poles
_MAX_DPS = 300  # the exact pass's precision cap, in digits


def residue_series(kernel, z, side, n_max=400, tol=1e-12, branch_k=0):
    """Evaluate the contour integral by closing around one pole family.

    The value is the plain sum of the encircled poles' contributions: pole
    l of a ladder adds (-1)^l / (mult l!) times the other factors and z^s
    there (DLMF 16.17.2), whichever family it opens.  Each numerator gamma
    of the family gives a pole ladder of up to ``n_max`` poles, cut where a
    denominator gamma makes its residues vanish for good; the ladders are
    merged lazily in opening order, and a ladder pair sharing a pole is
    refused before summing.  The sum itself (_sum_residues) decides whether
    it settled: it stops after three consecutive terms of at most
    tol * |partial|, counted once the partial sum is nonzero, and refuses a
    ladder that runs into its budget first.  The double pass charges each
    term 2^-1073, its rounding on the subnormal grid.  A sum can be all
    zero, from terms below the double range or denominator gammas at the
    poles; it evaluates to 0 within that estimate, when the sum is complete
    or each ladder's last two terms fall (their log moduli show it; the
    geometric tail is charged too), and one with no term at all (every
    ladder cut to length 0) to an exact 0.
    When alternating cancellation makes double precision insufficient the
    same residues are summed again in mpmath, on ladders of up to
    _EXACT_BUDGET * n_max poles under a 1000x stricter stop rule, first at
    a precision sized to the double pass's condition number.  That number
    saturates near 1/eps, so the pass bounds its own rounding and sums
    again at the digits the bound calls for until it is under 1e-19 |value|
    (over 1000 times below the 5e-16 |value| the estimate adds), and at
    least twice the last pass's digits (up to _MAX_DPS) when the bound
    passes |value|; more than _MAX_DPS digits, or an exact zero, is
    refused.  For n terms of k gamma factors at P bits the bound is
    (n + k) 2^(3-P) times the sum of |terms|: with equal multipliers each
    term follows from the last on Python integers (_ratio_residues),
    rounded once per step, and the sum is exact; a Fox H term is a product
    of rounded gamma values, and each addition rounds once.
    """
    z = check_argument(z, tol)
    if side not in ("left", "right"):
        raise ParameterError("side must be 'left' or 'right'", side=side)
    if not isinstance(n_max, (int, np.integer)):
        raise ParameterError("n_max must be an integer", n_max=n_max)
    if n_max <= 0:
        raise NonConvergentSeriesError("no residue terms accumulated",
                                       n_max=n_max)
    ladders = _pole_ladders(kernel, side, n_max)
    if not ladders:
        raise NonConvergentSeriesError("no poles open on that side",
                                       side=side)
    # refused before summing: a denominator gamma can vanish on each shared
    # pole (Gamma(2 - s)^2 / Gamma(-1 - s)), making every term there zero
    loc = _first_meeting(itertools.combinations(ladders, 2))
    if loc is not None:
        raise HigherOrderPoleError("coincident poles on the chosen side",
                                   location=loc)
    dens = _pole_ladders(kernel, side, math.inf, den=True)
    cuts = [_live_length(lad, dens) for lad in ladders]
    shift = kernel.base_log + complex(np.log(z)) + 2j * np.pi * branch_k
    total, abs_sum, tail, nterms = _sum_residues(
        kernel, [replace(lad, length=min(cut, n_max))
                 for lad, cut in zip(ladders, cuts)], shift, tol, n_max)
    value = complex(total)
    cancel = abs_sum / max(abs(value), 1e-300)
    err = tail + _EPS * abs_sum * max(10.0, nterms) + nterms * _SUBNORMAL
    if err > tol * max(abs(value), 1e-300) and cancel > 1e3:
        dps = 22 + int(math.log10(cancel)) + 6
        budget = _EXACT_BUDGET * n_max
        ladders = [replace(lad, length=min(cut, budget))
                   for lad, cut in zip(ladders, cuts)]
        factors = len(kernel.terms)
        while True:
            _debug("residue series escalating to mpmath dps=%d", dps)
            with _MP_LOCK, _mpmath().workdps(dps):
                shift = mpmath.log(mpmath.mpmathify(z)) \
                    + 2j * mpmath.pi * branch_k \
                    + mpmath.log(mpmath.mpmathify(complex(kernel.base)))
                total, abs_sum, tail, nterms = _sum_residues(
                    kernel, ladders, shift, tol * 1e-3, budget, exact=True)
                value = complex(total)
            # 2^-P < 10^-dps: the digits keeping the bound under 1e-19 |value|
            digits = 19 + math.log10(8 * (nterms + factors) * abs_sum
                                     / abs(value)) if value else math.inf
            if digits <= dps:
                break
            if digits > _MAX_DPS:
                raise NonConvergentSeriesError(
                    "residues cancel past the re-summation's precision cap",
                    terms=nterms, max_dps=_MAX_DPS)
            if digits >= dps + 19:
                # the bound passes |value|: the value is rounding noise, and
                # the digits it calls for understate the next pass's need
                digits = min(max(digits, 2 * dps), _MAX_DPS)
            dps = math.ceil(digits)
        err = tail + 5e-16 * abs(value)
    return EvalResult(value=value, err_estimate=float(err), nodes_used=nterms,
                      contour=None, method=_RESIDUE_METHOD[side],
                      arg_branch=branch_k)



# --------------------------------------------------------------------------
# contour quadrature


def _gamma_rows(stacked, sigma, y):
    """The gamma factors' share of _log_mag_estimate, which does not
    depend on z: sign * asymptotic log|Gamma(coeff + slope (sigma + iy))|,
    one row per factor (``stacked``, _Plan.stacked), none without one."""
    if stacked is None:
        return ()
    coeff, slope, sign = stacked
    # asymptotic_log_abs_gamma needs |eta| >= 1: smaller ones count as 1
    eta = np.maximum(np.abs(coeff.imag + slope * y), 1.0)
    return sign * asymptotic_log_abs_gamma((coeff + slope * sigma).real, eta)


def _log_mag_estimate(kernel, sigma, y, logz, rows=None):
    """Asymptotic log|K(sigma + iy) z^s| at every height of the array ``y``,
    used for truncation bounds; ``rows`` is _gamma_rows at sigma and y,
    built here when None."""
    total = sigma * logz.real - y * (logz.imag + kernel.base_log.imag) \
        + sigma * kernel.base_log.real
    if rows is None:
        rows = _gamma_rows(_plan(kernel).stacked, sigma, y)
    for row in rows:  # factor by factor, in kernel.terms order
        total = total + row
    return total


_REF_HEIGHTS = np.array([1.5, -1.5, 3.0, -3.0, 6.0, -6.0, 12.0, -12.0])


class _Line:
    """What _truncation reads of the line Re s = sigma from the height
    t_min, z aside: the heights max(t_min, _T_MIN) * 1.1^k up to the first
    past _T_MAX, _gamma_rows at the reference heights and at +/- each
    height, kappa and omega; and a Contour per height that a fit reached,
    so the replies of many z on the line share a few contours (an anchor
    of -0.0 shares 0.0's line)."""

    def __init__(self, plan, sigma, t_min):
        self.key = (sigma, t_min)
        self.sigma = sigma
        self.kernel = plan.kernel
        self.kappa = plan.kappa
        self.omega = _algebraic_exponent(plan.kernel, sigma)
        heights = [max(t_min, _T_MIN)]
        while heights[-1] < _T_MAX:
            heights.append(heights[-1] * 1.1)
        self.heights = heights
        h = np.array(heights)
        self.y = np.concatenate((_REF_HEIGHTS, h, -h))
        self.rows = _gamma_rows(plan.stacked, sigma, self.y)
        self.contours = {}

    def fit(self, logz, tol):
        """_truncation's (T, tail) at log z and tol."""
        est = _log_mag_estimate(self.kernel, self.sigma, self.y, logz,
                                self.rows)
        heights = self.heights
        n = len(heights)
        ref, above, below = est[:8], est[8:8 + n], est[8 + n:]
        target = ref.max() + math.log(max(tol, 1e-16)) - 4.6
        fits = (above <= target) & (below <= target)
        if not fits.any():
            return heights[-1], math.inf
        k = int(fits.argmax())
        T = heights[k]

        arg_eff = logz.imag + self.kernel.base_log.imag
        omega = self.omega
        tail = 0.0
        for direction, log_mag in ((+1.0, above[k]), (-1.0, below[k])):
            rate = self.kappa + direction * arg_eff
            mag = math.exp(min(log_mag, 700.0))
            # the exponential bound for any positive rate, the algebraic
            # one where |K z^s| falls faster than 1/y and it is smaller;
            # inf if none
            bound = mag / rate if rate > 0.0 else math.inf
            if omega < -1.0:
                bound = min(bound, mag * T / (-omega - 1.0))
            tail += bound
        return T, tail / (2.0 * np.pi)

    def contour(self, T):
        """Contour(sigma, T), one object per height."""
        contour = self.contours.get(T)
        if contour is None:
            contour = self.contours[T] = Contour(self.sigma, T)
        return contour


def _truncation(kernel, sigma, logz, tol, t_min):
    """(T, tail): the truncation height and a bound on the integral beyond.

    T is the first of the heights max(t_min, _T_MIN) * 1.1^k, up to the
    first past _T_MAX, where the estimated |K z^s| at +T and -T is at most
    tol e^-4.6 times the largest at the reference heights +/-1.5, 3, 6, 12,
    all estimated in one pass; the tail bound reads its magnitudes at +/-T
    from the same pass.  With no fit, T is the last height and tail inf.
    Only the z-dependent half is computed per call (_Line.fit).
    """
    return _plan(kernel).line(sigma, t_min).fit(logz, tol)


def _crossed_sum(crossed, shift):
    """(sum, rounding) of the crossed poles' contributions (_crossed_poles,
    each term as in _log_residue), what the line misses of the value.
    A term is exp of a log-space sum (log gammas, s * shift, log l!,
    log mult), so it is charged eps |term| times the summands' magnitudes,
    plus one for the addition.  Each factor's argument w = c + m s is itself
    rounded, by up to eps (|c| + |m s|), which moves log Gamma(w) by that
    times |psi(w)| <= 1 / dist(w, pole) + log(2 + |w|): near a pole of its
    gamma this term outweighs the others."""
    total, rounding = 0j, 0.0
    for ladder, terms in crossed:
        for l in range(ladder.length):
            res = _log_residue(ladder, terms, l, shift)
            if res:
                s = ladder.location(l)
                size = 1.0 + abs(s * shift) + math.lgamma(l + 1) \
                    + abs(math.log(ladder.mult))
                for coeff, slope, _, _ in terms:
                    w = coeff + slope * s
                    size += abs(log_gamma_unchecked(w)) \
                        + (abs(coeff) + abs(slope * s)) * (
                            1.0 / detect_pole(w).distance
                            + math.log(2.0 + abs(w)))
                rounding += _EPS * abs(res) * size
            total += res
    if not (cmath.isfinite(total) and math.isfinite(rounding)):
        raise ContourError("crossed residues overflow")
    return total, rounding


def _conjugate_symmetric(kernel):
    """K(conj s) = conj K(s): real gamma coefficients and a real positive
    base (the multipliers are real already)."""
    return kernel.base.imag == 0.0 and kernel.base.real > 0.0 and all(
        coeff.imag == 0.0 for coeff, _, _, _ in kernel.terms)


def integrate(kernel, z, contour=None, tol=1e-10, branch_k=0):
    """(1 / 2 pi i) * integral of K(s) z^s over the contour.

    T is _truncation's first fit from ``contour.truncation`` (the caller's
    minimum) up, so it varies with z; the contour actually used is
    recorded in the result, and a line with no fit up to _T_MAX raises
    QuadratureError before any quadrature node.  z^s uses the principal
    branch of arg z shifted by 2 pi * branch_k.

    The value is the pole-separating contour's: the line's integral plus
    the crossed poles' contributions (_crossed_poles, _crossed_sum), their
    rounding in the estimate.  A conjugate-symmetric kernel
    (_conjugate_symmetric) is folded onto 0 <= y <= T, for any z and
    branch: with L = log K(sigma + iy), the integrand there is
    e^{L + s log z} + e^{conj L + conj(s) log z}, the nodes sigma +/- iy
    together, so each log-gamma point serves two nodes of the full line.
    ``nodes_used`` counts the quadrature nodes of the line integrated:
    on the folded line one node stands for that pair.

    The line is mapped by y = sinh u, on |u| <= asinh T (u >= 0 folded,
    the node u = 0 at half weight), where |K z^s| falls double-
    exponentially, and integrated by the nested trapezoidal rule
    (integrate_adaptive): one kernel_log_grid call per integrand call, the
    first for the first levels together, each later one for the levels
    down to the stop that the rule's convergence predicts (one level where
    it predicts nothing), on the nodes and with the result of one level
    per call.  A node's rounding bound is |K z^s| cosh u times its log
    sum's size: kernel_log_grid's, plus |s log z| + 1; a node whose
    |K z^s| lies below the normal range is charged _SUBNORMAL cosh u more,
    so a line that underflows to 0 returns 0 with a nonzero estimate, not
    a proven 0.
    """
    z = check_argument(z, tol)
    cls = convergence_class(kernel, z, branch_k)
    if cls is ConvergenceClass.DIVERGENT:
        raise ConvergenceError("contour integral diverges for this argument",
                               z=z)
    plan = _plan(kernel)
    chosen = contour is None
    if chosen:
        contour = choose_contour(kernel)
    logz = complex(np.log(z)) + 2j * np.pi * branch_k
    sigma = contour.anchor
    line = plan.line(sigma, contour.truncation)
    T, tail = line.fit(logz, tol)
    used = contour if T == contour.truncation else line.contour(T)
    # summed before the quadrature, so a line through a pole is refused
    # at once
    crossed = plan.crossed if chosen else _crossed_poles(kernel, sigma)
    if crossed:
        correction, rounding = _crossed_sum(crossed, kernel.base_log + logz)
    if tail == math.inf:
        raise QuadratureError("no truncation height bounds the tail", T=T)
    folded = plan.folded

    def integrand(u):
        s = sigma + 1j * np.sinh(u)
        logs, size = kernel_log_grid(kernel, s)
        out = np.exp(logs + s * logz)
        mag = np.abs(out)
        if folded:
            other = np.exp(logs.conj() + s.conj() * logz)
            out += other
            mag += np.abs(other)
        jacobian = np.cosh(u)
        # below the normal range |value| rounds by up to the subnormal
        # spacing, not relative to itself: such a node is charged
        # _SUBNORMAL, as a residue term is
        underflow = np.where(mag < _TINY, _SUBNORMAL / _EPS, 0.0)
        return out * jacobian, \
            mag * jacobian * (size + np.abs(s) * abs(logz) + 1.0) \
            + underflow * jacobian

    U = math.asinh(T)
    quad = integrate_adaptive(integrand, 0.0 if folded else -U, U,
                              tol_rel=0.25 * tol,
                              max_nodes=MAX_NODES // 2 if folded
                              else MAX_NODES)
    value = quad.value / (2.0 * np.pi)
    err = quad.error / (2.0 * np.pi) + tail
    if crossed:
        value = value + correction
        err = err + rounding
    if not err <= 25.0 * tol * max(abs(value), 1e-300):
        raise QuadratureError("the error estimate, rounding floor and tail "
                              "bound included, exceeds the requested "
                              "tolerance", nodes=quad.nodes, err=err)
    _debug("integrate: anchor=%.4g T=%.4g nodes=%d err=%.3g",
           sigma, T, quad.nodes, err)
    return EvalResult(value=complex(value), err_estimate=float(err),
                      nodes_used=quad.nodes, contour=used,
                      method="quadrature", arg_branch=branch_k)
