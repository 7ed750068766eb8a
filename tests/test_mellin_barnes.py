import cmath
import collections
import copy
import dataclasses
import itertools
import logging
import math
import pickle
import random
import time

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from mbint import cgamma, verification
from mbint import mellin_barnes as mb
from mbint.cgamma import POLE_TOLERANCE
from mbint.errors import (ContourError, ConvergenceError,
                          HigherOrderPoleError, MBIntError,
                          NonConvergentSeriesError, ParameterError,
                          PoleError, QuadratureError)
from mbint.special_functions import GParams, HParams, fox_h, meijer_g, pfq

E_INV = 0.36787944117144233          # e^{-1}
SQRT2_E2 = 0.19139299302082185       # sqrt(2) e^{-2}


def k_exp(b=0.0):
    """Kernel of the z^b e^{-z} closed form: a single Gamma(b - s)."""
    return mb.MellinKernel(up_left=((b, 1.0),))


def k_2f1():
    """Gamma(-s) Gamma(1+s)^2 / Gamma(2+s)."""
    return GParams(1, 2, 2, 2, (0.0, 0.0), (0.0, -1.0)).to_kernel()


def test_kernel_log_eval_empty_kernel_is_zero():
    kernel = mb.MellinKernel()
    for s in (0.3, -1.2 + 0.7j, 5.0):
        assert mb.kernel_log_eval(kernel, s) == 0.0


def test_kernel_log_grid_empty_kernel_is_s_base_log():
    s = 0.3 + 1j * np.linspace(-20.0, 20.0, 41)
    base = 2.5 - 1.0j
    got, size = mb.kernel_log_grid(mb.MellinKernel(base=base), s)
    assert np.array_equal(got, s * np.log(base))
    assert np.array_equal(size, np.abs(s * np.log(base)))
    for part in mb.kernel_log_grid(mb.MellinKernel(), s):
        assert not part.any()


def test_kernel_base_log_is_a_plain_value():
    kernel = mb.MellinKernel(up_left=((0.5, 1.0),), base=-2.0 + 0.5j)
    assert kernel.base_log == complex(np.log(complex(-2.0 + 0.5j)))
    same = mb.MellinKernel(up_left=((0.5, 1.0),), base=-2.0 + 0.5j)
    assert same == kernel and hash(same) == hash(kernel)
    assert "base_log" not in repr(kernel) and "base_log" not in kernel.to_json()
    copied = pickle.loads(pickle.dumps(kernel))
    assert copied == kernel and copied.base_log == kernel.base_log
    moved = dataclasses.replace(kernel, base=3.0)
    assert moved.base_log == complex(np.log(3.0))


def test_equal_params_give_bitwise_equal_kernel_grids():
    s = 0.2 + 1j * np.linspace(-40.0, 40.0, 301)
    one = GParams(2, 2, 2, 2, (0.3, -0.2), (0.1, 0.6)).to_kernel()
    two = GParams(2, 2, 2, 2, [0.3, -0.2], [0.1, 0.6]).to_kernel()
    assert one is not two and one == two
    for x, y in zip(mb.kernel_log_grid(one, s), mb.kernel_log_grid(two, s)):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_equal_kernels_share_stacked_terms():
    one = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    two = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    assert one is not two
    stacked = mb._plan(one).stacked
    assert mb._plan(two).stacked is stacked
    assert all(not col.flags.writeable and col.shape == (5, 1)
               for col in stacked)
    assert mb._plan(mb.MellinKernel(base=2.0)).stacked is None


def test_equal_kernels_share_one_plan(monkeypatch):
    # each construction builds its own kernel; equal kernels (a G and an H
    # with unit multipliers too) share the plan that the line kept, and a
    # construction reads its collision verdict
    one = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    first = mb.integrate(one, 0.4 + 0.3j)
    plan = mb._plan(one)
    assert plan.collision is None
    checked = []
    monkeypatch.setattr(mb, "find_pole_collision", checked.append)
    two = HParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2), (1.0, 1.0),
                  (1.0, 1.0, 1.0)).to_kernel()
    assert not checked
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != dataclasses.replace(one, base=2.0)
    assert mb._plan(two) is plan
    # every z on the chosen line reads one contour, line and crossing
    line = plan.line(first.contour.anchor, mb._T_MIN)
    second = mb.integrate(two, 0.6 - 0.1j)
    assert mb.choose_contour(two) is plan.contour
    assert plan.line(second.contour.anchor, mb._T_MIN) is line
    assert second.contour is line.contour(second.contour.truncation)
    assert plan.crossed == ()


def test_one_bounded_memo_holds_the_plans(monkeypatch):
    # the module's one cache of per-kernel work keeps PLAN_MEMO plans, the
    # oldest dropped first; the fields read at every construction and
    # residue sum come from a kept plan, or are built and kept nowhere, so
    # a residue sum of a new kernel keeps nothing
    assert not [name for name, value in vars(mb).items()
                if hasattr(value, "cache_info")]
    monkeypatch.setattr(mb, "_PLANS", collections.OrderedDict())
    kernels = [k_exp(0.01 * i) for i in range(mb.PLAN_MEMO + 20)]
    plans = [mb._plan(kernel) for kernel in kernels]
    assert len(mb._PLANS) == mb.PLAN_MEMO
    assert mb._plan(kernels[-1]) is plans[-1]
    assert mb._plan(kernels[0]) is not plans[0]  # dropped; now drops 20
    assert len(mb._PLANS) == mb.PLAN_MEMO and kernels[20] not in mb._PLANS
    assert mb._kept_field(kernels[-1], "opening", mb._opening) \
        is plans[-1].opening
    assert mb._kept_field(kernels[20], "opening", mb._opening) == {True}
    assert kernels[20] not in mb._PLANS
    params = GParams(1, 0, 0, 2, (), (0.3, 0.85))
    meijer_g(params, 0.5, method="residues")
    assert params.to_kernel() not in mb._PLANS


def test_kernel_log_eval_single_factor_at_unit_argument():
    kernel = k_exp(b=1.7)
    assert abs(mb.kernel_log_eval(kernel, 0.7)) < 1e-13  # Gamma(1) = 1


def test_kernel_log_eval_matches_naive_gamma_product():
    kernel = k_2f1()
    for s in (-0.5 + 0.7j, -0.3 - 1.2j, -0.5):
        naive = sp.gamma(-s) * sp.gamma(1 + s) ** 2 / sp.gamma(2 + s)
        got = mb.kernel_eval(kernel, s)
        assert abs(got - naive) < 1e-12 * abs(naive)


def test_kernel_log_eval_numerator_pole_raises():
    with pytest.raises(PoleError):
        mb.kernel_log_eval(k_exp(0.0), 3.0)


def test_kernel_log_eval_denominator_pole_is_zero():
    kernel = mb.MellinKernel(up_left=((0.5, 1.0),), down_left=((0.0, 1.0),))
    # down_left factor Gamma(1 - 0 + s) has poles at s = -1, -2, ...
    assert mb.kernel_eval(kernel, -2.0) == 0.0


def test_kernel_simplify_cancels_matching_pairs():
    kernel = mb.MellinKernel(up_right=((1.3, 1.0), (0.2, 1.0)),
                             down_left=((1.3, 1.0),))
    out = kernel.simplify()
    assert len(out.up_right) == 1 and out.up_right[0].coeff == 0.2
    assert not out.down_left


def test_pole_families_single_ladders():
    left, right = mb.pole_families(k_exp(0.0), 4)
    assert [p.location for p in right] == [0.0, 1.0, 2.0, 3.0]
    assert not left

    kernel = mb.MellinKernel(up_right=((0.0, 1.0),))  # Gamma(1 + s)
    left, right = mb.pole_families(kernel, 3)
    assert [p.location for p in left] == [-1.0, -2.0, -3.0]
    assert not right


def test_pole_families_collision_order():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (1.0, 1.0)))
    _, right = mb.pole_families(kernel, 3)
    orders = {p.location: p.order for p in right}
    assert orders[1.0] == 2 and orders[0.0] == 1


def test_pole_families_scaled_multiplier():
    kernel = mb.MellinKernel(up_left=((0.0, 2.0),))
    _, right = mb.pole_families(kernel, 4)
    assert np.allclose([p.location for p in right], [0.0, 0.5, 1.0, 1.5])


def test_choose_contour_half_infinite_window():
    contour = mb.choose_contour(k_exp(0.0))
    assert contour == mb.Contour(-0.5, mb._T_MIN)
    assert mb._crossed_poles(k_exp(0.0), contour.anchor) == ()


def test_choose_contour_bounded_window_midpoint():
    contour = mb.choose_contour(k_2f1())
    assert contour.anchor == pytest.approx(-0.5)
    assert mb._crossed_poles(k_2f1(), contour.anchor) == ()


def test_choose_contour_empty_window_indents():
    # the line runs right of the left-opening pole 0.5 and crosses the
    # right-opening pole 0, whose residue integrate subtracts
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),),
                             up_right=((1.5, 1.0),))
    contour = mb.choose_contour(kernel)
    assert contour == mb.Contour(0.75, mb._T_MIN)
    (ladder, _), = mb._crossed_poles(kernel, contour.anchor)
    assert (ladder.step, ladder.origin, ladder.length) == (1, 0.0, 1)


def test_choose_contour_collision_raises():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.0, 1.0),))
    with pytest.raises(ContourError):
        mb.choose_contour(kernel)


def _eager_ladders(factors, rightward, n=40):
    """The first n poles of each numerator gamma, as plain lists."""
    if rightward:
        return [[(f.coeff + l) / f.mult for l in range(n)] for f in factors]
    return [[(f.coeff - 1.0 - l) / f.mult for l in range(n)] for f in factors]


def _eager_collision(kernel):
    """First right-opening pole (by factor, then pole) on a left-opening
    ladder, taking the left-opening factors in order."""
    lefts = _eager_ladders(kernel.up_right, False)
    for right in _eager_ladders(kernel.up_left, True):
        for left in lefts:
            for s in right:
                if min(abs(s - t) for t in left) <= POLE_TOLERANCE:
                    return s
    return None


def _eager_contour(kernel):
    """choose_contour's rule on eager pole lists: the contour, or the
    reason for a refusal."""
    if _eager_collision(kernel) is not None:
        return "collision"
    lefts = _eager_ladders(kernel.up_right, False)
    rights = _eager_ladders(kernel.up_left, True)
    lo = max((left[0].real for left in lefts), default=-math.inf)
    hi = min((right[0].real for right in rights), default=math.inf)
    trunc = mb._T_MIN
    if lo == -math.inf and hi == math.inf:
        return mb.Contour(0.0, trunc)
    if lo + 1e-9 < hi:
        anchor = hi - 0.5 if lo == -math.inf else \
            lo + 0.5 if hi == math.inf else 0.5 * (lo + hi)
        return mb.Contour(anchor, trunc)
    poles = [s for right in rights for s in right if s.real < lo + 1.0]
    bounds = [lo] + sorted({s.real for s in poles if s.real > lo}) \
        + [lo + 1.0]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    i = widths.index(max(widths))
    return mb.Contour(0.5 * (bounds[i] + bounds[i + 1]), trunc)


def _eager_crossed(kernel, anchor):
    """The poles the line at ``anchor`` crosses, by family, on eager pole
    lists, or "order > 1" when two crossed poles of a family meet."""
    out = []
    for ladders, side in ((_eager_ladders(kernel.up_left, True), 1),
                          (_eager_ladders(kernel.up_right, False), -1)):
        crossed = [s for ladder in ladders for s in ladder
                   if side * (s.real - anchor) < 0]
        if any(abs(a - b) <= POLE_TOLERANCE
               for i, a in enumerate(crossed) for b in crossed[i + 1:]):
            return "order > 1"
        out.append(sorted(crossed, key=lambda s: (s.real, s.imag)))
    return out


def _crossed_locations(kernel, anchor):
    """_crossed_poles' poles by family, in _eager_crossed's order."""
    out = [[], []]
    for ladder, _ in mb._crossed_poles(kernel, anchor):
        out[ladder.step < 0] += [ladder.location(l)
                                 for l in range(ladder.length)]
    return [sorted(locs, key=lambda s: (s.real, s.imag)) for locs in out]


def _random_params(rng):
    """(m, n, p, q, a, b, alpha, beta) on a quarter-integer lattice, so that
    collisions, empty windows and shared poles occur."""
    m, n = rng.randint(0, 3), rng.randint(0, 3)
    q, p = m + rng.randint(0, 1), n + rng.randint(0, 1)

    def param():
        im = 0.0 if rng.random() < 0.85 else rng.choice((0.5, -0.25))
        return complex(rng.randint(-12, 12) / 4, im)

    unit = rng.random() < 0.5
    mults = (1.0,) if unit else (0.5, 1.0, 1.5, 2.0, 3.0)
    return (m, n, p, q, tuple(param() for _ in range(p)),
            tuple(param() for _ in range(q)),
            tuple(rng.choice(mults) for _ in range(p)),
            tuple(rng.choice(mults) for _ in range(q)))


def _kernel(m, n, a, b, alpha, beta):
    return mb.MellinKernel(up_left=tuple(zip(b[:m], beta[:m])),
                           up_right=tuple(zip(a[:n], alpha[:n])),
                           down_left=tuple(zip(b[m:], beta[m:])),
                           down_right=tuple(zip(a[n:], alpha[n:])))


def test_contour_decisions_match_eager_reference():
    rng = random.Random(5)
    bank = [_random_params(rng) for _ in range(300)]
    # an order-2 pole s = 1 left of the anchor 1.75, crossed by the line
    bank.append((2, 1, 1, 2, (2.5,), (0.0, 1.0), (1.0,), (1.0, 1.0)))
    outcomes = collections.Counter()
    for m, n, p, q, a, b, alpha, beta in bank:
        for kernel, make in (
                (_kernel(m, n, a, b, alpha, beta),
                 lambda: HParams(m, n, p, q, a, b, alpha, beta)),
                (_kernel(m, n, a, b, (1.0,) * p, (1.0,) * q),
                 lambda: GParams(m, n, p, q, a, b))):
            lefts = _eager_ladders(kernel.up_right, False)
            rights = _eager_ladders(kernel.up_left, True)
            assert mb.contour_window(kernel) == (
                max((left[0].real for left in lefts), default=-math.inf),
                min((right[0].real for right in rights), default=math.inf))
            assert mb.find_pole_collision(kernel) == _eager_collision(kernel)
            expected = _eager_contour(kernel)
            try:
                got = mb.choose_contour(kernel)
            except ContourError:
                got = "collision"
            assert got == expected, kernel
            try:
                make()
                refused = False
            except ParameterError:
                refused = True
            assert refused == (expected == "collision"), kernel
            if expected == "collision":
                outcomes["collision"] += 1
                continue
            crossed = _eager_crossed(kernel, got.anchor)
            try:
                assert _crossed_locations(kernel, got.anchor) == crossed
            except ContourError as exc:
                assert "order > 1" in str(exc) and crossed == "order > 1"
            outcomes["order > 1" if crossed == "order > 1" else
                     "crossed" if crossed != [[], []] else "separated"] += 1
    assert len(outcomes) == 4, outcomes


def test_crossed_poles_at_any_anchor_match_the_eager_reference():
    # the plan keeps the chosen anchor's crossed poles; any other anchor
    # (an explicit contour) is read afresh, and both agree with the eager
    # pole lists
    rng = random.Random(7)
    outcomes = collections.Counter()
    for _ in range(150):
        m, n, p, q, a, b, alpha, beta = _random_params(rng)
        kernel = _kernel(m, n, a, b, alpha, beta)
        if mb.find_pole_collision(kernel) is not None:
            continue
        chosen = mb.choose_contour(kernel).anchor
        for anchor in (chosen, chosen - 1.37, chosen + 0.61, chosen + 2.13):
            expected = _eager_crossed(kernel, anchor)
            try:
                got = _crossed_locations(kernel, anchor)
            except ContourError as exc:
                assert "order > 1" in str(exc) and expected == "order > 1"
                outcomes["order > 1"] += 1
                continue
            assert got == expected, (kernel, anchor)
            if anchor == chosen:
                assert mb._plan(kernel).crossed \
                    == mb._crossed_poles(kernel, anchor)
            outcomes["crossed" if got != [[], []] else "separated"] += 1
    assert len(outcomes) == 3, outcomes


def test_integrate_anchor_on_a_pole_raises_before_quadrature(monkeypatch):
    # right-opening poles 0, 1, ... and 0.3 + 0.5i, 1.3 + 0.5i, ...;
    # left-opening 0.5, -0.5, ...: a line through any of them is refused,
    # on either side of the separation window and inside the tolerance
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (0.3 + 0.5j, 1.0)),
                             up_right=((1.5, 1.0),))

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a line through a pole")

    monkeypatch.setattr(mb, "integrate_adaptive", no_quadrature)
    for anchor in (0.0, 1.0, 2.0, 0.3, 1.3, 0.5, -0.5, -2.5,
                   1.0 + 0.5 * POLE_TOLERANCE, 0.5 - 0.5 * POLE_TOLERANCE):
        with pytest.raises(ContourError, match="on the integration line"):
            mb.integrate(kernel, 0.5, contour=mb.Contour(anchor, 30.0))
    # the pole 0 in both families: no contour separates them, and a line
    # that crosses it (the old model returned a different value per line)
    # is refused as the residue there meets the other family's pole
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.0, 1.0),))
    for anchor in (0.5, -0.5, 2.5):
        with pytest.raises(PoleError):
            mb.integrate(kernel, 0.5, contour=mb.Contour(anchor, 30.0))


def test_line_past_the_double_range_or_the_budget_is_refused(monkeypatch):
    # z^s / l! at s = 100 and z = 1e5 is about 1e342, and a line at 1e9
    # would cross 1e9 poles of Gamma(-s): both are refused before any node
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a refused line")

    monkeypatch.setattr(mb, "integrate_adaptive", no_quadrature)
    with pytest.raises(ContourError, match="overflow"):
        mb.integrate(k_exp(0.0), 1e5, contour=mb.Contour(100.5, 8.0))
    with pytest.raises(ContourError, match="node budget"):
        mb.integrate(k_exp(0.0), 0.5, contour=mb.Contour(1e9, 8.0))


def test_integrate_detour_around_left_opening_pole():
    # G^{1,1}_{1,1}(z | 0; 0) = 1 / (1 + z): the line at -1.5 leaves the
    # pole -1 of Gamma(1 + s) on its right, and integrate adds its residue
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((0.0, 1.0),))
    contour = mb.Contour(-1.5, 30.0)
    (ladder, _), = mb._crossed_poles(kernel, -1.5)
    assert (ladder.step, ladder.location(0), ladder.length) == (-1, -1.0, 1)
    for z in (0.5, 0.3 + 0.4j):
        res = mb.integrate(kernel, z, contour=contour, tol=1e-11)
        assert abs(res.value - 1.0 / (1.0 + z)) < 1e-12


def test_any_anchor_gives_the_separated_contour_value():
    # Gamma(-s) Gamma(s - 0.5) is the kernel of G^{1,1}_{1,1}(z | 1.5; 0) =
    # Gamma(-0.5) (1 + z)^0.5 for |z| < 1: lines from -2.25 to 4.5 cross 0
    # to 5 poles of either family (a contour with the pole 0 routed the
    # wrong way used to give 3.048, estimate 1.2e-12, and a plain line at
    # 0.75 -0.497); 1 / (1 + z) likewise on lines from -3.5 to 2.5
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.5, 1.0),))
    exact = sp.gamma(-0.5) * 1.3 ** 0.5
    for anchor in (-2.25, -1.25, -0.25, 0.25, 0.75, 1.75, 2.5, 3.5, 4.5):
        res = mb.integrate(kernel, 0.3, contour=mb.Contour(anchor, 8.0))
        assert abs(res.value - exact) <= res.err_estimate, anchor
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((0.0, 1.0),))
    z = 0.3 + 0.4j
    for anchor in (-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5):
        res = mb.integrate(kernel, z, contour=mb.Contour(anchor, 8.0))
        assert abs(res.value - 1.0 / (1.0 + z)) <= res.err_estimate, anchor


@pytest.mark.parametrize("params, anchors", [
    # right-opening poles 0.1, 0.3, 1.1, ...; left-opening -0.6, -1.6, ...
    (GParams(2, 1, 1, 2, (0.4,), (0.3, 0.1)), (0.2, 0.5, -1.0, -2.0)),
    # right-opening poles 0.15, 0.65, ...; left-opening -0.4, -1.07, ...
    (HParams(1, 1, 1, 2, (0.4,), (0.3, 0.1), (1.5,), (2.0, 1.0)),
     (0.4, 0.9, -0.7, -1.4)),
])
def test_value_is_independent_of_the_poles_the_line_crosses(params, anchors):
    # the lines cross 1 and 2 right-opening poles, then 1 and 2
    # left-opening ones
    kernel = params.to_kernel()
    lo, hi = mb.contour_window(kernel)
    assert lo < mb.choose_contour(kernel).anchor < hi
    for z in (0.5, 0.3 + 0.4j):
        base = mb.integrate(kernel, z)
        for anchor, count in zip(anchors, (1, 2, 1, 2)):
            crossed = mb._crossed_poles(kernel, anchor)
            assert sum(ladder.length for ladder, _ in crossed) == count
            assert {ladder.step for ladder, _ in crossed} \
                == {-1 if anchor < lo else 1}
            moved = mb.integrate(kernel, z, contour=mb.Contour(anchor, 8.0))
            assert abs(moved.value - base.value) \
                <= moved.err_estimate + base.err_estimate, (z, anchor)


@pytest.mark.parametrize("a", [10.5, 30.5, 50.5])
@pytest.mark.parametrize("z", [0.5, 0.3 + 0.4j])
def test_crossed_residue_rounding_joins_the_estimate(a, z):
    # G^{1,1}_{1,1}(z | a; b) = Gamma(1 - a + b) z^b (1 + z)^(a - b - 1): the
    # line crosses about a right-opening poles and the value is their sum;
    # each term's rounding grows with the size of its log-space summands
    # (log Gamma(1 - a + b + l) is near -145 at a = 50.5), which the
    # estimate used to leave out (error 1.5e-68 against 1.7e-72 there).
    # The oracle takes the double parameters exactly: 1.3 - a formed in
    # double moves the value by 2e-14 relative at a = 50.5
    params = GParams(1, 1, 1, 1, (a,), (0.3,))
    with mpmath.workdps(40):
        a_, b_, z_ = mpmath.mpf(a), mpmath.mpf(0.3), mpmath.mpc(z)
        exact = complex(mpmath.gamma(1 - a_ + b_) * z_ ** b_
                        * (1 + z_) ** (a_ - b_ - 1))
    res = meijer_g(params, z, method="quad")
    assert mb._crossed_poles(params.to_kernel(), res.contour.anchor)
    assert abs(res.value - exact) <= res.err_estimate
    assert res.err_estimate <= 1e-10 * abs(exact)


@pytest.mark.parametrize("gap", [5e-4, 1e-4])
@pytest.mark.parametrize("b, z", [(-0.3, cmath.rect(0.4, 2.5)),
                                  (0.7, cmath.rect(1.7, -1.4)),
                                  (1.6, cmath.rect(0.4, 0.3))])
def test_crossed_residue_near_a_pole_charges_its_argument(gap, b, z):
    # a = b + 1 + gap empties the window: the line crosses the pole b of
    # Gamma(b - s), where Gamma(1 - a + s) = Gamma(-gap) sits a gap from its
    # own pole, and the rounding of that argument, magnified by |psi|
    # about 1 / gap, is charged to the estimate; without that charge the
    # estimate missed every such input, by up to 25x
    a = b + 1.0 + gap
    with mpmath.workdps(30):
        a_, b_, z_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(z)
        exact = complex(mpmath.gamma(1 - a_ + b_) * z_ ** b_
                        * (1 + z_) ** (a_ - b_ - 1))
    params = GParams(1, 1, 1, 1, (a,), (b,))
    res = meijer_g(params, z, method="quad")
    assert mb._crossed_poles(params.to_kernel(), res.contour.anchor)
    assert abs(res.value - exact) <= res.err_estimate


def test_integrate_exponential_closed_form():
    res = mb.integrate(k_exp(0.0), 1.0, tol=1e-11)
    assert abs(res.value - E_INV) < 1e-10 * E_INV
    res = mb.integrate(k_exp(0.5), 2.0, tol=1e-11)
    assert abs(res.value - SQRT2_E2) < 1e-10 * SQRT2_E2


def test_integrate_indented_contour_equals_residue_route():
    # no line separates the poles of Gamma(-s) Gamma(s - 0.5), so the chosen
    # one crosses the pole 0; closed form Gamma(-0.5) (1+z)^{1/2} for |z| < 1
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.5, 1.0),))
    z = 0.3
    exact = sp.gamma(-0.5) * (1 + z) ** 0.5
    quad = mb.integrate(kernel, z, tol=1e-10)
    assert mb._crossed_poles(kernel, quad.contour.anchor)
    assert abs(quad.value - exact) < 1e-9 * abs(exact)
    res = mb.residue_series(kernel, z, "right", n_max=300, tol=1e-12)
    assert abs(res.value - exact) < 1e-10 * abs(exact)


def test_integrate_rejects_flat_kernel():
    with pytest.raises(ConvergenceError):
        mb.integrate(mb.MellinKernel(), 0.5, tol=1e-8)


def test_integrate_rejects_zero_argument():
    # a bad argument is the domain kind, as meijer_g says
    with pytest.raises(ParameterError):
        mb.integrate(k_exp(0.0), 0.0)


def test_residue_series_exponential():
    res = mb.residue_series(k_exp(0.0), 1.0, "right", tol=1e-13)
    assert abs(res.value - E_INV) < 1e-12
    assert res.method == "residues_right"
    res = mb.residue_series(k_exp(0.5), 2.0, "right", tol=1e-13)
    assert abs(res.value - SQRT2_E2) < 1e-12


def test_residue_series_high_cancellation_recovers():
    res = mb.residue_series(k_exp(0.0), 10.0, "right", n_max=400, tol=1e-12)
    exact = math.exp(-10.0)
    assert abs(res.value - exact) < 1e-11 * exact


def test_residue_series_reproduces_series_expansion():
    # closing right over the Gamma(-s) ladder rebuilds the power series
    kernel = k_2f1()
    z = 0.4
    res = mb.residue_series(kernel, z, "right", n_max=300, tol=1e-13)
    oracle = sp.gamma(1.0) ** 2 / sp.gamma(2.0) * pfq((1.0, 1.0), (2.0,), -z)
    assert abs(res.value - oracle) < 1e-11 * abs(oracle)


def test_residue_series_zero_budget():
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(k_exp(0.0), 1.0, "right", n_max=0)
    # a budget that is not an integer is a typed refusal, not range()'s
    # TypeError
    for n_max in (10.5, math.inf, math.nan, "10", 10.0):
        with pytest.raises(ParameterError):
            mb.residue_series(k_exp(0.0), 1.0, "right", n_max=n_max)


def test_residue_series_no_poles_on_side():
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(k_exp(0.0), 1.0, "left")


def test_residue_series_higher_order_pole_rejected():
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.5, "right")


def test_residue_series_cross_family_collision_rejected():
    # the families share s = 0, so the residue there is not simple
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.0, 1.0),))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.5, "right")


def test_residue_series_structural_zero_prefix_is_not_convergence():
    # 1/Gamma(l - 2) vanishes for l = 0, 1, 2; those terms must not stop
    # the sum before its first nonzero term
    res = meijer_g(GParams(1, 0, 0, 2, (), (0.0, 3.0)), 0.5,
                   method="residues")
    mpmath_value = -0.018355821889397755  # mpmath.meijerg, 30 digits
    assert res.nodes_used > 3
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_vanishing_ladder_is_exact_zero():
    # 1/Gamma(-1 - s) has a pole at every pole s = 1 + l of Gamma(1 - s)
    res = meijer_g(GParams(1, 0, 1, 3, (-1.0,), (1.0, 0.755, 0.5)),
                   0.0643 + 0.0446j, method="residues")
    assert res.value == 0.0 and res.err_estimate == 0.0


def test_residue_series_skips_vanishing_ladder_beside_live_one():
    # 1/Gamma(-s) vanishes at every pole s = 2 + l of Gamma(2 - s); its zero
    # terms, interleaved with the live s = 0.5 + l ladder, must not stop the
    # sum or stand as its last term
    z = -0.6 + 0.3j
    res = meijer_g(GParams(2, 0, 1, 2, (0.0,), (2.0, 0.5)), z,
                   method="residues")
    mpmath_value = 1.318144319020035 + 0.29799548457459324j  # 30 digits
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_underflowing_terms_are_exact_zero():
    # every term lies below the double range: z^(2 + l) / l! of
    # z^2 e^-z at z = 1e-200, and G^{1,1}_{1,1}(0.5 | 200.5; 0.3), about
    # 1e-340.  The value is an exact 0, but its estimate is not: each term
    # is charged its rounding on the subnormal grid, which covers the true
    # value (at 40 digits)
    with mpmath.workdps(40):
        x, a, b = mpmath.mpf(1e-200), mpmath.mpf(200.5), mpmath.mpf(0.3)
        cases = ((GParams(1, 0, 0, 1, (), (2.0,)), 1e-200,
                  x ** 2 * mpmath.exp(-x)),
                 (GParams(1, 1, 1, 1, (200.5,), (0.3,)), 0.5,
                  mpmath.gamma(1 - a + b) * 0.5 ** b * 1.5 ** (a - b - 1)))
        for params, z, exact in cases:
            res = meijer_g(params, z, method="residues")
            assert res.value == 0.0 and res.err_estimate > 0.0
            assert exact != 0 and abs(exact) <= res.err_estimate
    # z^b e^-z at z = -2000, b = -263.3, is about 0.27, but its first 400
    # right residues 2000^(b + l) / l! all underflow while they rise: a sum
    # stopped at the budget there says nothing, and is refused
    kernel = GParams(1, 0, 0, 1, (), (-263.3,)).to_kernel()
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(kernel, -2000.0, "right", n_max=400)


def _sorted_pole_sources(kernel, side, n):
    """Reference order: every pole of every ladder, sorted by (Re, Im,
    factor index) moving rightward, (-Re, Im, factor index) leftward."""
    family = "up_left" if side == "right" else "up_right"
    items = []
    for idx, f in enumerate(getattr(kernel, family)):
        for l in range(n):
            if side == "right":
                loc = (f.coeff + l) / f.mult
                key = (loc.real, loc.imag, idx)
            else:
                loc = (f.coeff - 1.0 - l) / f.mult
                key = (-loc.real, loc.imag, idx)
            items.append((key, (loc, family, idx, l)))
    items.sort(key=lambda it: it[0])
    return [src for _, src in items]


def _merged_pole_sources(kernel, side, n):
    ladders = mb._pole_ladders(kernel, side, n)
    return [(loc, ladders[idx].family, idx, l)
            for _, _, idx, l, loc in mb._merged_poles(ladders)]


def test_lazy_ladder_merge_matches_sorted_reference():
    interleaved_g = GParams(3, 2, 2, 3, (0.3, -0.2 + 0.1j),
                            (0.1, 0.6 + 0.2j, 0.1 - 0.3j)).to_kernel()
    unequal_h = HParams(2, 2, 2, 2, (0.4, 0.9), (0.2, 0.7),
                        (1.5, 0.5), (2.0, 0.75)).to_kernel()
    for kernel in (interleaved_g, unequal_h):
        for side in ("left", "right"):
            got = _merged_pole_sources(kernel, side, 60)
            assert got == _sorted_pole_sources(kernel, side, 60)
            assert len({src[2] for src in got[:12]}) > 1  # interleaved


def _sorted_check_refuses(kernel, side, n):
    """The eager rule: two neighbours of the sorted poles coincide."""
    locs = [src[0] for src in _sorted_pole_sources(kernel, side, n)]
    return any(abs(b - a) <= POLE_TOLERANCE for a, b in zip(locs, locs[1:]))


def test_residue_series_refuses_what_the_sorted_check_refuses():
    rng = random.Random(4)
    coeffs = (0.0, 0.5, 1.0, 1.5, -1.0, 2.0, 0.25, 0.3 + 0.5j)
    mults = (1.0, 2.0, 0.5, 1.5)
    refusals = 0
    for _ in range(300):
        side = rng.choice(("left", "right"))
        factors = tuple((rng.choice(coeffs), rng.choice(mults))
                        for _ in range(rng.randint(2, 3)))
        kernel = mb.MellinKernel(up_left=factors) if side == "right" \
            else mb.MellinKernel(up_right=factors)
        try:
            mb.residue_series(kernel, 0.3 if side == "right" else 3.0, side,
                              n_max=40)
            refused = False
        except HigherOrderPoleError:
            refused = True
        except NonConvergentSeriesError:
            refused = False
        assert refused == _sorted_check_refuses(kernel, side, 40), factors
        refusals += refused
    assert 30 < refusals < 270


def test_residue_series_unequal_steps_collide_past_first_pole():
    # poles l of Gamma(-s) and (1 + l')/2 of Gamma(1 - 2s) meet at s = 1,
    # the second pole of each ladder
    kernel = mb.MellinKernel(up_left=((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.3, "right")
    a, b = mb._pole_ladders(kernel, "right", 2)
    assert a.meets(b) == (1, 1) and a.location(1) == b.location(1) == 1.0
    a, b = mb._pole_ladders(kernel, "right", 1)
    assert a.meets(b) is None


def test_residue_series_draws_at_most_terms_plus_ladders(monkeypatch):
    drawn = []
    ladder_poles = mb._ladder_poles

    def counting(ladder, idx):
        for item in ladder_poles(ladder, idx):
            drawn.append(item)
            yield item

    monkeypatch.setattr(mb, "_ladder_poles", counting)
    kernel = GParams(3, 0, 0, 3, (), (0.1, 0.4, 0.7)).to_kernel()
    res = mb.residue_series(kernel, 0.5, "right", n_max=800, tol=1e-12)
    assert res.nodes_used < 100
    assert len(drawn) <= res.nodes_used + 3


def test_residue_series_mp_resum_on_exact_poles():
    # z^b e^{-z} at |z| = 18.6: the sum cancels by 1e8 and is redone in
    # mpmath on the exact poles s = b + l; rounding them to double first
    # moved the value by 5e-9 against an error estimate of 3e-23
    res = meijer_g(GParams(1, 0, 0, 1, (), (-0.6,)), 18.6 - 0.29j,
                   method="residues")
    mpmath_value = 1.38237618500081669e-09 + 4.26640915640844945e-10j
    assert abs(res.value - mpmath_value) <= res.err_estimate


@pytest.mark.parametrize("z", [40.0, 50.0, 60.0])
def test_residue_series_resums_at_the_precision_its_rounding_needs(z):
    # z^0.3 e^{-z}: the sum cancels by about e^{2z}, past the 1e16 the
    # double pass can measure, so the first exact pass (42-43 digits) is too
    # coarse; its own rounding bound sends it to more digits
    res = meijer_g(GParams(1, 0, 0, 1, (), (0.3,)), z, method="residues")
    with mpmath.workdps(60):
        exact = complex(mpmath.mpf(z) ** mpmath.mpf(0.3) * mpmath.exp(-z))
    assert abs(res.value - exact) <= res.err_estimate


def test_line_underflowing_to_zero_is_not_a_proven_zero():
    # G^{1,1}_{1,1}(0.5 | a; 0.3) = Gamma(1 - a + 0.3) 0.5^0.3 1.5^(a - 1.3),
    # about 1e-8600 at a = 3000.5: every node of the line underflows to 0,
    # and each is charged the subnormal spacing, so the 0 carries an
    # estimate (it carried 0.0)
    for a in (3000.5, 1e4 + 0.5):
        res = meijer_g(GParams(1, 1, 1, 1, (a,), (0.3,)), 0.5)
        assert res.method == "quadrature"
        assert res.value == 0
        assert 0.0 < res.err_estimate < 1e-320
        with mpmath.workdps(30):
            exact = mpmath.gamma(1.3 - a) * mpmath.mpf(0.5) ** 0.3 \
                * mpmath.mpf(1.5) ** (a - 1.3)
        assert abs(exact) <= res.err_estimate


def test_equal_lines_share_one_contour():
    # two z on one line whose truncation heights agree get the same
    # Contour object, not two equal ones
    kernel = GParams(1, 1, 1, 2, (0.3,), (0.1, 0.6)).to_kernel()
    one = mb.integrate(kernel, 0.7 + 0.2j)
    two = mb.integrate(kernel, 0.7 - 0.2j)
    assert one.contour.truncation > mb.choose_contour(kernel).truncation
    assert one.contour is two.contour
    assert one.contour == mb.Contour(-0.3, one.contour.truncation)
    other = mb.integrate(kernel, 0.6 + 0.3j)
    assert other.contour.truncation != one.contour.truncation


def test_residue_series_grows_noisy_resummations_geometrically(caplog):
    # z^0.3 e^{-z} at z = 120 cancels by about 1e104; a pass whose value
    # is rounding noise calls for about 25 more digits than it had, so
    # stepping by that took 5 passes (42, 68, 93, 118, 127 digits)
    with caplog.at_level(logging.DEBUG, logger=mb.__name__):
        res = meijer_g(GParams(1, 0, 0, 1, (), (0.3,)), 120.0,
                       method="residues")
    passes = [r for r in caplog.records if "escalating" in r.getMessage()]
    assert 1 <= len(passes) <= 3
    with mpmath.workdps(80):
        exact = complex(mpmath.mpf(120) ** mpmath.mpf(0.3) * mpmath.exp(-120))
    assert abs(res.value - exact) <= res.err_estimate


def test_residue_series_refuses_past_its_precision_cap(monkeypatch):
    monkeypatch.setattr(mb, "_MAX_DPS", 50)
    with pytest.raises(NonConvergentSeriesError):
        meijer_g(GParams(1, 0, 0, 1, (), (0.3,)), 60.0, method="residues")


def test_residue_series_refuses_an_exact_zero_resummation(monkeypatch):
    # an exact pass that cancels to 0 has no relative precision to meet
    sum_residues = mb._sum_residues

    def zero_exact_sum(*args, exact=False):
        out = sum_residues(*args, exact=exact)
        return (0,) + out[1:] if exact else out
    monkeypatch.setattr(mb, "_sum_residues", zero_exact_sum)
    with pytest.raises(NonConvergentSeriesError):
        meijer_g(GParams(1, 0, 0, 1, (), (0.3,)), 40.0, method="residues")


def test_residue_terms_past_the_double_range_are_a_typed_refusal():
    # finite parts whose modulus passes the double range: abs() of such a
    # complex raises an untyped OverflowError
    params = HParams(1, 0, 1, 2, (-0.977,), (1.566, -0.263), (1.5,),
                     (0.5, 1.5))
    with pytest.raises(NonConvergentSeriesError):
        fox_h(params, 40.18524666408316 + 6.437558272105314j,
              method="residues")


@pytest.mark.parametrize("z", [0.3, 2.0])
def test_meijer_g_coincident_poles_under_a_vanishing_denominator(z):
    # Gamma(2 - s)^2 / Gamma(-1 - s): every pole s = 2 + l is double, and
    # the denominator vanishes on it, so every simple-pole term is zero
    # though the true value is not (mpmath.meijerg: -0.0922 at 0.3, 1.0827
    # at 2.0); only the coincidence refusal stands between this and 0
    params = GParams(2, 0, 1, 2, (-1.0,), (2.0, 2.0))
    with pytest.raises(HigherOrderPoleError):
        meijer_g(params, z, method="residues")


def test_residue_series_cut_ladder_against_mpmath():
    # 1/Gamma(-s) vanishes at every pole s = -1 + l, l >= 1, of
    # Gamma(-1 - s): that ladder ends after one term, and its zeros no
    # longer stop the sum; the mpmath re-summation used to raise an untyped
    # ValueError at those poles
    res = meijer_g(GParams(2, 0, 1, 2, (0.0,), (-1.0, 0.5988884651138973)),
                   6.11555929212626 + 1.6559993670513433j, method="residues")
    mpmath_value = -0.000240671340042058075 - 0.00111908226828836324j
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_mp_denominator_pole_is_zero_term():
    # 1/Gamma(s) is zero at the first pole s = 0 of Gamma(-s); the mpmath
    # re-summation used to raise an untyped ValueError there
    res = meijer_g(GParams(2, 2, 2, 3, (0.050994901790387015,
                                        -0.48411184871626034),
                           (0.0, 1.4624756261929952, 1.0)),
                   15.958894871120782 + 5.47783217880718j, method="residues")
    mpmath_value = -0.0291922188269608118 + 0.0108340298893739165j
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_mp_numerator_pole_is_typed():
    # Gamma(s) has a pole at the first pole s = 0 of Gamma(-s) (a direct
    # term), and so has Gamma(2s) on a ladder of unequal multipliers;
    # Gamma(2 - s) at its third, s = 2 (a term by recurrence)
    for kernel in (mb.MellinKernel(up_left=((0.0, 1.0),),
                                   up_right=((1.0, 1.0),)),
                   mb.MellinKernel(up_left=((0.0, 1.0),),
                                   up_right=((1.0, 2.0),)),
                   mb.MellinKernel(up_left=((0.0, 1.0), (2.0, 1.0)))):
        ladders = mb._pole_ladders(kernel, "right", 10)
        with mb._mpmath().workdps(30), pytest.raises(HigherOrderPoleError):
            mb._sum_residues(kernel, ladders, mb.mpmath.log(0.5), 1e-15, 10,
                             exact=True)


def test_residue_series_double_and_exact_terms_agree():
    # the two passes share one term model: the first 30 residues in merge
    # order agree, on interleaved complex ladders and on unequal multipliers
    interleaved_g = GParams(3, 2, 2, 3, (0.3, -0.2 + 0.1j),
                            (0.1, 0.6 + 0.2j, 0.1 - 0.3j)).to_kernel()
    unequal_h = HParams(2, 2, 2, 2, (0.4, 0.9), (0.2, 0.7),
                        (1.5, 0.5), (2.0, 0.8)).to_kernel()
    z = 0.3 - 0.2j
    for kernel in (interleaved_g, unequal_h):
        ladders = mb._pole_ladders(kernel, "right", 40)
        merged = list(itertools.islice(mb._merged_poles(ladders), 30))
        runs = [mb._ladder_residues(kernel, lad, kernel.base_log
                                    + complex(np.log(z))) for lad in ladders]
        double = [next(runs[idx]) for _, _, idx, _, _ in merged]
        with mb._mpmath().workdps(30):
            shift = mb.mpmath.log(z) + mb.mpmath.log(kernel.base)
            runs = [mb._ladder_residues(kernel, lad, shift, exact=True)
                    for lad in ladders]
            exact = [complex(next(runs[idx])) for _, _, idx, _, _ in merged]
        assert len({idx for _, _, idx, _, _ in merged}) > 1
        for d, e in zip(double, exact):
            assert abs(d - e) <= 1e-12 * abs(e)


def test_residue_series_is_the_plain_sum_of_its_terms():
    # a term is its pole's contribution, (-1)^l / (mult l!) times the other
    # factors and z^s, on either side: the value adds the terms in merge
    # order with no side sign
    kernel = GParams(2, 2, 2, 2, (0.3, -0.2 + 0.1j),
                     (0.1, 0.45)).to_kernel()
    for side, z in (("right", 0.4 + 0.1j), ("left", 2.5 - 0.5j)):
        res = mb.residue_series(kernel, z, side)
        shift = kernel.base_log + complex(np.log(z))
        ladders = mb._pole_ladders(kernel, side, 400)
        models = [mb._ladder_model(kernel, lad, False) for lad in ladders]
        assert len(ladders) == 2
        total = 0
        for _, _, idx, l, _ in itertools.islice(mb._merged_poles(ladders),
                                                 res.nodes_used):
            ladder, terms, _ = models[idx]
            total += mb._log_residue(ladder, terms, l, shift)
        assert res.value == complex(total), side
        exact = complex(mpmath.meijerg([[0.3, -0.2 + 0.1j], []],
                                       [[0.1, 0.45], []], z))
        assert abs(res.value - exact) <= 1e-10 * abs(exact), side


def test_residue_series_exact_pass_agrees_with_the_double_pass(monkeypatch):
    # z^0.3 e^-z at z = 8 cancels by about 1e7 on the right: the exact
    # pass sums the same contributions as the double pass, so it lands
    # within the double pass's own estimate of it
    sums = []
    real_sum = mb._sum_residues

    def summed(*args, **kwargs):
        sums.append(real_sum(*args, **kwargs))
        return sums[-1]
    monkeypatch.setattr(mb, "_sum_residues", summed)
    res = mb.residue_series(k_exp(0.3), 8.0, "right")
    assert len(sums) >= 2
    total, abs_sum, tail, nterms = sums[0]
    double_err = tail + mb._EPS * abs_sum * max(10.0, nterms)
    assert abs_sum > 1e6 * abs(total)
    assert abs(res.value - complex(total)) <= double_err < 1e-6 * abs(total)
    assert abs(res.value - 8.0 ** 0.3 * math.exp(-8.0)) <= res.err_estimate


def _mp_term(term):
    """A _Dyadic term as an mpmath number."""
    return mpmath.mpc(mpmath.ldexp(term.re, term.exp),
                      mpmath.ldexp(term.im, term.exp))


@pytest.mark.parametrize("kernel, z", [
    # real G ladders, all-real integer arithmetic
    (GParams(2, 1, 2, 3, (0.3, -0.45), (0.1, 0.65, -0.2)).to_kernel(), 2.5),
    # the complex-parameter interleaved G above
    (GParams(3, 2, 2, 3, (0.3, -0.2 + 0.1j),
             (0.1, 0.6 + 0.2j, 0.1 - 0.3j)).to_kernel(), 0.3 - 0.2j),
    # equal multipliers that are not dyadic: the poles are not, but the
    # gamma arguments along the ladder are
    (HParams(2, 1, 2, 3, (0.4, 0.9), (0.2, 0.7, -0.35), (0.3, 0.3),
             (0.3, 0.3, 0.3)).to_kernel(), -1.7 + 0.4j),
])
def test_ratio_terms_agree_with_gamma_products(kernel, z):
    # the integer Gamma-ratio recurrence against every term composed
    # directly from mpmath.gamma/rgamma, 200 poles per ladder at 40 digits
    ladders = mb._pole_ladders(kernel, "right", 200)
    assert len(ladders) > 1
    with mb._mpmath().workdps(40):
        shift = mpmath.log(z) + mpmath.log(kernel.base)
        for ladder in ladders:
            exact, terms, moves = mb._ladder_model(kernel, ladder, True)
            assert None not in moves
            run = list(mb._ladder_residues(kernel, ladder, shift, True))
            assert len(run) == 200
            assert all(isinstance(term, mb._Dyadic) for term in run)
            for l, term in enumerate(run):
                ref = mb._gamma_residue(exact, terms, l, shift)
                assert ref != 0
                assert abs(_mp_term(term) - ref) <= 1e-36 * abs(ref)


def test_ratio_zero_term_reanchors(monkeypatch):
    # on the ladder s = l of Gamma(-s), 1/Gamma(3 - s) is zero from l = 3:
    # the recurrence gives that zero, and every term after a zero is
    # composed afresh; 1/Gamma(s - 3) is zero up to l = 3, then the
    # recurrence takes over from the fresh term at l = 4
    anchors = []
    gamma_residue = mb._gamma_residue

    def spy(ladder, terms, l, shift):
        anchors.append(l)
        return gamma_residue(ladder, terms, l, shift)

    monkeypatch.setattr(mb, "_gamma_residue", spy)
    falling = mb.MellinKernel(up_left=((0.0, 1.0), (0.5, 1.0)),
                              down_right=((3.0, 1.0),))
    rising = mb.MellinKernel(up_left=((0.0, 1.0), (0.5, 1.0)),
                             down_left=((4.0, 1.0),))
    with mb._mpmath().workdps(30):
        shift = mpmath.log(mpmath.mpf(2.5))
        for kernel, live, fresh in ((falling, [1, 1, 1] + [0] * 5,
                                     [0, 4, 5, 6, 7]),
                                    (rising, [0] * 4 + [1] * 4,
                                     [0, 1, 2, 3, 4])):
            ladder = mb._pole_ladders(kernel, "right", 8)[0]
            anchors.clear()
            run = list(mb._ladder_residues(kernel, ladder, shift, True))
            assert anchors == fresh
            assert [int(bool(term)) for term in run] == live
            exact, terms, _ = mb._ladder_model(kernel, ladder, True)
            for l, term in enumerate(run):
                ref = gamma_residue(exact, terms, l, shift)
                assert abs(_mp_term(term) - ref) <= 1e-26 * abs(ref)


def test_ratio_resummation_against_mpmath(monkeypatch):
    # a cancelling G with complex parameters on two ladders: the double
    # sum cancels past its tolerance and is redone by the integer
    # recurrence
    ladders = []
    ratio_residues = mb._ratio_residues

    def spy(ladder, *rest):
        ladders.append(ladder)
        return ratio_residues(ladder, *rest)

    monkeypatch.setattr(mb, "_ratio_residues", spy)
    params = GParams(2, 1, 2, 3, (0.3 + 0.1j, -0.45),
                     (0.1, 0.65 - 0.2j, -0.2))
    z = 25.0 - 3j
    res = meijer_g(params, z, method="residues")
    ref = complex(mpmath.meijerg([[0.3 + 0.1j], [-0.45]],
                                 [[0.1, 0.65 - 0.2j], [-0.2]], z))
    assert len(ladders) == 2
    assert abs(res.value - ref) <= res.err_estimate


def test_dyadic_sum_is_exact():
    # terms of very different exponents add without rounding; complex()
    # rounds once
    with mb._mpmath().workdps(30):
        big = mb._dyadic(mpmath.mpc(3, -1) * 2 ** 80)
        small = mb._dyadic(mpmath.mpf(1) / 3)
        assert (big.re, big.im) == (3, -1) and big.exp == 80
        total = 0 + big + small + mb._dyadic(-mpmath.mpc(3, -1) * 2 ** 80)
        assert complex(total) == 1 / 3
        assert not mb._dyadic(0j) and not mb._dyadic(mpmath.mpf(0))


def test_residue_series_exact_pass_has_its_own_budget():
    # G^{1,0}_{1,1}(z | a; b) = z^b (1 - z)^{a-b-1} / Gamma(a - b): the
    # double pass settles within n_max = 800 poles, the mpmath re-summation
    # (1000x stricter) needs 920
    res = meijer_g(GParams(1, 0, 1, 1, (-0.19981391900622214,),
                           (1.8923459603939832,)),
                   -0.8040259380530045 + 0.5091693353898146j,
                   method="residues")
    mpmath_value = -0.0219669160206466763 + 0.0136463720794265117j
    assert res.nodes_used > 800
    assert abs(res.value - mpmath_value) <= res.err_estimate


def test_residue_series_exact_pass_out_of_poles_is_unconverged(monkeypatch):
    # the mpmath re-summation runs (the double pass cancels past tol) on
    # ladders of _EXACT_BUDGET * n_max = 130 poles, too few for its 1000x
    # stricter stop rule
    monkeypatch.setattr(mb, "_EXACT_BUDGET", 1)
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(GParams(1, 0, 0, 1, (), (0.3,)).to_kernel(), 40.0,
                          "right", n_max=130, tol=1e-10)


def test_residue_series_exhausted_ladder_is_unconverged():
    # at n_max = 100 the ladder of Gamma(0.5 - 2s) (pole spacing 0.5) draws
    # its last pole at Re s = 49.75 before the sum settles; the sum used to
    # go on over the ladder of spacing 2 alone and return 1.08e10 - 8.35e9i
    # with an estimate of 0.06
    kernel = mb.MellinKernel(
        up_left=((0.5, 2.0), (1.0, 0.5)),
        up_right=((-1.0, 0.75), (1.4623975207975812, 3.0), (-1.0, 2.0)),
        down_left=((0.8224900809798221, 3.0), (1.0, 0.5)))
    z = -1.6078 + 0.0736j
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(kernel, z, "right", n_max=100)
    res = mb.residue_series(kernel, z, "right", n_max=800)
    quad_value = 0.08863959673171083 + 0.0521756812012628j  # integrate
    assert abs(res.value - quad_value) < 1e-12 * abs(quad_value)


def test_residue_series_finite_sum_settles():
    # 1/Gamma(1 - s) vanishes at every pole s = l >= 1 of Gamma(-s), so the
    # series is its first term: G^{1,0}_{1,1}(z | 1; 0) = 1 for |z| < 1
    res = meijer_g(GParams(1, 0, 1, 1, (1.0,), (0.0,)), 0.012 - 0.074j,
                   method="residues")
    assert res.nodes_used == 1
    assert abs(res.value - 1.0) <= res.err_estimate


def test_residue_method_labels_are_shared():
    first = mb.residue_series(k_exp(0.0), 1.0, "right")
    again = mb.residue_series(k_exp(0.5), 2.0, "right")
    assert first.method == "residues_right" and first.method is again.method
    # the exact 0 of a residue side whose loop encloses no pole, too
    empty = meijer_g(GParams(0, 1, 1, 1, (0.3,), (0.2,)), 0.5)
    assert empty.value == 0 and empty.method is mb._RESIDUE_METHOD["right"]


def test_pole_families_count_validation():
    for count in (0, -3, 2.5, math.inf, math.nan, "4"):
        with pytest.raises(ParameterError):
            mb.pole_families(k_exp(0.0), count)


def test_residue_series_divergent_growth():
    # Gamma(-s) Gamma(1+s): right-side terms grow like z^l for |z| > 1
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((0.0, 1.0),))
    with pytest.raises(NonConvergentSeriesError):
        mb.residue_series(kernel, 3.0, "right", n_max=120, tol=1e-12)


def test_convergence_class_examples():
    assert mb.convergence_class(k_exp(0.0), 1.0) \
        is mb.ConvergenceClass.ABSOLUTE
    assert mb.convergence_class(k_2f1(), 0.5) is mb.ConvergenceClass.ABSOLUTE
    balanced = mb.MellinKernel(up_left=((0.5, 1.0),),
                               down_right=((0.0, 1.0),))
    assert mb.convergence_class(balanced, complex(math.cos(0.3),
                                                  math.sin(0.3))) \
        is mb.ConvergenceClass.DIVERGENT


def test_decay_rate_bookkeeping():
    assert mb.decay_rate(k_exp(0.0)) == pytest.approx(math.pi / 2)
    assert mb.decay_rate(k_2f1()) == pytest.approx(math.pi)


def test_invariants_suite():
    report = {c["name"]: c for c in
              (chk.to_json() for chk in verification.suite_mb(seed=5))}
    for name, check in report.items():
        assert check["passed"], (name, check)


def test_choose_contour_memoized_and_reused_by_integrate():
    contour = mb.choose_contour(k_exp(0.5))
    assert mb.choose_contour(k_exp(0.5)) is contour
    res = mb.integrate(k_exp(0.5), 2.0)
    assert res.contour.anchor == contour.anchor


def test_truncation_height_is_the_tail_estimates_first_fit():
    # choose_contour sets only the minimum height; integrate takes the
    # first fit of _truncation from there, so the height varies with z
    kernel = k_2f1()
    contour = mb.choose_contour(kernel)
    assert contour.truncation == mb._T_MIN
    heights = set()
    for z in (0.3, 0.7 + 0.2j, 0.9 * cmath.exp(2.5j)):
        T, tail = mb._truncation(kernel, contour.anchor, complex(np.log(z)),
                                 1e-10, contour.truncation)
        res = mb.integrate(kernel, z)
        assert res.contour.truncation == T and math.isfinite(tail)
        assert res.contour.anchor == contour.anchor
        heights.add(T)
    assert len(heights) == 2


def test_line_without_a_tail_bound_is_refused_before_quadrature(monkeypatch):
    # near the convergence boundary no height up to _T_MAX meets the tail
    # target: the quadrature used to spend 75,780 nodes before refusing,
    # and the residues answer in 34 terms
    params = GParams(1, 1, 1, 1, (0.5,), (0.2,))
    z = 0.5 * cmath.exp(1j * (math.pi - 1e-3))
    kernel = params.to_kernel()
    _, tail = mb._truncation(kernel, mb.choose_contour(kernel).anchor,
                             complex(np.log(z)), 1e-10, mb._T_MIN)
    assert tail == math.inf

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a line without a tail bound")
    monkeypatch.setattr(mb, "integrate_adaptive", no_quadrature)
    with pytest.raises(QuadratureError):
        meijer_g(params, z, method="quad")
    res = meijer_g(params, z)
    with mpmath.workdps(30):
        oracle = complex(mpmath.meijerg([[0.5], []], [[0.2], []], z))
    assert res.method == "residues_right"
    assert abs(res.value - oracle) <= res.err_estimate


def test_result_and_contour_copy_pickle_replace():
    contour = mb.Contour(0.25, 30.0)
    result = mb.EvalResult(1.5 - 2.0j, 1e-12, 120, contour, "quadrature", 1)
    for obj in (contour, result):
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert dataclasses.replace(contour, truncation=60.0) \
        == mb.Contour(0.25, 60.0)
    moved = dataclasses.replace(result, value=3.0 + 0j)
    assert moved.value == 3.0 and moved.contour is contour
    for bad in ({"truncation": -1.0}, {"truncation": math.nan},
                {"anchor": math.inf}, {"anchor": math.nan}):
        with pytest.raises(ParameterError):
            dataclasses.replace(contour, **bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.value = 0.0


def test_crossed_pole_bookkeeping_is_not_quadratic(monkeypatch):
    # G^{1,1}_{1,1}(a; 0.3) with a = 2000.5: an empty window, and the line
    # at 1999.9 crosses the 2000 poles 0.3, 1.3, ..., 1999.3; comparing
    # every pair of them takes 2e6 distances
    kernel = GParams(1, 1, 1, 1, (2000.5,), (0.3,)).to_kernel()
    calls = [0]

    def counted_abs(x):
        calls[0] += 1
        if calls[0] > 100_000:
            raise AssertionError("more than 50 distances per crossed pole")
        return abs(x)

    monkeypatch.setattr(mb, "abs", counted_abs, raising=False)
    contour = mb._Plan(kernel).contour  # a fresh plan: not a memo hit
    assert contour.anchor == pytest.approx(1999.9)
    (ladder, _), = mb._crossed_poles(kernel, contour.anchor)
    assert (ladder.step, ladder.length) == (1, 2000)
    double = mb.MellinKernel(up_left=((0.3, 1.0), (0.3 + 1e-12, 1.0)),
                             up_right=((2000.5, 1.0),))
    anchor = mb._Plan(double).contour.anchor
    with pytest.raises(ContourError, match="order > 1"):
        mb._crossed_poles(double, anchor)


def test_conjugate_symmetry_real_kernel():
    res = mb.integrate(k_exp(0.5), 2.0, tol=1e-11)
    assert res.value.imag == 0.0


def _slater_g30(b, z, branch_k):
    """G^{3,0}_{0,3}(z e^{2 pi i k} | b) by Slater's sum, in mpmath: only
    the powers z^{b_h} see the branch, the 0F2 factors are entire."""
    with mpmath.workdps(30):
        logz = mpmath.log(mpmath.mpc(z)) + 2j * mpmath.pi * branch_k
        total = 0
        for h, bh in enumerate(b):
            others = [bj for j, bj in enumerate(b) if j != h]
            total += mpmath.fprod(mpmath.gamma(bj - bh) for bj in others) \
                * mpmath.exp(bh * logz) \
                * mpmath.hyper([], [1 + bh - bj for bj in others],
                               -mpmath.mpc(z))
        return complex(total)


def _h10(b, beta, z, branch_k):
    """H^{1,0}_{0,1}(z e^{2 pi i k} | (b, beta)) = z^{b/beta} e^{-z^{1/beta}}
    / beta, in mpmath."""
    with mpmath.workdps(30):
        logz = mpmath.log(mpmath.mpc(z)) + 2j * mpmath.pi * branch_k
        return complex(mpmath.exp(b / beta * logz - mpmath.exp(logz / beta))
                       / beta)


def _meijerg(m, n, a, b, z):
    with mpmath.workdps(30):
        return complex(mpmath.meijerg([a[:n], a[n:]], [b[:m], b[m:]],
                                      mpmath.mpc(z)))


_B3 = (0.1, 0.4, 0.75)
_H10 = HParams(1, 0, 0, 1, (), (0.4,), (), (3.0,))  # kappa = 1.5 pi
# (params, z, branch_k, oracle): real G and H kernels at complex z, on
# either branch and with |arg| of the effective argument near kappa
FOLD_CASES = [
    (GParams(2, 2, 2, 2, (0.3, 0.8), (0.1, 0.6)), 0.7 + 0.2j, 0,
     lambda: _meijerg(2, 2, (0.3, 0.8), (0.1, 0.6), 0.7 + 0.2j)),
    # kappa = pi, arg z = 0.95 pi
    (GParams(2, 0, 0, 2, (), (0.25, 0.75)), cmath.rect(2.0, 0.95 * math.pi),
     0, lambda: _meijerg(2, 0, (), (0.25, 0.75),
                         cmath.rect(2.0, 0.95 * math.pi))),
    # kappa = 1.5 pi, effective arguments 1.2 pi and -1.3 pi
    (GParams(3, 0, 0, 3, (), _B3), cmath.rect(0.8, -0.8 * math.pi), 1,
     lambda: _slater_g30(_B3, cmath.rect(0.8, -0.8 * math.pi), 1)),
    (GParams(3, 0, 0, 3, (), _B3), cmath.rect(1.5, 0.7 * math.pi), -1,
     lambda: _slater_g30(_B3, cmath.rect(1.5, 0.7 * math.pi), -1)),
    (_H10, cmath.rect(2.0, -0.9 * math.pi), 1,
     lambda: _h10(0.4, 3.0, cmath.rect(2.0, -0.9 * math.pi), 1)),
    (_H10, cmath.rect(0.5, 0.8 * math.pi), -1,
     lambda: _h10(0.4, 3.0, cmath.rect(0.5, 0.8 * math.pi), -1)),
    (_H10, cmath.rect(3.0, 0.6), 0,
     lambda: _h10(0.4, 3.0, cmath.rect(3.0, 0.6), 0)),
]


def _line_signs(monkeypatch):
    """Record, per kernel_log_grid call, whether every node has Im s >= 0."""
    signs = []
    kernel_log_grid = mb.kernel_log_grid

    def recorded(kernel, s):
        signs.append(bool((np.imag(s) >= 0.0).all()))
        return kernel_log_grid(kernel, s)
    monkeypatch.setattr(mb, "kernel_log_grid", recorded)
    return signs


@pytest.mark.parametrize("params, z, branch_k, oracle", FOLD_CASES)
def test_folded_line_matches_full_line_and_oracle(monkeypatch, params, z,
                                                  branch_k, oracle):
    kernel = params.to_kernel()
    signs = _line_signs(monkeypatch)
    folded = mb.integrate(kernel, z, branch_k=branch_k)
    assert signs and all(signs)  # the nodes sigma + iy, y >= 0, only
    monkeypatch.setattr(mb, "_conjugate_symmetric", lambda kernel: False)
    # an empty memo, whose plans read the flag again; the kernel's kept
    # plan comes back with the memo after the test
    monkeypatch.setattr(mb, "_PLANS", collections.OrderedDict())
    full = mb.integrate(kernel, z, branch_k=branch_k)
    assert abs(folded.value - full.value) \
        <= folded.err_estimate + full.err_estimate
    assert abs(folded.value - oracle()) <= folded.err_estimate


def test_fold_needs_only_real_parameters(monkeypatch):
    signs = _line_signs(monkeypatch)
    # a complex coefficient, a negative base: the full line
    for kernel, z in (
            (mb.MellinKernel(up_left=((0.3 + 0.2j, 1.0),)), 0.6 + 0.1j),
            (mb.MellinKernel(up_left=((0.3, 1.0), (0.6, 1.0)), base=-2.0),
             0.6 - 0.5j)):
        del signs[:]
        res = mb.integrate(kernel, z)
        assert not signs[0] and res.nodes_used > 0
    # Gamma(-s) Gamma(s - 0.5): real, so its line folds, though the line
    # crosses the pole 0 (whose residue does not depend on the fold)
    kernel = mb.MellinKernel(up_left=((0.0, 1.0),), up_right=((1.5, 1.0),))
    del signs[:]
    res = mb.integrate(kernel, 0.3)
    assert mb._crossed_poles(kernel, res.contour.anchor) and all(signs)
    assert abs(res.value - sp.gamma(-0.5) * 1.3 ** 0.5) <= res.err_estimate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params, z, answered", [
    (GParams(3, 0, 1, 3, (-1.0,), (-0.5, 1.5, 0.5)), 1.0201 + 0.9064j, True),
    (GParams(3, 0, 1, 3, (-0.5,), (1.5, 2.0, 0.0)), -0.1547 - 0.0202j,
     False)])
def test_line_node_on_a_denominator_pole_is_an_exact_zero(
        monkeypatch, params, z, answered):
    # the line Re s = -1 (-0.5) meets the pole of Gamma(-1 - s)
    # (Gamma(-0.5 - s)) at y = 0, the node u = 0 of every level: the kernel
    # is exactly 0 there, charged no rounding, and no warning is raised.
    # The second line is too slow to settle at tol 1e-10 and is refused
    # (as it was before the node y = 0 was on the rule's lattice)
    kernel = params.to_kernel()
    sigma = mb.choose_contour(kernel).anchor
    logs, size = mb.kernel_log_grid(kernel, np.array([sigma + 0j]))
    assert logs[0].real == -math.inf and size[0] == 0.0
    grids = []
    kernel_log_grid = mb.kernel_log_grid

    def recorded(kernel, s):
        grids.append(np.array(s))
        return kernel_log_grid(kernel, s)
    monkeypatch.setattr(mb, "kernel_log_grid", recorded)
    if answered:
        res = mb.integrate(kernel, z)
        oracle = _meijerg(params.m, params.n, list(params.a),
                          list(params.b), z)
        assert abs(res.value - oracle) <= res.err_estimate
    else:
        with pytest.raises(QuadratureError):
            mb.integrate(kernel, z)
    assert (grids[0] == sigma).any()


def test_line_on_a_rounding_plateau_is_refused_or_within_estimate():
    # |arg z| is 0.04 short of kappa = pi, so T = 1136; a flat rounding
    # floor, 8 eps times the rule on |f|, let the levels stop on a
    # plateau 1.6e-6 off, against an estimate of 2.7e-7.  The floor
    # weighted by each node's log-sum size refuses the line instead
    params = GParams(3, 1, 3, 3, (-0.2982374827162936, -0.05667681255632462,
                                  -0.06076708330301661),
                     (1.443072762378431, 1.0, 1.0061410193015088))
    z = -1.4271616283846027 + 0.05909979962542374j
    try:
        res = meijer_g(params, z, method="quad")
    except QuadratureError:
        return
    oracle = _meijerg(params.m, params.n, list(params.a), list(params.b), z)
    assert abs(res.value - oracle) <= res.err_estimate


def _g11_closed_form(a, b, z):
    """G^{1,1}_{1,1}(z | a; b) = Gamma(1 - a + b) z^b (1 + z)^{a - 1 - b}."""
    with mpmath.workdps(30):
        a_, b_, z_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpc(z)
        return complex(mpmath.gamma(1 - a_ + b_) * z_ ** b_
                       * (1 + z_) ** (a_ - b_ - 1))


def test_default_route_near_the_cut_is_within_its_estimate():
    # |arg z| = 0.995 kappa: the line's rounding floor refuses quadrature
    # and the default route falls back to the left residues, whose terms
    # fall by about 1 / |z| = 0.57 per pole; charged its last term alone,
    # that reply was 1.4 times outside its estimate
    z = -1.7631952510786175 + 0.027698484384667533j
    exact = _g11_closed_form(0.056, 1.5404, z)
    try:
        res = meijer_g(GParams(1, 1, 1, 1, (0.056,), (1.5404,)), z)
    except (QuadratureError, ConvergenceError, NonConvergentSeriesError):
        return
    assert abs(res.value - exact) <= res.err_estimate


@pytest.mark.parametrize("z", [cmath.rect(r, theta) for r in (1.2, 1.76, 3.0)
                               for theta in (3.1, -2.8, 2.0, 0.5)])
def test_residue_estimate_charges_the_geometric_tail(z):
    # the left residues of Gamma(1.5404 - s) Gamma(0.944 + s) fall by the
    # ratio (l + 2.4844) / ((l + 1) |z|), which decreases to 1 / |z|: the
    # tail past the stop is at most the geometric one from the last ratio.
    # Charged the last term alone, |z| = 1.2 near the cut was 5x outside
    res = meijer_g(GParams(1, 1, 1, 1, (0.056,), (1.5404,)), z,
                   method="residues")
    assert res.method == "residues_left"
    assert abs(res.value - _g11_closed_form(0.056, 1.5404, z)) \
        <= res.err_estimate


@pytest.mark.parametrize("a,refusable", [(175.5, False), (180.5, False),
                                          (190.5, False)])
def test_residue_stop_rule_reads_a_subnormal_partial_sum(a, refusable):
    # the right residues start below the double range and rise for about
    # a hundred poles; a stop rule floored at 1e-300 |partial| stopped after
    # three of them, at -9.29e-313 +/- 9.07e-313 for -1.139e-285 (a = 175.5).
    # At a = 190.5 the partial sum is subnormal, tol |partial| underflows
    # to 0, and the terms that underflow to 0 count as small: 6.19e-317
    # within an estimate of 1e-321, each term's subnormal rounding
    exact = _g11_closed_form(a, 0.3, 0.5)
    try:
        res = meijer_g(GParams(1, 1, 1, 1, (a,), (0.3,)), 0.5)
    except MBIntError:
        assert refusable
        return
    assert abs(res.value - exact) <= res.err_estimate


def _scalar_log_mag(kernel, sigma, y, logz):
    """_log_mag_estimate one height and one factor at a time."""
    total = sigma * logz.real - y * (logz.imag + kernel.base_log.imag) \
        + sigma * kernel.base_log.real
    for coeff, slope, sign, _ in kernel.terms:
        eta = complex(coeff).imag + slope * y
        if abs(eta) < 1.0:
            eta = math.copysign(1.0, eta if eta != 0.0 else 1.0)
        a = (complex(coeff) + slope * sigma).real
        total += sign * cgamma.asymptotic_log_abs_gamma(a, eta)
    return total


def _scalar_truncation_height(kernel, sigma, logz, tol, t_min):
    ref = max(_scalar_log_mag(kernel, sigma, y, logz)
              for y in (1.5, -1.5, 3.0, -3.0, 6.0, -6.0, 12.0, -12.0))
    target = ref + math.log(max(tol, 1e-16)) - 4.6
    T = max(t_min, mb._T_MIN)
    while True:
        if _scalar_log_mag(kernel, sigma, T, logz) <= target and \
                _scalar_log_mag(kernel, sigma, -T, logz) <= target:
            return T
        if T >= mb._T_MAX:
            return None
        T *= 1.1


def test_truncation_matches_scalar_reference_bitwise():
    rng = random.Random(11)

    def family(k):
        return tuple((complex(rng.uniform(-2.0, 3.0),
                              rng.choice((0.0, rng.uniform(-2.0, 2.0)))),
                      rng.choice((1.0, rng.uniform(0.2, 3.0))))
                     for _ in range(k))
    for _ in range(300):
        kernel = mb.MellinKernel(
            family(rng.randint(0, 3)), family(rng.randint(0, 3)),
            family(rng.randint(0, 2)), family(rng.randint(0, 2)),
            rng.choice((1.0, 2.5, complex(rng.uniform(-2, 2),
                                          rng.uniform(-2, 2)))))
        sigma = rng.uniform(-3.0, 3.0)
        logz = complex(np.log(complex(rng.uniform(-5, 5), rng.uniform(-5, 5))))
        tol = 10.0 ** rng.uniform(-14.0, -3.0)
        t_min = rng.choice((30.0, 45.0, rng.uniform(5.0, 400.0)))
        heights = np.array([1.5, -7.25, 30.0, -675.0])
        assert np.array_equal(
            mb._log_mag_estimate(kernel, sigma, heights, logz),
            [_scalar_log_mag(kernel, sigma, y, logz) for y in heights])
        T, tail = mb._truncation(kernel, sigma, logz, tol, t_min)
        fit = _scalar_truncation_height(kernel, sigma, logz, tol, t_min)
        assert T == fit if fit is not None else tail == math.inf


def test_truncation_reads_the_line_of_its_anchor_and_lowest_height():
    # the plan keeps the line last asked for and builds another when the
    # anchor or the lowest height moves: lines asked for in turn each fit
    # as the scalar reference does, also through integrate, bit for bit
    kernel = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    z = 0.4 + 0.3j
    logz = complex(np.log(z))
    lines = [(0.2, 8.0), (0.2, 60.0), (-0.3, 60.0), (-0.3, 8.0)]
    for sigma, t_min in lines * 2:
        T, tail = mb._truncation(kernel, sigma, logz, 1e-10, t_min)
        assert T == _scalar_truncation_height(kernel, sigma, logz, 1e-10,
                                              t_min)
        res = mb.integrate(kernel, z, contour=mb.Contour(sigma, t_min))
        assert res.contour == mb.Contour(sigma, T)
        # the kept rows are added one by one, as the reference adds them
        line = mb._plan(kernel).line(sigma, t_min)
        assert np.array_equal(
            mb._log_mag_estimate(kernel, sigma, line.y, logz, line.rows),
            [_scalar_log_mag(kernel, sigma, y, logz) for y in line.y])


@pytest.mark.parametrize("coeff,mult", [(math.nan, 1.0), (math.inf, 1.0),
                                        (complex(0.5, math.nan), 1.0),
                                        (0.5, math.nan), (0.5, math.inf)])
def test_gamma_factor_refuses_non_finite_parameters(coeff, mult):
    with pytest.raises(ParameterError):
        mb.GammaFactor(coeff, mult)
    with pytest.raises(ParameterError):
        mb.MellinKernel(up_left=((coeff, mult),))


@pytest.mark.parametrize("base", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_kernel_refuses_non_finite_base(base):
    with pytest.raises(ParameterError):
        mb.MellinKernel(up_left=((0.5, 1.0),), base=base)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                               complex(1.0, math.inf), complex(math.nan, 1.0)])
def test_non_finite_argument_is_refused_like_zero(z):
    with pytest.raises(ParameterError):
        mb.integrate(k_exp(0.5), z)
    with pytest.raises(ParameterError):
        mb.residue_series(k_exp(0.5), z, "right")


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, None])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ParameterError):
        mb.integrate(k_exp(0.5), 2.0, tol=tol)
    with pytest.raises(ParameterError):
        mb.residue_series(k_exp(0.5), 2.0, "right", tol=tol)


def test_ladder_step_sets_direction():
    right = mb._Ladder(1, 0, 5, 0.5 + 0.25j, 2.0)
    left = mb._Ladder(-1, 1, 5, 0.5 + 0.25j, 2.0)
    assert (right.family, left.family) == ("up_left", "up_right")
    assert [right.location(l) for l in range(3)] \
        == [(0.5 + 0.25j + l) / 2.0 for l in range(3)]
    assert [left.location(l) for l in range(3)] \
        == [(0.5 + 0.25j - l) / 2.0 for l in range(3)]


def test_pole_families_list_the_residue_merge_order():
    # two left-opening ladders with equal real parts: both families list
    # equal-Re poles by ascending Im, the order _merged_poles draws them
    kernel = mb.MellinKernel(up_left=((0.5 + 0.5j, 1.0), (0.5 - 0.5j, 1.0)),
                             up_right=((0.5 + 0.5j, 1.0), (0.5 - 0.5j, 1.0)))
    left, right = mb.pole_families(kernel, 3)
    for poles, side in ((left, "left"), (right, "right")):
        ladders = mb._pole_ladders(kernel, side, 3)
        assert [p.location for p in poles] \
            == [loc for *_, loc in mb._merged_poles(ladders)]
    assert [p.location for p in left[:2]] == [-0.5 - 0.5j, -0.5 + 0.5j]
    assert [p.location for p in right[:2]] == [0.5 - 0.5j, 0.5 + 0.5j]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_multiplier_ratio_past_the_double_range_is_refused():
    # 1e300 / 1e-300 overflows: round(inf) raised an untyped OverflowError
    kernel = mb.MellinKernel(up_left=((0.1, 1e-300), (0.2, 1e300)))
    with pytest.raises(ParameterError):
        mb.residue_series(kernel, 0.5, "right")
    # a ratio that underflows to 0, and a subnormal one whose inverse
    # overflows
    for m, m2 in ((1e300, 1e-300), (1.0, 1e-310)):
        a, b = mb._Ladder(1, 0, 5, 0j, m), mb._Ladder(1, 1, 5, 0.5, m2)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ParameterError):
                x.ratio(y)


def test_meets_sweeps_an_irrational_ratio():
    # s = l against s' = (3 sqrt 2 - 5 + l') / sqrt 2 = 3 - 5 / sqrt 2 +
    # l' / sqrt 2: no ratio p / q, so the numpy sweep finds s = 3 = s'_5
    root2 = math.sqrt(2.0)
    a = mb._Ladder(1, 0, 50, 0j, 1.0)
    b = mb._Ladder(1, 1, 50, complex(3 * root2 - 5), root2)
    assert a.ratio(b) is None and b.ratio(a) is None
    assert a.meets(b) == (3, 5) and b.meets(a) == (5, 3)
    params = HParams(2, 0, 0, 2, (), (0.0, 3 * root2 - 5), (), (1.0, root2))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(params.to_kernel(), 0.5, "right")


def test_residue_series_builds_its_ladders_once(monkeypatch):
    # the mpmath re-summation reuses the double pass's ladders and cuts
    kernel = GParams(1, 0, 1, 1, (-0.19981391900622214,),
                     (1.8923459603939832,)).to_kernel()
    calls = []
    build = mb._pole_ladders

    def counted(*args, **kwargs):
        if not kwargs.get("den"):  # numerator ladders only: the cut asks
            calls.append(args)     # for the denominator ones
        return build(*args, **kwargs)
    monkeypatch.setattr(mb, "_pole_ladders", counted)
    exact = []
    real_sum = mb._sum_residues

    def summed(*args, **kwargs):
        exact.append(kwargs.get("exact", False))
        return real_sum(*args, **kwargs)
    monkeypatch.setattr(mb, "_sum_residues", summed)
    mb.residue_series(kernel, -0.8040259380530045 + 0.5091693353898146j,
                      "right", n_max=800, tol=1e-10)
    assert exact == [False, True] and len(calls) == 1


def _scan_meets(a, b, horizon=80):
    """The first (l, l') an all-pairs scan finds, unbounded ladders cut at
    ``horizon`` poles."""
    la, lb = min(a.length, horizon), min(b.length, horizon)
    for l in range(la):
        for l2 in range(lb):
            if abs(a.location(l) - b.location(l2)) <= POLE_TOLERANCE:
                return l, l2
    return None


def _random_ladder(rng, step, length, idx=0):
    """A ladder with a lattice origin (quarter integers, some complex, some
    off by less or more than POLE_TOLERANCE) or an off-lattice one."""
    if rng.random() < 0.75:
        origin = complex(rng.randint(-12, 12) / 4,
                         rng.choice((0.0, 0.0, 0.0, 0.5)))
        origin += rng.choice((0.0, 0.0, 0.0, 4e-10, 5e-9))
    else:
        origin = complex(rng.uniform(-3, 3), rng.choice((0.0, 0.25)))
    return mb._Ladder(step, idx, length, origin,
                      rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)))


def test_meets_matches_an_all_pairs_scan():
    rng = random.Random(11)
    kinds = collections.Counter()
    for _ in range(2000):
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
        la = rng.choice((1, 3, 8, 30, math.inf))
        # two unbounded ladders opening the same way meet without end
        lb = rng.choice((1, 3, 8, 30) + ((math.inf,) if sa != sb else ()))
        a, b = _random_ladder(rng, sa, la), _random_ladder(rng, sb, lb)
        got = a.meets(b)
        # |origin| <= 3 and mult in [0.5, 3]: ladders opening apart meet
        # within 36 poles; an unbounded one meets a finite one of 30 poles
        # opening the same way within 207
        assert got == _scan_meets(a, b, 210 if sa == sb else 80), (a, b)
        kinds[(sa == sb, (b.mult / a.mult).is_integer(),
               got is not None and got != (0, 0))] += 1
    # both branches, both directions, meetings past the heads of both
    assert len(kinds) == 8, kinds


def _eager_cut(kernel, ladder, n):
    """The first l <= n - 3 from which one denominator gamma sits on a pole
    (within POLE_TOLERANCE in s) at every pole l..n-1 of ``ladder``, else
    inf: a run that long needs a whole multiplier ratio."""
    runs = []
    for f, slope in [(f, f.mult) for f in kernel.down_left] \
            + [(f, -f.mult) for f in kernel.down_right]:
        coeff = 1.0 - f.coeff if slope > 0 else f.coeff
        hits = [cgamma._nearest_pole(coeff + slope * ladder.location(l))[1]
                / f.mult <= POLE_TOLERANCE for l in range(n)]
        l = n
        while l > 0 and hits[l - 1]:
            l -= 1
        runs.append(l)
    first = min(runs, default=n)
    return first if first <= n - 3 else math.inf


def test_live_length_matches_an_eager_per_pole_check():
    rng = random.Random(12)
    n = 60
    cuts = collections.Counter()

    def factors(k):
        return tuple((_random_ladder(rng, 1, 1).origin,
                      rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)))
                     for _ in range(k))

    for _ in range(600):
        kernel = mb.MellinKernel(up_left=factors(rng.randint(0, 2)),
                                 up_right=factors(rng.randint(0, 2)),
                                 down_left=factors(rng.randint(0, 3)),
                                 down_right=factors(rng.randint(0, 3)))
        for side in ("left", "right"):
            dens = mb._pole_ladders(kernel, side, math.inf, den=True)
            for ladder in mb._pole_ladders(kernel, side, n):
                cut = mb._live_length(ladder, dens)
                assert (cut if cut <= n - 3 else math.inf) \
                    == _eager_cut(kernel, ladder, n), (kernel, side)
                cuts[0 if cut == 0 else 1 if cut < math.inf else 2] += 1
    assert min(cuts.values()) > 10, cuts


def test_live_length_tolerance_is_in_s():
    # Gamma(-s / 2) against 1/Gamma(a - s / 2): the poles s = 2l against
    # s = 2(a + l'); a = 7e-10 moves them by 1.4e-9 in s, though only by
    # 7e-10 in the argument, so no cut; a = 4e-10 by 8e-10, a cut at l = 0
    for a, cut in ((7e-10, math.inf), (4e-10, 0)):
        kernel = mb.MellinKernel(up_left=((0.0, 0.5),),
                                 down_right=((a, 0.5),))
        ladder, = mb._pole_ladders(kernel, "right", 10)
        dens = mb._pole_ladders(kernel, "right", math.inf, den=True)
        assert mb._live_length(ladder, dens) == cut


def test_a_ratio_whole_to_rounding_is_whole():
    # 0.9 / 0.3 is 3.0000000000000004 in double: the closed form and the cut
    # take it as 3 / 1, and the reverse as 1 / 3; s = l / 0.3 meets
    # s' = (3 + l') / 0.9 on l' = 3l - 3
    a, b = mb._Ladder(1, 0, 50, 0.0, 0.3), mb._Ladder(1, 0, 50, 3.0, 0.9)
    assert a.ratio(b) == (3, 1) and b.ratio(a) == (1, 3)
    assert b.meets(a) == _scan_meets(b, a) == (0, 1)
    assert a.meets(b) == _scan_meets(a, b) == (1, 0)
    kernel = mb.MellinKernel(up_left=((0.0, 0.3),), down_right=((3.0, 0.9),))
    ladder, = mb._pole_ladders(kernel, "right", 50)
    dens = mb._pole_ladders(kernel, "right", math.inf, den=True)
    assert mb._live_length(ladder, dens) == _eager_cut(kernel, ladder, 50) \
        == 1


def _walk_before(ladder, bound):
    """The poles before the line Re s = ``bound``, counted pole by pole:
    the walk _Ladder.before replaced, kept as its oracle."""
    l = 0
    while l < ladder.length \
            and ladder.step * (ladder.location(l).real - bound) < 0:
        l += 1
    return l


def test_before_matches_a_pole_by_pole_walk():
    rng = random.Random(14)
    counts = collections.Counter()
    for _ in range(4000):
        ladder = _random_ladder(rng, rng.choice((1, -1)),
                                rng.choice((1, 3, 8, 30, math.inf)))
        pole = ladder.location(rng.randint(0, 40)).real
        # on a pole, an ulp or POLE_TOLERANCE off one, or anywhere
        bound = rng.choice((pole, math.nextafter(pole, math.inf),
                            math.nextafter(pole, -math.inf),
                            pole + POLE_TOLERANCE, pole - POLE_TOLERANCE,
                            pole + rng.uniform(-1.0, 1.0),
                            rng.uniform(-30.0, 30.0)))
        got = ladder.before(bound)
        assert got == _walk_before(ladder, bound), (ladder, bound)
        counts[min(got, 2)] += 1
    assert min(counts.values()) > 100, counts
    # far from the head, in both directions
    for step in (1, -1):
        ladder = mb._Ladder(step, 0, math.inf, step * 0.3, 1.0)
        for offset in (0.0, POLE_TOLERANCE, -POLE_TOLERANCE, 0.5):
            bound = step * (0.3 + 10 ** 5 + offset)
            assert ladder.before(bound) == _walk_before(ladder, bound)


def _scan_ratio(a, b):
    """The least q <= 12, with p, that puts b.mult within POLE_TOLERANCE of
    p / q times a.mult, else (1, k) for a.mult within it of a whole k times
    b.mult, else None: _Ladder.ratio term by term."""
    r = b.mult / a.mult
    for q in range(1, 13):
        p = round(r * q)
        if p and abs(r - p / q) <= POLE_TOLERANCE:
            return p, q
    k = round(a.mult / b.mult)
    return (1, k) if k and abs(a.mult / b.mult - k) <= POLE_TOLERANCE \
        else None


def test_ratio_matches_a_scan_over_denominators():
    rng = random.Random(16)
    found = collections.Counter()
    for _ in range(20000):
        r = rng.choice((rng.randint(1, 40) / rng.randint(1, 40),
                        rng.uniform(0.01, 50.0)))
        r += rng.choice((0.0, 0.0, 1e-10, -5e-10, 9.9e-10, 1.1e-9, -2e-9))
        a = mb._Ladder(1, 0, 1, 0j, rng.choice((0.3, 1.0, 2.5)))
        b = mb._Ladder(1, 0, 1, 0j, a.mult * r)
        got = a.ratio(b)
        assert got == _scan_ratio(a, b), (a.mult, b.mult)
        found[None if got is None else got[1] > 1] += 1
    assert min(found.values()) > 500, found
    # every multiplier pair _random_ladder draws is a small rational, so
    # the meetings of test_meets_matches_an_all_pairs_scan are all closed
    # forms, whole ratio or not
    mults = (0.5, 1.0, 1.5, 2.0, 3.0)
    assert all(mb._Ladder(1, 0, 1, 0j, m).ratio(mb._Ladder(1, 0, 1, 0j, m2))
               for m in mults for m2 in mults)
    # whole ratios past 12 either way round are closed forms too: s = l / 13
    # against s' = 2 + l', s' = 5 - l' and s' = 2.5 + l'
    a = mb._Ladder(1, 0, math.inf, 0.0, 13.0)
    for b in (mb._Ladder(1, 0, 30, 2.0, 1.0), mb._Ladder(-1, 0, 30, 5.0, 1.0),
              mb._Ladder(1, 0, 30, 2.5, 1.0)):
        assert a.ratio(b) == (1, 13) and b.ratio(a) == (13, 1)
        assert a.meets(b) == _scan_meets(a, b, 210)
        assert b.meets(a) == _scan_meets(b, a, 210)
    assert [a.meets(b) for b in (mb._Ladder(1, 0, 30, 2.0, 1.0),
                                 mb._Ladder(-1, 0, 30, 5.0, 1.0))] \
        == [(26, 0), (0, 5)]


def test_meetings_and_collisions_past_a_trillion_poles():
    # closed forms at a ratio 3 / 2 that a pole-by-pole sweep would take
    # hours over: s = l / 2 meets s' = 1e12 + l' / 3 at l = 2e12, l' = 0
    a = mb._Ladder(1, 0, math.inf, 0.0, 2.0)
    b = mb._Ladder(1, 0, 5, 3e12, 3.0)
    start = time.perf_counter()
    assert a.meets(b) == (2 * 10 ** 12, 0)
    assert a.location(2 * 10 ** 12) == b.location(0) == 1e12
    # a Fox H whose two ladders overlap for over 1e12 poles, without a
    # shared pole: built, then refused by the line that crosses them all
    params = HParams(1, 1, 1, 1, (1e12 + 0.3,), (-1e12 + 0.1,), (1.5,),
                     (1.0,))
    kernel = params.to_kernel()
    lo, _ = mb.contour_window(kernel)
    contour = mb.choose_contour(kernel)
    assert lo < contour.anchor <= lo + 1.0
    with pytest.raises(ContourError):
        mb._crossed_poles(kernel, contour.anchor)
    # a loose bound for a slow runner: the walks took hours
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("params", [
    GParams(1, 1, 1, 1, (1e22,), (0.5,)),
    GParams(1, 1, 1, 1, (1e25,), (0.5,)),
    GParams(1, 1, 1, 1, (1e300,), (0.5,)),
    HParams(1, 1, 1, 1, (2.0,), (0.5,), (1.0,), (1e6,)),
    HParams(1, 1, 1, 1, (2.0,), (0.5,), (1.0,), (1e7,))])
def test_empty_window_contour_reads_bounded_ladders(params):
    # the line would cross far more poles than the node budget: the cut set
    # reads the right ladders at that budget, where it walked every pole
    # before the window (a plateau of equal rounded locations at 1e300,
    # never returning) or every pole in it (15 s at 1e7)
    start = time.perf_counter()
    evaluate = meijer_g if isinstance(params, GParams) else fox_h
    with pytest.raises(ContourError):
        evaluate(params, 0.5)
    # a loose bound for a slow runner: each refusal takes under 1 ms
    assert time.perf_counter() - start < 5.0


def test_pole_families_merge_across_an_interleaved_pole():
    # 1 + 0.5i sorts between s = 1 and s = 1 + 5e-10, which residue_series
    # refuses as one double pole
    kernel = mb.MellinKernel(up_left=((1, 1), (1 + 5e-10, 1), (1 + 0.5j, 1)))
    _, right = mb.pole_families(kernel, 2)
    assert [(p.location, p.order) for p in right[:2]] \
        == [(1.0, 2), (1 + 0.5j, 1)]
    assert right[0].sources == (("up_left", 0, 0), ("up_left", 1, 0))
    with pytest.raises(HigherOrderPoleError):
        mb.residue_series(kernel, 0.5, "right")


def test_pole_families_order_matches_meets():
    rng = random.Random(13)
    shared = collections.Counter()
    for _ in range(400):
        side = rng.choice(("left", "right"))
        factors = tuple((_random_ladder(rng, 1, 1).origin,
                         rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)))
                        for _ in range(rng.randint(1, 3)))
        kernel = mb.MellinKernel(up_left=factors) if side == "right" \
            else mb.MellinKernel(up_right=factors)
        poles = mb.pole_families(kernel, 12)[side == "right"]
        hit = mb._first_meeting(itertools.combinations(
            mb._pole_ladders(kernel, side, 12), 2))
        assert any(p.order > 1 for p in poles) == (hit is not None), factors
        assert sum(p.order for p in poles) == 12 * len(factors)
        shared[hit is not None] += 1
    assert min(shared.values()) > 20, shared
