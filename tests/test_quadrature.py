import cmath
import math
import pathlib

import mpmath
import numpy as np
import pytest

from mbint import mellin_barnes as mb
from mbint import quadrature
from mbint.cgamma import log_gamma_grid
from mbint.errors import QuadratureError
from mbint.special_functions import GParams, HParams, meijer_g

ROOT = pathlib.Path(__file__).resolve().parents[1]


def plain(g):
    """g as an integrand of the rule, each value charged |value| as its
    rounding."""
    def f(x):
        values = g(x)
        return values, np.abs(values)
    return f


def counting(f):
    """f plus a record of the abscissae of every call."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)
    return wrapped, calls


def peaked(u, eps=1e-2):
    # (1 + 2i) / (x^2 + eps^2) under x = sinh(pi/2 sinh u): double-
    # exponential decay in u, a peak of width about eps at u = 0
    x = np.sinh(0.5 * np.pi * np.sinh(u))
    dx = 0.5 * np.pi * np.cosh(u) * np.cosh(0.5 * np.pi * np.sinh(u))
    return (1.0 + 2.0j) * dx / (x * x + eps * eps)


PEAKED_EXACT = (1.0 + 2.0j) * np.pi / 1e-2  # over the whole real line


def oscillatory(v, w=-1.0 + 20.0j):
    # e^{w t} under t = exp(pi/2 sinh v): 20 / (2 pi) turns per unit of t
    log_t = 0.5 * np.pi * np.sinh(v)
    t = np.exp(log_t)
    return np.exp(w * t + log_t) * 0.5 * np.pi * np.cosh(v)


OSCILLATORY_EXACT = 1.0 / (1.0 - 20.0j)  # -1 / w over t in (0, inf)


def test_peaked_integrand_closed_form():
    res = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                        tol_rel=1e-12)
    assert res.converged
    assert abs(res.value - PEAKED_EXACT) < 1e-12 * abs(PEAKED_EXACT)
    assert res.error <= 1e-12 * abs(res.value)


def test_oscillatory_integrand_closed_form():
    res = quadrature.integrate_adaptive(plain(oscillatory), -4.0, 3.0,
                                        tol_rel=1e-12)
    assert res.converged
    assert abs(res.value - OSCILLATORY_EXACT) < 1e-12 * abs(OSCILLATORY_EXACT)


def test_rounding_floor_ends_refinement():
    # a target below rounding: the levels settle on the floor, the rule
    # stops there, unconverged, with the floor in its error
    f, calls = counting(plain(oscillatory))
    res = quadrature.integrate_adaptive(f, -4.0, 3.0, tol_rel=1e-18)
    assert not res.converged
    assert res.nodes < quadrature.MAX_NODES // 10
    assert res.error >= np.finfo(float).eps * abs(OSCILLATORY_EXACT)
    assert abs(res.value - OSCILLATORY_EXACT) <= res.error


def test_node_budget_is_respected():
    # the window [-4, 4] opens on 65 nodes, and each halving adds 64, 128,
    # ...: a budget of 200 takes the first halving only
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -4.0, 4.0, tol_rel=1e-12,
                                        max_nodes=200)
    assert not res.converged
    assert res.nodes <= 200
    assert [x.size for x in calls] == [65, 64]
    assert sum(x.size for x in calls) == res.nodes


def test_budget_below_first_round_stops_after_it():
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -4.0, 4.0, tol_rel=1e-12,
                                        max_nodes=50)
    assert not res.converged
    assert res.nodes == 65
    assert [x.size for x in calls] == [65]


def test_nan_estimate_stops_at_once():
    # the window [0, 1] opens on 9 nodes; the first call also takes the
    # levels of 17, 33 and 65 nodes (129 is past FIRST_NODES), and the NaN
    # ends the rule at the first comparison, on the level of 9
    f, calls = counting(plain(lambda x: np.full(np.shape(x), np.nan + 0j)))
    res = quadrature.integrate_adaptive(f, 0.0, 1.0)
    assert not res.converged
    assert res.nodes == 9
    assert [x.size for x in calls] == [65]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sum_past_the_double_range_ends_unconverged():
    # finite parts, modulus 2.1e308: abs() of the sum raised OverflowError;
    # the weights scale the values before the sum, which does not overflow
    def f(x):
        return np.full(np.shape(x), 0.75e308 * (1.0 + 1.0j)), np.zeros(x.size)
    res = quadrature.integrate_adaptive(f, 0.0, 2.0)
    assert res.value.real == res.value.imag
    assert abs(res.value.real - 1.5e308) <= 1e-14 * 1.5e308
    assert not res.converged
    assert res.nodes == 17


def test_integrand_called_once_per_round():
    # the window opens on 65 nodes, so the first call takes the level STEP
    # alone (the next has 129 > FIRST_NODES nodes): the lattice STEP Z on
    # the window widened outward; each later call, one round, takes the odd
    # nodes of one or more halvings, coarsest first: each level's, the
    # midpoints of the level before it, ascending, and evaluated once
    f, calls = counting(plain(peaked))
    res = quadrature.integrate_adaptive(f, -3.9, 4.0, tol_rel=1e-12)
    step = quadrature.STEP
    assert np.array_equal(calls[0], step * np.arange(-32, 33))
    assert res.calls == len(calls)
    assert res.evaluated == sum(x.size for x in calls) == res.nodes
    assert len(calls) > 2 and any(x.size > 64 for x in calls[1:3])
    level = calls[0]
    for x in calls[1:]:
        while x.size:
            odd, x = x[:level.size - 1], x[level.size - 1:]
            assert np.array_equal(odd, 0.5 * (level[:-1] + level[1:]))
            level = np.sort(np.concatenate([level, odd]))
    assert level.size == res.nodes


def reference_integrate(f, lo, hi, tol_rel=1e-10,
                        max_nodes=quadrature.MAX_NODES):
    """The rule one level per call: the level STEP (and in it 2 STEP),
    then the odd nodes of each halving, each level summed on its own."""
    h = 2.0 * quadrature.STEP
    start = h * math.floor(lo / h)
    n = max(math.ceil(hi / h) - math.floor(lo / h), 1)
    fx, rx = f(start + quadrature.STEP * np.arange(2 * n + 1))
    nodes = evaluated = 2 * n + 1
    calls = 1
    value = complex((h * fx[::2]).sum() - 0.5 * h * (fx[0] + fx[-1]))
    rounding = float((h * rx[::2]).sum() - 0.5 * h * (rx[0] + rx[-1]))
    fx, rx = fx[1::2], rx[1::2]
    while True:
        h *= 0.5
        n *= 2
        previous = value
        value = 0.5 * value + complex((h * fx).sum())
        rounding = 0.5 * rounding + float((h * rx).sum())
        diff = quadrature.modulus(value - previous)
        if diff <= tol_rel * quadrature.modulus(value) \
                or diff <= np.finfo(float).eps * rounding \
                or not math.isfinite(quadrature.modulus(value)) \
                or nodes + n > max_nodes:
            break
        fx, rx = f(start + h * (np.arange(n) + 0.5))
        nodes += n
        calls += 1
        evaluated += n
    error = diff + np.finfo(float).eps * rounding
    converged = error <= tol_rel * quadrature.modulus(value) < math.inf
    return quadrature.QuadResult(value, error, nodes, calls, evaluated,
                                 converged)


def bits(res):
    """A QuadResult as bytes and counts: equal when bit for bit equal, NaN
    included."""
    return (np.complex128(res.value).tobytes(),
            np.float64(res.error).tobytes(), res.nodes, res.converged)


def assert_matches_reference(f, lo, hi, **kwargs):
    """integrate_adaptive and reference_integrate give the same result bit
    for bit, in no more calls, on the same points.  The first call holds
    the reference's first call and every level of at most
    max(opening, min(FIRST_NODES, max_nodes)) nodes; each later call
    evaluates only nodes that the reference does, none of them twice, so
    the nodes evaluated are the reference's plus the first call's."""
    got_f, got_calls = counting(f)
    want_f, want_calls = counting(f)
    got = quadrature.integrate_adaptive(got_f, lo, hi, **kwargs)
    want = reference_integrate(want_f, lo, hi, **kwargs)
    assert bits(got) == bits(want)
    budget = kwargs.get("max_nodes", quadrature.MAX_NODES)
    assert got_calls[0].size <= max(want_calls[0].size,
                                    min(quadrature.FIRST_NODES, budget))
    assert np.isin(want_calls[0], got_calls[0]).all()
    assert len(got_calls) <= len(want_calls)
    evaluated = np.concatenate(got_calls)
    assert np.unique(evaluated).size == evaluated.size
    assert np.array_equal(np.sort(evaluated), np.union1d(
        np.concatenate(want_calls), got_calls[0]))
    assert (got.calls, got.evaluated) == (len(got_calls), evaluated.size)
    assert (want.calls, want.evaluated) \
        == (len(want_calls), sum(x.size for x in want_calls))
    return got, got_calls


def nan_integrand(x):
    return np.full(np.shape(x), np.nan + 0j)


def gaussian(x):
    return (1.0 - 0.5j) * np.exp(-x * x)


def huge_integrand(x):
    return np.full(np.shape(x), 0.75e308 * (1.0 + 1.0j)), np.zeros(x.size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f, lo, hi, kwargs", [
    (plain(peaked), -4.0, 4.0, {"tol_rel": 1e-12}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12}),
    (plain(peaked), -1.0, 0.5, {"tol_rel": 1e-6}),
    (plain(oscillatory), -4.0, 3.0, {"tol_rel": 1e-12}),
    (plain(oscillatory), -4.0, 3.0, {"tol_rel": 1e-18}),
    # the opening, 161 nodes, is already past FIRST_NODES
    (plain(gaussian), -10.0, 10.0, {"tol_rel": 1e-12}),
    # budgets below the look-ahead, and below the opening
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 100}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 40}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12, "max_nodes": 20}),
    (plain(nan_integrand), 0.0, 1.0, {}),
    (huge_integrand, 0.0, 2.0, {}),
], ids=["peaked", "peaked-short", "peaked-coarse", "oscillatory",
        "rounding-floor", "opening-past-look-ahead", "budget-100",
        "budget-40", "budget-below-opening", "nan", "past-double-range"])
def test_look_ahead_matches_level_by_level_rule(f, lo, hi, kwargs):
    assert_matches_reference(f, lo, hi, **kwargs)


def test_look_ahead_takes_the_levels_up_to_first_nodes():
    # [-2, 2] opens on 33 nodes: the first call takes the levels of 33 and
    # 65 nodes, the lattice (STEP / 2) Z; the levels of 129 nodes and more
    # follow in fewer calls than levels
    res, calls = assert_matches_reference(plain(peaked), -2.0, 2.0,
                                          tol_rel=1e-12)
    step = quadrature.STEP
    assert np.array_equal(calls[0], -2.0 + 0.5 * step * np.arange(65))
    later_levels = round(math.log2((res.nodes - 1) / 64))
    assert 1 < len(calls) < 1 + later_levels
    assert sum(x.size for x in calls) == res.nodes


def test_look_ahead_matches_level_by_level_rule_on_a_line(monkeypatch):
    # a line that goes past the look-ahead, and one that stops within it
    results = []

    def both(f, lo, hi, **kwargs):
        res, calls = assert_matches_reference(f, lo, hi, **kwargs)
        results.append((res, calls))
        return res
    monkeypatch.setattr(mb, "integrate_adaptive", both)
    kernel = GParams(1, 1, 1, 2, (0.3,), (0.1, 0.6)).to_kernel()
    mb.integrate(kernel, 2.0 * cmath.exp(1.3j))
    mb.integrate(kernel, 1.5)
    # the far line's second call takes more than one level: more than the
    # first call's finest level has intervals
    (far, far_calls), (near, near_calls) = results
    assert len(far_calls) > 1 and len(near_calls) == 1
    assert far_calls[1].size > far_calls[0].size - 1
    assert near.nodes <= near_calls[0].size


def test_results_are_bit_reproducible():
    first = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                          tol_rel=1e-12)
    again = quadrature.integrate_adaptive(plain(peaked), -4.0, 4.0,
                                          tol_rel=1e-12)
    assert first == again
    kernel = GParams(2, 2, 2, 2, (0.3, -0.2), (0.1, 0.6)).to_kernel()
    one = mb.integrate(kernel, 0.7 + 0.2j)
    two = mb.integrate(kernel, 0.7 + 0.2j)
    assert (one.value, one.err_estimate, one.nodes_used) \
        == (two.value, two.err_estimate, two.nodes_used)


def test_rounding_bound_refuses_a_cancelling_line_early():
    # z^0.3 e^{-z} at z = 20 is 5.2e-9, against a line integral of |K z^s|
    # near 1: the rounding floor passes the target within a few levels, so
    # the line is refused after a few hundred nodes, where the budget used
    # to be spent first (99,990 nodes), and the residues answer
    params = GParams(1, 0, 0, 1, (), (0.3,))
    with pytest.raises(QuadratureError) as info:
        meijer_g(params, 20.0, method="quad")
    assert info.value.context["nodes"] < 500
    res = meijer_g(params, 20.0)
    exact = float(mpmath.mpf(20) ** mpmath.mpf(0.3) * mpmath.exp(-20))
    assert res.method == "residues_right"
    assert abs(res.value - exact) <= res.err_estimate


def _per_factor_log_grid(kernel, s):
    out = np.zeros(s.shape, dtype=np.complex128)
    for f in kernel.up_left:
        out = out + log_gamma_grid(f.coeff - f.mult * s)
    for f in kernel.up_right:
        out = out + log_gamma_grid(1.0 - f.coeff + f.mult * s)
    for f in kernel.down_left:
        out = out - log_gamma_grid(1.0 - f.coeff + f.mult * s)
    for f in kernel.down_right:
        out = out - log_gamma_grid(f.coeff - f.mult * s)
    return out + s * kernel.base_log


def test_stacked_kernel_log_grid_matches_per_factor_sum():
    g = GParams(2, 1, 2, 3, (0.3, -0.4), (0.1, 0.6, 1.2)).to_kernel()
    h = HParams(2, 1, 1, 3, (0.25,), (0.4, 0.9, -0.3),
                (0.5,), (1.5, 0.75, 2.0)).to_kernel()
    s = 0.2 + 1j * np.linspace(-40.0, 40.0, 301)
    for kernel in (g, h):
        stacked, size = mb.kernel_log_grid(kernel, s)
        np.testing.assert_allclose(stacked, _per_factor_log_grid(kernel, s),
                                   rtol=1e-15, atol=0.0)
        # the size bounds the sum it was taken from
        assert (size >= np.abs(stacked) - np.abs(s * kernel.base_log)).all()


def test_integrate_makes_one_log_gamma_call_per_round(monkeypatch):
    grids, gamma_sizes = [], []
    kernel_log_grid = mb.kernel_log_grid

    def counted_grid(kernel, s):
        grids.append(np.array(s))
        return kernel_log_grid(kernel, s)

    def counted_gamma(z):
        gamma_sizes.append(np.size(z))
        return log_gamma_grid(z)
    monkeypatch.setattr(mb, "kernel_log_grid", counted_grid)
    monkeypatch.setattr(mb, "log_gamma_grid", counted_gamma)
    kernel = GParams(1, 1, 1, 2, (0.3,), (0.1, 0.6)).to_kernel()
    res = mb.integrate(kernel, 2.0 * cmath.exp(1.3j))
    # one kernel grid for the first levels (the folded line opens on 45
    # nodes, and takes the level of 89 with it), then one per later call,
    # each with its three gamma factors stacked in one log-gamma call
    assert grids[0].size == 89
    assert len(grids) > 1
    assert sum(s.size for s in grids) == res.nodes_used
    assert gamma_sizes == [3 * s.size for s in grids]
    # the nodes depend on the line and its height, not on z: another z on
    # the same line evaluates the kernel on the same levels
    first = grids[:]
    del grids[:], gamma_sizes[:]
    again = mb.integrate(kernel, 2.0 * cmath.exp(-1.3j))
    assert again.contour == res.contour
    assert len(grids) == len(first)
    for one, two in zip(first, grids):
        assert np.array_equal(one, two)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f, lo, hi, kwargs", [
    (plain(peaked), -4.0, 4.0, {"tol_rel": 1e-12}),
    (plain(peaked), -2.0, 2.0, {"tol_rel": 1e-12}),
    (plain(peaked), -1.0, 0.5, {"tol_rel": 1e-6}),
    (plain(oscillatory), -4.0, 3.0, {"tol_rel": 1e-12}),
], ids=["peaked", "peaked-short", "peaked-coarse", "oscillatory"])
def test_squaring_levels_take_fewer_calls_on_the_same_points(f, lo, hi,
                                                              kwargs):
    # once two level differences show the squaring, a call takes the
    # levels down to the predicted stop: 9 -> 6, 13 -> 9, 8 -> 3 and 8 -> 5
    # calls, on the reference's points
    got, calls = assert_matches_reference(f, lo, hi, **kwargs)
    want = reference_integrate(f, lo, hi, **kwargs)
    assert got.converged and got.calls < want.calls
    assert got.evaluated == want.evaluated == got.nodes


def levelled(values):
    """An integrand on the window [0, 1] whose level k (step 2 STEP / 2^k)
    sums to about values[k], with no rounding bound: the level 2 STEP is
    values[0] everywhere, and level k's odd nodes, whose weights add up to
    1/2, are 2 values[k] - values[k - 1]."""
    odd = np.array([values[0]] + [2.0 * v - u for u, v
                                  in zip(values, values[1:])], dtype=complex)

    def f(x):
        scaled, level = x / (2.0 * quadrature.STEP), np.zeros(x.size, int)
        while (fraction := scaled % 1.0 != 0.0).any():
            level += fraction
            scaled = np.where(fraction, 2.0 * scaled, scaled)
        return odd[level], np.zeros(x.size)
    return f


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("differences", [
    [1e-9 * 2.0 ** k for k in range(8)],
    [1e-9] * 8,
    [1e-3 * 0.1 ** k for k in range(8)],
    [1e-3, 1e-5, 1e-8, 1e-8, 1e-7, 1e-9, 1e-9, 1e-10],
], ids=["rise", "stall", "geometric", "stall-after-squaring"])
def test_levels_without_squaring_take_one_level_per_call(differences):
    # nine levels, the last of 1025 nodes: the first call takes the levels
    # of up to 65 nodes, and the differences show no squaring when a call
    # is due, so each later level costs one call, as in the reference
    values = np.cumsum([1.0] + differences)
    got, calls = assert_matches_reference(
        levelled(values), 0.0, 1.0, tol_rel=1e-14, max_nodes=1025)
    assert [x.size for x in calls] == [65, 64, 128, 256, 512]
    assert got.nodes == 1025 and not got.converged


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("before, diff, scale, target", [
    (math.nan, 1e-4, 1.0, 1e-30),  # the first comparison
    (1e-5, 1e-4, 1.0, 1e-30),  # rising
    (1e-4, 1e-4, 1.0, 1e-30),  # stalled
    (1e-3, 1e-4, 1.0, 1e-30),  # falling, but slower than a^1.5
    (2.0, 1e-6, 1.0, 1e-30),  # a past |value|
    (0.0, 1e-6, 1.0, 1e-30),
    (1e-3, 0.0, 1.0, 1e-30),
    (0.0, 0.0, 0.0, 0.0),
    (1e-3, 1e-6, 0.0, 0.0),  # a value of 0
    # subnormal differences that square towards a target of 1e-22 |value|,
    # two levels on if they were normal
    (2e-308, 2e-312, 1e-300, 1e-322),
    (1e-3, 5e-324, 1.0, 1e-30),
    (math.inf, 1e-6, 1.0, 1e-30),
    (1e-3, math.inf, 1.0, 1e-30),
    (1e-3, 1e-6, math.inf, 1e-30),
    (math.nan, math.nan, 1.0, 1e-30),
    (1e-3, math.nan, 1.0, 1e-30),
    (1e-3, 1e-6, math.nan, 1e-30),
    (1e-3, 1e-6, 1.0, math.inf),
    (1e-3, 1e-6, 1.0, math.nan),
])
def test_no_squaring_predicts_one_level(before, diff, scale, target):
    assert quadrature._reach(64, before, diff, scale, target,
                             quadrature.MAX_NODES) == 129


def test_squaring_predicts_the_stop_level_within_the_budget():
    # a = 1e-3, b = 1e-5: C = a^2 / b = 0.1, so the next differences are
    # 1e-9 and 1e-17; a target of 1e-12 is met two levels on, one of 1e-18
    # three levels on unless the budget stops short of it
    reach = quadrature._reach
    assert reach(64, 1e-3, 1e-5, 1.0, 1e-8, 10 ** 6) == 129
    assert reach(64, 1e-3, 1e-5, 1.0, 1e-12, 10 ** 6) == 257
    assert reach(64, 1e-3, 1e-5, 1.0, 1e-18, 10 ** 6) == 513
    # the differences are relative to the value
    assert reach(64, 1e-13, 1e-15, 1e-10, 1e-28, 10 ** 6) == 513
    assert reach(64, 1e-3, 1e-5, 1.0, 1e-18, 512) == 257
    assert reach(64, 1e-3, 1e-5, 1.0, 1e-18, 256) == 129


@pytest.mark.parametrize("max_nodes", [20, 40, 100, 3000, 10000])
def test_a_jump_never_passes_the_node_budget(max_nodes):
    # the finest level evaluated after each call has at most max_nodes
    # nodes (the opening of 65, past a budget of 20 or 40, aside); at 10000
    # the squaring predicts a stop past the budget, and the jump ends at
    # the level of 8193
    res, calls = assert_matches_reference(plain(peaked), -4.0, 4.0,
                                          tol_rel=1e-15, max_nodes=max_nodes)
    sizes = np.cumsum([x.size for x in calls])
    assert (sizes[1:] <= max_nodes).all()
    assert sizes[-1] == res.nodes <= max(max_nodes, 65)
    assert not res.converged


def test_every_tabulate_quad_line_keeps_the_reference_points(monkeypatch):
    # tabulate_quad seed 1's 300 lines: each bit for bit the rule one level
    # per call, on the points of the first call and the reference's, in
    # fewer calls than the first call and then one per level took (619)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import bank
    import calls as bank_calls
    lines = []

    def checked(f, lo, hi, **kwargs):
        res, calls = assert_matches_reference(f, lo, hi, **kwargs)
        lines.append((res, calls))
        return res
    monkeypatch.setattr(mb, "integrate_adaptive", checked)
    for case in bank.make_bank("tabulate_quad", 1):
        bank_calls.make_call(case)()
    assert len(lines) == 300
    level_by_level = sum(
        1 + max(0, round(math.log2((res.nodes - 1) / (calls[0].size - 1))))
        for res, calls in lines)
    made = sum(res.calls for res, _ in lines)
    assert made <= 540 < level_by_level
