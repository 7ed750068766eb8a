import numpy as np

from mbint import mellin_barnes as mb
from mbint import quadrature
from mbint.cgamma import log_gamma_grid
from mbint.special_functions import GParams, HParams


def counting(f):
    """f plus a record of the number of abscissae of every call."""
    sizes = []

    def wrapped(x):
        sizes.append(np.size(x))
        return f(x)
    return wrapped, sizes


# 8 equal opening panels on [-1, 2]
EIGHT_PANELS = np.linspace(-1.0, 2.0, 9)


def peaked(x, eps=1e-3):
    return (1.0 + 2.0j) / (x * x + eps * eps)


def peaked_exact(a, b, eps=1e-3):
    return (1.0 + 2.0j) * (np.arctan(b / eps) - np.arctan(a / eps)) / eps


def oscillatory(x, w=-0.1 + 60.0j):
    return np.exp(w * x)


def oscillatory_exact(a, b, w=-0.1 + 60.0j):
    return (np.exp(w * b) - np.exp(w * a)) / w


def test_one_panel_exact_to_degree_22():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=23) + 1j * rng.normal(size=23)
    poly = np.polynomial.Polynomial(coeffs)
    a, b = -0.7, 1.3
    exact = poly.integ()(b) - poly.integ()(a)
    value, _ = quadrature.kronrod_panel(poly, a, b)
    assert abs(value - exact) < 1e-13 * abs(exact)
    one = quadrature.integrate_adaptive(poly, [a, b], max_nodes=15)
    assert one.nodes == 15
    assert one.value == value


def test_peaked_integrand_closed_form():
    res = quadrature.integrate_adaptive(peaked, EIGHT_PANELS, tol_rel=1e-12)
    exact = peaked_exact(-1.0, 2.0)
    assert res.converged
    assert abs(res.value - exact) < 1e-12 * abs(exact)
    assert res.error <= 1e-12 * abs(res.value)


def test_oscillatory_integrand_closed_form():
    res = quadrature.integrate_adaptive(oscillatory,
                                        np.linspace(0.0, 10.0, 9),
                                        tol_rel=1e-12)
    exact = oscillatory_exact(0.0, 10.0)
    assert res.converged
    assert abs(res.value - exact) < 1e-12 * abs(exact)


def test_node_budget_is_respected():
    f, sizes = counting(peaked)
    res = quadrature.integrate_adaptive(f, EIGHT_PANELS, tol_rel=1e-12,
                                        max_nodes=200)
    assert not res.converged
    assert res.nodes <= 200
    assert sum(sizes) == res.nodes
    # the budget admitted one round of the two worst panels
    assert sizes == [120, 60]


def test_budget_below_first_round_stops_after_it():
    f, sizes = counting(peaked)
    res = quadrature.integrate_adaptive(f, EIGHT_PANELS, tol_rel=1e-12,
                                        max_nodes=100)
    assert not res.converged
    assert res.nodes == 120
    assert sizes == [120]


def test_nan_estimate_stops_at_once():
    f, sizes = counting(lambda x: np.full(np.shape(x), np.nan + 0j))
    res = quadrature.integrate_adaptive(f, np.linspace(0.0, 1.0, 9))
    assert not res.converged
    assert res.nodes == 120
    assert sizes == [120]


def test_sum_past_the_double_range_ends_unconverged():
    # finite parts, modulus 2.1e308: abs() of the sum raised OverflowError
    res = quadrature.integrate_adaptive(
        lambda x: np.full(np.shape(x), 0.75e308 * (1.0 + 1.0j)), [0.0, 2.0])
    assert res.value.real == res.value.imag
    assert abs(res.value.real - 1.5e308) <= 1e-14 * 1.5e308
    assert not res.converged


def test_integrand_called_once_per_round():
    f, sizes = counting(peaked)
    res = quadrature.integrate_adaptive(f, EIGHT_PANELS, tol_rel=1e-12)
    assert sizes[0] == 8 * 15
    assert all(n > 0 and n % 30 == 0 for n in sizes[1:])
    assert sum(sizes) == res.nodes
    # every round bisects at least one panel, and often many at once
    panels = res.nodes // 15
    assert 1 < len(sizes) < panels // 4


def test_results_are_bit_reproducible():
    first = quadrature.integrate_adaptive(peaked, EIGHT_PANELS, tol_rel=1e-12)
    again = quadrature.integrate_adaptive(peaked, EIGHT_PANELS, tol_rel=1e-12)
    assert first == again
    kernel = GParams(2, 2, 2, 2, (0.3, -0.2), (0.1, 0.6)).to_kernel()
    one = mb.integrate(kernel, 0.7 + 0.2j)
    two = mb.integrate(kernel, 0.7 + 0.2j)
    assert (one.value, one.err_estimate, one.nodes_used) \
        == (two.value, two.err_estimate, two.nodes_used)


def test_equal_panel_edges_reproduce_pinned_results():
    # float.hex of what integrate_adaptive(peaked, -1.0, 2.0, tol_rel=1e-12,
    # initial_panels=n) returned before the opening panels became an
    # argument: explicit linspace edges give the same bits
    pinned = {8: ("0x1.8882f70572944p+11", "0x1.8882f70572944p+12",
                  "0x1.4a5953ad2432ap-31", 1230),
              3: ("0x1.8882f70572944p+11", "0x1.8882f70572944p+12",
                  "0x1.9b8e8fd3b203fp-32", 1335)}
    for panels, (re, im, err, nodes) in pinned.items():
        res = quadrature.integrate_adaptive(
            peaked, np.linspace(-1.0, 2.0, panels + 1), tol_rel=1e-12)
        assert res.value == complex(float.fromhex(re), float.fromhex(im))
        assert res.error == float.fromhex(err)
        assert res.nodes == nodes


def test_graded_opening_resolves_algebraic_endpoint_in_one_round():
    # t^0.17 on [0, 1]: bisection from 8 equal panels halves the panel at
    # t = 0 once per round; the graded mesh [0, 2^-29, ..., 1/2, 1] is that
    # ladder built at once, with (2^-29)^1.17 <= tol in its innermost panel
    def power(t):
        return t ** 0.17 + 0.0j
    exact = 1.0 / 1.17
    tol = 1e-10
    f, equal_sizes = counting(power)
    equal = quadrature.integrate_adaptive(f, np.linspace(0.0, 1.0, 9),
                                          tol_rel=tol)
    f, graded_sizes = counting(power)
    graded = quadrature.integrate_adaptive(
        f, np.concatenate(([0.0], 0.5 ** np.arange(29, -1, -1))), tol_rel=tol)
    for res in (equal, graded):
        assert res.converged
        assert abs(res.value - exact) < tol * exact
    assert len(graded_sizes) == 1 and len(equal_sizes) >= 15
    assert graded.nodes < 0.75 * equal.nodes


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
        stacked = mb.kernel_log_grid(kernel, s)
        np.testing.assert_allclose(stacked, _per_factor_log_grid(kernel, s),
                                   rtol=1e-15, atol=0.0)


def test_integrate_makes_one_log_gamma_call_per_round(monkeypatch):
    grid_sizes, gamma_sizes, round_sizes = [], [], []
    kernel_log_grid = mb.kernel_log_grid
    kronrod_panels = quadrature.kronrod_panels

    def counted_grid(kernel, s):
        grid_sizes.append(np.size(s))
        return kernel_log_grid(kernel, s)

    def counted_gamma(z):
        gamma_sizes.append(np.size(z))
        return log_gamma_grid(z)

    def counted_round(f, a, b, fx=None):
        round_sizes.append(15 * np.size(a))
        return kronrod_panels(f, a, b, fx)
    monkeypatch.setattr(mb, "kernel_log_grid", counted_grid)
    monkeypatch.setattr(mb, "log_gamma_grid", counted_gamma)
    monkeypatch.setattr(quadrature, "kronrod_panels", counted_round)
    mb._opening_log_grid.cache_clear()
    kernel = GParams(2, 2, 2, 2, (0.3, -0.2), (0.1, 0.6)).to_kernel()
    res = mb.integrate(kernel, 0.7 + 0.2j)
    # one kernel grid per round, the opening round's included, its four
    # gamma factors stacked in one call
    assert grid_sizes == round_sizes and len(round_sizes) > 1
    assert sum(grid_sizes) == res.nodes_used
    assert gamma_sizes == [4 * n for n in grid_sizes]
    # the opening grid is built once per (kernel, sigma, T): a later call
    # on the same line, at any z, makes one call per refinement round only
    for z in (0.7 + 0.2j, 0.4 - 0.5j):
        del grid_sizes[:], gamma_sizes[:], round_sizes[:]
        again = mb.integrate(kernel, z)
        assert again.contour == res.contour
        assert grid_sizes == round_sizes[1:] and len(round_sizes) > 1
        assert sum(round_sizes) == again.nodes_used
        assert gamma_sizes == [4 * n for n in grid_sizes]
