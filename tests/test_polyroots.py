import numpy as np
import pytest

from mbint import polyroots
from mbint.errors import RootFindingError


def test_roots_of_constructed_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(200):
        deg = int(rng.integers(1, 7))
        true = rng.uniform(-3, 3, deg) + 1j * rng.uniform(-3, 3, deg)
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        coeffs = polyroots.from_roots(true, lead)
        got = polyroots.roots(coeffs)
        rebuilt = polyroots.from_roots(got, lead)
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) < 1e-10 * scale


def test_conjugate_pair():
    got = polyroots.roots([1.0, 0.0, 1.0])  # x^2 + 1
    assert np.allclose(sorted(got, key=lambda z: z.imag), [-1j, 1j],
                       atol=1e-12)


def test_factored_quadratic():
    got = polyroots.roots([2.0, -3.0, 1.0])  # (x-1)(x-2)
    assert np.allclose(got, [1.0, 2.0], atol=1e-10)


def test_degree_zero_and_one():
    assert len(polyroots.roots([3.0])) == 0
    assert np.allclose(polyroots.roots([3.0, -1.5]), [2.0])


def test_repeated_roots_still_reconstruct():
    coeffs = polyroots.from_roots([1.0, 1.0, -2.0])
    got = polyroots.roots(coeffs)
    rebuilt = polyroots.from_roots(got, 1.0)
    assert np.max(np.abs(rebuilt - coeffs)) < 1e-8


def test_shift_identity():
    rng = np.random.default_rng(6)
    coeffs = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
    shifted = polyroots.shift(coeffs, 1.0)
    x = 0.37 + 0.21j
    assert abs(polyroots.polyval(shifted, x)
               - polyroots.polyval(coeffs, x + 1.0)) < 1e-12


def test_failed_reconstruction_raises(monkeypatch):
    # eigenvalues that do not rebuild the coefficients are refused
    monkeypatch.setattr(np, "roots", lambda c: np.array([1.0, 3.0]))
    with pytest.raises(RootFindingError):
        polyroots.roots([2.0, -3.0, 1.0])  # (x-1)(x-2)


def test_trim_keeps_one_entry():
    # an empty list reads as the zero polynomial, as an all-zero one does
    for coeffs in ([], [0.0], [0.0, 0.0]):
        assert polyroots.trim(coeffs).tolist() == [0j]
    assert polyroots.trim([1.0, 2.0, 0.0]).tolist() == [1 + 0j, 2 + 0j]
