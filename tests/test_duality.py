import numpy as np
import pytest

from mbint import duality, polyroots
from mbint.duality import CoefficientMatrix
from mbint.errors import DegenerateMatrixError, ParameterError

BETA = CoefficientMatrix(((0.0, -1.0), (1.0, -1.0)))


def test_as_ode_first_order_shape():
    spec = duality.as_ode(BETA)
    assert spec.order == 1 and spec.exp_poly_degree == 1
    assert spec.coefficient(0) == (0.0, -1.0)   # -e^{-t} multiplies psi
    assert spec.coefficient(1) == (1.0, -1.0)   # 1 - e^{-t} multiplies psi'


def test_as_ode_one_by_one():
    spec = duality.as_ode(CoefficientMatrix(((1.0,),)))
    assert spec.order == 0 and spec.exp_poly_degree == 0


def test_as_ode_structural_transcription():
    rng = np.random.default_rng(21)
    entries = rng.uniform(-1, 1, (2, 3)) + 1.0j * rng.uniform(-1, 1, (2, 3))
    A = CoefficientMatrix(tuple(map(tuple, entries)))
    spec = duality.as_ode(A)
    assert spec.order == 1 and spec.exp_poly_degree == 2
    for h in range(2):
        assert spec.coefficient(h) == tuple(entries[h])


def test_as_fde_beta_collects_to_known_form():
    spec = duality.as_fde(BETA)
    assert spec.order == 1 and spec.poly_degree == 1
    # coefficient of f(x):   x        coefficient of f(x+1): -(x + 2)
    assert np.allclose(spec.coefficient_in_x(0), (0.0, 1.0))
    assert np.allclose(spec.coefficient_in_x(1), (-2.0, -1.0))


def test_as_fde_beta_solution_residual():
    # oracle: f(x) = Gamma(x)/Gamma(x+2) = 1/(x (x+1)) satisfies the FDE
    spec = duality.as_fde(BETA)

    def f(x):
        return 1.0 / (x * (x + 1.0))

    for x in (0.7, 1.9, 3.3 + 0.5j, -0.4 + 2.0j):
        total = sum(polyroots.polyval(np.asarray(spec.coefficient_in_x(k)), x)
                    * f(x + k) for k in range(2))
        assert abs(total) < 1e-14


def test_as_fde_one_by_one():
    spec = duality.as_fde(CoefficientMatrix(((1.0,),)))
    assert spec.order == 0 and spec.coefficient(0) == (1.0,)


def test_first_order_fde_shape_for_two_row_matrices():
    rng = np.random.default_rng(22)
    entries = rng.uniform(-1, 1, (2, 4))
    entries[-1, -1] += 2.0
    A = CoefficientMatrix(tuple(map(tuple, entries)))
    spec = duality.as_fde(A)
    assert spec.order == 3 and spec.poly_degree == 1
    for k in range(4):
        assert spec.coefficient(k) == tuple(entries[:, k])


def test_ode_singular_polynomial():
    poly = duality.ode_singular_polynomial(BETA)
    assert np.allclose(poly, (1.0, -1.0))        # 1 - z, root z = 1
    roots = polyroots.roots(poly)
    assert np.allclose(roots, [1.0])
    mono = duality.ode_singular_polynomial(
        CoefficientMatrix(((0.0, 1.0), (1.0, 0.0))))
    assert np.allclose(mono, (1.0, 0.0))         # constant, no finite roots
    pure = duality.ode_singular_polynomial(
        CoefficientMatrix(((1.0, 0.0), (0.0, 1.0))))
    assert np.allclose(pure, (0.0, 1.0))         # z, root 0


def test_fde_singular_polynomial():
    assert np.allclose(duality.fde_singular_polynomial(BETA), (0.0, 1.0))
    ones = CoefficientMatrix(((1.0, 1.0), (1.0, 1.0)))
    assert np.allclose(duality.fde_singular_polynomial(ones), (1.0, 1.0))
    const = CoefficientMatrix(((2.5, 1.0),))
    assert np.allclose(duality.fde_singular_polynomial(const), (2.5,))


def test_orders_swap():
    rng = np.random.default_rng(23)
    A = CoefficientMatrix(tuple(map(tuple, rng.uniform(0.2, 1, (2, 4)))))
    assert duality.orders(A) == (1, 3, 3, 1)
    assert duality.orders(CoefficientMatrix(((1.0,),))) == (0, 0, 0, 0)
    B = CoefficientMatrix(tuple(map(tuple, rng.uniform(0.2, 1, (3, 2)))))
    assert duality.orders(B) == (2, 1, 1, 2)
    assert duality.orders(B.transpose()) == (1, 2, 2, 1)


def test_round_trips_entry_exact():
    rng = np.random.default_rng(24)
    for _ in range(100):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        entries = rng.normal(size=(rows, cols)) \
            + 1j * rng.normal(size=(rows, cols))
        entries[-1, 0] += 3.0
        entries[0, -1] += 3.0
        A = CoefficientMatrix(tuple(map(tuple, entries)))
        assert duality.as_ode(A).to_matrix().entries == A.entries
        assert duality.as_fde(A).to_matrix().entries == A.entries
        assert CoefficientMatrix.from_json(A.to_json()).entries == A.entries


def test_degenerate_matrices_rejected():
    with pytest.raises(DegenerateMatrixError):
        CoefficientMatrix(((1.0, 1.0), (0.0, 0.0)))   # zero top row
    with pytest.raises(DegenerateMatrixError):
        CoefficientMatrix(((1.0, 0.0), (1.0, 0.0)))   # zero top column
    with pytest.raises(DegenerateMatrixError):
        CoefficientMatrix(((0.0,),))


BETA_JSON = {"rows": 2, "cols": 2,
             "entries": [[0, 0], [-1, 0], [1, 0], [-1, 0]]}


def test_from_json_reads_integral_sizes_and_numeric_pairs():
    # a size written as 2.0, and numpy numbers from a caller's own dict
    obj = {"rows": np.int64(2), "cols": 2.0,
           "entries": [[0, 0], [np.float32(-1.0), 0], (1, 0), [-1.0, 0.0]]}
    expected = CoefficientMatrix.from_json(BETA_JSON).entries
    assert CoefficientMatrix.from_json(obj).entries == expected
    assert expected == ((0j, -1 + 0j), (1 + 0j, -1 + 0j))


@pytest.mark.parametrize("obj", [
    [1, 2], "beta", None,                            # not an object
    {"cols": 2, "entries": BETA_JSON["entries"]},    # missing rows
    {"rows": 2, "entries": BETA_JSON["entries"]},    # missing cols
    {**BETA_JSON, "rows": "2"},                      # non-integer sizes
    {**BETA_JSON, "cols": 1.5},
    {**BETA_JSON, "rows": True},
    {**BETA_JSON, "rows": float("nan")},
    {"rows": 10 ** 400, "cols": 1, "entries": []},   # an int past float
    {"rows": 2, "cols": 2},                          # no entries list
    {**BETA_JSON, "entries": {"0": [1, 0]}},
    {**BETA_JSON, "entries": [[0, 0], [-1, 0], [1, 0]]},  # wrong count
    {**BETA_JSON, "entries": [[0, 0], [-1], [1, 0], [-1, 0]]},  # not pairs
    {**BETA_JSON, "entries": [[0, 0], [-1, 0, 0], [1, 0], [-1, 0]]},
    {**BETA_JSON, "entries": [[0, 0], -1, [1, 0], [-1, 0]]},
    {**BETA_JSON, "entries": [[0, 0], ["-1", 0], [1, 0], [-1, 0]]},
    {**BETA_JSON, "entries": [[0, 0], [None, 0], [1, 0], [-1, 0]]},
    {**BETA_JSON, "entries": [[0, 0], [True, 0], [1, 0], [-1, 0]]},
    {"rows": 0, "cols": 0, "entries": []},           # empty
    {"rows": -1, "cols": -1, "entries": [[1, 0]]},
])
def test_from_json_refuses_a_malformed_shape(obj):
    # KeyError, IndexError or TypeError before: the CLI exited 1
    with pytest.raises(ParameterError):
        CoefficientMatrix.from_json(obj)
