"""One coefficient table, two equations.

A CoefficientMatrix entry a[h][k] simultaneously encodes

* a linear ODE of order m whose psi^(h) coefficient is the polynomial
  sum_k a[h][k] u^k in u = exp(-t), and
* a linear finite-difference equation of order p whose f(x+k) coefficient
  is the polynomial sum_h a[h][k] (x+k)^h.

Both readings are views of the same immutable matrix, so the order/degree
swap (m, p) <-> (p, m) and the round trips are identities of the data model
rather than theorems about it.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, ParameterError
from . import polyroots


def _as_entries(rows):
    out = []
    width = None
    for row in rows:
        row = tuple(complex(v) for v in row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParameterError("coefficient rows must have equal length")
        out.append(row)
    if not out or width == 0:
        raise ParameterError("coefficient matrix must be non-empty")
    return tuple(out)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_whole(v):
    return _is_real(v) and (isinstance(v, numbers.Integral)
                            or float(v).is_integer())


@dataclass(frozen=True)
class CoefficientMatrix:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_entries(self.entries))
        if all(v == 0 for v in self.entries[-1]):
            raise DegenerateMatrixError("top derivative row is identically zero")
        if all(row[-1] == 0 for row in self.entries):
            raise DegenerateMatrixError("top shift column is identically zero")

    @property
    def ode_order(self):
        return len(self.entries) - 1

    @property
    def fde_order(self):
        return len(self.entries[0]) - 1

    def row(self, h):
        return self.entries[h]

    def column(self, k):
        return tuple(row[k] for row in self.entries)

    def transpose(self):
        return CoefficientMatrix(tuple(zip(*self.entries)))

    def to_json(self):
        flat = [[v.real, v.imag] for row in self.entries for v in row]
        return {"rows": len(self.entries), "cols": len(self.entries[0]),
                "entries": flat}

    @classmethod
    def from_json(cls, obj):
        """The matrix of a to_json object; any other shape is a
        ParameterError."""
        if not isinstance(obj, dict):
            raise ParameterError("matrix JSON must be an object")
        rows, cols, flat = (obj.get(k) for k in ("rows", "cols", "entries"))
        if not (_is_whole(rows) and _is_whole(cols)):
            raise ParameterError("matrix JSON needs integer rows and cols",
                                 rows=rows, cols=cols)
        rows, cols = int(rows), int(cols)
        if not isinstance(flat, (list, tuple)) or len(flat) != rows * cols:
            raise ParameterError("entries must be a list of rows*cols pairs",
                                 rows=rows, cols=cols)
        for entry in flat:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(map(_is_real, entry))):
                raise ParameterError("matrix entry must be a pair [re, im] "
                                     "of numbers", entry=entry)
        return cls(tuple(
            tuple(complex(*e) for e in flat[i * cols:(i + 1) * cols])
            for i in range(rows)))


@dataclass(frozen=True)
class ODESpec:
    """Order-m ODE with coefficients polynomial in u = exp(-t)."""

    order: int
    exp_poly_degree: int
    coeff_polys: tuple  # coeff_polys[h][k] multiplies u^k

    def coefficient(self, h):
        return self.coeff_polys[h]

    def to_matrix(self):
        return CoefficientMatrix(self.coeff_polys)


@dataclass(frozen=True)
class FDESpec:
    """Order-p difference equation with coefficients polynomial in (x+k)."""

    order: int
    poly_degree: int
    coeff_polys: tuple  # coeff_polys[k][h] multiplies (x+k)^h

    def coefficient(self, k):
        return self.coeff_polys[k]

    def coefficient_in_x(self, k):
        """The f(x+k) coefficient expanded in plain powers of x."""
        return tuple(polyroots.shift(self.coeff_polys[k], k))

    def to_matrix(self):
        return CoefficientMatrix(tuple(zip(*self.coeff_polys)))


def as_ode(matrix):
    return ODESpec(order=matrix.ode_order,
                   exp_poly_degree=matrix.fde_order,
                   coeff_polys=matrix.entries)


def as_fde(matrix):
    return FDESpec(order=matrix.fde_order,
                   poly_degree=matrix.ode_order,
                   coeff_polys=tuple(zip(*matrix.entries)))


def ode_singular_polynomial(matrix):
    """Coefficients whose roots are the singular points in u = exp(-t)."""
    return np.asarray(matrix.row(matrix.ode_order), dtype=np.complex128)


def fde_singular_polynomial(matrix):
    """Coefficients whose roots are the singular points of the FDE."""
    return np.asarray(matrix.column(0), dtype=np.complex128)


def orders(matrix):
    """(ode_order, ode_exp_degree, fde_order, fde_poly_degree)."""
    m, p = matrix.ode_order, matrix.fde_order
    return (m, p, p, m)
