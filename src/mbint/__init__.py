"""Gamma-kernel contour integration and equation duality toolkit.

One coefficient table read as either a linear ODE with exponential-
polynomial coefficients or a linear difference equation with polynomial
coefficients; gamma-quotient closed forms for the first-order difference
case; and Mellin-Barnes contour evaluation of generalized hypergeometric,
Meijer G and Fox H functions with quadrature and residue-series routes
cross-checking each other.
"""

from .cgamma import (POLE_TOLERANCE, PoleReport, asymptotic_log_abs_gamma,
                     detect_pole, log_gamma, pochhammer)
from .duality import (CoefficientMatrix, FDESpec, ODESpec, as_fde, as_ode,
                      fde_singular_polynomial, ode_singular_polynomial,
                      orders)
from .fde_solutions import (FirstOrderFDE, RootData, coefficient_roots,
                            fde_ratio_residual, gamma_quotient,
                            inverse_transform_solution, solution_value)
from .laplace import (ClosedFormPsi, fde_numeric_residual, laplace_transform,
                      solve_first_order_ode)
from .mellin_barnes import (Contour, ConvergenceClass, EvalResult,
                            GammaFactor, MellinKernel, choose_contour,
                            convergence_class, integrate, kernel_eval,
                            kernel_log_eval, pole_families, residue_series)
from .special_functions import (GParams, HParams, PFQClass,
                                ThetaOperatorForm, classify_pfq, derive_g_ode,
                                fox_h, g_ode_residual, meijer_g, pfq,
                                pfq_via_g, series_recurrence_residual,
                                theta_form_from_g)

__version__ = "0.1.0"
