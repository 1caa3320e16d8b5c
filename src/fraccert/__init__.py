"""Certification and solving toolkit for a system of two nonlocal
fractional boundary value problems in Hammerstein integral form.

The package builds the Green's kernels of the two equations, computes
the cone constants and threshold constants (m, M and their closed-form
envelope estimates m_hat, M_hat), checks fixed-point-index conditions
that certify existence, multiplicity or nonexistence of nontrivial
solutions, and solves the equivalent integral system on a collocation
grid by damped Picard iteration.
"""

from .certify import (Box3, Certificate, CertificateInvalid, ConditionFailed,
                      ConditionResult, ExtremumEstimate, LadderOrderViolation,
                      PATTERNS, box_inf, box_sup, check_I0, check_I0_star,
                      check_I1, check_nonexistence, check_pattern,
                      revalidate_certificate, search_certificate)
from .exprlang import (EvalError, Expr, ExprError, eval_expr, eval_expr_array,
                       parse, pretty)
from .kernel import (BoundReport, KernelBoundError, KernelModel, ParamError,
                     ProblemParams, build_model, compute_c, kernel_values,
                     phi_values, validate_params, verify_kernel_bounds)
from .problem import Options, Problem
from .quadrature import (ConstantsReport, compute_constants, compute_hat_constants,
                         compute_M, compute_m)
from .solver import (ConeReport, GridSolution, SystemGrid, apply_T, build_grid,
                     cone_metrics, interpolate_nodes, solve_picard)

__version__ = "0.1.0"

__all__ = [
    "Box3",
    "BoundReport",
    "Certificate",
    "CertificateInvalid",
    "ConditionFailed",
    "ConditionResult",
    "ConeReport",
    "ConstantsReport",
    "EvalError",
    "Expr",
    "ExprError",
    "ExtremumEstimate",
    "GridSolution",
    "KernelBoundError",
    "KernelModel",
    "LadderOrderViolation",
    "Options",
    "PATTERNS",
    "ParamError",
    "Problem",
    "ProblemParams",
    "SystemGrid",
    "apply_T",
    "box_inf",
    "box_sup",
    "build_grid",
    "build_model",
    "check_I0",
    "check_I0_star",
    "check_I1",
    "check_nonexistence",
    "check_pattern",
    "compute_M",
    "compute_c",
    "compute_constants",
    "compute_hat_constants",
    "compute_m",
    "cone_metrics",
    "eval_expr",
    "eval_expr_array",
    "interpolate_nodes",
    "kernel_values",
    "parse",
    "phi_values",
    "pretty",
    "revalidate_certificate",
    "search_certificate",
    "solve_picard",
    "validate_params",
    "verify_kernel_bounds",
]
