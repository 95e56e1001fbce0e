from .analytic import TestFunction, cosine_pair, quadratic, ridge
from .pde import KlExpansion, PdeModel, build_kl, coefficient_field, gradient_q, make_pde_model, qoi, solve_forward

__all__ = [
    "TestFunction",
    "cosine_pair",
    "ridge",
    "quadratic",
    "KlExpansion",
    "PdeModel",
    "build_kl",
    "make_pde_model",
    "coefficient_field",
    "solve_forward",
    "qoi",
    "gradient_q",
]
