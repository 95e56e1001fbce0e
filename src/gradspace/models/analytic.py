"""Analytic test functions with exact gradients.

Every constructed function cross-checks its gradient against finite
differences at a handful of random interior points, so a typo in a gradient
formula fails fast at construction time rather than polluting experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import Hyperrectangle, finite_difference_jacobian
from ..util import make_rng

__all__ = ["TestFunction", "cosine_pair", "ridge", "quadratic", "builtin_test_functions"]

_SELF_CHECK_POINTS = 10
_SELF_CHECK_TOL = 1e-4


@dataclass(frozen=True)
class TestFunction:
    __test__ = False  # keep pytest from collecting this as a test case

    name: str
    domain: Hyperrectangle
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        rng = make_rng(0, stream=987)
        # stay slightly interior so forward differences cannot exit the box
        shrink = 1e-3 * (self.domain.upper - self.domain.lower)
        inner = Hyperrectangle(self.domain.lower + shrink, self.domain.upper - shrink)
        for _ in range(_SELF_CHECK_POINTS):
            s = inner.sample(rng, 1)[0]
            g = np.asarray(self.grad(s), dtype=float)
            fd = finite_difference_jacobian(self.f, self.domain, s)
            if np.linalg.norm(fd - g) > _SELF_CHECK_TOL * (1.0 + np.linalg.norm(g)):
                raise ValueError(
                    f"gradient of '{self.name}' disagrees with finite differences"
                )

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def __call__(self, s) -> float:
        return float(self.f(np.asarray(s, dtype=float)))


def cosine_pair(w1: float = 1.0, w2: float = 1.0, half_width: float = np.pi) -> TestFunction:
    """cos(w1*s1 + w2*s2) on a centered square."""
    w = np.array([w1, w2])

    def f(s):
        return float(np.cos(w @ s))

    def grad(s):
        return -np.sin(w @ s) * w

    return TestFunction(
        name=f"cos({w1:g}*s1+{w2:g}*s2)",
        domain=Hyperrectangle.cube(2, half_width),
        f=f,
        grad=grad,
    )


def ridge(
    direction,
    profile: Callable[[float], float] = np.sin,
    profile_deriv: Callable[[float], float] = np.cos,
    half_width: float = 1.0,
) -> TestFunction:
    """profile(direction . s): varies along a single direction only."""
    a = np.asarray(direction, dtype=float)
    if a.ndim != 1 or not np.any(a):
        raise ValueError("direction must be a nonzero vector")

    def f(s):
        return float(profile(a @ s))

    def grad(s):
        return profile_deriv(a @ s) * a

    return TestFunction(
        name=f"ridge(d={a.size})",
        domain=Hyperrectangle.cube(a.size, half_width),
        f=f,
        grad=grad,
    )


def quadratic(A, half_width: float = 1.0) -> TestFunction:
    """0.5 * s^T A s for symmetric A on a centered cube."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("A must be symmetric")

    def f(s):
        return 0.5 * float(s @ A @ s)

    def grad(s):
        return A @ s

    return TestFunction(
        name=f"quadratic(d={A.shape[0]})",
        domain=Hyperrectangle.cube(A.shape[0], half_width),
        f=f,
        grad=grad,
    )


def builtin_test_functions() -> dict[str, TestFunction]:
    """Catalog of ready-made functions keyed by short names.

    The ridge and quadratic entries use fixed representative parameters;
    custom configurations come from calling ridge()/quadratic() directly.
    """
    rng = make_rng(7, stream=986)
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    return {
        "cos2": cosine_pair(1.0, 1.0),
        "cos37": cosine_pair(0.3, 0.7),
        "ridge": ridge(np.array([1.0, 2.0, 3.0])),
        "quadratic": quadratic(A),
    }
