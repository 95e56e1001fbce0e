"""The LAPACK routines the elliptic model and the surrogate call, from the LAPACK numpy links.

numpy's wheels export OpenBLAS's LAPACK with 64-bit integers, as
scipy_<name>_64_ (numpy >= 2) or <name>_64_ (numpy 1.26). ctypes finds
dpbtrf, dpbtrs, dsyevr and dgesv through `numpy.linalg._umath_linalg`'s
library, whose symbol lookup also searches its dependencies, so no run
imports scipy.linalg (0.2 s on 2 CPUs with scipy 1.17). Where numpy
exports neither spelling (MKL, Accelerate or distro builds), the same
routines come from scipy.linalg.lapack's f2py wrappers. Either binding is
resolved at the first call and gets the arguments scipy.linalg passes
(`cholesky_banded`, `cho_solve_banded`, `eigh`'s default evr driver), so
on one LAPACK build the results are scipy.linalg's bytes. `gesv` is the
dgesv that `np.linalg.solve` calls, run on the caller's arrays instead of
copies of them. `binding` names the source that served the calls.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["factor", "solve", "eigh", "gesv", "binding"]

_SPELLINGS = ("scipy_{}_64_", "{}_64_")
_INT = ctypes.c_int64  # both spellings take 64-bit integers
_CHAR_LEN = ctypes.c_size_t(1)  # the hidden length of a Fortran character argument
_ZERO = ctypes.byref(ctypes.c_double(0.0))


class _Routines(NamedTuple):
    """The four routines as f2py-style calls, and the binding they come from.

    dpbtrf(band) -> (factor, info), dpbtrs(factor, b) -> (x, info) and
    dsyevr(a) -> (w, z, info) work on the lower triangle, dgesv(a, b) ->
    (x, info) on a's C buffer read as Fortran's; each overwrites its inputs.
    """

    dpbtrf: Callable
    dpbtrs: Callable
    dsyevr: Callable
    dgesv: Callable
    binding: str  # "numpy" or "scipy"


def binding() -> str | None:
    """The binding that served the calls so far, "numpy" or "scipy", or None if none ran."""
    return _routines().binding if _routines.cache_info().currsize else None  # never resolves one


def factor(ab: np.ndarray) -> np.ndarray:
    """Lower banded Cholesky factor of the SPD matrix K whose band is ab[k, j] = K[j+k, j].

    ab is (kd+1, N); the factor comes back in the same layout, Fortran-ordered.
    Raises LinAlgError if K is not positive definite.
    """
    chol, info = _routines().dpbtrf(np.array(ab, dtype=float, order="F"))
    _check("dpbtrf", info, f"the leading minor of order {info} is not positive")
    return chol


def solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the factor that `factor` returned."""
    x, info = _routines().dpbtrs(chol, np.array(b, dtype=float))
    _check("dpbtrs", info)
    return x


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of the symmetric a, read from its lower triangle."""
    w, z, info = _routines().dsyevr(np.array(a, dtype=float, order="F"))
    _check("dsyevr", info)
    return w, z


def gesv(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for a symmetric A, by LU with partial pivoting, in place.

    A is an (m, m) C-ordered float64 array, which LAPACK reads as its
    transpose, and b a contiguous float64 vector of length m. A is
    overwritten with its LU factors and b with the solution, which is
    returned. On a symmetric A these are the bytes of np.linalg.solve(A, b),
    which calls the same dgesv on a column-major copy of A.
    Raises LinAlgError if A is singular.
    """
    square = b.ndim == 1 and A.shape == (b.size, b.size)
    layout = A.flags.c_contiguous and b.flags.c_contiguous and A.dtype == b.dtype == np.float64
    if not (square and layout):
        raise ValueError("gesv needs a C-ordered (m, m) float64 A and a contiguous float64 b of length m")
    x, info = _routines().dgesv(A, b)
    _check("dgesv", info, f"U[{info}, {info}] is exactly zero, so the matrix is singular")
    return x


def _check(routine: str, info: int, failure: str = "failed") -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} has an illegal value")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: {failure}")


@functools.cache
def _routines() -> _Routines:
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for spelling in _SPELLINGS:
        try:
            found = [getattr(lib, spelling.format(name)) for name in _Routines._fields[:4]]
        except AttributeError:
            continue
        return _ctypes_routines(*found)
    return _scipy_routines()


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _ctypes_routines(pbtrf, pbtrs, syevr, gesv) -> _Routines:
    def dpbtrf(band):
        info = _INT()
        kd1, n = band.shape
        pbtrf(b"L", _ref(n), _ref(kd1 - 1), band.ctypes, _ref(kd1), ctypes.byref(info), _CHAR_LEN)
        return band, info.value

    def dpbtrs(chol, b):
        info = _INT()
        kd1, n = chol.shape
        args = (_ref(n), _ref(kd1 - 1), _ref(1), chol.ctypes, _ref(kd1), b.ctypes, _ref(n))
        pbtrs(b"L", *args, ctypes.byref(info), _CHAR_LEN)
        return b, info.value

    def dsyevr(a):
        n = a.shape[0]
        w, z = np.empty(n), np.empty((n, n), order="F")
        isuppz = np.empty(2 * n, dtype=np.int64)
        found, info = _INT(), _INT()

        def call(work, lwork, iwork, liwork):
            # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
            head = (b"V", b"A", b"L", _ref(n), a.ctypes, _ref(n), _ZERO, _ZERO, _ref(1), _ref(n))
            out = (_ZERO, ctypes.byref(found), w.ctypes, z.ctypes, _ref(n), isuppz.ctypes)
            sizes = (work.ctypes, _ref(lwork), iwork.ctypes, _ref(liwork))
            syevr(*head, *out, *sizes, ctypes.byref(info), _CHAR_LEN, _CHAR_LEN, _CHAR_LEN)

        # workspace query: with both sizes -1 the optimal ones come back in work[0] and iwork[0]
        work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
        call(work, -1, iwork, -1)
        if info.value == 0:
            work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
            call(work, work.size, iwork, iwork.size)
        return w, z, info.value

    def dgesv(a, b):
        n, info = b.shape[0], _INT()
        ipiv = np.empty(n, dtype=np.int64)
        gesv(_ref(n), _ref(1), a.ctypes, _ref(n), ipiv.ctypes, b.ctypes, _ref(n), ctypes.byref(info))
        return b, info.value

    return _Routines(dpbtrf, dpbtrs, dsyevr, dgesv, "numpy")


def _scipy_routines() -> _Routines:
    from scipy.linalg import lapack

    def dsyevr(a):
        lwork, liwork, info = lapack.dsyevr_lwork(a.shape[0], lower=1)
        _check("dsyevr workspace query", info)
        sizes = {"lwork": int(lwork), "liwork": liwork}
        w, z, _, _, info = lapack.dsyevr(a, range="A", lower=1, abstol=0.0, overwrite_a=1, **sizes)
        return w, z, info

    return _Routines(
        lambda band: lapack.dpbtrf(band, lower=1, overwrite_ab=1),
        lambda chol, b: lapack.dpbtrs(chol, b, lower=1, overwrite_b=1),
        dsyevr,
        lambda a, b: lapack.dgesv(a.T, b, overwrite_a=1, overwrite_b=1)[2:],
        "scipy",
    )
