"""Dense complex linear algebra at desk scale (n <= 16).

All matrices are plain numpy arrays of complex128. Eigenvalues,
eigenvectors, singular values and well-conditioned inverses come from LAPACK
(``numpy.linalg``, only ever called from this module). Schur forms deflate
one LAPACK eigenvalue at a time with the null vector from a LAPACK SVD and a
Householder reflector. The rest is self-contained: Gauss-Jordan inversion
with partial pivoting (the fallback that decides Singular and
IllConditioned), the Faddeev-LeVerrier recursion for characteristic
polynomials, and an entrywise solver for Sylvester equations with diagonal
coefficients. ``eigenvalues``, ``char_poly`` and ``frobenius`` also take
(..., n, n) stacks of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    MismatchedDimension,
    NoConvergence,
    NotFinite,
    Singular,
    SpectraOverlap,
)

SINGULAR_PIVOT_REL = 1e-12
CONDITION_BOUND = 1e12
SCHUR_LOWER_EPS = 64
FROBENIUS_LO, FROBENIUS_HI = 1e-150, 1e150
EIGENVALUE_GAP_REL = 1e-6
SYLVESTER_GAP_REL = 1e-9


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce to a finite complex128 2-D array, validating shape.

    Returns the input unchanged when it is already complex128; none of the
    operations here mutate their arguments.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise MismatchedDimension(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix contains NaN or infinite entries")
    if square and m.shape[0] != m.shape[1]:
        raise MismatchedDimension(f"expected a square matrix, got shape {m.shape}")
    return m


def as_stack(a) -> np.ndarray:
    """Coerce to a finite complex128 array of square matrices, shape (..., n, n)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise MismatchedDimension(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix contains NaN or infinite entries")
    if m.shape[-1] != m.shape[-2]:
        raise MismatchedDimension(f"expected square matrices, got shape {m.shape}")
    return m


@np.errstate(over="raise", under="raise")
def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, as a float; of each matrix of a (..., n, n)
    stack, as an array. It neither overflows nor underflows (see
    ``_rescued_norm``); inf and NaN entries give inf and NaN."""
    a = np.asarray(a)
    axis = None if a.ndim <= 2 else -1
    m = np.abs(a if axis is None else a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],)))
    try:
        norm = np.sqrt(np.sum(m**2, axis=axis))
    except FloatingPointError:
        norm = _rescued_norm(m, axis)
    return float(norm) if axis is None else norm


@np.errstate(over="ignore", under="ignore")
def _rescued_norm(m: np.ndarray, axis):
    """After over- or underflow: norms in [1e-150, 1e150] keep their plain value;
    other nonzero ones come from the entries divided by their largest modulus."""
    norm = np.sqrt(np.sum(m**2, axis=axis))
    big = np.max(m, axis=axis, initial=0.0, keepdims=True)
    scale = np.where((big > 0.0) & (big < np.inf), big, 1.0)
    rescaled = np.sqrt(np.sum((m / scale) ** 2, axis=axis)) * np.squeeze(scale, axis=axis)
    redo = ~((norm >= FROBENIUS_LO) & (norm <= FROBENIUS_HI)) & (np.squeeze(big, axis=axis) > 0.0)
    return np.where(redo, rescaled, norm)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix.

    Raises Singular when a Gauss-Jordan pivot (partial pivoting) falls below
    1e-12 * max|a|, and IllConditioned when the 1-norm condition estimate
    exceeds 1e12. LAPACK's inverse is returned when n * cond_1 < 1e12, where
    1/|u_kk| <= ||U^-1||_1 <= n ||A^-1||_1 keeps every pivot off the threshold;
    every other case runs the Gauss-Jordan elimination.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    try:
        inv = np.linalg.inv(a)
        if n == 0 or n * _norm1(a) * _norm1(inv) < CONDITION_BOUND:  # False on inf and NaN
            return inv
    except np.linalg.LinAlgError:
        pass
    return _gauss_jordan(a)


def _gauss_jordan(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inversion of a nonempty matrix, raising as ``inverse`` does."""
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise Singular("zero matrix")
    aug = np.hstack([a, identity(n)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[p, col]
        if abs(pivot) <= SINGULAR_PIVOT_REL * scale:
            raise Singular(f"pivot {abs(pivot):.3e} below threshold at column {col}")
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] /= pivot
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] -= aug[row, col] * aug[col]
    inv = aug[:, n:]
    cond = _norm1(a) * _norm1(inv)
    if cond > CONDITION_BOUND:
        raise IllConditioned(f"condition estimate {cond:.3e} exceeds bound")
    return inv


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def char_poly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(A - xI), ascending degree, length n + 1.

    Uses the Faddeev-LeVerrier trace recursion; the leading coefficient is
    exactly (-1)^n. A (..., n, n) stack gives (..., n + 1) coefficients.
    """
    a = as_stack(a)
    n = a.shape[-1]
    eye = identity(n)
    coeffs = np.zeros(a.shape[:-2] + (n + 1,), dtype=np.complex128)
    sign = -1.0 if n % 2 else 1.0
    coeffs[..., n] = sign
    m = a
    c = -np.trace(m, axis1=-2, axis2=-1)
    if n >= 1:
        coeffs[..., n - 1] = sign * c
    for k in range(2, n + 1):
        m = a @ (m + c[..., None, None] * eye)
        c = -np.trace(m, axis1=-2, axis2=-1) / k
        coeffs[..., n - k] = sign * c
    return coeffs


@dataclass(frozen=True)
class SchurForm:
    """Unitary Schur triangularization: input = unitary @ upper @ unitary^H."""

    unitary: np.ndarray
    upper: np.ndarray


def schur(a: np.ndarray) -> SchurForm:
    """Unitary Schur form a = U T U^H with T upper-triangular.

    Deflation (Golub & Van Loan, Matrix Computations, 7.1): at each k, one
    Householder reflector maps a null vector of T[k:, k:] - lam I (lam a LAPACK
    eigenvalue, the vector its last right singular vector) to e_1, which zeroes
    column k below the diagonal up to rounding. Zero columns are skipped: for
    triangular a, U = I and T = a unless scaling made an entry subnormal. A strict
    lower triangle above 64 n eps ||A||_F, or a LAPACK failure, raises NoConvergence.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    q = identity(n)
    exp = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    t = _ldexp(a, -exp)  # max |t| in [1/2, 1); a power-of-two scaling is exact
    threshold = SCHUR_LOWER_EPS * n * np.finfo(np.float64).eps
    scale = frobenius(t)
    for k in range(n - 1):
        if not t[k + 1 :, k].any():
            continue
        lam = _lapack("eigvals", t[k:, k:])[0]
        u = np.conj(_lapack("svd", t[k:, k:] - lam * identity(n - k))[2][-1])
        u[0] += np.exp(1j * np.angle(u[0]))
        u *= np.sqrt(2.0 / np.vdot(u, u).real)  # I - u u^H is the reflector
        t[k:, :] -= np.outer(u, np.conj(u) @ t[k:, :])
        t[:, k:] -= np.outer(t[:, k:] @ u, np.conj(u))
        q[:, k:] -= np.outer(q[:, k:] @ u, np.conj(u))
    lower = float(np.max(np.abs(np.tril(t, -1)), initial=0.0))
    if not lower <= threshold * scale:  # also catches NaN
        raise NoConvergence(f"strict lower triangle {lower / scale:.3e} ||A||_F exceeds {threshold:.3e} ||A||_F")
    return SchurForm(unitary=q, upper=_ldexp(np.triu(t), exp))


def _ldexp(z: np.ndarray, exp: int) -> np.ndarray:
    """z * 2**exp for a complex array, exact while entries stay in the normal range."""
    return np.ldexp(z.real, exp) + 1j * np.ldexp(z.imag, exp)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All n eigenvalues with multiplicity, in no particular order.

    A (..., n, n) stack gives (..., n) eigenvalues. LAPACK's failure to
    converge raises NoConvergence.
    """
    return _lapack("eigvals", as_stack(a))


def _lapack(name: str, *args, **kwargs):
    """``numpy.linalg.<name>(...)`` with LAPACK's failure raised as NoConvergence."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK {name} did not converge: {exc}") from exc


def solve_sylvester_diagonal(d1, d2, c: np.ndarray) -> np.ndarray:
    """Solve X diag(d2) - diag(d1) X = C entrywise: X[i,j] = C[i,j]/(d2[j]-d1[i]).

    Raises SpectraOverlap when some gap |d2[j] - d1[i]| falls below
    1e-9 * (max|d1| + max|d2|), the quantified form of the disjoint-spectra
    hypothesis.
    """
    d1 = np.asarray(d1, dtype=np.complex128).ravel()
    d2 = np.asarray(d2, dtype=np.complex128).ravel()
    c = as_matrix(c)
    if c.shape != (d1.size, d2.size):
        raise MismatchedDimension(
            f"coefficient block {c.shape} does not match diagonals ({d1.size}, {d2.size})"
        )
    if c.size == 0:
        return c.copy()
    gaps = d2[None, :] - d1[:, None]
    thr = SYLVESTER_GAP_REL * (float(np.max(np.abs(d1))) + float(np.max(np.abs(d2))))
    if float(np.min(np.abs(gaps))) <= thr:
        raise SpectraOverlap("diagonal spectra are not separated")
    return c / gaps


def spectral_norm(a: np.ndarray, *, return_info: bool = False):
    """Largest singular value, from LAPACK's singular values.

    With return_info=True, returns (value, True); LAPACK's failure to
    converge raises NoConvergence.
    """
    a = as_matrix(a)
    value = float(_lapack("svd", a, compute_uv=False)[0]) if a.size else 0.0
    return (value, True) if return_info else value

