"""Dense complex linear algebra at desk scale (n <= 16).

All matrices are plain numpy arrays of complex128. Eigenvalues, linear solves,
eigenvectors, QR factors, singular values and well-conditioned inverses come
from LAPACK (``numpy.linalg``, only ever called from this module). ``schur``
orthonormalizes the eigenvectors by QR; an input that then fails its acceptance
test deflates one eigenvalue at a time with the null vector from a LAPACK SVD
and a Householder reflector. The rest is self-contained: Gauss-Jordan inversion
with partial pivoting (the fallback that decides Singular and IllConditioned)
and the Faddeev-LeVerrier recursion for characteristic polynomials.
``eigenvalues``, ``char_poly``, ``frobenius``, ``inverse`` and
``spectral_norm`` also take (..., n, n) stacks of matrices; LAPACK runs on
each matrix of a stack exactly as on the matrix alone, so a stacked result is
bit for bit the per-matrix one. ``inverse`` and ``spectral_norm`` therefore
have one code path each and take a matrix as a stack of one.
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
)

SINGULAR_PIVOT_REL = 1e-12
CONDITION_BOUND = 1e12
SCHUR_LOWER_EPS = 64
FROBENIUS_LO, FROBENIUS_HI = 1e-150, 1e150
EIGENVALUE_GAP_REL = 1e-6


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
    """Invert a square matrix, or each matrix of a (..., n, n) stack.

    Raises Singular when a Gauss-Jordan pivot (partial pivoting) falls below
    1e-12 * max|a|, and IllConditioned when the 1-norm condition estimate
    exceeds 1e12. LAPACK's inverse is returned when n * cond_1 < 1e12, where
    1/|u_kk| <= ||U^-1||_1 <= n ||A^-1||_1 keeps every pivot off the threshold;
    every other case runs the Gauss-Jordan elimination.

    A matrix is a stack of one: one stacked LAPACK call and one condition
    test pick the members that Gauss-Jordan decides, in order, so the first
    matrix that fails raises its own error.
    """
    a = as_stack(a) if np.ndim(a) > 2 else as_matrix(a, square=True)
    if a.size == 0:
        return np.empty_like(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    try:
        inv = np.linalg.inv(flat)
    except np.linalg.LinAlgError:  # an exactly singular member: every member fails the test below
        inv = np.full_like(flat, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test
        failed = ~(n * _norm1(flat) * _norm1(inv) < CONDITION_BOUND)
    for i in np.flatnonzero(failed):
        inv[i] = _gauss_jordan(flat[i])
    return inv.reshape(a.shape)


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


def _norm1(a: np.ndarray):
    """The 1-norm (largest column sum) of a nonempty matrix, as a float; of each matrix of a stack, as an array."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    return float(norm) if a.ndim == 2 else norm


def char_poly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(A - xI), ascending degree, length n + 1.

    Uses the Faddeev-LeVerrier trace recursion M <- A (M + c I), adding each
    shift c onto the diagonal in place instead of building c I; that changes
    at most the sign of an exact zero. The leading coefficient is exactly
    (-1)^n. A (..., n, n) stack gives (..., n + 1) coefficients.
    """
    a = as_stack(a)
    n = a.shape[-1]
    coeffs = np.zeros(a.shape[:-2] + (n + 1,), dtype=np.complex128)
    sign = -1.0 if n % 2 else 1.0
    coeffs[..., n] = sign
    c = -np.trace(a, axis1=-2, axis2=-1)
    if n >= 1:
        coeffs[..., n - 1] = sign * c
    m = a.copy()  # shifted in place; a itself is never written
    for k in range(2, n + 1):
        m.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] += c[..., None]  # m is C-contiguous: a view
        m = a @ m
        c = -np.trace(m, axis1=-2, axis2=-1) / k
        coeffs[..., n - k] = sign * c
    return coeffs


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Unitary Schur triangularization: input = unitary @ upper @ unitary^H."""

    unitary: np.ndarray
    upper: np.ndarray


def schur(a: np.ndarray) -> SchurForm:
    """Unitary Schur form a = U T U^H with T upper-triangular.

    Both paths accept a strict lower triangle of at most 64 n eps ||A||_F; NaN
    fails. First, U is the Q factor of a QR of a's LAPACK eigenvectors and
    T = U^H a U. If that fails (a defective a can), a deflates (Golub & Van Loan,
    Matrix Computations, 7.1): at each k, one Householder reflector maps a null vector
    of T[k:, k:] - lam I (lam a LAPACK eigenvalue, the vector its last right singular
    vector) to e_1, which zeroes column k below the diagonal up to rounding. Zero
    columns are skipped: for triangular a, U = I and T = a unless scaling made an
    entry subnormal. Failing after deflation, or a LAPACK failure, raises NoConvergence.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    exp = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    t = _ldexp(a, -exp)  # max |t| in [1/2, 1); a power-of-two scaling is exact
    threshold = SCHUR_LOWER_EPS * n * np.finfo(np.float64).eps
    scale = frobenius(t)
    if np.tril(t, -1).any():
        q = _lapack("qr", _lapack("eig", t)[1])[0]
        upper = np.conj(q.T) @ t @ q
        if np.max(np.abs(np.tril(upper, -1))) <= threshold * scale:  # NaN fails: a deflates
            return SchurForm(unitary=q, upper=_ldexp(np.triu(upper), exp))
    q = identity(n)
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


def spectral_norm(a: np.ndarray):
    """Largest singular value, from LAPACK's singular values, as an array for a
    (..., n, n) stack and as a float for a matrix, which is a stack of one (it
    may be non-square; empty gives 0.0). LAPACK's failure raises NoConvergence."""
    a = as_stack(a) if np.ndim(a) > 2 else as_matrix(a)
    norm = _lapack("svd", a, compute_uv=False)[..., 0] if a.size else np.zeros(a.shape[:-2])
    return float(norm) if a.ndim == 2 else norm
