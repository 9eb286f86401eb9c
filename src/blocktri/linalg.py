"""Dense complex linear algebra at desk scale (n <= 16).

All matrices are plain numpy arrays of complex128. Eigenvalues,
eigenvectors, singular values and well-conditioned inverses come from LAPACK
(``numpy.linalg``, only ever called from this module); the rest is
self-contained: Gauss-Jordan inversion with partial pivoting
(the fallback that decides Singular and IllConditioned), the
Faddeev-LeVerrier recursion for characteristic polynomials, Householder
Hessenberg reduction followed by Wilkinson-shifted QR for Schur forms, and
an entrywise solver for Sylvester equations with diagonal coefficients.
``eigenvalues``, ``char_poly`` and ``frobenius`` also take (..., n, n)
stacks of matrices.
"""

from __future__ import annotations

import math
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
DEFLATION_REL = 1e-12
SWEEP_CAP_FACTOR = 100
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


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, as a float; of each matrix of a (..., n, n)
    stack, as an array."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.sqrt(np.sum(np.abs(a) ** 2)))
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    return np.sqrt(np.sum(np.abs(flat) ** 2, axis=-1))


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape validation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise MismatchedDimension(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


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


def poly_eval(coeffs: np.ndarray, x: complex) -> complex:
    """Evaluate an ascending-degree coefficient vector by Horner's rule."""
    acc = np.complex128(0)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return complex(acc)


@dataclass(frozen=True)
class SchurForm:
    """Unitary Schur triangularization: input = unitary @ upper @ unitary^H."""

    unitary: np.ndarray
    upper: np.ndarray


def _hessenberg(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    h = a.copy()
    q = identity(n)
    for k in range(n - 2):
        x = h[k + 1 :, k].copy()
        nx = float(np.sqrt(np.sum(np.abs(x) ** 2)))
        if nx < 1e-290:
            h[k + 2 :, k] = 0.0
            continue
        v = x
        phase = x[0] / abs(x[0]) if abs(x[0]) > 0 else 1.0
        v[0] += phase * nx
        vn2 = float(np.sum(np.abs(v) ** 2))
        if vn2 < 1e-290:
            continue
        beta = 2.0 / vn2
        h[k + 1 :, k:] -= beta * np.outer(v, np.conj(v) @ h[k + 1 :, k:])
        h[:, k + 1 :] -= beta * np.outer(h[:, k + 1 :] @ v, np.conj(v))
        q[:, k + 1 :] -= beta * np.outer(q[:, k + 1 :] @ v, np.conj(v))
        h[k + 2 :, k] = 0.0
    return h, q


def _rotate_rows(m: np.ndarray, k: int, ca: complex, cb: complex) -> None:
    ri = ca * m[k, :] + cb * m[k + 1, :]
    rj = -np.conj(cb) * m[k, :] + np.conj(ca) * m[k + 1, :]
    m[k, :] = ri
    m[k + 1, :] = rj


def _rotate_cols(m: np.ndarray, k: int, ca: complex, cb: complex) -> None:
    ci = np.conj(ca) * m[:, k] + np.conj(cb) * m[:, k + 1]
    cj = -cb * m[:, k] + ca * m[:, k + 1]
    m[:, k] = ci
    m[:, k + 1] = cj


def _qr_step(h: np.ndarray, q: np.ndarray, lo: int, hi: int, mu: complex) -> None:
    """One explicit-shift QR sweep on the active block h[lo:hi+1, lo:hi+1]."""
    for i in range(lo, hi + 1):
        h[i, i] -= mu
    rots: list[tuple[complex, complex]] = []
    for k in range(lo, hi):
        x, y = h[k, k], h[k + 1, k]
        r = math.hypot(abs(x), abs(y))
        if r == 0.0:
            ca, cb = np.complex128(1.0), np.complex128(0.0)
        else:
            ca, cb = np.conj(x) / r, np.conj(y) / r
        rots.append((ca, cb))
        _rotate_rows(h, k, ca, cb)
        h[k + 1, k] = 0.0
    for k in range(lo, hi):
        ca, cb = rots[k - lo]
        _rotate_cols(h, k, ca, cb)
        _rotate_cols(q, k, ca, cb)
    for i in range(lo, hi + 1):
        h[i, i] += mu


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    p, r = h[hi - 1, hi - 1], h[hi - 1, hi]
    s, t = h[hi, hi - 1], h[hi, hi]
    d = 0.5 * (p - t)
    disc = np.sqrt(d * d + r * s)
    denom = d + disc if abs(d + disc) >= abs(d - disc) else d - disc
    if denom == 0:
        return complex(t)
    return complex(t - (r * s) / denom)


def _triangularize_2x2(h: np.ndarray, q: np.ndarray, k: int) -> None:
    """Annihilate the subdiagonal of the 2x2 block at (k, k) by a unitary similarity."""
    p, r = h[k, k], h[k, k + 1]
    s, t = h[k + 1, k], h[k + 1, k + 1]
    half = 0.5 * (p + t)
    disc = np.sqrt(0.25 * (p - t) ** 2 + r * s)
    lam = half + disc if abs(disc) > 0 else half
    v = np.array([r, lam - p], dtype=np.complex128)
    u = np.array([lam - t, s], dtype=np.complex128)
    w = v if np.sum(np.abs(v)) >= np.sum(np.abs(u)) else u
    nw = float(np.sqrt(np.sum(np.abs(w) ** 2)))
    if nw == 0.0:
        h[k + 1, k] = 0.0
        return
    w /= nw
    # similarity by G^H . G = [[w0, -conj(w1)], [w1, conj(w0)]] has first column w
    ca, cb = np.conj(w[0]), np.conj(w[1])
    _rotate_rows(h, k, ca, cb)
    _rotate_cols(h, k, ca, cb)
    _rotate_cols(q, k, ca, cb)
    h[k + 1, k] = 0.0


def schur(a: np.ndarray) -> SchurForm:
    """Unitary Schur form a = U T U^H with T upper-triangular."""
    a = as_matrix(a, square=True)
    n = a.shape[0]
    scale = frobenius(a)
    if n <= 1 or scale == 0.0:
        return SchurForm(unitary=identity(n), upper=a.copy())
    h, q = _hessenberg(a)
    tol = DEFLATION_REL * scale
    cap = SWEEP_CAP_FACTOR * n
    sweeps = 0
    stagnation = 0
    hi = n - 1
    while hi > 0:
        if abs(h[hi, hi - 1]) <= tol:
            h[hi, hi - 1] = 0.0
            hi -= 1
            stagnation = 0
            continue
        lo = hi - 1
        while lo > 0 and abs(h[lo, lo - 1]) > tol:
            lo -= 1
        if lo > 0:
            h[lo, lo - 1] = 0.0
        if hi - lo == 1:
            _triangularize_2x2(h, q, lo)
            stagnation = 0
            continue
        sweeps += 1
        stagnation += 1
        if sweeps > cap:
            raise NoConvergence(f"QR iteration exceeded {cap} sweeps")
        if stagnation % 15 == 0:
            mu = complex(h[hi, hi] + (0.75 + 0.4375j) * abs(h[hi, hi - 1]))
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_step(h, q, lo, hi, mu)
    return SchurForm(unitary=q, upper=np.triu(h))


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

