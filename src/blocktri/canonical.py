"""Constructive canonical forms inside a block algebra.

Three constructions: diagonalization of a distinct-eigenvalue matrix by a
similarity taken inside its own algebra (LAPACK eigenvectors of each diagonal
block, glued with diagonal Sylvester solves), normalization of a rank-one
triangular idempotent to a conjugated diagonal unit, and the rank-one shear
family I + e_0 y^t with its closed-form conjugation identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BlockAlgebra, block_algebra, membership
from .errors import (
    ConstraintViolated,
    IllConditioned,
    NonzeroFirstComponent,
    NotIdempotent,
    NotRankOne,
    NotTriangular,
    RepeatedEigenvalues,
    WrongAlgebra,
)
from .linalg import (
    EIGENVALUE_GAP_REL,
    _lapack,
    as_matrix,
    eigenvalues,
    frobenius,
    identity,
    inverse,
    solve_sylvester_diagonal,
)

RANK_ONE_REL = 1e-8


@dataclass(frozen=True)
class InAlgebraDiagonalization:
    """Similarity T inside the algebra with T diag(d) T^{-1} = source."""

    algebra: BlockAlgebra
    similarity: np.ndarray
    diagonal: np.ndarray


@dataclass(frozen=True)
class IdempotentForm:
    """Upper-triangular invertible T with T E_ii T^{-1} = source, plus the index i."""

    similarity: np.ndarray
    index: int


def _eigenvector_matrix(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a full matrix with distinct eigenvalues by one LAPACK call.

    A unit eigenvector v with ||(A - lam I) v||_2 > 1e-9 * max(1, ||A||_F)
    raises IllConditioned. Each column's first peak entry is then pinned to
    exactly 1: a deterministic phase, and the identity for diagonal input.
    """
    n = a.shape[0]
    if n <= 1:
        return identity(n), a.diagonal().copy()
    lams, vecs = _lapack("eig", a)
    residuals = np.sqrt(np.sum(np.abs(a @ vecs - vecs * lams) ** 2, axis=0))
    threshold = 1e-9 * max(1.0, frobenius(a))
    for lam, res in zip(lams, residuals):
        if not res <= threshold:  # also catches NaN
            raise IllConditioned(
                f"eigenvector residual {res:.3e} for eigenvalue {lam} exceeds {threshold:.3e}"
            )
    return vecs / vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)], lams


def _constrained_eigenvector_matrix(a: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Base case under the constraint: a commutes with E_ss.

    The s-th row and column of ``a`` vanish off the diagonal, so the
    complement block is diagonalized and embedded around an exact 1 at (s, s).
    """
    n = a.shape[0]
    others = [k for k in range(n) if k != s]
    sub = a[np.ix_(others, others)]
    sub_vecs, sub_lams = _eigenvector_matrix(sub)
    t = np.zeros((n, n), dtype=np.complex128)
    t[s, s] = 1.0
    t[np.ix_(others, others)] = sub_vecs
    return t, np.insert(sub_lams, s, a[s, s])


def _diagonalize_parts(
    parts: tuple[int, ...], a: np.ndarray, constraint: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive worker returning (T, diag) with exact zeros off the support."""
    if len(parts) == 1:
        if constraint is None:
            return _eigenvector_matrix(a)
        return _constrained_eigenvector_matrix(a, constraint)
    k1 = parts[0]
    a11 = a[:k1, :k1]
    a12 = a[:k1, k1:]
    a22 = a[k1:, k1:]
    c_first = constraint if constraint is not None and constraint < k1 else None
    c_rest = constraint - k1 if constraint is not None and constraint >= k1 else None
    s1, d1 = _diagonalize_parts((k1,), a11, c_first)
    s2, d2 = _diagonalize_parts(parts[1:], a22, c_rest)
    b12 = inverse(s1) @ a12 @ s2
    if c_first is not None:
        # the constrained row of the Sylvester solution is zero by the
        # commutation relation; solve only the complementary rows
        x = np.zeros_like(b12)
        rows = [r for r in range(k1) if r != c_first]
        if rows:
            x[rows, :] = solve_sylvester_diagonal(d1[rows], d2, b12[rows, :])
    elif c_rest is not None:
        x = np.zeros_like(b12)
        cols = [c for c in range(a22.shape[0]) if c != c_rest]
        if cols:
            x[:, cols] = solve_sylvester_diagonal(d1, d2[cols], b12[:, cols])
    else:
        x = solve_sylvester_diagonal(d1, d2, b12)
    n = a.shape[0]
    t = np.zeros((n, n), dtype=np.complex128)
    t[:k1, :k1] = s1
    t[:k1, k1:] = s1 @ x
    t[k1:, k1:] = s2
    return t, np.concatenate([d1, d2])


def diagonalize_in_algebra(
    algebra: BlockAlgebra, a: np.ndarray, constraint: int | None = None
) -> InAlgebraDiagonalization:
    """Diagonalize a distinct-eigenvalue member of the algebra within it.

    Splits along the first block, diagonalizes the leading full block and the
    trailing block algebra recursively, and glues with the shear solving the
    diagonal Sylvester equation. With ``constraint`` = s (0-based), the input
    must commute with E_ss and the returned T commutes with E_ss exactly and
    has t[s, s] = 1.
    """
    algebra = block_algebra(algebra)
    a = as_matrix(a, square=True)
    if a.shape != (algebra.n, algebra.n) or not membership(algebra, a, tol=0.0):
        raise WrongAlgebra("matrix is not supported in the algebra")
    scale = frobenius(a)
    lams = eigenvalues(a)
    gaps = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(gaps, np.inf)
    if float(np.min(gaps)) <= EIGENVALUE_GAP_REL * max(1.0, scale):
        raise RepeatedEigenvalues("eigenvalue gap below the distinctness policy")
    if constraint is not None:
        if not 0 <= constraint < algebra.n:
            raise ConstraintViolated(f"constraint index {constraint} out of range")
        e = np.zeros_like(a)
        e[constraint, constraint] = 1.0
        if frobenius(a @ e - e @ a) > 1e-10 * max(scale, 1.0):
            raise ConstraintViolated("input does not commute with the diagonal unit")
    t, d = _diagonalize_parts(algebra.parts, a, constraint)
    inverse(t)  # validates conditioning; raises Singular/IllConditioned
    return InAlgebraDiagonalization(algebra=algebra, similarity=t, diagonal=d)


def _top_two_singular_values(r: np.ndarray) -> tuple[float, float]:
    # singular values directly: through the eigenvalues of R^H R, rounding
    # alone puts s2 / s1 near sqrt(eps), at the rank-one threshold
    vals = _lapack("svd", r, compute_uv=False)
    s1 = float(vals[0]) if vals.size else 0.0
    s2 = float(vals[1]) if vals.size > 1 else 0.0
    return s1, s2


def _idempotent_rec(r: np.ndarray) -> tuple[np.ndarray, int]:
    n = r.shape[0]
    if n == 1:
        return identity(1), 0
    if abs(r[n - 1, n - 1]) < 0.5:
        # last row vanishes: recurse on the leading block, then absorb the
        # residual last-column entry with a rank-one shear
        t1, i = _idempotent_rec(r[: n - 1, : n - 1])
        big = identity(n)
        big[: n - 1, : n - 1] = t1
        m = inverse(big) @ r @ big
        alpha = m[i, n - 1]
        shear_inv = identity(n)
        shear_inv[i, n - 1] = -alpha
        return np.triu(big @ shear_inv), i
    # nonzero last diagonal entry: the idempotent is supported in the last
    # column, r = v e_n^t with v[n-1] = 1 after normalization
    v = r[:, n - 1] / r[n - 1, n - 1]
    t = identity(n)
    t[: n - 1, n - 1] = v[: n - 1]
    return t, n - 1


def triangular_idempotent_form(r: np.ndarray) -> IdempotentForm:
    """Write a rank-one upper-triangular idempotent as T E_ii T^{-1}.

    T is upper-triangular and invertible; the index i (0-based) locates the
    diagonal unit. Validates triangularity, idempotency, and numerical rank
    one before recursing.
    """
    r = as_matrix(r, square=True)
    scale = frobenius(r)
    lower = r[np.tril_indices(r.shape[0], k=-1)]
    if lower.size and float(np.max(np.abs(lower))) > 1e-10 * max(scale, 1.0):
        raise NotTriangular("strictly lower entries exceed tolerance")
    if frobenius(r @ r - r) > 1e-8 * max(scale, 1.0):
        raise NotIdempotent("matrix is not idempotent within tolerance")
    s1, s2 = _top_two_singular_values(r)
    if s1 == 0.0 or s2 > RANK_ONE_REL * s1:
        raise NotRankOne("second singular value exceeds the rank-one threshold")
    t, i = _idempotent_rec(np.triu(r))
    return IdempotentForm(similarity=t, index=i)


def shear(y) -> np.ndarray:
    """The rank-one shear I + e_0 y^t for a vector y with y[0] = 0."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size == 0 or y[0] != 0:
        raise NonzeroFirstComponent("shear vector must start with an exact zero")
    s = identity(y.size)
    s[0, :] += y
    return s


def shear_conjugate_unit(y, i: int) -> np.ndarray:
    """Closed form of shear(y)^{-1} E_ii shear(y), built without products.

    Equals E_00 + e_0 y^t for i = 0, and E_ii - y[i] E_0i for i > 0.
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size == 0 or y[0] != 0:
        raise NonzeroFirstComponent("shear vector must start with an exact zero")
    n = y.size
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for size {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    if i == 0:
        out[0, 0] = 1.0
        out[0, 1:] = y[1:]
    else:
        out[i, i] = 1.0
        out[0, i] = -y[i]
    return out
