"""Constructive canonical forms inside a block algebra.

Two constructions: diagonalization of a distinct-eigenvalue matrix by a
similarity inside its own algebra (each column a LAPACK eigenvector of its
diagonal block, extended upward by a linear solve), and a closed-form similarity
taking a diagonal unit to a rank-one triangular idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BlockAlgebra, block_algebra, membership
from .errors import (
    ConstraintViolated,
    IllConditioned,
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
)

RANK_ONE_REL = 1e-8


@dataclass(frozen=True, eq=False)
class InAlgebraDiagonalization:
    """Similarity T inside the algebra with T diag(d) T^{-1} = source."""

    algebra: BlockAlgebra
    similarity: np.ndarray
    diagonal: np.ndarray


@dataclass(frozen=True, eq=False)
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


def _diagonalize_parts(parts: tuple[int, ...], a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, diag) for a distinct-eigenvalue member of the algebra of ``parts``.

    Each column of T is an eigenvector of ``a``: on its own diagonal block, that
    block's eigenvector w (eigenvalue lam); below it, zero; above it, the z with
    (A[:lo, :lo] - lam I) z = -A[:lo, block] w (one batched solve per block).
    """
    t = np.zeros_like(a)
    d = np.empty(len(a), dtype=np.complex128)
    lo = 0
    for k in parts:
        hi = lo + k
        w, lams = _eigenvector_matrix(a[lo:hi, lo:hi])
        t[lo:hi, lo:hi] = w
        d[lo:hi] = lams
        if lo:
            shifted = a[:lo, :lo] - lams[:, None, None] * identity(lo)
            rhs = -(a[:lo, lo:hi] @ w).T[..., None]
            t[:lo, lo:hi] = _lapack("solve", shifted, rhs)[..., 0].T
        lo = hi
    return t, d


def diagonalize_in_algebra(
    algebra: BlockAlgebra, a: np.ndarray, constraint: int | None = None
) -> InAlgebraDiagonalization:
    """Diagonalize a distinct-eigenvalue member of the algebra within it.

    T is built column by column from eigenvectors of ``a`` that vanish below
    their own diagonal block, so it lies in the algebra. With ``constraint`` =
    s (0-based), the input must commute with E_ss and the returned T commutes
    with E_ss exactly and has t[s, s] = 1.
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
    if constraint is None:
        t, d = _diagonalize_parts(algebra.parts, a)
    else:
        if not 0 <= constraint < algebra.n:
            raise ConstraintViolated(f"constraint index {constraint} out of range")
        e = np.zeros_like(a)
        e[constraint, constraint] = 1.0
        if frobenius(a @ e - e @ a) > 1e-10 * max(scale, 1.0):
            raise ConstraintViolated("input does not commute with the diagonal unit")
        # the constrained row and column vanish off the diagonal: delete that index
        # (its block shrinks by one, or goes), diagonalize the rest, embed it around 1
        keep = np.delete(np.arange(algebra.n), constraint)
        block_of = np.repeat(np.arange(len(algebra.parts)), algebra.parts)
        parts = tuple(k for k in np.bincount(block_of[keep]) if k)
        sub_t, sub_d = _diagonalize_parts(parts, a[np.ix_(keep, keep)])
        t = np.zeros_like(a)
        t[constraint, constraint] = 1.0
        t[np.ix_(keep, keep)] = sub_t
        d = np.insert(sub_d, constraint, a[constraint, constraint])
    inverse(t)  # validates conditioning; raises Singular/IllConditioned
    return InAlgebraDiagonalization(algebra=algebra, similarity=t, diagonal=d)


def _top_two_singular_values(r: np.ndarray) -> tuple[float, float]:
    # singular values directly: through the eigenvalues of R^H R, rounding
    # alone puts s2 / s1 near sqrt(eps), at the rank-one threshold
    vals = _lapack("svd", r, compute_uv=False)
    s1 = float(vals[0]) if vals.size else 0.0
    s2 = float(vals[1]) if vals.size > 1 else 0.0
    return s1, s2


def triangular_idempotent_form(r: np.ndarray) -> IdempotentForm:
    """Write a rank-one upper-triangular idempotent as T E_ii T^{-1}.

    T is upper-triangular with a unit diagonal; the index i (0-based) is that
    of the largest |r_ii| and locates the diagonal unit. Validates
    triangularity, idempotency, and numerical rank one first. Then
    T = I + x e_i^t - e_i y^t - x y^t with x = r[:i, i] / r_ii and
    y = r[i, i+1:] / r_ii: T e_i = r e_i / r_ii and e_i^t T^{-1} = e_i^t r / r_ii.
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
    i = int(np.argmax(np.abs(r.diagonal())))
    t = identity(r.shape[0])
    t[:i, i] = r[:i, i] / r[i, i]
    t[i, i + 1 :] = -r[i, i + 1 :] / r[i, i]
    t[:i, i + 1 :] = np.outer(t[:i, i], t[i, i + 1 :])
    return IdempotentForm(similarity=t, index=i)
