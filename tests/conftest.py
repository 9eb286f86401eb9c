"""Shared helpers: composition enumeration, bounded-condition similarities,
and independent reference implementations used as oracles."""

from __future__ import annotations

import numpy as np
import pytest

from blocktri import block_algebra, random_element, spectral_norm


def all_compositions(n: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of positive integers summing to n (2^(n-1) of them)."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in all_compositions(n - first):
            out.append((first,) + rest)
    return out


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive O(n^3) triple loop, independent of the library path."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            acc = 0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def det_oracle(a: np.ndarray) -> complex:
    """Cofactor expansion along the first row; exact-shape recursive reference."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * complex(a[0, j]) * det_oracle(minor)
    return total


def power_iteration_norm(a: np.ndarray) -> tuple[float, bool]:
    """Largest singular value by power iteration on A^H A, with its converged
    flag; the self-contained algorithm ``spectral_norm`` used before LAPACK."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0 or not np.any(a):
        return 0.0, True
    if a.shape[0] < a.shape[1]:
        a = np.conj(a.T)
    gram = np.conj(a.T) @ a
    m = gram.shape[0]
    # deterministic dense start: golden-angle phases avoid rational symmetries
    v = np.exp(2.39996322972865332j * np.arange(m)) / np.sqrt(m)
    sigma = 0.0
    stable = 0
    restarts = 0
    for _ in range(10_000):
        w = gram @ v
        new_sigma = float(np.sqrt(max(float(np.real(np.vdot(v, w))), 0.0)))
        if abs(new_sigma - sigma) <= 1e-11 * max(new_sigma, 1e-290):
            stable += 1
            if stable >= 2:
                return new_sigma, True
        else:
            stable = 0
        sigma = new_sigma
        nw = float(np.sqrt(np.sum(np.abs(w) ** 2)))
        if nw == 0.0:
            # iterate fell in the null space; restart from a basis direction
            v = np.zeros(m, dtype=np.complex128)
            v[restarts % m] = 1.0
            restarts += 1
            continue
        v = w / nw
    return sigma, False


def gaussian(rng, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def bounded_similarity(parts, rng, diag_spread: float = 0.0) -> np.ndarray:
    """Invertible member of the algebra with condition number well under 1e3."""
    alg = block_algebra(parts)
    g = random_element(alg, rng)
    t = np.eye(alg.n, dtype=np.complex128) + g / (2.0 * max(spectral_norm(g), 1e-12))
    if diag_spread > 0.0:
        scales = np.exp(diag_spread * rng.uniform(-1.0, 1.0, alg.n))
        t = t * scales[None, :]
    return t


def separated_diagonal(rng, n: int, gap: float = 0.3) -> np.ndarray:
    """n complex values with pairwise distance at least ``gap`` by construction."""
    spacing = 3.0 * gap
    base = spacing * rng.permutation(n).astype(np.float64)
    jitter = rng.uniform(0.0, gap, n) + 1j * rng.uniform(-gap, gap, n)
    return base + jitter


def make_member(parts, rng, constraint=None, gap: float = 0.3):
    """Distinct-eigenvalue member of the algebra, optionally commuting with E_ss.

    Eigenvalues are separated by at least 2 * gap by construction and the
    implicit similarity has a small condition number.
    """
    from blocktri import inverse, project

    alg = block_algebra(parts)
    d = separated_diagonal(rng, alg.n, gap=gap)
    t0 = bounded_similarity(parts, rng)
    if constraint is not None:
        t0[constraint, :] = 0.0
        t0[:, constraint] = 0.0
        t0[constraint, constraint] = 1.0
    a = project(alg, t0 @ np.diag(d) @ inverse(t0))
    if constraint is not None:
        a[constraint, :] = 0.0
        a[:, constraint] = 0.0
        a[constraint, constraint] = d[constraint]
    return alg, a


def integer_complex(rng, n: int, span: int = 8) -> np.ndarray:
    """Random matrix with small integer real/imaginary parts (exact arithmetic)."""
    return (
        rng.integers(-span, span + 1, (n, n)) + 1j * rng.integers(-span, span + 1, (n, n))
    ).astype(np.complex128)


def match_multisets(got, expected, tol: float) -> None:
    remaining = list(expected)
    for z in sorted(got, key=lambda w: (w.real, w.imag)):
        dists = [abs(z - w) for w in remaining]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"eigenvalue {z} has no partner within {tol}"
        remaining.pop(k)


@pytest.fixture
def rng():
    return np.random.default_rng(0xB10C)
