"""Shared helpers: composition enumeration, bounded-condition similarities,
and independent reference implementations used as oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blocktri import NoConvergence, SchurForm, block_algebra, random_element, spectral_norm
from blocktri.linalg import as_matrix, frobenius, identity

DEFLATION_REL = 1e-12
SWEEP_CAP_FACTOR = 100


def all_compositions(n: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of positive integers summing to n (2^(n-1) of them)."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in all_compositions(n - first):
            out.append((first,) + rest)
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


def qr_schur(a: np.ndarray) -> SchurForm:
    """Unitary Schur form a = U T U^H by Householder Hessenberg reduction and
    Wilkinson-shifted QR; the self-contained engine ``schur`` used before LAPACK."""
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
