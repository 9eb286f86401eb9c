"""Shared helpers: composition enumeration, bounded-condition similarities,
and independent reference implementations used as oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from blocktri import (
    AlgebraMap,
    JordanForm,
    NoConvergence,
    Orientation,
    SchurForm,
    block_algebra,
    build_form_map,
    random_element,
    spectral_norm,
)
from blocktri.linalg import as_matrix, frobenius, identity, inverse

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


def reference_element(alg, rng) -> np.ndarray:
    """One random member drawn alone, as probes were before chunked draws:
    two standard_normal(dim) calls and a scatter onto the support cells."""
    values = (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)) / np.sqrt(2.0)
    out = np.zeros((alg.n, alg.n), dtype=np.complex128)
    out[alg.cell_rows, alg.cell_cols] = values
    return out


def reference_poly(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Horner's rule on one matrix, ascending coefficients."""
    eye = np.eye(x.shape[0], dtype=np.complex128)
    acc = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        acc = acc @ x + c * eye
    return acc


def reference_commuting_pair(alg, rng) -> tuple[np.ndarray, np.ndarray]:
    """One commuting pair (p(X), q(X)) drawn alone: X, then p's and q's n
    coefficients, each as a real and an imaginary standard_normal call."""
    x = reference_element(alg, rng)
    pc, qc = ((rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)) / np.sqrt(2.0) for _ in range(2))
    return reference_poly(x, pc), reference_poly(x, qc)


def reference_degenerate_samples(alg, samples: int, rng) -> list[np.ndarray]:
    """The multiplicity checker's probes built one at a time, as before they
    were stacked: a diagonal with a forced collision, conjugated by
    I + G / (2 ||G||_2) for a random member G, scaled to unit spectral norm."""
    n = alg.n
    out = []
    for _ in range(samples):
        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if n >= 2:
            i, j = rng.choice(n, size=2, replace=False)
            base[j] = base[i]
        g = reference_element(alg, rng)
        t = identity(n) + g / (2.0 * max(spectral_norm(g), 1e-12))
        a = t @ np.diag(base) @ inverse(t)
        out.append(a / max(spectral_norm(a), 1e-12))
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def bounded_similarity(parts, rng, diag_spread: float = 0.0) -> np.ndarray:
    """Invertible member of the algebra with condition number well under 1e3."""
    alg = block_algebra(parts)
    g = random_element(alg, rng)
    t = np.eye(alg.n, dtype=np.complex128) + g / (2.0 * max(spectral_norm(g), 1e-12))
    if diag_spread > 0.0:
        scales = np.exp(diag_spread * rng.uniform(-1.0, 1.0, alg.n))
        t = t * scales[None, :]
    return t


def conditioned_similarity(n: int, rng, cond: float) -> np.ndarray:
    """U diag(sigma) V^H with Haar-random unitaries U, V and singular values
    spaced geometrically from 1 down to 1/cond, so cond_2(T) = cond (n >= 2)."""
    u, _ = np.linalg.qr(gaussian(rng, n))
    v, _ = np.linalg.qr(gaussian(rng, n))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.conj().T


def jordan_map(parts, rng, cond: float = 1.0, orientation=Orientation.INNER, noise: float = 0.0) -> AlgebraMap:
    """The Jordan map X -> T X T^{-1} (or T X^t T^{-1}) on ``parts``, T from
    ``conditioned_similarity``, plus complex Gaussian noise on each unit image
    of Frobenius norm ``noise`` times that image's norm."""
    alg = block_algebra(parts)
    c = build_form_map(alg, JordanForm(orientation, conditioned_similarity(alg.n, rng, cond))).coefficients
    if noise:
        g = gaussian(rng, alg.n**2, alg.dim)
        c = c + g * (noise * np.linalg.norm(c, axis=0) / np.linalg.norm(g, axis=0))
    return AlgebraMap(alg, c)


def shear_jordan_map(parts, rng, orientation=Orientation.INNER) -> AlgebraMap:
    """The Jordan map X -> T X T^{-1} (or T X^t T^{-1}) on ``parts`` whose
    coefficients are exact integers: T is a product of 3n integer shears
    I + k E_ij (i != j, k in {-2, -1, 1, 2}), and T^{-1} the product of the
    I - k E_ij in reverse. Both are multiplied out in integers, without
    ``inverse``, so the map carries no rounding of its own."""
    alg = block_algebra(parts)
    n = alg.n
    t, tinv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        k = int(rng.choice([-2, -1, 1, 2]))
        t[:, j] += k * t[:, i]  # T <- T (I + k E_ij)
        tinv[i, :] -= k * tinv[j, :]  # T^{-1} <- (I - k E_ij) T^{-1}
    assert np.array_equal(t @ tinv, np.eye(n, dtype=np.int64))
    rows, cols = alg.cell_rows, alg.cell_cols
    if orientation is Orientation.ANTI_TRANSPOSE:
        rows, cols = cols, rows
    c = (t.T[rows][:, :, None] * tinv[cols][:, None, :]).reshape(alg.dim, n * n).T
    assert np.max(np.abs(c)) < 2**53  # exact in float64
    return AlgebraMap(alg, c.astype(np.complex128))


@np.errstate(over="ignore", invalid="ignore")
def reference_unit_gaps(m: AlgebraMap, form: JordanForm) -> np.ndarray:
    """Every unit's relative gap ||phi(E_p) - form(E_p)||_F / max(1, ||phi(E_p)||_F),
    in cell order, in one pass over all units: the certificate ``recover_form``
    computed before it certified the units in cell order, with the form's
    coefficients built as ``build_form_map`` built them then."""
    alg, n = m.domain, m.domain.n
    rows, cols = alg.cell_rows, alg.cell_cols
    if form.orientation is Orientation.ANTI_TRANSPOSE:
        rows, cols = cols, rows
    t = as_matrix(form.t)
    expected = np.array((t[:, None, rows] * inverse(t)[cols, :].T[None, :, :]).reshape(n * n, alg.dim), order="C")
    c = m.coefficients
    gaps = frobenius((c - expected).T.reshape(-1, n, n))
    return gaps / np.maximum(1.0, frobenius(c.T.reshape(-1, n, n)))


def reference_verdict(m: AlgebraMap, form: JordanForm) -> tuple[float | None, str | None]:
    """(residual, None) when the full-pass certificate accepts ``form``, else
    (None, the NotJordanEmbedding text naming the first unit that misses)."""
    gaps = reference_unit_gaps(m, form)
    bad = ~(gaps <= 1e-7)
    if np.any(bad):
        k = int(np.argmax(bad))
        return None, f"image of unit {m.domain.cells[k]} misses the recovered form: relative gap {gaps[k]:.3e} > 1e-07"
    return float(np.max(gaps)), None


def agreement_corpus(compositions, conds, noises, seeds=(0,)):
    """Yield (label, map) for every composition x seed x cond x orientation x
    noise, the k-th map drawn from ``default_rng([seed, k])``: the corpus on
    which ``recover_form`` and ``is_jordan`` are compared."""
    cases = itertools.product(seeds, compositions, conds, Orientation, noises)
    for k, (seed, parts, cond, orientation, noise) in enumerate(cases):
        rng = np.random.default_rng([seed, k])
        label = f"{parts} seed={seed} cond={cond:g} {orientation.value} noise={noise:g}"
        yield label, jordan_map(parts, rng, cond, orientation, noise)


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
