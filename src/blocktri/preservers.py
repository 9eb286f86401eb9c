"""Executable preserver properties: spectrum, shrinking, commutativity, multiplicity.

Checkers, like ``maps.is_jordan``, accept either an AlgebraMap or a black-box
evaluator with its algebra (the gallery maps are nonlinear), sample deterministically from a seed, and report a
verdict with the worst violation and offending witnesses. Spectrum equality
is tested through characteristic-polynomial coefficients, which sidesteps
matching noisy eigenvalue lists.

Every check is one stream of probe stacks, PROBE_CHUNK probes each but the
last, fed to ``maps.verdict``. A probe source yields whole stacks, each with
what it knows of its members, and draws each stack's random members from the
seed only when that stack is due, with one generator call
(``random_elements``, ``random_commuting_pairs``; the stream is the same as
one draw at a time). The multiplicity samples are drawn one at a time but
built a stack at a time. Stack boundaries sit at every multiple of
PROBE_CHUNK of a stream, since a stacked product's rows can round differently
with the stack size. Images come from ``maps._evaluator``: a black-box
evaluator is called once per probe or, if it maps whole stacks (a
``maps._StackEvaluator``, as the gallery's maps are), once per stack, and each
image must be n x n. The commuting unit pairs come from ``maps._unit_pairs``,
as ``is_jordan``'s do, before the first draw. The char polys of the fixed
probes 0, I and the matrix units, and the eigenvalues of a multiplicity
sample, with its collision exact, are known, so only their images' are
computed. A probe whose image or residual is not finite is a violation, and
the worst is inf. A negative ``samples`` or ``pairs`` raises ValueError from
``maps._evaluator``, which each checker hands its count, a negative
``budget`` from ``full_report``, and an AlgebraMap given with a foreign
algebra WrongAlgebra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import BlockAlgebra, matrix_units, random_commuting_pairs, random_element, random_elements
from .linalg import char_poly, eigenvalues, frobenius, identity, inverse, spectral_norm
from .maps import PROBE_CHUNK, CheckResult, _evaluator, _nonnegative, _unit_pairs, verdict

MULTIPLICITY_CLUSTER_TOL = 1e-6


@dataclass
class PreserverReport:
    """Aggregate verdicts for the hypothesis suite of a single map."""

    spectrum_preserving: bool
    spectrum_shrinking: bool
    commutativity_preserving: bool
    samples_used: int
    worst_violation: float
    witnesses: dict = field(default_factory=dict)


def _fixed_char_polys(algebra: BlockAlgebra) -> np.ndarray:
    """The char polys of ``_probe_stacks``' fixed probes 0, I and the matrix
    units, exactly: (-x)^n for 0 and for E_ij with i != j, (1 - x)^n for I and
    (-x)^(n-1) (1 - x) for E_ii. ``char_poly`` returns the same up to the
    sign of zeros, which no gap sees."""
    n = algebra.n
    polys = np.zeros((2 + algebra.dim, n + 1), dtype=np.complex128)
    polys[:, n] = (-1.0) ** n
    polys[1] = [math.comb(n, k) * (-1.0) ** k for k in range(n + 1)]
    polys[2:, n - 1] = np.where(algebra.cell_rows == algebra.cell_cols, (-1.0) ** (n - 1), 0.0)
    return polys


def _probe_stacks(algebra: BlockAlgebra, samples: int, rng) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """0, I, the matrix units, then ``samples`` random elements, in stacks of PROBE_CHUNK with
    their fixed members' char polys; each stack's random members are drawn when it is due."""
    n = algebra.n
    fixed = np.concatenate([np.zeros((1, n, n), dtype=np.complex128), identity(n)[None], matrix_units(algebra)])
    polys = _fixed_char_polys(algebra)
    total = len(fixed) + samples
    for lo in range(0, total, PROBE_CHUNK):
        head = fixed[lo : lo + PROBE_CHUNK]
        draws = min(PROBE_CHUNK, total - lo) - len(head)
        stack = np.concatenate([head, random_elements(algebra, rng, draws)]) if draws else head
        yield stack, polys[lo : lo + PROBE_CHUNK]


def _check(stacks: Iterator[tuple[np.ndarray, np.ndarray]], images, residual, tol: float) -> CheckResult:
    """Map each probe stack A, yielded with what its source knows of it, and stream
    ``residual(A, F(A), known)``; the first four violating probes are the witnesses. Non-finite
    images are always masked: such a probe is a violation with residual inf, and the residual sees
    a zero image in its place. The mask copies finite images unchanged, so their residuals keep their bits."""

    def residuals(a, known):
        fa = images(a)
        finite = np.isfinite(fa).all(axis=(1, 2))
        return np.where(finite, residual(a, np.where(finite[:, None, None], fa, 0), known), np.inf)

    return verdict(((residuals(a, known), lambda i: a[i].copy()) for a, known in stacks), tol)


def char_poly_gap(a: np.ndarray, fa: np.ndarray, pa=()) -> np.ndarray:
    """The char-poly residual of each input of a (k, n, n) stack against its
    image: the largest coefficient gap, the x^k one scaled by max(1, ||A||_F)^(n-k).
    ``pa`` is ``char_poly`` of the first len(pa) inputs, none by default."""
    n = a.shape[-1]
    if len(pa) < len(a):
        pa = np.concatenate([np.reshape(pa, (-1, n + 1)), char_poly(a[len(pa) :])])
    diff = char_poly(fa) - pa
    scale = np.maximum(1.0, frobenius(a))[:, None] ** (n - np.arange(n + 1))
    return np.max(np.abs(diff) / scale, axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def commutator_gap(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """||[F_A, F_B]||_F / max(1, ||F_A||_F ||F_B||_F) for each pair of two (k, n, n) stacks."""
    return frobenius(fa @ fb - fb @ fa) / np.maximum(1.0, frobenius(fa) * frobenius(fb))


def check_char_poly_preserving(
    m, algebra=None, *, samples: int = 100, seed=0, tol: float = 1e-8
) -> CheckResult:
    """Compare char polys coefficientwise (``char_poly_gap``).

    The fixed probes' char polys are written down (``_fixed_char_polys``);
    only the random probes' are computed. Every probe is still evaluated, in
    the same stacks.
    """
    alg, images = _evaluator(m, algebra, samples=samples)
    rng = np.random.default_rng(seed)
    return _check(_probe_stacks(alg, samples, rng), images, char_poly_gap, tol)


def check_spectrum_shrinking(
    m, algebra=None, *, samples: int = 100, seed=0, tol: float = 1e-8
) -> CheckResult:
    """Every eigenvalue of the image must be near some eigenvalue of the input."""
    alg, images = _evaluator(m, algebra, samples=samples)
    rng = np.random.default_rng(seed)

    def residual(a, fa, _):
        lam_in = eigenvalues(a)
        lam_out = eigenvalues(fa)
        gap = np.max(np.min(np.abs(lam_out[:, :, None] - lam_in[:, None, :]), axis=2), axis=1)
        return gap / np.maximum(1.0, frobenius(a))

    return _check(_probe_stacks(alg, samples, rng), images, residual, tol)


def check_commutativity_preserving(
    m, algebra=None, *, pairs: int = 100, seed=0, tol: float = 1e-8
) -> CheckResult:
    """Images of commuting pairs must commute, relative to their norms.

    Every commuting pair of matrix units is checked (the commutators of the
    map's ``unit_pairs``, or of one pass over a black box's unit images, each
    evaluated once), then ``pairs`` random commuting pairs.
    """
    alg, images = _evaluator(m, algebra, pairs=pairs)
    rng = np.random.default_rng(seed)
    units, unit_pairs = matrix_units(alg), _unit_pairs(m, alg, images)
    unit_commutators = (unit_pairs.commutator, lambda i: (units[unit_pairs.p[i]], units[unit_pairs.q[i]]))
    drawn = (random_commuting_pairs(alg, rng, min(PROBE_CHUNK, pairs - lo)) for lo in range(0, pairs, PROBE_CHUNK))
    batches = ((commutator_gap(images(ps), images(qs)), lambda i: (ps[i].copy(), qs[i].copy())) for ps, qs in drawn)
    return verdict(itertools.chain([unit_commutators], batches), tol)


def _multiset_match(lam_a: np.ndarray, lam_b: np.ndarray) -> np.ndarray:
    """Greedy nearest matching of each row of two (k, n) eigenvalue stacks.

    The entries of a row of ``lam_b``, in (real, imag) order, each take the
    nearest unmatched entry of ``lam_a`` (the first one on ties); returns the
    worst matched distance of each row.
    """
    k, n = lam_b.shape
    order = np.lexsort((lam_b.imag, lam_b.real), axis=-1)
    dist = np.abs(np.take_along_axis(lam_b, order, axis=-1)[:, :, None] - lam_a[:, None, :])
    rows = np.arange(k)
    taken = np.zeros((k, n), dtype=bool)
    worst = np.zeros(k)
    for step in range(n):
        d = np.where(taken, np.inf, dist[:, step, :])
        best = np.argmin(d, axis=1)
        worst = np.maximum(worst, d[rows, best])
        taken[rows, best] = True
    return worst


def _degenerate_samples(algebra: BlockAlgebra, samples: int, rng) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Conjugated diagonals T D T^-1 with a forced collision, at unit spectral norm, each
    stack with its (k, n) spectra: diag(D) over the same norm, the collision exact.

    Drawn one sample at a time: ``rng.choice`` takes its draws between each
    sample's diagonal and its random element, so a chunked draw would change
    the stream. The linear algebra runs once per stack of at most PROBE_CHUNK
    samples, bit for bit the per-sample result.
    """
    n = algebra.n
    for start in range(0, samples, PROBE_CHUNK):
        size = min(PROBE_CHUNK, samples - start)
        bases = np.zeros((size, n, n), dtype=np.complex128)
        g = np.empty((size, n, n), dtype=np.complex128)
        for k in range(size):
            base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if n >= 2:  # force at least one collision
                i, j = rng.choice(n, size=2, replace=False)
                base[j] = base[i]
            bases[k] = np.diag(base)
            g[k] = random_element(algebra, rng)
        t = identity(n) + g / (2.0 * np.maximum(spectral_norm(g), 1e-12))[:, None, None]
        a = t @ bases @ inverse(t)
        norm = np.maximum(spectral_norm(a), 1e-12)
        yield a / norm[:, None, None], np.diagonal(bases, axis1=1, axis2=2) / norm[:, None]


def check_multiplicity_preserving(
    m, algebra=None, *, samples: int = 50, seed=0
) -> CheckResult:
    """Eigenvalue multisets must match on deliberately degenerate inputs.

    Samples are conjugated diagonals with collisions, normalized to unit
    spectral norm. A sample's multiset is the one it was built with, whose
    collision is exact; only the images' eigenvalues are computed. Multisets
    are compared with an absolute clustering tolerance of 1e-6.
    """
    alg, images = _evaluator(m, algebra, samples=samples)
    rng = np.random.default_rng(seed)
    return _check(
        _degenerate_samples(alg, samples, rng),
        images,
        lambda a, fa, spectra: _multiset_match(spectra, eigenvalues(fa)),
        MULTIPLICITY_CLUSTER_TOL,
    )


def full_report(m, algebra=None, *, budget: int = 100, seed=0, tol: float = 1e-8) -> PreserverReport:
    """Run the char-poly, shrinking and commutativity checkers against the same
    budget with derived sub-seeds; the worst violation covers all three."""
    _nonnegative(budget=budget)
    seeds = np.random.SeedSequence(seed).spawn(3)
    cp = check_char_poly_preserving(m, algebra, samples=budget, seed=seeds[0], tol=tol)
    sh = check_spectrum_shrinking(m, algebra, samples=budget, seed=seeds[1], tol=tol)
    cm = check_commutativity_preserving(m, algebra, pairs=budget, seed=seeds[2], tol=tol)
    named = (("spectrum", cp), ("shrinking", sh), ("commutativity", cm))
    witnesses = {name: result.witnesses for name, result in named if not result.ok}
    return PreserverReport(
        spectrum_preserving=cp.ok,
        spectrum_shrinking=sh.ok,
        commutativity_preserving=cm.ok,
        samples_used=budget,
        worst_violation=max(cp.worst, sh.worst, cm.worst),
        witnesses=witnesses,
    )
