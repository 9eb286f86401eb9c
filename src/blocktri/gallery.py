"""Four executable counterexample maps, each missing exactly one hypothesis.

Each map is total on its block algebra and satisfies every property of a
Jordan-embedding characterization except the one it was built to violate:
a Moebius contraction (nonlinear, spectrum broken), a determinant-driven
conjugation twist (commutativity broken), an eigenvalue swap on distinct
diagonals (continuity broken), and the block-diagonal projection (injectivity
broken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import BlockAlgebra, block_algebra, random_element
from .errors import NotFinite, NotJordanEmbedding
from .linalg import char_poly, frobenius, identity, inverse, spectral_norm
from .maps import algebra_map_from_function, is_jordan, recover_form
from .preservers import (
    check_char_poly_preserving,
    check_commutativity_preserving,
    check_spectrum_shrinking,
)


def mobius_contraction(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Squash into the unit ball, then apply the disk involution (1-3z)/(3-z).

    The squashed matrix has spectral norm < 1, so 3I - Z is invertible and the
    rational expression computes the functional calculus exactly.
    """
    n = algebra.n
    z = x / (1.0 + spectral_norm(x))
    return (identity(n) - 3.0 * z) @ inverse(3.0 * identity(n) - z)


def det_twist(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Conjugate by diag(e^{det X}, 1, ..., 1); NotFinite if e^{det X} over- or underflows."""
    det = char_poly(x)[0]
    fdiag = np.ones(algebra.n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        fdiag[0] = np.exp(det)
        ratio = np.outer(fdiag, 1.0 / fdiag)
    if not np.isfinite(ratio).all():
        raise NotFinite(f"det_twist: e^(det X) with det X = {complex(det)} is out of range")
    np.fill_diagonal(ratio, 1.0)  # f_i / f_i is exactly 1
    return x * ratio


def eigen_swap(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Swap the first two diagonal entries of exactly-diagonal matrices with
    exactly-distinct diagonals; fix everything else.

    Distinctness and diagonality are decided on the stored entries with no
    tolerance, matching the set-theoretic branch of the map.
    """
    n = algebra.n
    out = x.copy()
    offdiag = x[~np.eye(n, dtype=bool)]
    if offdiag.size and np.any(offdiag != 0):
        return out
    diag = np.diag(x)
    if len(set(diag.tolist())) != n or n < 2:
        return out
    out[0, 0], out[1, 1] = diag[1], diag[0]
    return out


def block_projection(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Keep the diagonal blocks, zero every strictly-off-diagonal-block cell."""
    mask = algebra.support & algebra.support.T
    out = x.copy()
    out[~mask] = 0.0
    return out


@dataclass(frozen=True)
class CounterexampleSpec:
    name: str
    algebra: BlockAlgebra
    evaluator: Callable[[np.ndarray], np.ndarray]
    violated_property: str


def _make(name: str, parts, fn, violated: str) -> CounterexampleSpec:
    alg = block_algebra(parts)
    return CounterexampleSpec(
        name=name,
        algebra=alg,
        evaluator=lambda x, _fn=fn, _alg=alg: _fn(_alg, x),
        violated_property=violated,
    )


GALLERY: dict[str, CounterexampleSpec] = {
    spec.name: spec
    for spec in (
        _make("mobius_contraction", (1, 2), mobius_contraction, "linearity/spectrum"),
        _make("det_twist", (2, 1), det_twist, "commutativity"),
        _make("eigen_swap", (1, 1, 1), eigen_swap, "continuity"),
        _make("block_projection", (1, 2), block_projection, "injectivity"),
    )
}


def _unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def _suite_mobius(spec: CounterexampleSpec, budget: int, seed) -> dict:
    alg, fn = spec.algebra, spec.evaluator
    n = alg.n
    zero = np.zeros((n, n), dtype=np.complex128)
    at_zero = fn(zero)
    lin_gap = frobenius(at_zero - zero)
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for _ in range(budget):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        if frobenius(a - b) < 1e-9:
            continue
        min_gap = min(min_gap, frobenius(fn(a) - fn(b)))
    comm = check_commutativity_preserving(fn, alg, pairs=budget, seed=seed, tol=1e-9)
    spectrum = check_char_poly_preserving(fn, alg, samples=budget, seed=seed)
    return {
        "linear": {"holds": bool(lin_gap <= 1e-12), "witness_gap_at_zero": lin_gap},
        "injective_on_samples": {"holds": bool(min_gap > 0), "min_output_gap": float(min_gap)},
        "commutativity_preserving": {"holds": comm.ok, "worst": comm.worst},
        "spectrum_preserving": {"holds": spectrum.ok, "witness": "zero matrix"},
    }


def _suite_det_twist(spec: CounterexampleSpec, budget: int, seed) -> dict:
    alg, fn = spec.algebra, spec.evaluator
    n = alg.n
    spectrum = check_char_poly_preserving(fn, alg, samples=budget, seed=seed)
    witness = identity(n) + _unit(n, 0, 1)
    expected = identity(n) + np.e * _unit(n, 0, 1)
    lin_gap = frobenius(fn(witness) - (fn(identity(n)) + fn(_unit(n, 0, 1))))
    formula_gap = frobenius(fn(witness) - expected)
    # commuting pair whose images fail to commute: E_01 + E_10 and its 2I shift
    a = _unit(n, 0, 1) + _unit(n, 1, 0)
    b = a + 2.0 * identity(n)
    fa, fb = fn(a), fn(b)
    comm_violation = frobenius(fa @ fb - fb @ fa)
    return {
        "spectrum_preserving": {"holds": spectrum.ok, "worst": spectrum.worst},
        "linear": {"holds": bool(lin_gap <= 1e-10), "witness_gap": lin_gap, "image_formula_gap": formula_gap},
        "commutativity_preserving": {"holds": bool(comm_violation <= 1e-9), "witness_commutator_norm": comm_violation},
    }


def _suite_eigen_swap(spec: CounterexampleSpec, budget: int, seed) -> dict:
    alg, fn = spec.algebra, spec.evaluator
    n = alg.n
    spectrum = check_char_poly_preserving(fn, alg, samples=budget, seed=seed)
    comm = check_commutativity_preserving(fn, alg, pairs=budget, seed=seed, tol=1e-9)
    limit = np.diag(np.arange(1, n + 1).astype(np.complex128))
    image_of_limit = fn(limit)
    approach_fixed = True
    for k in (2, 8, 32, 128, 1024):
        xk = limit + (1.0 / k) * _unit(n, 0, 1)
        approach_fixed = approach_fixed and bool(np.array_equal(fn(xk), xk))
    jump = frobenius(image_of_limit - limit)
    return {
        "spectrum_preserving": {"holds": spectrum.ok, "worst": spectrum.worst},
        "commutativity_preserving": {"holds": comm.ok, "worst": comm.worst},
        "continuous": {
            "holds": bool(not approach_fixed or jump <= 1e-12),
            "witness_sequence_fixed": approach_fixed,
            "jump_at_limit": jump,
        },
    }


def _suite_block_projection(spec: CounterexampleSpec, budget: int, seed) -> dict:
    alg, fn = spec.algebra, spec.evaluator
    n = alg.n
    linear_map = algebra_map_from_function(alg, fn)
    jordan = is_jordan(linear_map, samples=budget, seed=seed, tol=1e-9)
    witness_cell = next(
        ((i, j) for (i, j) in alg.cells if not alg.support[j, i] and i != j), None
    )
    injective_gap = None
    if witness_cell is not None:
        e = _unit(n, *witness_cell)
        injective_gap = frobenius(fn(e) - fn(np.zeros_like(e)))
    unital = bool(np.array_equal(fn(identity(n)), identity(n)))
    shrink = check_spectrum_shrinking(fn, alg, samples=budget, seed=seed)
    try:
        recover_form(linear_map)
        rejected = False
    except NotJordanEmbedding:
        rejected = True
    return {
        "jordan": {"holds": jordan.ok, "worst": jordan.worst_residual},
        "injective": {
            "holds": bool(injective_gap is None or injective_gap > 0),
            "witness_image_gap": injective_gap,
        },
        "unital": {"holds": unital},
        "spectrum_shrinking": {"holds": shrink.ok, "worst": shrink.worst},
        "recovery_rejects": {"holds": rejected},
    }


_SUITES = {
    "mobius_contraction": _suite_mobius,
    "det_twist": _suite_det_twist,
    "eigen_swap": _suite_eigen_swap,
    "block_projection": _suite_block_projection,
}


def run_gallery_suite(name: str, budget: int = 100, seed=0) -> dict:
    """Run the certified property suite of one gallery map."""
    if name not in GALLERY:
        raise KeyError(f"unknown gallery name {name!r}")
    spec = GALLERY[name]
    report = _SUITES[name](spec, budget, seed)
    return {
        "name": name,
        "algebra": ",".join(str(k) for k in spec.algebra.parts),
        "violated_property": spec.violated_property,
        "properties": report,
    }
