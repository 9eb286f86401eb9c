"""Four counterexample maps, each breaking exactly one hypothesis.

For n >= 3 the Jordan embeddings are exactly the continuous injective maps that
preserve commutativity and spectrum. A Moebius contraction breaks spectrum, a
determinant-driven conjugation twist commutativity, an eigenvalue swap on distinct
diagonals continuity, and the block-diagonal projection injectivity.
``run_gallery_suite`` reports the same seven properties for every map: the four
hypotheses, ``linear``, ``jordan`` and ``recovery_rejects``. Continuity and linearity are
tested at the same inputs for every map. A spec carries only its optional witnesses, which
are checked first; seeded random probes decide each hypothesis they do not refute.

Every map takes one matrix or a (..., n, n) stack, bit for bit the same per matrix. The
suite reads its map only through ``maps._evaluator``, as a ``_StackEvaluator``, so every
image is checked for shape: one call maps its six continuity and additivity inputs, one a
witness, one all its injectivity draws and one the matrix units of a linear map, and the
checkers call it once per stack of probes.
"""

import cmath
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import BlockAlgebra, block_algebra, matrix_units, random_elements
from .errors import NotFinite, NotJordanEmbedding
from .linalg import char_poly, frobenius, identity, inverse, spectral_norm
from .maps import _evaluator, _nonnegative, _StackEvaluator, algebra_map_from_function, is_jordan, recover_form
from .preservers import (
    char_poly_gap,
    check_char_poly_preserving,
    check_commutativity_preserving,
    commutator_gap,
)


def mobius_contraction(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Squash into the unit ball, then apply the disk involution (1-3z)/(3-z).

    The squashed matrix has spectral norm < 1, so 3I - Z is invertible and the
    rational expression computes the functional calculus exactly.
    """
    n = algebra.n
    z = x / np.asarray(1.0 + spectral_norm(x))[..., None, None]
    return (identity(n) - 3.0 * z) @ inverse(3.0 * identity(n) - z)


def det_twist(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Conjugate by diag(e^{det X}, 1, ..., 1); NotFinite if det X is not finite or
    e^{det X} over- or underflows (on a stack, for the first such matrix)."""
    fdiag = np.ones(x.shape[:-2] + (algebra.n,), dtype=np.complex128)
    with np.errstate(all="ignore"):
        det = char_poly(x)[..., 0]
        fdiag[..., 0] = np.exp(det)
        ratio = fdiag[..., :, None] * (1.0 / fdiag)[..., None, :]
    bad = np.flatnonzero(~np.isfinite(ratio).all(axis=(-2, -1)))
    if bad.size:
        first = complex(np.reshape(det, -1)[bad[0]])
        which = f"matrix {bad[0]} of the stack: " if x.ndim > 2 else ""
        if cmath.isfinite(first):
            raise NotFinite(f"det_twist: {which}e^(det X) with det X = {first} is out of range")
        raise NotFinite(f"det_twist: {which}det X = {first} is not finite")
    diag = np.arange(algebra.n)
    ratio[..., diag, diag] = 1.0  # f_i / f_i is exactly 1
    return x * ratio


def eigen_swap(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Swap the first two diagonal entries of exactly-diagonal matrices with
    exactly-distinct diagonals; fix everything else. A (..., n, n) stack is
    mapped matrix by matrix.

    Distinctness and diagonality are decided on the stored entries with no
    tolerance, matching the set-theoretic branch of the map.
    """
    n = algebra.n
    out = x.copy()
    if n < 2:
        return out
    diag = np.diagonal(x, axis1=-2, axis2=-1)
    i, j = np.triu_indices(n, 1)
    swap = ~np.any(x[..., ~np.eye(n, dtype=bool)] != 0, axis=-1) & np.all(diag[..., i] != diag[..., j], axis=-1)
    out[swap, 0, 0], out[swap, 1, 1] = diag[swap, 1], diag[swap, 0]
    return out


def block_projection(algebra: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Keep the diagonal blocks, zero every strictly-off-diagonal-block cell
    (of each matrix of a (..., n, n) stack)."""
    mask = algebra.support & algebra.support.T
    out = x.copy()
    out[..., ~mask] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class CounterexampleSpec:
    """A gallery map, the property it breaks and the optional witnesses its suite checks first."""

    name: str
    algebra: BlockAlgebra
    evaluator: Callable[[np.ndarray], np.ndarray]
    violated_property: str
    equal_images: tuple[np.ndarray, np.ndarray] | None = None
    commuting_pair: tuple[np.ndarray, np.ndarray] | None = None
    spectrum_witness: np.ndarray | None = None


_E = dict(zip(block_algebra((3,)).cells, matrix_units(block_algebra((3,)))))  # every gallery map has n = 3
_A = _E[0, 1] + _E[1, 0]  # commutes with A + 2I; det_twist's images of the two do not commute

# Every row's inputs: continuity fails if a step of 1e-12 from _LIMIT along E_01 moves the image by
# over 1e-6 * max(1, ||f(_LIMIT)||_F), as no map Lipschitz there with a constant below 1e6 does;
# _ADDENDS (a, b) test f(a + b) = f(a) + f(b) and sum to _LIMIT, which eigen_swap moves.
_LIMIT = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
_DIRECTION = _E[0, 1]
_ADDENDS = (_LIMIT + _DIRECTION, -_DIRECTION)


def _spec(name: str, parts, fn, violated: str, **witnesses) -> CounterexampleSpec:
    alg = block_algebra(parts)
    return CounterexampleSpec(name, alg, lambda x: fn(alg, x), violated, **witnesses)


GALLERY: dict[str, CounterexampleSpec] = {
    spec.name: spec for spec in (
        _spec("mobius_contraction", (1, 2), mobius_contraction, "spectrum_preserving", spectrum_witness=0 * _LIMIT),
        _spec("det_twist", (2, 1), det_twist, "commutativity_preserving", commuting_pair=(_A, _A + 2 * identity(3))),
        _spec("eigen_swap", (1, 1, 1), eigen_swap, "continuous"),
        _spec("block_projection", (1, 2), block_projection, "injective", equal_images=(_E[0, 1], 0 * _LIMIT)),
    )
}


def _hypothesis(witness, measure, holds: Callable[[float], bool], probes: Callable[[], float]) -> dict:
    """Refuted by the spec's witness if its measure fails ``holds``, else decided on the probes."""
    value = None if witness is None else measure(witness)
    worst = value if value is not None and not holds(value) else probes()
    return {"holds": bool(holds(worst)), "worst": float(worst)}


def run_gallery_suite(name: str, budget: int = 100, seed=0) -> dict:
    """Run the hypothesis suite on one gallery map: per property, ``holds`` and its ``worst`` value.
    A negative ``budget`` raises ValueError."""
    _nonnegative(budget=budget)
    spec = GALLERY[name]
    stacked = _StackEvaluator(spec.evaluator)  # every gallery map takes (k, n, n) stacks
    alg, images = _evaluator(stacked, spec.algebra)
    a, b = _ADDENDS
    f_limit, f_step, fa, fb, f_zero, f_sum = images(np.stack([_LIMIT, _LIMIT + 1e-12 * _DIRECTION, a, b, 0 * a, a + b]))
    jump = frobenius(f_step - f_limit) / max(1.0, frobenius(f_limit))
    additivity = max(frobenius(f_zero), frobenius(f_sum - fa - fb)) / max(1.0, frobenius(fa) + frobenius(fb))

    def image_gap() -> float:
        """The smallest image distance over all pairs of distinct random inputs, each evaluated once."""
        xs = random_elements(alg, seed, budget)
        fxs = images(xs)
        gap = np.inf
        for i in range(0, budget, 16):  # a block of 16 draws against every draw up to its end
            distinct = np.any(xs[i : i + 16, None] != xs[: i + 16], axis=(2, 3))
            gap = min(gap, float(np.min(frobenius(fxs[i : i + 16, None] - fxs[: i + 16])[distinct], initial=np.inf)))
        return gap

    props = {
        "continuous": {"holds": jump <= 1e-6, "worst": jump},
        "injective": _hypothesis(
            spec.equal_images, lambda w: frobenius(np.subtract(*images(np.stack(w)))), lambda v: v > 0, image_gap
        ),
        "commutativity_preserving": _hypothesis(
            spec.commuting_pair, lambda w: commutator_gap(*images(np.stack(w))), lambda v: v <= 1e-9,
            lambda: check_commutativity_preserving(stacked, alg, pairs=budget, seed=seed, tol=1e-9).worst,
        ),
        "spectrum_preserving": _hypothesis(
            spec.spectrum_witness, lambda w: char_poly_gap(w[None], images(w[None]))[0], lambda v: v <= 1e-8,
            lambda: check_char_poly_preserving(stacked, alg, samples=budget, seed=seed, tol=1e-8).worst,
        ),
        "linear": {"holds": additivity <= 1e-10, "worst": additivity},
        "jordan": {"holds": False, "worst": None},
        "recovery_rejects": {"holds": True, "worst": None},
    }
    if props["linear"]["holds"]:
        m = algebra_map_from_function(alg, stacked)
        check = is_jordan(m, samples=budget, seed=seed, tol=1e-9)
        props["jordan"] = {"holds": check.ok, "worst": check.worst}
        with suppress(NotJordanEmbedding):
            recover_form(m)
            props["recovery_rejects"]["holds"] = False
    parts = ",".join(str(k) for k in alg.parts)
    return {"name": name, "algebra": parts, "violated_property": spec.violated_property, "properties": props}
