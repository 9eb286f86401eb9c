"""Four counterexample maps, each breaking exactly one hypothesis.

For n >= 3 the Jordan embeddings are exactly the continuous injective maps that
preserve commutativity and spectrum. A Moebius contraction breaks spectrum, a
determinant-driven conjugation twist commutativity, an eigenvalue swap on distinct
diagonals continuity, and the block-diagonal projection injectivity.
``run_gallery_suite`` reports the same seven properties for every map, on an algebra of any
n: the four hypotheses, ``linear``, ``jordan`` and ``recovery_rejects``. Continuity and
linearity are tested at L = diag(1, ..., n) and E_01 (E_00 at n = 1). A spec carries at most one
witness, a stack of inputs checked first against its violated property; seeded random
probes decide every hypothesis no witness refutes. ``jordan`` is ``is_jordan`` on the map
itself, and a form recovered from its unit images must also meet it on random members.

Every map takes one matrix or a (..., n, n) stack, bit for bit the same per matrix. The
suite reads its map only through ``maps._evaluator``, as a ``_StackEvaluator``, so every
image is checked for shape: one call maps its six continuity and additivity inputs, one the
witness, one all its injectivity draws, and, for a linear map, two its matrix units (for
``is_jordan`` and for recovery) and one the recovery members; the checks call it once per
stack of probes, twice for a pair or a square. The recovered form maps those members unvalidated.
"""

import cmath
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import BlockAlgebra, block_algebra, matrix_units, random_elements
from .errors import NotFinite, NotJordanEmbedding
from .linalg import char_poly, frobenius, identity, inverse, spectral_norm
from .maps import VERIFY_REL, _evaluator, _nonnegative, _StackEvaluator, algebra_map_from_function
from .maps import build_form_map, is_jordan, recover_form
from .preservers import char_poly_gap, check_char_poly_preserving, check_commutativity_preserving, commutator_gap


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
    """A gallery map, the property it breaks and an optional witness: a stack of inputs
    that refutes that property, which its suite checks first."""

    name: str
    algebra: BlockAlgebra
    evaluator: Callable[[np.ndarray], np.ndarray]
    violated_property: str
    witness: np.ndarray | None = None


_E = matrix_units(block_algebra((3,))).reshape(3, 3, 3, 3)  # _E[i, j] = E_ij at n = 3, every gallery map's n
_A = _E[0, 1] + _E[1, 0]  # commutes with A + 2I; det_twist's images of the two do not commute


def _spec(name: str, parts, fn, violated: str, *witness: np.ndarray) -> CounterexampleSpec:
    alg = block_algebra(parts)
    return CounterexampleSpec(name, alg, lambda x: fn(alg, x), violated, np.stack(witness) if witness else None)


GALLERY: dict[str, CounterexampleSpec] = {
    spec.name: spec for spec in (
        _spec("mobius_contraction", (1, 2), mobius_contraction, "spectrum_preserving", np.zeros_like(_A)),
        _spec("det_twist", (2, 1), det_twist, "commutativity_preserving", _A, _A + 2 * identity(3)),
        _spec("eigen_swap", (1, 1, 1), eigen_swap, "continuous"),
        _spec("block_projection", (1, 2), block_projection, "injective", _E[0, 1], np.zeros_like(_A)),
    )
}


def run_gallery_suite(name: str, budget: int = 100, seed=0) -> dict:
    """Run the hypothesis suite on one gallery map, on an algebra of any n: per property,
    ``holds`` and its ``worst`` value. A negative ``budget`` raises ValueError."""
    _nonnegative(budget=budget)
    spec = GALLERY[name]
    stacked = _StackEvaluator(spec.evaluator)  # every gallery map takes (k, n, n) stacks
    alg, images = _evaluator(stacked, spec.algebra)
    # continuity fails if a step of 1e-12 from L along E_01 moves the image by over
    # 1e-6 * max(1, ||f(L)||_F), as no map Lipschitz there with a constant below 1e6 does;
    # the addends (a, b) test f(a + b) = f(a) + f(b) and sum to L, which eigen_swap moves
    limit = np.diag(np.arange(1.0, alg.n + 1)).astype(np.complex128)
    direction = matrix_units(alg)[min(1, alg.dim - 1)]  # E_01, as row 0's cells come first; E_00 at n = 1
    a, b = limit + direction, -direction
    f_limit, f_step, fa, fb, f_zero, f_sum = images(np.stack([limit, limit + 1e-12 * direction, a, b, 0 * a, a + b]))
    jump = frobenius(f_step - f_limit) / max(1.0, frobenius(f_limit))
    additivity = max(frobenius(f_zero), frobenius(f_sum - fa - fb)) / max(1.0, frobenius(fa) + frobenius(fb))
    xs = random_elements(alg, seed, budget)  # the injectivity draws, and the members a recovered form must meet

    def image_gap() -> float:
        """The smallest image distance over all pairs of distinct random inputs, each evaluated once."""
        fxs = images(xs)
        gap = np.inf
        for i in range(0, budget, 16):  # a block of 16 draws against every draw up to its end
            distinct = np.any(xs[i : i + 16, None] != xs[: i + 16], axis=(2, 3))
            gap = min(gap, float(np.min(frobenius(fxs[i : i + 16, None] - fxs[: i + 16])[distinct], initial=np.inf)))
        return gap

    # per hypothesis: the measure of a witness, whether a value lets it hold, and the value on random probes
    table = {
        "injective": (lambda w: frobenius(np.subtract(*images(w))), lambda v: v > 0, image_gap),
        "commutativity_preserving": (
            lambda w: commutator_gap(*images(w)), lambda v: v <= 1e-9,
            lambda: check_commutativity_preserving(stacked, alg, pairs=budget, seed=seed, tol=1e-9).worst,
        ),
        "spectrum_preserving": (
            lambda w: char_poly_gap(w, images(w))[0], lambda v: v <= 1e-8,
            lambda: check_char_poly_preserving(stacked, alg, samples=budget, seed=seed, tol=1e-8).worst,
        ),
    }
    props = {"continuous": {"holds": jump <= 1e-6, "worst": jump}}
    for prop, (measure, holds, probes) in table.items():
        value = measure(spec.witness) if prop == spec.violated_property and spec.witness is not None else None
        worst = value if value is not None and not holds(value) else probes()
        props[prop] = {"holds": bool(holds(worst)), "worst": float(worst)}
    props |= {"linear": {"holds": additivity <= 1e-10, "worst": additivity},
              "jordan": {"holds": False, "worst": None}, "recovery_rejects": {"holds": True, "worst": None}}
    if props["linear"]["holds"]:
        check = is_jordan(stacked, alg, samples=budget, seed=seed, tol=1e-9)
        props["jordan"] = {"holds": check.ok, "worst": check.worst}
        with suppress(NotJordanEmbedding):
            form = recover_form(algebra_map_from_function(alg, stacked))
            fxs = images(xs)
            gaps = frobenius(fxs - _evaluator(build_form_map(alg, form))[1](xs)) / np.maximum(1.0, frobenius(fxs))
            props["recovery_rejects"]["holds"] = not np.all(gaps <= VERIFY_REL)
    parts = ",".join(str(k) for k in alg.parts)
    return {"name": name, "algebra": parts, "violated_property": spec.violated_property, "properties": props}
