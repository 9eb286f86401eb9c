"""Linear maps on a block algebra and the two standard Jordan forms.

An AlgebraMap stores a linear map as an (n^2, d) coefficient matrix over the
domain's support-cell basis; images are full n x n matrices read off by a
row-major embedding, so the codomain is all of M_n. The two model maps are
X -> T X T^{-1} and X -> T X^t T^{-1}; ``recover_form`` reconstructs the
orientation and a canonical T from any map that actually is of one of these
forms, and rejects everything else. It draws no random numbers: T is read off
the 2n - 1 diagonal and first-row unit images, and the map is accepted exactly
when T is certified on every matrix unit (``form_residual``, a gap relative to
each image's norm). Jordan embeddings are exactly these two forms, so that
certificate alone decides the map, and one unit that misses it rejects the
map: recovery certifies the first PROBE_CHUNK units in cell order and the rest
only once those pass. Coefficients are stored C-ordered, so a residual has
the same bits whatever layout the map was built from.

Probes are evaluated as stacks, behind one boundary (``_evaluator``): an
AlgebraMap maps a (k, n, n) stack with one unchecked product, as every probe
is built in its domain, and each image of a black box, which comes from
outside, is checked for shape: a ``_StackEvaluator`` (every gallery map) maps
a stack per call, any other box a matrix. An AlgebraMap named with another
``algebra`` raises WrongAlgebra. ``apply_batch`` (and ``apply``) is the
validated public entry; a map's unit images are read as one (d, n, n) stack,
``unit_images``. ``unit_pair_residuals`` makes one pass over the products of
all matrix-unit images, subtracting a target only from the few pairs whose
E_p E_q + E_q E_p is nonzero. ``is_jordan`` draws its random probes
PROBE_CHUNK at a time with one generator call (``random_elements``), in the
stream order of one draw at a time. An AlgebraMap keeps a read-only copy of
its coefficients and runs that pass once, on first use, as ``unit_pairs``;
``is_jordan`` and the commutativity checker both read it. Every sampled
check, here and in ``preservers``, feeds its stream of residual stacks to
``verdict``, which keeps the worst residual and the first four violations.
A negative probe count raises ValueError (``_nonnegative``) before any draw.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .algebra import BlockAlgebra, block_algebra, matrix_units, random_elements
from .errors import (
    IllConditioned,
    MismatchedDimension,
    NotFinite,
    NotJordanEmbedding,
    Singular,
    WrongAlgebra,
)
from .linalg import as_matrix, as_stack, frobenius, inverse

VERIFY_REL = 1e-7  # largest relative unit-image gap a recovered form may leave
PROBE_CHUNK = 32  # matrices per stacked evaluation; bounds every probe loop's memory


class Orientation(enum.Enum):
    INNER = "inner"
    ANTI_TRANSPOSE = "anti-transpose"


@dataclass(frozen=True)
class JordanForm:
    """Orientation tag plus the invertible similarity matrix T.

    T is canonically scaled: its largest-modulus entry equals 1 (ties broken
    by row-major order), fixing the scalar freedom of the form.
    """

    orientation: Orientation
    t: np.ndarray


@dataclass(frozen=True)
class AlgebraMap:
    """A linear map from a block algebra into M_n, in cell-basis coordinates:
    ``coefficients`` has shape (n^2, dim), or MismatchedDimension is raised. It is
    a read-only C-ordered copy, so the cached ``unit_pairs`` stay valid and a
    residual summed over the columns does not depend on the caller's layout."""

    domain: BlockAlgebra
    coefficients: np.ndarray

    def __post_init__(self):
        coefficients = np.array(self.coefficients, order="C")
        expected = (self.domain.n**2, self.domain.dim)
        if coefficients.shape != expected:
            raise MismatchedDimension(f"coefficients have shape {coefficients.shape}, expected {expected}")
        coefficients.setflags(write=False)
        object.__setattr__(self, "coefficients", coefficients)

    @functools.cached_property
    def unit_pairs(self) -> UnitPairs:
        """The unit-pair pass over this map's unit images (``unit_pair_residuals``)."""
        return unit_pair_residuals(self.domain, self.unit_images())

    def unit_images(self) -> np.ndarray:
        """The (d, n, n) stack of the images of all matrix units, in cell order."""
        n = self.domain.n
        return np.ascontiguousarray(self.coefficients.T).reshape(-1, n, n)


class _StackEvaluator(NamedTuple):
    """A black-box map that takes a whole (k, n, n) stack, called once per stack."""

    fn: Callable[[np.ndarray], np.ndarray]


def _nonnegative(**counts: int) -> None:
    """Reject a negative probe count (``samples``, ``pairs``, ``budget``) with a
    ValueError naming it, before anything is drawn; zero is valid."""
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")


def _evaluator(m, algebra=None) -> tuple[BlockAlgebra, Callable[[np.ndarray], np.ndarray]]:
    """The domain and an evaluator of (k, n, n) probe stacks: for an AlgebraMap one
    unchecked product, since probes are built in its domain (an ``algebra`` other
    than that domain raises WrongAlgebra); for a black box its images, each checked to have
    its probe's shape (MismatchedDimension), from one call per stack for a _StackEvaluator."""
    if isinstance(m, AlgebraMap):
        if algebra is not None and block_algebra(algebra) != m.domain:
            raise WrongAlgebra(f"the map's domain is {m.domain.parts}, not {block_algebra(algebra).parts}")
        return m.domain, lambda xs: (m.domain.coords(xs) @ m.coefficients.T).reshape(xs.shape)
    if algebra is None:
        raise ValueError("a black-box map needs an explicit algebra; is_jordan needs an AlgebraMap, "
                         "which algebra_map_from_function builds")

    def images(xs, fn=m.fn if isinstance(m, _StackEvaluator) else None):
        fxs = np.asarray([images(x, m) for x in xs] if fn is None else fn(xs), dtype=np.complex128)
        if fxs.shape != xs.shape:
            raise MismatchedDimension(f"images have shape {fxs.shape}, expected {xs.shape}")
        return fxs

    return block_algebra(algebra), images


def algebra_map_from_function(algebra, fn: Callable[[np.ndarray], np.ndarray]) -> AlgebraMap:
    """Materialize a linear map by evaluating it on every matrix unit, in cell
    order; an image that is not n x n raises MismatchedDimension, one that is not finite NotFinite."""
    algebra, images = _evaluator(fn, algebra)
    units = as_stack(images(matrix_units(algebra)))
    return AlgebraMap(domain=algebra, coefficients=units.reshape(algebra.dim, -1).T)


def build_form_map(algebra, form: JordanForm) -> AlgebraMap:
    """The linear map X -> T X T^{-1} (or T X^t T^{-1}) restricted to the algebra."""
    algebra = block_algebra(algebra)
    t = _similarity(algebra, form)
    return AlgebraMap(domain=algebra, coefficients=_form_columns(algebra, form.orientation, t, inverse(t), slice(None)))


def _similarity(algebra: BlockAlgebra, form: JordanForm) -> np.ndarray:
    t = as_matrix(form.t, square=True)
    if t.shape != (algebra.n, algebra.n):
        raise MismatchedDimension("similarity size does not match the algebra")
    return t


def _form_columns(algebra: BlockAlgebra, orientation: Orientation, t, tinv, cells: slice) -> np.ndarray:
    """The form's coefficient columns for the units of ``cells``: an (n^2, k)
    view of the (k, n, n) stack of their images. The image of E_ij is the outer
    product of column i of T and row j of T^{-1} (of column j and row i for the
    anti-transpose form). Built as a stack, each product rounds as it always
    has; written straight into (n^2, k) order, numpy rounds it differently at n = 1."""
    rows, cols = algebra.cell_rows[cells], algebra.cell_cols[cells]
    if orientation is Orientation.ANTI_TRANSPOSE:
        rows, cols = cols, rows
    n = algebra.n
    return (t.T[rows][:, :, None] * tinv[cols][:, None, :]).reshape(rows.size, n * n).T


def apply_batch(m: AlgebraMap, xs: np.ndarray) -> np.ndarray:
    """Evaluate the map on a (k, n, n) stack of members of its domain.

    Every matrix must be finite, n x n and supported in the domain up to
    1e-8 * max(1, ||x||_F); the images come from one (k, d) @ (d, n^2) product.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    n = m.domain.n
    if xs.ndim != 3:
        raise MismatchedDimension(f"expected a (k, n, n) stack, got ndim={xs.ndim}")
    if not np.all(np.isfinite(xs)):
        raise NotFinite("matrix contains NaN or infinite entries")
    if xs.shape[1:] != (n, n):
        raise WrongAlgebra(f"expected {n} x {n}, got {xs.shape[1:]}")
    off = np.abs(xs[:, ~m.domain.support])
    if off.size and np.any(np.max(off, axis=1) > 1e-8 * np.maximum(1.0, frobenius(xs))):
        raise WrongAlgebra("matrix is not supported in the map's domain")
    return _evaluator(m)[1](xs)


def apply(m: AlgebraMap, x: np.ndarray) -> np.ndarray:
    """Evaluate the map on a member of its domain."""
    return apply_batch(m, as_matrix(x)[None])[0]


class CheckResult(NamedTuple):
    ok: bool
    worst: float
    witnesses: list


@np.errstate(over="ignore", invalid="ignore")
def verdict(batches: Iterable[tuple[np.ndarray, Callable[[int], object] | None]], tol: float) -> CheckResult:
    """The worst residual and the first four violations of a stream of
    (residuals, witness) batches; ``witness(i)``, if given, names the i-th.

    A residual violates unless it is <= tol, so NaN is a violation; a
    non-finite residual makes the worst inf. Batches are consumed lazily,
    so residuals computed as they are drawn run under this error state.
    """
    ok, worst, witnesses = True, 0.0, []
    for res, witness in batches:
        worst = max(worst, float(np.max(res, initial=0.0)) if np.all(np.isfinite(res)) else np.inf)
        bad = np.flatnonzero(~(res <= tol))
        if bad.size:
            ok = False
            if witness is not None:
                witnesses.extend(witness(int(i)) for i in bad[: 4 - len(witnesses)])
    return CheckResult(ok=ok, worst=worst, witnesses=witnesses)


class UnitPairs(NamedTuple):
    """Residuals of every matrix-unit pair (E_p, E_q), q >= p, in row-major
    (p, q) order."""

    p: np.ndarray
    q: np.ndarray
    commuting: np.ndarray  # E_p and E_q commute
    jordan: np.ndarray  # max |phi(E_p) o phi(E_q) - phi(E_p o E_q)| / max(1, |phi(E_p)| |phi(E_q)|)
    commutator: np.ndarray  # ||[phi(E_p), phi(E_q)]||_F / max(1, |phi(E_p)| |phi(E_q)|)


@np.errstate(over="ignore", invalid="ignore")
def unit_pair_residuals(algebra: BlockAlgebra, images: np.ndarray) -> UnitPairs:
    """One pass over the products of all unit images, both orders.

    ``images`` is the (d, n, n) stack of phi(E_p). For each unit p the image
    is multiplied by every phi(E_q), q >= p, in chunks of PROBE_CHUNK; the
    same products give the commutator and the symmetric-product (Jordan)
    residual against phi(E_p E_q + E_q E_p), o denoting a b + b a. Most
    targets E_p o E_q are zero (all but 1,240 of 12,880 pairs at (4,4,4,4)),
    and subtracting an exact zero changes no modulus, so a chunk subtracts
    a target only from its pairs whose target is nonzero.
    """
    d, n = algebra.dim, algebra.n
    rows, cols = algebra.cell_rows, algebra.cell_cols
    p, q = np.triu_indices(d)
    index = np.full((n, n), -1)
    index[rows, cols] = np.arange(d)
    # E_p E_q = E_il when j == k, E_q E_p = E_kj when l == i; -1 marks a zero
    left = np.where(cols[p] == rows[q], index[rows[p], cols[q]], -1)
    right = np.where(cols[q] == rows[p], index[rows[q], cols[p]], -1)
    targeted = (left >= 0) | (right >= 0)
    padded = np.concatenate([images, np.zeros((1, n, n), dtype=images.dtype)])
    norms = frobenius(images)
    jordan = np.empty(p.size)
    commutator = np.empty(p.size)
    start = 0
    for u in range(d):
        for lo in range(u, d, PROBE_CHUNK):
            hi = min(lo + PROBE_CHUNK, d)
            sl = slice(start, start + hi - lo)
            start += hi - lo
            ab = images[u] @ images[lo:hi]
            ba = images[lo:hi] @ images[u]
            sym = ab + ba
            k = np.flatnonzero(targeted[sl])
            sym[k] -= padded[left[sl][k]] + padded[right[sl][k]]
            scale = np.maximum(1.0, norms[u] * norms[lo:hi])
            jordan[sl] = np.max(np.abs(sym), axis=(1, 2)) / scale
            commutator[sl] = frobenius(ab - ba) / scale
    return UnitPairs(p=p, q=q, commuting=left == right, jordan=jordan, commutator=commutator)


def is_jordan(m: AlgebraMap, samples: int = 40, seed=0, tol: float = 1e-8) -> CheckResult:
    """Check the symmetric-product identity exhaustively on matrix-unit pairs
    and the square identity on random elements. No witnesses are kept; a
    negative ``samples`` raises ValueError."""
    _nonnegative(samples=samples)
    rng = np.random.default_rng(seed)
    _, images = _evaluator(m)

    def squares(xs):
        fx = images(xs)
        return frobenius(images(xs @ xs) - fx @ fx) / np.maximum(1.0, frobenius(xs) ** 2)

    stacks = (random_elements(m.domain, rng, min(PROBE_CHUNK, samples - lo)) for lo in range(0, samples, PROBE_CHUNK))
    return verdict(itertools.chain([(m.unit_pairs.jordan, None)], ((squares(xs), None) for xs in stacks)), tol)


def _unit_gaps(m: AlgebraMap, orientation: Orientation, t, tinv, cells: slice = slice(None)) -> np.ndarray:
    """||phi(E_p) - form(E_p)||_F / max(1, ||phi(E_p)||_F) for the matrix units
    E_p of ``cells``, in cell order, from the coefficient columns (no unit-image
    copies). A gap reads only its own column, summed entry by entry, so pieces
    give the bits of one full pass unless a piece is a single column of a wider
    pass: numpy sums a lone column pairwise."""
    n = m.domain.n
    c = m.coefficients[:, cells]
    diff = np.subtract(c, _form_columns(m.domain, orientation, t, tinv, cells), order="C")
    gaps = frobenius(diff.T.reshape(-1, n, n))
    return gaps / np.maximum(1.0, frobenius(c.T.reshape(-1, n, n)))


@np.errstate(over="ignore", invalid="ignore")
def form_residual(m: AlgebraMap, form: JordanForm) -> float:
    """The largest relative gap ||phi(E_p) - form(E_p)||_F / max(1, ||phi(E_p)||_F)
    over all matrix units E_p of the map's domain; inf unless every gap is
    finite. A linear map is fixed by its unit images, so this certifies the
    form on the whole algebra."""
    t = _similarity(m.domain, form)
    gaps = _unit_gaps(m, form.orientation, t, inverse(t))
    return float(np.max(gaps)) if np.all(np.isfinite(gaps)) else np.inf


def recover_form(m: AlgebraMap) -> JordanForm:
    """Recover (orientation, T) from a map of the form X -> T X T^{-1} or
    X -> T X^t T^{-1}.

    Column i of a similarity S spans the range of the image of E_ii; the
    images of the first-row units E_0j, conjugated by S, give the orientation
    and a diagonal rescaling that fixes T. The form is accepted exactly when
    its relative gap to the map is at most VERIFY_REL on every matrix unit
    (``form_residual``): by the characterization of Jordan embeddings, that
    certificate alone decides the map, and so does any one unit that misses
    it. The first PROBE_CHUNK units, in cell order, are certified on their
    own; the rest only when all of those pass. No step draws random numbers.
    Any failure raises NotJordanEmbedding, naming the first unit, in cell
    order, whose image is zero among the 2n - 1 read or that misses the form,
    or saying that the diagonal-unit images overflow or that S or T is not
    invertible.
    """
    return _recover_certified(m)[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _recover_certified(m: AlgebraMap) -> tuple[JordanForm, float]:
    """``recover_form`` and the ``form_residual`` that certified its result.

    Reads only the 2n - 1 columns of the diagonal and first-row units. A zero image
    among them is named, and so are overflowing or non-finite diagonal-unit images;
    any other non-finite or degenerate image surfaces as a non-invertible S or T or
    as a failed certification, never as a warning.
    """
    alg = m.domain
    n = alg.n
    c = m.coefficients

    # (0) a zero image among those read would surface as a singular S or T: name its unit
    diagonal = alg.cell_rows == alg.cell_cols
    read = np.flatnonzero(diagonal | (alg.cell_rows == 0))
    zero = read[~np.any(c[:, read], axis=0)]
    if zero.size:
        raise NotJordanEmbedding(f"image of unit {alg.cells[zero[0]]} is zero")

    # (1) column i of S spans the range of the rank-one P_i = phi(E_ii): its largest column
    proj = c[:, diagonal].T.reshape(n, n, n)
    col_norms = np.sqrt(np.sum(np.abs(proj) ** 2, axis=1))  # (i, k): ||column k of P_i||
    if not np.all(np.isfinite(col_norms)):
        raise NotJordanEmbedding("diagonal-unit images overflow or are not finite")
    s = proj[np.arange(n), :, np.argmax(col_norms, axis=1)].T / np.max(col_norms, axis=1)
    try:
        sinv = inverse(s)
    except (NotFinite, Singular, IllConditioned) as exc:
        raise NotJordanEmbedding(f"assembled similarity is not invertible: {exc}") from exc

    # (2) conjugate the first-row images (cells 1..n-1 are E_0j): S^-1 T E_0j T^-1 S
    # is a multiple of E_0j for an inner form and of E_j0 for an anti-transpose one
    j = np.arange(1, n)
    conjugated = sinv @ c[:, j].T.reshape(-1, n, n) @ s
    anti = n > 1 and abs(conjugated[0, 1, 0]) > abs(conjugated[0, 0, 1])
    orientation = Orientation.ANTI_TRANSPOSE if anti else Orientation.INNER

    # (3) diagonal rescaling anchored at the first row
    d = np.ones(n, dtype=np.complex128)
    d[1:] = conjugated[j - 1, j, 0] if anti else 1.0 / conjugated[j - 1, 0, j]
    t = s * d[None, :]

    # (4) canonical scaling: largest-modulus entry becomes exactly 1
    t = t / t.reshape(-1)[int(np.argmax(np.abs(t)))]

    # (5) certify against the map itself on every matrix unit, the first PROBE_CHUNK
    # alone: one miss decides the map. A single unit left over joins them, since a
    # lone column would be summed in another order (``_unit_gaps``).
    try:
        tinv = inverse(t)
    except (NotFinite, Singular, IllConditioned) as exc:
        raise NotJordanEmbedding(f"recovered similarity is not invertible: {exc}") from exc
    dim = alg.dim
    head = PROBE_CHUNK if dim > PROBE_CHUNK + 1 else dim
    worst = _certify(m, orientation, t, tinv, slice(0, head))
    if head < dim:
        worst = max(worst, _certify(m, orientation, t, tinv, slice(head, dim)))
    return JordanForm(orientation=orientation, t=t), worst


def _certify(m: AlgebraMap, orientation: Orientation, t, tinv, cells: slice) -> float:
    """The largest unit gap over ``cells``, or NotJordanEmbedding naming the
    first of them, in cell order, whose gap exceeds VERIFY_REL."""
    gaps = _unit_gaps(m, orientation, t, tinv, cells)
    bad = ~(gaps <= VERIFY_REL)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotJordanEmbedding(
            f"image of unit {m.domain.cells[cells.start + k]} misses the recovered form: relative gap {gaps[k]:.3e} > {VERIFY_REL:g}"
        )
    return float(np.max(gaps))
