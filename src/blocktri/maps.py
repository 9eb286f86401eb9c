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

Probes are evaluated as stacks, behind one boundary (``_evaluator``), which
first rejects a negative probe count of its caller (ValueError): an
AlgebraMap maps a (k, n, n) stack with one unchecked product, as every probe
is built in its domain, and each image of a black box, which comes from
outside, is checked for shape: a ``_StackEvaluator`` (every gallery map) maps
a stack per call, any other box a matrix. ``is_jordan`` and every checker take
either: an AlgebraMap named with another ``algebra`` raises WrongAlgebra, a
black box with none ValueError. ``apply_batch`` and ``apply`` validate their
input, for matrices from outside. ``unit_pair_residuals`` is one pass over
the products of all unit images (``unit_images``), run once per AlgebraMap,
as ``unit_pairs``, and once per check of a black box (``_unit_pairs``, read
eagerly under verdict's error state): ``is_jordan`` reads every pair's Jordan
residual, which catches a one-unit error its random squares miss, the
commutativity checker the commuting pairs' commutators. The pass multiplies
out only the pairs its rank-one screen (``_pair_bounds``) cannot clear, in
one loop over those pairs, PROBE_CHUNK at a time, each product bit for bit
as with no screen. A cleared pair has a zero target and reports, as both its
residuals, a bound of at most UNIT_PAIR_SCREEN = 1e-12 on what its products
would give. That constant is below every default tol and 70x above any bound
seen on an exact map, so exact maps skip about 90 % of the products, and a
tol below it can only make a unit-pair verdict stricter. ``is_jordan`` draws
its squares PROBE_CHUNK at a time in one generator call (``random_elements``),
in the stream order of one draw at a time. Every sampled check feeds its
residual stacks to ``verdict``, which keeps the worst residual and the first
four violations.
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
UNIT_PAIR_SCREEN = 1e-12  # largest scaled bound a zero-target unit pair is cleared on, unmultiplied


class Orientation(enum.Enum):
    INNER = "inner"
    ANTI_TRANSPOSE = "anti-transpose"


@dataclass(frozen=True, eq=False)
class JordanForm:
    """Orientation tag plus the invertible similarity matrix T.

    T is canonically scaled: its largest-modulus entry equals 1 (ties broken
    by row-major order), fixing the scalar freedom of the form.
    """

    orientation: Orientation
    t: np.ndarray


@dataclass(frozen=True, eq=False)
class AlgebraMap:
    """A linear map from a block algebra into M_n, in cell-basis coordinates:
    ``coefficients`` has shape (n^2, dim), or MismatchedDimension is raised. It is
    a read-only C-ordered complex128 copy, so the cached ``unit_pairs`` stay valid,
    a residual summed over the columns does not depend on the caller's layout, and
    real, integer or boolean coefficients are read and written as every other matrix is."""

    domain: BlockAlgebra
    coefficients: np.ndarray

    def __post_init__(self):
        expected = (self.domain.n**2, self.domain.dim)
        if np.shape(self.coefficients) != expected:
            raise MismatchedDimension(f"coefficients have shape {np.shape(self.coefficients)}, expected {expected}")
        coefficients = np.array(self.coefficients, dtype=np.complex128, order="C")
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


def _evaluator(m, algebra=None, **counts: int) -> tuple[BlockAlgebra, Callable[[np.ndarray], np.ndarray]]:
    """The domain and an evaluator of (k, n, n) probe stacks: for an AlgebraMap one
    unchecked product, since probes are built in its domain (an ``algebra`` other
    than that domain raises WrongAlgebra); for a black box its images, each checked to have
    its probe's shape (MismatchedDimension), from one call per stack for a _StackEvaluator.
    The caller's probe ``counts`` are checked first (``_nonnegative``), before the map is read."""
    _nonnegative(**counts)
    if isinstance(m, AlgebraMap):
        if algebra is not None and block_algebra(algebra) != m.domain:
            raise WrongAlgebra(f"the map's domain is {m.domain.parts}, not {block_algebra(algebra).parts}")
        return m.domain, lambda xs: (m.domain.coords(xs) @ m.coefficients.T).reshape(xs.shape)
    if algebra is None:
        raise ValueError("a black-box map needs an explicit algebra")

    def images(xs, fn=m.fn if isinstance(m, _StackEvaluator) else None):
        fxs = np.asarray([images(x, m) for x in xs] if fn is None else fn(xs), dtype=np.complex128)
        if fxs.shape != xs.shape:
            raise MismatchedDimension(f"images have shape {fxs.shape}, expected {xs.shape}")
        return fxs

    return block_algebra(algebra), images


@np.errstate(over="ignore", invalid="ignore")
def _unit_pairs(m, algebra: BlockAlgebra, images) -> UnitPairs:
    """An AlgebraMap's cached ``unit_pairs``, else a pass over a black box's unit images under verdict's error state."""
    if isinstance(m, AlgebraMap):
        return m.unit_pairs
    return unit_pair_residuals(algebra, images(matrix_units(algebra)))


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
    non-finite residual makes the worst inf. Residuals computed as batches are
    drawn run under this error state, as ``_unit_pairs`` runs under its own.
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
    """The unit-pair pass, one part per reader, in row-major order of the pairs (E_p, E_q), q >= p.
    A pair the screen cleared reports its bound, at most UNIT_PAIR_SCREEN and never less than its
    products would give, as both its Jordan residual and its commutator."""

    jordan: np.ndarray  # every pair, for is_jordan: max |phi(E_p) o phi(E_q) - phi(E_p o E_q)| / scale
    p: np.ndarray  # p, q and commutator: the commuting pairs, for check_commutativity_preserving
    q: np.ndarray
    commutator: np.ndarray  # ||[phi(E_p), phi(E_q)]||_F / scale, scale = max(1, |phi(E_p)| |phi(E_q)|)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    u = np.finfo(np.float64).eps / 2
    return k * u / (1 - k * u)


def _pair_bounds(images: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For each pair (p, q), a bound on ||fl(U_p U_q)||_F + ||fl(U_q U_p)||_F,
    the computed products of the unit images U = phi(E), so on the pass's
    residuals, before scaling, of a pair whose target is zero.

    Each image is a rank-one skeleton plus a remainder, U_p = x_p y_p^t + R_p,
    pivoted on its largest-modulus entry (i, j): x_p is column j, y_p is row i
    over that entry, and rho_p = ||R_p||_F is taken from R_p itself (a zero
    image has x = y = 0). With G = Y X^t and H = |Y| |X|^t,
      ||U_p U_q||_F <= |G_pq| ||x_p|| ||y_q|| + ||x_p|| ||y_p|| rho_q
                       + rho_p ||x_q|| ||y_q|| + rho_p rho_q,
    and the roundings of the skeleton, of G and of the products themselves
    add terms in H_pq and rho only (Higham, ch. 3: complex products and
    inner products of length n within sqrt(2) gamma_2 and sqrt(2) gamma_{n+2}),
    so images with exact zeros where their skeletons meet bound to exactly 0.
    The factor ``slack`` covers the roundings of every norm, modulus and sum,
    in the bound and in the residuals it bounds. That model of rounding needs
    every nonzero entry's modulus within [1e-60, 1e60], where no step here or
    in the products can overflow or lose a digit to underflow; a pair with an
    image outside it, a non-finite one included, is bounded by inf.
    """
    d, n = images.shape[:2]
    flat = images.reshape(d, n * n)
    moduli = np.abs(flat)
    tame = np.all((moduli == 0) | ((moduli >= 1e-60) & (moduli <= 1e60)), axis=1)
    units = np.arange(d)
    k = np.argmax(moduli, axis=1)
    pivot = flat[units, k]
    x = images[units, :, k % n]
    y = images[units, k // n, :] / np.where(pivot == 0, 1.0, pivot)[:, None]
    rho = np.empty(d)
    for lo in range(0, d, PROBE_CHUNK):  # the remainders, a chunk at a time to bound memory
        c = slice(lo, lo + PROBE_CHUNK)
        rho[c] = frobenius(images[c] - x[c, :, None] * y[c, None, :])
    nx, ny = frobenius(x[:, None]), frobenius(y[:, None])
    mu, gc = np.sqrt(2) * _gamma(2), np.sqrt(2) * _gamma(n + 2)
    c_h = 2 * gc * (1 + mu) ** 2 + 2 * mu + mu**2
    c_r = 2 * (1 + mu) * (1 + gc)
    slack = 1 + _gamma(4 * n * n + 64)
    skeleton = np.abs(y @ x.T)  # d x d, updated in place
    skeleton += c_h * (np.abs(y) @ np.abs(x).T)
    skeleton *= nx[:, None]
    skeleton *= ny
    s = nx * ny
    bound = slack * (skeleton[p, q] + skeleton[q, p] + c_r * (s[p] * rho[q] + rho[p] * s[q] + rho[p] * rho[q]))
    return np.where(tame[p] & tame[q], bound, np.inf)


@np.errstate(over="ignore", invalid="ignore")
def unit_pair_residuals(algebra: BlockAlgebra, images: np.ndarray) -> UnitPairs:
    """One pass over the products of all unit images, both orders.

    ``images`` is the (d, n, n) stack of phi(E_p). Most targets E_p o E_q
    are zero (all but 1,256 of 12,880 pairs at (4,4,4,4)), o denoting
    a b + b a. A Jordan embedding's unit images are rank one, and for a pair
    with a zero target ``_pair_bounds`` bounds both residuals from one pair
    of d x d Gram matrices; a pair whose bound, scaled, is at most
    UNIT_PAIR_SCREEN is cleared: it reports that bound as its Jordan residual
    and its commutator, never less than the products would give, so the
    screen can make no verdict more lenient. Exact maps clear all their
    zero-target pairs (bounds up to 1.4e-14, cond(T) 1 to 1e4, n <= 16),
    noisy maps none. One loop runs over the pairs the screen leaves,
    PROBE_CHUNK pairs at a time: a chunk gathers phi(E_p) and phi(E_q) and
    multiplies them both ways, and the same products give the commutator
    (kept for commuting units) and the symmetric-product residual against
    phi(E_p o E_q). Subtracting an exact zero changes no modulus, so a chunk
    subtracts a target only from its pairs whose target is nonzero. Each
    product is one n x n gemm, so a pair that is multiplied has, bit for
    bit, what it would have with no screen.
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
    scale = np.maximum(1.0, norms[p] * norms[q])
    jordan = _pair_bounds(images, p, q) / scale
    commutator = jordan.copy()
    todo = np.flatnonzero(targeted | ~(jordan <= UNIT_PAIR_SCREEN))  # the pairs the screen does not clear
    for lo in range(0, todo.size, PROBE_CHUNK):
        k = todo[lo : lo + PROBE_CHUNK]
        a, b = images[p[k]], images[q[k]]
        ab, ba = a @ b, b @ a
        sym = ab + ba
        t = targeted[k]  # subtracting an exact zero target changes no modulus
        sym[t] -= padded[left[k[t]]] + padded[right[k[t]]]
        jordan[k] = np.max(np.abs(sym).reshape(k.size, n * n), axis=1) / scale[k]
        commutator[k] = frobenius(ab - ba) / scale[k]
    commuting = left == right  # E_p E_q = E_q E_p
    return UnitPairs(jordan, p[commuting], q[commuting], commutator[commuting])


def is_jordan(m, algebra=None, *, samples: int = 40, seed=0, tol: float = 1e-8) -> CheckResult:
    """Check the symmetric-product identity exhaustively on matrix-unit pairs and the square
    identity on random elements, of a map taken as the checkers take it. No witnesses are
    kept; a negative ``samples`` raises ValueError. ``samples=0`` checks the unit pairs alone,
    which decide a linear map exactly, as both sides are bilinear. The squares do too by
    polarization, but not in floating point: with one entry of one unit image off by 1e-7 of
    its norm (unitary T; 30 maps each on (4,4,4,4), (1,)*16, (16,)), 40 squares passed all 90,
    20 of which recovery rejects; the unit pairs reject all 90, even at 2e-8. A unit pair the
    pass's screen clears reads its bound, at most UNIT_PAIR_SCREEN = 1e-12 and never below its
    computed residual, so a ``tol`` under 1e-12 can only fail more pairs."""
    alg, images = _evaluator(m, algebra, samples=samples)
    rng = np.random.default_rng(seed)
    jordan = _unit_pairs(m, alg, images).jordan

    def squares(xs):
        fx = images(xs)
        return frobenius(images(xs @ xs) - fx @ fx) / np.maximum(1.0, frobenius(xs) ** 2)

    stacks = (random_elements(alg, rng, min(PROBE_CHUNK, samples - lo)) for lo in range(0, samples, PROBE_CHUNK))
    return verdict(itertools.chain([(jordan, None)], ((squares(xs), None) for xs in stacks)), tol)


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
