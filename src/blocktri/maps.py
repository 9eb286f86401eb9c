"""Linear maps on a block algebra and the two standard Jordan forms.

An AlgebraMap stores a linear map as an (n^2, d) coefficient matrix over the
domain's support-cell basis; images are full n x n matrices read off by a
row-major embedding, so the codomain is all of M_n. The two model maps are
X -> T X T^{-1} and X -> T X^t T^{-1}; ``recover_form`` reconstructs the
orientation and a canonical T from any map that actually is of one of these
forms, and rejects everything else.

Probes are evaluated as stacks: ``apply_batch`` maps a (k, n, n) stack with
one product, ``probe_chunks`` streams a probe sequence in stacks of at most
PROBE_CHUNK matrices, and ``unit_pair_residuals`` makes one pass over the
products of all matrix-unit images, shared by ``is_jordan`` and the
commutativity checker.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .algebra import (
    BlockAlgebra,
    block_algebra,
    flip_algebra,
    matrix_units,
    random_element,
)
from .errors import (
    Degenerate,
    IllConditioned,
    MismatchedDimension,
    NotFinite,
    NotJordanEmbedding,
    Singular,
    WrongAlgebra,
)
from .linalg import as_matrix, frobenius, identity, inverse, spectral_norm

RECOVERY_SEED = 0x1D4A
VERIFY_SAMPLES = 50
VERIFY_REL = 1e-7
OFF_CELL_REL = 1e-8
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
    """A linear map from a block algebra into M_n, in cell-basis coordinates."""

    domain: BlockAlgebra
    coefficients: np.ndarray

    def unit_image(self, cell_index: int) -> np.ndarray:
        n = self.domain.n
        return self.coefficients[:, cell_index].reshape(n, n)

    def unit_images(self) -> np.ndarray:
        """The (d, n, n) stack of the images of all matrix units, in cell order."""
        n = self.domain.n
        return np.ascontiguousarray(self.coefficients.T).reshape(-1, n, n)


def algebra_map_from_function(algebra, fn: Callable[[np.ndarray], np.ndarray]) -> AlgebraMap:
    """Materialize a linear map by evaluating it on every matrix unit."""
    algebra = block_algebra(algebra)
    coeffs = np.zeros((algebra.n**2, algebra.dim), dtype=np.complex128)
    for idx, e in enumerate(matrix_units(algebra)):
        coeffs[:, idx] = as_matrix(fn(e)).reshape(-1)
    return AlgebraMap(domain=algebra, coefficients=coeffs)


def build_form_map(algebra, form: JordanForm) -> AlgebraMap:
    """The linear map X -> T X T^{-1} (or T X^t T^{-1}) restricted to the algebra."""
    algebra = block_algebra(algebra)
    t = as_matrix(form.t, square=True)
    if t.shape != (algebra.n, algebra.n):
        raise MismatchedDimension("similarity size does not match the algebra")
    rows, cols = algebra.cell_rows, algebra.cell_cols
    if form.orientation is Orientation.ANTI_TRANSPOSE:
        rows, cols = cols, rows
    # the image of E_ij is the outer product of column i of T and row j of T^{-1}
    coeffs = t[:, None, rows] * inverse(t)[cols, :].T[None, :, :]
    return AlgebraMap(domain=algebra, coefficients=coeffs.reshape(algebra.n**2, algebra.dim))


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
    return (m.domain.coords(xs) @ m.coefficients.T).reshape(-1, n, n)


def apply(m: AlgebraMap, x: np.ndarray) -> np.ndarray:
    """Evaluate the map on a member of its domain."""
    return apply_batch(m, as_matrix(x)[None])[0]


def _form_image(orientation: Orientation, t: np.ndarray, tinv: np.ndarray, x: np.ndarray) -> np.ndarray:
    if orientation is Orientation.ANTI_TRANSPOSE:
        x = np.swapaxes(x, -1, -2)
    return t @ x @ tinv


def evaluate_form(form: JordanForm, x: np.ndarray) -> np.ndarray:
    """Evaluate the form directly by conjugation (independent of AlgebraMap),
    on a matrix or on a (k, n, n) stack."""
    return _form_image(form.orientation, form.t, inverse(form.t), x)


def probe_chunks(probes: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Stack a sequence of equal-shape probes in order, PROBE_CHUNK at a time.

    Probes are drawn lazily, so a seeded generator feeding them is consumed
    in exactly the order of a one-by-one loop.
    """
    it = iter(probes)
    while chunk := list(itertools.islice(it, PROBE_CHUNK)):
        yield np.stack(chunk)


class Tally:
    """Worst residual and the first four violations of a streamed check.

    A residual violates unless it is <= tol, so NaN is a violation; a
    non-finite residual makes the worst inf.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.ok = True
        self.worst = 0.0
        self.witnesses: list = []

    def add(self, res: np.ndarray, witness: Callable[[int], object] | None = None) -> None:
        if res.size == 0:
            return
        self.worst = max(self.worst, float(np.max(res)) if np.all(np.isfinite(res)) else np.inf)
        bad = np.flatnonzero(~(res <= self.tol))
        if bad.size:
            self.ok = False
            room = 4 - len(self.witnesses)
            if witness is not None and room > 0:
                self.witnesses.extend(witness(int(i)) for i in bad[:room])


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
    same products give the symmetric-product (Jordan) residual against
    phi(E_p E_q + E_q E_p) and the commutator. o denotes a b + b a.
    """
    d, n = algebra.dim, algebra.n
    rows, cols = algebra.cell_rows, algebra.cell_cols
    p, q = np.triu_indices(d)
    index = np.full((n, n), -1)
    index[rows, cols] = np.arange(d)
    # E_p E_q = E_il when j == k, E_q E_p = E_kj when l == i; -1 marks a zero
    left = np.where(cols[p] == rows[q], index[rows[p], cols[q]], -1)
    right = np.where(cols[q] == rows[p], index[rows[q], cols[p]], -1)
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
            scale = np.maximum(1.0, norms[u] * norms[lo:hi])
            expected = padded[left[sl]] + padded[right[sl]]
            jordan[sl] = np.max(np.abs(ab + ba - expected), axis=(1, 2)) / scale
            commutator[sl] = frobenius(ab - ba) / scale
    return UnitPairs(p=p, q=q, commuting=left == right, jordan=jordan, commutator=commutator)


class JordanCheck(NamedTuple):
    ok: bool
    worst_residual: float


@np.errstate(over="ignore", invalid="ignore")
def is_jordan(m: AlgebraMap, samples: int = 40, seed=0, tol: float = 1e-8) -> JordanCheck:
    """Check the symmetric-product identity exhaustively on matrix-unit pairs
    and the square identity on random elements."""
    alg = m.domain
    tally = Tally(tol)
    tally.add(unit_pair_residuals(alg, m.unit_images()).jordan)
    rng = np.random.default_rng(seed)
    for xs in probe_chunks(random_element(alg, rng) for _ in range(samples)):
        fx = apply_batch(m, xs)
        res = frobenius(apply_batch(m, xs @ xs) - fx @ fx) / np.maximum(1.0, frobenius(xs) ** 2)
        tally.add(res)
    return JordanCheck(ok=tally.ok, worst_residual=tally.worst)


def orientation_feasible(algebra, orientation: Orientation, codomain=None) -> bool:
    """Whether maps of the given orientation can land inside ``codomain``.

    With codomain None the target is all of M_n and everything is feasible;
    for an endomap (codomain equal to the algebra itself) the transposed
    orientation needs the flipped algebra to fit inside the codomain.
    """
    if codomain is None:
        return True
    algebra = block_algebra(algebra)
    codomain = block_algebra(codomain)
    if algebra.n != codomain.n:
        raise MismatchedDimension("algebra and codomain sizes differ")
    source = algebra if orientation is Orientation.INNER else flip_algebra(algebra)
    return not np.any(source.support & ~codomain.support)


@np.errstate(over="ignore", invalid="ignore")
def recover_form(m: AlgebraMap, seed=RECOVERY_SEED) -> JordanForm:
    """Recover (orientation, T) from a map of the form X -> T X T^{-1} or
    X -> T X^t T^{-1}.

    The diagonal-unit images must form a family of rank-one idempotents that
    are pairwise orthogonal and sum to the identity; their ranges assemble a
    similarity S, after which every unit image must concentrate on a single
    cell with consistent orientation. A diagonal rescaling anchored at the
    first row fixes T, which is then certified against the map on random
    samples. Any failure raises NotJordanEmbedding.
    """
    alg = m.domain
    n = alg.n
    cell_index = {cell: k for k, cell in enumerate(alg.cells)}
    images = [m.unit_image(k) for k in range(alg.dim)]
    overall = max(max(frobenius(img) for img in images), 1e-300)

    # (1) diagonal-unit images: orthogonal rank-one idempotents summing to I
    proj = [images[cell_index[(i, i)]] for i in range(n)]
    tol_struct = 1e-6
    total = np.zeros((n, n), dtype=np.complex128)
    for i, p in enumerate(proj):
        if frobenius(p @ p - p) > tol_struct * max(1.0, np.square(frobenius(p))):  # inf, not OverflowError
            raise NotJordanEmbedding(f"image of diagonal unit {i} is not idempotent")
        if abs(np.trace(p) - 1.0) > tol_struct:
            raise NotJordanEmbedding(f"image of diagonal unit {i} is not rank one")
        total += p
    if frobenius(total - identity(n)) > tol_struct * n:
        raise NotJordanEmbedding("diagonal-unit images do not sum to the identity")
    stacked = np.stack(proj)
    cross = frobenius(stacked[:, None] @ stacked[None, :])  # ||P_i P_j||_F for all i, j
    bad = np.argwhere(np.triu((cross > tol_struct) | (cross.T > tol_struct), 1))
    if bad.size:
        raise NotJordanEmbedding(f"images of units {bad[0, 0]} and {bad[0, 1]} are not orthogonal")

    # (2) assemble S from the ranges of the idempotents via a random probe
    rng = np.random.default_rng(seed)
    s = None
    for _ in range(32):
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        cand = np.stack([p @ w for p in proj], axis=1)
        norms = np.sqrt(np.sum(np.abs(cand) ** 2, axis=0))
        if float(np.min(norms)) >= 1e-8:
            s = cand / norms
            break
    if s is None:
        raise Degenerate("probe retries exhausted while assembling the similarity")
    try:
        sinv = inverse(s)
    except (Singular, IllConditioned) as exc:
        raise NotJordanEmbedding(f"assembled similarity is not invertible: {exc}") from exc

    # (3) classify: every conjugated unit image must sit on one cell
    votes_inner = 0
    votes_anti = 0
    conjugated: dict[tuple[int, int], np.ndarray] = {}
    for idx, (i, j) in enumerate(alg.cells):
        md = sinv @ images[idx] @ s
        conjugated[(i, j)] = md
        total_mass = frobenius(md)
        if total_mass <= 1e-10 * overall:
            raise NotJordanEmbedding(f"image of unit {(i, j)} vanishes")
        if i == j:
            continue
        rest = md.copy()
        rest[i, j] = 0.0
        inner_off = frobenius(rest)
        rest[i, j] = md[i, j]
        rest[j, i] = 0.0
        anti_off = frobenius(rest)
        if inner_off <= OFF_CELL_REL * total_mass:
            votes_inner += 1
        elif anti_off <= OFF_CELL_REL * total_mass:
            votes_anti += 1
        else:
            raise NotJordanEmbedding(f"image of unit {(i, j)} is not cell-concentrated")
    if votes_inner and votes_anti:
        raise NotJordanEmbedding("mixed orientations across matrix units")
    orientation = Orientation.ANTI_TRANSPOSE if votes_anti else Orientation.INNER

    # (4) diagonal rescaling anchored at the first row (E_0j always exists)
    d = np.ones(n, dtype=np.complex128)
    for j in range(1, n):
        md = conjugated[(0, j)]
        if orientation is Orientation.INNER:
            c = md[0, j]
            d[j] = 1.0 / c
        else:
            d[j] = md[j, 0]
    t = s * d[None, :]

    # (5) canonical scaling: largest-modulus entry becomes exactly 1
    flat_idx = int(np.argmax(np.abs(t)))
    t = t / t.reshape(-1)[flat_idx]

    # (6) certify against the map itself on seeded random samples
    try:
        tinv = inverse(t)
    except (Singular, IllConditioned) as exc:
        raise NotJordanEmbedding(f"recovered similarity is not invertible: {exc}") from exc
    cond = spectral_norm(t) * spectral_norm(tinv)
    for xs in probe_chunks(random_element(alg, rng) for _ in range(VERIFY_SAMPLES)):
        res = frobenius(apply_batch(m, xs) - _form_image(orientation, t, tinv, xs))
        if np.any(~(res <= VERIFY_REL * np.maximum(frobenius(xs), 1e-300) * cond**2)):
            raise NotJordanEmbedding("verification residual exceeds tolerance")
    return JordanForm(orientation=orientation, t=t)
