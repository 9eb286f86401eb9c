"""Block upper-triangular subalgebras of M_n and their combinatorics.

A composition (k_1, ..., k_r) of n names the subalgebra of n x n complex
matrices vanishing below the block diagonal cut at k_1, k_1+k_2, ....
These are exactly the subalgebras containing all upper-triangular matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import MismatchedDimension
from .linalg import as_matrix, as_stack

Composition = tuple[int, ...]


def parse_composition(text: str) -> Composition:
    """Parse the text form "k1,k2,...,kr" (argv, documents) of a composition of n <= 16."""
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed composition {text!r}") from exc
    _positive(parts, text)
    if sum(parts) > 16:  # checked before any n x n allocation
        raise ValueError(f"composition {text!r} exceeds n = 16")
    return parts


def _positive(parts: Composition, spec) -> None:
    """Reject an empty composition or a part below 1, naming ``spec``."""
    if not parts or any(k < 1 for k in parts):
        raise ValueError(f"composition parts must be positive: {spec!r}")


def _part(k) -> int:
    """A part given as an int or a numpy integer; a bool, a float or anything
    else raises ValueError naming it, rather than being truncated by int()."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"composition part {k!r} is not an integer")
    return int(k)


@dataclass(frozen=True, eq=False)
class BlockAlgebra:
    """A composition together with its derived support mask and cell basis."""

    parts: Composition
    n: int
    support: np.ndarray
    cells: tuple[tuple[int, int], ...]
    dim: int
    cell_rows: np.ndarray = field(repr=False)
    cell_cols: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockAlgebra) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Read the support-cell coordinates of an n x n matrix (or of each
        matrix of a stack), row-major."""
        return x[..., self.cell_rows, self.cell_cols]

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Rebuild the n x n matrix whose support cells carry ``values`` (or,
        from a (k, dim) array, the (k, n, n) stack)."""
        out = np.zeros(values.shape[:-1] + (self.n, self.n), dtype=np.complex128)
        out[..., self.cell_rows, self.cell_cols] = values
        return out


def block_algebra(spec) -> BlockAlgebra:
    """Build a BlockAlgebra from a composition tuple, string, or instance."""
    if isinstance(spec, BlockAlgebra):
        return spec
    if isinstance(spec, str):
        parts = parse_composition(spec)
    else:
        parts = tuple(_part(k) for k in spec)
        _positive(parts, parts)
    n = sum(parts)
    block_of = np.repeat(np.arange(len(parts)), parts)
    support = block_of[:, None] <= block_of[None, :]
    support.flags.writeable = False
    rows, cols = np.nonzero(support)
    cells = tuple(zip(rows.tolist(), cols.tolist()))
    return BlockAlgebra(
        parts=parts,
        n=n,
        support=support,
        cells=cells,
        dim=len(cells),
        cell_rows=rows,
        cell_cols=cols,
    )


def membership(algebra: BlockAlgebra, a: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every off-support entry of ``a`` has magnitude <= tol."""
    a = as_matrix(a)
    if a.shape != (algebra.n, algebra.n):
        raise MismatchedDimension(f"expected {algebra.n} x {algebra.n}, got {a.shape}")
    off = a[~algebra.support]
    if off.size == 0:
        return True
    return float(np.max(np.abs(off))) <= tol


def project(algebra: BlockAlgebra, a: np.ndarray) -> np.ndarray:
    """Zero all off-support entries of ``a`` exactly."""
    a = as_matrix(a)
    if a.shape != (algebra.n, algebra.n):
        raise MismatchedDimension(f"expected {algebra.n} x {algebra.n}, got {a.shape}")
    out = a.copy()
    out[~algebra.support] = 0.0
    return out


def flip(x: np.ndarray) -> np.ndarray:
    """Mirror a square matrix along its secondary diagonal.

    A pure index permutation, out[i, j] = x[n-1-j, n-1-i]; it is an exact
    involution and reverses products.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise MismatchedDimension(f"expected a square matrix, got {x.shape}")
    return x[::-1, ::-1].T.copy()


def flip_algebra(algebra: BlockAlgebra) -> BlockAlgebra:
    """The algebra with reversed block sizes, the image of ``algebra`` under flip."""
    return block_algebra(algebra.parts[::-1])


def matrix_units(algebra: BlockAlgebra) -> np.ndarray:
    """A fresh (d, n, n) complex stack of one standard matrix unit per support
    cell, in row-major cell order."""
    units = np.zeros((algebra.dim, algebra.n, algebra.n), dtype=np.complex128)
    units[np.arange(algebra.dim), algebra.cell_rows, algebra.cell_cols] = 1.0
    return units


class Embedding(enum.Enum):
    INNER_ONLY = "inner-only"
    ANTI_ONLY = "anti-only"
    BOTH = "both"
    NONE = "none"


class JordanIsoClass(enum.Enum):
    ISOMORPHIC = "isomorphic"
    ANTI_ISOMORPHIC = "anti-isomorphic"
    BOTH_WAYS = "both-ways"
    NOT_JORDAN_ISOMORPHIC = "not-jordan-isomorphic"


def embeds(a, b) -> Embedding:
    """How the first algebra Jordan-embeds into the second.

    Inner embeddings exist iff support(a) is contained in support(b); flipped
    (anti) embeddings iff support of the reversed composition is.
    """
    a = block_algebra(a)
    b = block_algebra(b)
    if a.n != b.n:
        raise MismatchedDimension(f"compositions of different sizes: {a.n} vs {b.n}")
    inner_ok = not np.any(a.support & ~b.support)
    anti_ok = not np.any(flip_algebra(a).support & ~b.support)
    if inner_ok and anti_ok:
        return Embedding.BOTH
    if inner_ok:
        return Embedding.INNER_ONLY
    if anti_ok:
        return Embedding.ANTI_ONLY
    return Embedding.NONE


def jordan_iso_class(a, b) -> JordanIsoClass:
    """Classify two compositions up to Jordan isomorphism.

    Equal tuples are isomorphic, reversed tuples anti-isomorphic, palindromic
    equal tuples both, anything else neither.
    """
    a = block_algebra(a)
    b = block_algebra(b)
    if a.n != b.n:
        raise MismatchedDimension(f"compositions of different sizes: {a.n} vs {b.n}")
    equal = a.parts == b.parts
    reversed_equal = a.parts == b.parts[::-1]
    if equal and reversed_equal:
        return JordanIsoClass.BOTH_WAYS
    if equal:
        return JordanIsoClass.ISOMORPHIC
    if reversed_equal:
        return JordanIsoClass.ANTI_ISOMORPHIC
    return JordanIsoClass.NOT_JORDAN_ISOMORPHIC


def _gaussian(z: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries from real N(0, 1) parts: real half, then imaginary half."""
    re, im = np.split(z, 2, axis=-1)
    return (re + 1j * im) / np.sqrt(2.0)


def random_elements(algebra: BlockAlgebra, seed, k: int) -> np.ndarray:
    """A (k, n, n) stack of ``random_element`` draws, from one generator call.

    A Generator's normal stream reads the same whether drawn in one call or
    many, so row i equals, bit for bit, the i-th of k successive
    ``random_element(algebra, rng)`` calls on the same generator.
    """
    rng = np.random.default_rng(seed)
    return algebra.scatter(_gaussian(rng.standard_normal((k, 2 * algebra.dim))))


def random_element(algebra: BlockAlgebra, seed) -> np.ndarray:
    """Standard complex Gaussian entries on the support cells, zeros elsewhere.

    Entries are CN(0, 1): real and imaginary parts independent N(0, 1/2).
    Deterministic for a given seed.
    """
    return random_elements(algebra, seed, 1)[0]


def matrix_poly(x: np.ndarray, coeffs) -> np.ndarray:
    """Evaluate sum coeffs[j] x^j by Horner's rule (coeffs ascending).

    ``x`` is one n x n matrix with a coefficient vector, or a (k, n, n) stack
    with (k, deg) coefficients, one row per matrix; a stack takes one stacked
    product per degree. Each step adds c_j onto the diagonal in place rather
    than building c_j I. Off the diagonal c_j I holds zeros, which can change
    the sign of an exact zero, so c_j * 0j is added to every entry as well and,
    for finite coefficients, each step stays bit for bit acc @ x + c_j I.
    """
    x = as_stack(x)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if x.ndim == 2:
        coeffs = coeffs.ravel()
    if coeffs.shape[:-1] != x.shape[:-2]:
        raise MismatchedDimension(f"coefficients of shape {coeffs.shape} for matrices of shape {x.shape}")
    if coeffs.shape[-1] == 0:
        return np.zeros_like(x)
    n = x.shape[-1]
    acc = coeffs[..., -1, None, None] * np.eye(n, dtype=np.complex128)
    zeros = coeffs[..., None, None] * 0j  # c_j I off the diagonal, which sets the signs of exact zeros
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc @ x
        acc += zeros[..., j, :, :]
        acc.reshape(acc.shape[:-2] + (n * n,))[..., :: n + 1] += coeffs[..., j, None]  # C-contiguous: a view
    return acc


def random_commuting_pairs(algebra: BlockAlgebra, seed, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (k, n, n) stacks of k pairs (p(X), q(X)), each for a random X in the
    algebra and two random polynomials of degree below n.

    Polynomials of one matrix commute exactly, and the algebra is closed under
    products, so every pair is of supported members with an exactly commuting
    product in exact arithmetic. One generator call draws, per pair, X's parts
    and then the two polynomials' coefficients, so k pairs drawn at once equal,
    bit for bit, k pairs drawn one call at a time.
    """
    rng = np.random.default_rng(seed)
    d, n = algebra.dim, algebra.n
    z = rng.standard_normal((k, 2 * d + 4 * n))
    x = algebra.scatter(_gaussian(z[:, : 2 * d]))
    coeffs = _gaussian(z[:, 2 * d :].reshape(k, 2, 2 * n))  # degree <= n - 1, so n coefficients each
    return matrix_poly(x, coeffs[:, 0]), matrix_poly(x, coeffs[:, 1])
