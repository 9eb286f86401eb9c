"""JSON document schemas used by the command-line front end.

Complex numbers travel as two-element [re, im] arrays. A MatrixDocument is
{"n": n, "entries": n x n of [re, im]}; a MapDocument is {"algebra": "k1,k2",
"coefficients": (n^2) x d of [re, im]} with columns ordered by the algebra's
row-major cell enumeration. Serialization is canonical (sorted keys, fixed
separators) so outputs are byte-stable.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np

from .algebra import block_algebra, parse_composition
from .errors import InvalidDocument
from .maps import AlgebraMap


def _from_pair(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise InvalidDocument(f"expected an [re, im] pair, got {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise InvalidDocument("entries must be finite")
    return z


def _grid_from_document(rows: list, cols: int, row_error: str) -> np.ndarray:
    """Decode rows of ``cols`` [re, im] pairs into a complex array.

    A grid of plain JSON number pairs (lists of exact ints and floats, so no
    bools) is copied in one pass; the complex view of the float pairs keeps
    the sign of a zero imaginary part, which re + 1j * im loses. Any other
    grid, and one holding an integer beyond the float range or a non-finite
    value, is decoded pair by pair, so errors are those of a pair-by-pair
    decode in row-major order.
    """
    if all(type(row) is list and len(row) == cols for row in rows):
        pairs = list(itertools.chain.from_iterable(rows))
        if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
            leaves = list(itertools.chain.from_iterable(pairs))
            if set(map(type, leaves)) <= {int, float}:
                try:
                    flat = np.fromiter(leaves, np.float64, count=len(leaves))
                except OverflowError:  # an integer beyond the float range
                    pass
                else:
                    if np.all(np.isfinite(flat)):
                        return flat.view(np.complex128).reshape(len(rows), cols)
    out = np.empty((len(rows), cols), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != cols:
            raise InvalidDocument(row_error)
        out[r] = [_from_pair(pair) for pair in row]
    return out


def matrix_to_document(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"n": m.shape[0], "entries": _plain(m)}


def matrix_from_document(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise InvalidDocument("matrix document needs 'n' and 'entries'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidDocument(f"bad matrix size {n!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise InvalidDocument("entries do not form an n x n grid")
    return _grid_from_document(entries, n, "entries do not form an n x n grid")


def map_to_document(m: AlgebraMap) -> dict:
    return {
        "algebra": ",".join(str(k) for k in m.domain.parts),
        "coefficients": _plain(m.coefficients),
    }


def map_from_document(doc) -> AlgebraMap:
    if not isinstance(doc, dict) or "algebra" not in doc or "coefficients" not in doc:
        raise InvalidDocument("map document needs 'algebra' and 'coefficients'")
    try:
        parts = parse_composition(str(doc["algebra"]))
    except ValueError as exc:
        raise InvalidDocument(str(exc)) from exc
    algebra = block_algebra(parts)
    rows = doc["coefficients"]
    n2, d = algebra.n**2, algebra.dim
    if not isinstance(rows, list) or len(rows) != n2:
        raise InvalidDocument(f"coefficients must have {n2} rows")
    coeffs = _grid_from_document(rows, d, f"coefficient rows must have {d} columns")
    return AlgebraMap(domain=algebra, coefficients=coeffs)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False) + "\n"


def _plain(obj):
    """Coerce numpy scalars/arrays and complex values into JSON-safe types; a
    non-finite float becomes the string "Infinity", "-Infinity" or "NaN"."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else json.dumps(x)  # "Infinity", "-Infinity", "NaN"
    if isinstance(obj, (complex, np.complexfloating)):
        return _plain([obj.real, obj.imag])
    return obj


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: malformed JSON, bytes that are not UTF-8, an integer of more
    # than 4,300 digits; RecursionError: arrays nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc
