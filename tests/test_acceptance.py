"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; sampling is deterministic from the
module seed. Bit-exact product laws are exercised on integer-valued random
matrices, whose products are exact in double precision.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from blocktri import (
    GALLERY,
    AlgebraMap,
    JordanForm,
    NotJordanEmbedding,
    Orientation,
    algebra_map_from_function,
    apply,
    apply_batch,
    block_algebra,
    block_projection,
    build_form_map,
    char_poly,
    check_multiplicity_preserving,
    det_twist,
    diagonalize_in_algebra,
    eigen_swap,
    flip,
    flip_algebra,
    inverse,
    is_jordan,
    matrix_units,
    membership,
    mobius_contraction,
    random_element,
    recover_form,
)
from blocktri.algebra import random_commuting_pairs
from blocktri.linalg import frobenius

from conftest import (
    all_compositions,
    bounded_similarity,
    gaussian,
    integer_complex,
    make_member,
)

SEED = 20260810
SIZES = range(3, 9)
# n = 16, the top of the envelope: run by criteria 2, 3, 5 and 6 after SIZES,
# each from a generator of its own so the draws at SIZES stay as they were
LARGE = [(1,) * 16, (4, 4, 4, 4), (8, 8), (16,)]
LARGE_DRAWS = 50  # per LARGE composition (and orientation) in criteria 2 and 6


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


@pytest.fixture(scope="module")
def recovery_corpus():
    """200 seeded (composition, orientation, T) triples with small condition at
    n <= 8, then one per LARGE composition and orientation."""

    def entry(parts, orientation, rng):
        t = bounded_similarity(parts, rng, diag_spread=0.4)
        alg = block_algebra(parts)
        return alg, orientation, t, build_form_map(alg, JordanForm(orientation, t))

    rng = np.random.default_rng(SEED + 3)
    corpus = []
    for k in range(200):
        n = 3 + k % 6
        comps = all_compositions(n)
        parts = comps[int(rng.integers(len(comps)))]
        orientation = Orientation.INNER if rng.integers(2) == 0 else Orientation.ANTI_TRANSPOSE
        corpus.append(entry(parts, orientation, rng))
    rng = np.random.default_rng(SEED + 16)
    corpus += [entry(parts, orientation, rng) for parts in LARGE for orientation in Orientation]
    return corpus


def test_criterion_1_flip_laws():
    with criterion(1, "flip is a bit-exact involution and antiisomorphism onto the reversed algebra"):
        rng = np.random.default_rng(SEED + 1)
        for n in SIZES:
            for _ in range(1000):
                x = integer_complex(rng, n)
                y = integer_complex(rng, n)
                assert np.array_equal(flip(x @ y), flip(y) @ flip(x))
                assert np.array_equal(flip(flip(x)), x)
                assert np.array_equal(flip(flip(y)), y)
            # the involution is index-pure, so it is bit-exact on floats too
            g = gaussian(rng, n)
            assert np.array_equal(flip(flip(g)), g)
            for parts in all_compositions(n):
                alg = block_algebra(parts)
                flipped = flip_algebra(alg)
                for e in matrix_units(alg):
                    assert membership(flipped, flip(e), tol=0.0)


def check_diagonalization(parts, constrained, rng):
    n = sum(parts)
    s = int(rng.integers(n)) if constrained else None
    alg, a = make_member(parts, rng, constraint=s, gap=0.1)
    res = diagonalize_in_algebra(alg, a, constraint=s)
    t = res.similarity
    assert membership(alg, t, tol=0.0)
    recon = t @ np.diag(res.diagonal) @ inverse(t)
    assert frobenius(recon - a) <= 1e-8 * frobenius(a)
    if constrained:
        e = unit(n, s, s)
        assert np.max(np.abs(t @ e - e @ t)) == 0.0
        assert t[s, s] == 1.0


def test_criterion_2_in_algebra_diagonalization():
    with criterion(2, "in-algebra diagonalization: exact membership, 1e-8 residual, exact constraint"):
        for n in SIZES:
            rng = np.random.default_rng(SEED + 200 + n)
            comps = all_compositions(n)
            for k in range(200):
                parts = comps[int(rng.integers(len(comps)))]
                check_diagonalization(parts, k % 2 == 1, rng)
        rng = np.random.default_rng(SEED + 216)
        for parts in LARGE:
            for k in range(LARGE_DRAWS):
                check_diagonalization(parts, k % 2 == 1, rng)


def test_criterion_3_recovery_round_trip(recovery_corpus):
    with criterion(3, "recovery round trip: orientation, 1e-7 map match, scalar invariance"):
        rng = np.random.default_rng(SEED + 33)
        for alg, orientation, t, m in recovery_corpus:
            rec = recover_form(m)
            assert rec.orientation is orientation
            tinv = inverse(rec.t)
            for _ in range(50):
                x = random_element(alg, rng)
                if rec.orientation is Orientation.INNER:
                    direct = rec.t @ x @ tinv
                else:
                    direct = rec.t @ x.T @ tinv
                assert frobenius(apply(m, x) - direct) <= 1e-7 * max(1.0, frobenius(x))
            for lam in (2.0, -3.0j, 1e-3):
                rec2 = recover_form(build_form_map(alg, JordanForm(orientation, lam * t)))
                assert rec2.orientation is orientation
                assert np.max(np.abs(rec2.t - rec.t)) <= 1e-9


def test_criterion_4_embeddability_exhaustive():
    with criterion(4, "embeddability/isomorphism classification matches brute force, n <= 6"):
        from blocktri import Embedding, JordanIsoClass, embeds, jordan_iso_class

        for n in range(1, 7):
            comps = all_compositions(n)
            for pa in comps:
                a = block_algebra(pa)
                for pb in comps:
                    b = block_algebra(pb)
                    inner = all(
                        b.support[i, j] for (i, j) in a.cells
                    )
                    anti = all(
                        b.support[n - 1 - j, n - 1 - i] for (i, j) in a.cells
                    )
                    expected = {
                        (True, True): Embedding.BOTH,
                        (True, False): Embedding.INNER_ONLY,
                        (False, True): Embedding.ANTI_ONLY,
                        (False, False): Embedding.NONE,
                    }[(inner, anti)]
                    assert embeds(a, b) is expected
                    iso = jordan_iso_class(a, b)
                    eq, rev = pa == pb, pa == pb[::-1]
                    expected_iso = {
                        (True, True): JordanIsoClass.BOTH_WAYS,
                        (True, False): JordanIsoClass.ISOMORPHIC,
                        (False, True): JordanIsoClass.ANTI_ISOMORPHIC,
                        (False, False): JordanIsoClass.NOT_JORDAN_ISOMORPHIC,
                    }[(eq, rev)]
                    assert iso is expected_iso


def test_criterion_5_spectrum_preservation(recovery_corpus):
    with criterion(5, "form maps preserve char polys on 500 samples each; multiplicities on degenerate inputs"):
        rng = np.random.default_rng(SEED + 55)
        for idx, (alg, _, _, m) in enumerate(recovery_corpus):
            n = alg.n
            a = np.stack([random_element(alg, rng) for _ in range(500)])
            diff = np.abs(char_poly(apply_batch(m, a)) - char_poly(a))
            # coefficient of x^k against the checker's scale max(1, ||a||_F)^(n - k)
            scale = np.maximum(1.0, frobenius(a))[:, None] ** (n - np.arange(n + 1))
            assert np.max(diff / scale) <= 1e-8
            if idx % 10 == 0:
                res = check_multiplicity_preserving(m, samples=5, seed=SEED + idx)
                assert res.ok, f"multiplicity violation {res.worst}"


def check_jordan_identities(parts, orientation, draws, rng):
    rel = lambda lhs, rhs: frobenius(lhs - rhs) / max(1.0, frobenius(lhs), frobenius(rhs))
    alg, n = block_algebra(parts), sum(parts)
    t = bounded_similarity(parts, rng)
    m = build_form_map(alg, JordanForm(orientation, t))
    for _ in range(draws):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        z = random_element(alg, rng)
        fx, fy, fz = apply(m, x), apply(m, y), apply(m, z)
        # (a) triple product
        assert rel(apply(m, x @ y @ x), fx @ fy @ fx) <= 1e-8
        # (b) iterated commutator
        c = x @ y - y @ x
        fc = fx @ fy - fy @ fx
        assert rel(apply(m, c @ z - z @ c), fc @ fz - fz @ fc) <= 1e-8
        # (c) squared commutator
        assert rel(apply(m, c @ c), fc @ fc) <= 1e-8
    for _ in range(draws):
        # (d) idempotents map to idempotents
        t0 = bounded_similarity(parts, rng)
        d = np.diag(rng.integers(0, 2, n).astype(np.complex128))
        p = t0 @ d @ inverse(t0)
        fp = apply(m, p)
        assert frobenius(fp @ fp - fp) <= 1e-8 * max(1.0, frobenius(p) ** 2)
        # (f) inverses map to inverses, on invertible samples
        x = random_element(alg, rng)
        x = x + (1.0 + frobenius(x)) * np.eye(n)
        assert rel(apply(m, inverse(x)), inverse(apply(m, x))) <= 1e-8


def test_criterion_6_jordan_identities():
    with criterion(6, "Jordan identities (triple product, commutators, idempotents, inverses) at 1e-8"):
        rng = np.random.default_rng(SEED + 66)
        for n in SIZES:
            comps = all_compositions(n)
            for orientation in Orientation:
                for _ in range(2):
                    parts = comps[int(rng.integers(len(comps)))]
                    check_jordan_identities(parts, orientation, 200, rng)
        rng = np.random.default_rng(SEED + 616)
        for parts in LARGE:
            for orientation in Orientation:
                check_jordan_identities(parts, orientation, LARGE_DRAWS, rng)


def test_criterion_7_gallery():
    with criterion(7, "counterexample gallery: documented witnesses at their stated tolerances"):
        rng = np.random.default_rng(SEED + 77)

        # mobius_contraction on (1, 2)
        spec = GALLERY["mobius_contraction"]
        alg, n = spec.algebra, spec.algebra.n
        zero = np.zeros((n, n), dtype=np.complex128)
        assert np.max(np.abs(spec.evaluator(zero) - np.eye(n) / 3.0)) <= 1e-12
        for k in range(200):
            (p,), (q,) = random_commuting_pairs(alg, np.random.default_rng(SEED + 7000 + k), 1)
            fp, fq = spec.evaluator(p), spec.evaluator(q)
            comm = frobenius(fp @ fq - fq @ fp)
            assert comm <= 1e-9 * max(1.0, frobenius(fp) * frobenius(fq))
        spectrum_gap = np.max(np.abs(char_poly(spec.evaluator(zero)) - char_poly(zero)))
        assert spectrum_gap > 1e-3  # spectrum violated at the witness 0

        # det_twist on (2, 1)
        spec = GALLERY["det_twist"]
        alg, n = spec.algebra, spec.algebra.n
        shear_in = np.eye(n, dtype=complex) + unit(n, 0, 1)
        shear_out = np.eye(n, dtype=complex) + np.e * unit(n, 0, 1)
        assert np.max(np.abs(spec.evaluator(shear_in) - shear_out)) <= 1e-10
        for _ in range(500):
            x = random_element(alg, rng)
            diff = np.abs(char_poly(spec.evaluator(x)) - char_poly(x))
            assert np.max(diff) <= 1e-8 * max(1.0, frobenius(x)) ** n
        a = unit(n, 0, 1) + unit(n, 1, 0)
        b = a + 2.0 * np.eye(n)
        comm = spec.evaluator(a) @ spec.evaluator(b) - spec.evaluator(b) @ spec.evaluator(a)
        expected = (np.exp(-6.0) - np.exp(6.0)) * (unit(n, 0, 0) - unit(n, 1, 1))
        assert frobenius(comm - expected) <= 1e-6 * frobenius(expected)

        # eigen_swap on (1, 1, 1)
        spec = GALLERY["eigen_swap"]
        n = spec.algebra.n
        limit = np.diag(np.arange(1, n + 1).astype(np.complex128))
        for k in (1, 10, 100, 10_000, 10**9):
            xk = limit + (1.0 / k) * unit(n, 0, 1)
            assert np.array_equal(spec.evaluator(xk), xk)
        swapped = spec.evaluator(limit)
        assert np.array_equal(np.diag(swapped), np.array([2.0, 1.0, 3.0]))
        assert frobenius(swapped - limit) > 1.0  # the jump survives the limit

        # block_projection on (1, 2)
        spec = GALLERY["block_projection"]
        alg, n = spec.algebra, spec.algebra.n
        m = algebra_map_from_function(alg, spec.evaluator)
        assert is_jordan(m, samples=50, seed=SEED, tol=1e-9).ok
        assert np.array_equal(spec.evaluator(unit(n, 0, 1)), np.zeros((n, n)))
        assert np.array_equal(
            spec.evaluator(unit(n, 0, 1)), spec.evaluator(np.zeros((n, n), dtype=complex))
        )
        with pytest.raises(NotJordanEmbedding):
            recover_form(m)


def test_criterion_8_negative_controls():
    with criterion(8, "random linear maps: all rejected by is_jordan, none falsely certified"):
        rng = np.random.default_rng(SEED + 88)
        algebras = [block_algebra(p) for n in (3, 4) for p in all_compositions(n)]
        for alg in algebras:
            for _ in range(50):
                coeffs = gaussian(rng, alg.n**2, alg.dim)
                m = AlgebraMap(alg, coeffs)
                assert not is_jordan(m, samples=3, seed=SEED).ok
                try:
                    form = recover_form(m)
                except NotJordanEmbedding:
                    continue
                # a returned form must genuinely induce the map (never expected)
                tinv = inverse(form.t)
                for _ in range(50):
                    x = random_element(alg, rng)
                    if form.orientation is Orientation.INNER:
                        direct = form.t @ x @ tinv
                    else:
                        direct = form.t @ x.T @ tinv
                    assert frobenius(apply(m, x) - direct) <= 1e-7 * max(1.0, frobenius(x)), (
                        "false certification"
                    )
