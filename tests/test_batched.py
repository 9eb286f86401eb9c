"""The batched probe layer against the per-matrix path it replaces.

Reference implementations here draw and evaluate one probe (or one unit
pair) at a time, exactly as the checkers did before probes were stacked and
drawn in chunks; the batched code must reach the same verdicts and witnesses
from the same seeds.
"""

import itertools
import json
import warnings

import numpy as np
import pytest

from blocktri import (
    GALLERY,
    AlgebraMap,
    JordanForm,
    MismatchedDimension,
    NotFinite,
    NotJordanEmbedding,
    Orientation,
    WrongAlgebra,
    algebra_map_from_function,
    apply,
    apply_batch,
    block_algebra,
    build_form_map,
    char_poly,
    check_char_poly_preserving,
    check_commutativity_preserving,
    check_multiplicity_preserving,
    check_spectrum_shrinking,
    eigenvalues,
    full_report,
    is_jordan,
    matrix_units,
    random_element,
    recover_form,
    run_gallery_suite,
    triangular_idempotent_form,
)
from blocktri import maps, preservers
from blocktri.algebra import random_elements
from blocktri.cli import main
from blocktri.documents import canonical_json, map_to_document
from blocktri.linalg import frobenius, identity
from blocktri.maps import PROBE_CHUNK, unit_pair_residuals
from blocktri.preservers import _multiset_match

from conftest import (
    bounded_similarity,
    gaussian,
    all_compositions,
    match_multisets,
    qr_schur,
    reference_commuting_pair,
    reference_degenerate_samples,
    reference_element,
    same_bits,
)


def form_map(parts, rng, orientation=Orientation.INNER, noise=0.0):
    alg = block_algebra(parts)
    m = build_form_map(alg, JordanForm(orientation, bounded_similarity(parts, rng)))
    if noise:
        c = m.coefficients
        m = AlgebraMap(alg, c + noise * np.max(np.abs(c)) * gaussian(rng, *c.shape))
    return m


# --- per-probe references -------------------------------------------------


def reference_unit_pairs(m):
    """The two former unit-pair loops: Jordan residual of every pair and the
    commutator residual of every commuting pair."""
    alg = m.domain
    n = alg.n
    images = m.unit_images()
    cell_index = {cell: k for k, cell in enumerate(alg.cells)}
    jordan, commutator = [], []
    for p, (i, j) in enumerate(alg.cells):
        for q in range(p, alg.dim):
            k, l = alg.cells[q]
            a, b = images[p], images[q]
            expected = np.zeros((n * n,), dtype=np.complex128)
            if j == k:
                expected = expected + m.coefficients[:, cell_index[(i, l)]]
            if l == i:
                expected = expected + m.coefficients[:, cell_index[(k, j)]]
            scale = max(1.0, frobenius(a) * frobenius(b))
            jordan.append(float(np.max(np.abs((a @ b + b @ a).reshape(-1) - expected))) / scale)
            left = (i, l) if j == k else None
            right = (k, j) if l == i else None
            if left == right:
                commutator.append(frobenius(a @ b - b @ a) / scale)
    return np.array(jordan), np.array(commutator)


def reference_probes(alg, samples, rng):
    probes = [np.zeros((alg.n, alg.n), dtype=np.complex128), identity(alg.n)]
    probes.extend(matrix_units(alg))
    probes.extend(reference_element(alg, rng) for _ in range(samples))
    return probes


def reference_verdict(residuals, probes, tol):
    witnesses = [p for r, p in zip(residuals, probes) if not r <= tol][:4]
    return not witnesses, witnesses


def reference_char_poly(fn, alg, samples, seed, tol=1e-8):
    probes = reference_probes(alg, samples, np.random.default_rng(seed))
    res = [
        float(np.max(np.abs(char_poly(fn(a)) - char_poly(a)))) / max(1.0, frobenius(a) ** alg.n)
        for a in probes
    ]
    return reference_verdict(res, probes, tol)


def reference_shrinking(fn, alg, samples, seed, tol=1e-8):
    probes = reference_probes(alg, samples, np.random.default_rng(seed))
    res = []
    for a in probes:
        lam_in, lam_out = eigenvalues(a), eigenvalues(fn(a))
        gap = float(np.max(np.min(np.abs(lam_out[:, None] - lam_in[None, :]), axis=1)))
        res.append(gap / max(1.0, frobenius(a)))
    return reference_verdict(res, probes, tol)


def reference_commutativity(fn, alg, pairs, seed, tol=1e-8):
    units = matrix_units(alg)
    candidates = []
    for p, (i, j) in enumerate(alg.cells):
        for q in range(p, alg.dim):
            k, l = alg.cells[q]
            if ((i, l) if j == k else None) == ((k, j) if l == i else None):
                candidates.append((units[p], units[q]))
    rng = np.random.default_rng(seed)
    candidates.extend(reference_commuting_pair(alg, rng) for _ in range(pairs))
    res = []
    for a, b in candidates:
        fa, fb = fn(a), fn(b)
        res.append(frobenius(fa @ fb - fb @ fa) / max(1.0, frobenius(fa) * frobenius(fb)))
    return reference_verdict(res, candidates, tol)


def reference_match(lam_a, lam_b):
    remaining = list(lam_a)
    worst = 0.0
    for z in sorted(lam_b, key=lambda w: (w.real, w.imag)):
        dists = [abs(z - w) for w in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def reference_multiplicity(fn, alg, samples, seed):
    probes = reference_degenerate_samples(alg, samples, np.random.default_rng(seed))
    res = [reference_match(eigenvalues(a), eigenvalues(fn(a))) for a in probes]
    return reference_verdict(res, probes, 1e-6)


def reference_gather_unit_pairs(algebra, images):
    """The unit-pair pass as it was before sparse targets: every pair's target
    gathered from a zero-padded image stack and subtracted, zero or not."""
    d, n = algebra.dim, algebra.n
    rows, cols = algebra.cell_rows, algebra.cell_cols
    p, q = np.triu_indices(d)
    index = np.full((n, n), -1)
    index[rows, cols] = np.arange(d)
    left = np.where(cols[p] == rows[q], index[rows[p], cols[q]], -1)
    right = np.where(cols[q] == rows[p], index[rows[q], cols[p]], -1)
    padded = np.concatenate([images, np.zeros((1, n, n), dtype=images.dtype)])
    norms = frobenius(images)
    jordan = np.empty(p.size)
    commutator = np.empty(p.size)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
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
    return p, q, left == right, jordan, commutator


def same_witnesses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert all(np.array_equal(x, y) for x, y in zip(g, w))
        else:
            assert np.array_equal(g, w)


# --- kernels ----------------------------------------------------------------


class TestApplyBatch:
    @pytest.mark.parametrize("parts", [(1, 2), (2, 3, 3), (4, 4, 4, 4)])
    def test_matches_per_matrix_product(self, rng, parts):
        m = form_map(parts, rng)
        xs = np.stack([random_element(m.domain, rng) for _ in range(PROBE_CHUNK + 5)])
        got = apply_batch(m, xs)
        assert got.shape == xs.shape
        for x, fx in zip(xs, got):
            want = (m.coefficients @ m.domain.coords(x)).reshape(x.shape)
            assert np.max(np.abs(fx - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
            assert np.array_equal(apply(m, x), apply_batch(m, x[None])[0])

    def test_unit_images(self, rng):
        m = form_map((2, 3, 3), rng, noise=1e-3)
        assert np.array_equal(apply_batch(m, np.stack(matrix_units(m.domain))), m.unit_images())

    def test_empty_stack(self, rng):
        m = form_map((1, 2), rng)
        assert apply_batch(m, np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_same_errors_as_apply(self, rng):
        m = form_map((1, 2), rng)
        good = random_element(m.domain, rng)
        outside = good.copy()
        outside[2, 0] = 1e-3  # below the block diagonal
        nan = good.copy()
        nan[0, 1] = np.nan
        for bad, error in [(outside, WrongAlgebra), (nan, NotFinite), (gaussian(rng, 4), WrongAlgebra)]:
            with pytest.raises(error):
                apply(m, bad)
            if bad.shape == good.shape:
                with pytest.raises(error):
                    apply_batch(m, np.stack([good, bad, good]))
        with pytest.raises(WrongAlgebra):
            apply_batch(m, gaussian(rng, 4)[None])
        with pytest.raises(MismatchedDimension):
            apply_batch(m, good)

    def test_membership_at_huge_entries(self, rng):
        # ||x||_F used to overflow to inf, and an inf tolerance let the (2, 0) entry through
        m = form_map((1, 2), rng)
        x = np.zeros((3, 3), dtype=np.complex128)
        x[0, 0], x[2, 0] = 1e160, 1e159
        with pytest.raises(WrongAlgebra):
            apply(m, x)
        with pytest.raises(WrongAlgebra):
            apply_batch(m, np.stack([random_element(m.domain, rng), x]))
        x[2, 0] = 0.0
        assert np.array_equal(apply(m, x), apply_batch(m, x[None])[0])

    def test_membership_tolerance_per_matrix(self, rng):
        # the tolerance scales with each matrix's own norm, not the stack's
        m = form_map((1, 2), rng)
        big = 1e6 * random_element(m.domain, rng)
        small = random_element(m.domain, rng)
        small[2, 0] = 1e-4
        apply_batch(m, np.stack([big, random_element(m.domain, rng)]))
        with pytest.raises(WrongAlgebra):
            apply_batch(m, np.stack([big, small]))


class TestStackedKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_stacks_match_per_matrix_calls(self, rng, n):
        a = np.stack([gaussian(rng, n) for _ in range(7)])
        assert np.array_equal(eigenvalues(a), np.stack([eigenvalues(x) for x in a]))
        coeffs = np.stack([char_poly(x) for x in a])
        assert np.max(np.abs(char_poly(a) - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
        assert char_poly(a.reshape(7, 1, n, n)).shape == (7, 1, n + 1)
        assert np.allclose(frobenius(a), [frobenius(x) for x in a], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_eigenvalues_against_schur_engine(self, rng, n):
        a = gaussian(rng, n)
        match_multisets(eigenvalues(a), np.diag(qr_schur(a).upper), 1e-9 * frobenius(a))

    def test_stack_validation(self):
        with pytest.raises(NotFinite):
            eigenvalues(np.full((2, 3, 3), np.inf + 0j))
        with pytest.raises(MismatchedDimension):
            char_poly(np.zeros((2, 3, 4)))
        with pytest.raises(MismatchedDimension):
            eigenvalues(np.zeros(3))


# --- the shared unit-pair pass ----------------------------------------------


class TestUnitPairPass:
    @pytest.mark.parametrize("parts", [(1, 2), (2, 3, 3), (4, 4, 4, 4)])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_matches_seed_loops(self, rng, parts, noise):
        m = form_map(parts, rng, noise=noise)
        units = unit_pair_residuals(m.domain, m.unit_images())
        jordan, commutator = reference_unit_pairs(m)
        d = m.domain.dim
        assert units.p.size == d * (d + 1) // 2
        assert np.allclose(units.jordan, jordan, rtol=1e-9, atol=1e-15)
        assert np.allclose(units.commutator[units.commuting], commutator, rtol=1e-9, atol=1e-15)
        assert np.array_equal(units.jordan <= 1e-8, jordan <= 1e-8)
        assert np.all(units.jordan <= 1e-8) == (noise == 0.0)

    @pytest.mark.parametrize("parts", [(1, 2), (2, 3, 3), (4, 4, 4, 4)])
    @pytest.mark.parametrize("noise, inf_coefficient", [(0.0, False), (1e-3, False), (0.0, True)])
    def test_bit_identical_to_full_gather(self, rng, parts, noise, inf_coefficient):
        # skipping the zero targets' gather and subtraction moves no bit
        m = form_map(parts, rng, noise=noise)
        if inf_coefficient:
            c = np.array(m.coefficients)
            c[0, 0] = np.inf
            m = AlgebraMap(m.domain, c)
        got = unit_pair_residuals(m.domain, m.unit_images())
        want = reference_gather_unit_pairs(m.domain, m.unit_images())
        for g, w in zip(got, want):
            assert same_bits(g, w)
        assert inf_coefficient == (not np.all(np.isfinite(got.jordan)))

    def test_black_box_called_once_per_unit(self, rng):
        m = form_map((2, 3, 3), rng)
        calls = []

        def fn(x):
            calls.append(1)
            return apply(m, x)

        res = check_commutativity_preserving(fn, m.domain, pairs=0)
        assert res.ok and len(calls) == m.domain.dim
        calls.clear()
        check_char_poly_preserving(fn, m.domain, samples=7)
        assert len(calls) == 2 + m.domain.dim + 7


class TestUnitPairCache:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Every run of the unit-pair pass, from either module."""
        calls = []

        def counted(algebra, images):
            calls.append(algebra)
            return unit_pair_residuals(algebra, images)

        monkeypatch.setattr(maps, "unit_pair_residuals", counted)
        monkeypatch.setattr(preservers, "unit_pair_residuals", counted)
        return calls

    def test_once_per_map(self, rng, passes):
        m = form_map((2, 3, 3), rng)
        assert is_jordan(m).ok
        assert full_report(m, budget=5).commutativity_preserving
        assert check_commutativity_preserving(m, pairs=0).ok
        assert len(passes) == 1

    def test_black_box_once_per_call(self, rng, passes):
        m = form_map((2, 3, 3), rng)
        for calls in (1, 2):
            full_report(lambda x: apply(m, x), m.domain, budget=5)
            assert len(passes) == calls

    @pytest.mark.parametrize("parts", [(1, 2), (2, 3, 3), (4, 4, 4, 4)])
    def test_bit_identical_to_fresh_pass(self, rng, parts):
        m = form_map(parts, rng, noise=1e-3)
        fresh = unit_pair_residuals(m.domain, m.unit_images())
        for got, want in zip(m.unit_pairs, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_coefficients_read_only(self, rng):
        m = form_map((1, 2), rng)
        with pytest.raises(ValueError):
            m.coefficients[0, 0] = 1.0

    def test_caller_array_is_copied(self, rng):
        c = np.array(form_map((1, 2), rng).coefficients)
        want = c.copy()
        m = AlgebraMap(block_algebra((1, 2)), c)
        c[:] = 0.0
        assert np.array_equal(m.coefficients, want)
        assert is_jordan(m).ok


# --- probes whose answers are known or stacked ---------------------------------


class TestFixedCharPolys:
    @pytest.mark.parametrize(
        "parts", [p for n in range(1, 6) for p in all_compositions(n)] + [(8, 8), (4, 4, 4, 4), (16,), (1,) * 16]
    )
    def test_match_char_poly(self, parts):
        # the written-down char polys of 0, I and the units equal Faddeev-LeVerrier's
        alg = block_algebra(parts)
        probes = np.stack([np.zeros((alg.n, alg.n), dtype=np.complex128), identity(alg.n), *matrix_units(alg)])
        assert np.array_equal(preservers._fixed_char_polys(alg), char_poly(probes))

    def test_black_box_sees_the_same_stacks(self, rng):
        # the fixed probes are still evaluated, in the same stacks as before
        m = form_map((2, 3, 3), rng)
        stacks = []

        def fn(xs):
            stacks.append(xs.copy())
            return apply_batch(m, xs)

        res = check_char_poly_preserving(maps._StackEvaluator(fn), m.domain, samples=40, seed=3)
        assert res.ok
        want = reference_probes(m.domain, 40, np.random.default_rng(3))
        assert [len(s) for s in stacks] == [PROBE_CHUNK, PROBE_CHUNK, len(want) - 2 * PROBE_CHUNK]
        assert same_bits(np.concatenate(stacks), np.stack(want))


class TestDegenerateSamples:
    @pytest.mark.parametrize("parts", [(1,), (1, 1), (1, 2), (2, 3, 3), (4, 4, 4, 4)], ids=lambda p: f"n{sum(p)}")
    @pytest.mark.parametrize("samples", [0, 1, 31, 32, 33, 50])
    def test_stacks_match_one_at_a_time(self, parts, samples):
        alg = block_algebra(parts)
        ref_rng, rng = np.random.default_rng(samples), np.random.default_rng(samples)
        want = reference_degenerate_samples(alg, samples, ref_rng)
        got = [a for stack in preservers._degenerate_samples(alg, samples, rng) for a in stack]
        assert len(got) == samples
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert ref_rng.standard_normal() == rng.standard_normal()  # the generator is left where it was


class TestProbeStacks:
    """Every probe stream is cut into stacks at each multiple of PROBE_CHUNK,
    and a stack's random members are drawn only when it is due."""

    class Drawn(Exception):
        pass

    @pytest.mark.parametrize(
        "parts, sizes",
        [((4, 4, 4, 4), [PROBE_CHUNK] * 8 + [6]), ((1, 2), [PROBE_CHUNK] * 3 + [13])],
        ids=["n16", "n3"],
    )
    def test_stack_boundaries(self, parts, sizes):
        # 2 + d + 100 probes for the char-poly and shrinking checks, 100 samples for multiplicity
        alg = block_algebra(parts)
        seen = []

        def fn(xs):
            seen.append(len(xs))
            return xs

        for check, want in [
            (check_char_poly_preserving, sizes),
            (check_spectrum_shrinking, sizes),
            (check_multiplicity_preserving, [PROBE_CHUNK] * 3 + [4]),
        ]:
            seen.clear()
            assert check(maps._StackEvaluator(fn), alg, samples=100, seed=1).ok
            assert seen == want, check.__name__

    @pytest.mark.parametrize(
        "check, draw_first_stack",
        [
            # (1, 2): 0, I and the 7 units, then 23 random elements fill the first stack
            (check_char_poly_preserving, lambda alg, rng: random_elements(alg, rng, PROBE_CHUNK - 9)),
            (check_spectrum_shrinking, lambda alg, rng: random_elements(alg, rng, PROBE_CHUNK - 9)),
            (check_multiplicity_preserving, lambda alg, rng: reference_degenerate_samples(alg, PROBE_CHUNK, rng)),
        ],
        ids=["char_poly", "shrinking", "multiplicity"],
    )
    def test_draws_lazily(self, check, draw_first_stack):
        alg = block_algebra((1, 2))
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        draw_first_stack(alg, ref)

        def fn(xs):
            assert rng.bit_generator.state == ref.bit_generator.state
            raise self.Drawn

        with pytest.raises(self.Drawn):
            check(maps._StackEvaluator(fn), alg, samples=10_000, seed=rng)


# --- checkers against the per-probe loops -------------------------------------


def batched_and_reference(m, fn, alg, seed):
    """(batched result, per-probe verdict) of each checker; ``m`` is the
    AlgebraMap or the black box, ``fn`` its one-matrix evaluator."""
    arg = None if isinstance(m, AlgebraMap) else alg
    return [
        (check_char_poly_preserving(m, arg, samples=40, seed=seed), reference_char_poly(fn, alg, 40, seed)),
        (check_spectrum_shrinking(m, arg, samples=40, seed=seed), reference_shrinking(fn, alg, 40, seed)),
        (
            check_commutativity_preserving(m, arg, pairs=40, seed=seed, tol=1e-9),
            reference_commutativity(fn, alg, 40, seed, tol=1e-9),
        ),
        (check_multiplicity_preserving(m, arg, samples=40, seed=seed), reference_multiplicity(fn, alg, 40, seed)),
    ]


class TestCheckersMatchPerProbe:
    @pytest.mark.parametrize("parts", [(1, 2), (2, 3, 3)])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_linear_maps(self, rng, parts, noise):
        m = form_map(parts, rng, Orientation.ANTI_TRANSPOSE, noise=noise)
        for got, (ok, witnesses) in batched_and_reference(m, lambda x: apply(m, x), m.domain, 5):
            assert got.ok == ok
            same_witnesses(got.witnesses, witnesses)

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_gallery_black_boxes(self, name):
        spec = GALLERY[name]
        for got, (ok, witnesses) in batched_and_reference(spec.evaluator, spec.evaluator, spec.algebra, 2):
            assert got.ok == ok
            same_witnesses(got.witnesses, witnesses)

    def test_greedy_match_with_ties(self, rng):
        lam_a = np.round(gaussian(rng, 30, 6), 1)
        lam_a[:, 3] = lam_a[:, 1]
        lam_b = lam_a[:, ::-1] + 0.05 * gaussian(rng, 30, 6)
        want = [reference_match(a, b) for a, b in zip(lam_a, lam_b)]
        assert np.allclose(_multiset_match(lam_a, lam_b), want, rtol=1e-14, atol=0)


# --- non-finite residuals are violations ---------------------------------------


@pytest.fixture
def overflowing_map(rng):
    """A (1,2) Jordan map times 1e300: images are finite, their products are not."""
    m = form_map((1, 2), rng)
    return AlgebraMap(m.domain, 1e300 * m.coefficients)


class TestNonFinite:
    def test_is_jordan(self, overflowing_map):
        with np.errstate(all="ignore"):
            check = is_jordan(overflowing_map)
        assert not check.ok and check.worst == np.inf

    def test_checkers(self, overflowing_map):
        with np.errstate(all="ignore"):
            report = full_report(overflowing_map, budget=10)
            cm = check_commutativity_preserving(overflowing_map, pairs=10)
        assert not report.spectrum_preserving and not report.commutativity_preserving
        assert report.worst_violation == np.inf
        assert not cm.ok and cm.worst == np.inf and len(cm.witnesses) == 4

    @pytest.mark.parametrize("stacked", [False, True], ids=["per-matrix", "stack"])
    def test_black_box_images(self, stacked):
        # a black box whose images overflow gets a verdict, as an AlgebraMap does
        alg = block_algebra((1, 2))

        def fn(x):
            return (x * 1e300) * 1e300

        black_box = maps._StackEvaluator(fn) if stacked else fn
        checks = (check_char_poly_preserving, check_spectrum_shrinking, check_commutativity_preserving,
                  check_multiplicity_preserving)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [check(black_box, alg) for check in checks]
            report = full_report(black_box, alg, budget=10)
        assert [(r.ok, r.worst) for r in results] == [(False, np.inf)] * 4
        assert not (report.spectrum_preserving or report.spectrum_shrinking or report.commutativity_preserving)
        assert report.worst_violation == np.inf

    def test_recovery_rejects(self, overflowing_map):
        with np.errstate(all="ignore"), pytest.raises(NotJordanEmbedding):
            recover_form(overflowing_map)

    def test_recovery_reads_nan_residual_as_failure(self, overflowing_map, tmp_path, capsys):
        # the column norms of the diagonal images overflow to inf, so recovery
        # stops at step (1) and names that cause, without a warning
        with pytest.raises(NotJordanEmbedding, match="diagonal-unit images overflow or are not finite"):
            recover_form(overflowing_map)
        path = tmp_path / "big.json"
        path.write_text(canonical_json(map_to_document(overflowing_map)), encoding="utf-8")
        assert main(["recover", str(path)]) == 4
        assert "diagonal-unit images overflow or are not finite" in capsys.readouterr().err

    def test_verify_command(self, overflowing_map, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(canonical_json(map_to_document(overflowing_map)), encoding="utf-8")
        with np.errstate(all="ignore"):
            assert main(["verify", str(path), "--budget", "10"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # strict JSON
        assert data["commutativity_preserving"] is False
        assert data["worst_violation"] == "Infinity"

    def test_no_warnings(self, overflowing_map, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(canonical_json(map_to_document(overflowing_map)), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_jordan(overflowing_map).ok
            assert full_report(overflowing_map, budget=10).worst_violation == np.inf
            assert main(["verify", str(path), "--budget", "10"]) == 0
        assert capsys.readouterr().err == ""


# --- report and rank test -------------------------------------------------------


# --- the evaluation boundary: own probes trusted, black-box images checked ------

WRONG_SHAPES = {
    (1, 1): lambda x: x[..., :1, :1],
    (2, 2): lambda x: x[..., :2, :2],
    (1, 9): lambda x: x.reshape(x.shape[:-2] + (1, 9)),
    (4, 4): lambda x: np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, 1), (0, 1)]),
}


def ragged_box():
    """A per-matrix box whose images are 3 x 3 and 2 x 2 in turn: each image is
    checked, so this is a wrong shape, not numpy's ValueError for a ragged stack."""
    calls = itertools.count()
    return lambda x: x if next(calls) % 2 == 0 else x[:2, :2]


class TestEvaluationBoundary:
    @pytest.mark.parametrize(
        "stacked, shape",
        [*itertools.product([False, True], WRONG_SHAPES), (False, "ragged")],
        ids=lambda v: {False: "per-matrix", True: "stack"}.get(v, str(v)),
    )
    def test_wrong_image_shape(self, stacked, shape):
        alg = block_algebra((1, 2))

        def black_box():  # a fresh box for each entry point
            fn = ragged_box() if shape == "ragged" else WRONG_SHAPES[shape]
            return maps._StackEvaluator(fn) if stacked else fn

        checks = (check_char_poly_preserving, check_spectrum_shrinking, check_commutativity_preserving,
                  check_multiplicity_preserving, full_report)
        for check in checks:
            with pytest.raises(MismatchedDimension):
                check(black_box(), alg)
        with pytest.raises(MismatchedDimension):
            algebra_map_from_function(alg, black_box())

    def test_algebra_map_from_function(self):
        # one call per unit, in cell order; a non-finite unit image is an error
        alg, seen = block_algebra((1, 2)), []
        m = algebra_map_from_function(alg, lambda x: seen.append(x.copy()) or 2 * x)
        assert same_bits(np.stack(seen), np.stack(matrix_units(alg)))
        assert same_bits(m.unit_images(), 2 * np.stack(matrix_units(alg)))
        with pytest.raises(NotFinite):
            algebra_map_from_function(alg, lambda x: x + np.nan)

    @pytest.mark.parametrize("foreign", [(2, 1), (3,), (1, 1)], ids=str)
    def test_foreign_algebra_for_an_algebra_map(self, rng, foreign):
        # the map's domain is (1,2); any other algebra is refused, even one of the same n
        m = AlgebraMap(block_algebra((1, 2)), gaussian(rng, 9, 7))
        checks = (check_char_poly_preserving, check_spectrum_shrinking, check_commutativity_preserving,
                  check_multiplicity_preserving, full_report)
        for check in checks:
            with pytest.raises(WrongAlgebra, match="domain is"):
                check(m, foreign)
            assert check(m, (1, 2)) is not None  # its own domain, given explicitly, is accepted

    def test_is_jordan_on_a_black_box_names_algebra_map(self):
        with pytest.raises(ValueError, match="is_jordan needs an AlgebraMap"):
            is_jordan(lambda x: x)

    def test_checkers_do_not_revalidate_probes(self, monkeypatch, rng):
        # the probes a checker builds are in the domain: no apply_batch pass over them
        def refuse(m, xs):
            raise AssertionError("apply_batch called on a checker's own probes")

        monkeypatch.setattr("blocktri.maps.apply_batch", refuse)
        m = form_map((2, 3, 3), rng)
        assert is_jordan(m, samples=40).ok
        report = full_report(m, budget=40)
        assert report.spectrum_preserving and report.spectrum_shrinking and report.commutativity_preserving
        assert check_multiplicity_preserving(m, samples=40).ok


NEGATIVE_COUNTS = {  # entry point: (call on a map, the count it takes, a negative value it used to pass or misreport)
    "is_jordan": (lambda m, k: is_jordan(m, samples=k), "samples", -1),
    "char_poly": (lambda m, k: check_char_poly_preserving(m, samples=k), "samples", -40),
    "shrinking": (lambda m, k: check_spectrum_shrinking(m, samples=k), "samples", -1),
    "commutativity": (lambda m, k: check_commutativity_preserving(m, pairs=k), "pairs", -1),
    "multiplicity": (lambda m, k: check_multiplicity_preserving(m, samples=k), "samples", -1),
    "full_report": (lambda m, k: full_report(m, budget=k), "budget", -1),
    "gallery": (lambda m, k: run_gallery_suite("det_twist", budget=k), "budget", -1),
}


@pytest.mark.parametrize("entry", list(NEGATIVE_COUNTS))
def test_negative_count_is_rejected(rng, entry):
    # a random, non-Jordan map: a silently skipped probe set would read as a pass
    call, name, count = NEGATIVE_COUNTS[entry]
    m = AlgebraMap(block_algebra((1, 2)), gaussian(rng, 9, 7))
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got {count}"):
        call(m, count)
    call(m, 0)  # zero stays valid


def test_worst_violation_covers_every_check(rng):
    m = form_map((2, 3, 3), rng, noise=1e-3)
    seeds = np.random.SeedSequence(4).spawn(4)
    worsts = [
        check_char_poly_preserving(m, samples=20, seed=seeds[0]).worst,
        check_spectrum_shrinking(m, samples=20, seed=seeds[1]).worst,
        check_commutativity_preserving(m, pairs=20, seed=seeds[2]).worst,
    ]
    assert full_report(m, budget=20, seed=4).worst_violation == max(worsts)


def test_rank_one_idempotent_at_n16():
    # a valid rank-one idempotent that the former rank test (singular values
    # from the eigenvalues of R^H R) rejected as NotRankOne
    n = 16
    rng = np.random.default_rng(15439)
    u = np.eye(n) + np.triu(gaussian(rng, n), 1) * 0.3 / np.sqrt(n)
    i = int(rng.integers(n))
    r = np.triu(np.outer(u[:, i], np.linalg.inv(u)[i, :]))
    form = triangular_idempotent_form(r)
    e = np.zeros((n, n))
    e[form.index, form.index] = 1.0
    assert form.index == i
    assert np.max(np.abs(form.similarity @ e @ np.linalg.inv(form.similarity) - r)) <= 1e-12
