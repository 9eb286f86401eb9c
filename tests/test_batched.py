"""The batched probe layer against the per-matrix path it replaces.

Reference implementations here evaluate one probe (or one unit pair) at a
time, exactly as the checkers did before probes were stacked; the batched
code must reach the same verdicts and witnesses from the same seeds.
"""

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
    random_commuting_pair,
    random_element,
    recover_form,
    triangular_idempotent_form,
)
from blocktri.cli import main
from blocktri.documents import canonical_json, map_to_document
from blocktri.linalg import frobenius, identity, inverse, spectral_norm
from blocktri.maps import PROBE_CHUNK, probe_chunks, unit_pair_residuals
from blocktri.preservers import _multiset_match

from conftest import bounded_similarity, gaussian, match_multisets, qr_schur


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
    images = [m.unit_image(k) for k in range(alg.dim)]
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
    probes.extend(random_element(alg, rng) for _ in range(samples))
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
    candidates.extend(random_commuting_pair(alg, rng) for _ in range(pairs))
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
    rng = np.random.default_rng(seed)
    n = alg.n
    probes, res = [], []
    for _ in range(samples):
        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if n >= 2:
            i, j = rng.choice(n, size=2, replace=False)
            base[j] = base[i]
        g = random_element(alg, rng)
        t = identity(n) + g / (2.0 * max(spectral_norm(g), 1e-12))
        a = t @ np.diag(base) @ inverse(t)
        a = a / max(spectral_norm(a), 1e-12)
        probes.append(a)
        res.append(reference_match(eigenvalues(a), eigenvalues(fn(a))))
    return reference_verdict(res, probes, 1e-6)


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


class TestProbeChunks:
    def test_order_and_size(self, rng):
        probes = [gaussian(rng, 2) for _ in range(2 * PROBE_CHUNK + 3)]
        chunks = list(probe_chunks(iter(probes)))
        assert [len(c) for c in chunks] == [PROBE_CHUNK, PROBE_CHUNK, 3]
        assert np.array_equal(np.concatenate(chunks), np.stack(probes))

    def test_draws_lazily(self):
        drawn = []

        def probes():
            for k in range(PROBE_CHUNK + 1):
                drawn.append(k)
                yield np.eye(2)

        first = next(probe_chunks(probes()))
        assert len(first) == PROBE_CHUNK and len(drawn) == PROBE_CHUNK


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
        assert not check.ok and check.worst_residual == np.inf

    def test_checkers(self, overflowing_map):
        with np.errstate(all="ignore"):
            report = full_report(overflowing_map, budget=10)
            cm = check_commutativity_preserving(overflowing_map, pairs=10)
        assert not report.spectrum_preserving and not report.commutativity_preserving
        assert report.worst_violation == np.inf
        assert not cm.ok and cm.worst == np.inf and len(cm.witnesses) == 4

    def test_recovery_rejects(self, overflowing_map):
        with np.errstate(all="ignore"), pytest.raises(NotJordanEmbedding):
            recover_form(overflowing_map)

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
