"""Preserver checkers against form-built maps and the nonlinear gallery."""

import numpy as np
import pytest

from blocktri import (
    GALLERY,
    JordanForm,
    Orientation,
    block_algebra,
    build_form_map,
    check_char_poly_preserving,
    check_commutativity_preserving,
    check_multiplicity_preserving,
    check_spectrum_shrinking,
    full_report,
    is_jordan,
    recover_form,
)

from conftest import bounded_similarity, shear_jordan_map

INTEGRAL = [(parts, orientation) for parts in [(1, 1, 1), (2, 3, 3), (4, 4, 4, 4)] for orientation in Orientation]


class TestCharPolyPreserving:
    def test_form_maps_pass(self, rng):
        for parts in [(1, 2), (2, 2)]:
            alg = block_algebra(parts)
            t = bounded_similarity(parts, rng)
            for orientation in Orientation:
                m = build_form_map(alg, JordanForm(orientation, t))
                res = check_char_poly_preserving(m, samples=30, seed=2)
                assert res.ok and res.worst <= 1e-9

    def test_mobius_fails_at_zero(self):
        spec = GALLERY["mobius_contraction"]
        res = check_char_poly_preserving(spec.evaluator, spec.algebra, samples=5, seed=0)
        assert not res.ok
        # the first recorded witness is the zero matrix probe
        assert np.array_equal(res.witnesses[0], np.zeros((3, 3)))

    def test_det_twist_passes(self):
        spec = GALLERY["det_twist"]
        res = check_char_poly_preserving(spec.evaluator, spec.algebra, samples=50, seed=0)
        assert res.ok

    def test_needs_algebra_for_callables(self):
        with pytest.raises(ValueError):
            check_char_poly_preserving(lambda x: x)

    @pytest.mark.parametrize("parts", [(1,) * 12, (4, 4, 4, 4), (1,) * 16])
    def test_quadratic_perturbation_caught_up_to_n16(self, parts):
        # X -> X + x01 x12 E00 / 2 fixes 0, I and every unit; dividing every
        # coefficient by ||A||^n made it pass from n = 12 on
        def quadratic(x):
            y = x.copy()
            y[0, 0] += 0.5 * x[0, 1] * x[1, 2]
            return y

        res = check_char_poly_preserving(quadratic, block_algebra(parts), samples=20, seed=0)
        assert not res.ok and res.worst >= 1e-2

    @pytest.mark.parametrize("parts", [(1,) * 12, (4, 4, 4, 4), (1,) * 16, (16,)])
    def test_form_maps_pass_at_large_n(self, rng, parts):
        alg = block_algebra(parts)
        for orientation in Orientation:
            m = build_form_map(alg, JordanForm(orientation, bounded_similarity(parts, rng)))
            res = check_char_poly_preserving(m, samples=30, seed=1)
            assert res.ok and res.worst <= 1e-12


class TestSpectrumShrinking:
    def test_identity(self):
        alg = block_algebra((1, 2))
        res = check_spectrum_shrinking(lambda x: x, alg, samples=10, seed=0)
        assert res.ok

    def test_block_projection(self):
        spec = GALLERY["block_projection"]
        res = check_spectrum_shrinking(spec.evaluator, spec.algebra, samples=60, seed=1)
        assert res.ok

    def test_shift_map_fails_at_zero(self):
        alg = block_algebra((1, 1))
        res = check_spectrum_shrinking(lambda x: x + np.eye(2), alg, samples=5, seed=0)
        assert not res.ok
        assert np.array_equal(res.witnesses[0], np.zeros((2, 2)))

    @pytest.mark.xfail(
        strict=True,
        reason="rejects an exact Jordan embedding: LAPACK's eigenvalues of the nilpotent "
        "images T E_ij T^-1 spread by ~sqrt(eps), past the fixed 1e-8 tolerance",
    )
    def test_exact_jordan_embedding_at_cond_211(self):
        t = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=complex) @ np.diag([1.0, 10.0, 100.0])
        m = build_form_map(block_algebra((2, 1)), JordanForm(Orientation.INNER, t))
        assert check_spectrum_shrinking(m, samples=100, seed=0).ok


class TestIntegralJordanMaps:
    """Jordan maps with exactly integral coefficients (``shear_jordan_map``,
    seed 0, cond(T) 50 to 6e3): any rejection is the checker's own rounding."""

    @pytest.mark.parametrize("parts, orientation", INTEGRAL, ids=[f"{p}-{o.value}" for p, o in INTEGRAL])
    def test_accepted(self, parts, orientation):
        m = shear_jordan_map(parts, np.random.default_rng(0), orientation)
        assert is_jordan(m, samples=10).ok
        assert check_char_poly_preserving(m, samples=10).ok
        assert recover_form(m).orientation is orientation

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the shrinking check rejects all six maps (worst 5.7e-8 to 6.2e-6); the first "
        "violations are nilpotent matrix units, whose images' LAPACK eigenvalues spread past the 1e-8 tolerance",
    )
    def test_spectrum_shrinking_accepts(self):
        for parts, orientation in INTEGRAL:
            m = shear_jordan_map(parts, np.random.default_rng(0), orientation)
            assert check_spectrum_shrinking(m, samples=10).ok, (parts, orientation.value)


class TestCommutativityPreserving:
    def test_form_maps_pass(self, rng):
        alg = block_algebra((2, 1))
        t = bounded_similarity(alg.parts, rng)
        for orientation in Orientation:
            m = build_form_map(alg, JordanForm(orientation, t))
            res = check_commutativity_preserving(m, pairs=25, seed=4)
            assert res.ok

    def test_mobius_passes(self):
        spec = GALLERY["mobius_contraction"]
        res = check_commutativity_preserving(
            spec.evaluator, spec.algebra, pairs=40, seed=0, tol=1e-9
        )
        assert res.ok

    def test_det_twist_fails(self):
        spec = GALLERY["det_twist"]
        res = check_commutativity_preserving(spec.evaluator, spec.algebra, pairs=60, seed=0)
        assert not res.ok
        a, b = res.witnesses[0]
        fa, fb = spec.evaluator(a), spec.evaluator(b)
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-10 * max(
            1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(b)))
        )
        assert np.max(np.abs(fa @ fb - fb @ fa)) > 0


class TestMultiplicityPreserving:
    def test_form_map_with_collisions(self, rng):
        alg = block_algebra((1, 2))
        t = bounded_similarity(alg.parts, rng)
        m = build_form_map(alg, JordanForm(Orientation.INNER, t))
        res = check_multiplicity_preserving(m, samples=20, seed=7)
        assert res.ok

    def test_block_projection_preserves_multiplicities(self):
        spec = GALLERY["block_projection"]
        res = check_multiplicity_preserving(spec.evaluator, spec.algebra, samples=20, seed=7)
        assert res.ok

    def test_cell_scaling_map_fails(self):
        # shifting by one off-diagonal cell is generically spectrum-breaking
        # on degenerate conjugated diagonals
        alg = block_algebra((3,))
        fn = lambda x: x + 4.0 * x[0, 1] * np.eye(3)
        res = check_multiplicity_preserving(fn, alg, samples=20, seed=3)
        assert not res.ok


class TestFullReport:
    def test_inner_form_all_true(self, rng):
        alg = block_algebra((1, 2))
        m = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity(alg.parts, rng)))
        rep = full_report(m, budget=25, seed=9)
        assert rep.spectrum_preserving
        assert rep.spectrum_shrinking
        assert rep.commutativity_preserving
        assert rep.samples_used == 25
        assert not rep.witnesses

    def test_mobius_report(self):
        spec = GALLERY["mobius_contraction"]
        rep = full_report(spec.evaluator, spec.algebra, budget=25, seed=9, tol=1e-9)
        assert not rep.spectrum_preserving
        assert rep.commutativity_preserving
        assert "spectrum" in rep.witnesses

    def test_det_twist_report(self):
        spec = GALLERY["det_twist"]
        rep = full_report(spec.evaluator, spec.algebra, budget=40, seed=9)
        assert rep.spectrum_preserving
        assert not rep.commutativity_preserving

    def test_monotonicity_on_corpus(self, rng):
        # char-poly preservation implies spectrum shrinking at equal budget
        for parts in [(1, 2), (2, 1)]:
            alg = block_algebra(parts)
            m = build_form_map(
                alg, JordanForm(Orientation.INNER, bounded_similarity(parts, rng))
            )
            cp = check_char_poly_preserving(m, samples=20, seed=11)
            sh = check_spectrum_shrinking(m, samples=20, seed=11)
            assert cp.ok
            assert sh.ok

    def test_eigen_swap_pointwise_consistency(self):
        # discontinuous map still passes the pointwise char-poly comparison
        spec = GALLERY["eigen_swap"]
        res = check_char_poly_preserving(spec.evaluator, spec.algebra, samples=40, seed=2)
        assert res.ok

    def test_form_map_corpus_passes_every_checker(self):
        # seeded (algebra, T) instances across all sizes pass the full
        # hypothesis suite: char poly, commutativity, multiplicity
        from conftest import all_compositions

        rng = np.random.default_rng(0xC0405)
        for n in range(3, 9):
            comps = all_compositions(n)
            for orientation in Orientation:
                for _ in range(3):
                    parts = comps[int(rng.integers(len(comps)))]
                    alg = block_algebra(parts)
                    t = bounded_similarity(parts, rng, diag_spread=0.4)
                    m = build_form_map(alg, JordanForm(orientation, t))
                    assert check_char_poly_preserving(m, samples=15, seed=1).ok
                    assert check_commutativity_preserving(m, pairs=15, seed=2).ok
                    assert check_multiplicity_preserving(m, samples=3, seed=3).ok


class TestInjectivityOfLinearMaps:
    def test_form_map_coefficients_full_rank(self, rng):
        alg = block_algebra((1, 2))
        m = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity(alg.parts, rng)))
        svals = np.linalg.svd(m.coefficients, compute_uv=False)
        assert svals[-1] > 1e-8 * svals[0]

    def test_projection_map_rank_deficient(self):
        spec = GALLERY["block_projection"]
        from blocktri import algebra_map_from_function

        m = algebra_map_from_function(spec.algebra, spec.evaluator)
        svals = np.linalg.svd(m.coefficients, compute_uv=False)
        assert svals[-1] <= 1e-8 * svals[0]

    def test_jordan_plus_injective_is_always_resolved(self, rng):
        # every sampled linear map passing the Jordan check with full column
        # rank must be resolved by recovery, with zero rejections
        from blocktri import is_jordan, recover_form

        from conftest import all_compositions

        for n in (3, 4, 5):
            comps = all_compositions(n)
            for orientation in Orientation:
                for _ in range(4):
                    parts = comps[int(rng.integers(len(comps)))]
                    alg = block_algebra(parts)
                    t = bounded_similarity(parts, rng, diag_spread=0.3)
                    m = build_form_map(alg, JordanForm(orientation, t))
                    assert is_jordan(m, samples=8, seed=1).ok
                    svals = np.linalg.svd(m.coefficients, compute_uv=False)
                    assert svals[-1] > 1e-8 * svals[0]
                    rec = recover_form(m)  # must not raise
                    assert rec.orientation is orientation
