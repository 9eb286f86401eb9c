"""Core linear algebra: decompositions against independent oracles."""

import re
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import blocktri
from blocktri import (
    IllConditioned,
    MismatchedDimension,
    NoConvergence,
    NotFinite,
    SchurForm,
    Singular,
    block_algebra,
    char_poly,
    eigenvalues,
    inverse,
    random_element,
    schur,
    spectral_norm,
)
from blocktri.linalg import CONDITION_BOUND, _gauss_jordan, frobenius

from conftest import det_oracle, gaussian, match_multisets, power_iteration_norm, qr_schur, same_bits


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(3)), np.eye(3), rtol=1e-15, atol=0)

    def test_diagonal(self):
        got = inverse(np.diag([2.0, 4.0]).astype(complex))
        assert np.allclose(got, np.diag([0.5, 0.25]), rtol=1e-15, atol=0)

    def test_residual_random(self, rng):
        a = gaussian(rng, 5) + 2 * np.eye(5)
        assert frobenius(a @ inverse(a) - np.eye(5)) <= 1e-10 * frobenius(a)

    def test_singular(self):
        with pytest.raises(Singular):
            inverse(np.zeros((3, 3), dtype=complex))
        with pytest.raises(Singular):
            inverse(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))

    def test_ill_conditioned(self):
        with pytest.raises(IllConditioned):
            inverse(np.array([[1.0, 1e5], [0.0, 1e-5]], dtype=complex))


class TestCharPoly:
    def test_zero_matrix(self):
        # det(0 - xI) = -x^3
        assert np.array_equal(char_poly(np.zeros((3, 3))), np.array([0, 0, 0, -1.0]))

    def test_diagonal(self):
        # (1-x)(2-x)(3-x) = 6 - 11x + 6x^2 - x^3
        got = char_poly(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(got, [6.0, -11.0, 6.0, -1.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_leading_coefficient_exact(self, rng, n):
        coeffs = char_poly(gaussian(rng, n))
        assert coeffs[n] == (-1.0) ** n

    def test_interpolation_oracle(self, rng):
        a = gaussian(rng, 4)
        coeffs = char_poly(a)
        scale = max(1.0, (1.0 + frobenius(a)) ** 4)
        for x in [0.0, 1.0, -1.0, 2.0j, 1.0 + 1.0j]:
            expected = det_oracle(a - x * np.eye(4))
            assert abs(polyval(x, coeffs) - expected) <= 1e-10 * scale

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            a = gaussian(rng, 6)
            g = gaussian(rng, 6)
            t = np.eye(6) + g / (2.0 * spectral_norm(g))
            diff = np.abs(char_poly(t @ a @ inverse(t)) - char_poly(a))
            assert np.max(diff) <= 1e-8 * max(1.0, frobenius(a)) ** 6


class TestEigenvalues:
    def test_triangular_spectrum(self, rng):
        a = np.triu(gaussian(rng, 5))
        match_multisets(eigenvalues(a), np.diag(a), 1e-10 * frobenius(a))

    def test_reversal_permutation(self):
        j = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        match_multisets(eigenvalues(j), [1.0, -1.0], 1e-12)

    def test_root_residual(self, rng):
        a = gaussian(rng, 6)
        coeffs = char_poly(a)
        for lam in eigenvalues(a):
            assert abs(polyval(lam, coeffs)) <= 1e-8 * frobenius(a) ** 6

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_trace_and_det(self, rng, n):
        a = gaussian(rng, n)
        lams = eigenvalues(a)
        assert abs(np.sum(lams) - np.trace(a)) <= 1e-8 * frobenius(a)
        det = char_poly(a)[0]
        assert abs(np.prod(lams) - det) <= 1e-6 * max(1.0, abs(det))

    def test_against_numpy(self, rng):
        for n in (2, 4, 7):
            a = gaussian(rng, n)
            match_multisets(eigenvalues(a), np.linalg.eigvals(a), 1e-9 * frobenius(a))

    def test_larger_reversal(self):
        n = 6
        j = np.eye(n, dtype=complex)[::-1]
        match_multisets(eigenvalues(j), [1, 1, 1, -1, -1, -1], 1e-10)


class TestSchur:
    def test_already_triangular(self, rng):
        a = np.triu(gaussian(rng, 4))
        form = schur(a)
        assert np.array_equal(form.unitary, np.eye(4))
        assert np.array_equal(form.upper, a)

    def test_hermitian_input(self, rng):
        g = gaussian(rng, 5)
        a = g + np.conj(g.T)
        form = schur(a)
        off = form.upper - np.diag(np.diag(form.upper))
        assert np.max(np.abs(off)) <= 1e-9 * frobenius(a)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reconstruction(self, rng, n):
        a = gaussian(rng, n)
        form = schur(a)
        uh = np.conj(form.unitary.T)
        assert frobenius(form.unitary @ form.upper @ uh - a) <= 1e-9 * frobenius(a)
        assert frobenius(uh @ form.unitary - np.eye(n)) <= 1e-10
        assert np.max(np.abs(np.tril(form.upper, -1))) <= 1e-9 * frobenius(a)

    def test_is_dataclass(self):
        form = schur(np.eye(2))
        assert isinstance(form, SchurForm)


class TestSpectralNorm:
    def test_diagonal(self):
        assert abs(spectral_norm(np.diag([3.0, -4.0j])) - 4.0) <= 1e-10

    def test_rank_one_unit(self):
        assert abs(spectral_norm(unit(3, 0, 1)) - 1.0) <= 1e-12

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_cross_check(self, rng):
        a = gaussian(rng, 5)
        gram_eigs = eigenvalues(np.conj(a.T) @ a)
        expected = np.sqrt(np.max(np.real(gram_eigs)))
        assert abs(spectral_norm(a) - expected) <= 1e-8

    def test_identity_converges_fast(self):
        assert abs(spectral_norm(np.eye(6)) - 1.0) <= 1e-12

    def test_rectangular(self, rng):
        a = gaussian(rng, 2, 6)
        assert abs(spectral_norm(a) - np.linalg.svd(a)[1][0]) <= 1e-8


# --- LAPACK kernels against the self-contained algorithms they replace --------


def norm1(a):
    return float(np.max(np.sum(np.abs(a), axis=0)))


def inverse_outcome(fn, a):
    try:
        return fn(a)
    except (Singular, IllConditioned) as exc:
        return type(exc)


def near_singular_family(rng):
    """Matrices from well-conditioned to singular: rotated geometric spectra,
    graded rows, nearly dependent rows and exactly singular integer matrices."""
    for n in (2, 3, 8, 16):
        u = np.linalg.qr(gaussian(rng, n))[0]
        v = np.linalg.qr(gaussian(rng, n))[0]
        for k in np.arange(0.0, 17.0, 0.5):  # smallest singular value 10^-k
            yield u @ np.diag(np.logspace(0.0, -k, n)) @ v
        for k in (2, 6, 10, 14):
            yield np.logspace(0.0, -k, n)[:, None] * gaussian(rng, n)
        for eps in (1e-4, 1e-9, 1e-13, 0.0):
            a = gaussian(rng, n)
            a[-1] = a[0] + eps * gaussian(rng, 1, n)[0]
            yield a
    yield np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    yield np.array([[1.0, 1e5], [0.0, 1e-5]], dtype=complex)
    yield np.zeros((3, 3), dtype=complex)


class TestInverseAgainstGaussJordan:
    def test_same_outcome_on_near_singular_family(self, rng):
        sides = set()
        for a in near_singular_family(rng):
            got = inverse_outcome(inverse, a)
            ref = inverse_outcome(_gauss_jordan, a)
            if isinstance(ref, type):
                assert got is ref
                continue
            assert isinstance(got, np.ndarray)
            cond = norm1(a) * norm1(ref)
            sides.add(a.shape[0] * cond < CONDITION_BOUND)
            assert norm1(got - ref) <= 1e3 * a.shape[0] * np.finfo(float).eps * cond * norm1(ref)
        assert sides == {True, False}  # inverses on both sides of the n * cond_1 guard

    @pytest.mark.parametrize("n", [2, 8, 16])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_either_side_of_guard(self, rng, n, factor):
        u = np.linalg.qr(gaussian(rng, n))[0]
        a = u @ np.diag(np.linspace(1.0, 2.0, n))
        a[:, -1] *= 1e-6
        # rescale the last column until n * cond_1 sits at factor * CONDITION_BOUND
        for _ in range(4):
            a[:, -1] *= n * norm1(a) * norm1(np.linalg.inv(a)) / (factor * CONDITION_BOUND)
        ratio = n * norm1(a) * norm1(np.linalg.inv(a)) / CONDITION_BOUND
        assert (ratio < 1.0) == (factor < 1.0)
        got = inverse_outcome(inverse, a)
        ref = inverse_outcome(_gauss_jordan, a)
        if isinstance(ref, type):
            assert got is ref
        else:
            cond = norm1(a) * norm1(ref)
            assert norm1(got - ref) <= 1e3 * n * np.finfo(float).eps * cond * norm1(ref)

    def test_empty(self):
        assert inverse(np.zeros((0, 0), dtype=complex)).shape == (0, 0)


class TestStacks:
    """``inverse`` and ``spectral_norm`` on (..., n, n) stacks against one call per matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_spectral_norm_bit_identical(self, rng, n):
        a = np.stack([gaussian(rng, n) for _ in range(7)] + [np.zeros((n, n))])
        want = np.array([spectral_norm(x) for x in a])
        assert same_bits(spectral_norm(a), want)
        assert same_bits(spectral_norm(a.reshape(4, 2, n, n)), want.reshape(4, 2))
        assert same_bits(spectral_norm(a[:0]), np.zeros(0))
        assert isinstance(spectral_norm(a[0]), float)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_inverse_bit_identical(self, rng, n):
        a = np.stack([gaussian(rng, n) for _ in range(7)])
        want = np.stack([inverse(x) for x in a])
        assert same_bits(inverse(a), want)
        assert same_bits(inverse(a.reshape(7, 1, n, n)), want.reshape(7, 1, n, n))
        assert inverse(a[:0]).shape == (0, n, n)

    def test_inverse_on_both_sides_of_guard(self, rng):
        # every member that inverts alone, LAPACK's and Gauss-Jordan's alike, in one stack per n
        sides = set()
        for n in (2, 3, 8, 16):
            members = [a for a in near_singular_family(rng) if a.shape[0] == n]
            members = [a for a in members if not isinstance(inverse_outcome(inverse, a), type)]
            sides |= {n * norm1(a) * norm1(inverse(a)) < CONDITION_BOUND for a in members}
            assert same_bits(inverse(np.stack(members)), np.stack([inverse(a) for a in members]))
        assert sides == {True, False}

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1.0, 2.0], [2.0, 4.0]]),  # exactly singular: LAPACK fails the whole stack
            np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),  # a pivot under the threshold
            np.array([[1.0, 1e5], [0.0, 1e-5]]),  # ill-conditioned
            np.zeros((2, 2)),
        ],
    )
    def test_first_failing_member_raises_its_error(self, rng, bad):
        with pytest.raises((Singular, IllConditioned)) as alone:
            inverse(bad)
        ill = np.array([[1.0, 1e5], [0.0, 1e-5]], dtype=complex)
        for stack in ([gaussian(rng, 2), bad, ill, gaussian(rng, 2)], [bad, np.zeros((2, 2))]):
            with pytest.raises(type(alone.value)) as got:
                inverse(np.stack(stack).astype(complex))
            assert str(got.value) == str(alone.value)

    def test_stack_validation(self):
        with pytest.raises(NotFinite):
            inverse(np.full((2, 3, 3), np.nan + 0j))
        with pytest.raises(NotFinite):
            spectral_norm(np.full((2, 3, 3), np.inf + 0j))
        with pytest.raises(MismatchedDimension):
            inverse(np.zeros((2, 3, 4)))
        # a single matrix is validated as one
        with pytest.raises(MismatchedDimension, match="^expected a 2-D array, got ndim=1$"):
            inverse(np.ones(3))
        for f in (inverse, schur):
            with pytest.raises(MismatchedDimension, match=r"^expected a square matrix, got shape \(2, 3\)$"):
                f(np.ones((2, 3)))


class TestSpectralNormAgainstPowerIteration:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (8, 8), (16, 16), (2, 6), (6, 2), (16, 5)])
    def test_random(self, rng, shape):
        a = gaussian(rng, *shape)
        ref, converged = power_iteration_norm(a)
        assert converged
        assert abs(spectral_norm(a) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("n, rank", [(3, 1), (8, 2), (16, 5), (6, 3)])
    def test_rank_deficient(self, rng, n, rank):
        a = gaussian(rng, n, rank) @ gaussian(rng, rank, n + 2)
        ref, converged = power_iteration_norm(a)
        assert converged
        assert abs(spectral_norm(a) - ref) <= 1e-9 * ref

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergence):
            spectral_norm(np.eye(3))


class TestSchurDeflation:
    """``schur`` across the envelope, and against the QR engine it replaced."""

    @staticmethod
    def assert_schur_form(a, form):
        n = a.shape[0]
        scale = frobenius(a)
        uh = np.conj(form.unitary.T)
        assert frobenius(form.unitary @ form.upper @ uh - a) <= 1e-12 * scale
        assert frobenius(uh @ form.unitary - np.eye(n)) <= 1e-12
        assert np.max(np.abs(np.tril(form.upper, -1)), initial=0.0) <= 64 * n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_diagonal_matches_qr_oracle(self, rng, n):
        a = gaussian(rng, n)
        form = schur(a)
        self.assert_schur_form(a, form)
        match_multisets(np.diag(form.upper), np.diag(qr_schur(a).upper), 1e-9 * frobenius(a))

    def test_empty_and_scalar(self):
        form = schur(np.zeros((0, 0)))
        assert form.unitary.shape == form.upper.shape == (0, 0)
        a = np.array([[2.5 - 1j]])
        form = schur(a)
        assert np.array_equal(form.unitary, np.eye(1)) and np.array_equal(form.upper, a)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_extreme_scales(self, rng, n, scale):
        g = gaussian(rng, n)
        form = schur(scale * g)
        self.assert_schur_form(scale * g, form)
        match_multisets(np.diag(form.upper) / scale, eigenvalues(g), 1e-9 * frobenius(g))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_triangular_input_is_returned_exactly(self, rng, scale):
        nilpotent = np.diag(np.ones(15), 1).astype(complex)  # the Jordan block J_16
        for a in (scale * np.triu(gaussian(rng, 16)), scale * nilpotent, np.zeros((5, 5), dtype=complex)):
            form = schur(a)
            assert np.array_equal(form.unitary, np.eye(a.shape[0]))
            assert np.array_equal(form.upper, a)

    def test_repeated_eigenvalues(self, rng):
        u = np.linalg.qr(gaussian(rng, 16))[0]
        nilpotent = np.diag(np.ones(15), 1)
        for a in (np.kron(np.eye(4), gaussian(rng, 4)), u @ nilpotent @ np.conj(u.T)):
            self.assert_schur_form(a, schur(a))

    @pytest.mark.parametrize("parts", [(4, 4, 4, 4), (1,) * 16, (16,)])
    def test_algebra_members(self, rng, parts):
        alg = block_algebra(parts)
        for _ in range(5):
            a = random_element(alg, rng)
            self.assert_schur_form(a, schur(a))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NotFinite):
                schur(np.full((3, 3), bad + 0j))

    @pytest.mark.parametrize("name", ["eigvals", "svd"])
    def test_lapack_failure_is_no_convergence(self, rng, monkeypatch, name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{name} did not converge")

        a = gaussian(rng, 4)
        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(NoConvergence):
            schur(a)

    def test_lower_triangle_bound_names_value_and_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(blocktri.linalg, "SCHUR_LOWER_EPS", 0.0)
        with pytest.raises(NoConvergence, match=r"strict lower triangle \d.* exceeds 0\.000e\+00"):
            schur(gaussian(rng, 8))


class TestFrobenius:
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-155, 1e155, 1e160, 1e300])
    def test_no_overflow_or_underflow(self, rng, scale):
        a = gaussian(rng, 4)
        want = scale * frobenius(a)
        assert abs(frobenius(scale * a) - want) <= 1e-14 * want
        got = frobenius(np.stack([scale * a, a, np.zeros((4, 4))]))
        assert abs(got[0] - want) <= 1e-14 * want
        assert got[1] == frobenius(a) and got[2] == 0.0

    def test_in_range_results_unchanged(self, rng):
        stack = np.stack([gaussian(rng, 5) * s for s in (1e-140, 1e-3, 1.0, 1e6, 1e140)])
        stack[2, 0, 0] = 1e-170  # its square underflows, the norm stays in range
        for a in stack:
            assert frobenius(a) == float(np.sqrt(np.sum(np.abs(a) ** 2)))
        assert np.array_equal(frobenius(stack), np.sqrt(np.sum(np.abs(stack.reshape(5, -1)) ** 2, axis=-1)))

    def test_non_finite_entries(self):
        assert frobenius(np.array([[np.inf, 1.0], [0.0, 1e200]])) == np.inf
        assert np.isnan(frobenius(np.array([[np.nan, 1e200], [0.0, 1.0]])))
        got = frobenius(np.stack([np.full((2, 2), np.inf), np.full((2, 2), np.nan), np.eye(2)]))
        assert got[0] == np.inf and np.isnan(got[1]) and got[2] == np.sqrt(2.0)


def test_numpy_linalg_called_only_from_linalg():
    # one module owns every LAPACK call and the LinAlgError -> NoConvergence rule
    package = Path(blocktri.__file__).parent
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.name != "linalg.py"
        and re.search(r"\b(np|numpy)\.linalg\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from blocktri import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(blocktri.__all__)
    for name in blocktri.__all__:
        assert not isinstance(getattr(blocktri, name), types.ModuleType), name
