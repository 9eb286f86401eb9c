"""Map representation, Jordan checking, and similarity recovery."""

import numpy as np
import pytest

from blocktri import (
    AlgebraMap,
    JordanForm,
    MismatchedDimension,
    NotJordanEmbedding,
    Orientation,
    Singular,
    WrongAlgebra,
    algebra_map_from_function,
    apply,
    block_algebra,
    block_projection,
    build_form_map,
    evaluate_form,
    form_residual,
    inverse,
    is_jordan,
    orientation_feasible,
    random_element,
    recover_form,
    spectral_norm,
)
from blocktri.linalg import frobenius

from conftest import bounded_similarity, gaussian


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def identity_map(parts) -> AlgebraMap:
    alg = block_algebra(parts)
    return build_form_map(alg, JordanForm(Orientation.INNER, np.eye(alg.n, dtype=complex)))


class TestBuildFormMap:
    def test_identity_coefficients(self):
        m = identity_map((1, 1, 1))
        for idx, (i, j) in enumerate(m.domain.cells):
            assert np.array_equal(m.unit_image(idx), unit(3, i, j))

    def test_diagonal_conjugation_scales_cells(self):
        alg = block_algebra((1, 1))
        m = build_form_map(alg, JordanForm(Orientation.INNER, np.diag([1.0, 2.0]).astype(complex)))
        idx = alg.cells.index((0, 1))
        assert np.allclose(m.unit_image(idx), 0.5 * unit(2, 0, 1), rtol=0, atol=1e-15)

    def test_plain_transpose(self):
        alg = block_algebra((3,))
        m = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, np.eye(3, dtype=complex)))
        idx = alg.cells.index((0, 1))
        assert np.array_equal(m.unit_image(idx), unit(3, 1, 0))

    def test_singular_similarity_rejected(self):
        alg = block_algebra((1, 1))
        with pytest.raises(Singular):
            build_form_map(alg, JordanForm(Orientation.INNER, np.zeros((2, 2))))


class TestAlgebraMapShape:
    @pytest.mark.parametrize("shape", [(9, 4), (9, 8), (7, 9), (3, 7), (63,), (9, 7, 1), (0, 7)])
    def test_wrong_shape_rejected(self, shape):
        # (1,2) has n = 3 and dim 7: the coefficients must be 9 x 7
        with pytest.raises(MismatchedDimension, match=r"expected \(9, 7\)"):
            AlgebraMap(block_algebra((1, 2)), np.zeros(shape))


class TestApply:
    def test_identity(self, rng):
        m = identity_map((1, 2))
        x = random_element(m.domain, rng)
        assert np.allclose(apply(m, x), x, rtol=0, atol=1e-15)

    def test_against_direct_conjugation(self, rng):
        alg = block_algebra((2, 2))
        t = bounded_similarity(alg.parts, rng)
        form = JordanForm(Orientation.INNER, t)
        m = build_form_map(alg, form)
        cond = spectral_norm(t) * spectral_norm(inverse(t))
        for _ in range(5):
            x = random_element(alg, rng)
            direct = t @ x @ inverse(t)
            assert frobenius(apply(m, x) - direct) <= 1e-10 * frobenius(x) * cond

    def test_anti_against_direct(self, rng):
        alg = block_algebra((1, 2))
        t = bounded_similarity(alg.parts, rng)
        m = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, t))
        x = random_element(alg, rng)
        direct = t @ x.T @ inverse(t)
        assert frobenius(apply(m, x) - direct) <= 1e-10 * max(1.0, frobenius(x))

    def test_additive(self, rng):
        m = identity_map((2, 1))
        x = random_element(m.domain, rng)
        y = random_element(m.domain, rng)
        gap = frobenius(apply(m, x + y) - (apply(m, x) + apply(m, y)))
        assert gap <= 1e-12 * max(1.0, frobenius(x) + frobenius(y))

    def test_wrong_algebra(self, rng):
        m = identity_map((1, 2))
        with pytest.raises(WrongAlgebra):
            apply(m, gaussian(rng, 3))  # dense lower entries
        with pytest.raises(WrongAlgebra):
            apply(m, gaussian(rng, 4))


class TestIsJordan:
    def test_form_maps_pass(self, rng):
        for parts in [(1, 2), (2, 2), (1, 1, 1)]:
            alg = block_algebra(parts)
            t = bounded_similarity(parts, rng)
            for orientation in Orientation:
                m = build_form_map(alg, JordanForm(orientation, t))
                check = is_jordan(m, samples=15, seed=3)
                assert check.ok, (parts, orientation, check.worst_residual)

    def test_block_projection_passes(self):
        alg = block_algebra((1, 2))
        m = algebra_map_from_function(alg, lambda x: block_projection(alg, x))
        assert is_jordan(m, samples=25, seed=1, tol=1e-9).ok

    def test_explicit_non_jordan_linear_map(self):
        # X -> X + x_00 E_01 breaks the symmetric-product identity on
        # the unit pair (E_00, E_11)
        alg = block_algebra((1, 1))
        m = algebra_map_from_function(alg, lambda x: x + x[0, 0] * unit(2, 0, 1))
        check = is_jordan(m, samples=10, seed=0)
        assert not check.ok
        assert check.worst_residual > 1e-8

    def test_random_linear_maps_fail(self, rng):
        alg = block_algebra((1, 2))
        for _ in range(10):
            coeffs = gaussian(rng, alg.n**2, alg.dim)
            assert not is_jordan(AlgebraMap(alg, coeffs), samples=4, seed=0).ok


class TestRecoverForm:
    def test_identity_map(self):
        form = recover_form(identity_map((1, 1, 1)))
        assert form.orientation is Orientation.INNER
        assert np.allclose(form.t, np.eye(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("parts", [(1, 2), (2, 1), (2, 2), (1, 1, 2), (3, 2)])
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_round_trip(self, rng, parts, orientation):
        alg = block_algebra(parts)
        t = bounded_similarity(parts, rng, diag_spread=0.5)
        m = build_form_map(alg, JordanForm(orientation, t))
        rec = recover_form(m)
        assert rec.orientation is orientation
        m2 = build_form_map(alg, rec)
        scale = float(np.max(np.abs(m.coefficients)))
        assert np.max(np.abs(m2.coefficients - m.coefficients)) <= 1e-7 * scale

    def test_canonical_scaling(self, rng):
        alg = block_algebra((1, 2))
        t = bounded_similarity(alg.parts, rng)
        rec = recover_form(build_form_map(alg, JordanForm(Orientation.INNER, t)))
        mags = np.abs(rec.t)
        peak = rec.t.reshape(-1)[int(np.argmax(mags))]
        assert peak == 1.0

    @pytest.mark.parametrize("lam", [2.0, -3.0j, 1e-3])
    def test_scalar_invariance(self, rng, lam):
        alg = block_algebra((2, 1))
        t = bounded_similarity(alg.parts, rng)
        base = recover_form(build_form_map(alg, JordanForm(Orientation.INNER, t)))
        scaled = recover_form(build_form_map(alg, JordanForm(Orientation.INNER, lam * t)))
        assert scaled.orientation is base.orientation
        assert np.max(np.abs(scaled.t - base.t)) <= 1e-9

    @pytest.mark.parametrize("lam", [2.0, -3.0j])
    def test_scalar_coefficients_bit_close(self, rng, lam):
        # the scalar cancels inside T X T^{-1}, so the coefficient matrices
        # agree to rounding
        alg = block_algebra((1, 2))
        t = bounded_similarity(alg.parts, rng)
        m1 = build_form_map(alg, JordanForm(Orientation.INNER, t))
        m2 = build_form_map(alg, JordanForm(Orientation.INNER, lam * t))
        scale = float(np.max(np.abs(m1.coefficients)))
        assert np.max(np.abs(m1.coefficients - m2.coefficients)) <= 1e-12 * scale

    def test_rejects_block_projection(self):
        alg = block_algebra((1, 2))
        m = algebra_map_from_function(alg, lambda x: block_projection(alg, x))
        with pytest.raises(NotJordanEmbedding):
            recover_form(m)

    def test_rejects_random_map(self, rng):
        alg = block_algebra((1, 1, 1))
        with pytest.raises(NotJordanEmbedding):
            recover_form(AlgebraMap(alg, gaussian(rng, 9, alg.dim)))

    def test_rejects_doubled_identity(self):
        # 2 * identity fails: diagonal images are not idempotent
        m = identity_map((1, 1))
        with pytest.raises(NotJordanEmbedding):
            recover_form(AlgebraMap(m.domain, 2.0 * m.coefficients))

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({(0, 3): "zero"}, r"unit \(0, 3\) vanishes"),
            ({(2, 4): "spread"}, r"unit \(2, 4\) is not cell-concentrated"),
            ({(0, 3): "spread", (1, 2): "zero"}, r"unit \(0, 3\) is not cell-concentrated"),
            ({(0, 3): "zero", (1, 2): "spread"}, r"unit \(0, 3\) vanishes"),
            ({(1, 2): "faint"}, r"unit \(1, 2\) vanishes"),  # spread too, but vanishing is tested first
            ({(3, 5): "anti"}, "mixed orientations"),
            ({(4, 4): "spread"}, r"diagonal unit 4 is not rank one"),  # P_4 + P_7 is idempotent
            ({(5, 5): "double", (2, 2): "zero"}, r"diagonal unit 2 is not rank one"),
            ({(2, 2): "double", (5, 5): "zero"}, r"diagonal unit 2 is not idempotent"),  # trace 2 as well
        ],
    )
    def test_first_failing_unit_named(self, rng, edits, message):
        # unit images edited in cell order: the first bad unit is named
        alg = block_algebra((2, 3, 3))
        t = bounded_similarity(alg.parts, rng)
        c = np.array(build_form_map(alg, JordanForm(Orientation.INNER, t)).coefficients)
        anti = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, t)).coefficients
        index = {cell: k for k, cell in enumerate(alg.cells)}
        for cell, edit in edits.items():
            k = index[cell]
            spread = c[:, k] + c[:, index[(7, 7)]]
            c[:, k] = {"zero": 0.0, "spread": spread, "faint": 1e-12 * spread, "anti": anti[:, k], "double": 2 * c[:, k]}[edit]
        with pytest.raises(NotJordanEmbedding, match=message):
            recover_form(AlgebraMap(alg, c))

    def test_certification_rejects_one_wrong_unit(self):
        # steps (1)-(5) read T = I off the diagonal and first-row units; only
        # the certification on every unit sees phi(E_12) = 2 E_12
        m = identity_map((1, 1, 1))
        c = np.array(m.coefficients)
        c[:, m.domain.cells.index((1, 2))] *= 2.0
        doubled = AlgebraMap(m.domain, c)
        with pytest.raises(NotJordanEmbedding, match="verification residual exceeds tolerance"):
            recover_form(doubled)
        assert form_residual(doubled, JordanForm(Orientation.INNER, np.eye(3, dtype=complex))) == 1.0

    @pytest.mark.parametrize("parts", [(2, 3, 3), (1,) * 6, (4, 4)])
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_form_residual_of_form_map(self, rng, parts, orientation):
        alg = block_algebra(parts)
        form = JordanForm(orientation, bounded_similarity(parts, rng))
        m = build_form_map(alg, form)
        assert form_residual(m, form) == 0.0  # the same unit images
        assert form_residual(m, recover_form(m)) <= 1e-13

    def test_form_residual_non_finite(self):
        m = identity_map((1, 2))
        c = np.array(m.coefficients)
        c[0, 0] = np.nan
        form = JordanForm(Orientation.INNER, np.eye(3, dtype=complex))
        assert form_residual(AlgebraMap(m.domain, c), form) == np.inf

    def test_verification_probes_match(self, rng):
        alg = block_algebra((2, 2))
        t = bounded_similarity(alg.parts, rng)
        m = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, t))
        rec = recover_form(m)
        for _ in range(10):
            x = random_element(alg, rng)
            gap = frobenius(apply(m, x) - evaluate_form(rec, x))
            assert gap <= 1e-7 * max(1.0, frobenius(x))


class TestOrientationFeasible:
    def test_codomain_full_matrix_always(self):
        assert orientation_feasible((1, 2), Orientation.ANTI_TRANSPOSE)
        assert orientation_feasible((1, 2), Orientation.INNER)

    def test_endomap_anti_needs_palindrome(self):
        assert not orientation_feasible((1, 2), Orientation.ANTI_TRANSPOSE, codomain=(1, 2))
        assert orientation_feasible((1, 2, 1), Orientation.ANTI_TRANSPOSE, codomain=(1, 2, 1))
        assert orientation_feasible((1, 2), Orientation.INNER, codomain=(1, 2))


class TestJordanIdentities:
    """The standard Jordan-homomorphism identities on form-built maps."""

    @pytest.fixture
    def form_map(self, rng):
        alg = block_algebra((1, 2, 1))
        t = bounded_similarity(alg.parts, rng)
        return build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, t))

    def _rel(self, lhs, rhs):
        return frobenius(lhs - rhs) / max(1.0, frobenius(lhs), frobenius(rhs))

    def test_triple_product(self, form_map, rng):
        m = form_map
        for _ in range(20):
            x = random_element(m.domain, rng)
            y = random_element(m.domain, rng)
            fx, fy = apply(m, x), apply(m, y)
            assert self._rel(apply(m, x @ y @ x), fx @ fy @ fx) <= 1e-8

    def test_double_commutator(self, form_map, rng):
        m = form_map
        comm = lambda a, b: a @ b - b @ a
        for _ in range(20):
            x, y, z = (random_element(m.domain, rng) for _ in range(3))
            lhs = apply(m, comm(comm(x, y), z))
            rhs = comm(comm(apply(m, x), apply(m, y)), apply(m, z))
            assert self._rel(lhs, rhs) <= 1e-8

    def test_commutator_square(self, form_map, rng):
        m = form_map
        for _ in range(20):
            x, y = (random_element(m.domain, rng) for _ in range(2))
            c = x @ y - y @ x
            fc = apply(m, x) @ apply(m, y) - apply(m, y) @ apply(m, x)
            assert self._rel(apply(m, c @ c), fc @ fc) <= 1e-8

    def test_idempotents_map_to_idempotents(self, form_map, rng):
        m = form_map
        n = m.domain.n
        for _ in range(10):
            t0 = bounded_similarity(m.domain.parts, rng)
            d = np.diag(rng.integers(0, 2, n).astype(np.complex128))
            p = t0 @ d @ inverse(t0)
            fp = apply(m, p)
            assert frobenius(fp @ fp - fp) <= 1e-8 * max(1.0, frobenius(p) ** 2)

    def test_preserves_inverses(self, form_map, rng):
        m = form_map
        n = m.domain.n
        for _ in range(10):
            x = random_element(m.domain, rng)
            x = x + (1.0 + spectral_norm(x)) * np.eye(n)
            lhs = apply(m, inverse(x))
            rhs = inverse(apply(m, x))
            assert self._rel(lhs, rhs) <= 1e-8
