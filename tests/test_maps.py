"""Map representation, Jordan checking, and similarity recovery."""

import warnings

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
    form_residual,
    inverse,
    is_jordan,
    random_element,
    recover_form,
    spectral_norm,
)
from blocktri.cli import main
from blocktri.documents import canonical_json, map_to_document
from blocktri.linalg import frobenius
from blocktri.maps import VERIFY_REL

from conftest import agreement_corpus, bounded_similarity, gaussian

GAP = r"image of unit {} misses the recovered form: relative gap \S+ > 1e-07"


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
            # each id names the defect the edits plant
            pytest.param({(0, 3): "zero"}, "recovered similarity is not invertible", id=r"edits0-unit \(0, 3\) vanishes"),
            pytest.param({(2, 4): "spread"}, GAP.format(r"\(2, 4\)"), id=r"edits1-unit \(2, 4\) is not cell-concentrated"),
            pytest.param(
                {(0, 3): "spread", (1, 2): "zero"},
                GAP.format(r"\(0, 3\)"),
                id=r"edits2-unit \(0, 3\) is not cell-concentrated",
            ),
            pytest.param(
                {(0, 3): "zero", (1, 2): "spread"}, "recovered similarity is not invertible", id=r"edits3-unit \(0, 3\) vanishes"
            ),
            pytest.param({(1, 2): "faint"}, GAP.format(r"\(1, 2\)"), id=r"edits4-unit \(1, 2\) vanishes"),
            pytest.param({(3, 5): "anti"}, GAP.format(r"\(3, 5\)"), id="edits5-mixed orientations"),
            pytest.param({(4, 4): "spread"}, GAP.format(r"\(4, 4\)"), id="edits6-diagonal unit 4 is not rank one"),
            pytest.param(
                {(5, 5): "double", (2, 2): "zero"},
                "assembled similarity is not invertible",
                id="edits7-diagonal unit 2 is not rank one",
            ),
            pytest.param(
                {(2, 2): "double", (5, 5): "zero"},
                "assembled similarity is not invertible",
                id="edits8-diagonal unit 2 is not idempotent",
            ),
        ],
    )
    def test_first_failing_unit_named(self, rng, edits, message):
        # unit images edited in cell order: the first unit that misses the
        # recovered form is named, unless S or T is not invertible
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
        # T = I is read off the diagonal and first-row units; only the
        # certification on every unit sees phi(E_12) = 2 E_12, whose gap
        # ||E_12||_F = 1 is relative to ||2 E_12||_F = 2
        m = identity_map((1, 1, 1))
        c = np.array(m.coefficients)
        c[:, m.domain.cells.index((1, 2))] *= 2.0
        doubled = AlgebraMap(m.domain, c)
        with pytest.raises(NotJordanEmbedding, match=r"image of unit \(1, 2\) misses the recovered form: relative gap 5\.000e-01 > 1e-07"):
            recover_form(doubled)
        assert form_residual(doubled, JordanForm(Orientation.INNER, np.eye(3, dtype=complex))) == 0.5

    def test_threshold_on_relative_gap(self):
        # a diagonal image scaled by 1 + VERIFY_REL stays within the
        # threshold, one scaled by 1 + 2 VERIFY_REL does not
        m = identity_map((1, 1))
        for scale, accepted in ((1.0 + VERIFY_REL, True), (1.0 + 2 * VERIFY_REL, False)):
            c = np.array(m.coefficients)
            c[:, m.domain.cells.index((1, 1))] *= scale
            gap = form_residual(AlgebraMap(m.domain, c), JordanForm(Orientation.INNER, np.eye(2, dtype=complex)))
            assert (gap <= VERIFY_REL) is accepted
            if accepted:
                assert recover_form(AlgebraMap(m.domain, c)).orientation is Orientation.INNER
            else:
                with pytest.raises(NotJordanEmbedding, match=GAP.format(r"\(1, 1\)")):
                    recover_form(AlgebraMap(m.domain, c))

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
            gap = frobenius(apply(m, x) - rec.t @ x.T @ inverse(rec.t))
            assert gap <= 1e-7 * max(1.0, frobenius(x))


def degenerate_map(parts, kind: str, rng) -> AlgebraMap:
    """A map that recovery must reject without a numpy warning."""
    alg = block_algebra(parts)
    if kind == "projection":
        return algebra_map_from_function(alg, lambda x: block_projection(alg, x))
    c = np.array(build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity(parts, rng))).coefficients)
    if kind == "zero":
        c[:] = 0.0
    elif kind == "nan":  # where there is one, in a unit that only the certification reads
        unread = [k for k, (i, j) in enumerate(alg.cells) if 0 < i != j]
        c[0, (unread or [0])[-1]] = np.nan
    elif kind == "huge":
        c *= 1e300
    else:  # phi(E_01) = 0: the first-row rescaling divides by zero
        c[:, alg.cells.index((0, 1))] = 0.0
    return AlgebraMap(alg, c)


DEGENERATE = [
    (parts, kind)
    for parts in [(1,), (2,), (1, 2), (4, 4, 4, 4)]
    for kind in ["zero", "nan", "huge", "projection", "e01_zero"]
    # block_projection is the identity on one block, and n = 1 has no E_01
    if not (kind == "projection" and len(parts) == 1) and not (kind == "e01_zero" and parts == (1,))
]


class TestDegenerateRecovery:
    @pytest.mark.parametrize("parts, kind", DEGENERATE, ids=[f"{kind}-{parts}" for parts, kind in DEGENERATE])
    def test_rejected_without_warning(self, rng, tmp_path, capsys, parts, kind):
        m = degenerate_map(parts, kind, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotJordanEmbedding):
                recover_form(m)
            if kind == "nan":
                return  # JSON has no NaN: such a document exits 2 at the document boundary
            path = tmp_path / "map.json"
            path.write_text(canonical_json(map_to_document(m)), encoding="utf-8")
            assert main(["recover", str(path)]) == 4
        assert "not a Jordan embedding" in capsys.readouterr().err


class TestAgreementWithIsJordan:
    def test_recovery_rejects_no_map_is_jordan_accepts(self):
        # 150 maps: Jordan maps with cond(T) up to 1e4 and relative noise up to
        # 1e-2; every map is_jordan accepts, recovery must accept as well
        compositions = [(1, 2), (2, 1), (1, 1, 1), (2, 3, 3), (4, 4, 4, 4)]
        corpus = list(agreement_corpus(compositions, [1.0, 1e2, 1e4], [0.0, 1e-12, 1e-9, 1e-6, 1e-2]))
        assert len(corpus) == 150
        accepted = 0
        for label, m in corpus:
            if is_jordan(m).ok:
                accepted += 1
                try:
                    recover_form(m)
                except NotJordanEmbedding as exc:
                    pytest.fail(f"{label}: is_jordan accepts, recovery rejects: {exc}")
        assert accepted >= 50  # the slice exercises the accepting side of both deciders


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
