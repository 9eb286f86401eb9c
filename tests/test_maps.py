"""Map representation, Jordan checking, and similarity recovery."""

import json
import warnings

import numpy as np
import pytest

from blocktri import (
    AlgebraMap,
    IdempotentForm,
    InAlgebraDiagonalization,
    JordanForm,
    MismatchedDimension,
    NotJordanEmbedding,
    Orientation,
    SchurForm,
    Singular,
    WrongAlgebra,
    algebra_map_from_function,
    apply,
    block_algebra,
    block_projection,
    build_form_map,
    form_residual,
    full_report,
    inverse,
    is_jordan,
    random_element,
    recover_form,
    spectral_norm,
)
from blocktri import maps
from blocktri.cli import main
from blocktri.documents import canonical_json, map_to_document
from blocktri.linalg import frobenius
from blocktri.maps import PROBE_CHUNK, VERIFY_REL

from conftest import agreement_corpus, bounded_similarity, gaussian, jordan_map, reference_verdict, same_bits

GAP = r"image of unit {} misses the recovered form: relative gap \S+ > 1e-07"
ZERO = r"image of unit {} is zero"
SINGULAR_S = "assembled similarity is not invertible: pivot 0.000e+00 below threshold at column 1"


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
            assert np.array_equal(m.unit_images()[idx], unit(3, i, j))

    def test_diagonal_conjugation_scales_cells(self):
        alg = block_algebra((1, 1))
        m = build_form_map(alg, JordanForm(Orientation.INNER, np.diag([1.0, 2.0]).astype(complex)))
        idx = alg.cells.index((0, 1))
        assert np.allclose(m.unit_images()[idx], 0.5 * unit(2, 0, 1), rtol=0, atol=1e-15)

    def test_plain_transpose(self):
        alg = block_algebra((3,))
        m = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, np.eye(3, dtype=complex)))
        idx = alg.cells.index((0, 1))
        assert np.array_equal(m.unit_images()[idx], unit(3, 1, 0))

    def test_singular_similarity_rejected(self):
        alg = block_algebra((1, 1))
        with pytest.raises(Singular):
            build_form_map(alg, JordanForm(Orientation.INNER, np.zeros((2, 2))))
        with pytest.raises(MismatchedDimension, match="^similarity size does not match the algebra$"):
            build_form_map((1, 2), JordanForm(Orientation.INNER, np.eye(2)))


class TestAlgebraMapShape:
    @pytest.mark.parametrize("shape", [(9, 4), (9, 8), (7, 9), (3, 7), (63,), (9, 7, 1), (0, 7)])
    def test_wrong_shape_rejected(self, shape):
        # (1,2) has n = 3 and dim 7: the coefficients must be 9 x 7
        with pytest.raises(MismatchedDimension, match=r"expected \(9, 7\)"):
            AlgebraMap(block_algebra((1, 2)), np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_real_coefficients_stored_as_complex(self, tmp_path, dtype):
        # the identity map's coefficients are 0 and 1, exact in every dtype
        exact = identity_map((2, 1))
        m = AlgebraMap(exact.domain, exact.coefficients.real.astype(dtype))
        assert m.coefficients.dtype == np.complex128 and same_bits(m.coefficients, exact.coefficients)
        assert is_jordan(m) == is_jordan(exact)
        assert full_report(m) == full_report(exact)
        text = canonical_json(map_to_document(m))
        assert text == canonical_json(map_to_document(exact))
        path = tmp_path / "map.json"
        path.write_text(text, encoding="utf-8")
        assert main(["recover", str(path)]) == 0


# Each builds a fresh record around fresh arrays, equal from call to call.
ARRAY_RECORDS = {
    "JordanForm": lambda: JordanForm(Orientation.INNER, np.eye(2, dtype=complex)),
    "AlgebraMap": lambda: identity_map((1, 1)),
    "InAlgebraDiagonalization": lambda: InAlgebraDiagonalization(block_algebra((1, 1)), np.eye(2), np.ones(2)),
    "SchurForm": lambda: SchurForm(np.eye(2), np.eye(2)),
    "IdempotentForm": lambda: IdempotentForm(np.eye(2), 0),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_records_holding_arrays_compare_by_identity(build):
    # fieldwise equality would ask numpy for the truth value of an array
    # comparison and raise, and fieldwise hashing would hash an ndarray
    record, twin = build(), build()
    assert record == record
    assert record != twin
    assert len({record, twin, record}) == 2


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
                assert check.ok, (parts, orientation, check.worst)

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
        assert check.worst > 1e-8

    def test_random_linear_maps_fail(self, rng):
        alg = block_algebra((1, 2))
        for _ in range(10):
            coeffs = gaussian(rng, alg.n**2, alg.dim)
            assert not is_jordan(AlgebraMap(alg, coeffs), samples=4, seed=0).ok

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("parts", [(4, 4, 4, 4), (1,) * 16], ids=["4x4", "1x16"])
    def test_one_entry_of_one_unit_image(self, parts, seed):
        # the exhaustive unit pairs see an error confined to one entry of one unit
        # image in full; the 40 random squares alone accept every such map
        orientation = [Orientation.INNER, Orientation.ANTI_TRANSPOSE][seed % 2]
        rng = np.random.default_rng([seed, 7])
        m = jordan_map(parts, rng, 1.0, orientation)
        n, c = m.domain.n, np.array(m.coefficients)
        r = rng.integers(m.domain.dim)
        a, b = rng.integers(n, size=2)
        c[a * n + b, r] += 5e-8 * np.linalg.norm(c[:, r])
        check = is_jordan(AlgebraMap(m.domain, c))
        assert not check.ok
        assert check.worst >= 4e-8

    def test_unit_pairs_alone_decide(self, rng):
        # samples=0 checks the unit-pair identities alone, which decide a linear map
        alg = block_algebra((1, 2))
        form = JordanForm(Orientation.INNER, bounded_similarity(alg.parts, rng))
        assert is_jordan(build_form_map(alg, form), samples=0).ok
        for _ in range(10):
            assert not is_jordan(AlgebraMap(alg, gaussian(rng, alg.n**2, alg.dim)), samples=0).ok


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
            pytest.param({(0, 3): "zero"}, ZERO.format(r"\(0, 3\)"), id=r"edits0-unit \(0, 3\) vanishes"),
            pytest.param({(2, 4): "spread"}, GAP.format(r"\(2, 4\)"), id=r"edits1-unit \(2, 4\) is not cell-concentrated"),
            pytest.param(
                {(0, 3): "spread", (1, 2): "zero"},
                GAP.format(r"\(0, 3\)"),
                id=r"edits2-unit \(0, 3\) is not cell-concentrated",
            ),
            pytest.param(
                {(0, 3): "zero", (1, 2): "spread"}, ZERO.format(r"\(0, 3\)"), id=r"edits3-unit \(0, 3\) vanishes"
            ),
            pytest.param({(1, 2): "faint"}, GAP.format(r"\(1, 2\)"), id=r"edits4-unit \(1, 2\) vanishes"),
            pytest.param({(3, 5): "anti"}, GAP.format(r"\(3, 5\)"), id="edits5-mixed orientations"),
            pytest.param({(4, 4): "spread"}, GAP.format(r"\(4, 4\)"), id="edits6-diagonal unit 4 is not rank one"),
            pytest.param(
                {(5, 5): "double", (2, 2): "zero"},
                ZERO.format(r"\(2, 2\)"),
                id="edits7-diagonal unit 2 is not rank one",
            ),
            pytest.param(
                {(2, 2): "double", (5, 5): "zero"},
                ZERO.format(r"\(5, 5\)"),
                id="edits8-diagonal unit 2 is not idempotent",
            ),
        ],
    )
    def test_first_failing_unit_named(self, rng, edits, message):
        # unit images edited in cell order: the first unit that misses the
        # recovered form is named, or the first zero image that recovery reads
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

    @pytest.mark.parametrize("orientation", list(Orientation), ids=lambda o: o.value)
    @pytest.mark.parametrize("cell", [(2, 2), (0, 3)], ids=["diagonal", "first-row"])
    def test_zero_image_named(self, rng, tmp_path, capsys, orientation, cell):
        # a zero image among those recovery reads is named, not reported as a singular S or T
        alg = block_algebra((2, 3, 3))
        c = np.array(build_form_map(alg, JordanForm(orientation, bounded_similarity(alg.parts, rng))).coefficients)
        c[:, alg.cells.index(cell)] = 0.0
        path = tmp_path / "map.json"
        path.write_text(canonical_json(map_to_document(AlgebraMap(alg, c))), encoding="utf-8")
        assert main(["recover", str(path)]) == 4
        assert capsys.readouterr().err == f"recover: not a Jordan embedding: image of unit {cell} is zero\n"

    @pytest.mark.parametrize(
        "parts, cell, image, message",
        [
            *((parts, (1, 1), (0, 0), SINGULAR_S) for parts in [(1, 2), (3,), (2, 3, 3)]),
            ((3,), (0, 1), (1, 0), "recovered similarity is not invertible: pivot 0.000e+00 below threshold at column 2"),
            ((3,), (0, 2), (0, 0), "recovered similarity is not invertible: matrix contains NaN or infinite entries"),
        ],
        ids=["S-(1, 2)", "S-(3,)", "S-(2, 3, 3)", "T-pivot", "T-not-finite"],
    )
    def test_singular_similarity_named(self, tmp_path, capsys, parts, cell, image, message):
        # a nonzero unit image among those recovery reads can still leave S or T
        # singular: the identity map with phi(cell) replaced by the unit ``image``
        m = identity_map(parts)
        c = np.array(m.coefficients)
        c[:, m.domain.cells.index(cell)] = unit(m.domain.n, *image).reshape(-1)
        path = tmp_path / "map.json"
        path.write_text(canonical_json(map_to_document(AlgebraMap(m.domain, c))), encoding="utf-8")
        assert main(["recover", str(path)]) == 4
        assert capsys.readouterr().err == f"recover: not a Jordan embedding: {message}\n"

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


def spoiled_map(parts, orientation, cells, size, rng) -> AlgebraMap:
    """A form map whose unit images at ``cells`` carry Gaussian noise of
    relative Frobenius norm ``size``."""
    alg = block_algebra(parts)
    c = np.array(build_form_map(alg, JordanForm(orientation, bounded_similarity(parts, rng))).coefficients)
    for k in cells:
        g = gaussian(rng, alg.n**2, 1)[:, 0]
        c[:, k] += size * np.linalg.norm(c[:, k]) / np.linalg.norm(g) * g
    return AlgebraMap(alg, c)


def spoiled_cells(d: int) -> list[tuple[int, ...]]:
    """Cell 0, the last cell of the first chunk, the first cell after it and
    the last cell, one at a time, then both cells at the chunk edge."""
    single = sorted({k for k in (0, PROBE_CHUNK - 1, PROBE_CHUNK, d - 1) if k < d})
    return [(k,) for k in single] + ([(PROBE_CHUNK - 1, PROBE_CHUNK)] if PROBE_CHUNK < d else [])


# (3, 2, 2) has d = PROBE_CHUNK + 1: its one unit past the chunk joins the chunk
STREAMED = [
    (parts, orientation, cells, size)
    for parts in [(1,), (1, 2), (2, 3, 3), (3, 2, 2), (4, 4, 4, 4), (16,), (1,) * 16]
    for orientation in Orientation
    for cells in spoiled_cells(block_algebra(parts).dim)
    for size in (1e-3, 1e-9)  # a miss, and a gap under VERIFY_REL that becomes the residual
]


class TestStreamedCertification:
    """Certifying the first PROBE_CHUNK units alone, then the rest, decides
    and reports exactly as the full pass of ``reference_verdict``."""

    @pytest.mark.parametrize(
        "parts, orientation, cells, size",
        STREAMED,
        ids=[f"{len(p)}parts-{p[0]}-{o.value}-{c}-{s:g}" for p, o, c, s in STREAMED],
    )
    def test_matches_full_pass(self, monkeypatch, parts, orientation, cells, size):
        m = spoiled_map(parts, orientation, cells, size, np.random.default_rng([sum(parts), len(parts), *cells]))
        used = []
        form_columns = maps._form_columns
        monkeypatch.setattr(maps, "_form_columns", lambda *args: used.append(args[1:3]) or form_columns(*args))
        outcomes = []
        for copy in (m, AlgebraMap(m.domain, np.asfortranarray(m.coefficients))):
            try:
                form, residual = maps._recover_certified(copy)
                outcomes.append((form.orientation, form.t.tobytes(), np.float64(residual).tobytes(), None))
            except NotJordanEmbedding as exc:
                outcomes.append((None, None, None, str(exc)))
        assert outcomes[0] == outcomes[1]
        orientation_used, t = used[0]
        expected_residual, expected_message = reference_verdict(m, JordanForm(orientation_used, t))
        assert outcomes[0][3] == expected_message
        if expected_message is None:
            assert outcomes[0][:3] == (orientation_used, t.tobytes(), np.float64(expected_residual).tobytes())
            assert same_bits(np.float64(form_residual(m, JordanForm(orientation_used, t))), np.float64(expected_residual))
        elif size == 1e-3 and all(0 < i != j for i, j in (m.domain.cells[k] for k in cells)):
            # a unit the recovery does not read leaves T in place: the miss is the spoiled one
            assert str(m.domain.cells[cells[0]]) in expected_message

    def test_rejection_at_cell_zero_builds_one_chunk(self, rng, monkeypatch):
        alg = block_algebra((16,))
        c = np.array(build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity(alg.parts, rng))).coefficients)
        c[:, 0] *= 1.001
        columns = []
        form_columns = maps._form_columns
        monkeypatch.setattr(maps, "_form_columns", lambda *args: columns.append(form_columns(*args).shape[1]) or form_columns(*args))
        with pytest.raises(NotJordanEmbedding, match=GAP.format(r"\(0, 0\)")):
            recover_form(AlgebraMap(alg, c))
        assert sum(columns) <= PROBE_CHUNK


class TestCoefficientLayout:
    @pytest.mark.parametrize("parts", [(1,), (2,), (1, 2), (4, 4, 4, 4)])
    def test_form_map_bits(self, rng, parts):
        # the products T E_ij T^-1 round as they did when built in one (n, n, d)
        # broadcast; at n = 1 numpy's complex product takes a loop of its own
        alg = block_algebra(parts)
        for orientation in Orientation:
            t = gaussian(rng, alg.n)
            rows, cols = (alg.cell_cols, alg.cell_rows) if orientation is Orientation.ANTI_TRANSPOSE else (alg.cell_rows, alg.cell_cols)
            expected = (t[:, None, rows] * inverse(t)[cols, :].T[None, :, :]).reshape(alg.n**2, alg.dim)
            assert same_bits(build_form_map(alg, JordanForm(orientation, t)).coefficients, np.ascontiguousarray(expected))

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_residuals_independent_of_layout(self, rng, tmp_path, capsys, orientation):
        alg = block_algebra((4, 4, 4, 4))
        built = build_form_map(alg, JordanForm(orientation, bounded_similarity(alg.parts, rng)))
        c = np.array(built.coefficients)
        copies = [built, AlgebraMap(alg, np.ascontiguousarray(c)), AlgebraMap(alg, np.asfortranarray(c))]
        assert all(m.coefficients.flags.c_contiguous for m in copies)
        recovered = [maps._recover_certified(m) for m in copies]
        residuals = {np.float64(r).tobytes() for _, r in recovered}
        residuals |= {np.float64(form_residual(m, form)).tobytes() for m, (form, _) in zip(copies, recovered)}
        path = tmp_path / "map.json"
        path.write_text(canonical_json(map_to_document(copies[2])), encoding="utf-8")
        assert main(["recover", str(path)]) == 0
        residuals.add(np.float64(json.loads(capsys.readouterr().out)["residual"]).tobytes())
        assert len(residuals) == 1


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
