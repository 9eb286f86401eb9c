"""Block algebras: masks, flip, embeddability, random sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktri import (
    Embedding,
    JordanIsoClass,
    MismatchedDimension,
    NotFinite,
    block_algebra,
    embeds,
    flip,
    flip_algebra,
    jordan_iso_class,
    matrix_poly,
    matrix_units,
    membership,
    parse_composition,
    project,
    random_element,
)
from blocktri import algebra as algebra_module
from blocktri.algebra import BlockAlgebra, random_commuting_pairs, random_elements
from blocktri.linalg import frobenius

from conftest import (
    all_compositions,
    gaussian,
    reference_commuting_pair,
    reference_element,
    reference_poly,
    same_bits,
)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class TestConstruction:
    def test_parse(self):
        assert parse_composition("1,2") == (1, 2)
        assert parse_composition("4") == (4,)
        with pytest.raises(ValueError):
            parse_composition("1,0,2")
        with pytest.raises(ValueError):
            parse_composition("a,b")
        # a tuple and its text name one algebra: equal hashes, one dict entry
        assert hash(block_algebra((1, 2))) == hash(block_algebra("1,2"))
        assert {block_algebra((1, 2)): "found"}[block_algebra("1,2")] == "found"

    # int() alone would read each of these as a composition
    @pytest.mark.parametrize(
        "text", ["1_0", "+1,2", " 2,1", "2,1\n", "\u0661,2", "2, 1", "1,,2", "", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_parse_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="malformed composition"):
            parse_composition(text)
        with pytest.raises(ValueError, match="malformed composition"):
            block_algebra(text)

    @pytest.mark.parametrize("text", ["1,0,2", "0", "00,1"])
    def test_parse_zero_part_is_not_positive(self, text):
        with pytest.raises(ValueError, match="must be positive"):
            parse_composition(text)

    @pytest.mark.parametrize("text", ["17", "1000000", "8,9", "1," * 16 + "1"])
    def test_parse_caps_n_at_16(self, text):
        with pytest.raises(ValueError, match="exceeds n = 16"):
            parse_composition(text)
        with pytest.raises(ValueError, match="exceeds n = 16"):
            block_algebra(text)

    def test_parse_accepts_n_16(self):
        assert parse_composition("16") == (16,)
        assert parse_composition("1," * 15 + "1") == (1,) * 16
        assert block_algebra((17,)).n == 17  # tuples are not text

    @pytest.mark.parametrize("parts", [(1.5, 2), (True, 2), (np.True_, 2), (2.0, 1), ("1", 2)], ids=repr)
    def test_tuple_parts_must_be_integers(self, parts):
        # int() would truncate 1.5 and read True as 1
        with pytest.raises(ValueError, match=r"composition part .* is not an integer"):
            block_algebra(parts)

    def test_tuple_parts_may_be_numpy_integers(self):
        parts = block_algebra((np.int64(2), np.int32(1))).parts
        assert parts == (2, 1) and all(type(k) is int for k in parts)
        with pytest.raises(ValueError, match="must be positive"):
            block_algebra((np.int64(0), 1))

    def test_support_matches_cutpoint_rule(self):
        # validate the mask against the cutpoint characterization
        for n in range(1, 7):
            for parts in all_compositions(n):
                alg = block_algebra(parts)
                cuts = np.cumsum((0,) + parts)
                for i in range(n):
                    for j in range(n):
                        bi = int(np.searchsorted(cuts, i, side="right")) - 1
                        bj = int(np.searchsorted(cuts, j, side="right")) - 1
                        assert alg.support[i, j] == (bi <= bj)

    def test_contains_upper_triangle(self):
        for parts in all_compositions(5):
            alg = block_algebra(parts)
            assert np.all(alg.support[np.triu_indices(5)])

    def test_dimension_formula(self):
        for n in range(1, 7):
            for parts in all_compositions(n):
                alg = block_algebra(parts)
                expected = sum(
                    parts[i] * parts[j]
                    for i in range(len(parts))
                    for j in range(i, len(parts))
                )
                assert alg.dim == expected
                assert len(matrix_units(alg)) == expected

    def test_cells_row_major(self):
        alg = block_algebra((1, 1))
        assert alg.cells == ((0, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize("parts", [(1,), (1, 2), (2, 3, 3), (4, 4, 4, 4), (16,), (1,) * 16])
    def test_cells_are_plain_ints(self, parts):
        alg = block_algebra(parts)
        rows, cols = np.nonzero(alg.support)
        assert alg.cells == tuple((int(i), int(j)) for i, j in zip(rows, cols))
        assert all(type(i) is int and type(j) is int for i, j in alg.cells)

    def test_mask_partition(self):
        # dim(A) plus the strictly-lower complement of the flipped algebra
        # partitions the n^2 grid
        for n in range(1, 7):
            for parts in all_compositions(n):
                alg = block_algebra(parts)
                flipped = flip_algebra(alg)
                complement = int(np.sum(~flipped.support))
                assert alg.dim + complement == n * n


class TestMembershipProjection:
    def test_strictly_lower_cell(self):
        t3 = block_algebra((1, 1, 1))
        assert not membership(t3, unit(3, 1, 0), tol=0.0)

    def test_first_block_cell(self):
        # (1, 0) sits inside the leading 2x2 diagonal block of (2, 1)
        a21 = block_algebra((2, 1))
        assert membership(a21, unit(3, 1, 0), tol=0.0)

    def test_random_supported(self, rng):
        alg = block_algebra((2, 1, 2))
        for _ in range(5):
            assert membership(alg, random_element(alg, rng), tol=0.0)

    def test_tolerance(self):
        t2 = block_algebra((1, 1))
        noisy = unit(2, 0, 1)
        noisy[1, 0] = 1e-12
        assert not membership(t2, noisy, tol=0.0)
        assert membership(t2, noisy, tol=1e-10)
        # no off-support cell to violate any tol, even a negative one
        assert membership(block_algebra((3,)), unit(3, 1, 0), tol=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchedDimension):
            membership(block_algebra((1, 1)), np.eye(3))
        with pytest.raises(MismatchedDimension, match=r"^expected 3 x 3, got \(2, 2\)$"):
            project(block_algebra((1, 2)), np.eye(2))

    def test_project_reversal_matrix(self):
        # the upper part of the reversal permutation survives: its (0, n-1)
        # entry always, plus the central entry when n is odd
        t2 = block_algebra((1, 1))
        j2 = np.eye(2, dtype=complex)[::-1]
        assert np.array_equal(project(t2, j2), unit(2, 0, 1))
        t3 = block_algebra((1, 1, 1))
        j3 = np.eye(3, dtype=complex)[::-1]
        assert np.array_equal(project(t3, j3), unit(3, 0, 2) + unit(3, 1, 1))

    def test_project_full_algebra_is_identity(self, rng):
        mn = block_algebra((4,))
        a = gaussian(rng, 4)
        assert np.array_equal(project(mn, a), a)

    def test_project_then_membership(self, rng):
        alg = block_algebra((2, 2))
        assert membership(alg, project(alg, gaussian(rng, 4)), tol=0.0)


class TestFlip:
    def test_unit_rule(self):
        n = 4
        for i in range(n):
            for j in range(n):
                assert np.array_equal(flip(unit(n, i, j)), unit(n, n - 1 - j, n - 1 - i))

    def test_flip_equals_j_conjugation(self, rng):
        x = gaussian(rng, 5)
        j = np.eye(5, dtype=complex)[::-1]
        assert np.array_equal(flip(x), j @ x.T @ j)

    def test_involution_bit_exact(self, rng):
        x = gaussian(rng, 6)
        assert np.array_equal(flip(flip(x)), x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_involution_property(self, n, seed):
        x = gaussian(np.random.default_rng(seed), n)
        assert np.array_equal(flip(flip(x)), x)

    def test_antimultiplicative_exact_arithmetic(self, rng):
        # integer-valued entries keep the products exact, so the index
        # identity flip(XY) = flip(Y) flip(X) is bit-exact
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = (rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))).astype(
                np.complex128
            )
            y = (rng.integers(-8, 9, (n, n)) + 1j * rng.integers(-8, 9, (n, n))).astype(
                np.complex128
            )
            assert np.array_equal(flip(x @ y), flip(y) @ flip(x))

    def test_antimultiplicative_float(self, rng):
        x, y = gaussian(rng, 6), gaussian(rng, 6)
        gap = frobenius(flip(x @ y) - flip(y) @ flip(x))
        assert gap <= 1e-13 * frobenius(x) * frobenius(y)

    def test_nonsquare_rejected(self, rng):
        with pytest.raises(MismatchedDimension):
            flip(gaussian(rng, 2, 3))


class TestFlipAlgebra:
    def test_reverses_parts(self):
        assert flip_algebra(block_algebra((1, 2))).parts == (2, 1)
        assert flip_algebra(block_algebra((1, 1, 1))).parts == (1, 1, 1)

    def test_units_land_in_flipped_algebra(self):
        for n in range(1, 7):
            for parts in all_compositions(n):
                alg = block_algebra(parts)
                flipped = flip_algebra(alg)
                for e in matrix_units(alg):
                    assert membership(flipped, flip(e), tol=0.0)


class TestEmbeds:
    def test_frozen_examples(self):
        assert embeds((1, 2), (1, 2)) is Embedding.INNER_ONLY
        assert embeds((2, 1), (1, 2)) is Embedding.ANTI_ONLY
        assert embeds((1, 1, 1), (3,)) is Embedding.BOTH
        assert embeds((1, 1, 1), (2, 1)) is Embedding.BOTH
        assert embeds((3,), (1, 2)) is Embedding.NONE

    def test_full_algebra_absorbs_everything(self):
        for parts in all_compositions(4):
            assert embeds(parts, (4,)) in (Embedding.BOTH,)

    def test_triangular_embeds_everywhere_both_ways(self):
        for n in range(2, 7):
            for parts in all_compositions(n):
                assert embeds((1,) * n, parts) is Embedding.BOTH

    def test_inner_iff_all_units_member(self):
        for n in range(1, 6):
            comps = all_compositions(n)
            for pa in comps:
                for pb in comps:
                    a, b = block_algebra(pa), block_algebra(pb)
                    inner = all(
                        membership(b, e, tol=0.0) for e in matrix_units(a)
                    )
                    verdict = embeds(a, b)
                    assert inner == (
                        verdict in (Embedding.INNER_ONLY, Embedding.BOTH)
                    )

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchedDimension):
            embeds((1, 2), (2, 1, 1))
        with pytest.raises(MismatchedDimension, match="^compositions of different sizes: 3 vs 4$"):
            jordan_iso_class((1, 2), (2, 2))


class TestJordanIsoClass:
    def test_frozen_examples(self):
        assert jordan_iso_class((1, 2), (2, 1)) is JordanIsoClass.ANTI_ISOMORPHIC
        assert jordan_iso_class((1, 1, 1), (1, 1, 1)) is JordanIsoClass.BOTH_WAYS
        assert jordan_iso_class((1, 2), (3,)) is JordanIsoClass.NOT_JORDAN_ISOMORPHIC
        assert jordan_iso_class((1, 2), (1, 2)) is JordanIsoClass.ISOMORPHIC

    def test_consistent_with_embeds(self):
        # Jordan-isomorphic iff mutual embeddings exist with matching orientation
        for n in range(1, 7):
            comps = all_compositions(n)
            for pa in comps:
                for pb in comps:
                    iso = jordan_iso_class(pa, pb)
                    inner_both = pa == pb
                    anti_both = pa == pb[::-1]
                    expected = {
                        (True, True): JordanIsoClass.BOTH_WAYS,
                        (True, False): JordanIsoClass.ISOMORPHIC,
                        (False, True): JordanIsoClass.ANTI_ISOMORPHIC,
                        (False, False): JordanIsoClass.NOT_JORDAN_ISOMORPHIC,
                    }[(inner_both, anti_both)]
                    assert iso is expected

    def test_builds_each_algebra_once(self, monkeypatch):
        built = []
        real = algebra_module.block_algebra

        def counting(spec):
            if not isinstance(spec, BlockAlgebra):
                built.append(spec)
            return real(spec)

        monkeypatch.setattr(algebra_module, "block_algebra", counting)
        assert jordan_iso_class((1, 2), (2, 1)) is JordanIsoClass.ANTI_ISOMORPHIC
        assert built == [(1, 2), (2, 1)]


class TestRandomSampling:
    def test_membership_and_determinism(self):
        alg = block_algebra((2, 1))
        a = random_element(alg, 123)
        b = random_element(alg, 123)
        assert np.array_equal(a, b)
        assert same_bits(a, reference_element(alg, np.random.default_rng(123)))
        (p,), (q,) = random_commuting_pairs(alg, 123, 1)
        p_ref, q_ref = reference_commuting_pair(alg, np.random.default_rng(123))
        assert same_bits(p, p_ref) and same_bits(q, q_ref)
        assert membership(alg, a, tol=0.0)
        assert not np.array_equal(a, random_element(alg, 124))

    def test_entry_magnitude_monte_carlo(self):
        # standard complex Gaussian has E|z| = sqrt(pi)/2
        alg = block_algebra((2, 2))
        rng = np.random.default_rng(5)
        draws = -(-10_000 // alg.dim)
        samples = np.concatenate(
            [np.abs(alg.coords(random_element(alg, rng))) for _ in range(draws)]
        )[:10_000]
        assert samples.size == 10_000
        expected = np.sqrt(np.pi) / 2.0
        assert abs(np.mean(samples) - expected) <= 0.05 * expected

    def test_commuting_pair(self):
        alg = block_algebra((1, 2, 1))
        for seed in range(8):
            (p,), (q,) = random_commuting_pairs(alg, seed, 1)
            assert membership(alg, p, tol=0.0)
            assert membership(alg, q, tol=0.0)
            comm = frobenius(p @ q - q @ p)
            assert comm <= 1e-10 * max(1.0, frobenius(p) * frobenius(q))

    def test_matrix_poly_trivials(self, rng):
        alg = block_algebra((1, 2))
        x = random_element(alg, rng)
        assert np.array_equal(matrix_poly(x, [0.0, 1.0]), x)
        assert np.array_equal(matrix_poly(x, [1.0]), np.eye(3))

    @pytest.mark.parametrize("parts", [(1,), (2, 3, 3), (4, 4, 4, 4), (16,)])
    @pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 100])
    @pytest.mark.parametrize("calls", [1, 2, 3])
    def test_chunked_draws_match_one_at_a_time(self, parts, k, calls):
        """k draws split over ``calls`` chunks equal k one-probe draws bit for
        bit and leave the generator where they leave it."""
        alg = block_algebra(parts)
        sizes = [k // calls] * (calls - 1) + [k - (calls - 1) * (k // calls)]
        seed = 1000 * k + calls

        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.zeros((k, alg.n, alg.n), dtype=np.complex128)
        for i in range(k):
            want[i] = reference_element(alg, ref_rng)
        got = np.concatenate([random_elements(alg, rng, size) for size in sizes])
        assert same_bits(got, want)
        assert ref_rng.standard_normal() == rng.standard_normal()

        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.zeros((2, k, alg.n, alg.n), dtype=np.complex128)
        for i in range(k):
            want[:, i] = reference_commuting_pair(alg, ref_rng)
        drawn = [random_commuting_pairs(alg, rng, size) for size in sizes]
        assert same_bits(np.concatenate([p for p, _ in drawn]), want[0])
        assert same_bits(np.concatenate([q for _, q in drawn]), want[1])
        assert ref_rng.standard_normal() == rng.standard_normal()


class TestStackedMatrixPoly:
    @pytest.mark.parametrize("n, deg", [(1, 1), (3, 3), (8, 8), (16, 16), (4, 9)])
    def test_rows_match_2d_evaluation(self, rng, n, deg):
        k = 7
        xs = np.stack([gaussian(rng, n) for _ in range(k)])
        coeffs = gaussian(rng, k, deg)
        got = matrix_poly(xs, coeffs)
        assert got.shape == (k, n, n)
        for x, c, row in zip(xs, coeffs, got):
            assert same_bits(row, matrix_poly(x, c))
            assert same_bits(row, reference_poly(x, c))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 1), (1, 1, 1), (2, 3, 3)])
    def test_signs_of_zeros_on_members(self, parts):
        # off-support entries are exact zeros; their signs match the c_j I form too
        alg = block_algebra(parts)
        xs = random_elements(alg, 7, 40)
        coeffs = gaussian(np.random.default_rng(8), 40, alg.n)
        for x, c, row in zip(xs, coeffs, matrix_poly(xs, coeffs)):
            assert same_bits(row, reference_poly(x, c))

    def test_empty_and_degree_zero(self, rng):
        xs = np.stack([gaussian(rng, 3) for _ in range(4)])
        assert same_bits(matrix_poly(xs, np.zeros((4, 0))), np.zeros((4, 3, 3), dtype=np.complex128))
        coeffs = gaussian(rng, 4, 1)
        got = matrix_poly(xs, coeffs)
        for c, row in zip(coeffs, got):
            assert same_bits(row, c[0] * np.eye(3, dtype=np.complex128))
        assert matrix_poly(np.zeros((0, 3, 3)), np.zeros((0, 2))).shape == (0, 3, 3)

    def test_validation(self, rng):
        xs = np.stack([gaussian(rng, 3) for _ in range(2)])
        coeffs = gaussian(rng, 2, 3)
        bad = xs.copy()
        bad[1, 0, 2] = np.nan
        for x, c in ((bad, coeffs), (bad[1], coeffs[1])):
            with pytest.raises(NotFinite):
                matrix_poly(x, c)
        for x, c in ((xs[:, :, :2], coeffs), (xs[0, :, :2], coeffs[0]), (xs, coeffs[:1]), (xs[0, 0], coeffs[0])):
            with pytest.raises(MismatchedDimension):
                matrix_poly(x, c)
