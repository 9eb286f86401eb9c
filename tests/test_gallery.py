"""The four counterexample maps: satisfied and violated properties."""

import dataclasses
import warnings

import numpy as np
import pytest

from blocktri import (
    GALLERY,
    NotFinite,
    NotJordanEmbedding,
    algebra_map_from_function,
    block_algebra,
    block_projection,
    det_twist,
    eigen_swap,
    is_jordan,
    mobius_contraction,
    random_element,
    recover_form,
    run_gallery_suite,
    schur,
    spectral_norm,
)
from blocktri.algebra import random_commuting_pairs, random_elements
from blocktri.linalg import char_poly, frobenius
from blocktri.maps import PROBE_CHUNK

from conftest import gaussian, same_bits

HYPOTHESES = ("continuous", "injective", "commutativity_preserving", "spectrum_preserving")
MAPS = (mobius_contraction, det_twist, eigen_swap, block_projection)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class TestMobiusContraction:
    def test_value_at_zero(self):
        alg = block_algebra((1, 2))
        got = mobius_contraction(alg, np.zeros((3, 3), dtype=complex))
        assert np.max(np.abs(got - np.eye(3) / 3.0)) <= 1e-12

    def test_scalar_value(self):
        # X = 4I: Z = (4/5)I and g(4/5) = -7/11
        alg = block_algebra((1, 2))
        got = mobius_contraction(alg, 4.0 * np.eye(3, dtype=complex))
        assert np.max(np.abs(got - (-7.0 / 11.0) * np.eye(3))) <= 1e-9

    def test_not_linear(self):
        alg = block_algebra((1, 2))
        zero_image = mobius_contraction(alg, np.zeros((3, 3), dtype=complex))
        assert frobenius(zero_image) > 0.5  # a linear map sends 0 to 0

    def test_commuting_pairs_map_to_commuting(self):
        alg = block_algebra((1, 2))
        for seed in range(10):
            (p,), (q,) = random_commuting_pairs(alg, seed, 1)
            fp = mobius_contraction(alg, p)
            fq = mobius_contraction(alg, q)
            res = frobenius(fp @ fq - fq @ fp)
            assert res <= 1e-9 * max(1.0, frobenius(fp) * frobenius(fq))

    def test_injective_on_samples(self, rng):
        # 200 random distinct pairs map to distinct outputs
        alg = block_algebra((1, 2))
        min_gap = np.inf
        for _ in range(200):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            if frobenius(a - b) <= 1e-9:
                continue
            min_gap = min(min_gap, frobenius(mobius_contraction(alg, a) - mobius_contraction(alg, b)))
        assert min_gap > 0.0

    def test_agrees_with_diagonalization_calculus(self, rng):
        # on diagonalizable samples the rational matrix expression matches
        # applying g to the eigenvalues
        alg = block_algebra((3,))
        a = gaussian(rng, 3)
        form = schur(a)
        # use a normal matrix so the eigenvector route is unitary
        herm = gaussian(rng, 3)
        herm = herm + np.conj(herm.T)
        sf = schur(herm)
        lams = np.diag(sf.upper)
        z = lams / (1.0 + spectral_norm(herm))
        g = (1.0 - 3.0 * z) / (3.0 - z)
        expected = sf.unitary @ np.diag(g) @ np.conj(sf.unitary.T)
        got = mobius_contraction(alg, herm)
        assert frobenius(got - expected) <= 1e-9 * max(1.0, frobenius(expected))


class TestDetTwist:
    def test_shear_image(self):
        # det(I + E_01) = 1, so the (0,1) cell is scaled by e
        alg = block_algebra((2, 1))
        x = np.eye(3, dtype=complex) + unit(3, 0, 1)
        expected = np.eye(3, dtype=complex) + np.e * unit(3, 0, 1)
        assert np.max(np.abs(det_twist(alg, x) - expected)) <= 1e-10

    def test_fixes_diagonals(self, rng):
        alg = block_algebra((2, 1))
        d = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert np.array_equal(det_twist(alg, d), d)

    def test_not_linear(self):
        alg = block_algebra((2, 1))
        x = np.eye(3, dtype=complex) + unit(3, 0, 1)
        lhs = det_twist(alg, x)
        rhs = det_twist(alg, np.eye(3, dtype=complex)) + det_twist(alg, unit(3, 0, 1))
        assert frobenius(lhs - rhs) > 1.0

    def test_commutator_witness(self):
        # A = E_01 + E_10 and B = A + 2I commute; their images have
        # commutator (e^-6 - e^6)(E_00 - E_11)
        alg = block_algebra((2, 1))
        a = unit(3, 0, 1) + unit(3, 1, 0)
        b = a + 2.0 * np.eye(3)
        assert frobenius(a @ b - b @ a) == 0.0
        fa, fb = det_twist(alg, a), det_twist(alg, b)
        comm = fa @ fb - fb @ fa
        expected = (np.exp(-6.0) - np.exp(6.0)) * (unit(3, 0, 0) - unit(3, 1, 1))
        assert frobenius(comm - expected) <= 1e-6 * frobenius(expected)

    def test_char_poly_preserved(self, rng):
        alg = block_algebra((2, 1))
        for _ in range(30):
            x = random_element(alg, rng)
            diff = np.abs(char_poly(det_twist(alg, x)) - char_poly(x))
            assert np.max(diff) <= 1e-8 * max(1.0, frobenius(x) ** 3)

    @pytest.mark.parametrize("scale", [10.0, -10.0, 1e200, -1e200])
    def test_out_of_range_twist_raises(self, scale):
        # det(10 I) = 1000: e^1000 overflows and e^-1000 underflows to 0;
        # det(1e200 I) overflows in the char-poly recursion itself
        alg = block_algebra((2, 1))
        reason = "is out of range" if abs(scale) < 1e100 else "is not finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite, match=f"^det_twist: .*det X = .* {reason}$"):
                det_twist(alg, scale * np.eye(3, dtype=complex))

    def test_stack_names_first_failing_matrix(self):
        alg, eye = block_algebra((2, 1)), np.eye(3, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite, match=r"^det_twist: matrix 1 of the stack: e\^\(det X\) .* out of range$"):
                det_twist(alg, np.stack([eye, 10 * eye, 1e200 * eye]))
            with pytest.raises(NotFinite, match=r"^det_twist: matrix 2 of the stack: det X = .* is not finite$"):
                det_twist(alg, np.stack([eye, -eye, -1e200 * eye, 10 * eye]).reshape(2, 2, 3, 3))


class TestEigenSwap:
    def test_swaps_distinct_diagonal(self):
        alg = block_algebra((1, 1, 1))
        got = eigen_swap(alg, np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert np.array_equal(got, np.diag([2.0, 1.0, 3.0]))

    def test_fixes_repeated_diagonal(self):
        alg = block_algebra((1, 1, 1))
        x = np.diag([1.0, 1.0, 3.0]).astype(complex)
        assert np.array_equal(eigen_swap(alg, x), x)

    def test_fixes_non_diagonal(self, rng):
        alg = block_algebra((1, 1, 1))
        x = np.diag([1.0, 2.0, 3.0]).astype(complex) + 1e-300 * unit(3, 0, 1)
        assert np.array_equal(eigen_swap(alg, x), x)

    def test_discontinuity_witness_sequence(self):
        # X_k = diag(1,2,3) + (1/k) E_01 is fixed by the map, so the images
        # converge to diag(1,2,3); the image of the limit is diag(2,1,3)
        alg = block_algebra((1, 1, 1))
        limit = np.diag([1.0, 2.0, 3.0]).astype(complex)
        for k in (1, 10, 100, 10_000, 10**8):
            xk = limit + (1.0 / k) * unit(3, 0, 1)
            assert np.array_equal(eigen_swap(alg, xk), xk)
        swapped = eigen_swap(alg, limit)
        assert np.array_equal(swapped, np.diag([2.0, 1.0, 3.0]))
        assert frobenius(swapped - limit) > 1.0

    def test_spectrum_exactly_preserved(self, rng):
        alg = block_algebra((1, 1, 1))
        d = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert np.allclose(
            np.sort_complex(np.diag(eigen_swap(alg, d))), np.sort_complex(np.diag(d))
        )


class TestBlockProjection:
    def test_cross_cell_killed(self):
        alg = block_algebra((1, 2))
        assert np.array_equal(block_projection(alg, unit(3, 0, 1)), np.zeros((3, 3)))
        assert np.array_equal(block_projection(alg, unit(3, 1, 2)), unit(3, 1, 2))

    def test_block_diagonal_fixed(self, rng):
        alg = block_algebra((1, 2))
        x = random_element(alg, rng)
        x[0, 1] = x[0, 2] = 0.0
        assert np.array_equal(block_projection(alg, x), x)

    def test_square_identity(self, rng):
        alg = block_algebra((1, 2))
        for _ in range(40):
            x = random_element(alg, rng)
            lhs = block_projection(alg, x @ x)
            rhs = block_projection(alg, x) @ block_projection(alg, x)
            assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(x) ** 2)

    def test_is_jordan_but_not_injective(self):
        alg = block_algebra((1, 2))
        m = algebra_map_from_function(alg, lambda x: block_projection(alg, x))
        assert is_jordan(m, samples=30, seed=0, tol=1e-9).ok
        # non-injectivity witness: E_01 and 0 share the image
        assert np.array_equal(
            block_projection(alg, unit(3, 0, 1)),
            block_projection(alg, np.zeros((3, 3), dtype=complex)),
        )

    def test_unital(self):
        alg = block_algebra((1, 2))
        assert np.array_equal(block_projection(alg, np.eye(3, dtype=complex)), np.eye(3))

    def test_recovery_rejects(self):
        alg = block_algebra((1, 2))
        m = algebra_map_from_function(alg, lambda x: block_projection(alg, x))
        with pytest.raises(NotJordanEmbedding):
            recover_form(m)


def reference_eigen_swap(x):
    """The set-theoretic rule on one matrix: swap the first two diagonal entries
    when x is exactly diagonal with exactly distinct diagonal entries."""
    n = x.shape[0]
    out = x.copy()
    if not np.any(x[~np.eye(n, dtype=bool)] != 0) and len(set(np.diag(x).tolist())) == n >= 2:
        out[0, 0], out[1, 1] = x[1, 1], x[0, 0]
    return out


class TestStackedMaps:
    """Each map on a (..., n, n) stack against one call per matrix, bit for bit."""

    @staticmethod
    def per_matrix(fn, xs):
        return np.stack([fn(x) for x in xs]) if len(xs) else np.zeros(xs.shape, dtype=np.complex128)

    @pytest.mark.parametrize("fn", MAPS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("parts", [(1,), (1, 2), (2, 1), (1, 1, 1), (2, 3, 3)])
    def test_random_stacks(self, rng, fn, parts):
        alg = block_algebra(parts)
        n = alg.n
        xs = random_elements(alg, rng, 12)
        want = self.per_matrix(lambda x: fn(alg, x), xs)
        assert same_bits(fn(alg, xs), want)
        assert same_bits(fn(alg, xs.reshape(3, 4, n, n)), want.reshape(3, 4, n, n))
        assert same_bits(fn(alg, xs[:0]), np.zeros((0, n, n), dtype=np.complex128))

    def test_eigen_swap_on_diagonal_members(self, rng):
        alg = block_algebra((1, 1, 1))
        diagonals = [[1, 2, 3], [1, 1, 3], [3, 2, 3], [0.0, -0.0, 1], [-0.0, 1, 2], [2, 0.0, -0.0], [1j, -1j, 0]]
        members = [np.diag(np.array(d, dtype=np.complex128)) for d in diagonals]
        members += [members[0] + 1e-300 * unit(3, 0, 1), members[4] + unit(3, 1, 2)]
        members += list(random_elements(alg, rng, 3))
        xs = np.stack([members[i] for i in rng.permutation(len(members))])
        want = self.per_matrix(reference_eigen_swap, xs)
        assert same_bits(self.per_matrix(lambda x: eigen_swap(alg, x), xs), want)
        assert same_bits(eigen_swap(alg, xs), want)
        assert np.count_nonzero(np.any(want != xs, axis=(1, 2))) == 3  # [1,2,3], [-0,1,2], [1j,-1j,0]


class TestGallerySuites:
    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_evaluator_called_once_per_chunk(self, monkeypatch, name):
        # a wrapped evaluator, as a tracer installs it, still gets whole probe stacks
        spec, calls = GALLERY[name], []

        def counted(x):
            calls.append(1)
            return spec.evaluator(x)

        monkeypatch.setitem(GALLERY, name, dataclasses.replace(spec, evaluator=counted))
        counts = []
        for budget in (100, 100 + 2 * PROBE_CHUNK):
            calls.clear()
            run_gallery_suite(name, budget=budget, seed=0)
            counts.append(len(calls))
        # 217-420 with one call per probe; a two-matrix witness is one call, and so is
        # materializing a linear map (block_projection) from its unit images
        assert counts[0] == {"mobius_contraction": 12, "det_twist": 7, "eigen_swap": 15, "block_projection": 16}[name]
        # two more chunks: at most one call per chunk for the char-poly probes
        # and two (one per side) for the commuting pairs
        assert counts[1] - counts[0] <= 2 * 3

    @pytest.mark.parametrize("name", list(GALLERY))
    def test_suite_runs(self, name):
        report = run_gallery_suite(name, budget=20, seed=5)
        assert report["name"] == name
        assert report["properties"]

    def test_expected_verdicts(self):
        props = run_gallery_suite("mobius_contraction", budget=25, seed=5)["properties"]
        assert not props["linear"]["holds"]
        assert not props["spectrum_preserving"]["holds"]
        assert props["commutativity_preserving"]["holds"]
        props = run_gallery_suite("det_twist", budget=25, seed=5)["properties"]
        assert props["spectrum_preserving"]["holds"]
        assert not props["commutativity_preserving"]["holds"]
        props = run_gallery_suite("eigen_swap", budget=25, seed=5)["properties"]
        assert props["spectrum_preserving"]["holds"]
        assert not props["continuous"]["holds"]
        props = run_gallery_suite("block_projection", budget=25, seed=5)["properties"]
        assert props["jordan"]["holds"]
        assert not props["injective"]["holds"]
        assert props["recovery_rejects"]["holds"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_gallery_suite("nope")

    def test_same_keys_on_every_row(self):
        keys = {name: set(run_gallery_suite(name, budget=5, seed=0)["properties"]) for name in GALLERY}
        assert all(k == keys["mobius_contraction"] for k in keys.values())
        assert keys["mobius_contraction"] == set(HYPOTHESES) | {"linear", "jordan", "recovery_rejects"}

    def test_eigen_swap_linearity_pair(self):
        # random probes are never exactly diagonal, so eigen_swap fixes them all;
        # only the diagonal linearity witness shows it is not linear
        props = run_gallery_suite("eigen_swap", budget=25, seed=5)["properties"]
        assert props["linear"]["holds"] is False
        assert props["jordan"]["holds"] is False
        assert props["recovery_rejects"]["holds"] is True

    @pytest.mark.parametrize("budget", [15, 100])
    @pytest.mark.parametrize("seed", range(4))
    def test_hypothesis_matrix(self, seed, budget):
        # each map breaks exactly its own hypothesis, and the conclusion fails
        for name, spec in GALLERY.items():
            props = run_gallery_suite(name, budget=budget, seed=seed)["properties"]
            assert spec.violated_property in HYPOTHESES
            for hypothesis in HYPOTHESES:
                assert props[hypothesis]["holds"] is (hypothesis != spec.violated_property), (name, hypothesis)
            assert props["jordan"]["holds"] is False or props["recovery_rejects"]["holds"] is True
