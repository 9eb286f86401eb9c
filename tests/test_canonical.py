"""Canonical forms: in-algebra diagonalization and idempotent normalization."""

import re

import numpy as np
import pytest

from blocktri import (
    ConstraintViolated,
    IllConditioned,
    NoConvergence,
    NotIdempotent,
    NotRankOne,
    NotTriangular,
    RepeatedEigenvalues,
    WrongAlgebra,
    block_algebra,
    diagonalize_in_algebra,
    inverse,
    membership,
    triangular_idempotent_form,
)
from blocktri.linalg import eigenvalues, frobenius

from conftest import (
    gaussian,
    make_member,
    match_multisets,
)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class TestDiagonalize:
    def test_already_diagonal(self):
        alg = block_algebra((1, 2))
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        res = diagonalize_in_algebra(alg, a)
        assert np.allclose(res.similarity, np.eye(3), rtol=0, atol=1e-12)
        assert np.array_equal(res.diagonal, np.array([1.0, 2.0, 3.0]))

    def test_two_by_two_shear(self):
        # [[1, c], [0, 2]]: the Sylvester step gives X = c/(2-1) = c
        c = 3.7 - 0.25j
        alg = block_algebra((1, 1))
        a = np.array([[1.0, c], [0.0, 2.0]], dtype=complex)
        res = diagonalize_in_algebra(alg, a)
        assert np.array_equal(res.similarity, np.array([[1.0, c], [0.0, 1.0]]))
        assert np.array_equal(res.diagonal, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("parts", [(1, 3), (3,), (1,) * 16, (4, 4, 4, 4), (16,)])
    def test_already_diagonal_exact(self, rng, parts):
        # pinning each eigenvector's peak to 1 turns LAPACK's unit vectors
        # into exactly the identity, whatever order the diagonal comes in
        n = sum(parts)
        d = rng.permutation(n) + 0.5j * rng.permutation(n)
        res = diagonalize_in_algebra(block_algebra(parts), np.diag(d))
        assert np.array_equal(res.similarity, np.eye(n))
        assert np.array_equal(res.diagonal, d)

    @pytest.mark.parametrize(
        "parts", [(1, 2), (2, 1), (2, 2), (1, 1, 2), (3, 2), (1,) * 16, (4, 4, 4, 4), (16,)]
    )
    def test_random_round_trip(self, rng, parts):
        alg, a = make_member(parts, rng)
        res = diagonalize_in_algebra(alg, a)
        assert membership(alg, res.similarity, tol=0.0)
        recon = res.similarity @ np.diag(res.diagonal) @ inverse(res.similarity)
        assert frobenius(recon - a) <= 1e-8 * frobenius(a)

    def test_diagonal_matches_spectrum(self, rng):
        alg, a = make_member((2, 2), rng)
        res = diagonalize_in_algebra(alg, a)
        match_multisets(res.diagonal, eigenvalues(a), 1e-8 * max(1.0, frobenius(a)))

    def test_block_order_of_diagonal(self, rng):
        # leading-block eigenvalues come first in the returned diagonal
        alg, a = make_member((2, 3), rng)
        res = diagonalize_in_algebra(alg, a)
        match_multisets(res.diagonal[:2], eigenvalues(a[:2, :2]), 1e-8)
        match_multisets(res.diagonal[2:], eigenvalues(a[2:, 2:]), 1e-8)

    @pytest.mark.parametrize(
        "parts,s",
        [
            ((2, 2), 0),
            ((2, 2), 3),
            ((1, 2, 1), 2),
            ((4,), 1),
            ((4, 4, 4, 4), 0),
            ((4, 4, 4, 4), 6),
            ((4, 4, 4, 4), 15),
            ((1,) * 16, 9),
            ((16,), 11),
            # the constrained block vanishes once index s is deleted
            ((2, 1, 2), 2),
            ((1,), 0),
            ((3, 1), 3),
        ],
    )
    def test_constrained(self, rng, parts, s):
        alg, a = make_member(parts, rng, constraint=s)
        res = diagonalize_in_algebra(alg, a, constraint=s)
        t = res.similarity
        e = unit(alg.n, s, s)
        assert np.max(np.abs(t @ e - e @ t)) == 0.0
        assert t[s, s] == 1.0
        recon = t @ np.diag(res.diagonal) @ inverse(t)
        assert frobenius(recon - a) <= 1e-8 * max(1.0, frobenius(a))

    def test_repeated_eigenvalues_rejected(self):
        alg = block_algebra((1, 1, 1))
        with pytest.raises(RepeatedEigenvalues):
            diagonalize_in_algebra(alg, np.diag([1.0, 1.0, 2.0]).astype(complex))

    def test_constraint_violated(self, rng):
        alg, a = make_member((2, 2), rng)
        # generic member does not commute with E_00
        with pytest.raises(ConstraintViolated):
            diagonalize_in_algebra(alg, a, constraint=0)
        with pytest.raises(ConstraintViolated):
            diagonalize_in_algebra(alg, a, constraint=99)

    def test_off_support_rejected(self, rng):
        alg = block_algebra((1, 2))
        a = gaussian(rng, 3)  # dense: has strictly-lower entries
        with pytest.raises(WrongAlgebra):
            diagonalize_in_algebra(alg, a)

    def test_full_matrix_algebra(self, rng):
        alg, a = make_member((4,), rng)
        res = diagonalize_in_algebra(alg, a)
        recon = res.similarity @ np.diag(res.diagonal) @ inverse(res.similarity)
        assert frobenius(recon - a) <= 1e-8 * frobenius(a)

    def test_bad_eigenvector_reports_residual(self, rng, monkeypatch):
        alg, a = make_member((3,), rng)
        lapack_eig = np.linalg.eig

        def wrong_vector(m):
            lams, vecs = lapack_eig(m)
            vecs[:, 1] = vecs[:, 0]
            return lams, vecs

        monkeypatch.setattr(np.linalg, "eig", wrong_vector)
        with pytest.raises(IllConditioned) as info:
            diagonalize_in_algebra(alg, a)
        threshold = 1e-9 * max(1.0, frobenius(a))
        match = re.fullmatch(
            r"eigenvector residual (\S+) for eigenvalue (\S+) exceeds (\S+)", str(info.value)
        )
        assert match is not None, str(info.value)
        assert float(match.group(1)) > threshold
        assert float(match.group(3)) == pytest.approx(threshold, rel=1e-3)

    def test_lapack_failure_is_no_convergence(self, rng, monkeypatch):
        alg, a = make_member((2, 2), rng)
        monkeypatch.setattr(np.linalg, "eig", _no_convergence)
        with pytest.raises(NoConvergence):
            diagonalize_in_algebra(alg, a)


class TestTriangularIdempotentForm:
    def test_diagonal_units(self):
        for k in range(4):
            form = triangular_idempotent_form(unit(4, k, k))
            assert form.index == k
            assert np.array_equal(form.similarity, np.eye(4))

    def test_two_by_two_shear_case(self):
        # r = E_00 + a E_01 is reconstructed from index 0; the similarity is
        # the unit upper-triangular matrix with -a in the corner (T E_00 T^{-1} = r)
        a = 2.0 + 1.5j
        r = np.array([[1.0, a], [0.0, 0.0]], dtype=complex)
        form = triangular_idempotent_form(r)
        assert form.index == 0
        assert np.array_equal(form.similarity, np.array([[1.0, -a], [0.0, 1.0]]))
        recon = form.similarity @ unit(2, 0, 0) @ inverse(form.similarity)
        assert frobenius(recon - r) <= 1e-12

    def test_last_column_case(self):
        # idempotent supported in the last column: v e_n^t with v[n-1] = 1
        v = np.array([0.5 - 1j, 2.0, 1.0], dtype=complex)
        r = np.outer(v, unit(3, 2, 2)[2])
        form = triangular_idempotent_form(r)
        assert form.index == 2
        recon = form.similarity @ unit(3, 2, 2) @ inverse(form.similarity)
        assert frobenius(recon - r) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_round_trip(self, rng, n):
        for _ in range(5):
            i = int(rng.integers(0, n))
            t0 = np.triu(gaussian(rng, n))
            t0[np.arange(n), np.arange(n)] = np.exp(0.3 * rng.standard_normal(n))
            r = t0 @ unit(n, i, i) @ inverse(t0)
            form = triangular_idempotent_form(r)
            assert form.index == i
            assert np.max(np.abs(np.tril(form.similarity, -1))) == 0.0
            recon = form.similarity @ unit(n, i, i) @ inverse(form.similarity)
            assert frobenius(recon - r) <= 1e-8 * max(1.0, frobenius(r))

    def test_not_triangular(self, rng):
        r = unit(3, 0, 0)
        r[2, 0] = 0.3
        with pytest.raises(NotTriangular):
            triangular_idempotent_form(r)

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotent):
            triangular_idempotent_form(2.0 * unit(3, 1, 1))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        with pytest.raises(NoConvergence):
            triangular_idempotent_form(unit(3, 1, 1))

    def test_not_rank_one(self):
        with pytest.raises(NotRankOne):
            triangular_idempotent_form(unit(3, 0, 0) + unit(3, 1, 1))
        with pytest.raises(NotRankOne):
            triangular_idempotent_form(np.zeros((2, 2)))

    def test_composition_with_schur(self, rng):
        # an arbitrary-basis rank-one idempotent round-trips through a Schur
        # triangularization followed by the triangular normalization
        for n in (3, 5):
            i = int(rng.integers(0, n))
            s = np.triu(gaussian(rng, n))
            s[np.arange(n), np.arange(n)] = 1.0
            u, _ = np.linalg.qr(gaussian(rng, n))  # any unitary u makes u^H r u upper-triangular here
            r = u @ s @ unit(n, i, i) @ inverse(s) @ np.conj(u.T)
            tri = np.conj(u.T) @ r @ u
            tri = np.triu(tri)  # strictly-lower residue is roundoff
            form = triangular_idempotent_form(tri)
            recon = (
                u
                @ form.similarity
                @ unit(n, form.index, form.index)
                @ inverse(form.similarity)
                @ np.conj(u.T)
            )
            assert frobenius(recon - r) <= 1e-7 * max(1.0, frobenius(r))
