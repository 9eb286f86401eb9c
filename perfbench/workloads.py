"""The three benchmark workloads: seeded inputs, the timed op and its oracle.

Inputs are built with numpy from the workload seed and the op index, never
with the code under test, so every oracle compares against the truth of
construction or against ``numpy.linalg``. ``make_input`` and ``check`` run
outside the timed region; ``run`` is the op. ``run`` returns a documented
blocktri error as an outcome (``outcome``), so only undocumented exceptions
escape it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

# Sizes of the full benchmark and of the smoke check (n <= 8, tiny budgets).
FULL = {
    "certify_parts": (4, 4, 4, 4),
    "budget": 100,
    "multiplicity_samples": 50,
    "canon_parts": ((4, 4, 4, 4), (1,) * 16, (16,)),
    "cli_map_parts": (4, 4, 4, 4),
    "cli_verify_parts": (2, 3, 3),
    "cli_diag_parts": (4, 4, 4, 4),
}
SMOKE = {
    "certify_parts": (2, 3, 3),
    "budget": 5,
    "multiplicity_samples": 5,
    "canon_parts": ((2, 3, 3), (1,) * 8, (8,)),
    "cli_map_parts": (2, 3, 3),
    "cli_verify_parts": (1, 2),
    "cli_diag_parts": (2, 3, 3),
}

SIMILARITY_RADIUS = 0.3  # ||T - I||_2 of every seeded similarity
PERTURBATION_REL = 1e-3  # complex Gaussian noise relative to the rms coefficient
EXPECTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}


class Wrong(Exception):
    """An op's output failed its oracle."""


class Broken(Exception):
    """An op ended outside the documented contract (exit code, traceback)."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def outcome(bt, fn, *args, **kwargs):
    """Call ``fn``; a documented blocktri error is returned as the outcome."""
    try:
        return fn(*args, **kwargs)
    except bt.BlockTriError as exc:
        return exc


def cgauss(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def support_mask(parts) -> np.ndarray:
    block_of = np.repeat(np.arange(len(parts)), parts)
    return block_of[:, None] <= block_of[None, :]


def near_identity(rng, mask: np.ndarray) -> np.ndarray:
    """I + G with G complex Gaussian on ``mask`` and ||G||_2 = SIMILARITY_RADIUS."""
    g = np.where(mask, cgauss(rng, mask.shape), 0.0)
    return np.eye(mask.shape[0]) + SIMILARITY_RADIUS * g / np.linalg.norm(g, 2)


def form_coefficients(parts, anti: bool, t: np.ndarray) -> np.ndarray:
    """The (n^2, d) coefficients of X -> T X T^-1 (or T X^t T^-1) on the
    algebra's row-major support cells."""
    rows, cols = np.nonzero(support_mask(parts))
    if anti:
        rows, cols = cols, rows
    tinv = np.linalg.inv(t)
    n = t.shape[0]
    return np.einsum("ak,kb->abk", t[:, rows], tinv[cols, :]).reshape(n * n, rows.size)


def perturb(rng, c: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(np.abs(c) ** 2))
    return c + PERTURBATION_REL * rms * cgauss(rng, c.shape)


def canonical_scaling(t: np.ndarray) -> np.ndarray:
    """Divide by the largest-modulus entry (first in row-major order on ties)."""
    return t / t.reshape(-1)[int(np.argmax(np.abs(t)))]


def distinct_spectrum(rng, n: int) -> np.ndarray:
    """Real parts are a permutation of 1..n jittered by at most 1/4: gaps >= 1/2."""
    return rng.permutation(np.arange(1.0, n + 1)) + rng.uniform(-0.25, 0.25, n) + 1j * rng.uniform(-1, 1, n)


def similar_member(s: np.ndarray, d: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """S diag(d) S^-1, with the round-off off the support set to exact zero."""
    return np.where(mask, s @ np.diag(d) @ np.linalg.inv(s), 0.0)


def relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def same_multiset(got, want, tol: float) -> bool:
    got, want = list(np.asarray(got)), list(np.asarray(want))
    if len(got) != len(want):
        return False
    for z in want:
        k = int(np.argmin([abs(z - w) for w in got]))
        if abs(z - got.pop(k)) > tol:
            return False
    return True


def check_diagonalization(t: np.ndarray, diag: np.ndarray, a: np.ndarray, truth: np.ndarray, mask) -> None:
    expect(not np.any(t[~mask]), "similarity leaves the algebra")
    expect(relative(t @ np.diag(diag) @ np.linalg.inv(t), a) <= 1e-8, "diagonalization residual")
    expect(same_multiset(diag, truth, 1e-6 * max(1.0, np.max(np.abs(truth)))), "wrong eigenvalues")


# ---------------------------------------------------------------------------


class Certify:
    """One op certifies one candidate map: is_jordan, full_report, multiplicity.

    Candidates cycle inner form, anti-transpose form, perturbed inner form, so
    the mix of accept and reject paths in a run is exact when whole cycles run.
    """

    name = "certify"
    kinds = ("inner", "anti-transpose", "perturbed")
    cycle = len(kinds)

    def __init__(self, bt, seed: int, size: dict):
        self.bt, self.seed, self.size = bt, seed, size
        self.parts = size["certify_parts"]
        self.algebra = bt.block_algebra(self.parts)
        self.mask = support_mask(self.parts)

    def make_input(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        kind = self.kinds[k % self.cycle]
        t = near_identity(rng, np.ones_like(self.mask))
        c = form_coefficients(self.parts, kind == "anti-transpose", t)
        if kind == "perturbed":
            c = perturb(rng, c)
        return kind, self.bt.AlgebraMap(domain=self.algebra, coefficients=c), int(rng.integers(2**31))

    def run(self, inp):
        bt = self.bt
        _, m, seed = inp
        return (
            outcome(bt, bt.is_jordan, m),
            outcome(bt, bt.full_report, m, budget=self.size["budget"], seed=seed),
            outcome(bt, bt.check_multiplicity_preserving, m, samples=self.size["multiplicity_samples"], seed=seed),
        )

    def check(self, inp, out) -> None:
        kind = inp[0]
        for verdict in out:
            expect(not isinstance(verdict, Exception), f"{kind}: raised {type(verdict).__name__}")
        jordan, report, multiplicity = out
        flags = (report.spectrum_preserving, report.spectrum_shrinking, report.commutativity_preserving)
        if kind == "perturbed":
            expect(not jordan.ok, "perturbed map passed is_jordan")
            expect(not all(flags), "perturbed map passed every report check")
        else:
            expect(jordan.ok, f"{kind} map failed is_jordan")
            expect(all(flags), f"{kind} map failed a report check")
            expect(multiplicity.ok, f"{kind} map failed the multiplicity check")

    def close(self) -> None:
        pass


@dataclass
class CanonCase:
    parts: tuple
    algebra: object
    mask: np.ndarray
    form: object
    perturbed_map: object
    t_truth: np.ndarray
    a: np.ndarray
    spectrum: np.ndarray
    a_repeated: np.ndarray
    r: np.ndarray
    index: int


class Canon:
    """One op runs the canonical-form and recovery kernels on three compositions."""

    name = "canon"
    cycle = 1

    def __init__(self, bt, seed: int, size: dict):
        self.bt, self.seed = bt, seed
        self.algebras = [(parts, bt.block_algebra(parts), support_mask(parts)) for parts in size["canon_parts"]]

    def make_input(self, k: int):
        bt = self.bt
        rng = np.random.default_rng([self.seed, k])
        cases = []
        for parts, algebra, mask in self.algebras:
            n = mask.shape[0]
            anti = bool(rng.integers(2))
            t = near_identity(rng, np.ones_like(mask))
            orientation = bt.Orientation.ANTI_TRANSPOSE if anti else bt.Orientation.INNER
            noisy = perturb(rng, form_coefficients(parts, anti, t))
            s = near_identity(rng, mask)
            d = distinct_spectrum(rng, n)
            repeated = d.copy()
            i, j = rng.choice(n, size=2, replace=False)
            repeated[j] = d[i]
            u = np.eye(n) + np.triu(cgauss(rng, (n, n)), 1) * SIMILARITY_RADIUS / np.sqrt(n)
            index = int(rng.integers(n))
            r = np.triu(np.outer(u[:, index], np.linalg.inv(u)[index, :]))
            cases.append(
                CanonCase(
                    parts=parts,
                    algebra=algebra,
                    mask=mask,
                    form=bt.JordanForm(orientation=orientation, t=t),
                    perturbed_map=bt.AlgebraMap(domain=algebra, coefficients=noisy),
                    t_truth=canonical_scaling(t),
                    a=similar_member(s, d, mask),
                    spectrum=d,
                    a_repeated=similar_member(s, repeated, mask),
                    r=r,
                    index=index,
                )
            )
        return cases

    def run(self, cases):
        bt = self.bt
        out = []
        for c in cases:
            m = bt.build_form_map(c.algebra, c.form)
            out.append(
                (
                    outcome(bt, bt.recover_form, m),
                    outcome(bt, bt.recover_form, c.perturbed_map),
                    outcome(bt, bt.diagonalize_in_algebra, c.algebra, c.a),
                    outcome(bt, bt.diagonalize_in_algebra, c.algebra, c.a_repeated),
                    outcome(bt, bt.schur, c.a),
                    outcome(bt, bt.triangular_idempotent_form, c.r),
                )
            )
        return out

    def check(self, cases, out) -> None:
        bt = self.bt
        for c, (form, rejected, diag, repeated, schur, idem) in zip(cases, out):
            where = ",".join(map(str, c.parts)) if len(c.parts) < 8 else f"{len(c.parts)} parts"
            for got in (form, diag, schur, idem):
                expect(not isinstance(got, Exception), f"{where}: raised {type(got).__name__}")
            expect(form.orientation is c.form.orientation, f"{where}: wrong orientation")
            expect(relative(form.t, c.t_truth) <= 1e-6, f"{where}: recovered T differs from the truth")
            expect(isinstance(rejected, bt.NotJordanEmbedding), f"{where}: perturbed map not rejected")
            check_diagonalization(diag.similarity, diag.diagonal, c.a, c.spectrum, c.mask)
            expect(isinstance(repeated, bt.RepeatedEigenvalues), f"{where}: repeated eigenvalue not rejected")
            n = c.a.shape[0]
            u, t = schur.unitary, schur.upper
            expect(np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10, f"{where}: Schur factor not unitary")
            expect(np.max(np.abs(np.tril(t, -1))) <= 1e-10 * np.linalg.norm(c.a), f"{where}: Schur form not triangular")
            expect(relative(u @ t @ u.conj().T, c.a) <= 1e-10, f"{where}: Schur residual")
            s = idem.similarity
            e = np.zeros((n, n))
            e[idem.index, idem.index] = 1.0
            expect(idem.index == c.index, f"{where}: wrong idempotent index")
            expect(not np.any(np.tril(s, -1)), f"{where}: idempotent similarity not triangular")
            expect(relative(s @ e @ np.linalg.inv(s), c.r) <= 1e-8, f"{where}: idempotent residual")

    def close(self) -> None:
        pass


GALLERY_VIOLATIONS = {
    "mobius_contraction": "linear",
    "det_twist": "commutativity_preserving",
    "eigen_swap": "continuous",
    "block_projection": "injective",
}


def random_composition(rng, n: int) -> tuple:
    cuts = np.flatnonzero(rng.random(n - 1) < 0.35) + 1
    return tuple(int(k) for k in np.diff(np.concatenate([[0], cuts, [n]])))


def embedding_truth(a, b) -> dict:
    def fits(p, q):
        return not np.any(support_mask(p) & ~support_mask(q))

    inner, anti = fits(a, b), fits(a[::-1], b)
    embedding = {(True, True): "both", (True, False): "inner-only", (False, True): "anti-only"}.get((inner, anti), "none")
    equal, reverse = a == b, a == b[::-1]
    iso = {(True, True): "both-ways", (True, False): "isomorphic", (False, True): "anti-isomorphic"}.get(
        (equal, reverse), "not-jordan-isomorphic"
    )
    return {"embedding": embedding, "jordan_isomorphism": iso}


def write_json(path: str, doc) -> None:
    # one write of the encoded text: json.dump writes each token separately,
    # which took most of cli's set-up (the bytes are the same)
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def pairs(z: np.ndarray) -> list:
    return np.stack([z.real, z.imag], axis=-1).tolist()


def complex_grid(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class Cli:
    """One op is one in-process pass of ``blocktri.cli.main`` over a fixed argv list.

    Documents are written once at set-up into a private directory under the
    benchmark's work directory; every op runs the same argv list, so stdout
    must be byte-identical across ops.
    """

    name = "cli"
    cycle = 1

    def __init__(self, bt, seed: int, size: dict, workdir: str):
        self.bt, self.seed = bt, seed
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        rng = np.random.default_rng([seed, 0])
        n = sum(size["cli_map_parts"])  # the embed-check, recover and diagonalize size
        self.cases = []  # (argv, expected exit code, content oracle or None)
        for _ in range(3):
            a = random_composition(rng, n)
            for b in (random_composition(rng, n), a, a[::-1]):
                truth = embedding_truth(a, b)
                code = 3 if truth["embedding"] == "none" else 0
                self.cases.append((["embed-check", "--json", self.text(a), self.text(b)], code, self.embed_oracle(truth)))

        parts = size["cli_map_parts"]
        anti = bool(rng.integers(2))
        t = near_identity(rng, np.ones((n, n), bool))
        c = form_coefficients(parts, anti, t)
        self.cases.append((["recover", self.map_doc("map.json", parts, c)], 0, self.recover_oracle(anti, t)))
        self.cases.append((["recover", self.map_doc("perturbed.json", parts, perturb(rng, c))], 4, None))

        parts = size["cli_verify_parts"]
        t = near_identity(rng, np.ones((sum(parts),) * 2, bool))
        verify_doc = self.map_doc("verify.json", parts, form_coefficients(parts, bool(rng.integers(2)), t))
        budget = str(size["budget"])
        self.cases.append((["verify", verify_doc, "--budget", budget], 0, self.verify_oracle))

        parts = size["cli_diag_parts"]
        mask = support_mask(parts)
        s = near_identity(rng, mask)
        d = distinct_spectrum(rng, n)
        repeated = d.copy()
        i, j = rng.choice(n, size=2, replace=False)
        repeated[j] = d[i]
        a = similar_member(s, d, mask)
        outside = a.copy()
        outside[n - 1, 0] = 1.0
        for file, matrix, code, oracle in (
            ("member.json", a, 0, self.diagonalize_oracle(a, d, mask)),
            ("repeated.json", similar_member(s, repeated, mask), 5, None),
            ("outside.json", outside, 6, None),
        ):
            path = os.path.join(self.dir, file)
            write_json(path, {"n": n, "entries": pairs(matrix)})
            self.cases.append((["diagonalize", self.text(parts), path], code, oracle))

        gallery_seed = str(int(rng.integers(2**31)))
        for name, violated in GALLERY_VIOLATIONS.items():
            argv = ["gallery", name, "--budget", budget, "--seed", gallery_seed]
            self.cases.append((argv, 0, self.gallery_oracle(name, violated)))
        self.reference = None

    @staticmethod
    def text(parts) -> str:
        return ",".join(map(str, parts))

    def map_doc(self, file: str, parts, c: np.ndarray) -> str:
        path = os.path.join(self.dir, file)
        write_json(path, {"algebra": self.text(parts), "coefficients": pairs(c)})
        return path

    @staticmethod
    def embed_oracle(truth):
        return lambda doc: expect(doc == truth, f"embed-check verdict {doc} != {truth}")

    @staticmethod
    def recover_oracle(anti: bool, t: np.ndarray):
        def oracle(doc):
            expect(doc["orientation"] == ("anti-transpose" if anti else "inner"), "recover: wrong orientation")
            expect(relative(complex_grid(doc["T"]), canonical_scaling(t)) <= 1e-6, "recover: T differs from the truth")
            expect(doc["residual"] <= 1e-8, "recover: residual")

        return oracle

    @staticmethod
    def verify_oracle(doc):
        flags = ("spectrum_preserving", "spectrum_shrinking", "commutativity_preserving")
        expect(all(doc[f] is True for f in flags), "verify: a Jordan map failed a check")

    @staticmethod
    def diagonalize_oracle(a, d, mask):
        return lambda doc: check_diagonalization(complex_grid(doc["T"]), complex_grid(doc["diagonal"]), a, d, mask)

    @staticmethod
    def gallery_oracle(name: str, violated: str):
        def oracle(doc):
            expect(doc["name"] == name, "gallery: wrong name")
            expect(doc["properties"][violated]["holds"] is False, f"gallery {name}: {violated} not refuted")

        return oracle

    def make_input(self, k: int):
        return None

    def run(self, _):
        main = self.bt.cli.main
        results = []
        for argv, _, _ in self.cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, _, results) -> None:
        for (argv, want, oracle), (code, stdout, stderr) in zip(self.cases, results):
            if code not in EXPECTED_EXIT_CODES or "Traceback" in stderr:
                raise Broken(f"{argv[0]}: exit code {code} outside the contract or a traceback")
            expect(code == want, f"{' '.join(argv[:2])}: exit {code}, expected {want}")
            if oracle is not None:
                oracle(json.loads(stdout))
        stdouts = [stdout for _, stdout, _ in results]
        if self.reference is None:
            self.reference = stdouts
        expect(stdouts == self.reference, "stdout differs from the first op for identical argv")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = ("certify", "canon", "cli")


def make_workload(name: str, bt, seed: int, size: dict, workdir: str):
    if name == "certify":
        return Certify(bt, seed, size)
    if name == "canon":
        return Canon(bt, seed, size)
    if name == "cli":
        return Cli(bt, seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
