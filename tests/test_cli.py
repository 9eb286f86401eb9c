"""JSON document schemas and the command-line contract."""

import json
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from blocktri import (
    GALLERY,
    AlgebraMap,
    InvalidDocument,
    NotFinite,
    JordanForm,
    Orientation,
    algebra_map_from_function,
    block_algebra,
    block_projection,
    build_form_map,
    form_residual,
    recover_form,
)
from blocktri import documents, maps
from blocktri.cli import MAX_BUDGET, build_parser, main
from blocktri.documents import (
    canonical_json,
    map_from_document,
    map_to_document,
    matrix_from_document,
    matrix_to_document,
)

from conftest import bounded_similarity, gaussian


class TestDocuments:
    def test_matrix_round_trip_bytes(self, rng):
        m = gaussian(rng, 3)
        doc = matrix_to_document(m)
        text = canonical_json(doc)
        again = canonical_json(matrix_to_document(matrix_from_document(json.loads(text))))
        assert text == again

    def test_map_round_trip_bytes(self, rng):
        alg = block_algebra((1, 2))
        m = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity((1, 2), rng)))
        text = canonical_json(map_to_document(m))
        again = canonical_json(map_to_document(map_from_document(json.loads(text))))
        assert text == again

    def test_numpy_scalars_become_plain_json(self):
        doc = {
            "a": np.float64(np.inf), "b": np.int64(3), "c": np.bool_(True), "d": np.complex128(1 - 2j), "e": np.float32(0.5)
        }
        assert canonical_json(doc) == canonical_json({"a": "Infinity", "b": 3, "c": True, "d": [1.0, -2.0], "e": 0.5})

    def test_matrix_schema_rejections(self):
        with pytest.raises(InvalidDocument):
            matrix_from_document({"entries": []})
        with pytest.raises(InvalidDocument):
            matrix_from_document({"n": 2, "entries": [[[0, 0]]]})
        with pytest.raises(InvalidDocument):
            matrix_from_document({"n": 1, "entries": [[[0, "x"]]]})
        with pytest.raises(InvalidDocument):
            matrix_from_document({"n": 1, "entries": [[[np.inf, 0]]]})

    def test_map_schema_rejections(self):
        with pytest.raises(InvalidDocument):
            map_from_document({"algebra": "1,1", "coefficients": [[[0, 0]]]})
        with pytest.raises(InvalidDocument):
            map_from_document({"algebra": "0,2", "coefficients": []})
        # column count must equal the algebra dimension
        bad = {"algebra": "1,1", "coefficients": [[[0.0, 0.0]] * 2 for _ in range(4)]}
        with pytest.raises(InvalidDocument):
            map_from_document(bad)

    @pytest.mark.parametrize("algebra", [3, 3.0, [3], None, True, "1_2", " 3"], ids=repr)
    def test_map_algebra_must_be_composition_text(self, tmp_path, capsys, algebra):
        # str() would read the JSON number 3 as the composition "3", whose M_3 fits this grid
        doc = {"algebra": algebra, "coefficients": [[[0.0, 0.0]] * 9 for _ in range(9)]}
        with pytest.raises(InvalidDocument):
            map_from_document(doc)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["recover", str(path)]) == 2
        assert capsys.readouterr().out == ""


def reference_grid(rows, cols, row_error):
    """The pair-by-pair reference decoder, in row-major order. An integer
    beyond the float range reads as non-finite."""
    out = np.zeros((len(rows), cols), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != cols:
            raise InvalidDocument(row_error)
        for c, obj in enumerate(row):
            if (
                not isinstance(obj, (list, tuple))
                or len(obj) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
            ):
                raise InvalidDocument(f"expected an [re, im] pair, got {obj!r}")
            try:
                z = complex(float(obj[0]), float(obj[1]))
            except OverflowError:
                z = complex(np.inf)
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise InvalidDocument("entries must be finite")
            out[r, c] = z
    return out


def decode_outcome(fn, *args):
    """Decoded bytes (so that -0.0 differs from 0.0), or the rejection message."""
    try:
        return fn(*args).tobytes()
    except InvalidDocument as exc:
        return f"InvalidDocument: {exc}"


def valid_rows(rng, rows, cols):
    """[re, im] rows mixing floats, ints, signed zeros, np.float64 and tuples."""
    grid = [[[float(x), float(y)] for x, y in rng.standard_normal((cols, 2))] for _ in range(rows)]
    grid[0][0] = [0.0, -0.0]
    grid[0][-1] = [-0.0, 0.0]
    grid[-1][0] = [3, -2]
    grid[-1][-1] = (np.float64(0.5), -0.0)
    grid[rows // 2][cols // 2] = [2**70, 1e-310]
    return grid


BAD_ENTRIES = [
    True,
    [True, 0.0],
    [0.0, False],
    ["1", 0.0],
    [None, 0.0],
    None,
    1.5,
    "ab",
    [1.0, 2.0, 3.0],
    [1.0],
    [],
    {"re": 1.0, "im": 0.0},
    [np.int64(1), 0.0],
    np.array([1.0, 0.0]),
    [float("inf"), 0.0],
    [0.0, float("nan")],
    [10**400, 0.0],
    [0.0, -(10**400)],
]


def corrupted(rng, rows, cols):
    """Valid grids with one or two bad entries or rows, in every order."""
    cells = [(0, 0), (rows - 1, cols - 1), (rows // 2, 1)]
    for bad in BAD_ENTRIES:
        for r, c in cells:
            grid = valid_rows(rng, rows, cols)
            grid[r][c] = bad
            yield grid
    for first, second in [([np.inf, 0.0], "x"), ("x", [np.inf, 0.0]), ([np.nan, 0.0], [10**400, 0])]:
        for (r1, c1), (r2, c2) in [((0, 1), (0, 2)), ((0, 1), (rows - 1, 0))]:
            grid = valid_rows(rng, rows, cols)
            grid[r1][c1], grid[r2][c2] = first, second
            yield grid
    for bad_row in ([[0.0, 0.0]] * (cols - 1), [[0.0, 0.0]] * (cols + 1), "row", None):
        for earlier in (None, [np.inf, 0.0], "x"):
            grid = valid_rows(rng, rows, cols)
            grid[rows - 1] = bad_row
            if earlier is not None:
                grid[0][1] = earlier
            yield grid


def json_typed(grids):
    """Each grid as ``json.loads`` delivers it: tuples become lists and
    np.float64 plain floats. A grid holding a value that JSON cannot express
    (np.int64, an array) is left out."""
    for grid in grids:
        try:
            yield json.loads(json.dumps(grid))
        except TypeError:
            pass


def json_rows(rng, rows, cols):
    """``valid_rows`` as JSON delivers it, plus the largest power of two below
    the float overflow as an integer."""
    (grid,) = json_typed([valid_rows(rng, rows, cols)])
    grid[1][0] = [2**1023, -0.0]
    return grid


@pytest.fixture
def no_pair_decode(monkeypatch):
    """Fail the test if any grid falls back to the pair-by-pair decode."""

    def fail(obj):
        raise AssertionError(f"pair-by-pair decode of {obj!r}")

    monkeypatch.setattr(documents, "_from_pair", fail)


MATRIX_ROW_ERROR = "entries do not form an n x n grid"
MAP_ROW_ERROR = "coefficient rows must have 7 columns"


def assert_matrix_rejections_match(grids):
    for rows in grids:
        got = decode_outcome(lambda: matrix_from_document({"n": 4, "entries": rows}))
        assert got == decode_outcome(reference_grid, rows, 4, MATRIX_ROW_ERROR)
        assert got.startswith("InvalidDocument")


def assert_map_rejections_match(grids):
    for rows in grids:
        got = decode_outcome(lambda: map_from_document({"algebra": "1,2", "coefficients": rows}).coefficients)
        assert got == decode_outcome(reference_grid, rows, 7, MAP_ROW_ERROR)
        assert got.startswith("InvalidDocument")


class TestRowDecoder:
    def test_matrix_bit_identical(self, rng):
        rows = valid_rows(rng, 5, 5)
        doc = {"n": 5, "entries": rows}
        got = matrix_from_document(doc)
        assert got.tobytes() == reference_grid(rows, 5, "").tobytes()
        assert np.signbit(got[0, 0].imag) and np.signbit(got[0, -1].real)

    def test_map_bit_identical(self, rng):
        rows = valid_rows(rng, 9, 7)
        got = map_from_document({"algebra": "1,2", "coefficients": rows}).coefficients
        assert got.tobytes() == reference_grid(rows, 7, "").tobytes()

    def test_json_grids_bit_identical(self, rng, no_pair_decode):
        rows = json_rows(rng, 5, 5)
        got = matrix_from_document({"n": 5, "entries": rows})
        assert got.tobytes() == reference_grid(rows, 5, "").tobytes()
        assert np.signbit(got[0, 0].imag) and np.signbit(got[0, -1].real) and np.signbit(got[1, 0].imag)
        rows = json_rows(rng, 9, 7)
        got = map_from_document({"algebra": "1,2", "coefficients": rows}).coefficients
        assert got.tobytes() == reference_grid(rows, 7, "").tobytes()

    def test_valid_json_documents_take_one_pass(self, rng, no_pair_decode):
        alg = block_algebra((4, 4, 4, 4))
        m = AlgebraMap(alg, gaussian(rng, alg.n**2, alg.dim))
        doc = json.loads(canonical_json(map_to_document(m)))
        assert map_from_document(doc).coefficients.tobytes() == m.coefficients.tobytes()
        x = gaussian(rng, 16)
        assert matrix_from_document(json.loads(canonical_json(matrix_to_document(x)))).tobytes() == x.tobytes()

    def test_matrix_rejections_match_reference(self, rng):
        assert_matrix_rejections_match(corrupted(rng, 4, 4))

    def test_map_rejections_match_reference(self, rng):
        assert_map_rejections_match(corrupted(rng, 9, 7))

    def test_json_rejections_match_reference(self, rng):
        assert_matrix_rejections_match(json_typed(corrupted(rng, 4, 4)))
        assert_map_rejections_match(json_typed(corrupted(rng, 9, 7)))

    def test_non_finite_output_is_strict_json(self):
        text = canonical_json({"a": [np.inf, -np.inf, np.nan, 1.5], "z": complex(np.inf, -0.0)})
        data = json.loads(text, parse_constant=pytest.fail)
        assert data == {"a": ["Infinity", "-Infinity", "NaN", 1.5], "z": ["Infinity", -0.0]}


@pytest.fixture
def identity_map_file(tmp_path):
    alg = block_algebra((1, 1, 1))
    m = build_form_map(alg, JordanForm(Orientation.INNER, np.eye(3, dtype=complex)))
    path = tmp_path / "map.json"
    path.write_text(canonical_json(map_to_document(m)), encoding="utf-8")
    return str(path)


class TestEmbedCheckCommand:
    def test_both(self, capsys):
        assert main(["embed-check", "1,2", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["both", "not-jordan-isomorphic"]

    def test_anti_only(self, capsys):
        assert main(["embed-check", "2,1", "1,2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "anti-only"

    def test_none_exit_code(self, capsys):
        assert main(["embed-check", "3", "1,2"]) == 3
        assert capsys.readouterr().out.splitlines()[0] == "none"

    def test_dimension_mismatch(self, capsys):
        assert main(["embed-check", "1,2", "2,1,1"]) == 2
        assert "embed-check" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert main(["embed-check", "1,x", "3"]) == 2

    @pytest.mark.parametrize("text", ["1_0", "+1,2", " 2,1", "2,1\n", "\u0661,2"])
    def test_composition_takes_ascii_digits_only(self, capsys, text):
        assert main(["embed-check", text, "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"embed-check: malformed composition {text!r}\n"

    def test_json_flag(self, capsys):
        assert main(["embed-check", "1,2", "1,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"embedding": "inner-only", "jordan_isomorphism": "isomorphic"}


class TestRecoverCommand:
    def test_identity_document(self, identity_map_file, capsys):
        assert main(["recover", identity_map_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orientation"] == "inner"
        t = np.array([[complex(re, im) for re, im in row] for row in data["T"]])
        assert np.allclose(t, np.eye(3), rtol=0, atol=1e-12)
        assert data["residual"] <= 1e-7

    def test_anti_round_trip(self, tmp_path, rng, capsys):
        alg = block_algebra((2, 2))
        t = bounded_similarity((2, 2), rng)
        m = build_form_map(alg, JordanForm(Orientation.ANTI_TRANSPOSE, t))
        path = tmp_path / "anti.json"
        path.write_text(canonical_json(map_to_document(m)), encoding="utf-8")
        assert main(["recover", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orientation"] == "anti-transpose"
        assert data["residual"] <= 1e-7

    def test_projection_rejected(self, tmp_path, capsys):
        alg = block_algebra((1, 2))
        m = algebra_map_from_function(alg, lambda x: block_projection(alg, x))
        path = tmp_path / "proj.json"
        path.write_text(canonical_json(map_to_document(m)), encoding="utf-8")
        assert main(["recover", str(path)]) == 4
        assert "not a Jordan embedding" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["recover", str(path)]) == 2

    def test_certifies_once(self, tmp_path, rng, monkeypatch, capsys):
        alg = block_algebra((2, 1))
        m = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity((2, 1), rng)))
        path = tmp_path / "map.json"
        path.write_text(canonical_json(map_to_document(m)), encoding="utf-8")
        expected = form_residual(m, recover_form(m))
        columns = []
        form_columns = maps._form_columns
        monkeypatch.setattr(maps, "_form_columns", lambda *args: columns.append(form_columns(*args).shape[1]) or form_columns(*args))
        assert main(["recover", str(path)]) == 0
        assert columns == [alg.dim]  # the certification's own form columns, built once
        assert json.loads(capsys.readouterr().out)["residual"] == expected

    def test_deterministic_bytes(self, identity_map_file, capsys):
        assert main(["recover", identity_map_file]) == 0
        first = capsys.readouterr().out
        assert main(["recover", identity_map_file]) == 0
        assert capsys.readouterr().out == first


class TestVerifyCommand:
    def test_identity_all_true(self, identity_map_file, capsys):
        assert main(["verify", identity_map_file, "--budget", "10", "--seed", "7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spectrum_preserving"] is True
        assert data["spectrum_shrinking"] is True
        assert data["commutativity_preserving"] is True

    def test_deterministic_bytes(self, identity_map_file, capsys):
        main(["verify", identity_map_file, "--budget", "10", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", identity_map_file, "--budget", "10", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        # a document whose coefficient grid does not match the algebra is a
        # parse error; nonlinear maps are never serializable this way
        doc = {"algebra": "1,2", "coefficients": [[[0.0, 0.0]] * 3 for _ in range(5)]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2


class TestKernelAndDocumentErrors:
    """Errors from documents and kernels exit 2 with a one-line diagnostic."""

    HUGE = "1" + "0" * 400

    def huge_map_file(self, tmp_path):
        alg = block_algebra((1, 2))
        m = build_form_map(alg, JordanForm(Orientation.INNER, np.eye(3, dtype=complex)))
        text = canonical_json(map_to_document(m)).replace("1.0", self.HUGE, 1)
        assert self.HUGE in text
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["verify", "recover"])
    def test_huge_integer_in_map(self, tmp_path, capsys, command):
        assert main([command, self.huge_map_file(tmp_path)]) == 2
        assert capsys.readouterr().err == f"{command}: entries must be finite\n"

    def test_huge_integer_in_matrix(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "entries": [[[%s, 0]]]}' % self.HUGE, encoding="utf-8")
        assert main(["diagonalize", "1", str(path)]) == 2
        assert capsys.readouterr().err == "diagonalize: entries must be finite\n"

    @pytest.mark.parametrize("argv", [["recover"], ["verify"], ["diagonalize", "1"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 200_000, b'{"n": 1, "entries": [[[' + b"1" * 5000 + b", 0]]]}"],
        ids=["not-utf8", "nested-200000", "int-5000-digits"],
    )
    def test_unreadable_document(self, tmp_path, capsys, argv, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: cannot read {path}: ")
        assert "Traceback" not in captured.err

    def test_bool_matrix_size(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"n": true, "entries": [[[2, 0]]]}', encoding="utf-8")
        assert main(["diagonalize", "1", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "diagonalize: bad matrix size True\n"

    def test_verify_overflowing_map(self, tmp_path, capsys):
        alg = block_algebra((1, 2))
        m = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity((1, 2), np.random.default_rng(3))))
        big = AlgebraMap(alg, m.coefficients * (1.5e308 / np.max(np.abs(m.coefficients))))
        path = tmp_path / "big.json"
        path.write_text(canonical_json(map_to_document(big)), encoding="utf-8")
        # probe images overflow to inf: a violation with worst inf, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(path), "--budget", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out, parse_constant=pytest.fail)  # strict JSON
        assert data["worst_violation"] == "Infinity"
        flags = ("spectrum_preserving", "spectrum_shrinking", "commutativity_preserving")
        assert [data[flag] for flag in flags] == [False, False, False]

    def test_gallery_kernel_error(self, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise NotFinite("matrix contains NaN or infinite entries")

        monkeypatch.setattr("blocktri.cli.run_gallery_suite", overflow)
        assert main(["gallery", "det_twist"]) == 2
        assert capsys.readouterr().err == "gallery: matrix contains NaN or infinite entries\n"


    def test_diagonalize_lapack_failure(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "m.json"
        path.write_text(
            canonical_json(matrix_to_document(np.array([[1.0, 1.0], [0.5, 3.0]], dtype=complex))),
            encoding="utf-8",
        )
        monkeypatch.setattr(np.linalg, "eig", fail)
        assert main(["diagonalize", "2", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("diagonalize: ")
        assert "did not converge" in captured.err


class TestEnvelope:
    """Argv and documents outside the desk-scale envelope exit 2."""

    @pytest.fixture(autouse=True)
    def no_large_algebra_built(self, monkeypatch):
        def guarded(spec):
            assert sum(spec) <= 16, f"block_algebra({spec!r}) called on rejected input"
            return block_algebra(spec)

        monkeypatch.setattr("blocktri.cli.block_algebra", guarded)
        monkeypatch.setattr("blocktri.documents.block_algebra", guarded)

    @pytest.mark.parametrize("big", ["17", "1000000"])
    def test_embed_check(self, capsys, big):
        assert main(["embed-check", big, "1"]) == 2
        assert main(["embed-check", "1", big]) == 2
        assert capsys.readouterr().err == (
            f"embed-check: composition '{big}' exceeds n = 16\n" * 2
        )

    @pytest.mark.parametrize("big", ["17", "1000000"])
    def test_diagonalize(self, tmp_path, capsys, big):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "entries": [[[1, 0]]]}', encoding="utf-8")
        assert main(["diagonalize", big, str(path)]) == 2
        assert capsys.readouterr().err == f"diagonalize: composition '{big}' exceeds n = 16\n"

    @pytest.mark.parametrize("command", ["verify", "recover"])
    @pytest.mark.parametrize("big", ["17", "1000000"])
    def test_map_document(self, tmp_path, capsys, command, big):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"algebra": big, "coefficients": []}), encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"{command}: composition '{big}' exceeds n = 16\n"

    @pytest.mark.parametrize("argv", [["verify", "map.json"], ["gallery", "det_twist"]])
    def test_negative_budget(self, capsys, argv):
        assert main(argv + ["--budget", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: must be a non-negative integer, got '-5'" in captured.err

    @pytest.mark.parametrize("argv", [["verify", "map.json"], ["gallery", "det_twist"]])
    def test_budget_above_cap(self, capsys, argv):
        over = str(MAX_BUDGET + 1)
        assert main(argv + ["--budget", over]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --budget: must be at most {MAX_BUDGET}, got '{over}'" in captured.err
        assert "Traceback" not in captured.err

    # stable case names: argv0 was recover, which takes no --seed
    @pytest.mark.parametrize("argv", [["verify", "map.json"], ["gallery", "det_twist"]], ids=["argv1", "argv2"])
    @pytest.mark.parametrize("seed", ["-1", "-7", "abc", "1.5", ""])
    def test_seed_rejected(self, capsys, argv, seed):
        assert main(argv + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: must be a non-negative integer, got {seed!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_ragged_matrix_document_allocates_nothing(self, tmp_path, capsys):
        # 1.2 MB of text claiming n = 300000: the rows are checked before any n x n array
        # exists, so the command neither allocates 1.3 TiB nor exits with a traceback
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 300000, "entries": [[]] * 300000}), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["diagonalize", "1,2", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "diagonalize: entries do not form an n x n grid\n"
        assert "Traceback" not in captured.err
        assert peak < 2**28, peak
        # a well-formed grid above n = 16 still reaches the shape check
        path.write_text(json.dumps({"n": 17, "entries": [[[0, 0]] * 17] * 17}), encoding="utf-8")
        assert main(["diagonalize", "1,2", str(path)]) == 6

    # float() alone reads the last three as 1e-8
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "-0.0", "abc", "1e999", "1_0e-9", " 1e-8", "١e-8"])
    def test_tol_rejected(self, capsys, tol):
        assert main(["verify", "map.json", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: must be a finite positive number, got {tol!r}" in captured.err
        assert "Traceback" not in captured.err

    # int() alone reads each of these as an integer; each run would exit 0
    @pytest.mark.parametrize(
        "option, value",
        [("--budget", "1_0"), ("--budget", "٣"), ("--seed", " 7"), ("--constraint", "١")],
        ids=["budget-underscore", "budget-arabic-indic", "seed-space", "constraint-arabic-indic"],
    )
    def test_integer_not_ascii_digits(self, identity_map_file, tmp_path, capsys, option, value):
        if option == "--constraint":
            path = tmp_path / "m.json"
            path.write_text(canonical_json(matrix_to_document(np.diag([1.0, 2.0, 3.0]).astype(complex))), encoding="utf-8")
            argv = ["diagonalize", "1,2", str(path)]
        else:
            argv = ["verify", identity_map_file, "--budget", "3"]
        assert main(argv + [f"{option}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be a non-negative integer, got {value!r}" in captured.err

    def test_tol_accepted(self, identity_map_file, capsys):
        assert main(["verify", identity_map_file, "--budget", "3", "--tol", "1e-300"]) == 0
        assert json.loads(capsys.readouterr().out)["spectrum_preserving"] is True


class TestDiagonalizeCommand:
    def _write(self, tmp_path, matrix):
        path = tmp_path / "m.json"
        path.write_text(canonical_json(matrix_to_document(matrix)), encoding="utf-8")
        return str(path)

    def test_diagonal_input(self, tmp_path, capsys):
        path = self._write(tmp_path, np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert main(["diagonalize", "1,2", path]) == 0
        data = json.loads(capsys.readouterr().out)
        t = np.array([[complex(re, im) for re, im in row] for row in data["T"]])
        assert np.allclose(t, np.eye(3), rtol=0, atol=1e-12)
        diag = [complex(re, im) for re, im in data["diagonal"]]
        assert diag == [1.0, 2.0, 3.0]

    def test_shear_example(self, tmp_path, capsys):
        c = 0.75
        path = self._write(tmp_path, np.array([[1.0, c], [0.0, 2.0]], dtype=complex))
        assert main(["diagonalize", "1,1", path]) == 0
        data = json.loads(capsys.readouterr().out)
        t = np.array([[complex(re, im) for re, im in row] for row in data["T"]])
        assert np.array_equal(t, np.array([[1.0, c], [0.0, 1.0]]))

    def test_repeated_eigenvalues(self, tmp_path, capsys):
        path = self._write(tmp_path, np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert main(["diagonalize", "1,2", path]) == 5

    def test_not_in_algebra(self, tmp_path, capsys):
        m = np.diag([1.0, 2.0, 3.0]).astype(complex)
        m[2, 0] = 1.0
        path = self._write(tmp_path, m)
        assert main(["diagonalize", "1,2", path]) == 6

    def test_constrained(self, tmp_path, capsys):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a[0, 2] = 0.5  # commutes with E_11
        path = self._write(tmp_path, a)
        assert main(["diagonalize", "1,2", path, "--constraint", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        t = np.array([[complex(re, im) for re, im in row] for row in data["T"]])
        assert t[1, 1] == 1.0

    def test_parse_error(self, tmp_path):
        path = tmp_path / "nope.json"
        assert main(["diagonalize", "1,2", str(path)]) == 2


class TestGalleryCommand:
    def test_det_twist(self, capsys):
        assert main(["gallery", "det_twist", "--budget", "15"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["properties"]["spectrum_preserving"]["holds"] is True
        assert data["properties"]["linear"]["holds"] is False

    def test_block_projection(self, capsys):
        assert main(["gallery", "block_projection", "--budget", "15"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["properties"]["jordan"]["holds"] is True
        assert data["properties"]["injective"]["holds"] is False

    def test_mobius(self, capsys):
        assert main(["gallery", "mobius_contraction", "--budget", "15"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["properties"]["spectrum_preserving"]["holds"] is False

    def test_unknown_name(self, capsys):
        assert main(["gallery", "made_up"]) == 2

    @pytest.mark.parametrize("name", list(GALLERY))
    def test_deterministic_bytes(self, capsys, name):
        main(["gallery", name, "--budget", "10", "--seed", "2"])
        first = capsys.readouterr().out
        main(["gallery", name, "--budget", "10", "--seed", "2"])
        assert capsys.readouterr().out == first


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2


def _outcome(argv):
    """(exit code, stdout, stderr) of one ``main`` call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no output."""

    BAD = [["verify", "x", "--budget", "-1"], ["gallery", "det_twist", "--seed", "x"], ["frobnicate"], []]

    def test_one_parser(self):
        assert build_parser() is build_parser()

    def test_outcomes_match_a_fresh_parser(self, identity_map_file):
        valid = [
            ["embed-check", "1,2", "2,1", "--json"],
            ["recover", identity_map_file],
            ["verify", identity_map_file, "--budget", "5"],
            ["gallery", "det_twist", "--budget", "5"],
        ]
        calls = [argv for pair in zip(self.BAD, valid) for argv in pair] * 2
        fresh = []
        for argv in calls:
            build_parser.cache_clear()  # the first call of a process
            fresh.append(_outcome(argv))
        reused = [_outcome(argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0] * 8
        assert "argument --budget: must be a non-negative integer, got '-1'" in reused[0][2]
        assert reused[0][2].startswith("usage: blocktri verify")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Documents the argv fuzz points at: map and matrix files, plus a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    alg = block_algebra((1, 2))
    jordan = build_form_map(alg, JordanForm(Orientation.INNER, bounded_similarity((1, 2), np.random.default_rng(0))))
    maps = {"jordan.json": jordan, "projection.json": algebra_map_from_function(alg, lambda x: block_projection(alg, x))}
    matrices = {
        "upper.json": np.triu(np.arange(1.0, 10.0).reshape(3, 3)),
        "repeated.json": np.diag([1.0, 1.0, 2.0]),
        "dense.json": np.arange(1.0, 10.0).reshape(3, 3),
        "one.json": np.eye(1),
    }
    for name, m in maps.items():
        (root / name).write_text(canonical_json(map_to_document(m)), encoding="utf-8")
    for name, m in matrices.items():
        (root / name).write_text(canonical_json(matrix_to_document(m.astype(complex))), encoding="utf-8")
    missing = str(root / "missing.json")
    return [str(root / name) for name in maps] + [missing], [str(root / name) for name in matrices] + [missing]


JUNK = st.text(alphabet="0123456789,.-+eEinfa x_١", max_size=6)
COMPOSITION = st.one_of(
    st.sampled_from(["1", "3", "1,2", "2,1", "1,1,1"]),
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(lambda p: ",".join(map(str, p))),
    JUNK,
)
SEED = st.one_of(st.integers(-3, 3).map(str), st.integers(0, 2**70).map(str), JUNK)
BUDGET = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["10001", "1e3", "nan", "x"]), JUNK)
TOL = st.one_of(st.floats().map(repr), st.sampled_from(["inf", "-1", "0"]), JUNK)
CONSTRAINT = st.one_of(st.integers(-3, 5).map(str), JUNK)


def _option(name, values):
    """Nothing, or one ``--name=value`` argument (``=`` lets a value start with '-')."""
    return st.one_of(st.just(()), values.map(lambda v: (f"{name}={v}",)))


def _argv(map_files, matrix_files):
    maps, matrices = st.sampled_from(map_files), st.sampled_from(matrix_files)
    budget = BUDGET.map(lambda b: (f"--budget={b}",))  # always given, so a valid budget stays <= 5
    name = st.one_of(st.sampled_from(list(GALLERY)), JUNK)
    commands = st.one_of(
        st.tuples(st.just("embed-check"), COMPOSITION, COMPOSITION, st.sampled_from([(), ("--json",)])),
        st.tuples(st.just("recover"), maps),
        st.tuples(st.just("verify"), maps, budget, _option("--seed", SEED), _option("--tol", TOL)),
        st.tuples(st.just("diagonalize"), COMPOSITION, matrices, _option("--constraint", CONSTRAINT)),
        st.tuples(st.just("gallery"), name, budget, _option("--seed", SEED)),
    )
    return commands.map(lambda parts: [a for p in parts for a in ((p,) if isinstance(p, str) else p)])


def _run(argv):
    """Run ``main`` on argv: a contract exit code, and no traceback on stderr."""
    code, _, err = _outcome(argv)
    event(f"{argv[0]} exits {code}")
    assert code in {0, 2, 3, 4, 5, 6}, (argv, code, err)
    assert "Traceback" not in err


class TestArgvFuzz:
    """Any argv of the five subcommands exits with a contract code, never a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_contract_exit_codes(self, fuzz_files, data):
        _run(data.draw(_argv(*fuzz_files), label="argv"))


# Document fuzz: map and matrix files built from drawn compositions, shapes and
# entries. Each document has at most one drawn flaw, so many of them are valid
# and reach recovery, the checkers and diagonalization.
VALID_COMPOSITION = st.sampled_from(["1", "2", "1,2", "2,1", "1,1,1", "2,2", "1,3"])
BAD_ALGEBRA = st.one_of(
    st.sampled_from(["17", "8,9", "1,16", "1000000"]),
    JUNK,
    st.one_of(st.integers(-2, 4), st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=3)),
)
BAD_ENTRY = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.integers(10**308, 10**400),
    st.lists(st.floats(-9, 9), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(0, 2), max_size=2), min_size=1, max_size=2),
    st.none(),
)
FLAW = st.sampled_from(["none", "none", "none", "header", "shape", "entries"])


@st.composite
def _grid(draw, base, flaw):
    """``base`` as a grid of [re, im] pairs. A "shape" flaw adds or drops a row or
    a column; an "entries" flaw replaces up to three pairs, components or rows."""
    rows, cols = base.shape
    if flaw == "shape":
        delta = draw(st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1)]))
        rows, cols = max(rows + delta[0], 0), max(cols + delta[1], 0)
    values = np.zeros((rows, cols), dtype=complex)
    r, c = min(rows, base.shape[0]), min(cols, base.shape[1])
    values[:r, :c] = base[:r, :c]
    grid = np.stack([values.real, values.imag], -1).tolist()
    for _ in range(draw(st.integers(1, 3)) if flaw == "entries" else 0):
        i, j, part = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, 3))
        bad = draw(BAD_ENTRY)
        if part == 3:
            grid[i] = grid[i][:-1] if isinstance(grid[i], list) and draw(st.booleans()) else bad
        elif isinstance(grid[i], list) and j < len(grid[i]):
            if part == 2:
                grid[i][j] = bad
            elif isinstance(grid[i][j], list) and len(grid[i][j]) == 2:
                grid[i][j][part] = bad
    return grid


@st.composite
def map_document(draw):
    flaw = draw(FLAW)
    algebra = draw(BAD_ALGEBRA if flaw == "header" else VALID_COMPOSITION)
    try:
        alg = block_algebra(str(algebra))
    except ValueError:
        alg = block_algebra((1, 2))  # any grid: the document is rejected for its algebra
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["jordan", "gaussian", "zero"]))
    if kind == "jordan":
        orientation = draw(st.sampled_from(list(Orientation)))
        base = build_form_map(alg, JordanForm(orientation, bounded_similarity(alg.parts, rng))).coefficients
    else:
        base = gaussian(rng, alg.n**2, alg.dim) * (kind == "gaussian")
    return {"algebra": algebra, "coefficients": draw(_grid(base, flaw))}


@st.composite
def matrix_document(draw):
    """A matrix document and the composition argument to diagonalize it in."""
    flaw = draw(FLAW)
    composition = draw(VALID_COMPOSITION)
    n = size = block_algebra(composition).n
    if flaw == "header":  # a size that is not a positive int (True on a 1 x 1 grid), or a bad composition
        n = draw(st.sampled_from([True, False, 0, -1, float(size), str(size), None, 10**20]))
        size = 1 if n is True else size
        composition = draw(st.one_of(st.just("1"), VALID_COMPOSITION, BAD_ALGEBRA.map(str)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["upper", "dense", "repeated"]))
    base = {
        "upper": np.triu(gaussian(rng, size)),
        "dense": gaussian(rng, size),
        "repeated": np.eye(size, dtype=complex),
    }[kind]
    return {"n": n, "entries": draw(_grid(base, flaw))}, composition


RAW = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 3000).map(lambda k: b"[" * k + b"]" * k),
    st.integers(0, 3000).map(lambda k: b'{"n": ' * k),
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docfuzz") / "doc.json"


class TestDocumentFuzz:
    """Any map or matrix document, or any bytes, exits with a contract code, never a traceback."""

    @settings(max_examples=120, deadline=None)
    @given(doc=st.one_of(map_document(), matrix_document(), RAW))
    def test_contract_exit_codes(self, doc_path, doc):
        composition = "1,2"
        if isinstance(doc, tuple):
            doc, composition = doc
        if isinstance(doc, bytes):
            doc_path.write_bytes(doc)
        else:
            doc_path.write_text(json.dumps(doc), encoding="utf-8")
        if not isinstance(doc, dict) or "algebra" in doc:
            _run(["recover", str(doc_path)])
            _run(["verify", "--budget=2", str(doc_path)])
        if not isinstance(doc, dict) or "n" in doc:
            _run(["diagonalize", composition, str(doc_path)])
