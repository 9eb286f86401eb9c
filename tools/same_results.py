"""Hash the output corpora of blocktri, so two versions can be shown to give the same results.

    PYTHONPATH=src python3 tools/same_results.py

prints one sha256 per corpus for whichever ``blocktri`` is importable:

- ``cli``: (exit code, stdout, stderr) of every case of perfbench's ``cli``
  workload, at seeds 1-3 and at both the FULL and the SMOKE sizes;
- ``gallery``: ``canonical_json(run_gallery_suite(name, budget, seed))`` for
  every gallery name, budgets 0, 1, 5, 17 and 100, and seeds 0-39;
- ``certify``: every field and witness of ``is_jordan``, ``full_report`` and
  ``check_multiplicity_preserving`` (as perfbench's ``certify`` op calls them)
  on that workload's inputs 0-5 at seeds 1-3, FULL and SMOKE sizes;
- ``certify-verdicts``: only the verdict flags of those same calls
  (``is_jordan`` ok, the three ``full_report`` flags, multiplicity ok), so a
  change that moves worst values by design can show its verdicts did not move;
- ``certify-no-worst``: every field and witness of those same calls but the
  worst values (``worst``, ``worst_violation``), so such a change can show
  that it moved nothing else;
- ``unit-pairs``: every field of the ``unit_pairs`` (``jordan``, ``p``, ``q``,
  ``commutator``) of each input map of that ``certify`` corpus, so a change to
  the unit-pair pass that moves any pair's bits shows, not only the worst
  pair's; the maps cache their pass, so this adds none;
- ``canon``: every outcome of perfbench's ``canon`` op (``recover_form`` on
  the form map and on the perturbed map, ``diagonalize_in_algebra`` twice,
  ``schur`` and ``triangular_idempotent_form``) on inputs 0-3 at seeds 1-3,
  FULL and SMOKE sizes.

Run it against two source trees (``PYTHONPATH=<tree>/src``) and compare the
lines. It imports ``perfbench/workloads.py`` without writing a bytecode cache
and writes documents only into a temporary directory, whose path is replaced
by a fixed token in the cli output. BLAS runs on one thread, as in perfbench,
because a thread count can move last bits. Floats are hashed exactly, by
``float.hex``; arrays by dtype, shape and bytes; enum members by type and value.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import to take effect

import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import blocktri  # noqa: E402
import blocktri.cli  # noqa: E402,F401  (binds blocktri.cli for the cli workload)
from blocktri.documents import canonical_json  # noqa: E402

SEEDS = (1, 2, 3)
GALLERY_BUDGETS = (0, 1, 5, 17, 100)
GALLERY_SEEDS = range(40)
CERTIFY_OPS = range(6)  # two whole cycles of inner, anti-transpose and perturbed maps
CANON_OPS = range(4)
DOCS_TOKEN = "<docs>"


def load_workloads():
    """Import perfbench/workloads.py as a module, writing no ``__pycache__``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def canonical(obj):
    """A nested tuple of strings that determines ``obj`` exactly: floats in hex,
    arrays by dtype, shape and bytes, records, enum members and exceptions with their type."""
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, canonical(obj.value))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if isinstance(obj, BaseException):
        return (type(obj).__name__, str(obj))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, canonical({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}))
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a NamedTuple
        return (type(obj).__name__, canonical(obj._asdict()))
    if isinstance(obj, dict):
        return ("dict",) + tuple((canonical(k), canonical(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(canonical(v) for v in obj)
    if isinstance(obj, (bool, np.bool_, int, str)):
        return repr(obj)
    if isinstance(obj, (float, np.floating)):
        return ("float", float(obj).hex())
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(canonical(item)).encode())
        h.update(b"\n")
    return h.hexdigest()


def cli_corpus(wl_module, workdir: str):
    for size in (wl_module.FULL, wl_module.SMOKE):
        for seed in SEEDS:
            wl = wl_module.make_workload("cli", blocktri, seed, size, workdir)
            try:
                for code, stdout, stderr in wl.run(None):
                    yield code, stdout.replace(wl.dir, DOCS_TOKEN), stderr.replace(wl.dir, DOCS_TOKEN)
            finally:
                wl.close()


def gallery_corpus():
    for name in sorted(blocktri.GALLERY):
        for budget in GALLERY_BUDGETS:
            for seed in GALLERY_SEEDS:
                yield canonical_json(blocktri.run_gallery_suite(name, budget=budget, seed=seed))


def op_runs(wl_module, name: str, ops, workdir: str):
    """(input, outcome) of workload ``name``'s op on inputs ``ops``, seeds 1-3, FULL and SMOKE sizes."""
    for size in (wl_module.FULL, wl_module.SMOKE):
        for seed in SEEDS:
            wl = wl_module.make_workload(name, blocktri, seed, size, workdir)
            for k in ops:
                inp = wl.make_input(k)
                yield inp, wl.run(inp)


def verdicts(outcome):
    """The verdict flags of one certify outcome; a call that raised gives its exception."""
    jordan, report, multiplicity = outcome

    def flags(result, *names):
        return result if isinstance(result, BaseException) else tuple(getattr(result, f) for f in names)

    return (
        flags(jordan, "ok"),
        flags(report, "spectrum_preserving", "spectrum_shrinking", "commutativity_preserving"),
        flags(multiplicity, "ok"),
    )


def without_worst(outcome):
    """One certify outcome with its worst values dropped: each result as its other fields."""

    def fields(result):
        if isinstance(result, BaseException):
            return result
        named = result._asdict() if isinstance(result, tuple) else vars(result)  # a NamedTuple or a dataclass
        return {name: value for name, value in named.items() if name not in ("worst", "worst_violation")}

    return tuple(map(fields, outcome))


def main() -> int:
    print(f"blocktri from {Path(blocktri.__file__).parent}", file=sys.stderr)
    wl_module = load_workloads()
    with tempfile.TemporaryDirectory(prefix="same-results-") as workdir:
        print(f"cli {digest(cli_corpus(wl_module, workdir))}")
        print(f"gallery {digest(gallery_corpus())}")
        inputs, certify = zip(*op_runs(wl_module, "certify", CERTIFY_OPS, workdir))
        print(f"certify {digest(certify)}")
        print(f"certify-verdicts {digest(map(verdicts, certify))}")
        print(f"certify-no-worst {digest(map(without_worst, certify))}")
        print(f"unit-pairs {digest(m.unit_pairs for _, m, _ in inputs)}")
        print(f"canon {digest(out for _, out in op_runs(wl_module, 'canon', CANON_OPS, workdir))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
