"""blocktri benchmark: closed-loop workloads with oracles, and a traced run per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # certify, canon, cli in one process
    python3 perfbench/run.py --smoke                   # one tiny op per workload, every oracle

Run from a checkout that holds ``src/blocktri``. Each workload is a closed
loop with one client in one thread: the next op starts when the previous one
has finished. Inputs come from ``--seed``; every output is checked against
an oracle outside the timed region. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs each op untraced and traced
on the same input and reports the per-layer metrics. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the numpy import to take effect
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import SpanStats, Tracer  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Broken, Wrong, cgauss, make_workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11  # fresh processes timed for setup_s; the median is reported
REFERENCE_CALLS = 5  # reference kernel calls in each burst between two ops
SAMPLE_PERIOD_S = 0.05  # interval of the reference kernel calls inside an untraced op
COLD_START_SAMPLES = 5
COLD_START_ARGV = ["-m", "blocktri.cli", "embed-check", "1,2", "2,1"]
CHILD_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_blocktri():
    if not (SRC / "blocktri" / "__init__.py").is_file():
        fail(f"no blocktri sources under {SRC.relative_to(ROOT)}/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import blocktri
    import blocktri.cli  # noqa: F401  (binds blocktri.cli for the cli workload and the tracer)

    if Path(blocktri.__file__).resolve().parent != SRC / "blocktri":
        fail(f"imported blocktri from {blocktri.__file__}, not from {SRC}")
    return blocktri


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(bt) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "blocktri").glob("*.py")))
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_lines": src_lines,
        "public_names": len(bt.__all__),
    }


# ---------------------------------------------------------------------------


class Reference:
    """A fixed kernel of interpreter and small-numpy work that calls no blocktri code.

    The host's speed swings by +-20 % within a second and by more over
    minutes, in CPU time as in wall time, and it slows this kernel and the
    ops alike. The kernel runs in a burst between ops and, from a SIGALRM
    handler, every ``SAMPLE_PERIOD_S`` inside an untraced op; the op's time
    excludes those calls. Dividing an op's time by the median kernel time
    of the calls inside it and of the bursts on either side of it cancels
    most of the swing.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = [cgauss(rng, (16, 16)) for _ in range(8)]
        self.inside: list[float] = []  # kernel seconds of the calls inside the current op

    def kernel(self) -> int:
        s, table = 0, {}
        for i in range(3000):
            s += i * i % 7
            table[i % 97] = s
        for a in self.matrices:
            np.linalg.eigvals(a)
            np.linalg.inv(a)
            a @ a
            for row in a:
                s += int(row.real.sum() > 0)
        return s

    def timed_kernel(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def burst(self) -> list:
        return [self.timed_kernel() for _ in range(REFERENCE_CALLS)]

    def _sample(self, signum, frame) -> None:
        self.inside.append(self.timed_kernel())

    @contextlib.contextmanager
    def sampling(self):
        """Call the kernel every ``SAMPLE_PERIOD_S`` of the block, into ``inside``."""
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Tally:
    """Latencies and verdicts of the ops of one run."""

    def __init__(self):
        self.latency = {False: [], True: []}  # by traced: (k % cycle, seconds) per op
        self.reference = []  # per untraced op: median reference kernel seconds inside and around it
        self.verdicts = {"ok": 0, "wrong": 0, "error": 0}
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.verdicts["wrong"] + self.verdicts["error"]


def run_op(wl, inp, k: int, tracer, tally: Tally, reference: Reference | None = None, timed: bool = True) -> list:
    """Run one op (timed), then its oracle (untimed), and record both.

    Returns the reference kernel times sampled inside the op."""
    gc.collect()
    inside = contextlib.nullcontext()
    if tracer:
        inside = tracer.active(k)
    elif reference:
        inside = reference.sampling()
    with inside:
        t0 = time.perf_counter()
        try:
            out, crash = wl.run(inp), None
        except Exception:
            out, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        samples = list(reference.inside) if reference and not tracer else []  # those within the interval
    if timed:
        tally.latency[tracer is not None].append((k % wl.cycle, elapsed - sum(samples)))
    verdict, why = "ok", None
    if crash:
        verdict, why = "error", crash
    else:
        try:
            wl.check(inp, out)
        except Wrong as exc:
            verdict, why = "wrong", str(exc)
        except Broken as exc:
            verdict, why = "error", str(exc)
        except Exception:  # an oracle that cannot read the output: the output is wrong
            verdict, why = "wrong", traceback.format_exc()
    tally.verdicts[verdict] += 1
    if why:
        tally.failures.append(f"op {k} ({'traced' if tracer else 'untraced'}): {verdict}: {why}")
    return samples


def measure(wl, first_input, seconds: float, tracer) -> Tally:
    """Run at least one whole cycle of ops, then stop when another op would
    overshoot ``seconds`` by more than half an op.

    An untraced run first runs op 0 once untimed (lazy imports, file and
    allocator caches), and runs a reference burst before the first timed op
    and after every one.
    """
    tally = Tally()
    reference = None if tracer else Reference()
    if reference and seconds > 0:
        run_op(wl, first_input, 0, None, tally, timed=False)
    before = reference.burst() if reference else None
    k = 0
    begin = time.perf_counter()
    while True:
        op_begin = time.perf_counter()
        inp = first_input if k == 0 else wl.make_input(k)
        if tracer is None:
            samples = run_op(wl, inp, k, None, tally, reference)
            after = reference.burst()
            tally.reference.append(statistics.median(before + samples + after))
            before = after
        else:
            for mode in [None, tracer] if k % 2 == 0 else [tracer, None]:
                run_op(wl, inp, k, mode, tally)
        k += 1
        now = time.perf_counter()
        if k >= wl.cycle and now - begin + (now - op_begin) / 2 >= seconds:
            return tally


def fresh_process_samples(argv: list, samples: int, parse) -> list:
    values = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        values.append(parse(proc.stdout, elapsed))
    return values


def setup_samples(name: str, seed: int, smoke: bool, samples: int) -> list:
    argv = [str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    return fresh_process_samples(argv, samples, lambda stdout, _: float(stdout.split()[-1]))


def cold_start_ms(samples: int) -> float:
    times = fresh_process_samples(COLD_START_ARGV, samples, lambda _, elapsed: elapsed * 1e3)
    return statistics.median(times)


def end_to_end(tally: Tally, setup: list) -> dict:
    """name -> (value, unit, samples)."""
    by_kind, ratio_by_kind = {}, {}
    for (kind, seconds), ref in zip(tally.latency[False], tally.reference):
        by_kind.setdefault(kind, []).append(seconds)
        ratio_by_kind.setdefault(kind, []).append(seconds / ref)
    lat = [seconds for _, seconds in tally.latency[False]]
    n = len(lat)
    # every kind of a workload's cycle weighs the same, however many ran
    out = {
        "op_time_ref": (statistics.fmean(statistics.median(v) for v in ratio_by_kind.values()), "ref", n),
        "ops_per_s": (len(by_kind) / sum(statistics.fmean(v) for v in by_kind.values()), "1/s", n),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", n),
        "reference_ms": (statistics.median(tally.reference) * 1e3, "ms", n),
        "wrong_frac": (tally.verdicts["wrong"] / tally.attempted, "frac", tally.attempted),
        "error_frac": (tally.verdicts["error"] / tally.attempted, "frac", tally.attempted),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if n >= 100:  # so that at least ten samples lie beyond the 90th percentile
        out["op_p90_ms"] = (statistics.quantiles(lat, n=10)[8] * 1e3, "ms", n)
    return out


def per_layer(spec: dict, tracer: Tracer, tally: Tally, cold_samples: int) -> dict:
    """name -> (value, unit, samples)."""
    traced = [seconds for _, seconds in tally.latency[True]]
    untraced = [seconds for _, seconds in tally.latency[False]]
    stats = SpanStats(tracer, len(traced), sum(traced))
    measured = {
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1.0, len(traced)),
        "cli.cold_start_ms": (cold_start_ms(cold_samples), cold_samples),
    }
    out = {}
    for m in spec["per_layer"]:
        value, samples = measured[m["name"]] if m["name"] in measured else (stats.metric(m["name"]), len(traced))
        out[m["name"]] = (value, m["unit"], samples)
    return out


def set_up(name: str, args, bt) -> tuple:
    """Everything ``setup_s`` times: the workload's inputs and the first op's input."""
    OUT.mkdir(exist_ok=True)
    wl = make_workload(name, bt, args.seed, SMOKE if args.smoke else FULL, str(OUT))
    try:
        return wl, wl.make_input(0)
    except BaseException:
        wl.close()
        raise


def bench(name: str, args, bt, spec: dict) -> tuple:
    wl, first_input = set_up(name, args, bt)
    tracer = Tracer(bt) if args.trace else None
    try:
        tally = measure(wl, first_input, args.seconds, tracer)
    finally:
        wl.close()
    if args.trace:
        metrics = per_layer(spec, tracer, tally, 1 if args.smoke else COLD_START_SAMPLES)
        tracer.save(str(OUT / f"spans-{name}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end(tally, setup_samples(name, args.seed, args.smoke, 1 if args.smoke else SETUP_SAMPLES))
    return tally, metrics


def report(name: str, tally: Tally, metrics: dict) -> None:
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:8s} {metric:48s} {value:14.6g} {unit:8s} (n={samples})")
    cover = metrics.get("trace.span_cover_frac")
    if cover and cover[0] < 0.95:
        print(f"{name:8s} warning: module self times cover only {cover[0]:.1%} of the traced op wall time")
    for failure in tally.failures[:5]:
        print(f"{name:8s} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny op per workload (n <= 8); checks oracles, gates nothing")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    bt = import_blocktri()
    names = WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    if args.setup_probe:
        wl, _ = set_up(names[0], args, bt)
        print(f"{time.perf_counter() - T_START:.9f}")
        wl.close()
        return 0
    if args.smoke:
        args.seconds = 0.0
    env = environment(bt)
    print("env " + json.dumps(env, sort_keys=True))
    # the smoke check runs every workload both untraced and traced
    passes = [(name, trace) for name in names for trace in ((0, 1) if args.smoke else (args.trace,))]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name, trace in passes:
        args.trace = trace
        tally, metrics = bench(name, args, bt, spec)
        report(name, tally, metrics)
        records[f"{name}-trace{trace}"] = {
            "verdicts": tally.verdicts,
            "failures": tally.failures,
            "latency_s": {"traced" if k else "untraced": v for k, v in tally.latency.items()},
            "metrics": metrics,
        }
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in spec["per_layer" if trace else "end_to_end"]:
            value, unit, _ = metrics[metric["name"]]
            result["metrics"][prefix + metric["name"]] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    label = "smoke" if args.smoke else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{label}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "workloads": records, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
