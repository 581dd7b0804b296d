"""tsvar benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload {enumerate,solve,verify} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. sets up ``SETUP_REPEATS`` times (fresh import of tsvar, seeded input
   generation, oracle answers, a warm-up round at smoke size) and reports
   the median as ``setup_s``;
2. runs whole rounds of the workload's operations, one at a time, and
   checks every output against the oracle;
3. prints one ``{"info": ...}`` line (environment, sample counts, tail
   percentile, per-operation medians, failures; the trace summary and size
   exponents in trace mode) and, last, the result object.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run spends half its rounds untraced and half traced
and reports the per-layer ones; spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The number of rounds is ``round(seconds / NOMINAL_ROUND_S[workload])``:
the rounds take about ``--seconds`` at the commit that defined the
benchmark, and two commits compared with the same ``--seconds`` run
exactly the same operations.

Times are reported in *reference seconds*.  The speed of a shared virtual
CPU drifts by about 20% over seconds, so a fixed pure-Python calibration
loop runs before the first operation and after every operation, and each
operation's wall time is scaled by ``CAL_REF_S`` over the mean of the two
calibrations around it.  The raw wall-clock figures are in the info line.
"""

from __future__ import annotations

import os

# single-threaded BLAS (<= nproc), set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "tsvar"
OUT = ROOT / ".bench_out"

# seconds per round at the commit that defined the benchmark (2-core Xeon)
NOMINAL_ROUND_S = {"enumerate": 6.0, "solve": 7.5, "verify": 10.0}
SETUP_REPEATS = 5
# a run stops starting rounds after this many times --seconds
OVERRUN = 4.0
TAIL_BEYOND = 10
# median time of calibrate() on the reference machine; the unit of every
# reported time.  Changing it, or calibrate(), breaks comparisons.
CAL_REF_S = 0.027
CAL_ITERS = 4000
CAL_OBJECTS = 50_000


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} is missing")
    return json.loads(path.read_text())


def import_package():
    """Import tsvar afresh from src/, so each setup pays for the import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC.name}/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ts = importlib.import_module(PACKAGE)
    for sub in ("cli", "solver", "variational", "noether", "timescale", "expr"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    if SRC.resolve() not in Path(ts.__file__).resolve().parents:
        raise BenchError(f"{PACKAGE} was imported from {ts.__file__}, not from {SRC.name}/")
    return ts


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


_working_set: list[_Pair] = []


def calibrate() -> float:
    """Seconds taken by a fixed loop that does what tsvar's hot paths do:
    frozen-dataclass construction, dict access and float math; scattered
    reads over a few megabytes of small objects; small numpy array ops."""
    if not _working_set:
        _working_set.extend(_Pair(float(i), 1.0) for i in range(CAL_OBJECTS))
    t0 = time.perf_counter()
    acc = _Pair(0.0, 1.0)
    for _ in range(CAL_ITERS):
        acc = _Pair(acc.a + acc.b * 1e-6, acc.b * 0.9999 + 1e-4)
        env = {"x": acc.a, "y": acc.b}
        acc = _Pair(env["x"], math.sqrt(env["y"] * env["y"]))
    total = 0.0
    for j in range(0, CAL_OBJECTS, 3):
        p = _working_set[(j * 7919) % CAL_OBJECTS]
        total += p.a * p.b
    x = np.arange(20000.0)
    for _ in range(10):
        x = np.diff(np.concatenate(([0.0], x))) + 1.0
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Sample:
    """One operation: its call time and its call-plus-check time, in wall
    seconds, and ``scale`` = CAL_REF_S / the calibration around it."""

    label: str
    raw_s: float
    segment_s: float
    scale: float

    @property
    def ref_s(self) -> float:
        return self.raw_s * self.scale


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate inputs and expected answers, warm up; timed."""
    from workloads import build, checked, run_op

    t0 = time.perf_counter()
    ts = import_package()
    ops = build(workload, seed, "full", workdir / "ops", ts)
    warm = build(workload, seed, "smoke", workdir / "warm", ts)
    failures = []
    for op in warm:
        reason = checked(op, run_op(op, ts))
        if reason:
            failures.append(f"warm-up {op.label}: {reason}")
    return time.perf_counter() - t0, ts, ops, warm, failures


def measure(ts, ops, rounds: int, limit_s: float, tracer=None, first_id: int = 0):
    """Run whole rounds, calibrating between operations.

    Returns the samples and the failure reasons."""
    from workloads import checked, run_op

    samples, failures = [], []
    t0 = time.perf_counter()
    op_id = first_id
    before = calibrate()
    for _ in range(rounds):
        for op in ops:
            s0 = time.perf_counter()
            outcome = run_op(op, ts, tracer, op_id)
            reason = checked(op, outcome)
            segment = time.perf_counter() - s0
            after = calibrate()
            samples.append(Sample(op.label, outcome.elapsed, segment, 2.0 * CAL_REF_S / (before + after)))
            before = after
            op_id += 1
            if reason:
                failures.append(f"{op.label}: {reason}")
                print(f"FAIL {op.label}: {reason}", file=sys.stderr)
        if time.perf_counter() - t0 > limit_s:
            break
    return samples, failures


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_label(samples: list[Sample]) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for x in samples:
        by.setdefault(x.label, []).append(x.ref_s)
    return {k: statistics.median(v) for k, v in by.items()}


def timings(samples: list[Sample], ref: bool) -> dict[str, float]:
    """p50, tail and throughput, in reference or in wall seconds."""
    times = [x.ref_s if ref else x.raw_s for x in samples]
    busy = sum(x.segment_s * (x.scale if ref else 1.0) for x in samples)
    tail_s, tail_pct = tail(times)
    return {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "ops_per_s": len(times) / busy,
    }


def environment(seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def select(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    spec = load_spec()
    from tracing import Tracer

    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    limit = OVERRUN * seconds
    setups, setups_raw, failures, warm_ops = [], [], [], 0
    before = calibrate()
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, ts, ops, warm, warm_fail = setup(workload, seed, workdir)
        after = calibrate()
        setups_raw.append(elapsed)
        setups.append(elapsed * 2.0 * CAL_REF_S / (before + after))
        before = after
        failures += warm_fail
        warm_ops += len(warm)
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_per_round": len(ops),
        "setup_runs_ref_s": setups,
        "setup_runs_wall_s": setups_raw,
        "environment": environment(seed),
    }

    if not trace:
        samples, fails = measure(ts, ops, rounds, limit)
        failures += fails
        values = timings(samples, ref=True)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = select(spec["end_to_end"], values)
        info.update(
            rounds=len(samples) // len(ops),
            op_samples=len(samples),
            op_tail_percentile=values["op_tail_percentile"],
            wall_clock=timings(samples, ref=False) | {"setup_s": statistics.median(setups_raw)},
            speed_scale_median=statistics.median(x.scale for x in samples),
        )
    else:
        half = max(1, rounds // 2)
        plain, fails = measure(ts, ops, half, limit / 2)
        failures += fails
        tracer = Tracer()
        tracer.install(ts)
        try:
            traced, fails = measure(ts, ops, half, limit / 2, tracer, first_id=len(plain))
        finally:
            tracer.uninstall()
        failures += fails
        samples = plain + traced
        p50_plain = statistics.median(x.ref_s for x in plain)
        p50_traced = statistics.median(x.ref_s for x in traced)
        values = tracer.metrics(p50_plain, p50_traced, statistics.median(x.scale for x in traced))
        metrics = select(spec["per_layer"], values)
        exponents = tracer.size_exponents()
        trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
        info.update(
            rounds_untraced=len(plain) // len(ops),
            rounds_traced=len(traced) // len(ops),
            op_p50_untraced_s=p50_plain,
            op_p50_traced_s=p50_traced,
            unaccounted_s_total=tracer.layer_self["bench"],
            traced_op_s_total=sum(tracer.op_times),
            n_exp=exponents,
            all_layer_metrics=values,
            trace=tracer.summary(),
            trace_file=str(trace_file.relative_to(ROOT)),
        )
        tracer.write(trace_file, {"workload": workload, "seed": seed, "n_exp": exponents})
    info["per_op_p50_s"] = per_label(samples)
    info["failures"] = failures[:20]
    attempted = len(samples) + warm_ops
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
