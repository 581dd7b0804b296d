#!/usr/bin/env python3
"""Paired A/B timings of tsvar's layers: parsing, kernel passes,
enumeration, CLI calls and start-up, on this tree and optionally another.

Every case sets up on one tree and gives a function that times one sample
on the case's own clock:

- ``parse``: ``parse`` of three Lagrangian bodies, the quartic's, an LQ
  one and one with calls; a sample is the mean CPU time of one call over
  a loop of about 20 ms.
- ``kernel``: ``Lagrangian.partials`` on k random frames (k = 21, 121,
  1001, 10001) for four bodies in n = 1 and n = 3, first order, and second
  order with the mask Newton's Jacobian uses (t held at every frame, u at
  the last); a sample is the mean CPU time of one pass over a loop of about
  10 ms.
- ``enumeration``: ``enumerate_slope_extremals`` on the quartic file, the
  quartic on 12 uniform gaps, an LQ body on 14 alternating gaps, and
  v1^2 + 0.5*u1^2 on 2 gaps over 3000 letters; a sample is the mean CPU
  time of one call over a loop of about 50 ms.  Its columns give the
  boundary hits (rows kept at tol = inf), the frames the kernel received
  and the rows kept.
- ``call``: one ``tsvar.cli.main`` call, by wall clock, right after a loop
  that reads about 16 MB of small objects in a scattered order, so the call
  finds its code and data out of the caches.  Its column gives the exit
  code, which must be the same on every call of both trees.
- ``startup``: a fresh child of this interpreter, by wall clock, that runs
  the interpreter alone, imports numpy, imports ``tsvar.cli`` or runs
  ``tsvar scale-info``, on a copy of the tree's ``tsvar`` with a bytecode
  cache (filled by an untimed first run) and without one (it compiles
  tsvar's sources every run, as in a fresh checkout).

CPU time leaves out the time a shared machine takes the CPU away.  Each
case runs once, untimed or to size its loop, before it is timed.

    PYTHONPATH=src python scripts/ab_timing.py [--repeat R]

R, the samples of each case, defaults to 1: a smoke run that shows every
case runs.  A timing claim takes 31 (below).

With ``--against SRC_DIR`` the ``tsvar`` package under SRC_DIR (the ``src``
directory of another checkout) is imported as well, under another name,
and every repeat takes one sample of each tree, the order swapped every
repeat.  Each row then gives both trees' medians, the median over repeats
of the ratio of the two samples of one repeat (this tree's over the
other's), a distribution-free 95% interval for that median (the sign-test
interval; Hollander & Wolfe, *Nonparametric Statistical Methods*; it needs
6 repeats at least) and the repeats this tree won.  An interval wholly
below 1 says this tree is faster on that case.  Each row has its own
interval, so on unchanged code about one row in twenty excludes 1 by
chance.  A row whose interval lies wholly above 1 is therefore rerun
alone, in process, for 31 repeats (``run_case`` on that one case), and
it counts against this tree only if the rerun's interval lies wholly
above 1 too.

    PYTHONPATH=src python scripts/ab_timing.py --repeat 31 --against OTHER/src

The last line of stdout is one JSON record, the ``BENCH_<pr>.json``
format: the interpreter and numpy versions, numpy's BLAS and the BLAS
thread variables, the CPU model and the usable CPUs, each tree's commit
(null outside a git checkout, ``-dirty`` when its ``tsvar`` differs from
it) and the sha256 of its ``tsvar/*.py``, and every case's figures in
seconds.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import timeit
from functools import partial
from pathlib import Path

import numpy as np

import tsvar

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
QUARTIC, QUADRATIC = str(PROBLEMS / "quartic.json"), str(PROBLEMS / "quadratic.json")

# per component j of q, summed over j = 1..n
BODIES = {
    "lq": "1.3*t*v{j}^2 + 0.7*u{j}^2",
    "quartic": "(v{j}^2 - 1)^2",
    "exp-sin-sqrt-log": (
        "exp(0.3*v{j}) + sin(u{j}) + sqrt(v{j}^2 + 1) + log(t*u{j}^2 + 1)"
    ),
    "powers": "t^1.5*v{j}^2 + sqrt(u{j}^2 + 1) + u{j}^(t - t + 3)",
}
PARSES = ("(v1^2 - 1)^2", "1.3*t*v1^2 + 0.7*u1^2", "sin(u1) * exp(-t) + cos(v1)^2")
ENUMERATIONS = (
    "quartic.json", "quartic, 12 gaps", "v1^2 + 1.3*u1^2, 14 gaps", "3000 letters, 2 gaps"
)
CALLS = {
    "solve, Newton, N = 61": lambda d: ["solve", newton_file(d), "--json", str(d / "r.json")],
    "solve --enumerate": lambda d: [
        "solve", QUARTIC, "--enumerate=-1,0,1", "--filter-second-el", "--json", str(d / "r.json")
    ],
    "verify": lambda d: ["verify", QUARTIC],
    "noether --solve": lambda d: ["noether", QUADRATIC, "--solve"],
    "scale-info": lambda d: ["scale-info", QUADRATIC],
}
COMMANDS = {
    "python": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import tsvar.cli": ["-c", "import tsvar.cli"],
    "tsvar scale-info": [
        "-c", "from tsvar.cli import main_entry; main_entry()", "scale-info", QUADRATIC
    ],
}
FLUSH_OBJECTS = 200_000  # tuples of a float and 1.0: 80 bytes each, with the float
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_tree(src: Path):
    """The ``tsvar`` package under ``src``, imported as ``tsvar_against``."""
    init = src / "tsvar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no tsvar package under {src}")
    spec = importlib.util.spec_from_file_location(
        "tsvar_against", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def cpu_loop(call, seconds: float):
    """A sample function: the mean CPU time of one call over a loop of
    about ``seconds``, with the garbage collector off."""
    t = timeit.Timer(call, timer=time.process_time)
    number = max(1, int(seconds / max(t.timeit(1), 1e-7)))
    return lambda: t.timeit(number) / number


def parse(text: str, pkg, scratch: Path):
    return cpu_loop(lambda: pkg.parse(text, ("t", "u1", "v1")), 0.02), {}


def kernel(body: str, n: int, k: int, order: int, pkg, scratch: Path):
    L = pkg.Lagrangian(n, " + ".join(body.format(j=j) for j in range(1, n + 1)))
    rng = np.random.default_rng([n, k])
    t = np.sort(rng.uniform(1.0, 2.0, k))
    U, V = rng.uniform(0.5, 1.5, (2, k, n))
    moving = np.ones((k, 2 * n + 1), dtype=bool)
    moving[:, 0] = moving[-1, 1 : n + 1] = False
    if order == 1:
        return cpu_loop(lambda: L.partials(t, U, V), 0.01), {}
    return cpu_loop(lambda: L.partials(t, U, V, order=2, moving=moving), 0.01), {}


def enumeration(name: str, pkg, scratch: Path):
    T, Lagrangian, Problem = pkg.TimeScale, pkg.Lagrangian, pkg.VariationalProblem
    letters = (-1.0, 0.0, 1.0)
    if name == "quartic.json":
        p = importlib.import_module(f"{pkg.__name__}.cli").load_problem(QUARTIC).problem
    elif name == "quartic, 12 gaps":
        p = Problem(T.uniform(0, 1, 1 / 12), Lagrangian(1, "(v1^2 - 1)^2"), [0.0], [0.0])
    elif name == "v1^2 + 1.3*u1^2, 14 gaps":
        scale = T.from_points(np.cumsum([0.0] + [0.125, 0.0625] * 7))
        p = Problem(scale, Lagrangian(1, "v1^2 + 1.3*u1^2"), [0.0], [0.0])
    else:  # the walk extends its second level in many small passes
        p = Problem(T.uniform(0, 1, 0.5), Lagrangian(1, "v1^2 + 0.5*u1^2"), [0.0], [0.0])
        letters = tuple(np.linspace(-1, 1, 3000).tolist())
    frames, partials = [], Lagrangian.partials

    def counted(self, t, *args, **kwargs):
        frames.append(np.size(t))
        return partials(self, t, *args, **kwargs)

    Lagrangian.partials = counted  # for this one call
    try:
        rows = len(pkg.enumerate_slope_extremals(p, letters))
    finally:
        Lagrangian.partials = partials
    hits = len(pkg.enumerate_slope_extremals(p, letters, tol=np.inf))
    sample = cpu_loop(lambda: pkg.enumerate_slope_extremals(p, letters), 0.05)
    return sample, {"hits": hits, "frames": sum(frames), "rows": rows}


def newton_file(directory: Path) -> str:
    """A problem file that Newton solves: 1.3*t*v1^2 + 0.7*u1^2 on 61
    points of [1, 2], each gap jittered by up to 30%, q -0.7 -> 0.8."""
    rng = np.random.default_rng(61)
    points = np.concatenate([[0.0], (1.0 + 0.3 * rng.uniform(-1.0, 1.0, 60)).cumsum()])
    scale = {"points": (1.0 + points / points[-1]).tolist()}
    problem = {"version": "tsvar/1", "scale": scale, "lagrangian": "1.3*t*v1^2 + 0.7*u1^2"}
    path = directory / "newton.json"
    path.write_text(json.dumps({**problem, "q_a": -0.7, "q_b": 0.8}))
    return str(path)


def call(argv_in, pkg, scratch: Path):
    main, argv = importlib.import_module(f"{pkg.__name__}.cli").main, argv_in(scratch)
    working_set = [(float(i), 1.0) for i in range(FLUSH_OBJECTS)]

    def timed() -> tuple[int, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            code = main(argv)
            return code, time.perf_counter() - t0

    code = timed()[0]  # fills lazy caches

    def sample() -> float:
        total, n = 0.0, len(working_set)
        for j in range(n):  # the flush
            total += working_set[(j * 7919) % n][0]
        got, seconds = timed()
        if got != code:
            raise SystemExit(f"{argv[0]}: exit code {got} after {code}")
        return seconds

    return sample, {"exit": code}


def startup(args: list, cached: bool, pkg, scratch: Path):
    if not (scratch / "tsvar").is_dir():  # one copy and one cache for all start-up cases
        package = Path(pkg.__file__).parent
        shutil.copytree(package, scratch / "tsvar", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(scratch), *filter(None, [env.get("PYTHONPATH")])])
    if cached:
        env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"

    def sample() -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], env=env, cwd=scratch, check=True, stdout=subprocess.DEVNULL
        )
        return time.perf_counter() - start

    sample()  # fills the cache
    return sample, {}


CASES = {
    **{f"parse {text}": partial(parse, text) for text in PARSES},
    **{
        f"kernel {name} n={n} k={k} order {order}": partial(kernel, body, n, k, order)
        for name, body in BODIES.items()
        for n in (1, 3)
        for k in (21, 121, 1001, 10001)
        for order in (1, 2)
    },
    **{f"enumeration {name}": partial(enumeration, name) for name in ENUMERATIONS},
    **{f"call {name}": partial(call, argv) for name, argv in CALLS.items()},
    **{
        f"startup {name}, {mode}": partial(startup, args, mode == "cache")
        for name, args in COMMANDS.items()
        for mode in ("cache", "no cache")
    },
}


def sign_interval(ratios, level: float = 0.95):
    """The distribution-free interval for the median of ``ratios``:
    [r_(k), r_(n+1-k)] of the sorted ratios, with the largest k whose
    two-sided sign-test tail 2 P(B <= k - 1), B ~ Binomial(n, 1/2), is at
    most 1 - level; None when no k qualifies (under 6 ratios at 95%)."""
    r, k, tail = np.sort(ratios), 0, 0.0
    while 2 * (tail + math.comb(r.size, k) / 2**r.size) <= 1 - level:
        tail += math.comb(r.size, k) / 2**r.size
        k += 1
    return None if k == 0 else [float(r[k - 1]), float(r[r.size - k])]


def figures(seconds: np.ndarray) -> dict:
    """Each tree's median, and for two trees the median paired ratio, its
    interval and the repeats the first tree won, from samples of shape
    (repeat, trees)."""
    out = {"median_s": np.median(seconds, axis=0).tolist()}
    if seconds.shape[1] == 1:
        return out | {"ratio": None, "interval": None, "won": None}
    ratios = seconds[:, 0] / seconds[:, 1]
    return out | {
        "ratio": float(np.median(ratios)),
        "interval": sign_interval(ratios),
        "won": int((ratios < 1).sum()),
    }


def run_case(name: str, packages: list, scratch: list, repeat: int) -> dict:
    """One case's figures: set up on each package, with its scratch
    directory, then every repeat samples each tree once, in alternation,
    the order swapped every repeat."""
    made = [CASES[name](pkg, directory) for pkg, directory in zip(packages, scratch)]
    extras = [extra for _, extra in made]
    if any(extra != extras[0] for extra in extras if "exit" in extra):
        raise SystemExit(f"{name}: exit codes differ: {extras}")
    seconds = np.empty((repeat, len(made)))
    for i in range(repeat):
        for k in range(len(made)) if i % 2 == 0 else reversed(range(len(made))):
            seconds[i, k] = made[k][0]()
    return {"case": name, **figures(seconds), "extra": extras[0]}


def tree(pkg) -> dict:
    """The commit and the sha256 of the ``tsvar/*.py`` files of ``pkg``'s tree."""
    package = Path(pkg.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = partial(subprocess.run, capture_output=True, text=True, cwd=package)
    commit = git(["git", "rev-parse", "HEAD"]).stdout.strip() or None
    if commit and git(["git", "status", "--porcelain", "--", "."]).stdout:
        commit += "-dirty"
    return {"commit": commit, "sha256": digest.hexdigest()}


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        models = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
        cpu = next(models, cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def row(figure: dict) -> str:
    cells = [f"{figure['case']:<44}", *(f"{s * 1e3:10.4g}" for s in figure["median_s"])]
    if figure["ratio"] is not None:
        interval = "[%.3f, %.3f]" % tuple(figure["interval"]) if figure["interval"] else "-"
        cells += [f"{figure['ratio']:7.3f}", f"{interval:>16}", f"{figure['won']:>4}"]
    return "".join(cells + [f"  {key} {value}" for key, value in figure["extra"].items()])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--against", type=Path, metavar="SRC_DIR")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    packages = [tsvar] + ([load_tree(args.against.resolve())] if args.against else [])
    record = {**machine(), "repeat": args.repeat, "trees": [tree(pkg) for pkg in packages]}
    print(f"Python {record['python']}, numpy {record['numpy']}, {record['blas']}")
    head = f"{'case':<44}{'ms':>10}"
    if args.against:
        head += f"{'against':>10}{'ratio':>7}{'95% interval':>16}{'won':>4}"
    print(head)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = [Path(tempfile.mkdtemp(dir=tmp)) for _ in packages]
        record["cases"] = []
        for name in CASES:
            record["cases"].append(run_case(name, packages, scratch, args.repeat))
            print(row(record["cases"][-1]), flush=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
