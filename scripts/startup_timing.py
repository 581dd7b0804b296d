#!/usr/bin/env python3
"""Milliseconds of start-up: what a tsvar command pays before any work.

Times fresh subprocesses of this interpreter, by wall clock, that run
``python -c pass`` (the interpreter alone), ``python -c "import numpy"``
(and numpy), ``python -c "import tsvar.cli"`` (and tsvar's import) and
``tsvar scale-info problems/quadratic.json`` (and a small command), each
with a bytecode cache and without one, and prints the median over
repeats; every repeat runs each row once, so the rows' medians sample
the same spells of a shared machine's speed.  The interpreter and numpy
versions head the table.  The ``tsvar`` sources are copied to a
temporary directory first.  Without a cache a child runs with
PYTHONDONTWRITEBYTECODE set, so it compiles tsvar's sources on every run,
as in a fresh checkout, and reads the installed caches of the standard
library and numpy; with one it runs with a temporary PYTHONPYCACHEPREFIX,
which an untimed first repeat fills.  Only the children's environment is
changed.

    python scripts/startup_timing.py [--repeat R]

With ``--against SRC_DIR`` the ``tsvar`` package under SRC_DIR (the
``src`` directory of another checkout) is timed as well, each run in
alternation with this tree's, the order swapped every repeat; each row
then also gives the other tree's median and the ratio, this tree's over
the other's: the median over repeats of the ratio of the two runs of one
repeat, as ``kernel_timing.py --against`` gives it.

    python scripts/startup_timing.py --against OTHER/src
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "python": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import tsvar.cli": ["-c", "import tsvar.cli"],
    "tsvar scale-info": [
        "-c", "from tsvar.cli import main_entry; main_entry()",
        "scale-info", str(ROOT / "problems" / "quadratic.json"),
    ],
}
MODES = ("cache", "no cache")


def environments(src: Path, scratch: Path) -> dict:
    """The children's environments, by mode, for the ``tsvar`` package
    under ``src``, which is copied into ``scratch`` without its caches."""
    copy = scratch / "src"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(src / "tsvar", copy / "tsvar", ignore=ignore)
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    paths = [str(copy), *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return {
        "cache": {**env, "PYTHONPYCACHEPREFIX": str(scratch / "pycache")},
        "no cache": {**env, "PYTHONDONTWRITEBYTECODE": "1"},
    }


def run(args: list, env: dict, cwd: str) -> float:
    """Wall seconds of one child that runs this interpreter with ``args``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--against", type=Path, metavar="SRC_DIR")
    args = parser.parse_args()
    trees = [ROOT / "src"] + ([args.against.resolve()] if args.against else [])
    for tree in trees:
        if not (tree / "tsvar" / "__init__.py").is_file():
            raise SystemExit(f"no tsvar package under {tree}")
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    head = f"{'command':>16}  {'mode':>8}  {'ms':>7}"
    print(head + (f"  {'against':>7}  {'ratio':>6}" if args.against else ""))
    rows = [(label, mode) for label in COMMANDS for mode in MODES]
    times = np.empty((len(rows), args.repeat, len(trees)))
    with tempfile.TemporaryDirectory() as tmp:
        envs = [environments(tree, Path(tmp, str(k))) for k, tree in enumerate(trees)]
        for i in range(-1, args.repeat):  # repeat -1 is untimed: it fills the caches
            order = list(range(len(trees)))[:: 1 if i % 2 == 0 else -1]
            for r, (label, mode) in enumerate(rows):
                for k in order:
                    seconds = run(COMMANDS[label], envs[k][mode], tmp)
                    if i >= 0:
                        times[r, i, k] = seconds
    for (label, mode), row in zip(rows, times):
        ms = np.median(row, axis=0) * 1e3
        line = f"{label:>16}  {mode:>8}  {ms[0]:7.1f}"
        if args.against:
            line += f"  {ms[1]:7.1f}  {np.median(row[:, 0] / row[:, 1]):6.3f}"
        print(line)


if __name__ == "__main__":
    main()
