"""The benchmark's own tests: smoke runs of each workload, planted wrong
answers the oracle must catch, and the benchmark's contract details.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
from tracing import Tracer
from workloads import WORKLOADS, build, checked, run_op

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ts():
    return run.import_package()


def smoke_ops(ts, workload, tmp_path, seed=7):
    return build(workload, seed, "smoke", tmp_path / workload, ts)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_round_passes_its_oracle(ts, workload, tmp_path):
    ops = smoke_ops(ts, workload, tmp_path)
    samples, failures = run.measure(ts, ops, rounds=1, limit_s=120.0)
    assert failures == []
    assert len(samples) == len(ops)
    assert all(x.raw_s > 0 and x.segment_s >= x.raw_s and x.scale > 0 for x in samples)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_round_reports_every_layer_metric(ts, workload, tmp_path):
    ops = smoke_ops(ts, workload, tmp_path)
    original = ts.cli.main
    tracer = Tracer()
    tracer.install(ts)
    try:
        assert ts.cli.main is not original
        samples, failures = run.measure(ts, ops, 1, 120.0, tracer)
    finally:
        tracer.uninstall()
    assert ts.cli.main is original
    assert failures == []
    p50 = float(np.median([x.ref_s for x in samples]))
    metrics = tracer.metrics(p50, p50, scale=1.0)
    for m in SPEC["per_layer"]:
        assert math.isfinite(metrics[m["name"]]), m["name"]
    assert metrics["expr.calls"] > 0 and metrics["trace.unaccounted_s"] >= 0
    out = tmp_path / "trace.jsonl"
    tracer.write(out, {"workload": workload})
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + min(tracer.cap, tracer._next_span)


def test_trace_replaces_from_import_bindings(ts, tmp_path):
    """solver imports first_el_residual by name; Newton's calls must be seen."""
    ops = [op for op in smoke_ops(ts, "solve", tmp_path) if op.label.startswith("lq-u")]
    tracer = Tracer()
    tracer.install(ts)
    try:
        run.measure(ts, ops[:1], 1, 120.0, tracer)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1.0, 1.0, scale=1.0)
    assert m["solver.newton_iters"] >= 1
    assert m["solver.residual_evals"] > m["solver.newton_iters"]
    assert m["solver.linalg_s"] > 0


def test_size_exponent_of_quadratic_loop(ts):
    """first_el_integral_residual re-integrates from 0 at every point today."""
    tracer = Tracer()
    tracer.install(ts)
    try:
        for N in (100, 200, 400):
            scale = ts.TimeScale.dense_interval(0.0, 1.0, N)
            q = np.sin(scale.points)
            p = ts.VariationalProblem(scale, ts.Lagrangian(1, "v1^2 + u1^2"), [q[0]], [q[-1]])
            ts.first_el_integral_residual(p, ts.GridFunction(scale, q))
    finally:
        tracer.uninstall()
    exps = tracer.size_exponents()
    assert 1.5 < exps["variational.first_el_integral_residual.n_exp"] < 2.5


def test_dyadic_quartic_reproduces_1107_71(ts, tmp_path):
    assert oracle.quartic_counts(8, 0) == (1107, 71)
    op = build("enumerate", 3, "full", tmp_path, ts)[0]
    assert op.label == "quartic-dyadic-k0"
    outcome = run_op(op, ts)
    assert "first-EL extremals: 1107" in outcome.stdout
    assert "second-EL survivors: 71" in outcome.stdout
    assert checked(op, outcome) is None


def test_closed_form_counts_match_vectorised_enumeration():
    fam = oracle.quartic_family()
    for m in (4, 6):
        grid = oracle.Grid(np.arange(m + 1) / m, np.ones(m, bool))
        for k in range(-m, m + 1):
            e = oracle.enumerate_words(fam, grid, 0.0, k / m, (-1, 0, 1), 1e-8)
            assert (e.extremals, len(e.survivors)) == oracle.quartic_counts(m, k)


def test_lq_extremal_zeroes_the_recomputed_residual():
    rng = np.random.default_rng(0)
    fam = oracle.lq_family([1.0, 0.5], [0.3, 0.0], [[1.0, 0.2], [0.2, 2.0]])
    grid = oracle.Grid(np.sort(rng.uniform(1, 2, 30)), np.ones(29, bool))
    q = oracle.lq_extremal(fam, grid, [0.5, -1.0], [1.0, 2.0])
    assert np.max(np.abs(oracle.first_el(fam, grid, q))) < oracle.roundoff(fam, grid, q)


# -- planted wrong answers ----------------------------------------------


def first_passing(ts, workload, tmp_path, prefix):
    for op in smoke_ops(ts, workload, tmp_path):
        if op.label.startswith(prefix):
            outcome = run_op(op, ts)
            assert checked(op, outcome) is None
            return op, outcome
    raise AssertionError(f"no {prefix} operation")


def test_perturbed_trajectory_labelled_extremal_is_a_failure(ts, tmp_path):
    op, outcome = first_passing(ts, "solve", tmp_path, "lq-t")
    bad = copy.deepcopy(outcome)
    bad.report["values"][3][0] += 1e-4  # first_el still reads ~0
    assert checked(op, bad) is not None


def test_closed_form_answer_for_a_newton_problem_is_a_failure(ts, tmp_path):
    op, outcome = first_passing(ts, "solve", tmp_path, "lq-u")
    bad = copy.deepcopy(outcome)
    bad.report["method"] = "closed_form"
    assert checked(op, bad) is not None


def test_missing_survivor_is_a_failure(ts, tmp_path):
    op, outcome = first_passing(ts, "enumerate", tmp_path, "quartic-dyadic")
    bad = copy.deepcopy(outcome)
    bad.report = bad.report[1:]
    assert checked(op, bad) is not None
    bad = copy.deepcopy(outcome)
    bad.stdout = bad.stdout.replace("first-EL extremals: 19", "first-EL extremals: 18")
    assert checked(op, bad) is not None


def test_wrong_verify_magnitude_or_exit_code_is_a_failure(ts, tmp_path):
    op, outcome = first_passing(ts, "verify", tmp_path, "verify-mixed")
    assert outcome.code == 1  # a smooth non-extremal fails, as expected
    bad = copy.deepcopy(outcome)
    bad.report["results"][0]["magnitude"] *= 1.001
    assert checked(op, bad) is not None
    bad = copy.deepcopy(outcome)
    bad.code = 0
    assert checked(op, bad) is not None


def test_wrong_library_residual_is_a_failure(ts, tmp_path):
    op, outcome = first_passing(ts, "verify", tmp_path, "lib-integral")
    r = outcome.result
    bad = copy.copy(outcome)
    bad.result = ts.variational.Residual(r.kind, r.points, r.values * 1.001, approximate=True)
    assert checked(op, bad) is not None


# -- contract -----------------------------------------------------------


def test_same_seed_same_inputs(ts, tmp_path):
    for workload in WORKLOADS:
        a = build(workload, 5, "smoke", tmp_path / "a" / workload, ts)
        b = build(workload, 5, "smoke", tmp_path / "b" / workload, ts)
        c = build(workload, 6, "smoke", tmp_path / "c" / workload, ts)
        files = sorted(p.name for p in (tmp_path / "a" / workload).glob("*.json"))
        assert [op.label for op in a] == [op.label for op in b]
        same = [(tmp_path / "a" / workload / f).read_text() == (tmp_path / "b" / workload / f).read_text() for f in files]
        assert all(same)
        other = [(tmp_path / "a" / workload / f).read_text() == (tmp_path / "c" / workload / f).read_text() for f in files]
        assert not all(other) and len(c) == len(a)


def test_tail_keeps_ten_samples_above():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
