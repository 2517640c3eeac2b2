"""Tests of the benchmark's own machinery: self-time accounting, the
outside-in tracer, seeded inputs, the per-child guards, and output checks
that must catch a corrupted answer.

    python3 -m pytest -q perfbench
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# ---------------------------------------------------------------------------
# self-time accounting


def test_self_times_on_a_toy_call_tree():
    # root [0, 10] calls a [1, 4] (which calls leaf [2, 3]) and b [5, 9]
    names = ["root", "a", "leaf", "b"]
    name_ix = [0, 1, 2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summarize(names, name_ix, start, end, parent)
    assert summary["root"] == {"calls": 1, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 1, "self_s": 1.0}
    # self times partition the root's duration
    assert sum(s["self_s"] for s in summary.values()) == 10.0


def test_summarize_adds_repeated_calls():
    names = ["f", "g"]
    summary = tracer.summarize(names, [0, 1, 1], [0.0, 1.0, 3.0], [6.0, 2.0, 5.0], [-1, 0, 0])
    assert summary == {"f": {"calls": 1, "self_s": 3.0}, "g": {"calls": 2, "self_s": 3.0}}


# ---------------------------------------------------------------------------
# the live tracer on a toy package


def _toy_package():
    low = types.ModuleType("toy.low")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def outer(x):\n    return leaf(leaf(x))\n"
        "def gen(n):\n    yield from range(n)\n"
        "def _private(x):\n    return x\n"
        "class Box:\n"
        "    def mul(self, x):\n        return leaf(x) * 2\n",
        low.__dict__,
    )
    high = types.ModuleType("toy.high")
    high.leaf = low.leaf  # what `from .low import leaf` binds
    exec("def uses(x):\n    return leaf(x) + outer(x)\n", high.__dict__)
    high.outer = low.outer
    return low, high


def test_tracer_patches_aliases_methods_and_groups():
    low, high = _toy_package()
    t = tracer.Tracer({"low.leafs_s": ("low.leaf", "low.outer")})
    names = tracer.install(
        t, {"low": low, "high": high}, [low, high], methods=("low.Box.mul",),
        result_counts={"high.uses": ("uses.total", lambda r: r)},
    )
    assert names == ["high.uses", "low.Box.mul", "low.leaf", "low.outer"]  # no gen, no _private
    assert high.uses(1) == 2 + 3
    assert low.Box().mul(1) == 4
    spans = tracer.summarize(*t.spans())
    # the alias in `high` was rebound, so its call to leaf was traced too
    assert spans["low.leaf"]["calls"] == 1 + 2 + 1
    assert spans["low.outer"]["calls"] == 1
    assert spans["low.Box.mul"]["calls"] == 1
    assert t.results == {"uses.total": 5}
    _, name_ix, start, end, parent = t.spans()
    by_name = dict(zip(t.names, range(len(t.names))))
    group = [by_name["low.leaf"], by_name["low.outer"]]
    in_group = np.isin(name_ix, group)
    under_group = np.array([p >= 0 and name_ix[p] in group for p in parent])
    # leaf calls inside outer are not counted twice in the group
    assert t.group_time[0] == pytest.approx(float(np.sum((end - start)[in_group & ~under_group])))
    assert under_group.sum() == 2
    assert list(parent[name_ix == by_name["high.uses"]]) == [-1]


# ---------------------------------------------------------------------------
# seeded inputs


def _inputs(workload, seed):
    return [(j.name, j.argv, j.files) for j in jobs.make_jobs(workload, seed)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs("projector", 5) == _inputs("projector", 5)
    assert _inputs("projector", 5) != _inputs("projector", 6)
    assert _inputs("function_analysis", 5) == _inputs("function_analysis", 5)
    assert _inputs("function_analysis", 5) != _inputs("function_analysis", 6)


def test_apc_form_is_drawn_inside_the_scan_window():
    rng = np.random.default_rng(3)
    anf = jobs.random_apc12(rng)
    edges = [tuple(int(v) - 1 for v in t.replace("x", "").split("*")) for t in anf.split(" + ") if "*" in t]
    adj = [[0] * 12 for _ in range(12)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    lo, hi = jobs.APC12_SCAN
    assert lo <= jobs._apc_scan_count(12, adj) <= hi


# ---------------------------------------------------------------------------
# per-child guards


def test_memory_guard_stops_only_the_child():
    proc = subprocess.run([sys.executable, "-c", f"bytearray({run.MEM_CAP})"],
                          preexec_fn=run._guard(20), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "MemoryError" in proc.stderr


def test_time_guard_kills_a_runaway_child():
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import time; time.sleep(30)"],
                          preexec_fn=run._guard(1), capture_output=True, timeout=60)
    assert proc.returncode < 0 and time.monotonic() - t0 < 10


# ---------------------------------------------------------------------------
# output checks catch corrupted answers


def _run_inprocess(job, tmp_path):
    from lfqec.cli import main

    for name, text in job.files.items():
        (tmp_path / name).write_text(text)
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(job.argv + ["--format", "json"])
    finally:
        os.chdir(cwd)
    return rc, json.loads(buf.getvalue())


def _job(workload, name, seed=11):
    return next(j for j in jobs.make_jobs(workload, seed) if j.name == name)


def test_projector_basis_check_catches_a_swapped_function(tmp_path):
    job = _job("projector", "repaired4")
    rc, out = _run_inprocess(job, tmp_path)
    assert rc == job.expect_rc and job.check(out) is None
    out["basis"][0], out["basis"][1] = out["basis"][1], out["basis"][0]
    assert job.check(out) is not None


def test_oracle_check_catches_a_dropped_failure(tmp_path):
    job = _job("projector", "mds_m3_verify")
    rc, out = _run_inprocess(job, tmp_path)
    assert rc == job.expect_rc == 1 and job.check(out) is None
    assert out["verification"]["failures"], "the weight-1 refutation is pinned"
    out["verification"]["failures"].pop()
    assert job.check(out) is not None


@pytest.mark.parametrize("name,field,value", [
    ("apc_c6_p3", "distance", 2),
    ("matrix_reject", "rank_route", {"accepted": True, "condition": None, "erased": None,
                                     "vector": None, "warning": None}),
    ("solve_basis", "solution", "x1*x2"),
])
def test_function_checks_catch_wrong_answers(tmp_path, name, field, value):
    job = _job("function_analysis", name)
    rc, out = _run_inprocess(job, tmp_path)
    assert rc == job.expect_rc and job.check(out) is None
    out[field] = value
    assert job.check(out) is not None


def test_failure_reason_counts_exit_codes_and_tracebacks():
    job = jobs.Job("x", ["zset", "f"], expect_rc=2, malformed=True)
    ok = run.Result(job, 2, 0.1, 0.05, 30.0, "", "error: bad input\n")
    assert run.failure_reason(ok, {}) is None
    crash = run.Result(job, 1, 0.1, 0.05, 30.0, "", "Traceback (most recent call last):\n")
    assert run.failure_reason(crash, {}) == "exit 1, expected 2"
    killed = run.Result(job, -14, 0.1, 0.05, 30.0, "", "")
    assert "signal 14" in run.failure_reason(killed, {})
