"""End-to-end benchmark of the lfqec command line.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Each job is a fresh interpreter running one `lfqec` command, one job at a
time (a closed loop with one client), which is how users pay for the CLI:
interpreter start, `import lfqec.cli`, and per-process caches. A pass runs
the workload's whole job list. One pass runs, and more while another one
fits in --seconds; each job counts at its median latency over the passes.
Runs are kept short on purpose: on a shared machine the CPU speed drifts by
tens of percent over minutes, and ten short runs span less of that drift
than ten long ones. Every job's exit code, stderr and output are checked
against `reference`, which does not use lfqec.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and
one traced pass and prints per-layer metrics from the traced one, plus the
tracing overhead. The last line of stdout is one JSON object; with
--workload all it names each metric <workload>.<metric>.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import layers  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MEM_CAP = 2 << 30  # address-space ceiling of each child, bytes
JOB_TIMEOUT = 60.0  # wall-clock ceiling of each child, seconds
RUN_BUDGET = 165.0  # every job of one invocation starts and ends inside this


@dataclass
class Result:
    job: object
    rc: int
    wall: float
    setup: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


def _guard(timeout: float):
    """preexec_fn for one child: memory and time ceilings of its own."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, MEM_CAP))
        cpu = math.ceil(timeout) + 1
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        signal.alarm(math.ceil(timeout))  # survives exec; default action kills

    return limit


def run_job(job, jdir: Path, job_id: int, timeout: float, trace_out: str | None = None) -> Result:
    r, w = os.pipe()
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(w), trace_out or "-",
           str(job_id), "--", *job.argv, "--format", "json"]
    out_path, err_path = jdir / f"{job.name}.out", jdir / f"{job.name}.err"
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=jdir, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, pass_fds=(w,), preexec_fn=_guard(timeout))
            os.close(w)
            w = -1
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stamp = os.read(r, 64)
    finally:
        os.close(r)
        if w >= 0:
            os.close(w)
    trace = None
    if trace_out and os.path.exists(trace_out + ".json"):
        trace = json.loads(Path(trace_out + ".json").read_text())
    return Result(
        job, proc.returncode, wall, float(stamp) - t0 if stamp else float("nan"),
        usage.ru_maxrss / 1024.0, out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"), trace,
    )


def run_pass(job_list, jdir: Path, deadline: float, trace_dir: Path | None = None) -> list:
    results = []
    for i, job in enumerate(job_list):
        timeout = max(1.0, min(JOB_TIMEOUT, deadline - time.monotonic()))
        trace_out = str(trace_dir / f"{i:02d}_{job.name}") if trace_dir else None
        results.append(run_job(job, jdir, i, timeout, trace_out))
    return results


def failure_reason(res: Result, cache: dict) -> str | None:
    """Why a job failed its check, or None when it passed."""
    job = res.job
    if res.rc < 0:
        return f"killed by signal {-res.rc} (memory or time guard)"
    if res.rc != job.expect_rc:
        return f"exit {res.rc}, expected {job.expect_rc}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    if job.malformed:
        return None
    key = (job.name, res.stdout)
    if key not in cache:
        try:
            cache[key] = job.check(json.loads(res.stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            cache[key] = f"unreadable output: {exc!r}"
    return cache[key]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes: list, failed: int, attempted: int) -> dict:
    """wall_s: one pass with every job at its median latency over the
    passes; job_geomean_s: geometric mean of those medians; setup_s: median
    spawn-to-main time over every job run."""
    latency = [statistics.median(p[i].wall for p in passes) for i in range(len(passes[0]))]
    return {
        "wall_s": (sum(latency), "s"),
        "job_geomean_s": (geomean(latency), "s"),
        "setup_s": (statistics.median(r.setup for p in passes for r in p), "s"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p), "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    spans: dict = {}
    groups: dict = {}
    results: dict = {}
    for res in traced:
        if res.trace is None:
            continue
        for name, st in res.trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
        for name, v in res.trace["groups"].items():
            groups[name] = groups.get(name, 0.0) + v
        for name, v in res.trace["results"].items():
            results[name] = results.get(name, 0) + v
    out = {}
    for layer in layers.LAYERS:
        own = sum(st["self_s"] for nm, st in spans.items() if nm.startswith(layer + "."))
        out[f"{layer}.self_s"] = (own, "s")
    for metric in layers.TIME_METRICS:
        out[metric] = (groups.get(metric, 0.0), "s")
    for metric, names in layers.CALL_METRICS.items():
        out[metric] = (sum(spans.get(nm, {}).get("calls", 0) for nm in names), "count")
    for metric, _ in layers.RESULT_METRICS.values():
        out[metric] = (results.get(metric, 0), "count")
    out["trace.overhead_s"] = (sum(r.wall for r in traced) - sum(r.wall for r in untraced), "s")
    out["trace.spans"] = (sum(st["calls"] for st in spans.values()), "count")
    return out


def print_rows(title: str, results: list, reasons: list) -> None:
    print(f"== {title}")
    print(f"{'job':<22} {'exit':>4} {'want':>4} {'wall_s':>9} {'setup_s':>8} {'rss_mb':>7}  check")
    for res, why in zip(results, reasons):
        print(f"{res.job.name:<22} {res.rc:>4} {res.job.expect_rc:>4} {res.wall:>9.4f} "
              f"{res.setup:>8.4f} {res.rss_mb:>7.1f}  {'ok' if why is None else 'FAIL: ' + why}")


def print_metrics(title: str, metrics: dict, total: float | None = None) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        share = f"  ({value / total:6.1%} of layer time)" if total and name.endswith(".self_s") else ""
        print(f"{name:<42} {value:>14.6f} {unit}{share}")


def environment() -> dict:
    """Interpreter, numpy and BLAS build, BLAS threads, and core count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload, print its per-job rows and metrics, and return the
    result object; None when lfqec does not start."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET
    jdir = WORK / workload
    shutil.rmtree(jdir, ignore_errors=True)
    jdir.mkdir(parents=True)
    job_list = jobs_mod.make_jobs(workload, seed)
    for job in job_list:
        for name, text in job.files.items():
            (jdir / name).write_text(text)
    # compile bytecode and warm the file cache, as an installed package would be
    warm = run_job(jobs_mod.Job("warmup", ["--help"]), jdir, -1, 60.0)
    if warm.rc != 0:
        print(f"error: lfqec does not start:\n{warm.stderr}", file=sys.stderr)
        return None
    print(f"# workload={workload} seed={seed} jobs={len(job_list)}")

    if trace:
        untraced = run_pass(job_list, jdir, deadline)
        tdir = jdir / "trace"
        tdir.mkdir()
        passes = [untraced, run_pass(job_list, jdir, deadline, tdir)]
    else:
        passes = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(job_list, jdir, deadline))
            now = time.monotonic()
            # another pass only if it should end inside --seconds and the run budget
            if now + (now - t0) - measure_start > seconds or now + (now - t0) > deadline:
                break

    cache: dict = {}
    attempted = failed = 0
    correct = True
    for k, results in enumerate(passes):
        reasons = [failure_reason(r, cache) for r in results]
        print_rows(("untraced pass", "traced pass")[k] if trace else f"pass {k + 1}", results, reasons)
        attempted += len(results)
        failed += sum(why is not None for why in reasons)
        correct &= all(why is None for r, why in zip(results, reasons) if not r.job.malformed)

    if trace:
        metrics = per_layer(passes[1], passes[0])
        layer_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print_metrics(f"{workload}: per-layer metrics (traced pass)", metrics, layer_total)
    else:
        metrics = end_to_end(passes, failed, attempted)
        print_metrics(f"{workload}: end-to-end metrics ({len(passes)} pass(es), one client, "
                      f"closed loop)", metrics)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lfqec" / "cli.py").is_file():
        print(f"error: no lfqec sources under {SRC}", file=sys.stderr)
        return 2
    print(f"# env={json.dumps(environment())}")
    names = list(jobs_mod.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if results[name] is None:
            return 2
    if len(names) == 1:
        out = results[names[0]]
    else:  # metrics named <workload>.<metric>
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
