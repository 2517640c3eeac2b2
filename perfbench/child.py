"""Run one lfqec command the way the `lfqec` console script does, and report
when `lfqec.cli.main` is entered.

    python3 child.py SRC STAMP_FD TRACE_OUT JOB_ID -- <lfqec arguments>

SRC is the directory that holds the `lfqec` package. The monotonic clock
reading taken just before `main` is written to file descriptor STAMP_FD. If
TRACE_OUT is not "-", every public lfqec function is traced and the spans
(TRACE_OUT.npz) and their summary (TRACE_OUT.json) are written at exit.
"""
import os
import sys
import time


def main() -> int:
    src, stamp_fd, trace_out, job_id = sys.argv[1:5]
    args = sys.argv[6:]
    sys.path.insert(0, src)
    import lfqec.cli

    tracer = None
    if trace_out != "-":
        tracer = _install_tracer()
    os.write(int(stamp_fd), repr(time.monotonic()).encode())
    os.close(int(stamp_fd))
    try:
        return lfqec.cli.main(args)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            _dump(tracer, trace_out, int(job_id))


def _install_tracer():
    import importlib

    import layers
    import tracer as tr

    modules = {name: importlib.import_module(f"lfqec.{name}") for name in layers.LAYERS}
    namespaces = [m for name, m in sys.modules.items() if name == "lfqec" or name.startswith("lfqec.")]
    t = tr.Tracer(layers.TIME_METRICS)
    tr.install(t, modules, namespaces, layers.METHODS, layers.SKIP, layers.RESULT_METRICS)
    return t


def _dump(t, out: str, job_id: int) -> None:
    import json

    import numpy as np

    import tracer as tr

    names, name_ix, start, end, parent = t.spans()
    np.savez(out + ".npz", names=np.array(names), name=name_ix, start=start, end=end,
             parent=parent, job=np.full(len(start), job_id, dtype=np.int32))
    summary = {
        "spans": tr.summarize(names, name_ix, start, end, parent),
        "groups": dict(zip(t.group_names, t.group_time)),
        "results": t.results,
    }
    with open(out + ".json", "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
