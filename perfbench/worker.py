"""One workload process: set up, then run operations back to back.

Started by run.py, one fresh interpreter per pass over the job list, so
every pass pays weylift's per-process caches the way a CLI user does.  It
talks to run.py in JSON lines on its standard output:

    {"ready": ..., "env": ...}      set-up done; the first operation can run
    {"start": i}                    operation i begins
    {"done": i, "secs": ..., ...}   operation i finished (time and gate result)
    {"end": true, "peak_rss_kb": ...} all operations done; peak memory

Anything the program itself prints goes to standard error instead.
"""

from __future__ import annotations

import os
import sys

_proto = os.fdopen(os.dup(1), "w", buffering=1)
os.dup2(2, 1)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import jobs  # noqa: E402


def send(msg: dict) -> None:
    _proto.write(json.dumps(msg) + "\n")


def peak_rss_kb() -> int:
    """Peak resident memory of this interpreter (VmHWM), in KiB.

    Not ru_maxrss: on Linux that also counts the memory image of the parent
    this process was started from, which here is the benchmark controller.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy

    try:
        from weylift import _kernel

        backend = _kernel.backend()
    except ImportError:
        backend = "none (no weylift._kernel)"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    src = jobs.HERE.parent / "src"
    sys.path.insert(0, str(src))
    rec = None
    if args.trace_out:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    from weylift import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"weylift was imported from {cli.__file__}, not from {src}")

    pool = jobs.load_pool()
    ids = jobs.select(pool, args.workload, args.seed, args.tiny)
    ops = [(op_id, jobs.prepare(pool, op_id)) for op_id in ids[args.start:]]
    send({"ready": True, "env": environment()})
    if args.setup_only:
        return 0

    span = rec.span if rec is not None else (lambda name: nullcontext())
    for k, (op_id, arg) in enumerate(ops):
        idx = args.start + k
        send({"start": idx})
        if rec is not None:
            rec.op = idx
        with span("op"):
            t0 = perf_counter()
            try:
                report, code = jobs.call(args.workload, arg)
                with span("cli.json"):
                    text = jobs.report_text(report)
                error = None
            except Exception as ex:  # an operation failure is a result, not a crash
                traceback.print_exc()
                error = f"raised {type(ex).__name__}: {ex}"
            secs = perf_counter() - t0
        if error is not None:
            send({"done": idx, "id": op_id, "secs": secs, "problems": [error]})
            continue
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        want = pool["digests"].get(op_id)
        problems = jobs.gate(op_id, report, code, digest, want)
        send({"done": idx, "id": op_id, "secs": secs, "problems": problems, "digest": digest})

    if rec is not None:
        rec.dump(args.trace_out)
    send({"end": True, "peak_rss_kb": peak_rss_kb()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
