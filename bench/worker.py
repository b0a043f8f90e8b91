"""The workload process: one workload, in-process through `equipot.cli.main`.

    python3 bench/worker.py --workload W --seed S --workdir D --spawned-at M
                            (--seconds T | --rounds R | --setup-only) [--trace]

Imports equipot from the checkout's `src/` and runs one untimed warm-up op;
the time from M (the parent's `time.monotonic()` just before it started this
process) to the end of the warm-up's CLI calls, before its output is
checked, is the set-up time.  Then it runs the whole number of rounds whose
end is nearest T seconds (or R rounds) and prints one JSON line with the
set-up time, the times of the regular ops that succeeded, the counts of
attempted and failed ops, the problems found (a check that rejects an
output, or a regular op that exits non-zero), the peak resident set and,
with --trace, the per-layer metrics.  `run.py` starts it; BLAS thread
counts come from the environment it sets.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)

import equipot  # noqa: E402
from equipot import cli  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(equipot.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"equipot imported from {equipot.__file__}, not from {SRC}")


def run_op(op: workloads.Op, workdir: str) -> tuple[float, int, str, list[dict]]:
    """Run an op's CLI calls; returns (seconds, first non-zero exit code or 0,
    its stderr, parsed outputs).  Only the CLI calls are timed."""
    paths = [os.path.join(workdir, f"out{i}.json") for i in range(len(op.calls))]
    err = io.StringIO()
    code = 0
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        for argv, path in zip(op.calls, paths):
            code = cli.main([*argv, "--out", path])
            if code:
                break
    dt = time.perf_counter() - t0
    outs = []
    if not code:
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                outs.append(json.load(fh))
            os.unlink(path)
    return dt, code, err.getvalue(), outs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir", required=True, help="scratch directory for CLI outputs")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="worker-", dir=args.workdir)
    try:
        problems: list[str] = []
        warmup = workloads.warmup_op(args.workload)
        _, code, err, outs = run_op(warmup, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if code:
            problems.append(f"warm-up op exited {code}: {err.strip()}")
        else:
            problems += warmup.check(outs)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "n_problems": len(problems),
                              "problems": problems[:20]}), flush=True)
            return 0

        tracer = layers.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        op_s: list[float] = []
        attempted = failed = done = 0
        start = time.perf_counter()
        for ops in workloads.rounds(args.workload, args.seed):
            for op in ops:
                if tracer:
                    tracer.active = not op.probe
                dt, code, err, outs = run_op(op, workdir)
                if tracer:
                    tracer.active = False
                attempted += 1
                if code:
                    # a probe is expected to fail; a regular op must not
                    failed += 1
                    if not op.probe:
                        problems.append(f"{op.kind} exited {code}: {err.strip()}")
                    continue
                if not op.probe:
                    op_s.append(dt)
                problems += [f"{op.kind}: {msg}" for msg in op.check(outs)]
            done += 1
            if args.rounds is not None and done >= args.rounds:
                break
            if args.seconds is not None:
                # stop at the whole round whose end is nearest T: the next
                # one would, on the mean round time so far, overrun T by
                # more than this one falls short of it
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / done / 2.0 >= args.seconds:
                    break
        result = {
            "setup_s": setup_s,
            "rounds": done,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "n_problems": len(problems),
            "op_s": op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.metrics(len(op_s), sum(op_s))
            result["absent"] = sorted(tracer.absent)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
