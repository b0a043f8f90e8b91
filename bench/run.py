"""Benchmark entry point for equipot.

    python3 bench/run.py --workload {capacity,markov,evaluate} --seed N \
                         --seconds T --trace {0,1}

Run from the root of a checkout.  The program under test is the checkout's
`src/equipot`, driven in-process through `equipot.cli.main` by
`bench/worker.py`, one workload process at a time, with BLAS pinned to one
thread.

--trace 0: four set-up-only worker processes, then one timed worker that
runs the whole number of rounds whose end is nearest T seconds.  Reports
the end-to-end metrics.
--trace 1: one untimed-phase worker for T/2 seconds, then a traced worker
over exactly the same rounds.  Reports the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  When the program cannot be
found, a worker fails or the run overruns its deadline, the command exits
non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_ONLY_RUNS = 4       # plus the timed worker's own set-up: median of 5
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("EQUIPOT_CONFIG", None)     # the defaults are what is measured
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON result line."""
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, *args, "--spawned-at", repr(spawned)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker {args} overran the deadline") from exc
            raise
    if proc.returncode:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    if not trace:
        setups = [run_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_ONLY_RUNS)]
        timed = run_worker(common + ["--seconds", repr(seconds)], deadline)
        runs = setups + [timed]
        ops = timed["op_s"]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ops_per_s": len(ops) / sum(ops),
            "op_s.p50": statistics.median(ops),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        counted = [timed]
    else:
        plain = run_worker(common + ["--seconds", repr(seconds / 2.0)], deadline)
        traced = run_worker(common + ["--rounds", str(plain["rounds"]), "--trace"], deadline)
        if len(traced["op_s"]) != len(plain["op_s"]):
            raise BenchError("traced and untraced phases ran different ops")
        n = len(traced["op_s"])
        values = dict(traced["layers"])
        values["trace.op_s"] = sum(traced["op_s"]) / n
        values["trace.overhead_s"] = (sum(traced["op_s"]) - sum(plain["op_s"])) / n
        for name in traced["absent"]:
            print(f"layer {name} not observed; its metrics are absent", file=sys.stderr)
        runs = counted = [plain, traced]
    for r in runs:
        for msg in r["problems"]:
            print(f"check failed: {msg}", file=sys.stderr)
    unit = units()
    return {
        **verdict(runs, counted),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }


def verdict(runs: list[dict], counted: list[dict]) -> dict:
    """`correct` over every worker of the run; `attempted` and `failed` over
    the workers whose ops are counted."""
    return {
        "correct": all(r["n_problems"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: the running worker is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "equipot", "__init__.py")):
        print(f"no equipot sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
