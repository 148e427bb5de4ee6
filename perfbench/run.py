"""hessianlab benchmark: one workload, one run, every metric.

    python3 perfbench/run.py --workload continuation --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload verify-spike --seed 1 --seconds 4 --scale smoke


Run from any directory inside a checkout; the package is imported from the
checkout's src/.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Lines above it list every metric with its unit and sample count,
plus the environment.  Scratch files go to perfbench/work/ (git-ignored).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_PROCESSES = 5
DEADLINE_S = 170.0  # a run must end within 180 s, worker start-up included
TAIL_BEYOND = 10    # the tail is the highest percentile with this many samples above


def worker_env() -> dict:
    """Pin BLAS/OpenMP to one thread and import hessianlab from this checkout."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "HESSIANLAB_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args: list, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--src", str(SRC),
           "--out", str(out)]
    subprocess.run(cmd, env=worker_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(out.read_text())


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above.

    With fewer samples than that, as many as exist above it.
    """
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - beyond  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(ops: dict, setups: list) -> dict:
    """name -> (value, unit, samples, note)."""
    times = ops["op_s"]
    tail_value, pct = tail(times)
    ok = ops["attempted"] - ops["failed"]
    return {
        "op_s": (statistics.median(times), "s", len(times), "median"),
        "op_s_tail": (tail_value, "s", len(times), f"p{pct:.0f}"),
        "setup_s": (statistics.median(setups), "s", len(setups), "median"),
        "peak_rss_mb": (ops["peak_rss_mb"], "MB", 1, "worker process"),
        "success_rate": (ok / ops["attempted"], "fraction", ops["attempted"],
                         f"fail_rate {ops['failed']}/{ops['attempted']}"),
    }


def per_layer(ops: dict) -> dict:
    n = len(ops["traced_op_s"])
    out = {name: (value, unit, n, "MISSING" if missing else "median/op")
           for name, (value, unit, missing) in ops["layers"].items()}
    overhead = statistics.median(ops["traced_op_s"]) - statistics.median(ops["op_s"])
    out["trace.overhead_s"] = (overhead, "s", n, "traced minus untraced op_s")
    out["env.calibration_s"] = (ops["calibration_s"], "s", 5, "not gated")
    return out


def report(args, ops: dict, metrics: dict) -> None:
    env = ops["env"]
    print(f"# hessianlab benchmark: workload={args.workload} scale={args.scale} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"caches={env['cpu_caches']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} "
          f"calibration_s={ops['calibration_s']:.4f}")
    for failure in ops["failures"]:
        print(f"# FAILED op: {failure}")
    if args.trace and ops["missing"]:
        print(f"# MISSING trace targets: {', '.join(ops['missing'])}")
    print(f"# {'metric':40s} {'value':>14s} {'unit':>12s} {'samples':>8s}  note")
    for name, (value, unit, samples, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:>12s} {samples:8d}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hessianlab" / "__init__.py").is_file():
        print(f"error: no hessianlab package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config = scratch / "config.ini"
        config.write_text(config_text(args.workload, args.scale, args.seed,
                                      str(scratch / "out")))
        ops = run_worker(["ops", "--config", str(config), "--command", work.command,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)],
                         scratch / "ops.json", deadline)
        if args.trace:
            metrics = per_layer(ops)
            trace_file = WORK / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"missing": ops["missing"],
                                              "spans": ops["spans"]}))
        else:
            setups = [run_worker(["setup", "--config", str(config)],
                                 scratch / f"setup{i}.json", deadline)["setup_s"]
                      for i in range(SETUP_PROCESSES)]
            metrics = end_to_end(ops, setups)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"error: worker failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report(args, ops, metrics)
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
