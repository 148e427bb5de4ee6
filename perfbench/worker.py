"""Benchmark worker: one fresh process per workload run.

    python3 perfbench/worker.py setup --config CFG --src SRC --out RESULT.json
    python3 perfbench/worker.py ops --command CMD --config CFG --seed N
        --seconds S --trace 0|1 --src SRC --out RESULT.json

``setup`` times what a fresh CLI process pays before solving: importing
hessianlab and building the workload's inputs.  ``ops`` runs the workload
as a closed loop (one client; each op starts when the previous returns),
checks every op's outputs and records op wall times, peak RSS, the
environment and a fixed calibration timing.  With ``--trace 1`` it first
runs untraced for half the time, then installs the tracer for the rest.

run.py starts this with BLAS/OpenMP pinned to one thread and the
checkout's src/ on PYTHONPATH.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_hessianlab(src: Path):
    """Import hessianlab from the checkout's src/, never from elsewhere."""
    import hessianlab

    if Path(hessianlab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"hessianlab imported from {hessianlab.__file__}, not {src}")


def run_setup(args) -> dict:
    _import_hessianlab(args.src)
    from hessianlab.config import load_config

    cfg = load_config(args.config)
    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    cfg.build_density(grid, bg)
    return {"setup_s": perf_counter() - PROCESS_START}


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def calibration_s(reps: int = 5) -> float:
    """Median time of a fixed pure-numpy job (batched 2x2 eigh + 3-D FFT).

    Reported, never gated: it tells machine drift apart from code changes.
    """
    import numpy as np

    k = np.arange(65536, dtype=float)
    mats = np.empty((65536, 2, 2))
    mats[:, 0, 0] = 2.0 + np.sin(k)
    mats[:, 1, 1] = 2.0 + np.cos(k)
    mats[:, 0, 1] = mats[:, 1, 0] = 0.5 * np.sin(3.0 * k)
    cube = np.sin(np.arange(64**3, dtype=float)).reshape(64, 64, 64)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.linalg.eigh(mats)
        np.fft.ifftn(np.fft.fftn(cube)).real.sum()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# output checks


class OpChecker:
    """Checks one op's outputs; remembers the first op's deterministic file."""

    def __init__(self, command: str, outdir: Path):
        if command not in ("continuation", "verify"):
            raise ValueError(f"no output checks for command {command!r}")
        self.command = command
        self.outdir = outdir
        self.reference = None

    def problems(self, rc: int) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        out = []
        if self.command == "continuation":
            rep = json.loads((self.outdir / "report.json").read_text())
            if not rep["certificate"]["violation"] <= 0.0:
                out.append(f"certificate violation {rep['certificate']['violation']:.3e}")
            for i, st in enumerate(rep["stages"]):
                if not st["bracket_lower"] <= st["bracket_mid"] <= st["bracket_upper"]:
                    out.append(f"stage {i} brackets out of order")
            if rep["meta"]["uniformity_pass"] is not True:
                out.append("uniformity_pass is false")
        elif json.loads((self.outdir / "verify.json").read_text())["all_pass"] is not True:
            out.append("verify.json all_pass is false")
        out += self._determinism()
        return out

    def _determinism(self) -> list:
        """Same seed, same bytes: phi.hlf1 (or verify.json) matches op 1."""
        if self.command == "verify":
            blob = (self.outdir / "verify.json").read_bytes()
        else:
            from hessianlab.hlf import read_field

            path = self.outdir / "phi.hlf1"
            read_field(path)  # raises, and so fails the op, if it does not read back
            blob = path.read_bytes()
        if self.reference is None:
            self.reference = blob
            return []
        return [] if blob == self.reference else ["output differs from the first op"]


# ---------------------------------------------------------------------------
# closed loop


def run_ops(args) -> dict:
    _import_hessianlab(args.src)
    from hessianlab.cli import main as cli_main
    from hessianlab.config import load_config

    checker = OpChecker(args.command, Path(load_config(args.config).directory))
    argv = [args.command, "--config", str(args.config)]
    result = {"attempted": 0, "failed": 0, "failures": [], "op_s": [],
              "traced_op_s": [], "env": environment(args.seed),
              "calibration_s": calibration_s()}

    def one_op(runner):
        result["attempted"] += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = runner(cli_main, argv)
            elapsed = perf_counter() - t0
            problems = checker.problems(rc)
        except Exception:  # an op that raises is a failed op, not a crashed run
            elapsed = perf_counter() - t0
            problems = [traceback.format_exc(limit=3)]
        if problems:
            result["failed"] += 1
            if len(result["failures"]) < 5:
                result["failures"].append("; ".join(problems))
        return elapsed

    def loop(seconds, runner, times):
        start = perf_counter()
        while perf_counter() - start < seconds:
            times.append(one_op(runner))

    one_op(lambda fn, a: fn(a))  # warm-up: checked and counted, not timed
    untraced = args.seconds / 2 if args.trace else args.seconds
    loop(untraced, lambda fn, a: fn(a), result["op_s"])
    if args.trace:
        from tracer import Tracer, layer_metrics, span_dump

        tracer = Tracer()
        tracer.install()
        loop(args.seconds - untraced, tracer.run_op, result["traced_op_s"])
        result["layers"] = layer_metrics(tracer)
        result["missing"] = tracer.missing
        result["spans"] = span_dump(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--command", default="continuation")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_setup(args) if args.mode == "setup" else run_ops(args)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
