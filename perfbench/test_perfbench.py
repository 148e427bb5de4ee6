"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The smoke runs take about half a minute in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402
from workloads import SCALES, WORKLOADS, config_text  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes", "matvec/step")


def bench(workload, seed=3, seconds=0.5, trace=0, scale="smoke", cwd=None):
    """Run run.py; returns (exit code, stdout lines, last-line JSON or None)."""
    script = (cwd or HERE.parent) / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        capture_output=True, text=True, timeout=180, cwd=cwd or HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def test_configs_depend_only_on_the_seed():
    for name in WORKLOADS:
        for scale in SCALES:
            a = config_text(name, scale, 11, "out")
            assert a == config_text(name, scale, 11, "out")
            b = config_text(name, scale, 12, "out")
            diff = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
            assert diff == [("seed = 11", "seed = 12")]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(30, 0, -1)]
    assert tail(samples) == (20.0, 100.0 * 20 / 30)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    code, lines, result = bench(name)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_reports_every_layer_metric_and_repeats_its_counts():
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    runs = [bench("continuation", seed=5, seconds=1.0, trace=1) for _ in range(2)]
    counts = []
    for code, lines, result in runs:
        assert code == 0, lines
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert not any("MISSING" in line for line in lines)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["solver.newton_steps"] > 0 and counts[0]["krylov.matvecs"] > 0


def test_a_renamed_target_is_reported_missing_and_the_op_still_runs(tmp_path):
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]
import tracer
from workloads import config_text
from hessianlab.cli import main
tracer.TARGETS = [(n, t.replace('_NewtonDriver.eigen', '_NewtonDriver.eigen_v2'))
                  for n, t in tracer.TARGETS]
cfg = {str(tmp_path / 'c.ini')!r}
open(cfg, 'w').write(config_text('continuation', 'smoke', 1, {str(tmp_path / 'out')!r}))
t = tracer.Tracer()
t.install()
assert t.run_op(main, ['continuation', '--config', cfg]) == 0
m = tracer.layer_metrics(t)
print(json.dumps([t.missing, m['kernel.eigen.calls'], m['solver.line_search.trials'],
                  m['solver.analyze.calls']]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    missing, eigen, trials, analyze = json.loads(out.stdout)
    assert missing == ["hessianlab.solver:_NewtonDriver.eigen_v2"]
    assert eigen[2] and trials[2]           # reported missing
    assert analyze[0] > 0 and not analyze[2]  # the rest is still traced


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    code, lines, result = bench("continuation", cwd=tmp_path)
    assert code != 0 and result is None
