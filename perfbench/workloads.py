"""Workloads of the hessianlab benchmark and the configs they run.

Each workload is one ``hessianlab`` CLI command on an INI config that is a
pure function of (workload, scale, seed); the seed reaches the program only
as ``[run] seed``.  This module imports nothing from hessianlab, so run.py
stays light and the configs can be tested without numpy.

Scales:
  bench  the sizes that are timed: an op takes about a second, so one
         run holds a few dozen ops;
  smoke  the smallest grids and schedules that still run every code path.
"""

from __future__ import annotations

from dataclasses import dataclass

SCALES = ("bench", "smoke")

# Settings shared by every workload unless it overrides them.
COMMON = {
    "problem": {"n": 2, "m": 2, "kappa": 1.0, "chi": "zero",
                "f": "trig", "f_amplitude": 0.3},
    "solver": {"t": 0.25},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str    # hessianlab CLI sub-command
    why: str        # one line: what this workload exercises
    settings: dict  # per-section overrides of COMMON
    scales: dict    # scale -> per-section overrides


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "continuation", "continuation",
            "12-stage warm-started continuation, chi on the cone boundary: "
            "kernel, bracket bookkeeping, HLF1 writer, certificate",
            {"problem": {"chi": "diag", "chi_diag": "0.4 0.0"}},
            {"bench": {"problem": {"grid_points": 6}},
             "smoke": {"problem": {"grid_points": 6},
                       "schedule": {"num_stages": 3}}},
        ),
        Workload(
            "verify-spike", "verify",
            "iteration lemmas, viscosity and a twin solve on the rough L^q "
            "spike density, where Krylov matvecs and the preconditioner dominate",
            {"problem": {"f": "spike", "q": 2.0, "entropy_p": 4.0}},
            {"bench": {"problem": {"grid_points": 8}},
             "smoke": {"problem": {"grid_points": 6},
                       "experiment": {"lemma_families": 10}}},
        ),
    )
}


def _merge(*layers: dict) -> dict:
    out: dict = {}
    for layer in layers:
        for section, values in layer.items():
            out.setdefault(section, {}).update(values)
    return out


def config_text(name: str, scale: str, seed: int, directory: str) -> str:
    """The INI config one op of ``name`` runs; depends only on its arguments."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    work = WORKLOADS[name]
    sections = _merge(COMMON, work.settings, work.scales[scale],
                      {"run": {"seed": int(seed)}, "output": {"directory": directory}})
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"
