"""Batch front end: config-driven commands with machine-readable reports.

Commands: solve | continuation | stability | verify | conecheck, each taking
--config PATH (conecheck also accepts an inline tuple).  Exit codes: 0 ok,
1 config error, 2 nonconvergence or cone violation, 3 partial results,
4 verification failure.
Diagnostics go to stderr; results land in the configured output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .background import gaussian_bump
from .config import ExperimentConfig, load_config
from .errors import ConeViolationError, ConfigError, DomainError, NonConvergenceError
from .grid import HermitianField, ScalarField, entropy_functional
from .hlf import read_field, write_field
from .iteration import lemma_sweep
from .solver import continuation_degenerate, decreasing_sequence, solve_nondegenerate
from .symfunc import (
    check_garding,
    check_maclaurin,
    cone_membership,
    ConeSpec,
    esp_margins,
    planes_kernel,
)
from .verification import stability_experiment, twin_solve_uniqueness, viscosity_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_PARTIAL = 3
EXIT_VERIFY = 4


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, columns: list, records) -> None:
    """One header line of ``columns``, then one line of their reprs per record."""
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(repr(getattr(rec, c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    solver_cfg = cfg.build_solver_config()
    report = {"command": "solve", "seed": cfg.seed, "t": cfg.t, "m": cfg.m}

    if cfg.grid_sizes:
        rows = []
        for points in cfg.grid_sizes:
            grid = cfg.build_grid(points)
            bg = cfg.build_background(grid)
            f, phi_star = cfg.build_density(grid, bg)
            state, record = solve_nondegenerate(bg, cfg.t, f, solver_cfg)
            err = float(np.abs(state.phi.data - phi_star.data).max())
            rows.append({
                "N": points, "h": grid.spacing, "sup_error": err,
                "iters": record.iters,
                "seconds": record.seconds,
            })
        report["error_vs_h"] = rows
    else:
        grid = cfg.build_grid()
        bg = cfg.build_background(grid)
        f, phi_star = cfg.build_density(grid, bg)
        state, record = solve_nondegenerate(bg, cfg.t, f, solver_cfg)
        report["stage"] = asdict(record)
        if phi_star is not None:
            report["sup_error"] = float(np.abs(state.phi.data - phi_star.data).max())

    write_field(out / "phi.hlf1", state.phi)
    report["b"] = state.b
    report["residual_sup"] = record.residual_history[-1]
    report["cone_margin_min"] = record.margin_min
    _write_json(out / "report.json", report)
    return EXIT_OK


_STAGE_COLUMNS = [
    "t", "b", "inf_phi", "margin_min", "iters", "seconds",
    "bracket_lower", "bracket_mid", "bracket_upper", "start",
]


def _write_continuation(out: Path, cfg: ExperimentConfig, report, states: list,
                        **extra) -> None:
    """stages.csv, phi_stage_NN.hlf1 per state and report.json of a continuation."""
    _write_csv(out / "stages.csv", _STAGE_COLUMNS, report.stages)

    for i, state in enumerate(states):
        write_field(out / f"phi_stage_{i:02d}.hlf1", state.phi)

    payload = asdict(report)
    payload["command"] = "continuation"
    payload["seed"] = cfg.seed
    payload.update(extra)
    _write_json(out / "report.json", payload)


def cmd_continuation(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    f, _ = cfg.build_density(grid, bg)
    schedule = cfg.build_schedule()
    solver_cfg = cfg.build_solver_config()

    try:
        states, report = continuation_degenerate(bg, f, schedule, solver_cfg)
    except NonConvergenceError as err:
        # keep what the completed stages produced; main maps the error to its exit code
        _write_continuation(out, cfg, err.diagnostics["partial_report"],
                            err.diagnostics["states"])
        raise
    cert = decreasing_sequence(states)
    report.meta["consecutive_sup_diffs"] = cert.consecutive_sup_diffs
    entropy_mass = entropy_functional(f, cfg.entropy_p, bg.volume)
    write_field(out / "phi.hlf1", states[-1].phi)
    _write_continuation(out, cfg, report, states, certificate={
        "cap_constant": cert.cap_constant,
        "adjusted": cert.adjusted,
        "adjustment": cert.adjustment,
        "violation": cert.violation,
    }, entropy_mass=entropy_mass)
    return EXIT_OK


def cmd_stability(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    f_base, _ = cfg.build_density(grid, bg)
    # two balanced lobes so the response carries both signs at every scale
    lo = [0.3 * cfg.period] * (2 * cfg.n)
    hi = [0.7 * cfg.period] * (2 * cfg.n)
    perturbation = ScalarField(grid,
                               gaussian_bump(grid, 1.0, cfg.f_width, lo).data
                               - gaussian_bump(grid, 1.0, cfg.f_width, hi).data)
    solver_cfg = cfg.build_solver_config()
    result = stability_experiment(
        bg, cfg.t, f_base, perturbation, cfg.scales, cfg.q, cfg.q_prime, solver_cfg)

    _write_csv(out / "records.csv", [
        "eps_scale", "l1_gap", "lq_gap_plus", "sup_gap", "centered_gap",
        "sym_lq_gap", "predicted_exponent", "converged"], result.records)

    payload = asdict(result)
    payload["command"] = "stability"
    payload["seed"] = cfg.seed
    _write_json(out / "report.json", payload)
    if result.partial:
        failed = ", ".join(repr(r.eps_scale) for r in result.records if not r.converged)
        cause = ("" if result.base_failure is None
                 else f"the base solve failed ({result.base_failure}), so ")
        print(f"nonconvergence: {cause}no solve converged at eps_scale {failed}",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _inject_spike(phi: ScalarField) -> ScalarField:
    """Lower one interior point enough to break the cone locally."""
    data = phi.data.copy()
    h = phi.grid.spacing
    idx = tuple(s // 2 for s in phi.grid.shape)
    data[idx] -= 30.0 * h * h
    return ScalarField(phi.grid, data)


def cmd_verify(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    rng = cfg.rng()
    properties = {}

    (worst_gap, gap_viol), (worst_leftover, leftover_viol) = lemma_sweep(
        rng, cfg.lemma_families)
    properties["iteration_lower_bound"] = {
        "pass": gap_viol == 0, "violations": gap_viol, "worst_gap": worst_gap,
        "families": cfg.lemma_families,
    }
    properties["iteration_vanishing"] = {
        "pass": leftover_viol == 0, "violations": leftover_viol,
        "worst_leftover": worst_leftover, "families": cfg.lemma_families,
    }

    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    f, _ = cfg.build_density(grid, bg)
    solver_cfg = cfg.build_solver_config()
    energy, sup_diff, _, _ = twin_solve_uniqueness(bg, cfg.t, f, solver_cfg, rng)
    # phi scales as period^2, and so does the sup of a difference of solutions
    properties["uniqueness_energy"] = {
        "pass": energy < 1e-8 and sup_diff < 10.0 * cfg.newton_tol * cfg.period ** 2,
        "normalized_energy": energy, "sup_difference": sup_diff,
    }

    phi_star, f_star = cfg.manufactured(bg, discrete=True)
    probe = _inject_spike(phi_star) if cfg.inject_spike else phi_star
    visc = viscosity_check(probe, 0.0, bg, cfg.t, f_star, cfg.m)
    properties["viscosity"] = {
        "pass": visc.total_violations == 0,
        "injected_spike": cfg.inject_spike,
        **asdict(visc),
    }

    all_pass = all(p["pass"] for p in properties.values())
    _write_json(out / "verify.json", {
        "command": "verify", "seed": cfg.seed,
        "properties": properties, "all_pass": all_pass,
    })
    for name, prop in properties.items():
        print(f"[{'PASS' if prop['pass'] else 'FAIL'}] {name}")
    return EXIT_OK if all_pass else EXIT_VERIFY


def _parse_tuple(text: str) -> np.ndarray:
    cleaned = text.strip().strip("()[]")
    try:
        vals = [float(tok) for tok in cleaned.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"cannot parse tuple {text!r}") from err
    if len(vals) < 2:
        raise ConfigError("tuple needs at least two entries")
    return np.array(vals)


def cmd_conecheck(args) -> int:
    m = 2 if args.m is None else args.m
    if args.tuple:
        lam = _parse_tuple(args.tuple)
        spec = ConeSpec(n=lam.size, m=m, margin=args.margin)
        member, worst = cone_membership(lam, spec)
        print(f"tuple: {lam.tolist()}  m={m}")
        print(f"member: {member}  worst_margin: {worst:.6g}")
        if member:
            print(f"maclaurin_gap: {check_maclaurin(lam, m):.6g}")
            ones = np.ones(lam.size)
            print(f"garding_gap_vs_ones: {check_garding(lam, ones, m):.6g}")
        return EXIT_OK
    if args.field:
        field = read_field(args.field)
        if not isinstance(field, HermitianField):
            raise ConfigError("conecheck --field expects a Hermitian field file")
        with np.errstate(over="ignore", invalid="ignore"):
            S, _ = planes_kernel(field.data, np.eye(field.grid.n), m)
            margins = esp_margins(S, field.grid.n)
            lo, hi = margins.min(), margins.max()
            # convex combinations of the ends, unlike lo + k (hi - lo) / 10,
            # can reach inf only by rounding at the float64 limit
            edges = np.linspace(1.0, 0.0, 11) * lo + np.linspace(0.0, 1.0, 11) * hi
        if not np.all(np.isfinite(margins)):
            raise DomainError(f"{args.field}: cone margins overflow float64")
        if not np.all(edges[:-1] < edges[1:]):
            edges = np.array([lo, hi])  # one bin: the range is too narrow for ten
        hist, edges = np.histogram(margins, bins=edges)
        print(f"points: {margins.size}  worst_margin: {lo:.6g}")
        for count, lo, hi in zip(hist, edges[:-1], edges[1:]):
            print(f"[{lo:+.4e}, {hi:+.4e}): {count}")
        return EXIT_OK
    raise ConfigError("conecheck needs --tuple or --field")


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error, exit 1; argparse's exit 2 means nonconvergence."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="hessianlab",
        description="Complex Hessian equation solver and estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "continuation", "stability", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
    cone = sub.add_parser("conecheck")
    cone.add_argument("--config", required=False)
    cone.add_argument("--tuple", default=None)
    cone.add_argument("--m", type=int, default=None)
    cone.add_argument("--margin", type=float, default=0.0)
    cone.add_argument("--field", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "conecheck":
            return cmd_conecheck(args)
        cfg = load_config(args.config)
        handler = {
            "solve": cmd_solve,
            "continuation": cmd_continuation,
            "stability": cmd_stability,
            "verify": cmd_verify,
        }[args.command]
        # a value that takes float64 arithmetic out of range is a config
        # error, not a warning followed by inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handler(cfg)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, OverflowError) as err:
        # the message is the last argument; a float power's OverflowError puts errno first
        reason = err.args[-1] if err.args else type(err).__name__
        print(f"config error: a setting is out of float64 range: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except ConeViolationError as err:
        print(f"cone violation: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except NonConvergenceError as err:
        print(f"nonconvergence: {err}", file=sys.stderr)
        partial = err.diagnostics.get("partial_report") if err.diagnostics else None
        return EXIT_PARTIAL if partial is not None and getattr(
            partial, "stages", None
        ) else EXIT_NONCONVERGENCE
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
