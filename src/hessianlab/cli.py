"""Batch front end: config-driven commands with machine-readable reports.

Commands: solve | continuation | stability | verify | conecheck, each taking
--config PATH (conecheck also accepts an inline tuple).  Exit codes: 0 ok,
1 config error, 2 nonconvergence, 3 partial results, 4 verification failure.
Diagnostics go to stderr; results land in the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .background import manufactured_solution
from .config import ExperimentConfig, load_config
from .errors import ConeViolationError, ConfigError, DomainError, NonConvergenceError
from .grid import HermitianField, ScalarField
from .hlf import read_field, write_field
from .iteration import (
    assert_degiorgi_family,
    assert_kolodziej_family,
    synthetic_degiorgi_family,
    synthetic_kolodziej_family,
)
from .solver import continuation_degenerate, decreasing_sequence, solve_nondegenerate
from .symfunc import (
    check_garding,
    check_maclaurin,
    cone_membership,
    ConeSpec,
    esp_margins,
    hessian_kernel,
)
from .verification import (
    linf_uniformity_report,
    stability_experiment,
    twin_solve_uniqueness,
    viscosity_check,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_PARTIAL = 3
EXIT_VERIFY = 4


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


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

    if cfg.f == "manufactured" and cfg.grid_sizes:
        rows = []
        state = None
        for points in cfg.grid_sizes:
            grid = cfg.build_grid(points)
            bg = cfg.build_background(grid)
            f, extras = cfg.build_density(grid, bg)
            state, rep = solve_nondegenerate(bg, cfg.t, f, solver_cfg)
            err = float(np.abs(state.phi.data - extras["phi_star"].data).max())
            rows.append({
                "N": points, "h": grid.spacing, "sup_error": err,
                "iters": state.newton_iters,
                "seconds": rep.stages[0].seconds,
            })
        report["error_vs_h"] = rows
    else:
        grid = cfg.build_grid()
        bg = cfg.build_background(grid)
        f, extras = cfg.build_density(grid, bg)
        state, rep = solve_nondegenerate(bg, cfg.t, f, solver_cfg)
        report["stage"] = asdict(rep.stages[0])
        if "phi_star" in extras:
            report["sup_error"] = float(
                np.abs(state.phi.data - extras["phi_star"].data).max()
            )

    write_field(out / "phi.hlf1", state.phi)
    report["b"] = state.b
    report["residual_sup"] = state.residual_sup
    report["cone_margin_min"] = state.cone_margin_min
    _write_json(out / "report.json", report)
    return EXIT_OK


_STAGE_COLUMNS = [
    "t", "b", "sup_phi", "inf_phi", "margin_min", "iters", "seconds",
    "bracket_lower", "bracket_mid", "bracket_upper", "mollify_sigma", "start",
]


def _write_continuation(out: Path, cfg: ExperimentConfig, report, states: list,
                        **extra) -> None:
    """stages.csv, phi_stage_NN.hlf1 per state and report.json of a continuation."""
    lines = [",".join(_STAGE_COLUMNS)]
    for rec in report.stages:
        lines.append(",".join(repr(getattr(rec, c)) for c in _STAGE_COLUMNS))
    (out / "stages.csv").write_text("\n".join(lines) + "\n")

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
    uniformity = linf_uniformity_report(states, schedule.t_values, f=f,
                                        p=cfg.entropy_p, volume=bg.volume)
    write_field(out / "phi.hlf1", states[-1].phi)
    _write_continuation(out, cfg, report, states, certificate={
        "cap_constant": cert.cap_constant,
        "adjusted": cert.adjusted,
        "adjustment": cert.adjustment,
        "violation": cert.violation,
    }, uniformity=asdict(uniformity))
    return EXIT_OK


def cmd_stability(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    f_base, _ = cfg.build_density(grid, bg)
    from .background import gaussian_bump

    # two balanced lobes so the response carries both signs at every scale
    lo = [0.3 * cfg.period] * (2 * cfg.n)
    hi = [0.7 * cfg.period] * (2 * cfg.n)
    perturbation = ScalarField(grid,
                               gaussian_bump(grid, 1.0, cfg.f_width, lo).data
                               - gaussian_bump(grid, 1.0, cfg.f_width, hi).data)
    solver_cfg = cfg.build_solver_config()
    result = stability_experiment(
        bg, cfg.t, f_base, perturbation, cfg.scales, cfg.q, cfg.q_prime,
        solver_cfg, max_workers=cfg.thread_count(),
    )

    header = ["eps_scale", "l1_gap", "lq_gap_plus", "sup_gap", "centered_gap",
              "sym_lq_gap", "predicted_exponent", "converged"]
    lines = [",".join(header)]
    for rec in result.records:
        lines.append(",".join(repr(getattr(rec, c)) for c in header))
    (out / "records.csv").write_text("\n".join(lines) + "\n")

    payload = asdict(result)
    payload["command"] = "stability"
    payload["seed"] = cfg.seed
    _write_json(out / "report.json", payload)
    return EXIT_PARTIAL if result.partial else EXIT_OK


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

    kol_worst = np.inf
    kol_viol = 0
    for _ in range(cfg.lemma_families):
        fam = synthetic_kolodziej_family(rng)
        gap, _ = assert_kolodziej_family(fam)
        kol_worst = min(kol_worst, gap)
        if gap < -1e-12:
            kol_viol += 1
    properties["iteration_lower_bound"] = {
        "pass": kol_viol == 0, "violations": kol_viol, "worst_gap": kol_worst,
        "families": cfg.lemma_families,
    }

    dg_worst = 0.0
    dg_viol = 0
    for _ in range(cfg.lemma_families):
        fam = synthetic_degiorgi_family(rng)
        leftover, _, _ = assert_degiorgi_family(fam)
        dg_worst = max(dg_worst, leftover)
        if leftover > 1e-12:
            dg_viol += 1
    properties["iteration_vanishing"] = {
        "pass": dg_viol == 0, "violations": dg_viol, "worst_leftover": dg_worst,
        "families": cfg.lemma_families,
    }

    grid = cfg.build_grid()
    bg = cfg.build_background(grid)
    f, extras = cfg.build_density(grid, bg)
    solver_cfg = cfg.build_solver_config()
    energy, sup_diff, _, _ = twin_solve_uniqueness(
        bg, cfg.t, f, solver_cfg, rng, noise_amplitude=cfg.noise_amplitude
    )
    properties["uniqueness_energy"] = {
        "pass": energy < 1e-8 and sup_diff < 10.0 * cfg.newton_tol,
        "normalized_energy": energy, "sup_difference": sup_diff,
    }

    from .background import TrigPolynomial

    trig = TrigPolynomial.random(
        cfg.n, np.random.default_rng(cfg.seed + 3),
        max_mode=cfg.f_max_mode, num_terms=cfg.f_terms,
    ).scaled_to_curvature(cfg.manufactured_amplitude, cfg.period)
    phi_star, f_star, _ = manufactured_solution(
        bg, cfg.t, cfg.m, trig.sample(grid), margin_floor=cfg.margin_floor,
        discrete=True,
    )
    probe = _inject_spike(phi_star) if cfg.inject_spike else phi_star
    samples = grid.num_points
    if cfg.viscosity_samples > 0 and not cfg.inject_spike:
        samples = cfg.viscosity_samples
    visc = viscosity_check(probe, 0.0, bg, cfg.t, f_star, cfg.m,
                           samples=samples, rng=np.random.default_rng(cfg.seed))
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
        S, _ = hessian_kernel(field.data, np.eye(field.grid.n), m)
        margins = esp_margins(S, field.grid.n)
        hist, edges = np.histogram(margins, bins=10)
        print(f"points: {margins.size}  worst_margin: {margins.min():.6g}")
        for count, lo, hi in zip(hist, edges[:-1], edges[1:]):
            print(f"[{lo:+.4e}, {hi:+.4e}): {count}")
        return EXIT_OK
    raise ConfigError("conecheck needs --tuple or --field")


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "conecheck":
            return cmd_conecheck(args)
        cfg = load_config(args.config)
        handler = {
            "solve": cmd_solve,
            "continuation": cmd_continuation,
            "stability": cmd_stability,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
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
    except FileNotFoundError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
