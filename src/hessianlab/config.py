"""Experiment configuration: a sectioned key-value file, fully validated.

The format is INI-style (configparser) with sections [problem], [solver],
[schedule], [experiment], [run] and [output].  Unknown sections or keys are
rejected by name before any computation, as are out-of-range values.  The
same config drives every command; command-specific options live under
[experiment].  A config holds what changes results; the stability worker
cap, which does not, is the HESSIANLAB_THREADS environment variable, read
by the CLI.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .background import (
    BackgroundData,
    TrigPolynomial,
    constant_density,
    gaussian_bump,
    lq_spike,
    manufactured_solution,
)
from .errors import ConfigError
from .grid import ScalarField, TorusGrid
from .solver import ContinuationSchedule, SolverConfig

_SCHEMA = {
    "problem": {
        "n": int, "m": int, "grid_points": int, "period": float, "kappa": float,
        "chi": str, "chi_diag": str, "chi_potential_amplitude": float,
        "chi_path": str,
        "f": str, "f_value": float, "f_amplitude": float, "f_max_mode": int,
        "f_terms": int, "f_width": float, "f_cap": float, "f_path": str,
        "q": float, "q_prime": float, "entropy_p": float,
    },
    "solver": {
        "t": float, "newton_tol": float, "max_newton": int, "cone_margin": float,
        "damping": float, "krylov_rtol": float,
    },
    "schedule": {
        "t_start": float, "ratio": float, "num_stages": int, "t_values": str,
        "mollify_sigmas": str,
    },
    "experiment": {
        "scales": str, "viscosity_samples": int, "grid_sizes": str,
        "inject_spike": bool, "margin_floor": float, "lemma_families": int,
        "noise_amplitude": float, "manufactured_amplitude": float,
    },
    "run": {"seed": int},
    "output": {"directory": str},
}

_CHI_KINDS = ("zero", "diag", "potential", "hlf1")
_F_KINDS = ("constant", "trig", "bump", "spike", "manufactured", "hlf1")


@dataclass
class ExperimentConfig:
    n: int = 2
    m: int = 2
    grid_points: int = 12
    period: float = 1.0
    kappa: float = 1.0
    chi: str = "zero"
    chi_diag: list = dataclass_field(default_factory=list)
    chi_potential_amplitude: float = 0.0
    chi_path: str = ""
    f: str = "constant"
    f_value: float = 0.0
    f_amplitude: float = 0.1
    f_max_mode: int = 2
    f_terms: int = 4
    f_width: float = 0.1
    f_cap: float = 1e4
    f_path: str = ""
    q: float = 2.0
    q_prime: float = 1.0
    entropy_p: float = 3.0

    t: float = 0.25
    newton_tol: float = 1e-9
    max_newton: int = 60
    cone_margin: float = 1e-8
    damping: float = 1.0
    krylov_rtol: float = 1e-2

    t_start: float = 1.0
    ratio: float = 0.5
    num_stages: int = 12
    t_values: list = dataclass_field(default_factory=list)
    mollify_sigmas: list = dataclass_field(default_factory=list)

    scales: list = dataclass_field(default_factory=lambda: [2.0**-k for k in range(3, 9)])
    viscosity_samples: int = 0  # 0 = every grid point
    grid_sizes: list = dataclass_field(default_factory=list)
    inject_spike: bool = False
    margin_floor: float = 0.1
    lemma_families: int = 100
    noise_amplitude: float = 0.01
    manufactured_amplitude: float = 0.05

    seed: int = 1234
    directory: str = "out"

    # ------------------------------------------------------------------

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("problem.n must be >= 2")
        if not 1 <= self.m <= self.n:
            raise ConfigError("problem.m must satisfy 1 <= m <= n")
        if self.grid_points < 4 or self.grid_points % 2:
            raise ConfigError("problem.grid_points must be even and >= 4")
        if self.period <= 0:
            raise ConfigError("problem.period must be positive")
        if self.kappa < 0:
            raise ConfigError("problem.kappa must be nonnegative")
        if self.chi not in _CHI_KINDS:
            raise ConfigError(f"problem.chi must be one of {_CHI_KINDS}")
        if self.chi == "diag" and len(self.chi_diag) != self.n:
            raise ConfigError("problem.chi_diag must list n values")
        if self.chi == "hlf1" and not self.chi_path:
            raise ConfigError("problem.chi_path required for chi = hlf1")
        if self.f not in _F_KINDS:
            raise ConfigError(f"problem.f must be one of {_F_KINDS}")
        if self.f == "hlf1" and not self.f_path:
            raise ConfigError("problem.f_path required for f = hlf1")
        # verify's manufactured probe reads the trig keys whatever f is
        for key in ("f_max_mode", "f_terms", "f_width", "f_cap"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"problem.{key} must be positive")
        if self.q <= 1:
            raise ConfigError("problem.q must exceed 1")
        if self.q_prime <= 0:
            raise ConfigError("problem.q_prime must be positive")
        if self.entropy_p <= self.n:
            raise ConfigError("problem.entropy_p must exceed n")
        if not 0 < self.t <= 1:
            raise ConfigError("solver.t must lie in (0, 1]")
        for section, build in (("solver", self.build_solver_config),
                               ("schedule", self.build_schedule)):
            try:
                build()
            except ConfigError as err:
                raise ConfigError(f"[{section}] {err}") from err
        if not self.scales:
            raise ConfigError("experiment.scales must list at least one scale")
        if self.lemma_families < 1:
            raise ConfigError("experiment.lemma_families must be >= 1")
        if self.viscosity_samples < 0:
            raise ConfigError("experiment.viscosity_samples must be nonnegative")
        if self.seed < 0:
            raise ConfigError("run.seed must be nonnegative")

    # -- builders ------------------------------------------------------

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def build_grid(self, points: int | None = None) -> TorusGrid:
        return TorusGrid(n=self.n, points_per_axis=points or self.grid_points,
                         period=self.period)

    def build_background(self, grid: TorusGrid) -> BackgroundData:
        if self.chi == "zero":
            bg = BackgroundData.flat(grid, kappa=self.kappa)
        elif self.chi == "hlf1":
            from .grid import HermitianField
            from .hlf import read_field

            chi = read_field(self.chi_path)
            if not isinstance(chi, HermitianField) or chi.grid != grid:
                raise ConfigError(
                    "problem.chi_path must hold a Hermitian field on the config grid"
                )
            bg = BackgroundData(omega=np.eye(self.n), chi=chi, kappa=self.kappa)
        elif self.chi == "diag":
            bg = BackgroundData.flat(grid, chi_matrix=np.diag(self.chi_diag),
                                     kappa=self.kappa)
        else:
            rng = np.random.default_rng(self.seed + 1)
            pot = TrigPolynomial.random(self.n, rng).scaled_to_curvature(
                self.chi_potential_amplitude, self.period
            ).sample(grid)
            base = np.diag(self.chi_diag) if self.chi_diag else None
            bg = BackgroundData.with_potential_chi(
                grid, base if base is not None else np.zeros((self.n, self.n)),
                pot, kappa=self.kappa,
            )
        bg.validate(self.m)
        return bg

    def build_density(self, grid: TorusGrid, bg: BackgroundData):
        """Returns (f, extras).  Manufactured data also yields the truth."""
        extras = {}
        if self.f == "constant":
            f = constant_density(grid, self.f_value)
        elif self.f == "trig":
            f = TrigPolynomial.random(
                self.n, np.random.default_rng(self.seed + 2),
                amplitude=self.f_amplitude, max_mode=self.f_max_mode,
                num_terms=self.f_terms,
            ).sample(grid)
        elif self.f == "bump":
            f = gaussian_bump(grid, amplitude=self.f_amplitude, width=self.f_width)
        elif self.f == "spike":
            f = lq_spike(grid, q=self.q, cap=self.f_cap)
        elif self.f == "hlf1":
            from .hlf import read_field

            f = read_field(self.f_path)
            if not isinstance(f, ScalarField):
                raise ConfigError("problem.f_path must hold a scalar field")
        else:  # manufactured
            trig = TrigPolynomial.random(
                self.n, np.random.default_rng(self.seed + 3),
                max_mode=self.f_max_mode, num_terms=self.f_terms,
            ).scaled_to_curvature(self.manufactured_amplitude, self.period)
            potential = trig.sample(grid)
            phi_star, f, margin = manufactured_solution(
                bg, self.t, self.m, potential, margin_floor=self.margin_floor
            )
            extras = {"phi_star": phi_star, "potential": trig, "margin": margin}
        return f, extras

    def build_solver_config(self) -> SolverConfig:
        return SolverConfig(
            m=self.m, newton_tol=self.newton_tol,
            max_newton=self.max_newton, cone_margin=self.cone_margin,
            damping=self.damping, krylov_rtol=self.krylov_rtol,
        )

    def build_schedule(self) -> ContinuationSchedule:
        ts = self.t_values or ContinuationSchedule.default(
            self.num_stages, self.ratio, self.t_start).t_values
        sigmas = self.mollify_sigmas or None
        return ContinuationSchedule(t_values=ts, mollification_sigmas=sigmas)


def _parse_value(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {kind.__name__}") from err
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be finite")
    return value


def _parse_list(section: str, key: str, raw: str):
    kind = _LIST_KEYS[(section, key)]
    try:
        values = [kind(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected a number list") from err
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be finite")
    return values


_LIST_KEYS = {
    ("problem", "chi_diag"): float,
    ("schedule", "t_values"): float,
    ("schedule", "mollify_sigmas"): float,
    ("experiment", "scales"): float,
    ("experiment", "grid_sizes"): int,
}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected by name."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config file {path}: {err}") from err
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = ExperimentConfig()
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            if (section, key) in _LIST_KEYS:
                value = _parse_list(section, key, raw)
            else:
                value = _parse_value(section, key, raw)
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
