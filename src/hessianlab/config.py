"""Experiment configuration: a sectioned key-value file, fully validated.

The format is INI-style (configparser) with sections [problem], [solver],
[schedule], [experiment], [run] and [output].  Unknown sections or keys are
rejected by name before any computation, as are out-of-range values.  The
same config drives every command; command-specific options live under
[experiment].  A config holds what changes results; no environment
variable does.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .background import (
    BackgroundData,
    TrigPolynomial,
    gaussian_bump,
    lq_spike,
    manufactured_solution,
)
from .errors import ConfigError, DomainError
from .grid import HermitianField, ScalarField, TorusGrid
from .hlf import read_field
from .solver import ContinuationSchedule, SolverConfig

# the most synthetic families verify certifies per iteration lemma
MAX_LEMMA_FAMILIES = 10_000
# the most entries [experiment] scales or grid_sizes may list; each entry is one solve
MAX_LIST_SOLVES = 100

_CHI_KINDS = ("zero", "diag", "potential", "hlf1")
_F_KINDS = ("constant", "trig", "bump", "spike", "manufactured", "hlf1")


def _setting(section: str, default):
    """A setting of INI section ``section``; a list default is copied per config."""
    if isinstance(default, list):
        return dataclass_field(default_factory=default.copy, metadata={"section": section})
    return dataclass_field(default=default, metadata={"section": section})


@dataclass
class ExperimentConfig:
    """Every setting, declared once: its annotation is its INI type."""

    n: int = _setting("problem", 2)
    m: int = _setting("problem", 2)
    grid_points: int = _setting("problem", 12)
    period: float = _setting("problem", 1.0)
    kappa: float = _setting("problem", 1.0)
    chi: str = _setting("problem", "zero")
    chi_diag: list[float] = _setting("problem", [])
    chi_potential_amplitude: float = _setting("problem", 0.0)
    chi_path: str = _setting("problem", "")
    f: str = _setting("problem", "constant")
    f_amplitude: float = _setting("problem", 0.1)
    f_width: float = _setting("problem", 0.1)
    f_path: str = _setting("problem", "")
    q: float = _setting("problem", 2.0)
    q_prime: float = _setting("problem", 1.0)
    entropy_p: float = _setting("problem", 3.0)

    t: float = _setting("solver", 0.25)
    newton_tol: float = _setting("solver", SolverConfig.newton_tol)
    max_newton: int = _setting("solver", SolverConfig.max_newton)

    ratio: float = _setting("schedule", 0.5)
    num_stages: int = _setting("schedule", 12)
    t_values: list[float] = _setting("schedule", [])

    scales: list[float] = _setting("experiment", [2.0**-k for k in range(3, 9)])
    grid_sizes: list[int] = _setting("experiment", [])
    inject_spike: bool = _setting("experiment", False)
    lemma_families: int = _setting("experiment", 100)
    manufactured_amplitude: float = _setting("experiment", 0.05)

    seed: int = _setting("run", 1234)
    directory: str = _setting("output", "out")

    # ------------------------------------------------------------------

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("problem.n must be >= 2")
        if not 1 <= self.m <= self.n:
            raise ConfigError("problem.m must satisfy 1 <= m <= n")
        if self.period <= 0:
            raise ConfigError("problem.period must be positive")
        self._check_points("problem.grid_points", self.grid_points)
        if len(self.grid_sizes) > MAX_LIST_SOLVES:
            raise ConfigError(f"experiment.grid_sizes must list at most {MAX_LIST_SOLVES} sizes")
        for points in self.grid_sizes:
            self._check_points("experiment.grid_sizes", points)
        if self.grid_sizes and self.f != "manufactured":
            raise ConfigError(f"experiment.grid_sizes needs problem.f = manufactured, not {self.f}")
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
        # stability's perturbation reads f_width whatever f is
        if not self.f_width > 0:
            raise ConfigError("problem.f_width must be positive")
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
        if not 1 <= len(self.scales) <= MAX_LIST_SOLVES:
            raise ConfigError(f"experiment.scales must list 1 to {MAX_LIST_SOLVES} scales")
        if not 1 <= self.lemma_families <= MAX_LEMMA_FAMILIES:
            raise ConfigError(
                f"experiment.lemma_families must lie in [1, {MAX_LEMMA_FAMILIES}]")
        if self.seed < 0:
            raise ConfigError("run.seed must be nonnegative")

    def _check_points(self, key: str, points: int) -> None:
        """Points per axis: even, >= 4 and within the grid's point budget at problem.n."""
        if points < 4 or points % 2:
            raise ConfigError(f"{key} must be even and >= 4, got {points}")
        try:
            TorusGrid(n=self.n, points_per_axis=points, period=self.period)
        except DomainError as err:
            raise ConfigError(f"problem.n = {self.n} with {key} = {points}: {err}") from err

    # -- builders ------------------------------------------------------

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def build_grid(self, points: int | None = None) -> TorusGrid:
        return TorusGrid(n=self.n, period=self.period,
                         points_per_axis=self.grid_points if points is None else points)

    def build_background(self, grid: TorusGrid) -> BackgroundData:
        """The problem's background; the Newton driver checks chi against the cone."""
        if self.chi == "zero":
            return BackgroundData.flat(grid, kappa=self.kappa)
        elif self.chi == "hlf1":
            chi = read_field(self.chi_path)
            if not isinstance(chi, HermitianField) or chi.grid != grid:
                raise ConfigError(
                    "problem.chi_path must hold a Hermitian field on the config grid"
                )
            return BackgroundData(omega=np.eye(self.n), chi=chi, kappa=self.kappa)
        elif self.chi == "diag":
            return BackgroundData.flat(grid, chi_matrix=np.diag(self.chi_diag),
                                       kappa=self.kappa)
        else:
            rng = np.random.default_rng(self.seed + 1)
            pot = TrigPolynomial.random(self.n, rng).scaled_to_curvature(
                self.chi_potential_amplitude, self.period
            ).sample(grid)
            base = np.diag(self.chi_diag) if self.chi_diag else np.zeros((self.n, self.n))
            return BackgroundData.with_potential_chi(grid, base, pot, kappa=self.kappa)

    def build_density(self, grid: TorusGrid, bg: BackgroundData):
        """Returns (f, phi_star): the manufactured truth, else None."""
        if self.f == "constant":
            f = ScalarField.constant(grid, 0.0)
        elif self.f == "trig":
            f = TrigPolynomial.random(self.n, np.random.default_rng(self.seed + 2),
                                      amplitude=self.f_amplitude).sample(grid)
        elif self.f == "bump":
            f = gaussian_bump(grid, amplitude=self.f_amplitude, width=self.f_width)
        elif self.f == "spike":
            f = lq_spike(grid, q=self.q)
        elif self.f == "hlf1":
            f = read_field(self.f_path)
            if not isinstance(f, ScalarField) or f.grid != grid:
                raise ConfigError("problem.f_path must hold a scalar field on the config grid")
        else:  # manufactured
            phi_star, f = self.manufactured(bg)
            return f, phi_star
        return f, None

    def manufactured(self, bg: BackgroundData, discrete: bool = False):
        """The manufactured truth (phi_star, f_star) on bg's grid; see manufactured_solution."""
        potential = TrigPolynomial.random(
            self.n, np.random.default_rng(self.seed + 3)
        ).scaled_to_curvature(self.manufactured_amplitude, self.period).sample(bg.grid)
        phi_star, f_star, _ = manufactured_solution(bg, self.t, self.m, potential,
                                                    discrete=discrete)
        return phi_star, f_star

    def build_solver_config(self) -> SolverConfig:
        return SolverConfig(m=self.m, newton_tol=self.newton_tol,
                            max_newton=self.max_newton)

    def build_schedule(self) -> ContinuationSchedule:
        if self.t_values:
            return ContinuationSchedule(self.t_values)
        return ContinuationSchedule.default(self.num_stages, self.ratio)


# section -> {key: the annotation of its ExperimentConfig field}
_SCHEMA: dict = {}
for _f in fields(ExperimentConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.name] = _f.type


def _number_list(kind):
    return lambda raw: [kind(tok) for tok in raw.replace(",", " ").split()]


# annotation -> parser; a bad value raises ValueError, or KeyError for a bool
_PARSERS = {
    "int": int, "float": float, "str": str,
    "bool": lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()],
    "list[float]": _number_list(float), "list[int]": _number_list(int),
}


def _parse_value(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        value = _PARSERS[kind](raw)
    except (ValueError, KeyError) as err:
        expected = "a number list" if kind.startswith("list") else kind
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {expected}") from err
    values = value if isinstance(value, list) else [value]
    if "float" in kind and not all(map(math.isfinite, values)):
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be finite")
    return value


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
            setattr(cfg, key, _parse_value(section, key, raw))
    cfg.validate()
    return cfg
