"""Command-line driver: exit codes, validation, reports, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hessianlab
from hessianlab import cli
from hessianlab.cli import _STAGE_COLUMNS, main
from hessianlab.config import _SCHEMA, MAX_LIST_SOLVES, ExperimentConfig, load_config
from hessianlab.errors import ConfigError
from hessianlab.hlf import read_field
from hessianlab.solver import MAX_STAGES, _NewtonDriver

FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
              for key, kind in keys.items() if kind in ("float", "list[float]")]


# floats from +-1e-320 to +-1e308, the extremes themselves, non-finite values,
# words and empty tokens, joined by blanks, commas and brackets
TUPLE_TOKENS = st.one_of(
    st.builds(lambda mag, neg: repr(-mag if neg else mag),
              st.floats(min_value=1e-320, max_value=1e308), st.booleans()),
    st.sampled_from(["1e308", "-1e308", "1e-320", "-1e-320", "0", "nan", "inf", "-inf", ""]),
    st.text(alphabet="abe+-._", max_size=4),
)
TUPLE_SEPARATORS = [" ", ",", ", ", "[", "]", "(", ")", "] [", ""]

# every settable key, and three that are not
INI_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
INI_KEYS += [("problem", "volcano"), ("run", "threads"), ("witchcraft", "spell")]
# out-of-range and non-finite numbers, integers too large for any count,
# other kinds' words, list and INI syntax, interpolation, any short text
INI_VALUES = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-308", "1e-320", "0",
        "-1", "3", "1e999", "99999999999999999999", "0x10", "1_0", "abc", "", "true",
        "off", "hlf1", "manufactured", "0.5, 0.25", "1 2 3", "1,,2", "%(n)s", "%",
        "[x]", "1e300 1e300",
    ]),
    st.text(st.characters(codec="utf-8"), max_size=8),
)

# one float setting out of float64 range and a command it breaks: each ended
# in a traceback, or in a RuntimeWarning that -W error turns into one
OUT_OF_RANGE = [
    ("problem.period", "1e300", "continuation"),
    ("problem.period", "1e-308", "solve"),
    ("problem.kappa", "1e300", "continuation"),
    ("problem.f_amplitude", "1e300", "solve"),
    ("problem.f_width", "1e-308", "stability"),
    ("problem.entropy_p", "1e300", "continuation"),
    ("problem.chi_diag", "1e308 0.0", "solve"),
    ("schedule.t_values", "1e300", "continuation"),
    ("experiment.manufactured_amplitude", "1e300", "verify"),
    ("experiment.scales", "1e300", "stability"),
]

# settings no workload varies, which are library constants: a config that
# sets one fails by name
DELETED_KEYS = [
    ("problem", "f_value"), ("problem", "f_max_mode"), ("problem", "f_terms"),
    ("problem", "f_cap"), ("solver", "cone_margin"), ("solver", "damping"),
    ("solver", "krylov_rtol"), ("schedule", "t_start"), ("schedule", "mollify_sigmas"),
    ("experiment", "viscosity_samples"), ("experiment", "margin_floor"),
    ("experiment", "noise_amplitude"),
]

# every integer setting but the seed, at a size no run can afford, with the
# command that reads it and the name its config error must carry
HUGE_COUNTS = [
    ("problem.n", "solve", "problem.n"),
    ("problem.grid_points", "solve", "problem.grid_points"),
    ("solver.max_newton", "solve", "max_newton"),
    ("schedule.num_stages", "continuation", "num_stages"),
    ("experiment.lemma_families", "verify", "experiment.lemma_families"),
    ("experiment.grid_sizes", "solve", "experiment.grid_sizes"),
]


def write_config(tmp_path, name="cfg.ini", **overrides):
    sections = {
        "problem": {"n": 2, "m": 2, "grid_points": 8, "kappa": 1.0, "f": "constant"},
        "solver": {"t": 0.5},
        "run": {"seed": 11},
        "output": {"directory": str(tmp_path / "out")},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        sections.setdefault(section, {})[key] = value
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return path


def test_cli_import_stays_light():
    # scipy (and the numpy.testing and numpy.f2py it pulls in) cost a fresh
    # CLI process about 0.2 s; nothing on the import path may bring them back
    src = str(Path(hessianlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, hessianlab.cli; print(*[m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m in ('numpy.f2py', 'numpy.testing')])")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.split() == []


def test_one_parser_serves_every_command(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a conecheck's options reach
    # neither the solve after it nor the conecheck after that
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._build_parser.cache_clear()
    try:
        assert main(["conecheck", "--tuple", "1 1", "--m", "2"]) == 0
        assert main(["solve", "--config", str(write_config(tmp_path))]) == 0
        assert main(["conecheck", "--tuple", "3,-1,-1"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("hessianlab") == 1
    out = capsys.readouterr().out
    assert out.count("member: True") == 1 and out.count("member: False") == 1
    assert json.loads((tmp_path / "out" / "report.json").read_text())["residual_sup"] < 1e-9


class TestConfig:
    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, **{"problem.volcano": 3})
        with pytest.raises(ConfigError, match="volcano"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[witchcraft]\nspell = 1\n")
        with pytest.raises(ConfigError, match="witchcraft"):
            load_config(path)

    def test_n_one_rejected(self, tmp_path):
        path = write_config(tmp_path, **{"problem.n": 1, "problem.m": 1})
        with pytest.raises(ConfigError, match="n must be >= 2"):
            load_config(path)

    def test_type_error_names_key(self, tmp_path):
        path = write_config(tmp_path, **{"problem.grid_points": "twelve"})
        with pytest.raises(ConfigError, match="grid_points"):
            load_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_named(self, tmp_path, section, key, value):
        path = write_config(tmp_path, **{f"{section}.{key}": value})
        with pytest.raises(ConfigError, match=f"{key} = '{value}': must be finite"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [("lemma_families", 0)])
    def test_experiment_counts_checked(self, tmp_path, key, value):
        path = write_config(tmp_path, **{f"experiment.{key}": value})
        with pytest.raises(ConfigError, match=f"experiment.{key}"):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("schedule", "ratio", 2.0), ("schedule", "num_stages", 0),
        ("solver", "max_newton", 0),
    ])
    def test_library_checks_run_at_load(self, tmp_path, section, key, value):
        path = write_config(tmp_path, **{f"{section}.{key}": value})
        with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
            load_config(path)

    def test_huge_schedule_ratio_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"schedule.ratio": 1e308,
                                         "schedule.num_stages": 3})
        with pytest.raises(ConfigError, match=r"^\[schedule\] ratio"):
            load_config(path)
        assert main(["continuation", "--config", str(path)]) == 1
        assert "config error: [schedule] ratio" in capsys.readouterr().err

    def test_defaults_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.n == 2 and cfg.m == 2 and cfg.grid_points == 8
        assert cfg.t_values == []
        assert cfg.build_schedule().t_values[0] == 1.0
        assert len(cfg.build_schedule().t_values) == 12

    def test_empty_scales_rejected(self, tmp_path):
        path = write_config(tmp_path, **{"experiment.scales": ""})
        with pytest.raises(ConfigError, match="experiment.scales"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("key, value", [("f_width", 0.0)])
    def test_density_generator_ranges_checked(self, tmp_path, key, value):
        # f = constant: stability's perturbation reads f_width anyway
        path = write_config(tmp_path, **{f"problem.{key}": value})
        with pytest.raises(ConfigError, match=f"problem.{key}"):
            load_config(path)

    @pytest.mark.parametrize("section, key", DELETED_KEYS)
    def test_deleted_key_is_unknown(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, **{f"{section}.{key}": 1})
        assert main(["solve", "--config", str(path)]) == 1
        assert f"config error: unknown config key [{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["0, 8", "2, 8", "8, 7"])
    def test_grid_sizes_entries_checked(self, tmp_path, capsys, sizes):
        # each entry is checked as grid_points is, and the error names the key
        path = write_config(tmp_path, **{"problem.f": "manufactured",
                                         "experiment.grid_sizes": sizes})
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.grid_sizes must be even and >= 4")

    @pytest.mark.parametrize("f", ["constant", "trig", "spike"])
    def test_grid_sizes_need_manufactured_density(self, tmp_path, capsys, f):
        # only the manufactured problem has a truth to measure the error
        # against, so grid_sizes with another density fails at load, not in
        # one solve at grid_points with no error-vs-h table
        path = write_config(tmp_path, **{"problem.f": f, "experiment.grid_sizes": "8, 12"})
        with pytest.raises(ConfigError, match="experiment.grid_sizes"):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.grid_sizes")
        assert f"problem.f = manufactured, not {f}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, command, named", HUGE_COUNTS)
    def test_huge_count_is_config_error(self, tmp_path, capsys, setting, command, named):
        # each setting is bounded at load, before any work grows with it
        path = write_config(tmp_path, **{setting: 10**20})
        start = time.perf_counter()
        assert main([command, "--config", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    @pytest.mark.parametrize("key, entry, command", [("scales", "0.5", "stability"),
                                                     ("grid_sizes", "8", "solve")])
    def test_solve_lists_bounded(self, tmp_path, capsys, monkeypatch, key, entry, command):
        # each entry is one solve: a longer list fails at load, by name,
        # before any driver is built; grid_sizes needs the manufactured density
        density = {"problem.f": "manufactured"} if key == "grid_sizes" else {}
        at_bound = write_config(tmp_path, "at.ini", **density, **{
            f"experiment.{key}": " ".join([entry] * MAX_LIST_SOLVES)})
        assert len(getattr(load_config(at_bound), key)) == MAX_LIST_SOLVES

        def no_driver(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(_NewtonDriver, "__init__", no_driver)
        for count in (MAX_LIST_SOLVES + 1, 100_000):
            path = write_config(tmp_path, **density,
                                **{f"experiment.{key}": " ".join([entry] * count)})
            assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: experiment.{key} must list")
            assert f" {MAX_LIST_SOLVES} " in err

    def test_readme_lists_every_key(self):
        # the config block of README.md names the _SCHEMA keys, section by section
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        listed: dict = {}
        for line in block.splitlines():
            if line.startswith("["):
                section = listed.setdefault(line[1:line.index("]")], [])
            elif line.strip():
                section.append(line.split("=", 1)[0].strip())
        assert listed == {name: list(keys) for name, keys in _SCHEMA.items()}

    def test_stage_count_capped(self, tmp_path):
        # the default schedule's list is built at load, so a count such as
        # 10**9 asked for tens of gigabytes before any check ran
        path = write_config(tmp_path, **{"schedule.num_stages": MAX_STAGES + 1})
        with pytest.raises(ConfigError, match=r"^\[schedule\] num_stages must be at most"):
            load_config(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(items=st.lists(st.tuples(st.sampled_from(INI_KEYS), INI_VALUES), max_size=4))
    def test_ini_text_ends_in_config_or_config_error(self, tmp_path_factory, items):
        sections = {}
        for (section, key), value in items:
            sections.setdefault(section, {})[key] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                for section, kv in sections.items()), encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError as err:
            assert str(err)
        else:
            assert isinstance(cfg, ExperimentConfig)


@pytest.mark.parametrize("setting, value, command", OUT_OF_RANGE)
def test_out_of_range_setting_is_config_error(tmp_path, capsys, setting, value, command):
    path = write_config(
        tmp_path,
        **{"problem.grid_points": 6, "problem.chi": "diag", "problem.chi_diag": "0.4 0.0",
           "problem.f": "trig", "problem.f_amplitude": 0.3, "schedule.num_stages": 3,
           "experiment.lemma_families": 2, setting: value},
    )
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def _directory_as_chi(tmp_path):
    (tmp_path / "dir").mkdir()
    return write_config(tmp_path, **{"problem.chi": "hlf1",
                                     "problem.chi_path": tmp_path / "dir"}), f"{tmp_path}/dir'"


def _directory_as_f(tmp_path):
    (tmp_path / "dir").mkdir()
    return write_config(tmp_path, **{"problem.f": "hlf1",
                                     "problem.f_path": tmp_path / "dir"}), f"{tmp_path}/dir'"


def _file_as_output(tmp_path):
    (tmp_path / "taken").write_text("")
    return write_config(tmp_path, **{"output.directory": tmp_path / "taken"}), f"{tmp_path}/taken'"


def _output_under_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return (write_config(tmp_path, **{"output.directory": tmp_path / "taken" / "out"}),
            f"{tmp_path}/taken")


def _repeated_section(tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text() + "\n[solver]\nt = 0.5\n")
    return path, "line"


def _line_before_sections(tmp_path):
    path = write_config(tmp_path)
    path.write_text("n = 2\n" + path.read_text())
    return path, "line"


def _not_utf8(tmp_path):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# \xff\xfe\n")
    return path, str(path)


@pytest.mark.parametrize("make", [
    _directory_as_chi, _directory_as_f, _file_as_output, _output_under_file,
    _repeated_section, _line_before_sections, _not_utf8,
])
def test_file_and_syntax_faults_are_config_errors(tmp_path, capsys, make):
    # each fault ends in exit 1 with a message naming the path or the line
    path, named = make(tmp_path)
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("command", ["solve", "continuation", "stability", "verify"])
@pytest.mark.parametrize("points, period", [(8, 1.0), (6, 2.0)])
def test_density_file_off_the_config_grid_is_config_error(tmp_path, capsys, command,
                                                          points, period):
    # f read from a file on another grid than the config's N = 6, period 1:
    # other N ended in a broadcast traceback, another period was used as is
    grid = hessianlab.TorusGrid(n=2, points_per_axis=points, period=period)
    hessianlab.write_field(tmp_path / "f.hlf1", hessianlab.ScalarField.constant(grid, 0.0))
    path = write_config(tmp_path, **{
        "problem.grid_points": 6, "problem.f": "hlf1", "problem.f_path": tmp_path / "f.hlf1",
        "schedule.num_stages": 3, "experiment.lemma_families": 2})
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "problem.f_path" in err


class TestSolveCommand:
    def test_constant_case(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert read_field(tmp_path / "out" / "phi.hlf1").data.max() == 0.0
        assert report["stage"]["inf_phi"] == 0.0
        assert report["b"] == pytest.approx(np.log(1.5), rel=1e-10)
        assert (tmp_path / "out" / "phi.hlf1").exists()
        assert not (tmp_path / "out" / "phi.hlf1.json").exists()

    def test_manufactured_error_table(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.f": "manufactured", "experiment.grid_sizes": "8, 12",
               "experiment.manufactured_amplitude": 0.5},
        )
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rows = report["error_vs_h"]
        assert [r["N"] for r in rows] == [8, 12]
        assert rows[1]["sup_error"] < rows[0]["sup_error"]

    def test_chi_from_field_file(self, tmp_path):
        from hessianlab import HermitianField, TorusGrid, write_field

        grid = TorusGrid(n=2, points_per_axis=8)
        write_field(tmp_path / "chi.hlf1",
                    HermitianField.constant(grid, np.diag([0.4, 0.0])))
        path = write_config(
            tmp_path,
            **{"problem.chi": "hlf1", "problem.chi_path": tmp_path / "chi.hlf1"},
        )
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["b"] == pytest.approx(0.5 * np.log(1.9 * 1.5), rel=1e-10)

    def test_potential_chi_config(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.chi": "potential",
               "problem.chi_potential_amplitude": 0.05,
               "problem.chi_diag": "0.3, 0.3"},
        )
        assert main(["solve", "--config", str(path)]) == 0

    def test_nonconvergence_exit(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.3,
               "solver.max_newton": 1},
        )
        assert main(["solve", "--config", str(path)]) == 2


class TestContinuationCommand:
    def test_trivial_columns(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.kappa": 2.0, "schedule.num_stages": 3},
        )
        assert main(["continuation", "--config", str(path)]) == 0
        out = tmp_path / "out"
        lines = (out / "stages.csv").read_text().strip().split("\n")
        assert lines[0].startswith("t,b,")
        rows = [ln.split(",") for ln in lines[1:]]
        for row, t in zip(rows, (1.0, 0.5, 0.25)):
            assert float(row[0]) == t
            assert float(row[1]) == pytest.approx(np.log((2 + t) / 2), rel=1e-9)
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["uniformity_pass"]
        assert report["entropy_mass"] == pytest.approx(1.0)  # f = 0 on the unit torus
        assert report["certificate"]["violation"] == 0.0
        assert (out / "phi_stage_02.hlf1").exists()

    def test_chi_outside_cone_exits_2(self, tmp_path, capsys):
        # a cone violation shares exit 2 with nonconvergence; the point prints as ints
        path = write_config(tmp_path, **{"problem.chi": "diag", "problem.chi_diag": "-0.5 0.0"})
        assert main(["continuation", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "cone violation: chi leaves the closed degree-2 cone at (0, 0, 0, 0)\n")

    def test_checks_chi_once(self, tmp_path, monkeypatch):
        # the Newton driver is where a command checks chi against the cone
        validate, calls = hessianlab.BackgroundData.validate, []
        monkeypatch.setattr(hessianlab.BackgroundData, "validate",
                            lambda self, m: calls.append(m) or validate(self, m))
        path = write_config(tmp_path, **{"problem.chi": "diag", "problem.chi_diag": "0.4 0.0",
                                         "schedule.num_stages": 2})
        assert main(["continuation", "--config", str(path)]) == 0
        assert calls == [2]

    def test_chi_from_file_matches_diag(self, tmp_path):
        # a Hermitian field through the HLF1 boundary: the continuation with
        # chi read from a file writes the phi bytes of chi = diag
        grid = hessianlab.TorusGrid(n=2, points_per_axis=6)
        hessianlab.write_field(tmp_path / "chi.hlf1",
                               hessianlab.HermitianField.constant(grid, np.diag([0.4, 0.0])))
        base = {"problem.grid_points": 6, "problem.f": "trig", "problem.f_amplitude": 0.3,
                "schedule.num_stages": 3}
        diag = write_config(tmp_path, "diag.ini", **base, **{
            "problem.chi": "diag", "problem.chi_diag": "0.4 0.0",
            "output.directory": tmp_path / "diag"})
        from_file = write_config(tmp_path, "file.ini", **base, **{
            "problem.chi": "hlf1", "problem.chi_path": tmp_path / "chi.hlf1",
            "output.directory": tmp_path / "file"})
        for path in (diag, from_file):
            assert main(["continuation", "--config", str(path)]) == 0
        phi = [(tmp_path / out / "phi.hlf1").read_bytes() for out in ("diag", "file")]
        assert phi[0] == phi[1]

    def test_single_stage_matches_solve(self, tmp_path):
        cont = write_config(tmp_path, "c.ini", **{"schedule.t_values": "0.5"})
        assert main(["continuation", "--config", str(cont)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["stages"]) == 1
        assert report["stages"][0]["t"] == 0.5

    def test_bit_identical_reruns(self, tmp_path):
        base = {
            "problem.f": "trig", "problem.f_amplitude": 0.25,
            "problem.chi": "diag", "problem.chi_diag": "0.4, 0.0",
            "schedule.num_stages": 3, "run.seed": 5,
        }
        p1 = write_config(tmp_path, "one.ini",
                          **{**base, "output.directory": str(tmp_path / "r1")})
        p2 = write_config(tmp_path, "two.ini",
                          **{**base, "output.directory": str(tmp_path / "r2")})
        assert main(["continuation", "--config", str(p1)]) == 0
        assert main(["continuation", "--config", str(p2)]) == 0
        for name in ("phi.hlf1", "phi_stage_00.hlf1", "phi_stage_02.hlf1"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
        ra = json.loads((tmp_path / "r1" / "report.json").read_text())
        rb = json.loads((tmp_path / "r2" / "report.json").read_text())
        for stage in ra["stages"] + rb["stages"]:
            stage.pop("seconds")
        assert ra == rb

    def test_failed_warm_start_falls_back_to_zero(self, tmp_path):
        # the continuation benchmark problem with one jump to t = 1e-5: the
        # warm start of stage 1 needs five Newton steps, its zero start four
        path = write_config(
            tmp_path,
            **{"problem.grid_points": 6, "problem.chi": "diag",
               "problem.chi_diag": "0.4, 0.0", "problem.f": "trig",
               "problem.f_amplitude": 0.3, "run.seed": 7,
               "solver.max_newton": 4, "schedule.t_values": "2.0, 0.00001"},
        )
        assert main(["continuation", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [(s["start"], s["iters"]) for s in report["stages"]] == [
            ("zero", 4), ("zero", 4)]

    def test_partial_results_written(self, tmp_path):
        # the spike density with one jump to t = 1e-5: stage 0 converges in
        # ten Newton steps; at stage 1 the warm start leaves the cone and the
        # zero start needs thirteen
        path = write_config(
            tmp_path,
            **{"problem.grid_points": 6, "problem.chi": "diag",
               "problem.chi_diag": "0.4, 0.0", "problem.f": "spike",
               "problem.q": 2, "run.seed": 7,
               "solver.max_newton": 11, "schedule.t_values": "2.0, 0.00001"},
        )
        assert main(["continuation", "--config", str(path)]) == 3
        out = tmp_path / "out"
        lines = (out / "stages.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(_STAGE_COLUMNS)
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 2.0
        assert read_field(out / "phi_stage_00.hlf1").grid.points_per_axis == 6
        assert not (out / "phi_stage_01.hlf1").exists()
        assert not (out / "phi.hlf1").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["aborted_stage"] == 1
        assert "no convergence in 11 Newton steps" in report["meta"]["abort_reason"]
        assert len(report["stages"]) == 1
        assert "certificate" not in report


class TestStabilityCommand:
    def test_small_run(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.2,
               "problem.f_width": 0.15, "solver.t": 0.25,
               "experiment.scales": "0.125, 0.0625, 0.03125"},
        )
        assert main(["stability", "--config", str(path)]) == 0
        out = tmp_path / "out"
        lines = (out / "records.csv").read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "eps_scale"
        assert len(lines) == 4
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]

    def test_partial_exit(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.2,
               "solver.t": 0.25, "solver.max_newton": 1,
               "experiment.scales": "0.125"},
        )
        assert main(["stability", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("nonconvergence:") and "eps_scale 0.125" in err

    @pytest.mark.parametrize("max_newton, code", [(1, 3), (60, 0)])
    def test_base_failure_is_named(self, tmp_path, capsys, max_newton, code):
        # on this degenerate problem (base form margin 1e-8) the base solve
        # converges since the line-search floor scales with the base form;
        # with max_newton = 1 it fails, and the message and report name it
        path = write_config(
            tmp_path,
            **{"problem.m": 1, "problem.grid_points": 12, "problem.kappa": 0.0,
               "problem.chi": "diag", "problem.chi_diag": "0 0", "problem.f": "spike",
               "problem.q": 1.5, "solver.t": 1e-8, "solver.max_newton": max_newton},
        )
        assert main(["stability", "--config", str(path)]) == code
        err = capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        if code == 0:
            assert err == "" and report["base_failure"] is None
            return
        reason = "no convergence in 1 Newton steps"
        assert err.startswith(f"nonconvergence: the base solve failed ({reason}")
        assert "so no solve converged at eps_scale 0.125, " in err
        assert report["base_failure"].startswith(reason)

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"run.threads": 2})
        assert main(["stability", "--config", str(path)]) == 1
        assert "unknown config key [run] threads" in capsys.readouterr().err


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.2,
               "solver.t": 0.25, "experiment.lemma_families": 10},
        )
        assert main(["verify", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_pass"]
        assert set(report["properties"]) == {
            "iteration_lower_bound", "iteration_vanishing",
            "uniqueness_energy", "viscosity",
        }
        printed = capsys.readouterr().out
        assert printed.count("[PASS]") == 4

    def test_bench_spike_config_passes(self, tmp_path):
        # the verify-spike benchmark config: 100 families per iteration lemma
        # and a twin solve on the rough L^q spike density
        path = write_config(
            tmp_path,
            **{"problem.f": "spike", "problem.q": 2.0, "problem.entropy_p": 4.0,
               "solver.t": 0.25, "run.seed": 7},
        )
        assert main(["verify", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_pass"]
        for lemma in ("iteration_lower_bound", "iteration_vanishing"):
            assert report["properties"][lemma]["families"] == 100
            assert report["properties"][lemma]["violations"] == 0

    def test_noisy_start_lies_in_cone_at_kappa_zero(self, tmp_path, capsys):
        # at kappa = 0 and t = 0.4 a twin start of absolute amplitude 0.01
        # puts X outside the cone; scaled by its Hessian, X >= 0.2 omega
        path = write_config(
            tmp_path,
            **{"problem.kappa": 0.0, "problem.f": "trig", "problem.f_amplitude": 0.1,
               "solver.t": 0.4, "experiment.lemma_families": 2, "run.seed": 5},
        )
        assert main(["verify", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_pass"]
        assert "cone violation" not in capsys.readouterr().err

    @pytest.mark.parametrize("period", [1e-4, 1e-6, 1e-150, 1e3])
    def test_passes_at_any_period(self, tmp_path, period):
        # the problem at period p is the one at period 1 with phi -> p^2 phi.
        # A twin start of absolute size left the cone at 1e-4 and 1e-6 and
        # overflowed at 1e-150; the sup difference scales as p^2, so at 1e3 it
        # fails an absolute bound; and absolute viscosity tolerances fail on
        # rounding at 1e-150
        path = write_config(
            tmp_path,
            **{"problem.period": period, "problem.f": "trig", "problem.f_amplitude": 0.5,
               "solver.t": 0.25, "experiment.lemma_families": 2, "run.seed": 1},
        )
        assert main(["verify", "--config", str(path)]) == 0

    def test_spike_injection_fails_viscosity(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.2,
               "solver.t": 0.25, "experiment.lemma_families": 5,
               "experiment.inject_spike": "true"},
        )
        assert main(["verify", "--config", str(path)]) == 4
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert not report["properties"]["viscosity"]["pass"]
        assert report["properties"]["viscosity"]["sub_violations"] + \
            report["properties"]["viscosity"]["super_violations"] >= 1


class TestConecheck:
    def test_member_tuple(self, capsys):
        assert main(["conecheck", "--tuple", "(1,1,1)", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "member: True" in out
        assert "worst_margin: 1" in out
        assert "maclaurin_gap" in out

    def test_non_member_tuple(self, capsys):
        assert main(["conecheck", "--tuple", "3,-1,-1", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "member: False" in out

    def test_parse_error(self, capsys):
        assert main(["conecheck", "--tuple", "1,banana", "--m", "2"]) == 1

    def test_field_histogram(self, tmp_path, capsys):
        from hessianlab import HermitianField, TorusGrid, write_field

        grid = TorusGrid(n=2, points_per_axis=6)
        field = HermitianField.constant(grid, 1.5 * np.eye(2))
        write_field(tmp_path / "x.hlf1", field)
        assert main(["conecheck", "--field", str(tmp_path / "x.hlf1"),
                     "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst_margin: 1.5" in out

    @pytest.mark.parametrize("trim", [8, 3])
    def test_truncated_field_is_config_error(self, tmp_path, capsys, trim):
        from hessianlab import HermitianField, TorusGrid, write_field

        path = tmp_path / "x.hlf1"
        write_field(path, HermitianField.constant(TorusGrid(n=2, points_per_axis=4), np.eye(2)))
        path.write_bytes(path.read_bytes()[:-trim])
        assert main(["conecheck", "--field", str(path), "--m", "2"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_field_is_config_error(self, tmp_path, capsys):
        from hessianlab import HermitianField, TorusGrid, write_field

        field = HermitianField.constant(TorusGrid(n=2, points_per_axis=4), np.eye(2))
        field.data[0, 1, 2, 3, 0] = np.nan  # entry (0, 0) at grid point (1, 2, 3, 0)
        write_field(tmp_path / "x.hlf1", field)
        assert main(["conecheck", "--field", str(tmp_path / "x.hlf1"),
                     "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "non-finite" in err

    @pytest.mark.parametrize("source", ["tuple", "field"])
    def test_degree_zero_is_config_error(self, tmp_path, capsys, source):
        from hessianlab import HermitianField, TorusGrid, write_field

        if source == "tuple":
            args = ["--tuple", "1,1,1"]
        else:
            write_field(tmp_path / "x.hlf1",
                        HermitianField.constant(TorusGrid(n=2, points_per_axis=4), np.eye(2)))
            args = ["--field", str(tmp_path / "x.hlf1")]
        assert main(["conecheck", *args, "--m", "0"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_margin_is_config_error(self, capsys):
        assert main(["conecheck", "--tuple", "1,1", "--m", "1",
                     "--margin", "nan"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_needs_input(self, capsys):
        assert main(["conecheck"]) == 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=st.builds(lambda seps, toks: "".join(a + b for a, b in zip(seps, toks)),
                          st.lists(st.sampled_from(TUPLE_SEPARATORS), min_size=5, max_size=5),
                          st.lists(TUPLE_TOKENS, min_size=2, max_size=4)))
    @example(text="1e308 1e308")
    @example(text="1e-320 1e-320")
    @example(text="-1e200,1e200")
    def test_tuple_input_ends_in_result_or_config_error(self, text):
        # the --tuple route with over- and underflowing floats, non-finite
        # values, words, empty tokens and stray separators; pytest turns any
        # escaping warning into a failure
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["conecheck", "--tuple", text])
        if code == 0:
            assert "member: " in out.getvalue() and "nan" not in out.getvalue()
        else:
            assert code == 1 and err.getvalue().startswith("config error:"), (code, err.getvalue())

    @pytest.mark.parametrize("text, member, margin", [
        ("1e308 1e308", True, "1e+308"), ("1e-320 1e-320", True, None),
        ("1e200 1e200 -1e200", False, "-inf")])
    def test_tuple_scaled_before_the_margins(self, capsys, text, member, margin):
        assert main(["conecheck", "--tuple", text]) == 0
        out = capsys.readouterr().out
        assert f"member: {member}" in out
        if margin is not None:
            assert f"worst_margin: {margin}\n" in out

