"""Command-line driver: exit codes, validation, reports, determinism."""

import json
import numpy as np
import pytest

from hessianlab.cli import _STAGE_COLUMNS, main
from hessianlab.config import _LIST_KEYS, _SCHEMA, load_config
from hessianlab.errors import ConfigError
from hessianlab.hlf import read_field

FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
              for key, kind in keys.items() if kind is float]
FLOAT_KEYS += [key for key, kind in _LIST_KEYS.items() if kind is float]


def write_config(tmp_path, name="cfg.ini", **overrides):
    sections = {
        "problem": {"n": 2, "m": 2, "grid_points": 8, "kappa": 1.0,
                    "f": "constant", "f_value": 0.0},
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

    @pytest.mark.parametrize("key, value", [("lemma_families", 0),
                                            ("viscosity_samples", -1)])
    def test_experiment_counts_checked(self, tmp_path, key, value):
        path = write_config(tmp_path, **{f"experiment.{key}": value})
        with pytest.raises(ConfigError, match=f"experiment.{key}"):
            load_config(path)

    def test_defaults_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.n == 2 and cfg.m == 2 and cfg.grid_points == 8
        assert cfg.t_values == []
        assert cfg.build_schedule().t_values[0] == 1.0
        assert len(cfg.build_schedule().t_values) == 12

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1


class TestSolveCommand:
    def test_constant_case(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["stage"]["sup_phi"] == 0.0
        assert report["stage"]["inf_phi"] == 0.0
        assert report["b"] == pytest.approx(np.log(1.5), rel=1e-10)
        assert (tmp_path / "out" / "phi.hlf1").exists()
        assert (tmp_path / "out" / "phi.hlf1.json").exists()

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
        assert report["uniformity"]["passed"]
        assert report["certificate"]["violation"] == 0.0
        assert (out / "phi_stage_02.hlf1").exists()

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

    def test_partial_results_written(self, tmp_path):
        # the continuation benchmark problem with one jump to t = 1e-5: stage 0
        # converges in four Newton steps, stage 1 needs more than four
        path = write_config(
            tmp_path,
            **{"problem.grid_points": 6, "problem.chi": "diag",
               "problem.chi_diag": "0.4, 0.0", "problem.f": "trig",
               "problem.f_amplitude": 0.3, "run.seed": 7,
               "solver.max_newton": 4, "schedule.t_values": "2.0, 0.00001"},
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
        assert "no convergence in 4 Newton steps" in report["meta"]["abort_reason"]
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

    def test_partial_exit(self, tmp_path):
        path = write_config(
            tmp_path,
            **{"problem.f": "trig", "problem.f_amplitude": 0.2,
               "solver.t": 0.25, "solver.max_newton": 1,
               "experiment.scales": "0.125"},
        )
        assert main(["stability", "--config", str(path)]) == 3


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
        field = HermitianField.identity(grid, 1.5)
        write_field(tmp_path / "x.hlf1", field)
        assert main(["conecheck", "--field", str(tmp_path / "x.hlf1"),
                     "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst_margin: 1.5" in out

    @pytest.mark.parametrize("trim", [8, 3])
    def test_truncated_field_is_config_error(self, tmp_path, capsys, trim):
        from hessianlab import HermitianField, TorusGrid, write_field

        path = tmp_path / "x.hlf1"
        write_field(path, HermitianField.identity(TorusGrid(n=2, points_per_axis=4)))
        path.write_bytes(path.read_bytes()[:-trim])
        assert main(["conecheck", "--field", str(path), "--m", "2"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_field_is_config_error(self, tmp_path, capsys):
        from hessianlab import HermitianField, TorusGrid, write_field

        field = HermitianField.identity(TorusGrid(n=2, points_per_axis=4))
        field.data[1, 2, 3, 0, 0, 0] = np.nan
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
                        HermitianField.identity(TorusGrid(n=2, points_per_axis=4)))
            args = ["--field", str(tmp_path / "x.hlf1")]
        assert main(["conecheck", *args, "--m", "0"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_margin_is_config_error(self, capsys):
        assert main(["conecheck", "--tuple", "1,1", "--m", "1",
                     "--margin", "nan"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_needs_input(self, capsys):
        assert main(["conecheck"]) == 1
