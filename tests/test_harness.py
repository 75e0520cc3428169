"""Tests for experiment configuration, drivers and the CLI."""

import csv
import json
import math

import numpy as np
import pytest

from slicegap import harness, levelset
from slicegap.cli import main
from slicegap.errors import DomainError
from slicegap.harness import (
    ExperimentConfig,
    IAT_CSV_HEADER,
    adjointness_check,
    check_lambda,
    gap_table,
    iat_sweep,
    row_seed,
    write_iat_csv,
)
from slicegap.targets import RadialFactorization, exponential, volcano

PSS = RadialFactorization.pss
USS = RadialFactorization.uss


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ExperimentConfig()
        assert cfg.dims == (1, 2, 3, 5, 10, 20, 30)
        assert cfg.n_it == 10_000 and cfg.n_rep == 5

    def test_paper_scale(self):
        cfg = ExperimentConfig.paper_scale()
        assert max(cfg.dims) == 100
        assert cfg.n_it == 100_000 and cfg.n_rep == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(dims=())
        with pytest.raises(DomainError):
            ExperimentConfig(dims=(0,))
        with pytest.raises(DomainError):
            ExperimentConfig(n_it=5)
        with pytest.raises(DomainError):
            ExperimentConfig(target="mystery")
        with pytest.raises(DomainError):
            ExperimentConfig(samplers=("metropolis",))
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_ks=(0,))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dims": [2, 3], "n_it": 500, "n_rep": 2}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.dims == (2, 3) and cfg.n_it == 500

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dims": [2], "mystery_knob": 1}))
        with pytest.raises(DomainError):
            ExperimentConfig.from_json(str(path))


class TestRowSeed:
    def test_stable_and_distinct(self):
        s1 = row_seed(1, 3, "pss", 0)
        assert s1 == row_seed(1, 3, "pss", 0)
        assert s1 != row_seed(1, 3, "pss", 1)
        assert s1 != row_seed(1, 3, "uss", 0)
        assert s1 != row_seed(2, 3, "pss", 0)
        assert 0 <= s1 < 2**64


class TestIatSweep:
    def test_smoke_schema(self, tmp_path):
        cfg = ExperimentConfig(dims=(1,), samplers=("pss",), n_it=1000, n_rep=1)
        result = iat_sweep(cfg)
        assert len(result["rows"]) == 1
        assert len(result["summaries"]) == 1
        path = str(tmp_path / "sweep.csv")
        write_iat_csv(result, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == IAT_CSV_HEADER
        assert len(rows) == 3  # header + 1 data + 1 summary
        assert rows[2][2] == "-1"

    def test_determinism(self):
        cfg = ExperimentConfig(dims=(2,), n_it=500, n_rep=2)
        a = iat_sweep(cfg)
        b = iat_sweep(cfg)
        strip = lambda r: {k: v for k, v in r.items() if k != "wall_time_ms"}
        assert [strip(r) for r in a["rows"]] == [strip(r) for r in b["rows"]]
        assert a["summaries"][0]["iat_mean"] == b["summaries"][0]["iat_mean"]

    def test_metadata_echoed(self):
        cfg = ExperimentConfig(dims=(1,), samplers=("pss",), n_it=200, n_rep=1)
        result = iat_sweep(cfg)
        assert result["config"]["n_it"] == 200
        assert result["rows"][0]["burn_in"] == 20
        assert result["rows"][0]["seed"] == row_seed(cfg.base_seed, 1, "pss", 0)


class TestGapTable:
    def test_fields_and_uss_vs_pss(self):
        cfg = ExperimentConfig(dims=(10,), grid_size=256)
        table = gap_table(cfg)
        by_alpha = {row["alpha"]: row for row in table}
        for row in table:
            for key in ("target", "alpha", "d", "gap", "lambda2", "grid_size",
                        "refinement_delta", "truncation_mass", "eig_residual",
                        "top_residual"):
                assert key in row
            assert row["eig_residual"] <= 1e-12 and row["top_residual"] <= 1e-12
        # USS mixes far slower than PSS on the same target; the Lambda_d
        # structure gives only a 1/(d+1) guarantee and it is tight here
        assert by_alpha[0.0]["gap"] <= 0.2
        assert by_alpha[0.0]["gap"] < by_alpha[9.0]["gap"]
        assert by_alpha[9.0]["gap"] >= 0.48
        assert by_alpha[0.0]["gap"] == pytest.approx(1.0 / 11.0, abs=5e-3)


class TestCheckLambda:
    def test_reports(self):
        cfg = ExperimentConfig(dims=(3,), lambda_ks=(1, 3))
        reports = check_lambda(cfg)
        verdict = {(r["alpha"], r["k"]): r["passed"] for r in reports}
        assert verdict[(2.0, 1)] is True      # PSS convex class
        assert verdict[(0.0, 3)] is True      # USS matches k=d
        assert verdict[(0.0, 1)] is False     # USS fails the k=1 test


class TestCli:
    def test_iat_sweep_writes_csv(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"dims": [1], "samplers": ["pss"], "n_it": 500, "n_rep": 1}))
        out = tmp_path / "sweep.csv"
        code = main(["iat-sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "sweep.csv.json").exists()

    def test_check_lambda_json(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [3], "samplers": ["pss"]}))
        code = main(["check-lambda", "--config", str(config)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is True

    def test_gap_table_grid_size_flag(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [5], "samplers": ["pss"]}))
        out = tmp_path / "gaps.json"
        code = main(["gap-table", "--config", str(config),
                     "--grid-size", "128", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["grid_size"] == 128
        assert payload[0]["gap"] >= 0.48

    def test_invalid_config_exit_code(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": []}))
        assert main(["iat-sweep", "--config", str(config)]) == 2

    def test_one_cell_grid_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [2], "samplers": ["pss"]}))
        assert main(["gap-table", "--config", str(config), "--grid-size", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_grid_size_exit_code(self, tmp_path, capsys):
        # numpy's linspace rejects the sample count -2 with a ValueError
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [2], "samplers": ["pss"]}))
        assert main(["gap-table", "--config", str(config), "--grid-size", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_target_param_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"target_params": {"foo": 1}, "dims": [2]}))
        assert main(["gap-table", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'exponential'" in err and "foo" in err

    def test_flag_not_read_by_subcommand_is_rejected(self, capsys):
        # verify builds no gap table, so it takes no grid size
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid-size", "128"])
        assert exc.value.code == 2
        assert "--grid-size" in capsys.readouterr().err


class TestVerifyGuards:
    def test_underpowered_ks_skipped(self):
        from slicegap.harness import _ks_checks
        cfg = ExperimentConfig(ks_sample=100)
        out = _ks_checks(cfg, dims=(2,), seed=1)
        assert out[0]["status"] == "skipped"

    def test_corrupted_ell_surfaces_error(self):
        # a non-monotone level-set function must fail loudly, not silently
        from slicegap.errors import InvalidLevelSetError
        from slicegap.kernel import TGrid, discretize_pt
        from slicegap.levelset import LevelSetFunction

        def bumpy(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < 0.0, -s + 0.4 * np.sin(10.0 * s), -np.inf)

        ell = LevelSetFunction(log_eval=bumpy, log_support_sup=0.0,
                               limit_L=math.inf, label="corrupted")
        with pytest.raises(InvalidLevelSetError):
            discretize_pt(ell, TGrid(boundaries=np.linspace(-4.0, -1e-6, 33)))


class TestKernelIdentity:
    def test_profile_solved_at_most_twice(self, monkeypatch):
        # once inside level_set_function and once for the ten Monte Carlo
        # draws; each draw solved its own profile before, 11 in all
        modes = [0]
        mode = levelset.mode_radius

        def counted_mode(target, fac):
            modes[0] += 1
            return mode(target, fac)

        monkeypatch.setattr(levelset, "mode_radius", counted_mode)
        monkeypatch.setattr(harness, "_KERNEL_MC_DRAWS", 1000)
        rows = harness._kernel_mc_check(7)
        assert len(rows) == 10
        assert modes[0] <= 2


class TestAdjointness:
    def test_pss_exponential(self):
        assert adjointness_check(exponential(3), PSS(3)) <= 1e-6

    def test_uss_volcano(self):
        assert adjointness_check(volcano(2, 2.0), USS()) <= 1e-6

    def test_levels_and_profile_solved_once(self, monkeypatch):
        # one 4097-level grid and at most two profiles (the radial one and
        # the sampler's) per call
        levels, modes = [0], [0]
        solve, mode = levelset.level_bounds, levelset.mode_radius

        def counted(prof, log_t):
            levels[0] += np.size(log_t)
            return solve(prof, log_t)

        def counted_mode(target, fac):
            modes[0] += 1
            return mode(target, fac)

        monkeypatch.setattr(levelset, "level_bounds", counted)
        monkeypatch.setattr(harness, "level_bounds", counted)
        monkeypatch.setattr(levelset, "mode_radius", counted_mode)
        adjointness_check(volcano(2, 2.0), USS())
        assert levels[0] == 4097
        assert modes[0] <= 2
