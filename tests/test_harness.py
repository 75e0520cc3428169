"""Tests for experiment configuration, drivers and the CLI."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import slicegap
import slicegap.kernel as kernelmod
from slicegap import cli, harness, levelset
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

    def test_paper_scale(self, monkeypatch):
        # the CLI's --paper-scale merges harness.PAPER_SCALE into the config
        seen = []
        monkeypatch.setattr(cli, "iat_sweep",
                            lambda cfg, max_workers: seen.append(cfg) or {})
        assert main(["iat-sweep", "--paper-scale"]) == 0
        assert max(seen[0].dims) == 100
        assert seen[0].n_it == 100_000 and seen[0].n_rep == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(dims=())
        with pytest.raises(DomainError):
            ExperimentConfig(dims=(0,))
        with pytest.raises(DomainError):
            ExperimentConfig(n_it=5)
        with pytest.raises(DomainError):
            ExperimentConfig(n_rep=0)
        with pytest.raises(DomainError):
            ExperimentConfig(target="mystery")
        with pytest.raises(DomainError):
            ExperimentConfig(samplers=("metropolis",))
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_ks=(0,))
        with pytest.raises(DomainError):
            ExperimentConfig(dims=(2.5,))
        with pytest.raises(DomainError):
            ExperimentConfig(lambda_ks=(1.5,))

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
        # a config file holds one JSON object, not a list of them
        path.write_text(json.dumps([{"dims": [2]}]))
        with pytest.raises(DomainError, match="JSON object"):
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
                        "top_residual", "eig_iterations"):
                assert key in row
            assert row["eig_residual"] <= 1e-12 and row["top_residual"] <= 1e-12
            assert 0 < row["eig_iterations"] < kernelmod._LANCZOS_MAX_STEPS
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

    def test_nan_volcano_offset_exit_code(self, tmp_path, capsys):
        # json reads NaN; it once failed later, as "grid construction
        # requires a finite support supremum"
        config = tmp_path / "cfg.json"
        config.write_text('{"target": "volcano", "target_params": {"c": NaN}, "dims": [3]}')
        assert main(["gap-table", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: volcano offset c must be a finite") and "nan" in err

    @pytest.mark.parametrize("c", [1e14, 1e300], ids=["1e14", "1e300"])
    def test_unresolvable_volcano_offset_exit_code(self, tmp_path, capsys, c):
        # levels solved to 4 ulp of log r blur a ridge this far out: 1e14
        # once gave a "converged" gap of 0.8805 against 0.6668 at 1e6, and
        # 1e300 failed as "could not bracket the profile mode"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"target": "volcano", "target_params": {"c": c},
                                      "dims": [3], "samplers": ["pss"]}))
        assert main(["gap-table", "--grid-size", "256", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: volcano offset c must be a finite positive number "
                              "at most 1e+08")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: at paper scale a grid cell "
                       "carries no flux, and gap-table exits 2")
    def test_gap_table_paper_scale(self, tmp_path):
        assert main(["gap-table", "--paper-scale", "--out", str(tmp_path / "gaps.json")]) == 0

    def test_non_integral_entries_exit_code(self, tmp_path, capsys):
        # int() used to truncate these to d = 2 and k = 1 and exit 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [2.5], "lambda_ks": [1.5]}))
        assert main(["check-lambda", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2.5" in err

    @pytest.mark.parametrize("key, value", [
        ("target_params", [1]),
        ("n_it", "100"),
        ("grid_size", 100.5),
        ("samplers", "pss"),
        ("base_seed", 1.5),
        ("target", 5),
        ("mass_tol", "1e-8"),
        ("out", ["gaps.json"]),
        # well typed, but a mass_tol must lie strictly inside (0, 1)
        ("mass_tol", 0.0), ("mass_tol", -1), ("mass_tol", 1), ("mass_tol", 1.5),
        ("mass_tol", math.nan), ("mass_tol", True),
        # a bool is not an integer, and an empty list runs nothing
        ("dims", [True]), ("lambda_ks", [True]), ("n_it", True), ("n_rep", True),
        ("base_seed", True), ("grid_size", True), ("ks_sample", True),
        ("samplers", []), ("lambda_ks", []),
    ])
    def test_mistyped_config_exit_code(self, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [2], key: value}))
        assert main(["gap-table", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err

    def test_paper_scale_merges_into_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"target": "volcano", "lambda_ks": [1, 2]}))
        assert main(["check-lambda", "--config", str(config), "--paper-scale"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["target"] for r in rows} == {"volcano"}
        assert sorted((r["d"], r["alpha"], r["k"]) for r in rows) == sorted(
            (d, a, k) for d in harness.PAPER_DIMS
            for a in (float(max(d - 1, 0)), 0.0) for k in (1, 2))

    def test_seed_flag_overrides_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"dims": [2], "samplers": ["pss"], "n_it": 200, "n_rep": 1}))
        assert main(["iat-sweep", "--config", str(config), "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["base_seed"] == 5
        assert payload["rows"][0]["seed"] == row_seed(5, 2, "pss", 0)

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

    def test_ks_bound_scales_with_sample_size(self):
        # at 1000 draws most of these statistics exceed 0.02, the bound at 10,000
        from slicegap.harness import _ks_checks
        out = _ks_checks(ExperimentConfig(ks_sample=1000), dims=(2, 5, 10),
                         seed=ExperimentConfig().base_seed)
        assert len(out) == 12
        for check in out:
            expected = "pass" if check["statistic"] <= 2.0 / math.sqrt(1000) else "fail"
            assert check["status"] == expected

    def test_corrupted_ell_surfaces_error(self):
        # a non-monotone level-set function must fail loudly, not silently
        from slicegap.errors import InvalidLevelSetError
        from slicegap.kernel import TGrid, discretize_pt
        from slicegap.levelset import LevelSetFunction

        def bumpy(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < 0.0, -s + 0.4 * np.sin(10.0 * s), -np.inf)

        ell = LevelSetFunction(log_eval=bumpy, log_support_sup=0.0)
        with pytest.raises(InvalidLevelSetError):
            discretize_pt(ell, TGrid(boundaries=np.linspace(-4.0, -1e-6, 33)))


class TestKsStatistic:
    @staticmethod
    def _pairs(sizes, seed):
        rng = np.random.default_rng(seed)
        for i, (na, nb) in enumerate(sizes):
            if i % 2:   # few distinct values, so both samples have ties
                yield (rng.integers(0, 40, na).astype(float),
                       rng.integers(0, 40, nb).astype(float) + 0.5 * (i % 4 == 1))
            else:
                yield rng.normal(size=na), 1.05 * rng.normal(size=nb)

    def test_bitwise_scipy_exact_mode(self):
        import scipy.stats
        sizes = [(1, 1), (1, 7), (50, 50), (99, 1000), (1000, 999), (3000, 4500),
                 (10_000, 10_000), (10_000, 9_973), (7, 10_000), (2048, 6144)]
        for a, b in self._pairs(sizes, seed=1):
            ours = harness._ks_statistic(a, b)
            assert ours == scipy.stats.ks_2samp(a, b).statistic
            assert ours == harness._ks_statistic(b, a)

    def test_scipy_asymptotic_mode(self):
        # above 10,000 draws scipy takes the float ECDF difference instead
        # of the lattice value; the two agree to rounding
        import scipy.stats
        sizes = [(10_001, 10_001), (20_000, 12_345), (500, 30_000), (15_000, 15_002)]
        for a, b in self._pairs(sizes, seed=2):
            ours = harness._ks_statistic(a, b)
            assert abs(ours - scipy.stats.ks_2samp(a, b).statistic) <= 1e-15


class TestScipyLoadedOnUse:
    """The package runs on numpy alone; scipy is a test-only reference."""

    def test_sweep_loads_no_scipy(self):
        # neither the flat-IAT sweep nor a certificate loads scipy
        code = (
            "import sys\n"
            "import slicegap, slicegap.cli\n"
            "from slicegap import ExperimentConfig, iat_sweep\n"
            "iat_sweep(ExperimentConfig(dims=(2,), n_it=200, n_rep=1))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "from slicegap import RadialFactorization, certify_gap, exponential, level_set_function\n"
            "ell = level_set_function(exponential(3), RadialFactorization.pss(3))\n"
            "certify_gap(ell, n=64)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(slicegap.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout.splitlines()
        assert out == ["[]", "[]"]

    def test_levels_chains_oracles_and_check_lambda_load_no_scipy(self):
        # every layer, and the check-lambda and gap-table commands
        code = (
            "import sys\n"
            "import slicegap.cli\n"
            "from slicegap import (PiTildeSampler, RadialFactorization, exponential,\n"
            "                      lambda_k_check, level_set_function, make_rng,\n"
            "                      run_x_chain, t_step_levels)\n"
            "target, fac = exponential(3), RadialFactorization.pss(3)\n"
            "ell = level_set_function(target, fac)\n"
            "lambda_k_check(ell, 1)\n"
            "run_x_chain(target, fac, 200, 2.0, 1)\n"
            "rng = make_rng(1, 0)\n"
            "t_step_levels(target, fac, PiTildeSampler(ell).sample(rng, 100), rng)\n"
            "slicegap.cli.main(['check-lambda', '--out', sys.argv[1]])\n"
            "slicegap.cli.main(['gap-table', '--grid-size', '256', '--out', sys.argv[2]])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(slicegap.__file__).resolve().parent.parent)
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run([sys.executable, "-c", code, os.path.join(tmp, "l.json"),
                                  os.path.join(tmp, "g.json")],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src}).stdout.splitlines()
        assert out == ["[]"]

    def test_verify_loads_no_scipy_integrate(self):
        # the adjointness quadratures are numpy ports of scipy's rules, and
        # the duality gaps come from the numpy Lanczos: verify loads no scipy
        code = (
            "import sys\n"
            "import slicegap.cli\n"
            "slicegap.cli.main(['verify', '--out', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(slicegap.__file__).resolve().parent.parent)
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run([sys.executable, "-c", code, os.path.join(tmp, "v.json")],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src}).stdout.splitlines()
        assert out[-1] == "[]"

    def test_scipy_imported_only_where_used(self):
        # every scipy import under src/, by module, top-level statement
        # (a function name, or None) and module name: there is none
        found = []
        for path in sorted(Path(slicegap.__file__).parent.glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    elif isinstance(node, ast.Import):
                        names = [a.name for a in node.names]
                    else:
                        continue
                    found += [(path.stem, getattr(stmt, "name", None), m)
                              for m in names if m.split(".")[0] == "scipy"]
        assert found == []


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


class TestQuadraturePort:
    """``_simpson`` is Simpson's rule on evenly spaced points, and
    ``_cumulative_trapezoid`` equals scipy's rule bitwise."""

    @staticmethod
    def _grids():
        rng = np.random.default_rng(3)
        r = np.linspace(1e-12, 37.5, (1 << 17) + 1)
        v = np.linspace(math.sqrt(1e-12), math.sqrt(40.0), 4096 + 1)
        yield r, np.exp(-r) * r**2
        yield -v[::-1], np.sqrt(v[::-1]) * np.cos(v[::-1])
        for n in (3, 5, 101, 4097):
            x = np.cumsum(rng.exponential(size=n)) - 7.0
            yield x, rng.standard_normal(n)

    def test_simpson_exact_on_cubics(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 101):
            a, b = np.sort(rng.uniform(-3.0, 3.0, size=2))
            c = rng.standard_normal(4)
            x = np.linspace(a, b, n)
            exact = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(4))
            got = harness._simpson(np.polyval(c[::-1], x), x)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_simpson_matches_scipy_on_uniform_grids(self):
        from scipy.integrate import simpson
        for x, y in list(self._grids())[:2]:
            assert harness._simpson(y, x) == pytest.approx(simpson(y, x=x), rel=1e-14)
        rng = np.random.default_rng(4)
        for n in (3, 5, 101, 4097):
            x = np.linspace(-7.0, rng.uniform(-6.0, 30.0), n)
            y = rng.uniform(0.5, 1.5, size=n)
            assert harness._simpson(y, x) == pytest.approx(simpson(y, x=x), rel=1e-14)

    def test_cumulative_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid
        for x, y in self._grids():
            np.testing.assert_array_equal(harness._cumulative_trapezoid(y, x),
                                          cumulative_trapezoid(y, x, initial=0))

    def test_even_count_rejected(self):
        x = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DomainError, match="odd"):
            harness._simpson(x * x, x)


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
