"""Harness tests: config parsing, runners, CSV schema and round trip, CLI."""

import filecmp
import json
import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import geomint
from geomint import bench, cli
from geomint.bench import (
    ScenarioConfig,
    TrajectoryRecord,
    compare,
    default_config,
    parse_config,
    read_csv,
    run_scenario,
    scenario_columns,
    summarize_drift,
    write_csv,
)
from geomint.errors import (
    IncompatiblePair,
    IntegratorFailure,
    ParseError,
    UnknownColumn,
    UnknownKey,
)

RIGIDBODY_HEADER = (
    "step,t,R11,R12,R13,R21,R22,R23,R31,R32,R33,Pi1,Pi2,Pi3,energy,casimir"
)


class TestConfig:
    def test_defaults_mirror_benchmarks(self):
        cfg = default_config("rigidbody", "lp_exp")
        assert cfg.dt == 0.01 and cfg.steps == 180000
        assert cfg.params["Pi0"] == (1.0, 1.0, 1.0)
        cfg = default_config("kepler", "stormer_verlet")
        assert cfg.dt == 0.01 and cfg.steps == 3000
        assert cfg.params["x0"] == (1.0, 0.0, 0.0, 0.5)

    def test_incompatible_pair(self):
        with pytest.raises(IncompatiblePair):
            default_config("rigidbody", "stormer_verlet")
        with pytest.raises(IncompatiblePair):
            default_config("harmonic", "lp_exp")

    def test_every_cross_pair_rejected(self):
        # flat one-step schemes never run group scenarios and vice versa
        for scenario in bench.GROUP_SCENARIOS:
            for integrator in bench.FLAT_INTEGRATORS:
                with pytest.raises(IncompatiblePair):
                    default_config(scenario, integrator)
        for scenario in bench.FLAT_SCENARIOS:
            for integrator in bench.GROUP_INTEGRATORS:
                with pytest.raises(IncompatiblePair):
                    default_config(scenario, integrator)

    def test_unknown_names(self):
        with pytest.raises(UnknownKey):
            default_config("nonsense", "rk4")
        with pytest.raises(UnknownKey):
            default_config("harmonic", "nonsense")

    def test_unknown_model_key(self):
        with pytest.raises(UnknownKey):
            ScenarioConfig(
                scenario="harmonic", integrator="rk4", dt=0.1, steps=10,
                params={"bogus": 1.0},
            )
        # seed drives nothing, so it is not a config key
        with pytest.raises(UnknownKey):
            parse_config(
                None, {"scenario": "harmonic", "integrator": "rk4", "seed": 3.0}
            )
        with pytest.raises(UnknownKey):
            default_config("harmonic", "rk4", seed=3)
        # the quadrotor has a single translational update; no mode selects another
        with pytest.raises(UnknownKey):
            default_config("quadrotor_hover", "lp_exp", params={"as_printed": 1.0})

    def test_validation(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="harmonic", integrator="rk4", dt=0.0, steps=10)
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="harmonic", integrator="rk4", dt=0.1, steps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(
                scenario="harmonic", integrator="rk4", dt=0.1, steps=10, theta=1.5
            )
        with pytest.raises(ValueError, match="dt"):
            ScenarioConfig(
                scenario="harmonic", integrator="rk4", dt=float("inf"), steps=10
            )
        with pytest.raises(ValueError, match="k must be finite"):
            default_config("harmonic", "rk4", params={"k": float("nan")})
        with pytest.raises(ValueError, match="k must be numeric"):
            default_config("harmonic", "rk4", params={"k": "stiff"})
        with pytest.raises(ValueError, match="Pi0 expects 3 components, got 2"):
            default_config("rigidbody", "lp_exp", params={"Pi0": (1.0, 1.0)})
        with pytest.raises(ValueError, match="x0 must be finite"):
            default_config(
                "kepler", "rk4", params={"x0": (1.0, 0.0, float("inf"), 0.5)}
            )
        with pytest.raises(ValueError, match="dt must be a number, got '0.1'"):
            default_config("harmonic", "rk4", dt="0.1")
        with pytest.raises(ValueError, match=r"theta must be a number, got \(0\.1"):
            default_config("harmonic", "theta_family", theta=(0.1, 0.2))
        # the same inputs through the CLI, plus the model checks made when the
        # run is set up, exit 1 without writing a CSV
        out = tmp_path / "x.csv"
        for args in (
            ["--scenario", "harmonic", "--integrator", "rk4", "--dt", "inf"],
            ["--scenario", "harmonic", "--integrator", "rk4", "--param", "k=nan"],
            ["--scenario", "rigidbody", "--integrator", "lp_exp", "--param", "Pi0=1,1"],
            ["--scenario", "rigidbody", "--integrator", "lp_exp", "--param", "I1=-1"],
            ["--scenario", "heavytop", "--integrator", "lp_exp",
             "--param", "Gamma0=0,0,2"],
        ):
            code = cli.main(["run", *args, "--steps", "5", "--out", str(out)])
            assert code == 1, args
            assert "error" in capsys.readouterr().err
            assert not out.exists()
        # steps must be a whole number; a config file parses it as a float
        with pytest.raises(ValueError, match="steps must be an integer, got 2.7"):
            ScenarioConfig(scenario="harmonic", integrator="rk4", dt=0.1, steps=2.7)
        cfg = tmp_path / "run.cfg"
        for value in ("inf", "2.7"):
            cfg.write_text(f"steps = {value}\n", encoding="utf-8")
            code = cli.main(
                [
                    "run", "--scenario", "harmonic", "--integrator", "rk4",
                    "--config", str(cfg), "--out", str(out),
                ]
            )
            assert code == 1, value
            assert f"steps must be an integer, got {value}" in capsys.readouterr().err
            assert not out.exists()
        # dt and theta from a file must be single numbers
        for key in ("dt", "theta"):
            cfg.write_text(f"{key} = 0.1,0.2\n", encoding="utf-8")
            code = cli.main(
                [
                    "run", "--scenario", "harmonic", "--integrator", "rk4",
                    "--config", str(cfg), "--out", str(out),
                ]
            )
            assert code == 1, key
            assert f"{key} must be a number, got (0.1, 0.2)" in capsys.readouterr().err
            assert not out.exists()


class TestParseConfig:
    def test_file_with_comments_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# benchmark run\n"
            "scenario = rigidbody\n"
            "integrator = lp_exp\n"
            "dt = 0.01\n"
            "steps = 180000  # half an hour\n"
            "Pi0 = 1,1,1\n",
            encoding="utf-8",
        )
        cfg = parse_config(str(path))
        assert cfg.scenario == "rigidbody" and cfg.integrator == "lp_exp"
        assert cfg.steps == 180000 and cfg.params["Pi0"] == (1.0, 1.0, 1.0)
        # CLI overrides win over file values
        cfg = parse_config(str(path), {"steps": 10.0})
        assert cfg.steps == 10

    def test_empty_file_plus_flags(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        cfg = parse_config(
            str(path),
            {"scenario": "harmonic", "integrator": "rk4", "dt": 0.1, "steps": 5.0},
        )
        assert cfg.steps == 5

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = harmonic\nwhat is this\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_config(str(path))
        assert err.value.line_no == 2

    def test_incompatible_pair_from_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "scenario = rigidbody\nintegrator = stormer_verlet\n", encoding="utf-8"
        )
        with pytest.raises(IncompatiblePair):
            parse_config(str(path))

    def test_missing_scenario(self):
        with pytest.raises(UnknownKey):
            parse_config(None, {"integrator": "rk4"})


class TestRunScenario:
    def test_harmonic_record_count(self):
        cfg = default_config("harmonic", "sympl_euler_a")
        records = run_scenario(cfg)
        assert len(records) == 50
        assert records[0].step == 1 and records[-1].step == 50
        e0 = 0.5
        assert all(abs(r.value("energy") - e0) < 0.06 * e0 for r in records)

    def test_single_step_single_record(self):
        cfg = default_config("harmonic", "rk4", steps=1)
        records = run_scenario(cfg)
        assert len(records) == 1

    def test_monotone_time(self):
        cfg = default_config("kepler", "rk2", steps=20)
        records = run_scenario(cfg)
        times = [r.t for r in records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_kepler_sv_angmom_column(self):
        cfg = default_config("kepler", "stormer_verlet", steps=200)
        records = run_scenario(cfg)
        assert all(abs(r.value("angmom") - 0.5) < 1e-12 for r in records)

    def test_integrator_failure_carries_step(self):
        # a huge implicit-Euler step on Kepler sends Newton into the weeds
        cfg = default_config(
            "kepler", "implicit_euler", dt=50.0, steps=5
        )
        with pytest.raises(IntegratorFailure) as err:
            run_scenario(cfg)
        assert err.value.step >= 1

    def test_determinism(self, tmp_path):
        cfg = default_config("rigidbody", "lp_exp", steps=200)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_scenario(cfg), str(a))
        write_csv(run_scenario(cfg), str(b))
        assert filecmp.cmp(str(a), str(b), shallow=False)

    def test_quadrotor_hover_columns(self):
        cfg = default_config("quadrotor_hover", "lp_exp", steps=10)
        records = run_scenario(cfg)
        for r in records:
            assert r.value("q3") == 1.0
            assert r.value("p1") == 0.0

    def test_theta_family_runs(self):
        cfg = default_config("harmonic", "theta_family", steps=50, theta=0.5)
        records = run_scenario(cfg)
        assert len(records) == 50
        # the midpoint member conserves the quadratic energy to roundoff
        assert all(abs(r.value("energy") - 0.5) < 1e-12 for r in records)

    def test_theta_family_kepler_midpoint_conserves_angmom(self):
        # the quadratic invariant survives the midpoint member exactly-ish
        cfg = default_config("kepler", "theta_family", steps=300, theta=0.5)
        records = run_scenario(cfg)
        assert all(abs(r.value("angmom") - 0.5) < 1e-11 for r in records)

    def test_lp_exp_right_tracks_body_momentum(self):
        left = run_scenario(default_config("rigidbody", "lp_exp", steps=100))
        right = run_scenario(default_config("rigidbody", "lp_exp_right", steps=100))
        for a, b in zip(left, right):
            for col in ("Pi1", "Pi2", "Pi3"):
                assert abs(a.value(col) - b.value(col)) < 1e-12


class TestCsv:
    def test_rigidbody_header_golden(self, tmp_path):
        cfg = default_config("rigidbody", "lp_exp", steps=3)
        path = tmp_path / "rb.csv"
        write_csv(run_scenario(cfg), str(path))
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == RIGIDBODY_HEADER

    def test_columns_per_scenario(self):
        assert scenario_columns("rigidbody") == tuple(RIGIDBODY_HEADER.split(","))
        assert scenario_columns("harmonic") == ("step", "t", "q", "v", "energy")
        with pytest.raises(UnknownKey):
            scenario_columns("nope")

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "x.csv"))

    def test_round_trip_bitwise(self, tmp_path):
        cfg = default_config("heavytop", "lp_cayley", steps=20)
        records = run_scenario(cfg)
        path = tmp_path / "ht.csv"
        write_csv(records, str(path))
        back = read_csv(str(path))
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.step == b.step and a.t == b.t
            assert a.values == b.values


class TestSummarizeDrift:
    def _records(self, values):
        cols = ("step", "t", "x")
        return [
            TrajectoryRecord(k + 1, 0.1 * (k + 1), (v,), cols)
            for k, v in enumerate(values)
        ]

    def test_constant_column(self):
        s = summarize_drift(self._records([2.5] * 10), "x")
        assert s.initial == 2.5 and s.final == 2.5
        assert s.max_abs_dev == 0.0 and s.linear_slope == 0.0

    def test_linear_column(self):
        b = -0.73
        values = [4.0 + b * 0.1 * (k + 1) for k in range(50)]
        s = summarize_drift(self._records(values), "x")
        assert abs(s.linear_slope - b) < 1e-12

    def test_explicit_euler_energy_grows(self):
        cfg = default_config("harmonic", "explicit_euler")
        s = summarize_drift(run_scenario(cfg), "energy")
        assert s.linear_slope > 0.0
        assert s.final > s.initial

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            summarize_drift(self._records([1.0, 2.0]), "y")

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            summarize_drift(self._records([1.0]), "x")

    def test_step_and_time_are_not_value_columns(self):
        # step and t are not stored in rec.values, so no value index may stand in
        records = run_scenario(default_config("kepler", "stormer_verlet", steps=5))
        for column in ("step", "t"):
            with pytest.raises(UnknownColumn):
                summarize_drift(records, column)
            with pytest.raises(UnknownColumn):
                bench._max_abs_dev(records, column)

    def test_max_abs_dev_matches_numpy_bitwise(self):
        rng = np.random.default_rng(7)
        nan = float("nan")
        cases = [
            list(1.0 + 1e-13 * rng.standard_normal(200)),
            list(rng.uniform(-3.0, 3.0, 50)),
            [0.0, -0.0, 0.0],
            [2.5, 2.5, 2.5 + 2.0**-51, 2.5 - 2.0**-50],
            [1.0, 1.0, nan, 5.0],
            [nan, 1.0, 2.0],
            [1.0, float("inf"), 2.0],
        ]
        for values in cases:
            v = np.array(values)
            with np.errstate(invalid="ignore"):
                expected = float(np.max(np.abs(v - v[0])))
                # the slope of a column holding inf is nan; only the deviation is pinned
                got = summarize_drift(self._records(values), "x").max_abs_dev
            if math.isnan(expected):
                assert math.isnan(got), values
            else:
                assert struct.pack("<d", got) == struct.pack("<d", expected), values
        records = run_scenario(default_config("rigidbody", "lp_exp", steps=300))
        v = np.array([rec.value("energy") for rec in records])
        expected = float(np.max(np.abs(v - v[0])))
        got = summarize_drift(records, "energy").max_abs_dev
        assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestCompare:
    def test_four_rows(self):
        configs = [
            default_config("harmonic", name)
            for name in ("explicit_euler", "implicit_euler", "sympl_euler_a", "sympl_euler_b")
        ]
        table = compare(configs)
        lines = table.splitlines()
        assert len(lines) == 2 + 4
        assert "explicit_euler" in lines[2]

    def test_single_config(self):
        table = compare([default_config("harmonic", "rk4")])
        assert len(table.splitlines()) == 3

    def test_mismatched_scenarios(self):
        with pytest.raises(ValueError):
            compare(
                [default_config("harmonic", "rk4"), default_config("kepler", "rk4")]
            )

    def test_group_scenario_has_orthodefect_column(self):
        table = compare([default_config("rigidbody", "lp_exp", steps=50)])
        assert "orthodefect" in table.splitlines()[0]

    def test_rigidbody_contrast_rows(self):
        # Casimir column: geometric rows orders of magnitude below baselines
        names = ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4")
        configs = [default_config("rigidbody", n, steps=2000) for n in names]
        devs = {}
        for cfg in configs:
            devs[cfg.integrator] = summarize_drift(
                run_scenario(cfg), "casimir"
            ).max_abs_dev
        table = compare(configs)
        assert len(table.splitlines()) == 6
        for geo in ("lp_exp", "lp_cayley"):
            for base in ("quat_rk4", "rkmk4"):
                assert devs[geo] < devs[base] * 1e-2


class TestCli:
    def test_run_roundtrip(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(
            [
                "run", "--scenario", "harmonic", "--integrator", "sympl_euler_a",
                "--dt", "0.1", "--steps", "50", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").count("\n") == 51

    def test_run_with_param_override(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(
            [
                "run", "--scenario", "harmonic", "--integrator", "rk4",
                "--steps", "5", "--param", "k=4.0", "--out", str(out),
            ]
        )
        assert code == 0

    def test_usage_error_exit_code(self, tmp_path, capsys):
        code = cli.main(
            [
                "run", "--scenario", "rigidbody", "--integrator", "stormer_verlet",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        # a one-step compare has no deviation to report
        code = cli.main(
            [
                "compare", "--scenario", "rigidbody", "--integrators", "lp_exp",
                "--steps", "1",
            ]
        )
        assert code == 1
        assert "need at least two records" in capsys.readouterr().err
        # argparse's own usage errors exit 1 too; 2 means an integrator failure
        run = ["run", "--scenario", "harmonic", "--integrator", "rk4"]
        for args in (
            [*run, "--as-printed"],
            ["run", "--scenario", "nonsense", "--integrator", "rk4"],
            [*run, "--steps", "abc"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*args, "--out", str(tmp_path / "x.csv")])
            assert exit_info.value.code == 1, args
            assert "usage:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "-h"])
        assert exit_info.value.code == 0
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "scenario, integrator, dt, params, cause",
        [
            ("kepler", "implicit_euler", "50.0", (), "no convergence"),
            # the Rotation check fails inside the step loop
            ("rigidbody", "quat_rk4", "1e3", (), "rotation matrix"),
            # Newton converges to a spurious root past the exp chart
            ("rigidbody", "lp_exp", "50", (), "outside the retraction's chart"),
            # a stiff heavy top drives the RKMK increment past dexpinv's 2 pi ball
            (
                "heavytop", "rkmk4", "0.07",
                (
                    "g=3000",
                    "Pi0=0.04220421927097438,-1.0727126340533713,1.6874556019694282",
                    "Gamma0=-0.9752970916644843,0.020379727907865002,"
                    "0.21995510833167703",
                    "chi=-0.46012144574376457,0.39408413565385647,-0.8700000485678103",
                ),
                "rkmk4 increment |u| = 30.9572 >= 2*pi",
            ),
        ],
        ids=[
            "kepler_no_convergence", "rotation_check", "exp_out_of_chart",
            "rkmk4_dexpinv_domain",
        ],
    )
    def test_integrator_failure_exit_code(
        self, tmp_path, capsys, scenario, integrator, dt, params, cause
    ):
        out = tmp_path / "x.csv"
        code = cli.main(
            [
                "run", "--scenario", scenario, "--integrator", integrator,
                "--dt", dt, "--steps", "5", "--out", str(out),
                *(arg for value in params for arg in ("--param", value)),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "integrator failed at step" in err and cause in err
        assert not out.exists()

    def test_compare_to_file(self, tmp_path):
        out = tmp_path / "table.txt"
        code = cli.main(
            [
                "compare", "--scenario", "harmonic",
                "--integrators", "explicit_euler,sympl_euler_a",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "max|d energy|" in out.read_text(encoding="utf-8")

    def test_check_subcommand(self):
        assert cli.main(["check"]) == 0

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = cli.main(
            [
                "run", "--scenario", "harmonic", "--integrator", "rk4",
                "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = pendulum_embedded\nintegrator = rk2\nsteps = 20\n"
            "project = true\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.csv"
        code = cli.main(
            [
                "run", "--scenario", "pendulum_embedded", "--integrator", "rk2",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(str(out))
        assert all(r.value("cylinder_defect") <= 1e-15 for r in rows)

    def test_rotational_runs_never_import_numpy(self, tmp_path):
        # a fresh interpreter, because this one has numpy loaded already
        script = textwrap.dedent(
            """
            import sys
            from geomint import bench, cli

            out = sys.argv[1]
            assert "numpy" not in sys.modules, "importing geomint.cli loaded numpy"
            for scenario in bench.GROUP_SCENARIOS:
                for integrator in bench.COMPAT[scenario]:
                    argv = ["run", "--scenario", scenario, "--integrator", integrator,
                            "--steps", "3", "--out", out]
                    assert cli.main(argv) == 0, argv
                    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
            for scenario in ("rigidbody", "heavytop"):
                argv = ["compare", "--scenario", scenario,
                        "--integrators", ",".join(bench.COMPAT[scenario]),
                        "--steps", "3"]
                assert cli.main(argv) == 0, argv
                assert "numpy" not in sys.modules, f"{argv} loaded numpy"
            # a flat run does load it, so the checks above are not vacuous
            argv = ["run", "--scenario", "kepler", "--integrator", "stormer_verlet",
                    "--steps", "1", "--out", out]
            assert cli.main(argv) == 0, argv
            assert "numpy" in sys.modules, "the Kepler run did not load numpy"
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(geomint.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "x.csv")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr


class TestConformance:
    def test_csv_bytes_of_every_pair_unchanged(self):
        # perfbench pins the CSV bytes of all 31 scenario-integrator pairs at seed 0
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"), "--conformance"],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["pairs"]) == 31
        assert report["changed"] == []
        assert report["missing_from_reference"] == []
        # the two known defects, and no other
        assert report["failing"] == ["kepler.implicit_euler", "pendulum_embedded.explicit_euler"]
