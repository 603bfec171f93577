"""Harness tests: config parsing, runners, CSV schema and round trip, CLI."""

import filecmp
import hashlib
import json
import math
import os
import re
import resource
import signal
import stat
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

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
from geomint.mechanics import RigidBodyParams, orthogonality_defect

RIGIDBODY_HEADER = (
    "step,t,R11,R12,R13,R21,R22,R23,R31,R32,R33,Pi1,Pi2,Pi3,energy,casimir"
)


@pytest.fixture(autouse=True)
def _environ_restored():
    # cli.main sets OMP_NUM_THREADS in the process it runs in, and the in-process
    # CLI tests share this one; each test leaves os.environ as it found it
    with mock.patch.dict(os.environ):
        yield


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

    def test_scenario_table_exports(self):
        # the names the CLI and scripts read, derived from the one scenario table
        flat = (
            "explicit_euler", "implicit_euler", "sympl_euler_a", "sympl_euler_b",
            "stormer_verlet", "rk2", "rk4", "theta_family",
        )
        group = ("lp_exp", "lp_cayley", "lp_exp_right", "quat_rk4", "rkmk4")
        assert bench.SCENARIOS == (
            "harmonic", "kepler", "pendulum_embedded",
            "rigidbody", "heavytop", "quadrotor_hover",
        )
        assert bench.INTEGRATORS == flat + group
        assert bench.COMPAT == {
            "harmonic": flat,
            "kepler": flat,
            "pendulum_embedded": ("explicit_euler", "implicit_euler", "rk2", "rk4"),
            "rigidbody": group,
            "heavytop": ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4"),
            "quadrotor_hover": ("lp_exp", "lp_cayley"),
        }
        assert list(bench.COMPAT) == list(bench.SCENARIOS)

    def test_every_cross_pair_rejected(self):
        # flat one-step schemes never run scenarios with an attitude and vice versa
        group = [s for s in bench.SCENARIOS if "R11" in scenario_columns(s)]
        flat = [s for s in bench.SCENARIOS if s not in group]
        assert group == ["rigidbody", "heavytop", "quadrotor_hover"]
        flat_names = {name for s in flat for name in bench.COMPAT[s]}
        group_names = {name for s in group for name in bench.COMPAT[s]}
        assert flat_names.isdisjoint(group_names)
        for scenario in group:
            for integrator in flat_names:
                with pytest.raises(IncompatiblePair):
                    default_config(scenario, integrator)
        for scenario in flat:
            for integrator in group_names:
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
        # default_config is ScenarioConfig, so an unknown option is a TypeError
        with pytest.raises(TypeError, match="seed"):
            default_config("harmonic", "rk4", seed=3)
        # the quadrotor has a single translational update; no mode selects another
        with pytest.raises(UnknownKey):
            default_config("quadrotor_hover", "lp_exp", params={"as_printed": 1.0})

    def test_validation(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="harmonic", integrator="rk4", dt=0.0, steps=10)
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="harmonic", integrator="rk4", dt=0.1, steps=0)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
            ScenarioConfig(
                scenario="harmonic", integrator="theta_family", dt=0.1, steps=10,
                theta=1.5,
            )
        # only theta_family reads theta, where it defaults to 0.5
        with pytest.raises(ValueError, match="theta applies to theta_family only, not rk4"):
            ScenarioConfig(
                scenario="harmonic", integrator="rk4", dt=0.1, steps=10, theta=0.5
            )
        assert default_config("harmonic", "rk4").theta is None
        assert default_config("harmonic", "theta_family").theta == 0.5
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
        # project is a switch: 0 or 1, which a file's false/true parse to
        for value in (0.3, -7.0, 2.0):
            with pytest.raises(ValueError, match="project must be 0 or 1"):
                default_config("pendulum_embedded", "rk2", params={"project": value})
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
        # the message names the key at fault
        for args, needle in (
            (["--scenario", "pendulum_embedded", "--integrator", "rk2",
              "--param", "project=0.3"], "project must be 0 or 1, got 0.3"),
            (["--scenario", "pendulum_embedded", "--integrator", "rk2",
              "--param", "project=-7"], "project must be 0 or 1, got -7.0"),
            (["--scenario", "kepler", "--integrator", "rk4",
              "--param", "x0=1,,0,0.5"], "--param x0 expects numbers"),
            (["--scenario", "rigidbody", "--integrator", "lp_exp",
              "--theta", "0.3"], "theta applies to theta_family only, not lp_exp"),
        ):
            code = cli.main(["run", *args, "--steps", "5", "--out", str(out)])
            assert code == 1, args
            assert needle in capsys.readouterr().err
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
                    "run", "--scenario", "harmonic", "--integrator", "theta_family",
                    "--config", str(cfg), "--out", str(out),
                ]
            )
            assert code == 1, key
            assert f"{key} must be a number, got (0.1, 0.2)" in capsys.readouterr().err
            assert not out.exists()
        # true and false are switch words: only project takes one
        cfg.write_text("dt = true\n", encoding="utf-8")
        code = cli.main(
            [
                "run", "--scenario", "harmonic", "--integrator", "rk4",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert code == 1
        assert "dt must be a number, got True" in capsys.readouterr().err
        assert not out.exists()
        code = cli.main(
            [
                "run", "--scenario", "harmonic", "--integrator", "rk4",
                "--param", "m=true", "--out", str(out),
            ]
        )
        assert code == 1
        assert "m must be numeric, got True" in capsys.readouterr().err
        assert not out.exists()
        for word, value in (("true", 1.0), ("false", 0.0)):
            cfg.write_text(f"project = {word}\n", encoding="utf-8")
            parsed = parse_config(
                str(cfg), {"scenario": "pendulum_embedded", "integrator": "rk2"}
            )
            assert parsed.params["project"] == value


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
        # a number list with an empty entry
        path.write_text(
            "scenario = kepler\nintegrator = rk4\nx0 = 1,,0,0.5\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            parse_config(str(path))
        assert err.value.line_no == 3
        assert "x0 = 1,,0,0.5" in str(err.value)
        # a key given twice names the second line; the last one does not win
        path.write_text(
            "scenario = harmonic\nintegrator = rk4\nsteps = 3\n# again\n steps=5\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            parse_config(str(path))
        assert err.value.line_no == 5
        assert str(err.value) == "line 5: key 'steps' given again in ' steps=5'"

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

    def test_streamed_run_memory_does_not_grow_with_steps(self, tmp_path):
        # given a path, a run streams its records to the writer and keeps none
        def peak(steps):
            config = default_config("rigidbody", "lp_exp", steps=steps)
            tracemalloc.start()
            try:
                assert run_scenario(config, str(tmp_path / "x.csv")) == steps
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations out of the way
        assert peak(1000) - peak(100) < 16 * 1024

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


def _cells(table):
    """The cells of a compare table's rows, all but the wall ms column."""
    return [line.split()[:-1] for line in table.splitlines()[2:]]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize("cpus", [None, 1])
    @pytest.mark.parametrize("scenario", ["rigidbody", "heavytop", "kepler"])
    def test_rows_match_in_process_runs(self, monkeypatch, scenario, cpus):
        # forked workers, numpy already loaded for kepler, give the rows of
        # in-process runs one config at a time; one worker per usable CPU
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        configs = [default_config(scenario, name, steps=100) for name in bench.COMPAT[scenario]]
        table = compare(configs)
        assert len(forks) == min(len(configs), len(os.sched_getaffinity(0)))
        _assert_no_child_left()
        assert _cells(table) == [bench._compare_row(c)[:-1] for c in configs]

    # the lp_exp worker, the rkmk4 worker, or every worker dies by SIGKILL
    @pytest.mark.parametrize("victim", ["lp_exp", "rkmk4", None])
    def test_killed_worker_gives_the_serial_outcome(self, monkeypatch, victim):
        parent, iterate, row = os.getpid(), bench.iter_scenario, bench._compare_row
        reran = []

        def iterate_or_die(config):
            if os.getpid() != parent and victim in (None, config.integrator):
                os.kill(os.getpid(), signal.SIGKILL)
            return iterate(config)

        def row_here(config):
            if os.getpid() == parent:
                reran.append(config.integrator)
            return row(config)

        monkeypatch.setattr(bench, "iter_scenario", iterate_or_die)
        monkeypatch.setattr(bench, "_compare_row", row_here)
        # two workers whatever the machine, so one outlives a single victim
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        configs = [default_config("heavytop", name, steps=50) for name in bench.COMPAT["heavytop"]]
        table = compare(configs)
        _assert_no_child_left()
        # the parent ran again exactly the configs whose workers died
        assert reran == [c.integrator for c in configs if victim in (None, c.integrator)]
        assert _cells(table) == [row(c)[:-1] for c in configs]
        reran.clear()
        failing = [default_config("heavytop", name, dt=0.5, steps=300) for name in ("lp_exp", "rkmk4")]
        with pytest.raises(IntegratorFailure, match=r"step 10: rkmk4 increment \|u\| = 6\.6254 "):
            compare(failing)
        _assert_no_child_left()
        # and the config that failed in its worker
        assert reran == (["rkmk4"] if victim == "rkmk4" else ["lp_exp", "rkmk4"])

    # item 3's worker, or every worker, dies by SIGKILL
    @pytest.mark.parametrize("victim", [3, None])
    def test_pool_maps_any_function(self, monkeypatch, victim):
        # the pool behind compare and the acceptance runs: rows of any function,
        # in input order, a killed worker's items run again here, none left behind
        parent, reran = os.getpid(), []

        def fn(item):
            if os.getpid() == parent:
                reran.append(item)
            elif victim in (None, item):
                os.kill(os.getpid(), signal.SIGKILL)
            if item == 5:
                raise ValueError(f"item {item} failed")
            return [repr(item * 0.1), "x" * item]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        items = [0, 1, 2, 3, 4]
        rows = [[repr(i * 0.1), "x" * i] for i in items]
        assert bench._rows_in_workers(fn, items) == rows
        _assert_no_child_left()
        assert reran == [i for i in items if victim in (None, i)]
        # the first item in order that fails in its worker raises here, as in a loop
        reran.clear()
        with pytest.raises(ValueError, match="item 5 failed"):
            bench._rows_in_workers(fn, [1, 5, 6, 5])
        _assert_no_child_left()
        assert reran == ([1, 5] if victim is None else [5])
        assert bench._rows_in_workers(fn, []) == []

    def test_memory_does_not_grow_with_steps(self):
        # a row folds its columns as the run goes and keeps no records
        def peak(steps):
            config = default_config("rigidbody", "lp_exp", steps=steps)
            tracemalloc.start()
            try:
                bench._compare_row(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations out of the way
        assert peak(1000) - peak(100) < 16 * 1024

    @pytest.mark.parametrize("scenario", bench.SCENARIOS)
    def test_cells_match_numpy(self, scenario):
        # 300 flat steps reach the non-finite state of pendulum_embedded
        # explicit_euler at step 251 and the failure of kepler implicit_euler
        # at step 133
        attitude = "R11" in scenario_columns(scenario)
        steps = 200 if attitude else 300
        rot = ("R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33")
        rows = {}
        for name in bench.COMPAT[scenario]:
            config = default_config(scenario, name, steps=steps)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    records = run_scenario(config)
                except IntegratorFailure as exc:
                    with pytest.raises(IntegratorFailure, match=re.escape(str(exc))):
                        bench._compare_row(config)
                    rows[name] = exc.step
                    continue
                expected = [name]
                for column in bench._SCENARIO_TABLE[scenario]["invariants"]:
                    v = np.array([rec.value(column) for rec in records])
                    expected.append("%.3e" % float(np.max(np.abs(v - v[0]))))
                rows[name] = bench._compare_row(config)[:-1]
            if attitude:
                defects = []
                for rec in records:
                    r = [rec.value(c) for c in rot]
                    defects.append(orthogonality_defect((r[0:3], r[3:6], r[6:9])))
                expected.append("%.3e" % max(defects))
            assert rows[name] == expected
        if scenario == "pendulum_embedded":
            assert rows["explicit_euler"] == 251
        if scenario == "kepler":
            assert rows["implicit_euler"] == 133


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

    def test_repeated_param_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        run = ["run", "--scenario", "kepler", "--integrator", "rk4", "--steps", "3",
               "--out", str(out)]
        assert cli.main([*run, "--param", "mu=2", "--param", " mu=3"]) == 1
        assert capsys.readouterr().err == "error: --param mu is given twice\n"
        assert not out.exists()
        # a file key and a flag for it are no repeat: the flag wins
        path = tmp_path / "run.cfg"
        path.write_text("mu = 2\nsteps = 7\n", encoding="utf-8")
        assert cli.main([*run, "--config", str(path), "--param", "mu=3"]) == 0
        assert len(read_csv(str(out))) == 3

    def test_usage_error_exit_code(self, tmp_path, capsys, monkeypatch):
        code = cli.main(
            [
                "run", "--scenario", "rigidbody", "--integrator", "stormer_verlet",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        # a one-step compare has no deviation to report, and says so before any fork
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("compare forked"))
        code = cli.main(
            [
                "compare", "--scenario", "rigidbody", "--integrators", "lp_exp",
                "--steps", "1",
            ]
        )
        assert code == 1
        assert "need at least two records" in capsys.readouterr().err
        _assert_no_child_left()
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
            # the stock run's known failure
            (
                "kepler", "implicit_euler", "0.01", (),
                "error: integrator failed at step 133: no convergence after 50 iterations "
                "(residual inf-norm 1.486e+01)\n",
            ),
            # a spin about a principal axis keeps Pi finite while the quaternion
            # stages overflow; the rate is named, not the Rotation check it trips
            (
                "rigidbody", "quat_rk4", "0.01", ("Pi0=1e160,0,0",),
                "step 1: ValueError: quat_rk4: the step's |dt*Omega| = 1e+158 overflowed",
            ),
            # Pi overflows in the RK4 stages and is named, not the attitude it spoils
            ("rigidbody", "quat_rk4", "1e3", (), "step 2: ValueError: Pi = (1.28914"),
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
            # arithmetic errors from outside the library are named by their type
            (
                "rigidbody", "lp_exp", "0.01", ("Pi0=1e100,1e100,1e100",),
                "step 1: OverflowError",
            ),
            (
                "rigidbody", "lp_exp", "0.01", ("Pi0=1e160,1e160,1e160",),
                "step 1: ValueError: math domain error",
            ),
            # a failed rotational solve names |dt*Omega| where it stopped, and the
            # first iterate's when that one is not finite
            (
                "rigidbody", "lp_exp", "0.01", ("Pi0=1e120,0,0",),
                "step 1: OverflowError: (34, 'Numerical result out of range') "
                "at |dt*Omega| = 1e+118\n",
            ),
            (
                "rigidbody", "lp_exp", "0.01", ("Pi0=1e200,0,0",),
                "step 1: ValueError: math domain error at |dt*Omega| = 1e+198\n",
            ),
            (
                "rigidbody", "lp_cayley", "0.01", ("Pi0=1e155,0,0",),
                "step 1: no convergence after 50 iterations (residual inf-norm nan) "
                "at |dt*Omega| = nan (first iterate 1e+153)\n",
            ),
            # a failed heavy-top solve also names the gravity impulse
            (
                "heavytop", "lp_exp", "0.01", ("g=1e308",),
                "step 1: ValueError: math domain error at |dt*Omega| = 1.66675e+301; "
                "gravity impulse |dt*m*g*chi| = 1e+306\n",
            ),
            (
                "heavytop", "lp_cayley", "0.01", ("g=1e308",),
                "step 1: non-finite Newton step at |dt*Omega| = nan "
                "(first iterate 0.0100504); gravity impulse |dt*m*g*chi| = 1e+306\n",
            ),
            # a heavy-top Newton fallback that fails names Newton's last iterate,
            # not the fixed-point one it started from (41.5229)
            (
                "heavytop", "lp_exp", "0.21913369551467826",
                (
                    "g=2192.304781991478",
                    "chi=1.3093217603983787,-0.2336790001157545,0.9901070798229812",
                    "Pi0=1.7030556641407104,-1.9663148906708239,0.8758060614355943",
                    "Gamma0=0.6090455888019537,-0.5543357561714068,-0.56725244837793",
                ),
                "step 1: no convergence after 50 iterations (residual inf-norm 4.435e+02) "
                "at |dt*Omega| = 5.02984; gravity impulse |dt*m*g*chi| = 796.556\n",
            ),
            # a flat Newton solve walks out to where its finite-difference
            # Jacobian is singular, and names that iterate
            (
                "kepler", "implicit_euler", "0.01", ("mu=1e308",),
                "step 1: Singular matrix at x = "
                "(1.10709e+07, 3.60853e-286, 1.13863e+09, 3.60853e-284)\n",
            ),
        ],
        ids=[
            "kepler_no_convergence", "kepler_stock_implicit_euler", "attitude_overflow", "pi_overflow", "exp_out_of_chart",
            "rkmk4_dexpinv_domain", "overflow_error", "math_domain_error",
            "rigidbody_exp_overflow_names_iterate", "rigidbody_exp_domain_names_iterate",
            "rigidbody_cayley_nan_names_first_iterate", "heavytop_exp_domain_names_iterate",
            "heavytop_cayley_newton_names_first_iterate", "heavytop_fallback_names_newton_iterate",
            "flat_newton_names_singular_iterate",
        ],
    )
    def test_integrator_failure_exit_code(
        self, tmp_path, capsys, scenario, integrator, dt, params, cause
    ):
        out = tmp_path / "x.csv"
        # every case fails by step 133, so no run reaches its last step
        code = cli.main(
            [
                "run", "--scenario", scenario, "--integrator", integrator,
                "--dt", dt, "--steps", "200", "--out", str(out),
                *(arg for value in params for arg in ("--param", value)),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "integrator failed at step" in err and cause in err
        assert list(tmp_path.iterdir()) == []

    # 4000 steps: the forked writer has formatted thousands of rows when a
    # test makes the run fail at step 2000 or 3000
    _LONG_RUN = ["run", "--scenario", "rigidbody", "--integrator", "lp_exp", "--steps", "4000"]

    @pytest.mark.parametrize("interrupt", [False, True], ids=["failure", "interrupt"])
    def test_failed_run_leaves_no_file_and_keeps_an_old_one(
        self, tmp_path, capsys, monkeypatch, interrupt
    ):
        out = tmp_path / "x.csv"
        iterate, partial = bench.iter_scenario, []

        def fails_at_3000(config):
            for rec in iterate(config):
                if rec.step == 3000:
                    # the temporary file beside --out already holds rows
                    partial.extend(p.stat().st_size for p in tmp_path.glob("x.csv.*.tmp"))
                    raise KeyboardInterrupt if interrupt else IntegratorFailure(
                        3000, ValueError("injected")
                    )
                yield rec

        monkeypatch.setattr(bench, "iter_scenario", fails_at_3000)
        for old in (None, b"an earlier run\n"):
            if old is not None:
                out.write_bytes(old)
            if interrupt:
                with pytest.raises(KeyboardInterrupt):
                    cli.main([*self._LONG_RUN, "--out", str(out)])
            else:
                assert cli.main([*self._LONG_RUN, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err == "error: integrator failed at step 3000: ValueError: injected\n"
            _assert_no_child_left()
            assert len(partial) == 1 and partial.pop() > 0
            if old is None:
                assert list(tmp_path.iterdir()) == []
            else:
                assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == old

    def test_out_in_a_missing_directory_exits_before_the_first_step(
        self, tmp_path, capsys, monkeypatch
    ):
        iterate, started = bench.iter_scenario, []

        def records(config):
            started.append(config)
            yield from iterate(config)

        monkeypatch.setattr(bench, "iter_scenario", records)
        out = tmp_path / "missing" / "x.csv"
        assert cli.main([*self._LONG_RUN, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )
        assert started == [] and list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    @pytest.mark.parametrize("death", ["killed", "file_too_large", "quits"])
    def test_writer_failure_exits_1_and_leaves_no_file(self, tmp_path, capfd, monkeypatch, death):
        # the writer is killed at step 2000, or leaves at once with status 0,
        # or may write only 100 bytes, so that its own write fails once it has
        # read every row of a 3-step run; in each case no CSV and no temporary
        # file remain
        fork, iterate, writers = os.fork, bench.iter_scenario, []

        def fork_writer():
            pid = fork()
            if pid == 0 and death == "file_too_large":
                signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
                resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))
            writers.append(pid)
            return pid

        def records(config):
            for rec in iterate(config):
                if rec.step == 2000 and death == "killed":
                    os.kill(writers[0], signal.SIGKILL)
                yield rec

        monkeypatch.setattr(os, "fork", fork_writer)
        monkeypatch.setattr(bench, "iter_scenario", records)
        if death == "quits":
            monkeypatch.setattr(bench, "_write_rows", lambda *args: os._exit(0))
        out = tmp_path / "x.csv"
        steps = "3" if death == "file_too_large" else "4000"
        assert cli.main([*self._LONG_RUN[:-1], steps, "--out", str(out)]) == 1
        expected = {
            "killed": f"error: the CSV writer for {out} was killed by signal 9; no CSV was written\n",
            "file_too_large": (
                "error: CSV writer: [Errno 27] File too large\n"
                f"error: the CSV writer for {out} exited with status 1; no CSV was written\n"
            ),
            "quits": f"error: the CSV writer for {out} exited with status 0; no CSV was written\n",
        }[death]
        assert capfd.readouterr().err == expected
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    def test_csv_mode_follows_the_umask(self, tmp_path):
        # the CSV replaces a file already at --out, whose mode it does not keep
        out = tmp_path / "x.csv"
        out.write_bytes(b"")
        out.chmod(0o600)
        for umask in (0o022, 0o027):
            old = os.umask(umask)
            try:
                assert cli.main([*self._LONG_RUN[:-1], "3", "--out", str(out)]) == 0
            finally:
                os.umask(old)
            assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [out]
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--scenario", "harmonic", "--integrator", "rk4", "--dt", "-0.01"],
             "dt must be positive and finite, got -0.01"),
            (["--scenario", "kepler", "--integrator", "theta_family", "--theta", "nan"],
             "theta must lie in [0, 1], got nan"),
            # F defaults to m*g; the user set m, not F, so both factors are named
            (["--scenario", "quadrotor_hover", "--integrator", "lp_exp",
              "--param", "m=1e308"],
             "F = m*g must be finite, got m = 1e+308, g = 9.81"),
        ],
        ids=["dt_negative", "theta_nan", "hover_thrust_overflow"],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert cli.main(["run", *args, "--steps", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_flat_state_fails_at_its_step(self, tmp_path, capsys):
        # explicit Euler spirals off the embedded pendulum's cylinder; the first
        # state with an infinite entry fails its step, and no CSV is written
        out = tmp_path / "x.csv"
        argv = ["run", "--scenario", "pendulum_embedded", "--integrator", "explicit_euler",
                "--steps", "300", "--out", str(out)]
        with np.errstate(over="ignore"):
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: integrator failed at step 251: ValueError: state [inf, -inf, "
        ) and err.endswith("] has non-finite entries\n")
        assert not out.exists()
        # the step before runs to completion
        with np.errstate(over="ignore"):
            assert cli.main([*argv[:-3], "250", "--out", str(out)]) == 0
        assert read_csv(str(out))[-1].step == 250

    def test_singular_inertia_is_a_config_error(self, tmp_path, capsys):
        # a small but well-conditioned inertia is accepted: the determinant guard
        # is relative to the row norms (diag(1e-5, 1e-5, 1e-5) has |det| = 1e-15)
        out = tmp_path / "x.csv"
        small = ["--param", "I1=1e-5", "--param", "I2=1e-5", "--param", "I3=1e-5"]
        run = ["run", "--scenario", "rigidbody", "--steps", "3", "--out", str(out)]
        assert cli.main([*run, "--integrator", "lp_cayley", *small]) == 0
        assert len(read_csv(str(out))) == 3
        # the stock Pi0 spins that body at |Omega| ~ 1.7e5, past the exp chart
        out.unlink()
        assert cli.main([*run, "--integrator", "lp_exp", *small]) == 2
        err = capsys.readouterr().err
        assert "outside the retraction's chart" in err and "inertia" not in err
        assert not out.exists()
        # the same body at the stock turning rate runs
        slow = ["--param", "Pi0=1e-5,1e-5,1e-5"]
        assert cli.main([*run, "--integrator", "lp_exp", *small, *slow]) == 0
        assert len(read_csv(str(out))) == 3
        # a near-singular SPD inertia is still a config error, checked before any
        # step runs; inertias from the CLI are diagonal, so this one is built here
        a = 1.0 - 1e-15
        with pytest.raises(ValueError, match="inertia matrix .* cannot be inverted"):
            RigidBodyParams(((1.0, a, 0.0), (a, 1.0, 0.0), (0.0, 0.0, 1.0)))
        # a subnormal moment passes the pivots and the relative guard, but its
        # inverse overflows; the run exits 1 before any step and writes nothing
        capsys.readouterr()
        for scenario in ("rigidbody", "quadrotor_hover"):
            argv = ["run", "--scenario", scenario, "--integrator", "lp_exp", "--steps", "3",
                    "--param", "I1=1e-320", "--out", str(out)]
            out.unlink(missing_ok=True)
            assert cli.main(argv) == 1, scenario
            err = capsys.readouterr().err
            assert "inertia matrix ((1e-320, 0.0, 0.0)" in err, err
            assert "cannot be inverted: its inverse is not finite" in err, err
            assert not out.exists()

    def test_non_unit_gamma0_is_a_config_error(self, tmp_path, capsys):
        # only the Lie-Poisson steps need |Gamma| = 1; the run checks Gamma0 at setup
        out = tmp_path / "x.csv"
        for integrator in ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4"):
            code = cli.main(
                [
                    "run", "--scenario", "heavytop", "--integrator", integrator,
                    "--steps", "3", "--param", "Gamma0=0,0,2", "--out", str(out),
                ]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "Gamma0" in err and "integrator failed" not in err
            assert not out.exists()

    def test_compare_failure_exit_code(self, capsys):
        # the worker's exception cannot be sent back; the parent raises it afresh
        argv = ["compare", "--scenario", "heavytop", "--integrators", "lp_exp,rkmk4",
                "--dt", "0.5", "--steps", "300"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            "error: integrator failed at step 10: rkmk4 increment |u| = 6.6254 >= 2*pi"
            " = 6.28319; the dexpinv kernel is singular there\n"
        ))
        _assert_no_child_left()

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

    def test_config_file_names_the_pair(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = heavytop\nintegrator = lp_cayley\nsteps = 5\n", encoding="utf-8"
        )
        out = tmp_path / "h.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        flags = tmp_path / "flags.csv"
        argv = ["run", "--scenario", "heavytop", "--integrator", "lp_cayley",
                "--steps", "5", "--out", str(flags)]
        assert cli.main(argv) == 0
        assert filecmp.cmp(out, flags, shallow=False)
        # a flag wins over the file's value
        assert cli.main(
            ["run", "--config", str(cfg), "--integrator", "lp_exp", "--out", str(out)]
        ) == 0
        argv[4] = "lp_exp"
        assert cli.main(argv) == 0
        assert filecmp.cmp(out, flags, shallow=False)
        capsys.readouterr()
        # neither a flag nor the file names the scenario
        cfg.write_text("integrator = rk4\n", encoding="utf-8")
        missing = tmp_path / "missing.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(missing)]) == 1
        assert "config must define 'scenario'" in capsys.readouterr().err
        assert not missing.exists()

    def test_param_does_not_set_run_flags(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        # --param was a second way to set the pair and the step count
        argv = ["run", "--param", "scenario=harmonic", "--param", "integrator=rk4",
                "--param", "steps=3", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "--param scenario is not a model parameter; use --scenario" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # and beside the flag it was dropped without a word
        argv = ["run", "--scenario", "kepler", "--integrator", "stormer_verlet",
                "--steps", "3", "--param", "scenario=harmonic", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "use --scenario" in capsys.readouterr().err
        assert not out.exists()
        for key, value in (("dt", "0.1"), ("theta", "0.3")):
            argv = ["run", "--scenario", "kepler", "--integrator", "theta_family",
                    "--steps", "3", "--param", f"{key}={value}", "--out", str(out)]
            assert cli.main(argv) == 1
            assert f"use --{key}" in capsys.readouterr().err
            assert not out.exists()

    def test_rotational_runs_never_import_numpy(self, tmp_path):
        # a fresh interpreter, because this one has numpy loaded already; the
        # value types are plain classes, so dataclasses and inspect stay out too
        script = textwrap.dedent(
            """
            import sys
            from geomint import bench, cli

            def unloaded(where):
                for name in ("numpy", "dataclasses", "inspect"):
                    assert name not in sys.modules, f"{where} loaded {name}"

            out = sys.argv[1]
            unloaded("importing geomint.cli")
            for scenario in ("rigidbody", "heavytop", "quadrotor_hover"):
                for integrator in bench.COMPAT[scenario]:
                    argv = ["run", "--scenario", scenario, "--integrator", integrator,
                            "--steps", "3", "--out", out]
                    assert cli.main(argv) == 0, argv
                    unloaded(argv)
            for scenario in ("rigidbody", "heavytop"):
                argv = ["compare", "--scenario", scenario,
                        "--integrators", ",".join(bench.COMPAT[scenario]),
                        "--steps", "3"]
                assert cli.main(argv) == 0, argv
                unloaded(argv)
                # compare runs in forked workers, whose imports this process never
                # sees, so each of its rows is also made here
                for integrator in bench.COMPAT[scenario]:
                    bench._compare_row(bench.default_config(scenario, integrator, steps=3))
                    unloaded(f"{scenario} {integrator}")
            # a flat run does load numpy, so the checks above are not vacuous;
            # numpy itself imports inspect, but nothing imports dataclasses
            argv = ["run", "--scenario", "kepler", "--integrator", "stormer_verlet",
                    "--steps", "1", "--out", out]
            assert cli.main(argv) == 0, argv
            assert "numpy" in sys.modules, "the Kepler run did not load numpy"
            assert "dataclasses" not in sys.modules, "the Kepler run loaded dataclasses"
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

    def test_cli_runs_blas_on_one_thread_unless_set(self, tmp_path):
        # OpenBLAS starts its worker threads when numpy is imported, so every
        # case is a fresh interpreter, with no BLAS thread variable of its own
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("threads are counted in /proc/self/task")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("on one CPU BLAS starts no worker thread either way")
        script = textwrap.dedent(
            """
            import json, os, sys
            from geomint import bench, cli

            before = dict(os.environ)
            if sys.argv[1] == "cli":
                argv = ["run", "--scenario", "kepler", "--integrator", "stormer_verlet",
                        "--steps", "3", "--out", sys.argv[2]]
                assert cli.main(argv) == 0, argv
            else:
                bench.run_scenario(bench.default_config("kepler", "stormer_verlet", steps=3))
            assert "numpy" in sys.modules
            # the run's forked CSV writer stops OpenBLAS's workers (its fork
            # handler); a product large enough to use them starts them again
            import numpy as np

            np.ones((512, 512)) @ np.ones((512, 512))
            changed = {
                key: os.environ.get(key)
                for key in set(before) | set(os.environ)
                if before.get(key) != os.environ.get(key)
            }
            print(json.dumps([len(os.listdir("/proc/self/task")), changed]))
            """
        )
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "MKL_NUM_THREADS")
        src = os.path.dirname(os.path.dirname(os.path.abspath(geomint.__file__)))
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = src

        def threads_and_changes(mode, **preset):
            proc = subprocess.run(
                [sys.executable, "-c", script, mode, str(tmp_path / "x.csv")],
                env={**env, **preset},
                capture_output=True,
                text=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        # the CLI sets one thread, and its BLAS worker is never started
        assert threads_and_changes("cli") == [1, {"OMP_NUM_THREADS": "1"}]
        # a count the user set wins: OpenBLAS reads its own variable first
        assert threads_and_changes("cli", OPENBLAS_NUM_THREADS="2") == [
            2, {"OMP_NUM_THREADS": "1"}
        ]
        # and an OMP_NUM_THREADS already set is kept
        assert threads_and_changes("cli", OMP_NUM_THREADS="2") == [2, {}]
        # library use leaves the environment alone
        assert threads_and_changes("library")[1] == {}


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


    def test_cli_run_writes_the_pinned_bytes(self, tmp_path, capsys):
        # the same pins, through `geomint run` and its forked writer
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "conformance_seed0.json"), encoding="utf-8") as fh:
            pins = json.load(fh)
        assert set(pins) == {f"{s}.{i}" for s in bench.SCENARIOS for i in bench.COMPAT[s]}
        for pair, digest in pins.items():
            scenario, integrator = pair.split(".")
            out = tmp_path / f"{pair}.csv"
            argv = ["run", "--scenario", scenario, "--integrator", integrator,
                    "--steps", "250", "--out", str(out)]
            with np.errstate(over="ignore"):
                code = cli.main(argv)
            if digest is None:
                assert pair == "kepler.implicit_euler" and code == 2
                assert "integrator failed at step 133: " in capsys.readouterr().err
                assert not out.exists()
            else:
                assert code == 0, pair
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, pair
        _assert_no_child_left()


class TestTracerContract:
    def test_one_step_span_per_step(self):
        # perfbench's layers count every span named in STEP_SPANS as one step, so
        # a step function that calls another traced step function would count twice
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = textwrap.dedent(
            """
            import json, sys
            sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
            from tracer import Tracer
            from layers import STEP_SPANS

            tracer = Tracer("contract")
            tracer.install()
            from geomint import bench

            for scenario in bench.SCENARIOS:
                for integrator in bench.COMPAT[scenario]:
                    config = bench.default_config(scenario, integrator, steps=3)
                    assert len(bench.run_scenario(config)) == 3
            counts = {}
            for span in tracer.spans:
                if span[2] in STEP_SPANS:
                    pair = ".".join(tracer.contexts[span[5]])
                    counts[pair] = counts.get(pair, 0) + 1
            print(json.dumps([".".join(c) for c in tracer.contexts]))
            print(json.dumps(counts))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, root],
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        pairs_line, counts_line = proc.stdout.splitlines()
        pairs = json.loads(pairs_line)
        assert len(pairs) == 31
        assert json.loads(counts_line) == {pair: 3 for pair in pairs}
