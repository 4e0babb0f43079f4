import json
from collections.abc import Mapping

import numpy as np
import pytest

from quadstack import cli, gait, scenarios
from quadstack.balance import ForceDistributionError
from quadstack.mpc import MpcInfeasibleError
from quadstack.trajopt import BodyReference, NoConvergenceError


def run_cli(tmp_path, subcommand, config_text=None, **overrides):
    cfg_path = None
    if config_text is not None:
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(config_text)
    overrides.setdefault("out_dir", str(tmp_path / "out"))
    return cli.run(subcommand, str(cfg_path) if cfg_path else None, overrides)


class TestConfig:
    def test_unknown_top_key_exit_2(self, tmp_path):
        code, payload = run_cli(tmp_path, "stand", "noize:\n  accel_std: 0.1\n")
        assert code == 2
        assert "noize" in payload["error"]

    def test_unknown_nested_key_named(self, tmp_path):
        code, payload = run_cli(tmp_path, "stand", "noise:\n  accel_sigma: 0.1\n")
        assert code == 2
        assert "noise.accel_sigma" in payload["error"]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADSTACK_NOISE__ACCEL_STD", "0.123")
        cfg = cli.load_config(None)
        assert cfg["noise"]["accel_std"] == 0.123

    def test_env_override_unknown_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADSTACK_NOISE__BOGUS", "1")
        with pytest.raises(cli.ConfigError):
            cli.load_config(None)

    @pytest.mark.parametrize("config_text, key", [
        ('controller:\n  use_estimates: "false"\n', "controller.use_estimates"),
        ("controller:\n  use_estimates: 1\n", "controller.use_estimates"),
        ("robot:\n  mass_kg: true\n", "robot.mass_kg"),
        ("robot:\n  mass_kg: null\n", "robot.mass_kg"),
        ("robot:\n  inertia_diag: [0.35, true, 2.1]\n", "robot.inertia_diag"),
        ("gait:\n  preset: 3\n", "gait.preset"),
        ("duration_s: '2'\n", "duration_s"),
        ("estimate:\n  input_csv: 5\n", "estimate.input_csv"),
        ("jump:\n  flight_min_s: true\n", "jump.flight_min_s"),
    ])
    def test_value_of_another_type_is_config_error(self, tmp_path, config_text, key):
        # a quoted "false" used to run the trot on estimates, bool("false")
        # being True; a bool never stands for a number either
        code, payload = run_cli(tmp_path, "trot", config_text)
        assert code == 2
        assert payload["kind"] == "config" and key in payload["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, config_text, duration, key", [
        ("trot", None, 0.0, "duration_s"),
        ("trot", None, -1.0, "duration_s"),
        ("slope", "duration_s: 0\n", None, "duration_s"),
        ("stand", None, -1.0, "duration_s"),
        ("trot", "gait:\n  period_s: 0.0\n", None, "gait.period_s"),
        ("trot", "gait:\n  period_s: -0.3\n", None, "gait.period_s"),
        ("trot", "gait:\n  preset: stand\n", None, "gait.preset"),
        ("trot", "robot:\n  mass_kg: 0\n", None, "robot.mass_kg"),
        ("trot", "robot:\n  z0_m: 0\n", None, "robot.z0_m"),
        ("jump-opt", "robot:\n  z0_m: 0\n", None, "robot.z0_m"),
        ("trot", "robot:\n  inertia_diag: [0.35, 2.1]\n", None, "robot.inertia_diag"),
        ("stand", "robot:\n  inertia_diag: [0.35, 2.1, .inf]\n", None, "robot.inertia_diag"),
        ("stand", "noise:\n  accel_std: -0.05\n", None, "noise.accel_std"),
        ("trot", "controller:\n  use_estimates: true\nnoise:\n  gyro_std: .nan\n", None,
         "noise.gyro_std"),
        ("trot", "command:\n  vx_mps: .nan\n", None, "command.vx_mps"),
        ("mpc-trot", "command:\n  vy_mps: -.inf\n", None, "command.vy_mps"),
        ("trot", "command:\n  ramp_s: -1.0\n", None, "command.ramp_s"),
        ("slope", "slope:\n  grade: .inf\n", None, "slope.grade"),
        ("jump-sim", "jump:\n  preset: spin90\n  yaw_goal_deg: .nan\n", None,
         "jump.yaw_goal_deg"),
        ("jump-opt", "jump:\n  flight_min_s: 0.0\n", None, "jump.flight_min_s"),
        ("jump-sim", "jump:\n  flight_min_s: -0.3\n", None, "jump.flight_min_s"),
        ("trot", "seed: -1\n", None, "seed"),
        ("stand", "seed: 1.5\n", None, "seed"),
        ("jump-opt", "jump:\n  n_knots: 2.5\n", None, "jump.n_knots"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, subcommand, config_text,
                                                duration, key):
        # read where the handler reads it, so the --duration flag, which
        # bypasses the type check, is checked too
        code, payload = run_cli(tmp_path, subcommand, config_text, duration_s=duration)
        assert code == 2, payload
        assert payload["kind"] == "config" and key in payload["error"]

    def test_env_override_keeps_its_type(self, monkeypatch):
        monkeypatch.setenv("QUADSTACK_CONTROLLER__USE_ESTIMATES", "false")
        assert cli.load_config(None)["controller"]["use_estimates"] is False
        monkeypatch.setenv("QUADSTACK_CONTROLLER__USE_ESTIMATES", "true")
        assert cli.load_config(None)["controller"]["use_estimates"] is True
        monkeypatch.setenv("QUADSTACK_CONTROLLER__USE_ESTIMATES", "maybe")
        with pytest.raises(cli.ConfigError, match="controller.use_estimates"):
            cli.load_config(None)
        monkeypatch.delenv("QUADSTACK_CONTROLLER__USE_ESTIMATES")
        monkeypatch.setenv("QUADSTACK_NOISE__ACCEL_STD", "true")
        with pytest.raises(cli.ConfigError, match="noise.accel_std"):
            cli.load_config(None)

    def test_null_default_takes_a_value_of_its_type(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("duration_s: 2\nestimate:\n  input_csv: log.csv\n"
                        "jump:\n  flight_min_s: 0.28\n  yaw_goal_deg: 45\n"
                        "  reference_csv: null\n")
        cfg = cli.load_config(str(path))
        assert cfg["duration_s"] == 2 and cfg["estimate"]["input_csv"] == "log.csv"
        assert cfg["jump"]["flight_min_s"] == 0.28 and cfg["jump"]["yaw_goal_deg"] == 45
        assert cfg["jump"]["reference_csv"] is None

    def test_every_null_default_has_a_stated_type(self):
        nulls = {key for key, value in cli._leaves(cli.DEFAULT_CONFIG).items() if value is None}
        assert set(cli._NULL_TYPES) == nulls

    def test_estimate_requires_input(self, tmp_path):
        code, payload = run_cli(tmp_path, "estimate")
        assert code == 2
        assert "input_csv" in payload["error"]

    def test_bad_replay_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,px_m\n0.0,0.0\n")
        code, payload = run_cli(
            tmp_path, "estimate",
            config_text=f"estimate:\n  input_csv: {bad}\n")
        assert code == 1
        assert payload["kind"] == "solver"
        assert (tmp_path / "out" / "estimate_error.json").exists()

    def test_missing_replay_file_is_config_error(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "estimate",
            config_text=f"estimate:\n  input_csv: {tmp_path / 'absent.csv'}\n")
        assert code == 2
        assert "absent.csv" in payload["error"]

    def test_inconsistent_jump_config_is_config_error(self, tmp_path):
        code, payload = run_cli(tmp_path, "jump-opt", "jump:\n  n_knots: 1\n")
        assert code == 2
        assert payload["kind"] == "config"

    @pytest.mark.parametrize("subcommand, config_text, key", [
        ("stand", "controller:\n  use_estimates: true\n", "controller.use_estimates"),
        ("jump-opt", "noise:\n  gyro_std: 0.3\n", "noise.gyro_std"),
        ("jump-sim", "controller:\n  type: mpc\n", "controller.type"),
        ("estimate", "noise:\n  accel_bias: 0.0\n", "noise.accel_bias"),
        ("stand", "robot:\n  z0_m: 0.40\n", "robot.z0_m"),
        ("stand", "gait:\n  period_s: 0.5\n", "gait.period_s"),
        ("stand", "slope:\n  grade: 0.3\n", "slope.grade"),
        ("trot", "slope:\n  grade: 0.3\n", "slope.grade"),
        ("trot", "jump:\n  n_knots: 12\n", "jump.n_knots"),
        ("jump-opt", "jump:\n  reference_csv: ref.csv\n", "jump.reference_csv"),
        ("jump-opt", "estimate:\n  input_csv: log.csv\n", "estimate.input_csv"),
        ("estimate", "robot:\n  mass_kg: 30.0\n", "robot.mass_kg"),
        ("jump-sim", "duration_s: 2.0\n", "duration_s"),
        ("mpc-trot", "controller:\n  type: mpc\n", "controller.type"),
    ])
    def test_unread_key_is_config_error(self, tmp_path, subcommand, config_text, key):
        # a key the subcommand never reads fails before any work is done
        code, payload = run_cli(tmp_path, subcommand, config_text)
        assert code == 2
        assert payload["kind"] == "config"
        assert key in payload["error"] and subcommand in payload["error"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_duration_flag_is_config_error_for_jump_opt(self, tmp_path, capsys):
        # --duration sets duration_s, which the timing solve never reads
        out = tmp_path / "out"
        assert cli.main(["jump-opt", "--duration", "2", "--out-dir", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert "duration_s" in payload["error"] and "jump-opt" in payload["error"]
        assert list(out.iterdir()) == []

    def test_env_override_of_a_section_is_config_error(self, monkeypatch):
        monkeypatch.setenv("QUADSTACK_NOISE", "0.1")
        with pytest.raises(cli.ConfigError):
            cli.load_config(None)

    def test_default_valued_key_is_accepted(self, tmp_path):
        # spelling out a default is not an error
        code, _ = run_cli(tmp_path, "stand", "controller:\n  type: balance\n  use_estimates: false\n",
                          duration_s=0.01)
        assert code == 0


class Recording(Mapping):
    """A config tree that records the dotted name of every leaf read."""

    def __init__(self, tree, reads, prefix=""):
        self._tree, self._reads, self._prefix = tree, reads, prefix

    def __getitem__(self, key):
        value, name = self._tree[key], self._prefix + key
        if isinstance(value, dict):
            return Recording(value, self._reads, name + ".")
        self._reads.add(name)
        return value

    def __iter__(self):
        return iter(self._tree)

    def __len__(self):
        return len(self._tree)


class TestReadTable:
    def test_table_names_commands_and_config_keys(self):
        # a stale or misspelled entry fails here, not as a key that is
        # silently accepted or wrongly rejected
        assert set(cli.READS) == set(cli.COMMANDS)
        names = set(cli._leaves(cli.DEFAULT_CONFIG)) | set(cli.DEFAULT_CONFIG)
        entries = [key for keys in cli.READS.values() for key in keys]
        entries += [key for key, (cond, _) in cli.READ_IF.items() for key in (key, cond)]
        assert [key for key in entries if key not in names] == []

    @pytest.mark.parametrize("subcommand, values", [
        ("stand", {}),
        ("trot", {"controller.use_estimates": True}),
        ("mpc-trot", {"controller.use_estimates": True}),
        ("slope", {"controller.use_estimates": True}),
        ("estimate", {}),
        ("jump-opt", {"jump.preset": "hop"}),
        ("jump-opt", {"jump.preset": "spin90"}),
        ("jump-sim", {"jump.preset": "hop"}),
        ("jump-sim", {"jump.preset": "spin90"}),
    ])
    def test_handlers_read_their_table_entry(self, tmp_path, monkeypatch, subcommand, values):
        # each handler, with the scenarios stubbed out, reads exactly the
        # leaves the table says it reads, plus seed and out_dir, which run reads
        result = scenarios.ScenarioResult(summary={}, log={"t_s": np.zeros(2)})
        for name in ("run_stand", "run_trot", "run_slope", "run_estimate", "run_jump_sim"):
            monkeypatch.setattr(scenarios, name, lambda *args, **kw: result)
        monkeypatch.setattr(scenarios, "run_jump_opt", lambda *args, **kw: result)
        monkeypatch.setattr(scenarios, "reference_from_log", lambda log: None)
        log = tmp_path / "log.csv"
        cli.write_csv(log, result.log)
        cfg = cli.load_config(None)
        cfg["estimate"]["input_csv"] = str(log) if subcommand == "estimate" else None
        for name, value in values.items():
            section, key = name.split(".")
            cfg[section][key] = value
        reads = set()
        cli.COMMANDS[subcommand](Recording(cfg, reads), tmp_path)
        assert reads | {"seed", "out_dir"} == cli.read_keys(subcommand, cli._leaves(cfg))


class TestErrorKinds:
    @staticmethod
    def run_raising(tmp_path, monkeypatch, exc):
        def handler(cfg, out):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "stand", handler)
        return run_cli(tmp_path, "stand")

    @pytest.mark.parametrize("exc", [KeyError("q_typo"), ValueError("q_typo")])
    def test_programming_error_is_internal(self, tmp_path, monkeypatch, exc):
        code, payload = self.run_raising(tmp_path, monkeypatch, exc)
        assert code == 1
        assert payload["kind"] == "internal"
        assert payload["type"] == type(exc).__name__
        assert "q_typo" in payload["traceback"]
        body = json.loads((tmp_path / "out" / "stand_error.json").read_text())
        assert body["kind"] == "internal"

    @pytest.mark.parametrize("exc", [NoConvergenceError("stalled", {}),
                                     MpcInfeasibleError("infeasible"),
                                     ForceDistributionError("max iter"),
                                     np.linalg.LinAlgError("not positive definite")])
    def test_solver_failures_are_solver(self, tmp_path, monkeypatch, exc):
        code, payload = self.run_raising(tmp_path, monkeypatch, exc)
        assert code == 1
        assert payload["kind"] == "solver"
        assert payload["type"] == type(exc).__name__


class TestCsvRoundTrip:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        log = {"t_s": np.arange(10) * 1e-3, "px_m": rng.normal(size=10),
               "f0z_N": rng.normal(size=10) * 100}
        path = tmp_path / "log.csv"
        cli.write_csv(path, log)
        back = cli.read_csv(path)
        assert list(back.keys()) == list(log.keys())
        for k in log:
            assert np.array_equal(back[k], np.asarray(log[k], dtype=float))

    def test_header_carries_units(self, tmp_path):
        path = tmp_path / "log.csv"
        cli.write_csv(path, {"t_s": np.zeros(1), "vx_mps": np.zeros(1)})
        header = path.read_text().splitlines()[0]
        assert header == "t_s,vx_mps"

    def test_bytes_match_the_per_element_writer(self, tmp_path):
        # the column writer against repr(float(a[i])) per element, on a
        # recorded trot log plus bool, int, -0.0, subnormal and non-finite columns
        log = dict(scenarios.run_trot(noise=None, duration=0.3).log)
        n = len(log["t_s"])
        log["flag"] = np.arange(n) % 2 == 0
        log["count"] = np.arange(n)
        log["odd"] = np.resize([-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300], n)
        path = tmp_path / "log.csv"
        cli.write_csv(path, log)
        arrays = [np.asarray(a, dtype=float) for a in log.values()]
        lines = [",".join(log) + "\n"]
        lines += [",".join(repr(float(a[i])) for a in arrays) + "\n" for i in range(n)]
        assert path.read_bytes() == "".join(lines).encode()


class TestStand:
    def test_stand_writes_artifacts(self, tmp_path):
        code, summary = run_cli(tmp_path, "stand", duration_s=2.0)
        assert code == 0
        assert summary["height_error_final_m"] <= 1e-3
        out = tmp_path / "out"
        assert (out / "stand_log.csv").exists()
        body = json.loads((out / "stand_summary.json").read_text())
        assert body["schema_version"] == 1
        assert body["scenario"] == "stand"

    def test_stand_log_replays(self, tmp_path):
        code, summary = run_cli(tmp_path, "stand", duration_s=1.0)
        assert code == 0
        log = cli.read_csv(tmp_path / "out" / "stand_log.csv")
        code2, est_summary = run_cli(
            tmp_path, "estimate",
            config_text=f"estimate:\n  input_csv: {tmp_path / 'out' / 'stand_log.csv'}\n")
        assert code2 == 0
        # offline replay scores like the online run
        assert est_summary["vel_rmse_mps"] <= 2.0 * summary["vel_rmse_mps"] + 1e-3


class TestJump:
    CFG = "jump:\n  n_knots: 8\n  flight_min_s: 0.25\n"

    def test_jump_opt_deterministic(self, tmp_path):
        code, s1 = run_cli(tmp_path, "jump-opt", self.CFG)
        assert code == 0
        first = (tmp_path / "out" / "jump_ref.csv").read_bytes()
        code, s2 = run_cli(tmp_path, "jump-opt", self.CFG)
        assert code == 0
        second = (tmp_path / "out" / "jump_ref.csv").read_bytes()
        assert first == second
        assert s1["durations_s"] == s2["durations_s"]
        assert s1["checker_max_violation"] <= 1e-4
        # the convergence trace: one entry per outer iteration
        assert len(s1["trace"]) == s1["outer_iterations"]
        assert s1["newton_steps"] == sum(entry["newton_steps"] for entry in s1["trace"]) > 0

    def test_jump_sim_from_csv_reference(self, tmp_path):
        code, _ = run_cli(tmp_path, "jump-opt", self.CFG)
        assert code == 0
        code, summary = run_cli(tmp_path, "jump-sim", self.CFG)
        assert code == 0
        assert summary["landed"]
        assert summary["final_height_error_m"] <= 0.03
        assert summary["final_orientation_error_deg"] <= 5.0

    def test_jump_sim_always_tracks_the_file(self, tmp_path):
        # the first run solves and writes jump_ref.csv, the second reads it:
        # both track the same reference, taking off at the solved phase end
        code, opt = run_cli(tmp_path, "jump-opt", self.CFG, out_dir=str(tmp_path / "opt"))
        assert code == 0
        runs = []
        for _ in range(2):
            code, summary = run_cli(tmp_path, "jump-sim", self.CFG)
            assert code == 0
            summary.pop("runtime_s")
            runs.append((summary, (tmp_path / "out" / "jump_sim_log.csv").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0]["takeoff_time_s"] == opt["durations_s"][0]

    @pytest.mark.parametrize("dropped, rows", [("phase_end_s", 3), ("r00", 3), (None, 1)])
    def test_unusable_reference_is_solver_failure(self, tmp_path, dropped, rows):
        # phase_end_s is missing from files written before it existed
        ref = BodyReference(t=np.arange(rows) * 0.01, pos=np.zeros((rows, 3)),
                            vel=np.zeros((rows, 3)), rot=np.tile(np.eye(3), (rows, 1, 1)),
                            omega=np.zeros((rows, 3)), forces=np.zeros((rows, 12)),
                            phase_times=np.array([0.01, 0.02]))
        log = scenarios.reference_log(ref)
        log.pop(dropped, None)
        path = tmp_path / "ref.csv"
        cli.write_csv(path, log)
        code, payload = run_cli(tmp_path, "jump-sim", self.CFG + f"  reference_csv: {path}\n")
        assert code == 1
        assert payload["kind"] == "solver"
        assert (dropped or "samples") in payload["error"]
        assert payload["error"].startswith("jump reference")     # not a quoted repr

    def test_missing_reference_csv_is_config_error(self, tmp_path):
        # a reference named explicitly is never replaced by a fresh solve
        absent = tmp_path / "absent_ref.csv"
        code, payload = run_cli(tmp_path, "jump-sim", self.CFG + f"  reference_csv: {absent}\n")
        assert code == 2
        assert payload["kind"] == "config"
        assert "absent_ref.csv" in payload["error"]
        assert not (tmp_path / "out" / "jump_ref.csv").exists()

    def test_unknown_preset_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "jump-opt", "jump:\n  preset: cartwheel\n")
        assert code == 2
        assert "cartwheel" in payload["error"]

    def test_spin90_honours_flight_min(self, tmp_path):
        # the preset's own 0.25 s floor leaves a 0.52 s flight; a 0.6 s floor binds
        code, summary = run_cli(tmp_path, "jump-opt",
                                "jump:\n  preset: spin90\n  n_knots: 8\n  flight_min_s: 0.6\n")
        assert code == 0
        assert summary["durations_s"][1] >= 0.6 - 1e-9

    def test_flight_floor_below_the_minimum_is_config_error(self, tmp_path):
        # a phase floor under the 0.05 s guard is refused, not silently raised
        code, payload = run_cli(tmp_path, "jump-opt", "jump:\n  n_knots: 8\n  flight_min_s: 0.01\n")
        assert code == 2
        assert payload["kind"] == "config"
        assert "0.01" in payload["error"]
        assert not (tmp_path / "out" / "jump_ref.csv").exists()

    def test_hop_rejects_yaw_goal(self, tmp_path):
        code, payload = run_cli(tmp_path, "jump-opt", self.CFG + "  yaw_goal_deg: 45.0\n")
        assert code == 2
        assert payload["kind"] == "config"
        assert "yaw_goal_deg" in payload["error"]
        assert not (tmp_path / "out" / "jump_ref.csv").exists()


class TestTrot:
    def test_gait_preset_accepted(self, tmp_path):
        # every preset the config accepts completes a balance trot
        for preset in gait._PRESETS:
            code, summary = run_cli(tmp_path, "trot", f"gait:\n  preset: {preset}\n",
                                    out_dir=str(tmp_path / preset), duration_s=0.5)
            assert code == 0, (preset, summary)
            assert np.isfinite(summary["height_rms_m"]), preset

    def test_unknown_gait_preset_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "trot", "gait:\n  preset: gallop\n")
        assert code == 2
        assert "gallop" in payload["error"]

    def test_short_trot_runs(self, tmp_path):
        code, summary = run_cli(tmp_path, "trot", duration_s=1.5)
        assert code == 0
        assert summary["height_rms_m"] <= 0.02
        assert (tmp_path / "out" / "trot_balance_log.csv").exists()

    def test_trot_past_the_legs_reach_is_a_solver_failure(self, tmp_path):
        # at 3 m/s the stance feet fall behind the hips: the simulator stops
        # where a stance foot leaves its leg's reach instead of applying its
        # force, and the run fails naming the leg, the time and the distance
        code, payload = run_cli(tmp_path, "trot", "command:\n  vx_mps: 3.0\n")
        assert code == 1
        assert payload["kind"] == "solver" and payload["type"] == "BreachError"
        assert payload["error"].startswith("stance foot of leg 0 is 0.68")
        assert "at t = 0.710 s, beyond the leg's reach of 0.68 m" in payload["error"]

    def test_the_seed_draws_only_the_sensor_noise(self, tmp_path):
        # on true state no sensor is read: the seed changes only its record
        # in the summary. On estimates it draws the sensors' white noise
        runs = {}
        for estimates in ("false", "true"):
            for seed in (0, 7):
                out = tmp_path / f"{estimates}-{seed}"
                code, summary = run_cli(
                    tmp_path, "trot", f"seed: {seed}\ncontroller:\n  use_estimates: {estimates}\n",
                    out_dir=str(out), duration_s=0.3)
                assert code == 0, summary
                assert summary.pop("seed") == seed
                summary.pop("runtime_s")
                runs[estimates, seed] = summary, (out / "trot_balance_log.csv").read_bytes()
        assert runs["false", 0] == runs["false", 7]
        assert runs["true", 0][1] != runs["true", 7][1]

    def test_slope_estimates_grade(self, tmp_path):
        code, summary = run_cli(tmp_path, "slope", duration_s=2.0)
        assert code == 0
        assert abs(summary["slope_estimate"] - summary["slope_true"]) <= 0.02

    @pytest.mark.parametrize("config_text", ["robot:\n  z0_m: 0.40\n",
                                             "command:\n  ramp_s: 0.2\n"])
    def test_slope_honours_trot_settings(self, tmp_path, config_text):
        code, default = run_cli(tmp_path, "slope", out_dir=str(tmp_path / "default"),
                                duration_s=0.3)
        assert code == 0
        code, changed = run_cli(tmp_path, "slope", config_text,
                                out_dir=str(tmp_path / "changed"), duration_s=0.3)
        assert code == 0
        logs = [cli.read_csv(tmp_path / d / "slope_log.csv") for d in ("default", "changed")]
        assert not np.array_equal(logs[0]["pz_m"], logs[1]["pz_m"])
        assert default["vel_rmse_mps"] != changed["vel_rmse_mps"]

    @pytest.mark.parametrize("subcommand, log", [("trot", "trot_balance_log.csv"),
                                                 ("mpc-trot", "trot_mpc_log.csv"),
                                                 ("slope", "slope_log.csv"),
                                                 ("stand", "stand_log.csv")])
    def test_noise_reaches_the_estimator(self, tmp_path, subcommand, log):
        # the noise config reaches the sensors the estimator reads: always
        # in stand, and with controller.use_estimates in the trots
        estimates = "" if subcommand == "stand" else "controller:\n  use_estimates: true\n"
        quiet = "noise:\n  accel_std: 0.0\n  gyro_std: 0.0\n  accel_bias: 0.0\n"
        logs = []
        for name, noise in (("noisy", ""), ("quiet", quiet)):
            code, _ = run_cli(tmp_path, subcommand, estimates + noise,
                              out_dir=str(tmp_path / name), duration_s=0.3)
            assert code == 0
            logs.append((tmp_path / name / log).read_bytes())
        assert logs[0] != logs[1]

    @pytest.mark.parametrize("subcommand, log", [("trot", "trot_balance_log.csv"),
                                                 ("mpc-trot", "trot_mpc_log.csv"),
                                                 ("slope", "slope_log.csv")])
    def test_noise_without_estimates_is_config_error(self, tmp_path, subcommand, log):
        code, payload = run_cli(tmp_path, subcommand, "noise:\n  gyro_std: 0.01\n",
                                duration_s=0.3)
        assert code == 2
        assert payload["kind"] == "config"
        assert "noise.gyro_std" in payload["error"]
        assert not (tmp_path / "out" / log).exists()

    def test_slope_rejects_mpc(self, tmp_path):
        code, payload = run_cli(tmp_path, "slope", "controller:\n  type: mpc\n")
        assert code == 2
        assert "controller.type" in payload["error"]

    def test_unknown_controller_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "trot", "controller:\n  type: pid\n")
        assert code == 2
        assert "pid" in payload["error"]
