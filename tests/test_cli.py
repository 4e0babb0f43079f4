import json
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import cli
from quadstack.balance import ForceDistributionError
from quadstack.mpc import MpcInfeasibleError
from quadstack.trajopt import NoConvergenceError


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

    def test_jump_sim_from_csv_reference(self, tmp_path):
        code, _ = run_cli(tmp_path, "jump-opt", self.CFG)
        assert code == 0
        code, summary = run_cli(tmp_path, "jump-sim", self.CFG)
        assert code == 0
        assert summary["landed"]
        assert summary["final_height_error_m"] <= 0.03
        assert summary["final_orientation_error_deg"] <= 5.0

    def test_unknown_preset_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "jump-opt", "jump:\n  preset: cartwheel\n")
        assert code == 2
        assert "cartwheel" in payload["error"]


class TestTrot:
    def test_gait_preset_accepted(self, tmp_path):
        code, summary = run_cli(tmp_path, "trot", "gait:\n  preset: stand\n",
                                duration_s=0.5)
        assert code == 0
        assert summary["height_rms_m"] <= 1e-3  # all-stance preset stands still

    def test_unknown_gait_preset_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "trot", "gait:\n  preset: gallop\n")
        assert code == 2
        assert "gallop" in payload["error"]

    def test_short_trot_runs(self, tmp_path):
        code, summary = run_cli(tmp_path, "trot", duration_s=1.5)
        assert code == 0
        assert summary["height_rms_m"] <= 0.02
        assert (tmp_path / "out" / "trot_balance_log.csv").exists()

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

    def test_slope_rejects_mpc(self, tmp_path):
        code, payload = run_cli(tmp_path, "slope", "controller:\n  type: mpc\n")
        assert code == 2
        assert "controller.type" in payload["error"]

    def test_unknown_controller_rejected(self, tmp_path):
        code, payload = run_cli(tmp_path, "trot", "controller:\n  type: pid\n")
        assert code == 2
        assert "pid" in payload["error"]
