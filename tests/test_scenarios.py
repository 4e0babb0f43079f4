import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quadstack import cli, gait, mpc, scenarios, sim, terrain
from quadstack.balance import BodyModel
from quadstack.estimation import ImuSample
from quadstack.scenarios import (ReplayLogError, hop_spec, reference_from_log, reference_log,
                                 run_estimate, run_jump_opt, run_jump_sim, run_slope, run_stand,
                                 run_trot, sensor_noise, spin_spec)
from quadstack.sim import SensorNoise
from quadstack.swing import HIP_OFFSETS, grf_from_torque
from quadstack.trajopt import BodyReference, TimingProblem, export_reference, solve_timing

# the stand's sensor noise at the CLI's default figures
STAND_NOISE = sensor_noise(0.05, 0.005, 0.2, seed=0)


def even_weight_split(monkeypatch):
    """Replace the stand's balance QP by the even weight split, which holds
    the truth strictly stationary."""
    even = np.tile([0.0, 0.0, BodyModel().weight / 4.0], 4)
    monkeypatch.setattr(scenarios.BalanceController, "compute", lambda self, *args: even)


def flat_stand_reference(spec, n=31):
    """A 0.3 s hand-made reference: stand still at the start pose, take off at 0.25 s."""
    forces = np.zeros((n, 12))
    forces[:, 2::3] = spec.model.weight / 4.0
    return BodyReference(t=np.arange(n) * 0.01, pos=np.tile(spec.p_start, (n, 1)),
                         vel=np.zeros((n, 3)), rot=np.tile(np.eye(3), (n, 1, 1)),
                         omega=np.zeros((n, 3)), forces=forces,
                         phase_times=np.array([0.25, 0.3]))


class TestStand:
    def test_estimator_in_the_loop(self):
        # controller consumes the estimates; errors stay within the stand
        # budget (1 cm position, 0.03 m/s velocity RMS)
        res = run_stand(noise=STAND_NOISE, duration=3.0)
        s = res.summary
        assert s["pos_rmse_m"] <= 0.01
        assert s["vel_rmse_mps"] <= 0.03
        assert s["height_error_final_m"] <= 1e-3

    def test_height_drift_over_5s(self):
        res = run_stand(noise=SensorNoise(), duration=5.0)
        assert res.summary["height_error_final_m"] <= 1e-3

    def test_deterministic_logs(self):
        logs = []
        for _ in range(2):
            res = run_stand(noise=dataclasses.replace(STAND_NOISE, seed=11), duration=0.5)
            logs.append(res.log)
        for k in logs[0]:
            assert np.array_equal(logs[0][k], logs[1][k]), k

    def test_seed_changes_noise(self):
        a, b = (run_stand(noise=dataclasses.replace(STAND_NOISE, seed=seed), duration=0.3)
                .log["accel_x_mps2"] for seed in (1, 2))
        assert not np.array_equal(a, b)


class TestTrot:
    def test_estimator_in_loop_trot_stays_up(self):
        res = run_trot(noise=SensorNoise(), duration=2.0, v_des=(0.5, 0.0))
        assert res.summary["height_rms_m"] <= 0.03

    def test_zero_velocity_trot_stays_put(self):
        res = run_trot(noise=None, duration=2.0, v_des=(0.0, 0.0))
        log = res.log
        assert np.max(np.abs(log["px_m"])) <= 0.05
        assert res.summary["height_rms_m"] <= 0.01

    def test_mean_speed_averages_ticks(self):
        # the trot accelerates from rest, so the final speed is well above
        # the mean; the log samples every tenth tick
        res = run_trot(noise=None, duration=0.5, v_des=(1.0, 0.0))
        logged = np.hypot(res.log["vx_mps"], res.log["vy_mps"])
        assert logged[-1] > 2.0 * res.summary["mean_speed_mps"]
        assert_allclose(res.summary["mean_speed_mps"], np.mean(logged), atol=0.01)

    def test_repeated_runs_write_identical_logs(self):
        # the balance and MPC trots run in turn, twice: no module-level
        # cache (stance columns, friction rows) carries state between runs
        runs = [run_trot(noise=SensorNoise(), duration=0.3),
                run_trot(noise=None, duration=0.3, controller="mpc"),
                run_trot(noise=SensorNoise(), duration=0.3),
                run_trot(noise=None, duration=0.3, controller="mpc")]
        for first, again in ((runs[0], runs[2]), (runs[1], runs[3])):
            assert first.log.keys() == again.log.keys()
            for k in first.log:
                assert np.asarray(first.log[k]).tobytes() == np.asarray(again.log[k]).tobytes(), k

    def test_trot_log_schema(self):
        res = run_trot(noise=None, duration=0.5)
        for col in ("t_s", "px_m", "vz_mps", "r00", "foot0x_m", "f3z_N", "stance0"):
            assert col in res.log

    @pytest.mark.parametrize("ramp_time", [-1.0, np.nan])
    def test_negative_ramp_is_rejected(self, ramp_time):
        # v_cmd would read it as no ramp
        with pytest.raises(ValueError, match="ramp_time"):
            scenarios.TrotDriver(noise=None, duration=0.01, ramp_time=ramp_time)

    def test_mpc_ticks_advance_the_reference_without_a_target(self):
        # the MPC's horizon tables read only the CoM reference: desired
        # advances it as on a balance tick and builds no balance target
        drivers = [scenarios.TrotDriver(noise=None, duration=0.01, controller=c)
                   for c in ("balance", "mpc")]
        for t in (0.0, 0.001, 0.002):
            contact, phis = drivers[0].schedule(t)
            balance, mpc_des = (d.desired(t, d.start, contact, phis) for d in drivers)
            assert balance is not None and mpc_des is None
            assert drivers[0].p_ref_xy == drivers[1].p_ref_xy


class TestSlope:
    def test_stance_feet_lie_on_the_slope(self):
        # the simulator's ground is the slope the controller plans on: every
        # stance foot sits on z = 0.17 x, touchdowns included
        res = scenarios.run_slope(noise=None, duration=1.0, slope=0.17)
        log = res.log
        assert log["stance0"].size == 100 and not log["stance0"].all()
        for leg in range(4):
            stance = log[f"stance{leg}"] > 0.5
            gap = log[f"foot{leg}z_m"][stance] - 0.17 * log[f"foot{leg}x_m"][stance]
            assert np.max(np.abs(gap)) <= 1e-12, leg


class TestTouchdowns:
    @pytest.mark.parametrize("case", ["flat", "slope", "truth"])
    def test_each_planned_swing_reports_one_touchdown_at_its_end(self, monkeypatch, case):
        # on estimates a swing starts at the KF's foot, which may lie under
        # the ground: that liftoff is not a touchdown. A leg scheduled in
        # swing at t = 0 plans its swing on the first tick, so it lands too
        steps = []
        step = sim.SimWorld.step

        def recording(world, forces, stance_mask, swing_targets=None):
            step(world, forces, stance_mask, swing_targets)
            steps.append((list(stance_mask), world.touched_down.tolist()))
            return world

        monkeypatch.setattr(sim.SimWorld, "step", recording)
        if case == "flat":
            run_trot(noise=SensorNoise(), duration=1.0, v_des=(1.0, 0.0))
        elif case == "slope":
            run_slope(noise=SensorNoise(), duration=1.0, v_des=(1.0, 0.0))
        else:
            run_trot(noise=None, duration=0.5)
        stance = np.array([mask for mask, _ in steps])
        touched = np.array([flags for _, flags in steps])
        assert stance[0].tolist() == [True, False, False, True]
        planned = 0
        for leg in range(4):
            swing = ~stance[:, leg]
            # a leg in swing on the first tick lifts off there
            liftoffs = np.flatnonzero(swing & ~np.concatenate([[False], swing[:-1]]))
            switches = np.flatnonzero(~swing[1:] & swing[:-1]) + 1
            # the swings that lift off and switch to stance within the run
            swings = [(k0, switches[switches > k0][0]) for k0 in liftoffs
                      if (switches > k0).any()]
            events = np.flatnonzero(touched[:, leg])
            assert len(events) == len(swings), leg
            for (k0, k1), k in zip(swings, events):
                assert k0 + (k1 - k0) / 2 <= k <= k1, (leg, k0, k, k1)
            planned += len(swings)
        assert planned == (6 if case == "truth" else 12)


class TestEstimatedFeet:
    @pytest.mark.parametrize("scenario", ["stand", "trot"])
    def test_balance_receives_the_kf_feet(self, monkeypatch, scenario):
        # on estimates the controller's feet are the KF's own foot
        # states, not the simulator's
        seen, current = [], {}
        step, imu, compute = (scenarios.EstimatorLoop.step, sim.SimWorld.synth_imu,
                              scenarios.BalanceController.compute)

        def recording_step(self, *args):
            current["loop"] = self
            return step(self, *args)

        def recording_imu(self):
            current["world"] = self
            return imu(self)

        def recording_compute(self, state, *args):
            seen.append((state.feet.copy(), current["loop"].kf.mean[6:18].reshape(4, 3),
                         current["world"].state.feet.copy()))
            return compute(self, state, *args)

        monkeypatch.setattr(scenarios.EstimatorLoop, "step", recording_step)
        monkeypatch.setattr(sim.SimWorld, "synth_imu", recording_imu)
        monkeypatch.setattr(scenarios.BalanceController, "compute", recording_compute)
        if scenario == "stand":
            run_stand(noise=STAND_NOISE, duration=0.2)
        else:
            run_trot(noise=SensorNoise(), duration=0.2)
        assert len(seen) == 200
        for feet, kf_feet, _ in seen:
            assert np.array_equal(feet, kf_feet)
        assert not all(np.array_equal(kf_feet, true_feet) for _, kf_feet, true_feet in seen)

    def test_slope_fits_the_kf_footholds(self, monkeypatch):
        # on estimates, each touchdown records the KF's foot, not the
        # simulator's, so slope's ground plane is fit to estimated footholds
        fits, current = [], {}
        step, imu, fit = scenarios.EstimatorLoop.step, sim.SimWorld.synth_imu, terrain.fit_plane

        def recording_step(self, *args):
            current["loop"] = self
            return step(self, *args)

        def recording_imu(self):
            current["world"] = self
            return imu(self)

        def recording_fit(xy, z):
            # the fit at start-up comes before the first tick
            kf_feet, true_feet = ((current["loop"].kf.feet.copy(), current["world"].state.feet.copy())
                                  if current else (None, None))
            fits.append((np.column_stack([xy, z]), kf_feet, true_feet))
            return fit(xy, z)

        monkeypatch.setattr(scenarios.EstimatorLoop, "step", recording_step)
        monkeypatch.setattr(sim.SimWorld, "synth_imu", recording_imu)
        monkeypatch.setattr(terrain, "fit_plane", recording_fit)
        run_slope(noise=SensorNoise(), duration=0.8)
        assert len(fits) >= 5   # start-up, then one fit per touchdown
        for (before, _, _), (points, kf_feet, true_feet) in zip(fits, fits[1:]):
            # the legs that just touched down hold the KF's foot, the others
            # keep their footholds
            touched = [leg for leg in range(4) if np.array_equal(points[leg], kf_feet[leg])]
            kept = [leg for leg in range(4) if leg not in touched]
            assert touched
            assert np.array_equal(points[kept], before[kept])
            assert not np.array_equal(points[touched], true_feet[touched])


def mpc_tables_per_leg(driver, t, state):
    """TrotDriver.mpc_tables as the per-(step, leg) numpy loop it replaced."""
    def schedule(t):
        return np.array([gait.subphase(t, driver.sched, leg)[0] for leg in range(4)]), None

    def v_cmd(t):
        return driver.v_des * min(1.0, t / driver.ramp_time)

    def footstep(p_hip, t_stance, v_des, v, z0):
        return p_hip + 0.5 * t_stance * v_des + np.sqrt(z0 / 9.81) * (v - v_des)

    k = scenarios.MPC_HORIZON
    x_ref = np.zeros((k, 12))
    p_nom = np.zeros((k, 3))
    contact = np.zeros((k, 4), dtype=bool)
    feet = np.zeros((k, 4, 3))
    feet_now = state.feet.copy()
    for i in range(k):
        ti = t + (i + 1) * mpc.DT
        for leg in range(4):
            c, _ = gait.subphase(ti, driver.sched, leg)
            contact[i, leg] = c
        for leg in range(4):
            if contact[i, leg] and not schedule(t)[0][leg]:
                hip_w = state.pos + np.array([*(v_cmd(ti) * (ti - t)), 0.0]) \
                    + state.rot @ HIP_OFFSETS[leg]
                xy = footstep(hip_w[0:2], driver.sched.stance_time(),
                              v_cmd(ti), v_cmd(ti), driver.z0)
                feet[i, leg] = [xy[0], xy[1], driver.ground.height(*xy)]
            else:
                feet[i, leg] = feet_now[leg]
        base = state.pos[0:2] if driver.p_ref_xy is None else np.array(driver.p_ref_xy)
        com = base + v_cmd(ti) * (ti - t)
        x_ref[i, 0:2] = com
        x_ref[i, 2] = driver.ground.height(*com) + driver.z0
        x_ref[i, 6:8] = v_cmd(ti)
        p_nom[i] = state.pos + np.array([*(v_cmd(ti) * (ti - t)), 0.0])
    return x_ref, contact, feet, p_nom


class TestMpcTables:
    def test_matches_per_leg_loop(self, monkeypatch):
        # record the state of every replan of a 1 s MPC trot: t = 0, the
        # 0.8 s command ramp, liftoff ticks, mid-stance and past the ramp
        driver = scenarios.TrotDriver(noise=None, v_des=(0.9, -0.08), duration=1.0,
                                      controller="mpc")
        calls = []
        original = scenarios.TrotDriver.mpc_tables

        def recording(self, t, state, contact_now):
            calls.append((t, state.copy(), self.p_ref_xy))
            return original(self, t, state, contact_now)

        monkeypatch.setattr(scenarios.TrotDriver, "mpc_tables", recording)
        driver.run()
        monkeypatch.undo()
        ticks = [round(t / scenarios.DT) for t, _, _ in calls]
        assert ticks[0] == 0 and 33 in ticks and max(ticks) > 800
        assert 150 in ticks and 300 in ticks  # liftoffs of legs 0 and 3, then of 1 and 2
        assert 66 in ticks  # mid-stance of legs 0 and 3, no switch

        for t, state, p_ref in calls:
            for driver.p_ref_xy in (None, p_ref):
                got = driver.mpc_tables(t, state, driver.schedule(t)[0])
                want = mpc_tables_per_leg(driver, t, state)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert_array_equal(a, b)
                    assert_array_equal(np.signbit(a), np.signbit(b))  # -0.0 vs 0.0


    def test_applied_plan_step_is_exact_zero_on_swing_legs(self, monkeypatch):
        # the trot applies the plan's first step without masking it: every
        # contact switch replans with the realized flags, so the swing
        # entries are already the +0.0 that the mask would give
        driver = scenarios.TrotDriver(noise=None, v_des=(0.9, -0.08), duration=1.0,
                                      controller="mpc")
        applied = []
        original = scenarios.TrotDriver.mpc_forces

        def recording(self, t, state, step_idx, contact_now):
            forces = original(self, t, state, step_idx, contact_now)
            applied.append((contact_now, forces.copy()))
            return forces

        monkeypatch.setattr(scenarios.TrotDriver, "mpc_forces", recording)
        driver.run()
        assert len(applied) == 1000
        assert sum(not all(contact) for contact, _ in applied) > 400
        for contact, forces in applied:
            masked = forces * np.repeat(contact, 3)
            assert masked.tobytes() == forces.tobytes()


class TestEstimateReplay:
    def test_missing_columns_rejected(self):
        with pytest.raises(ReplayLogError, match="missing columns"):
            run_estimate({"t_s": np.zeros(3)})

    def test_replay_matches_online(self, monkeypatch):
        even_weight_split(monkeypatch)
        online = run_stand(noise=STAND_NOISE, duration=1.0, log_every=1)
        replay = run_estimate(online.log)
        # both estimators see identical sensor streams
        assert_allclose(replay.summary["vel_rmse_mps"],
                        online.summary["vel_rmse_mps"], rtol=0.3, atol=5e-4)

    @pytest.mark.parametrize("controller", ["hover", "balance"])
    def test_logged_stream_reproduces_the_live_estimates(self, monkeypatch, controller):
        # the live loop and the replay are one pipeline: an EstimatorLoop
        # started from the stand's initial state and fed the logged sensor
        # stream reproduces the logged estimates bit for bit, on a hovering
        # (even weight split) and on a balancing stand
        if controller == "hover":
            even_weight_split(monkeypatch)
        log = run_stand(noise=STAND_NOISE, duration=0.5, log_every=1).log
        est = scenarios.EstimatorLoop(np.eye(3), [0.0, 0.0, scenarios.NOMINAL_Z],
                                      scenarios.nominal_feet(), terrain.PlaneCoeffs())
        phat, vhat = [], []
        for k in range(len(log["t_s"])):
            imu = ImuSample(gyro=[log[f"gyro_{ax}_radps"][k] for ax in "xyz"],
                            accel=[log[f"accel_{ax}_mps2"][k] for ax in "xyz"])
            qs = np.array([[log[f"q{leg}{j}_rad"][k] for j in range(3)] for leg in range(4)])
            qds = np.array([[log[f"qd{leg}{j}_radps"][k] for j in range(3)] for leg in range(4)])
            stance = np.array([log[f"stance{leg}"][k] > 0.5 for leg in range(4)])
            est.step(imu, qs, qds, stance, 1e-3)
            phat.append(est.kf.pos.copy())
            vhat.append(est.kf.vel.copy())
        assert len(phat) == 500
        assert np.array_equal(phat, np.column_stack([log[f"phat_{ax}_m"] for ax in "xyz"]))
        assert np.array_equal(vhat, np.column_stack([log[f"vhat_{ax}_mps"] for ax in "xyz"]))


class TestJumpPipeline:
    def test_small_hop_end_to_end(self):
        spec = hop_spec(n_knots=8, flight_min=0.25)
        opt_res = run_jump_opt(spec)
        ref = reference_from_log(opt_res.log)
        assert opt_res.summary["checker_max_violation"] <= 1e-4
        sim_res = run_jump_sim(spec, ref)
        assert sim_res.summary["landed"]
        assert sim_res.summary["final_height_error_m"] <= 0.03
        assert sim_res.summary["final_orientation_error_deg"] <= 5.0

    def test_unreachable_reference_counts_ik_fallbacks(self, monkeypatch):
        # a hand-made stand reference whose body rises 0.5 m above the
        # footholds for samples 2-4: the stance legs cannot reach
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.0)
        spec = hop_spec(n_knots=4)
        reachable = run_jump_sim(spec, flat_stand_reference(spec))
        assert reachable.summary["ik_fallbacks"] == 0
        ref = flat_stand_reference(spec)
        ref.pos[2:5, 2] += 0.5
        raised = run_jump_sim(spec, ref)
        # 4 legs on each tick that reads one of the raised samples
        assert raised.summary["ik_fallbacks"] % 4 == 0
        assert 4 * 25 <= raised.summary["ik_fallbacks"] <= 4 * 35

    def test_landing_tick_keeps_the_array_formulas(self, monkeypatch):
        # the landing target's position is the float mean of the feet, with
        # np.mean's bits; the balance QP's forces are applied without masking
        # them: the QP eliminates the swing legs' forces, so their entries
        # are already the +0.0 that the mask would give
        applied = []
        original = scenarios.BalanceController.compute

        def recording(self, state, des, stance_mask):
            forces = original(self, state, des, stance_mask)
            mean = np.array([*np.mean(state.feet[:, 0:2], axis=0), scenarios.NOMINAL_Z])
            applied.append((list(stance_mask), forces.copy(), des.pos.tobytes() == mean.tobytes()))
            return forces

        monkeypatch.setattr(scenarios.BalanceController, "compute", recording)
        hop = hop_spec(n_knots=4)
        run_jump_sim(hop, reference_from_log(run_jump_opt(hop).log))
        # feet off the symmetric stance, where the order of the sum shows
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.3)
        spec = hop_spec(n_knots=4)
        shift = np.random.default_rng(1).normal(size=(4, 3)) * [0.01, 0.01, 0.0]
        spec.feet_start = spec.feet_start + shift
        run_jump_sim(spec, flat_stand_reference(spec))
        assert sum(not all(mask) for mask, *_ in applied) > 10
        for mask, forces, same_mean in applied:
            assert same_mean
            assert (forces * np.repeat(mask, 3)).tobytes() == forces.tobytes()

    def test_held_foot_targets_in_floats(self, monkeypatch):
        # an airborne leg holds the tucked pose: pos + rot @ hold as float
        # tuples, each row of the product summed left to right
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.3)
        spec = hop_spec(n_knots=4)
        hold = spec.feet_start - spec.p_start
        hold[:, 2] = -0.33
        held = []
        step = sim.SimWorld.step

        def recording(world, forces, stance_mask, swing_targets=None):
            if swing_targets:
                held.append((world.state.pos.copy(), world.state.rot.copy(), swing_targets))
            return step(world, forces, stance_mask, swing_targets)

        monkeypatch.setattr(sim.SimWorld, "step", recording)
        run_jump_sim(spec, reference_from_log(run_jump_opt(spec).log))
        assert len(held) > 100
        for pos, rot, targets in held:
            for leg, target in targets.items():
                (p0, p1, p2), (hx, hy, hz) = pos.tolist(), hold[leg].tolist()
                want = tuple(p + (a * hx + b * hy + c * hz)
                             for p, (a, b, c) in zip((p0, p1, p2), rot.tolist()))
                assert np.array(target).tobytes() == np.array(want).tobytes()
                assert_allclose(target, pos + rot @ hold[leg], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad, clamped", [
        ((np.inf, -np.inf, np.inf), (scenarios.MU * scenarios.F_MAX,
                                     -scenarios.MU * scenarios.F_MAX, scenarios.F_MAX)),
        ((-np.inf, np.inf, -np.inf), (-0.0, 0.0, 0.0)),
    ], ids=["pushing", "pulling"])
    def test_infinite_force_map_is_clamped(self, monkeypatch, bad, clamped):
        # an infinite force from the torque-to-force map is clamped into the
        # friction pyramid under the force budget, and the tick goes on
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.0)
        calls = []

        def once_infinite(q, tau, r_body, leg):
            calls.append(leg)
            return np.array(bad) if len(calls) == 1 else grf_from_torque(q, tau, r_body, leg)

        stepped = []
        step = sim.SimWorld.step

        def recording(world, forces, *args):
            stepped.append(np.array(forces, dtype=float))
            return step(world, forces, *args)

        # run_jump_sim imports the force map from quadstack.swing on each call
        monkeypatch.setattr("quadstack.swing.grf_from_torque", once_infinite)
        monkeypatch.setattr(sim.SimWorld, "step", recording)
        spec = hop_spec(n_knots=4)
        run_jump_sim(spec, flat_stand_reference(spec))
        assert stepped[0][0:3].tobytes() == np.array(clamped).tobytes()  # signed zeros too

    def test_landed_judges_the_final_pose(self, monkeypatch):
        # a hand-made stand reference "takes off" at 0.25 s: the body drops
        # onto its tucked legs, which touch down at 0.411 s. The log's landed
        # column reads 1 from the first touchdown on; the summary's landed
        # also needs the final pose within the landing bounds, which 0.3 s
        # of recovery does not reach and 1.2 s does
        spec = hop_spec(n_knots=4)
        ref = flat_stand_reference(spec)
        full = run_jump_sim(spec, ref).summary
        assert full["landed"] is True
        assert full["final_height_error_m"] <= scenarios.LANDED_HEIGHT_M
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.3)
        short = run_jump_sim(spec, ref)
        assert short.log["landed"][-1] == 1.0
        assert short.summary["final_orientation_error_deg"] <= scenarios.LANDED_ORIENT_DEG
        assert short.summary["final_height_error_m"] > scenarios.LANDED_HEIGHT_M
        assert short.summary["landed"] is False

    @pytest.mark.slow
    def test_diagonal_jump_does_not_pass_as_landed(self):
        # spin_spec's settings with a 0.2 m diagonal goal and no turn: the
        # solve converges, but the robot lands moving sideways and rolls
        # over; the run stops on the simulator's support check (a run
        # failure of kind "solver" in the CLI) or reports landed: false
        spec = spin_spec(yaw_deg=0.0)
        spec.p_goal = np.array([0.2, 0.2, scenarios.NOMINAL_Z])
        opt_res = run_jump_opt(spec)
        ref = reference_from_log(opt_res.log)
        assert opt_res.summary["checker_max_violation"] <= 1e-4
        try:
            summary = run_jump_sim(spec, ref).summary
        except sim.BreachError as exc:
            assert isinstance(exc, cli.RUN_FAILURES)
            assert re.search(r"stance foot of leg \d is 0\.\d+ m from its hip at t = \d\.\d+ s", str(exc))
        else:
            assert summary["landed"] is False

    def test_nan_force_map_stops_at_the_step(self, monkeypatch):
        # a NaN passes the clamps and the simulator's finite check raises
        # before the state moves
        monkeypatch.setattr("quadstack.swing.grf_from_torque", lambda *args: np.full(3, np.nan))
        spec = hop_spec(n_knots=4)
        with pytest.raises(ValueError, match="non-finite stance force"):
            run_jump_sim(spec, flat_stand_reference(spec))

    def test_tick_constants_are_read_only(self, monkeypatch):
        # the stance mask of a stance tick and the zero forces of an airborne
        # tick are shared module arrays: a write into one raises
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.0)
        spec = hop_spec(n_knots=4)
        ref = flat_stand_reference(spec)
        shared = []
        original = sim.SimWorld.step

        def recording(world, forces, stance_mask, swing_targets=None):
            for a in (forces, stance_mask):
                if isinstance(a, np.ndarray) and not a.flags.writeable:
                    shared.append((world.t < ref.phase_times[0], a.dtype))
            return original(world, forces, stance_mask, swing_targets)

        monkeypatch.setattr(sim.SimWorld, "step", recording)
        run_jump_sim(spec, ref)
        assert (True, np.dtype(bool)) in shared and (False, np.dtype(float)) in shared
        for a in (scenarios._ALL_STANCE, scenarios._NO_FORCES):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        driver = scenarios.TrotDriver(noise=None, duration=0.01)
        contact, phis = driver.schedule(0.0)
        des = driver.desired(0.0, driver.start, contact, phis)
        assert_array_equal(des.rot, np.eye(3))
        with pytest.raises(ValueError, match="read-only"):
            des.rot[0, 0] = 1.0

    def test_spin_spec_shape(self):
        spec = spin_spec(yaw_deg=45.0, n_knots=6)
        assert len(spec.phases) == 2
        assert spec.phases[1].feet == ()


class TestReferenceLog:
    """jump_ref.csv carries a body reference exactly, phase times included."""

    @staticmethod
    def assert_round_trip(ref, tmp_path):
        path = tmp_path / "jump_ref.csv"
        cli.write_csv(path, reference_log(ref))
        back = reference_from_log(cli.read_csv(path))
        for f in dataclasses.fields(ref):
            a, b = getattr(ref, f.name), getattr(back, f.name)
            assert a.shape == b.shape and np.array_equal(a, b), f.name

    def test_hand_made_reference(self, tmp_path):
        self.assert_round_trip(flat_stand_reference(hop_spec(n_knots=4)), tmp_path)

    def test_solved_reference(self, tmp_path):
        spec = hop_spec(n_knots=8)
        ref = export_reference(solve_timing(TimingProblem(spec)), spec)
        assert len(ref.phase_times) == 3
        self.assert_round_trip(ref, tmp_path)


class TestLayerBoundaries:
    """The 1 kHz loops cross the sensor and estimator layers by these names.

    The benchmark's per-layer tracer times exactly these attributes, so a
    loop that bypasses them makes its layer read zero.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"synth_encoders": 0, "leg_measurements_batch": 0, "kf_update": 0}
        step_times = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recording_step(world, *args, **kwargs):
            step_times.append(world.t)
            return original_step(world, *args, **kwargs)

        original_step = sim.SimWorld.step
        monkeypatch.setattr(sim.SimWorld, "step", recording_step)
        monkeypatch.setattr(sim.SimWorld, "synth_encoders",
                            counting("synth_encoders", sim.SimWorld.synth_encoders))
        for name in ("leg_measurements_batch", "kf_update"):
            monkeypatch.setattr(scenarios, name, counting(name, getattr(scenarios, name)))

        def take():
            out = dict(counts, ticks=len(step_times), step_times=list(step_times))
            for name in counts:
                counts[name] = 0
            step_times.clear()
            return out

        return take

    def test_estimated_state_trot(self, calls):
        run_trot(noise=SensorNoise(), duration=0.05)
        c = calls()
        assert c["ticks"] == 50
        assert c["synth_encoders"] == c["leg_measurements_batch"] == c["kf_update"] == 50

    def test_estimate_replay(self, calls):
        log = run_stand(noise=STAND_NOISE, duration=0.05, log_every=1).log
        calls()
        run_estimate(log)
        c = calls()
        n = len(log["t_s"])
        assert n == 50
        assert c["synth_encoders"] == 0
        assert c["kf_update"] == n
        assert c["leg_measurements_batch"] == n + 1  # plus the initial foothold fix

    def test_jump_sim_stance_ticks(self, calls, monkeypatch):
        monkeypatch.setattr(scenarios, "_RECOVER_TIME", 0.0)
        spec = hop_spec(n_knots=4)
        ref = flat_stand_reference(spec)
        run_jump_sim(spec, ref)
        c = calls()
        stance_ticks = sum(t < ref.phase_times[0] for t in c["step_times"])
        assert 0 < stance_ticks < c["ticks"]
        assert c["synth_encoders"] == stance_ticks
        assert c["leg_measurements_batch"] == c["kf_update"] == 0
