"""Closed-loop scenario drivers.

Each driver wires the simulator, estimator, planners, and force controllers
into a runnable scenario and returns a :class:`ScenarioResult` holding the
time-series log (column name -> array, names carry units) and a summary
dict. The CLI serializes these to CSV/JSON; the acceptance suite calls the
drivers directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gait, so3, terrain
from .balance import (BalanceController, BalanceGains, BodyModel, FrictionSpec,
                      landing_switch)
from .estimation import (ImuSample, OrientationFilter, kf_default_state,
                         kf_predict, kf_update, kf_update_arrays, leg_kinematics,
                         leg_measurements_batch, orientation_step)
from .mpc import MpcConfig, solve_mpc
from .sim import SensorNoise, SimWorld
from .state import DesiredState, RobotState
from .swing import LegModel, SwingTrajectory, leg_fk
from .terrain import PlaneCoeffs
from .trajopt import (BodyReference, ContactPhase, JumpSpec, build_problem,
                      check_constraints, export_reference, solve_timing)

NOMINAL_Z = 0.45
_GRAVITY_W = np.array([0.0, 0.0, -9.81])


class ReplayLogError(KeyError):
    """A replay log lacks the columns the estimator needs."""


def nominal_feet(leg_model: LegModel, ground: PlaneCoeffs | None = None,
                 z0: float = NOMINAL_Z) -> np.ndarray:
    """World foot positions under the hips on the ground surface."""
    feet = np.zeros((4, 3))
    for i in range(4):
        hip = leg_model.hip(i)
        feet[i, 0:2] = hip[0:2]
        feet[i, 2] = 0.0 if ground is None else ground.height(hip[0], hip[1])
    return feet


@dataclass
class ScenarioResult:
    summary: dict
    log: dict[str, np.ndarray] = field(default_factory=dict)


class Logger:
    def __init__(self):
        self.rows: dict[str, list] = {}

    def push(self, **cols):
        for k, v in cols.items():
            self.rows.setdefault(k, []).append(v)

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self.rows.items()}


_STATE_COLS = (["t_s"]
               + [f"{c}{ax}_{u}" for ax in "xyz" for c, u in (("p", "m"), ("v", "mps"), ("w", "radps"))]
               + [f"r{r}{c}" for r in range(3) for c in range(3)]
               + [f"{c}{ax}_{u}" for f in range(4) for ax in "xyz"
                  for c, u in ((f"foot{f}", "m"), (f"f{f}", "N"))])


def _log_state(log: Logger, world: SimWorld, extra: dict | None = None):
    s = world.state
    kin = np.stack([s.pos, s.vel, s.omega], axis=1)                     # (axis, p/v/w)
    feet = np.stack([s.feet, world.contact_forces.reshape(4, 3)], axis=2)  # (foot, axis, pos/force)
    values = [world.t, *kin.ravel().tolist(), *s.rot.ravel().tolist(), *feet.ravel().tolist()]
    cols = dict(zip(_STATE_COLS, values))
    if extra:
        cols.update(extra)
    log.push(**cols)


class EstimatorLoop:
    """Orientation filter + KF wired to the simulated sensors."""

    def __init__(self, world: SimWorld, kappa_ref: float = 0.1,
                 q_accel: float = 1e-2, q_foot: float = 1e-6,
                 r_pos: float = 1e-4, r_vel: float = 1e-3, r_height: float = 1e-4,
                 swing_inflation: float = 1e6):
        self.filter = OrientationFilter(r_hat=world.state.rot.copy(), kappa_ref=kappa_ref)
        self.kf = kf_default_state(world.state.pos, world.state.feet)
        # dead-reckoning baseline: mean-only integration of the same inputs
        self.pred_pos = world.state.pos.copy()
        self.pred_vel = np.zeros(3)
        self.q_accel = q_accel
        self.q_foot = q_foot
        self.r_pos = r_pos
        self.r_vel = r_vel
        self.r_height = r_height
        self.swing_inflation = swing_inflation
        self.leg_model = world.leg_model
        self._last_gyro = np.zeros(3)

    def step(self, world: SimWorld, imu: ImuSample, qs: np.ndarray, qds: np.ndarray,
             stance_mask, ground: PlaneCoeffs):
        """One estimator tick on the IMU sample and the (4, 3) encoder arrays."""
        dt = world.dt
        self._last_gyro = imu.gyro.copy()
        self.filter = orientation_step(self.filter, imu, dt)
        r_hat = self.filter.r_hat
        q_p = np.where(stance_mask, self.q_foot, self.q_foot * 1e6)
        self.kf = kf_predict(self.kf, r_hat, imu.accel, dt, q_v=self.q_accel, q_p=q_p)
        u = (r_hat @ imu.accel + _GRAVITY_W).tolist()
        pos, vel = self.pred_pos.tolist(), self.pred_vel.tolist()
        self.pred_pos = np.array([p + dt * v + 0.5 * dt * dt * ui
                                  for p, v, ui in zip(pos, vel, u)])
        self.pred_vel = np.array([v + dt * ui for v, ui in zip(vel, u)])
        feet = world.state.feet
        heights = ground.height(feet[:, 0], feet[:, 1])
        rel_pos, rel_vel = leg_kinematics(qs, qds, r_hat, imu.gyro, self.leg_model)
        self.kf = kf_update_arrays(self.kf, rel_pos, rel_vel, heights, stance_mask,
                                   r_p=self.r_pos, r_v=self.r_vel, r_h=self.r_height,
                                   swing_inflation=self.swing_inflation)

    def estimated_state(self, world: SimWorld) -> RobotState:
        # body rate taken straight from the gyro channel
        return RobotState(pos=self.kf.pos, vel=self.kf.vel,
                          rot=self.filter.r_hat, omega=self._last_gyro,
                          feet=world.state.feet)


def hop_spec(n_knots: int = 30, z0: float = NOMINAL_Z,
             flight_min: float = 0.3, model: BodyModel | None = None) -> JumpSpec:
    """Vertical hop: push off, fly, land on the same footholds at rest."""
    model = model or BodyModel()
    feet = nominal_feet(LegModel())
    return JumpSpec(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min),
                ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots)],
        p_start=[0.0, 0.0, z0], r_start=np.eye(3),
        p_goal=[0.0, 0.0, z0], r_goal=np.eye(3),
        v_goal=np.zeros(3), omega_goal=np.zeros(3),
        feet_start=feet, t_min=0.5, t_max=1.8,
        com_min=[-0.2, -0.2, 0.25], com_max=[0.2, 0.2, z0], model=model)


def spin_spec(yaw_deg: float = 90.0, n_knots: int = 30, z0: float = NOMINAL_Z,
              flight_min: float = 0.25, model: BodyModel | None = None) -> JumpSpec:
    """Spinning jump: four-leg contact then flight, landing rotated in place."""
    model = model or BodyModel()
    feet = nominal_feet(LegModel())
    return JumpSpec(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min)],
        p_start=[0.0, 0.0, z0], r_start=np.eye(3),
        p_goal=[0.0, 0.0, z0], r_goal=so3.rot_z(np.deg2rad(yaw_deg)),
        feet_start=feet, t_min=0.5, t_max=1.5,
        com_min=[-0.25, -0.25, 0.25], com_max=[0.25, 0.25, z0],
        sphere_radius=0.18, model=model)


# published contact timings for the 90-degree spinning jump, in units of
# 10 ms; reported in summaries for context only
SPIN90_REFERENCE_TIMINGS_10MS = (56, 31)


def run_stand(duration: float = 10.0, seed: int = 0, accel_std: float = 0.05,
              accel_bias_mag: float = 0.2, gyro_std: float = 0.005,
              use_estimates: bool = True, dt: float = 1e-3,
              controller: str = "balance", log_every: int = 10,
              model: BodyModel | None = None) -> ScenarioResult:
    """Stand with the estimator in the loop.

    ``controller`` is "balance" (force QP each step) or "hover" (exact
    weight distribution, useful to benchmark the estimator on a strictly
    stationary truth). The summary compares fused estimation errors against
    prediction-only dead reckoning under the same accelerometer bias.
    """
    t_start = time.perf_counter()
    model = model or BodyModel()
    leg_model = LegModel()
    rng = np.random.default_rng(seed)
    bias_dir = rng.normal(size=3)
    bias_dir /= np.linalg.norm(bias_dir)
    noise = SensorNoise(gyro_std=gyro_std, accel_std=accel_std,
                        accel_bias=accel_bias_mag * bias_dir)
    feet = nominal_feet(leg_model)
    world = SimWorld(RobotState(pos=[0.0, 0.0, NOMINAL_Z], feet=feet), model,
                     dt=dt, noise=noise, seed=seed, leg_model=leg_model)
    est = EstimatorLoop(world)
    balancer = BalanceController(model)
    des = DesiredState(pos=[0.0, 0.0, NOMINAL_Z])
    stance = np.ones(4, dtype=bool)
    ground = world.ground

    log = Logger()
    n = int(round(duration / dt))
    # per step: truth, fused and prediction-only estimates as [pos, vel]
    truth, fused, pred = np.empty((n, 6)), np.empty((n, 6)), np.empty((n, 6))
    hover = np.zeros(12)
    hover[2::3] = model.weight / 4.0
    forces = hover.copy()
    for k in range(n):
        world.step(forces, stance)
        imu = world.synth_imu()
        qs, qds = world.read_encoders()
        est.step(world, imu, qs, qds, stance, ground)
        if controller == "balance":
            state = est.estimated_state(world) if use_estimates else world.state
            forces = balancer.compute(state, des, stance)
        else:
            forces = hover

        truth[k, 0:3], truth[k, 3:6] = world.state.pos, world.state.vel
        fused[k] = est.kf.mean[0:6]
        pred[k, 0:3], pred[k, 3:6] = est.pred_pos, est.pred_vel
        if k % log_every == 0:
            extra = {
                "phat_x_m": est.kf.pos[0], "phat_y_m": est.kf.pos[1], "phat_z_m": est.kf.pos[2],
                "vhat_x_mps": est.kf.vel[0], "vhat_y_mps": est.kf.vel[1], "vhat_z_mps": est.kf.vel[2],
                "gyro_x_radps": imu.gyro[0], "gyro_y_radps": imu.gyro[1], "gyro_z_radps": imu.gyro[2],
                "accel_x_mps2": imu.accel[0], "accel_y_mps2": imu.accel[1], "accel_z_mps2": imu.accel[2],
            }
            for leg in range(4):
                extra[f"stance{leg}"] = 1.0
                for j in range(3):
                    extra[f"q{leg}{j}_rad"] = qs[leg, j]
                    extra[f"qd{leg}{j}_radps"] = qds[leg, j]
            _log_state(log, world, extra)

    def rmse(est_cols, cols):
        # RMS over steps of the Euclidean error norm
        err = est_cols[:, cols] - truth[:, cols]
        return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))

    pos, vel = slice(0, 3), slice(3, 6)
    summary = {
        "scenario": "stand",
        "duration_s": duration,
        "height_error_final_m": abs(world.state.pos[2] - NOMINAL_Z),
        "pos_rmse_m": rmse(fused, pos),
        "vel_rmse_mps": rmse(fused, vel),
        "pred_only_pos_rmse_m": rmse(pred, pos),
        "pred_only_vel_rmse_mps": rmse(pred, vel),
        "runtime_s": time.perf_counter() - t_start,
    }
    return ScenarioResult(summary=summary, log=log.arrays())


class TrotDriver:
    """Shared machinery for the trot scenarios (balance QP or MPC stance force)."""

    def __init__(self, v_des=(1.0, 0.0), duration=5.0, seed=0, controller="balance",
                 preset="trot", period=0.3, z0=NOMINAL_Z, ground: PlaneCoeffs | None = None,
                 model: BodyModel | None = None, use_estimates=False,
                 mpc_horizon=10, mpc_dt=0.03, mpc_decimation=33,
                 adapt_posture=False, dt=1e-3, ramp_time=0.8):
        self.model = model or BodyModel()
        self.leg_model = LegModel()
        self.ground = ground or PlaneCoeffs()
        self.sched = gait.gait_preset(preset, period=period)
        self.gains = gait.PhaseGainParams()
        self.v_des = np.asarray(v_des, dtype=float)
        self.ramp_time = ramp_time
        self.duration = duration
        self.z0 = z0
        self.controller_type = controller
        self.use_estimates = use_estimates
        self.mpc_horizon = mpc_horizon
        self.mpc_dt = mpc_dt
        self.mpc_decimation = mpc_decimation
        self.adapt_posture = adapt_posture
        self.dt = dt
        feet = nominal_feet(self.leg_model, self.ground, z0)
        start_z = self.ground.height(0.0, 0.0) + z0
        self.world = SimWorld(RobotState(pos=[0.0, 0.0, start_z], feet=feet),
                              self.model, dt=dt, seed=seed, leg_model=self.leg_model)
        self.balance = BalanceController(self.model)
        self.friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=500.0)
        self.swing_trajs: dict[int, tuple[SwingTrajectory, float]] = {}
        self.est = EstimatorLoop(self.world) if use_estimates else None
        self.recent_contacts = feet.copy()
        self.mpc_q = np.diag([50.0, 50.0, 800.0, 400.0, 400.0, 100.0,
                              60.0, 60.0, 80.0, 4.0, 4.0, 4.0])
        self.mpc_r = 1e-6
        self._mpc_plan = np.zeros((1, 12))
        self._mpc_mask = None
        # CoM reference: integrates the commanded velocity, gently anchored
        # to the predictive support polygon (pure polygon tracking at speed
        # leaves the position term fighting the velocity command)
        self.p_ref_xy: np.ndarray | None = None
        self.anchor_rate = 0.2  # 1/s

    def v_cmd(self, t: float) -> np.ndarray:
        """Commanded velocity with a spin-up ramp from standstill."""
        if self.ramp_time <= 0.0:
            return self.v_des
        return self.v_des * min(1.0, t / self.ramp_time)

    # -- helpers ------------------------------------------------------------

    def schedule(self, t):
        mask = np.zeros(4, dtype=bool)
        phis = np.zeros(4)
        for leg in range(4):
            mask[leg], phis[leg] = gait.subphase(t, self.sched, leg)
        return mask, phis

    def desired(self, t, state: RobotState) -> DesiredState:
        mask, phis = self.schedule(t)
        weights = np.array([gait.total_weight(mask[i], phis[i], self.gains)
                            for i in range(4)])
        verts = gait.support_polygon(state.feet[:, 0:2], weights)
        polygon_xy = gait.desired_com(verts)
        v_now = self.v_cmd(t)
        if self.p_ref_xy is None:
            self.p_ref_xy = polygon_xy.copy()
        self.p_ref_xy = (self.p_ref_xy + v_now * self.dt
                         + self.anchor_rate * self.dt * (polygon_xy - self.p_ref_xy))
        com_xy = self.p_ref_xy
        if self.adapt_posture:
            plane = terrain.fit_plane(self.recent_contacts[:, 0:2], self.recent_contacts[:, 2])
            r_d, height = terrain.posture_from_plane(plane, yaw=0.0, z0=self.z0)
            normal = plane.normal()
            base = np.array([com_xy[0], com_xy[1], plane.height(*com_xy)])
            pos_d = base + normal * height
        else:
            r_d = np.eye(3)
            pos_d = np.array([com_xy[0], com_xy[1],
                              self.ground.height(*com_xy) + self.z0])
        return DesiredState(pos=pos_d, vel=np.array([*v_now, 0.0]), rot=r_d)

    def plan_swing(self, leg, t, state: RobotState):
        hip_w = state.pos + state.rot @ self.leg_model.hip(leg)
        # aim for the command at touchdown time (end of this swing)
        v_td = self.v_cmd(t + self.sched.swing_time())
        target_xy = gait.footstep(hip_w[0:2], self.sched.stance_time(),
                                  v_td, state.vel[0:2], self.z0)
        target = np.array([target_xy[0], target_xy[1],
                           self.ground.height(*target_xy)])
        duration = self.sched.swing_time()
        traj = SwingTrajectory(state.feet[leg].copy(), target, duration, apex=0.08)
        self.swing_trajs[leg] = (traj, t)

    def mpc_tables(self, t, state: RobotState):
        k = self.mpc_horizon
        x_ref = np.zeros((k, 12))
        p_nom = np.zeros((k, 3))
        contact = np.zeros((k, 4), dtype=bool)
        feet = np.zeros((k, 4, 3))
        feet_now = state.feet.copy()
        for i in range(k):
            ti = t + (i + 1) * self.mpc_dt
            for leg in range(4):
                c, _ = gait.subphase(ti, self.sched, leg)
                contact[i, leg] = c
            # feet prediction: current positions, future steps land under the
            # hip advanced by the command
            for leg in range(4):
                if contact[i, leg] and not self.schedule(t)[0][leg]:
                    hip_w = state.pos + np.array([*(self.v_cmd(ti) * (ti - t)), 0.0]) \
                        + state.rot @ self.leg_model.hip(leg)
                    xy = gait.footstep(hip_w[0:2], self.sched.stance_time(),
                                       self.v_cmd(ti), self.v_cmd(ti), self.z0)
                    feet[i, leg] = [xy[0], xy[1], self.ground.height(*xy)]
                else:
                    feet[i, leg] = feet_now[leg]
            base = state.pos[0:2] if self.p_ref_xy is None else self.p_ref_xy
            com = base + self.v_cmd(ti) * (ti - t)
            x_ref[i, 0:2] = com
            x_ref[i, 2] = self.ground.height(*com) + self.z0
            x_ref[i, 6:8] = self.v_cmd(ti)
            # moment arms about the predicted body path, not the target path
            p_nom[i] = state.pos + np.array([*(self.v_cmd(ti) * (ti - t)), 0.0])
        return x_ref, contact, feet, p_nom

    def mpc_forces(self, t, state: RobotState, step_idx, mask):
        switched = self._mpc_mask is None or not np.array_equal(mask, self._mpc_mask)
        if switched or step_idx % self.mpc_decimation == 0:
            x_ref, contact, feet, p_nom = self.mpc_tables(t, state)
            contact[0] = mask  # first step uses the realized contact set
            x0 = np.concatenate([state.pos, so3.matrix_to_rpy(state.rot),
                                 state.vel, state.rot @ state.omega])
            cfg = MpcConfig(horizon=self.mpc_horizon, dt=self.mpc_dt,
                            q_weight=self.mpc_q, r_weight=self.mpc_r,
                            x_ref=x_ref, contact=contact, feet=feet,
                            op_yaw=0.0, model=self.model, p_nom=p_nom)
            self._mpc_plan = solve_mpc(cfg, x0, self.friction)
            self._mpc_mask = mask.copy()
        return self._mpc_plan[0]

    # -- main loop ------------------------------------------------------------

    def run(self) -> ScenarioResult:
        t_start = time.perf_counter()
        n = int(round(self.duration / self.dt))
        log = Logger()
        height_err, vel_err = [], []
        mask_prev, _ = self.schedule(0.0)
        forces = np.zeros(12)
        plane_err = []
        speed_sum = 0.0
        for k in range(n):
            t = self.world.t
            mask, phis = self.schedule(t)
            state = self.world.state

            if self.est is not None:
                imu = self.world.synth_imu()
                qs, qds = self.world.read_encoders()
                self.est.step(self.world, imu, qs, qds, mask, self.ground)
                ctrl_state = self.est.estimated_state(self.world)
            else:
                ctrl_state = state

            # liftoff events start swing trajectories; touchdowns record contacts
            for leg in range(4):
                if mask_prev[leg] and not mask[leg]:
                    self.plan_swing(leg, t, ctrl_state)
                if mask[leg] and not mask_prev[leg]:
                    self.recent_contacts[leg] = state.feet[leg].copy()
            mask_prev = mask

            des = self.desired(t, ctrl_state)
            stance_mask = mask
            if self.controller_type == "mpc":
                forces = self.mpc_forces(t, ctrl_state, k, stance_mask)
                forces = forces * np.repeat(stance_mask, 3)
            else:
                forces = self.balance.compute(ctrl_state, des, stance_mask)

            swing_targets = {}
            for leg in range(4):
                if not mask[leg] and leg in self.swing_trajs:
                    traj, t0 = self.swing_trajs[leg]
                    swing_targets[leg] = traj.sample(t + self.dt - t0)[0]
            self.world.step(forces, stance_mask, swing_targets)

            z_ref = self.ground.height(*self.world.state.pos[0:2]) + self.z0
            height_err.append(self.world.state.pos[2] - z_ref)
            vel = self.world.state.vel
            vel_err.append(np.linalg.norm(vel[0:2] - self.v_cmd(t)))
            speed_sum += math.hypot(vel[0], vel[1])
            if self.adapt_posture:
                plane = terrain.fit_plane(self.recent_contacts[:, 0:2],
                                          self.recent_contacts[:, 2])
                plane_err.append(abs(plane.a1 - self.ground.a1)
                                 + abs(plane.a2 - self.ground.a2))
            if k % 10 == 0:
                _log_state(log, self.world, {
                    "stance0": float(mask[0]), "stance1": float(mask[1]),
                    "stance2": float(mask[2]), "stance3": float(mask[3]),
                })

        def rms(a):
            return float(np.sqrt(np.mean(np.square(a))))

        summary = {
            "scenario": f"trot/{self.controller_type}",
            "duration_s": self.duration,
            "v_command_mps": float(np.linalg.norm(self.v_des)),
            "height_rms_m": rms(height_err),
            "vel_rmse_mps": rms(vel_err),
            "mean_speed_mps": speed_sum / max(n, 1),
            "runtime_s": time.perf_counter() - t_start,
        }
        if plane_err:
            summary["slope_fit_error_final"] = float(plane_err[-1])
        return ScenarioResult(summary=summary, log=log.arrays())


def run_trot(duration=5.0, v_des=(1.0, 0.0), seed=0, controller="balance",
             use_estimates=False, **kw) -> ScenarioResult:
    return TrotDriver(v_des=v_des, duration=duration, seed=seed,
                      controller=controller, use_estimates=use_estimates, **kw).run()


REPLAY_COLUMNS = (
    ["t_s"]
    + [f"gyro_{ax}_radps" for ax in "xyz"]
    + [f"accel_{ax}_mps2" for ax in "xyz"]
    + [f"q{leg}{j}_rad" for leg in range(4) for j in range(3)]
    + [f"qd{leg}{j}_radps" for leg in range(4) for j in range(3)]
    + [f"stance{leg}" for leg in range(4)]
)


def run_estimate(log: dict[str, np.ndarray]) -> ScenarioResult:
    """Offline estimation replay over a recorded sensor log.

    Requires the columns in :data:`REPLAY_COLUMNS`; ground-truth body
    columns (p*_m, v*_mps), when present, are used to score the estimates.
    """
    t_start = time.perf_counter()
    missing = [c for c in REPLAY_COLUMNS if c not in log]
    if missing:
        raise ReplayLogError(f"replay log missing columns: {missing[:4]}")
    t = np.asarray(log["t_s"], dtype=float)
    n = len(t)
    filt = OrientationFilter()
    kf = None
    model = LegModel()
    out = Logger()
    pos_err, vel_err = [], []
    has_truth = all(f"p{ax}_m" in log for ax in "xyz")
    for k in range(n):
        dt = t[k] - t[k - 1] if k > 0 else (t[1] - t[0] if n > 1 else 1e-3)
        gyro = np.array([log[f"gyro_{ax}_radps"][k] for ax in "xyz"])
        accel = np.array([log[f"accel_{ax}_mps2"][k] for ax in "xyz"])
        qs = np.array([[log[f"q{leg}{j}_rad"][k] for j in range(3)] for leg in range(4)])
        qds = np.array([[log[f"qd{leg}{j}_radps"][k] for j in range(3)] for leg in range(4)])
        stance = np.array([log[f"stance{leg}"][k] > 0.5 for leg in range(4)])
        imu = ImuSample(gyro=gyro, accel=accel)
        filt = orientation_step(filt, imu, dt)
        if kf is None:
            feet0 = leg_measurements_batch(qs, qds, filt.r_hat, gyro, model,
                                           np.zeros(4), stance)
            p0 = np.array([log[f"p{ax}_m"][0] for ax in "xyz"]) if has_truth else \
                np.array([0.0, 0.0, -np.mean([m.rel_pos[2] for m in feet0])])
            kf = kf_default_state(p0, np.stack([p0 + m.rel_pos for m in feet0]))
        q_p = np.where(stance, 1e-6, 1.0)
        kf = kf_predict(kf, filt.r_hat, accel, dt, q_p=q_p)
        heights = np.zeros(4)
        meas = leg_measurements_batch(qs, qds, filt.r_hat, gyro, model, heights, stance)
        kf = kf_update(kf, filt.r_hat, meas)
        row = {"t_s": t[k]}
        for i, ax in enumerate("xyz"):
            row[f"phat_{ax}_m"] = kf.pos[i]
            row[f"vhat_{ax}_mps"] = kf.vel[i]
        out.push(**row)
        if has_truth:
            truth_p = np.array([log[f"p{ax}_m"][k] for ax in "xyz"])
            truth_v = np.array([log[f"v{ax}_mps"][k] for ax in "xyz"])
            pos_err.append(np.linalg.norm(kf.pos - truth_p))
            vel_err.append(np.linalg.norm(kf.vel - truth_v))
    summary = {"scenario": "estimate", "samples": n,
               "runtime_s": time.perf_counter() - t_start}
    if has_truth:
        summary["pos_rmse_m"] = float(np.sqrt(np.mean(np.square(pos_err))))
        summary["vel_rmse_mps"] = float(np.sqrt(np.mean(np.square(vel_err))))
    return ScenarioResult(summary=summary, log=out.arrays())


def run_jump_opt(spec: JumpSpec, dt_ref: float = 0.01,
                 context_timings_10ms: tuple | None = None) -> tuple[ScenarioResult, BodyReference]:
    """Solve a contact-timing problem and export the sampled body reference."""
    t_start = time.perf_counter()
    problem = build_problem(spec)
    sol = solve_timing(problem)
    report = check_constraints(spec, sol)
    ref = export_reference(sol, spec, dt=dt_ref)
    log = Logger()
    for i in range(len(ref.t)):
        cols = {"t_s": ref.t[i]}
        for j, ax in enumerate("xyz"):
            cols[f"p{ax}_m"] = ref.pos[i, j]
            cols[f"v{ax}_mps"] = ref.vel[i, j]
            cols[f"w{ax}_radps"] = ref.omega[i, j]
        for r in range(3):
            for c in range(3):
                cols[f"r{r}{c}"] = ref.rot[i, r, c]
        for f in range(4):
            for j, ax in enumerate("xyz"):
                cols[f"f{f}{ax}_N"] = ref.forces[i, 3 * f + j]
        log.push(**cols)
    summary = {
        "scenario": "jump-opt",
        "durations_s": [float(x) for x in sol.durations],
        "total_duration_s": float(sol.durations.sum()),
        "cost": sol.cost,
        "max_violation": sol.max_violation,
        "checker_max_violation": report["max"],
        "kkt_residual": sol.kkt_residual,
        "ortho_defect": sol.ortho_defect,
        "outer_iterations": sol.outer_iterations,
        "runtime_s": time.perf_counter() - t_start,
    }
    if context_timings_10ms is not None:
        # published reference timings for this jump family, context only
        summary["reference_timings_10ms"] = list(context_timings_10ms)
        summary["our_timings_10ms"] = [round(float(x) * 100.0, 1) for x in sol.durations]
    return ScenarioResult(summary=summary, log=log.arrays()), ref


def run_jump_sim(spec: JumpSpec, ref: BodyReference, recover_time: float = 1.2,
                 z_land: float = NOMINAL_Z, seed: int = 0,
                 dt: float = 1e-3) -> ScenarioResult:
    """Track an exported jump reference, then catch the landing.

    Stance tracking runs the Cartesian+joint reference-tracking torque law
    per leg and maps the torques back to ground reaction forces. After
    takeoff the legs hold the pre-landing pose; the force-threshold switch
    hands over to the landing force controller, which recovers a stand.
    """
    from .balance import landing_switch as _switch
    from .swing import (UnreachableError, grf_from_torque, jump_track_torque, leg_ik,
                        stance_torque)

    t_start = time.perf_counter()
    model = spec.model
    leg_model = LegModel()
    world = SimWorld(RobotState(pos=spec.p_start, rot=spec.r_start,
                                feet=spec.feet_start), model, dt=dt, seed=seed,
                     leg_model=leg_model)
    lander = BalanceController(model)
    lander.friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=700.0)
    gains = {"kp_cart": np.full(3, 900.0), "kd_cart": np.full(3, 20.0),
             "kp_joint": np.full(3, 20.0), "kd_joint": np.full(3, 0.5)}

    # takeoff = end of the first contact block
    t_takeoff = float(ref.phase_times[0])
    t_total = float(ref.t[-1])
    t_posing = t_takeoff + 0.05
    # pre-landing pose: legs tucked under the hips so the feet clear the
    # ground until the body has actually descended toward touchdown
    tuck_depth = 0.33
    hold_pose_body = (spec.feet_start - spec.p_start).copy()
    hold_pose_body[:, 2] = -tuck_depth

    landing_stance = np.zeros(4, dtype=bool)
    landed = False
    log = Logger()
    duration = t_total + recover_time
    n = int(round(duration / dt))
    idx_max = len(ref.t) - 1
    forces = np.zeros(12)
    ik_fallbacks = 0

    # goal posture for the landing recovery
    yaw_goal = so3.matrix_to_rpy(spec.r_goal)[2]
    r_land = so3.rot_z(yaw_goal)

    for k in range(n):
        t = world.t
        state = world.state
        i_ref = min(int(t / (ref.t[1] - ref.t[0])), idx_max)
        in_stance_phase = t < t_takeoff

        if landed:
            des = DesiredState(
                pos=np.array([*np.mean(state.feet[:, 0:2], axis=0), z_land]),
                rot=r_land)
            if landing_stance.any():
                forces = lander.compute(state, des, landing_stance)
                forces = forces * np.repeat(landing_stance, 3)
            else:
                forces = np.zeros(12)
            stance_mask = landing_stance.copy()
            swing_targets = {i: state.pos + state.rot @ hold_pose_body[i]
                             for i in range(4) if not landing_stance[i]}
        elif in_stance_phase:
            # reference tracking through the legs
            enc = world.synth_encoders()
            p_ref, r_ref = ref.pos[i_ref], ref.rot[i_ref]
            i_next = min(i_ref + 1, idx_max)
            dt_ref = max(ref.t[1] - ref.t[0], 1e-9)
            forces = np.zeros(12)
            for leg in range(4):
                foot_w = spec.feet_start[leg]
                pf_d = r_ref.T @ (foot_w - p_ref)
                pf_d_next = ref.rot[i_next].T @ (foot_w - ref.pos[i_next])
                vf_d = (pf_d_next - pf_d) / dt_ref
                try:
                    q_d = leg_ik(pf_d, leg, leg_model)
                except UnreachableError:
                    # the reference foot left the workspace: hold the
                    # measured joint angles, and count it
                    q_d = enc[leg].q
                    ik_fallbacks += 1
                tau_d = stance_torque(q_d, ref.forces[i_ref, 3 * leg:3 * leg + 3],
                                      r_ref, leg, leg_model)
                refs = {"q_d": q_d, "qd_d": np.zeros(3), "p_foot_d": pf_d,
                        "v_foot_d": vf_d, "tau_d": tau_d}
                tau = jump_track_torque(enc[leg].q, enc[leg].qd, refs, gains,
                                        leg, leg_model)
                f_leg = grf_from_torque(enc[leg].q, tau, state.rot, leg, leg_model)
                # the ground cannot pull or exceed the hardware force budget
                f_leg[2] = min(max(f_leg[2], 0.0), spec.f_max)
                f_leg[0] = np.clip(f_leg[0], -spec.mu * f_leg[2], spec.mu * f_leg[2])
                f_leg[1] = np.clip(f_leg[1], -spec.mu * f_leg[2], spec.mu * f_leg[2])
                forces[3 * leg:3 * leg + 3] = f_leg
            stance_mask = np.ones(4, dtype=bool)
            swing_targets = None
        else:
            # airborne: hold the pre-landing pose and wait for impact
            forces = np.zeros(12)
            stance_mask = landing_stance.copy()
            swing_targets = {i: state.pos + state.rot @ hold_pose_body[i]
                             for i in range(4) if not landing_stance[i]}

        world.step(forces, stance_mask, swing_targets)
        if world.t >= t_posing:
            landing_stance |= world.touched_down
            if not landed and _switch(world.contact_forces[2::3], world.t, t_posing):
                landed = True
        if k % 10 == 0:
            _log_state(log, world, {"landed": float(landed)})

    rpy = so3.matrix_to_rpy(world.state.rot)
    orient_err = np.linalg.norm(so3.log_map(r_land @ world.state.rot.T))
    summary = {
        "scenario": "jump-sim",
        "takeoff_time_s": t_takeoff,
        "landed": bool(landed),
        "final_orientation_error_deg": float(np.rad2deg(orient_err)),
        "final_height_error_m": float(abs(world.state.pos[2] - z_land)),
        "final_speed_mps": float(np.linalg.norm(world.state.vel)),
        "final_rate_radps": float(np.linalg.norm(world.state.omega)),
        "ik_fallbacks": ik_fallbacks,
        "runtime_s": time.perf_counter() - t_start,
    }
    return ScenarioResult(summary=summary, log=log.arrays())


def run_slope(duration=4.0, slope=0.17, v_des=(0.3, 0.0), seed=0, **kw) -> ScenarioResult:
    """Trot up a planar slope with terrain fitting and posture adjustment."""
    ground = PlaneCoeffs(0.0, slope, 0.0)
    driver = TrotDriver(v_des=v_des, duration=duration, seed=seed,
                        ground=ground, adapt_posture=True, **kw)
    res = driver.run()
    plane = terrain.fit_plane(driver.recent_contacts[:, 0:2], driver.recent_contacts[:, 2])
    res.summary["scenario"] = "slope"
    res.summary["slope_true"] = slope
    res.summary["slope_estimate"] = float(plane.a1)
    res.summary["pitch_desired_deg"] = float(np.rad2deg(
        so3.matrix_to_rpy(terrain.posture_from_plane(plane, 0.0, driver.z0)[0])[1]))
    return res
