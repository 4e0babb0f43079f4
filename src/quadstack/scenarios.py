"""Closed-loop scenario drivers.

Each driver wires the simulator, estimator, planners, and force controllers
into a runnable scenario and returns a :class:`ScenarioResult` holding the
time-series log (column name -> array, names carry units) and a summary
dict. The CLI serializes these to CSV/JSON; the acceptance suite calls the
drivers directly.

The log schemas live here too, among them the jump reference that
:func:`reference_log` writes and :func:`reference_from_log` reads back bit
for bit; a log its reader cannot use raises :class:`ReplayLogError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gait, mpc, so3, terrain
from .balance import GRAVITY_W, MU, BalanceController, BodyModel, FrictionSpec
from .estimation import (ImuSample, _stance_key, kf_default_state, kf_predict, kf_update,
                         leg_measurements_batch, orientation_step)
from .mpc import MpcConfig, solve_mpc
from .sim import SensorNoise, SimWorld
from .state import DesiredState, RobotState, unchecked
from .swing import HIP_OFFSETS, SwingTrajectory
from .terrain import PlaneCoeffs
from .trajopt import (F_MAX, BodyReference, ContactPhase, JumpSpec, TimingProblem,
                      check_constraints, export_reference, solve_timing)

NOMINAL_Z = 0.45
DT = 1e-3              # s, control tick and simulator step of every scenario
# trot MPC: horizon steps and ticks between replans (the plan is also
# redone on every contact switch)
MPC_HORIZON = 10
MPC_DECIMATION = 33
_RECOVER_TIME = 1.2    # s that jump-sim runs past the end of the reference
# 1/s, rate at which the trot's CoM reference is pulled to the support polygon
_ANCHOR_RATE = 0.2

# arrays the loops hand out on every tick, read-only so that a consumer
# that writes into one raises instead of corrupting the next tick
_IDENTITY = np.eye(3)
_ZERO3 = np.zeros(3)
_NO_FORCES = np.zeros(12)
_ALL_STANCE = np.ones(4, dtype=bool)
for _a in (_IDENTITY, _ZERO3, _NO_FORCES, _ALL_STANCE):
    _a.setflags(write=False)


class ReplayLogError(ValueError):
    """A replay log or a jump reference lacks what its reader needs."""


def nominal_feet(ground: PlaneCoeffs | None = None) -> np.ndarray:
    """World foot positions under the hips on the ground surface."""
    feet = np.zeros((4, 3))
    for i in range(4):
        hip = HIP_OFFSETS[i]
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
        self.push_row(cols, cols.values())

    def push_row(self, names, values):
        """Append ``values`` to the columns ``names``, in that order."""
        rows = self.rows
        for k, v in zip(names, values):
            rows.setdefault(k, []).append(v)

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self.rows.items()}


_BODY_COLS = ([f"{c}{ax}_{u}" for ax in "xyz" for c, u in (("p", "m"), ("v", "mps"), ("w", "radps"))]
              + [f"r{r}{c}" for r in range(3) for c in range(3)])
_STATE_COLS = (["t_s"] + _BODY_COLS
               + [f"{c}{ax}_{u}" for f in range(4) for ax in "xyz"
                  for c, u in ((f"foot{f}", "m"), (f"f{f}", "N"))])
# jump_ref.csv: the body columns, the commanded forces, and on each row the
# end time of the contact phase the row's time falls in
_REFERENCE_COLS = (["t_s"] + _BODY_COLS
                   + [f"f{f}{ax}_N" for f in range(4) for ax in "xyz"] + ["phase_end_s"])


def _log_state(log: Logger, world: SimWorld, extra: dict | None = None):
    s = world.state
    # the values in _STATE_COLS order: p, v, w per axis, then per foot and
    # axis its position and force
    values = [world.t]
    for kin in zip(s.pos.tolist(), s.vel.tolist(), s.omega.tolist()):
        values += kin
    values += s.rot.ravel().tolist()
    forces = world.contact_forces.tolist()
    for f, foot in enumerate(s.feet.tolist()):
        values += (foot[0], forces[3 * f], foot[1], forces[3 * f + 1],
                   foot[2], forces[3 * f + 2])
    log.push_row(_STATE_COLS, values)
    if extra:
        log.push(**extra)


class EstimatorLoop:
    """Orientation filter + KF over one stream of IMU and encoder samples,
    on the known terrain ``ground``.

    The live scenarios feed it the simulated sensors tick by tick; the
    replay of :func:`run_estimate` feeds it a recorded log.
    """

    def __init__(self, r_hat: np.ndarray, pos: np.ndarray, feet: np.ndarray,
                 ground: PlaneCoeffs):
        self.r_hat = np.array(r_hat, dtype=float)
        self.ground = ground
        self.kf = kf_default_state(pos, feet)
        self._last_gyro = np.zeros(3)

    def step(self, imu: ImuSample, qs: np.ndarray, qds: np.ndarray, stance_mask, dt: float):
        """One estimator tick on the IMU sample and the (4, 3) encoder arrays;
        the contact heights are the ground's under the KF's own feet."""
        self._last_gyro = imu.gyro.copy()
        stance = _stance_key(stance_mask)  # the KF caches' key, formed once
        self.r_hat = r_hat = orientation_step(self.r_hat, imu, dt)
        self.kf = kf_predict(self.kf, r_hat, imu.accel, dt, stance)
        rel_pos, rel_vel = leg_measurements_batch(qs, qds, r_hat, imu.gyro)
        heights = np.array([self.ground.height(x, y) for x, y, _ in self.kf.feet.tolist()])
        self.kf = kf_update(self.kf, rel_pos, rel_vel, heights, stance)

    def estimated_state(self) -> RobotState:
        # body rate taken straight from the gyro channel
        return unchecked(RobotState, pos=self.kf.pos, vel=self.kf.vel,
                         rot=self.r_hat, omega=self._last_gyro, feet=self.kf.feet)


def hop_spec(n_knots: int = 30, z0: float = NOMINAL_Z,
             flight_min: float = 0.3, model: BodyModel | None = None) -> JumpSpec:
    """Vertical hop: push off, fly, land on the same footholds at rest."""
    model = model or BodyModel()
    feet = nominal_feet()
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
    feet = nominal_feet()
    return JumpSpec(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min)],
        p_start=[0.0, 0.0, z0], r_start=np.eye(3),
        p_goal=[0.0, 0.0, z0], r_goal=so3.rot_z(np.deg2rad(yaw_deg)),
        feet_start=feet, t_min=0.5, t_max=1.5,
        com_min=[-0.25, -0.25, 0.25], com_max=[0.25, 0.25, z0],
        sphere_radius=0.18, model=model)


# Direction of the simulated accelerometer's bias: a property of the unit,
# drawn once. The run seed moves only the white noise; the height error of
# a trot on estimates swings by almost a factor of two with the bias
# direction, which would hide any other change between two seeds.
_ACCEL_BIAS_DIR = np.random.default_rng(0).normal(size=3)
_ACCEL_BIAS_DIR /= np.linalg.norm(_ACCEL_BIAS_DIR)


def sensor_noise(accel_std: float, gyro_std: float, accel_bias_mag: float) -> SensorNoise:
    """IMU noise with an accelerometer bias of magnitude ``accel_bias_mag``
    along :data:`_ACCEL_BIAS_DIR`."""
    return SensorNoise(gyro_std=gyro_std, accel_std=accel_std,
                       accel_bias=accel_bias_mag * _ACCEL_BIAS_DIR)


# published contact timings for the 90-degree spinning jump, in units of
# 10 ms; reported in summaries for context only
SPIN90_REFERENCE_TIMINGS_10MS = (56, 31)


def run_stand(duration: float = 10.0, seed: int = 0, accel_std: float = 0.05,
              accel_bias_mag: float = 0.2, gyro_std: float = 0.005,
              controller: str = "balance", log_every: int = 10,
              model: BodyModel | None = None) -> ScenarioResult:
    """Stand with the estimator in the loop.

    ``controller`` is "balance" (force QP each step on the estimated state)
    or "hover" (exact weight distribution, useful to benchmark the
    estimator on a strictly stationary truth). The summary compares fused
    estimation errors against prediction-only dead reckoning under the same
    accelerometer bias.
    """
    t_start = time.perf_counter()
    model = model or BodyModel()
    noise = sensor_noise(accel_std, gyro_std, accel_bias_mag)
    feet = nominal_feet()
    world = SimWorld(RobotState(pos=[0.0, 0.0, NOMINAL_Z], feet=feet), model,
                     dt=DT, noise=noise, seed=seed)
    dt = world.dt
    est = EstimatorLoop(world.state.rot, world.state.pos, feet, world.ground)
    # dead-reckoning baseline: mean-only integration of the same inputs
    pred_pos, pred_vel = world.state.pos.tolist(), [0.0, 0.0, 0.0]
    balancer = BalanceController(model)
    des = DesiredState(pos=[0.0, 0.0, NOMINAL_Z])
    stance = np.ones(4, dtype=bool)

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
        qs, qds = world.synth_encoders()
        est.step(imu, qs, qds, stance, dt)
        u = (est.r_hat @ imu.accel + GRAVITY_W).tolist()
        pred_pos = [p + dt * v + 0.5 * dt * dt * ui for p, v, ui in zip(pred_pos, pred_vel, u)]
        pred_vel = [v + dt * ui for v, ui in zip(pred_vel, u)]
        if controller == "balance":
            forces = balancer.compute(est.estimated_state(), des, stance)
        else:
            forces = hover

        truth[k, 0:3], truth[k, 3:6] = world.state.pos, world.state.vel
        fused[k] = est.kf.mean[0:6]
        pred[k, 0:3], pred[k, 3:6] = pred_pos, pred_vel
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
    """Shared machinery for the trot scenarios (balance QP or MPC stance force).

    With ``use_estimates`` the controller runs on the estimator's state, fed
    by sensors with the noise of :func:`sensor_noise`; without it, on the
    true state, and the sensors are not read: nonzero noise raises ValueError.
    """

    def __init__(self, v_des=(1.0, 0.0), duration=5.0, seed=0, controller="balance",
                 preset="trot", period=0.3, z0=NOMINAL_Z, ground: PlaneCoeffs | None = None,
                 model: BodyModel | None = None, use_estimates=False,
                 adapt_posture=False, ramp_time=0.8, accel_std=0.0, gyro_std=0.0,
                 accel_bias_mag=0.0):
        if not use_estimates and (accel_std or gyro_std or accel_bias_mag):
            raise ValueError("sensor noise is read only with use_estimates")
        if not ramp_time >= 0.0:
            raise ValueError(f"ramp_time must be non-negative, got {ramp_time!r}")
        self.model = model or BodyModel()
        self.ground = ground or PlaneCoeffs()
        self.sched = gait.gait_preset(preset, period=period)
        self.v_des = np.asarray(v_des, dtype=float)
        self.ramp_time = ramp_time
        self.duration = duration
        self.z0 = z0
        self.controller_type = controller
        self.adapt_posture = adapt_posture
        feet = nominal_feet(self.ground)
        start_z = self.ground.height(0.0, 0.0) + z0
        noise = (sensor_noise(accel_std, gyro_std, accel_bias_mag)
                 if use_estimates else None)
        self.world = SimWorld(RobotState(pos=[0.0, 0.0, start_z], feet=feet), self.model,
                              dt=DT, ground=self.ground, noise=noise, seed=seed)
        self.balance = BalanceController(self.model)
        self.swing_trajs: dict[int, tuple[SwingTrajectory, float]] = {}
        self.est = (EstimatorLoop(self.world.state.rot, self.world.state.pos, feet, self.ground)
                    if use_estimates else None)
        self.recent_contacts = feet.copy()
        # ground plane through recent_contacts and the posture it asks for;
        # refit only when a touchdown writes recent_contacts
        self.plane: PlaneCoeffs | None = None
        if adapt_posture:
            self._fit_contacts()
        self._mpc_plan = np.zeros((1, 12))
        self._mpc_contact = None
        # CoM reference (x, y): integrates the commanded velocity, gently
        # anchored to the predictive support polygon (pure polygon tracking at
        # speed leaves the position term fighting the velocity command)
        self.p_ref_xy: tuple[float, float] | None = None

    def v_cmd(self, t: float) -> tuple[float, float]:
        """Commanded velocity (vx, vy) with a spin-up ramp from standstill."""
        vx, vy = self.v_des.tolist()
        if self.ramp_time <= 0.0:
            return vx, vy
        ramp = min(1.0, t / self.ramp_time)
        return vx * ramp, vy * ramp

    # -- helpers ------------------------------------------------------------
    # The per-tick helpers run on Python floats in the operation order of
    # the array formulas they stand for: numpy's per-call cost would dominate
    # on 2- and 3-vectors.

    def schedule(self, t):
        """Scheduled contact flags and subphase progress of the four legs."""
        contact, phis = zip(*[gait.subphase(t, self.sched, leg) for leg in range(4)])
        return contact, phis

    def _fit_contacts(self):
        self.plane = terrain.fit_plane(self.recent_contacts[:, 0:2], self.recent_contacts[:, 2])
        self._posture = (terrain.posture_from_plane(self.plane),
                         (self.plane.normal() * self.z0).tolist())

    def desired(self, t, state: RobotState, contact, phis) -> DesiredState | None:
        """Advance the CoM reference ``p_ref_xy`` to ``t``, given the schedule
        there, and return the balance target at ``t``; under the MPC, whose
        horizon tables read only the reference, return None."""
        weights = [gait.total_weight(c, phi) for c, phi in zip(contact, phis)]
        verts = gait.support_polygon(state.feet.tolist(), weights)
        poly_x, poly_y = gait.desired_com(verts)
        vx, vy = self.v_cmd(t)
        dt = self.world.dt
        if self.p_ref_xy is None:
            self.p_ref_xy = poly_x, poly_y
        ref_x, ref_y = self.p_ref_xy
        anchor = _ANCHOR_RATE * dt
        cx = ref_x + vx * dt + anchor * (poly_x - ref_x)
        cy = ref_y + vy * dt + anchor * (poly_y - ref_y)
        self.p_ref_xy = cx, cy
        if self.controller_type == "mpc":
            return None
        if self.adapt_posture:
            r_d, (ox, oy, oz) = self._posture
            pos_d = [cx + ox, cy + oy, self.plane.height(cx, cy) + oz]
        else:
            r_d = _IDENTITY
            pos_d = [cx, cy, self.ground.height(cx, cy) + self.z0]
        return unchecked(DesiredState, pos=np.array(pos_d), vel=np.array([vx, vy, 0.0]), rot=r_d)

    def plan_swing(self, leg, t, state: RobotState):
        hip_w = state.pos + state.rot @ HIP_OFFSETS[leg]
        # aim for the command at touchdown time (end of this swing)
        v_td = self.v_cmd(t + self.sched.swing_time())
        target_xy = gait.footstep(hip_w[0:2], self.sched.stance_time(),
                                  v_td, state.vel[0:2], self.z0)
        target = np.array([target_xy[0], target_xy[1],
                           self.ground.height(*target_xy)])
        duration = self.sched.swing_time()
        traj = SwingTrajectory(state.feet[leg].copy(), target, duration)
        self.swing_trajs[leg] = (traj, t)

    def mpc_tables(self, t, state: RobotState, contact_now):
        """Reference states, contact flags, footholds and moment-arm origins
        over the MPC horizon, (k, 12), (k, 4), (k, 4, 3) and (k, 3), given
        the scheduled contact flags at ``t``."""
        swing_now = [not c for c in contact_now]
        px, py, pz = state.pos.tolist()
        feet_now = state.feet.tolist()
        # a leg now in swing lands under its hip advanced by the command
        hips = {leg: (state.rot @ HIP_OFFSETS[leg]).tolist()
                for leg in range(4) if swing_now[leg]}
        base_x, base_y = (px, py) if self.p_ref_xy is None else self.p_ref_xy
        t_stance = self.sched.stance_time()
        sched, height, z0 = self.sched, self.ground.height, self.z0
        # flat float lists, one step after another
        x_ref, contact, feet, p_nom = [], [], [], []
        for i in range(MPC_HORIZON):
            ti = t + (i + 1) * mpc.DT
            vx, vy = self.v_cmd(ti)
            dx, dy = vx * (ti - t), vy * (ti - t)
            for leg in range(4):
                contact_leg = gait.subphase(ti, sched, leg)[0]
                contact.append(contact_leg)
                if contact_leg and swing_now[leg]:
                    hx, hy, _ = hips[leg]
                    fx, fy = gait.footstep((px + dx + hx, py + dy + hy), t_stance,
                                           (vx, vy), (vx, vy), z0)
                    feet += (fx, fy, height(fx, fy))
                else:
                    feet += feet_now[leg]
            com_x, com_y = base_x + dx, base_y + dy
            x_ref += (com_x, com_y, height(com_x, com_y) + z0,
                      0.0, 0.0, 0.0, vx, vy, 0.0, 0.0, 0.0, 0.0)
            # moment arms about the predicted body path, not the target path
            p_nom += (px + dx, py + dy, pz)
        k = MPC_HORIZON
        return (np.array(x_ref).reshape(k, 12), np.array(contact).reshape(k, 4),
                np.array(feet).reshape(k, 4, 3), np.array(p_nom).reshape(k, 3))

    def mpc_forces(self, t, state: RobotState, step_idx, contact_now):
        if contact_now != self._mpc_contact or step_idx % MPC_DECIMATION == 0:
            x_ref, contact, feet, p_nom = self.mpc_tables(t, state, contact_now)
            contact[0] = contact_now  # first step uses the realized contact set
            x0 = np.concatenate([state.pos, so3.matrix_to_rpy(state.rot),
                                 state.vel, state.rot @ state.omega])
            cfg = unchecked(MpcConfig, x_ref=x_ref, contact=contact, feet=feet,
                            p_nom=p_nom, model=self.model)
            self._mpc_plan = solve_mpc(cfg, x0, FrictionSpec())
            self._mpc_contact = contact_now
        return self._mpc_plan[0]

    # -- main loop ------------------------------------------------------------

    def run(self) -> ScenarioResult:
        t_start = time.perf_counter()
        n = int(round(self.duration / self.world.dt))
        log = Logger()
        height_err, vel_err = [], []
        # all stance before the first tick: a leg scheduled in swing at t = 0
        # plans its swing there
        contact_prev = (True,) * 4
        forces = np.zeros(12)
        speed_sum = 0.0
        for k in range(n):
            t = self.world.t
            contact, phis = self.schedule(t)
            mask = np.array(contact)
            state = self.world.state

            if self.est is not None:
                imu = self.world.synth_imu()
                qs, qds = self.world.synth_encoders()
                self.est.step(imu, qs, qds, mask, self.world.dt)
                ctrl_state = self.est.estimated_state()
            else:
                ctrl_state = state

            # liftoff events start swing trajectories; touchdowns record contacts
            touchdown = False
            for leg in range(4):
                if contact_prev[leg] and not contact[leg]:
                    self.plan_swing(leg, t, ctrl_state)
                if contact[leg] and not contact_prev[leg]:
                    self.recent_contacts[leg] = ctrl_state.feet[leg].copy()
                    touchdown = True
            contact_prev = contact
            if touchdown and self.adapt_posture:
                self._fit_contacts()

            des = self.desired(t, ctrl_state, contact, phis)
            if self.controller_type == "mpc":
                # every contact switch replans, and the plan's first step
                # takes the realized contact flags, so its swing entries are
                # already exact zeros
                forces = self.mpc_forces(t, ctrl_state, k, contact)
            else:
                forces = self.balance.compute(ctrl_state, des, mask)

            swing_targets = {}
            for leg in range(4):
                if not contact[leg]:
                    traj, t0 = self.swing_trajs[leg]
                    swing_targets[leg] = traj.sample(t + self.world.dt - t0)[0]
            self.world.step(forces, mask, swing_targets)

            px, py, pz = self.world.state.pos.tolist()
            height_err.append(pz - (self.ground.height(px, py) + self.z0))
            vel = self.world.state.vel
            e = vel[0:2] - self.v_cmd(t)
            vel_err.append(math.sqrt(e.dot(e)))  # np.linalg.norm's formula
            speed_sum += math.hypot(vel[0], vel[1])
            if k % 10 == 0:
                _log_state(log, self.world, {
                    "stance0": float(contact[0]), "stance1": float(contact[1]),
                    "stance2": float(contact[2]), "stance3": float(contact[3]),
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
        if self.adapt_posture and n > 0:
            summary["slope_fit_error_final"] = float(abs(self.plane.a1 - self.ground.a1)
                                                     + abs(self.plane.a2 - self.ground.a2))
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
    table = np.column_stack([log[c] for c in REPLAY_COLUMNS])
    n = len(table)
    t, gyro, accel = table[:, 0], table[:, 1:4], table[:, 4:7]
    qs, qds = table[:, 7:19].reshape(n, 4, 3), table[:, 19:31].reshape(n, 4, 3)
    stance = table[:, 31:35] > 0.5
    has_truth = all(f"p{ax}_m" in log for ax in "xyz")
    out = Logger()
    pos_err, vel_err = [], []
    est = None
    for k in range(n):
        dt = t[k] - t[k - 1] if k > 0 else (t[1] - t[0] if n > 1 else 1e-3)
        imu = ImuSample(gyro=gyro[k], accel=accel[k])
        if est is None:
            # footholds fixed from the first sample under the orientation
            # the first filter step gives
            r_first = orientation_step(_IDENTITY, imu, dt)
            feet0, _ = leg_measurements_batch(qs[0], qds[0], r_first, imu.gyro)
            p0 = np.array([log[f"p{ax}_m"][0] for ax in "xyz"]) if has_truth else \
                np.array([0.0, 0.0, -np.mean(feet0[:, 2])])
            est = EstimatorLoop(np.eye(3), p0, p0 + feet0, PlaneCoeffs())
        est.step(imu, qs[k], qds[k], stance[k], dt)
        kf = est.kf
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


def reference_log(ref: BodyReference) -> dict[str, np.ndarray]:
    """The ``jump_ref.csv`` columns of a body reference.

    Each phase end time is read back only if a sample falls in the phase,
    which holds for phases of at least one sample interval.
    """
    n = len(ref.t)
    kin = np.stack([ref.pos, ref.vel, ref.omega], axis=2)   # (sample, axis, p/v/w)
    phase = np.minimum(np.searchsorted(ref.phase_times, ref.t), len(ref.phase_times) - 1)
    table = np.column_stack([ref.t, kin.reshape(n, 9), ref.rot.reshape(n, 9), ref.forces,
                             ref.phase_times[phase]])
    return dict(zip(_REFERENCE_COLS, table.T))


def reference_from_log(log: dict[str, np.ndarray]) -> BodyReference:
    """The body reference a ``jump_ref.csv`` log holds, bit for bit.

    Raises :class:`ReplayLogError` when a column is missing (a file written
    without ``phase_end_s`` among them) or when it has fewer than two samples.
    """
    missing = [c for c in _REFERENCE_COLS if c not in log]
    if missing:
        raise ReplayLogError(f"jump reference missing columns: {missing[:4]}")
    table = np.column_stack([log[c] for c in _REFERENCE_COLS])
    n = len(table)
    if n < 2:
        raise ReplayLogError(f"jump reference has {n} samples, needs at least 2")
    kin = table[:, 1:10].reshape(n, 3, 3)
    return BodyReference(t=table[:, 0], pos=kin[:, :, 0], vel=kin[:, :, 1],
                         rot=table[:, 10:19].reshape(n, 3, 3), omega=kin[:, :, 2],
                         forces=table[:, 19:31], phase_times=np.unique(table[:, 31]))


def run_jump_opt(spec: JumpSpec,
                 context_timings_10ms: tuple | None = None) -> tuple[ScenarioResult, BodyReference]:
    """Solve a contact-timing problem and export the sampled body reference,
    logged as :func:`reference_log` writes it."""
    t_start = time.perf_counter()
    problem = TimingProblem(spec)
    sol = solve_timing(problem)
    report = check_constraints(spec, sol)
    ref = export_reference(sol, spec)
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
        "newton_steps": sum(entry["newton_steps"] for entry in sol.trace),
        "trace": sol.trace,
        "runtime_s": time.perf_counter() - t_start,
    }
    if context_timings_10ms is not None:
        # published reference timings for this jump family, context only
        summary["reference_timings_10ms"] = list(context_timings_10ms)
        summary["our_timings_10ms"] = [round(float(x) * 100.0, 1) for x in sol.durations]
    return ScenarioResult(summary=summary, log=reference_log(ref)), ref


def run_jump_sim(spec: JumpSpec, ref: BodyReference, z_land: float = NOMINAL_Z,
                 seed: int = 0) -> ScenarioResult:
    """Track an exported jump reference, then catch the landing.

    Stance tracking runs the Cartesian+joint reference-tracking torque law
    per leg and maps the torques back to ground reaction forces. After
    takeoff the legs hold the pre-landing pose; each leg joins the landing
    stance at the simulator's ``touched_down`` for it, and the landing force
    controller drives the stance legs to recover a stand for
    :data:`_RECOVER_TIME` seconds past the end of the reference.
    """
    from .swing import (UnreachableError, grf_from_torque, jump_track_torque, leg_ik,
                        stance_torque)

    t_start = time.perf_counter()
    model = spec.model
    world = SimWorld(RobotState(pos=spec.p_start, rot=spec.r_start,
                                feet=spec.feet_start), model, dt=DT, seed=seed)
    dt = world.dt
    lander = BalanceController(model, FrictionSpec(f_max=F_MAX))

    # takeoff = end of the first contact block
    t_takeoff = float(ref.phase_times[0])
    t_total = float(ref.t[-1])
    # pre-landing pose: legs tucked under the hips so the feet clear the
    # ground until the body has actually descended toward touchdown
    tuck_depth = 0.33
    hold_pose_body = [(x, y, -tuck_depth) for x, y, _ in (spec.feet_start - spec.p_start).tolist()]

    landing_stance = [False] * 4
    log = Logger()
    duration = t_total + _RECOVER_TIME
    n = int(round(duration / dt))
    idx_max = len(ref.t) - 1
    t_sample = float(ref.t[1] - ref.t[0])
    dt_ref = max(t_sample, 1e-9)
    ik_fallbacks = 0

    # a leg's tracking targets per reference sample, kept only when its IK
    # succeeds: a fallback is recomputed, and counted, on every tick
    targets: dict[tuple[int, int], tuple] = {}

    def leg_targets(leg, i_ref, q_meas):
        nonlocal ik_fallbacks
        i_next = min(i_ref + 1, idx_max)
        foot_w = spec.feet_start[leg]
        pf_d = ref.rot[i_ref].T @ (foot_w - ref.pos[i_ref])
        vf_d = (ref.rot[i_next].T @ (foot_w - ref.pos[i_next]) - pf_d) / dt_ref
        try:
            q_d, reached = leg_ik(pf_d, leg).tolist(), True
        except UnreachableError:
            # the reference foot left the workspace: hold the measured
            # joint angles, and count it
            q_d, reached = q_meas, False
            ik_fallbacks += 1
        tau_d = stance_torque(q_d, ref.forces[i_ref, 3 * leg:3 * leg + 3], ref.rot[i_ref], leg)
        refs = q_d, pf_d.tolist(), vf_d.tolist(), tau_d.tolist()
        if reached:
            targets[i_ref, leg] = refs
        return refs

    # goal posture for the landing recovery
    yaw_goal = so3.matrix_to_rpy(spec.r_goal)[2]
    r_land = so3.rot_z(yaw_goal)

    for k in range(n):
        t = world.t
        state = world.state
        i_ref = min(int(t / t_sample), idx_max)

        if t < t_takeoff:
            # reference tracking through the legs
            qs, qds = world.synth_encoders()
            qs, qds, rot = qs.tolist(), qds.tolist(), state.rot.tolist()
            leg_forces = []
            for leg in range(4):
                refs = targets.get((i_ref, leg)) or leg_targets(leg, i_ref, qs[leg])
                tau = jump_track_torque(qs[leg], qds[leg], *refs, leg)
                fx, fy, fz = grf_from_torque(qs[leg], tau, rot, leg).tolist()
                # the ground cannot pull or exceed the hardware force budget;
                # min(max(.)) keeps np.clip's result, signed zeros included
                fz = min(max(fz, 0.0), F_MAX)
                lo, hi = -MU * fz, MU * fz
                leg_forces += [min(max(fx, lo), hi), min(max(fy, lo), hi), fz]
            forces = np.array(leg_forces)
            stance_mask = _ALL_STANCE
            swing_targets = None
        else:
            # airborne: hold the pre-landing pose and wait for impact; once
            # landed, the lander drives the touched-down feet
            forces = _NO_FORCES
            if any(landing_stance):
                # the mean of the four feet summed as np.mean(axis=0) sums it
                (x0, y0, _), (x1, y1, _), (x2, y2, _), (x3, y3, _) = state.feet.tolist()
                des = unchecked(DesiredState, pos=np.array([(x0 + x1 + x2 + x3) / 4,
                                                            (y0 + y1 + y2 + y3) / 4, z_land]),
                                vel=_ZERO3, rot=r_land)
                # the balance QP eliminates the swing legs' forces, so their
                # entries are already exact +0.0
                forces = lander.compute(state, des, landing_stance)
            stance_mask = landing_stance
            # held feet at pos + rot @ hold, each row of the product summed
            # left to right
            pos, rot = state.pos.tolist(), state.rot.tolist()
            swing_targets = {i: tuple(p + (a * hx + b * hy + c * hz)
                                      for p, (a, b, c) in zip(pos, rot))
                             for i, (hx, hy, hz) in enumerate(hold_pose_body)
                             if not landing_stance[i]}

        world.step(forces, stance_mask, swing_targets)
        landing_stance = [a or b for a, b in zip(landing_stance, world.touched_down.tolist())]
        if k % 10 == 0:
            _log_state(log, world, {"landed": float(any(landing_stance))})

    rpy = so3.matrix_to_rpy(world.state.rot)
    orient_err = np.linalg.norm(so3.log_map(r_land @ world.state.rot.T))
    summary = {
        "scenario": "jump-sim",
        "takeoff_time_s": t_takeoff,
        "landed": any(landing_stance),
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
    plane = driver.plane
    res.summary["scenario"] = "slope"
    res.summary["slope_true"] = slope
    res.summary["slope_estimate"] = float(plane.a1)
    res.summary["pitch_desired_deg"] = float(np.rad2deg(
        so3.matrix_to_rpy(terrain.posture_from_plane(plane))[1]))
    return res
