"""Scenario drivers: each returns a :class:`ScenarioResult`, a time-series
log (column name -> array, names carry units) and a summary dict, which the
CLI writes to CSV/JSON and the acceptance suite reads.

The stand, the trots and the jump run in one closed loop,
:func:`_closed_loop`, which owns the simulator, the estimator, the log and
the run time; each tick senses, estimates, controls and steps. A scenario
supplies the policy: the balance QP for the stand, :class:`TrotDriver` for
the trots, the stance tracker plus the lander for the jump.

The log schemas live here too, among them the jump reference that
:func:`reference_log` writes and :func:`reference_from_log` reads back bit
for bit; a log its reader cannot use raises :class:`ReplayLogError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gait, mpc, so3, swing, terrain
from .balance import GRAVITY_W, MU, BalanceController, BodyModel, FrictionSpec
from .estimation import (ImuSample, _stance_key, kf_default_state, kf_predict, kf_update,
                         leg_measurements_batch, orientation_step)
from .mpc import MpcConfig, solve_mpc
from .sim import SensorNoise, SimWorld
from .state import DesiredState, RobotState, unchecked
from .swing import HIP_OFFSETS, SwingTrajectory, UnreachableError
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
# a jump has landed when a leg touched down and its final pose is within
# these bounds of the goal: orientation error and CoM height error
LANDED_ORIENT_DEG = 5.0
LANDED_HEIGHT_M = 0.03
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
    feet = HIP_OFFSETS.copy()
    if ground is not None:
        feet[:, 2] = [ground.height(x, y) for x, y, _ in feet.tolist()]
    return feet


def _rms(a) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


@dataclass
class ScenarioResult:
    summary: dict
    log: dict[str, np.ndarray] = field(default_factory=dict)


def _append(log: dict[str, list], names, values):
    """Append ``values`` to the columns ``names`` of ``log``, in that order."""
    for name, v in zip(names, values):
        log.setdefault(name, []).append(v)


_BODY_COLS = ([f"{c}{ax}_{u}" for ax in "xyz" for c, u in (("p", "m"), ("v", "mps"), ("w", "radps"))]
              + [f"r{r}{c}" for r in range(3) for c in range(3)])
_STATE_COLS = (["t_s"] + _BODY_COLS
               + [f"{c}{ax}_{u}" for f in range(4) for ax in "xyz"
                  for c, u in ((f"foot{f}", "m"), (f"f{f}", "N"))])
# jump_ref.csv: the body columns, the commanded forces, and on each row the
# end time of the contact phase the row's time falls in
_REFERENCE_COLS = (["t_s"] + _BODY_COLS
                   + [f"f{f}{ax}_N" for f in range(4) for ax in "xyz"] + ["phase_end_s"])
# the stand's own columns: the estimate, the IMU sample, and per leg its
# stance flag and encoder angles and rates
_STAND_COLS = [f"{c}_{ax}_{u}" for c, u in (("phat", "m"), ("vhat", "mps"), ("gyro", "radps"),
                                            ("accel", "mps2")) for ax in "xyz"]
for _leg in range(4):
    _STAND_COLS += [f"stance{_leg}"] + [f"{c}{_leg}{j}_{u}" for j in range(3)
                                        for c, u in (("q", "rad"), ("qd", "radps"))]


def _log_state(log: dict[str, list], world: SimWorld, names, values):
    """Log the world's time and state, then ``values`` in the columns ``names``."""
    s = world.state
    # the row in _STATE_COLS order: p, v, w per axis, then per foot and
    # axis its position and force
    row = [world.t]
    for kin in zip(s.pos.tolist(), s.vel.tolist(), s.omega.tolist()):
        row += kin
    row += s.rot.ravel().tolist()
    forces = world.contact_forces.tolist()
    for f, foot in enumerate(s.feet.tolist()):
        row += (foot[0], forces[3 * f], foot[1], forces[3 * f + 1],
                foot[2], forces[3 * f + 2])
    _append(log, _STATE_COLS, row)
    _append(log, names, values)


class EstimatorLoop:
    """Orientation filter + KF over one stream of IMU and encoder samples on
    the known terrain ``ground``: the simulated sensors, tick by tick, or a
    recorded log in the replay of :func:`run_estimate`."""

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


def _closed_loop(policy, start: RobotState, model: BodyModel, *, ground: PlaneCoeffs | None,
                 noise: SensorNoise | None, duration: float, log_every: int,
                 log_before_step: bool) -> ScenarioResult:
    """Run ``policy`` on the simulated robot from ``start`` for ``duration``.

    Tick ``k``, at time ``t``, senses, estimates, controls and steps:
    ``policy.stance(t)`` gives the stance mask; with ``noise`` the sensor
    ``sample`` (imu, qs, qds) feeds the estimator, without it no sensor is
    read and the policy sees the true state; ``policy.control(k, t, state,
    sample, world)`` gives the forces and swing targets; the simulator steps
    once, and raises ``sim.BreachError`` on a step that leaves its model.
    ``policy.record(world)`` gives the tick's values of ``policy.COLUMNS``,
    logged with the state every ``log_every`` ticks: after the step, or with
    ``log_before_step`` before it, so that the row holds the state the
    sensors read.
    """
    t_start = time.perf_counter()
    world = SimWorld(start, model, dt=DT, ground=ground, noise=noise)
    est = (None if noise is None else
           EstimatorLoop(world.state.rot, world.state.pos, world.state.feet, world.ground))
    log = {}

    def record(k):
        values = policy.record(world)
        if k % log_every == 0:
            _log_state(log, world, policy.COLUMNS, values)

    state, sample = world.state, None
    for k in range(int(round(duration / DT))):
        t = world.t
        mask = policy.stance(t)
        if est is not None:
            imu = world.synth_imu()
            qs, qds = world.synth_encoders()
            est.step(imu, qs, qds, mask, DT)
            state, sample = est.estimated_state(), (imu, qs, qds)
        forces, swing_targets = policy.control(k, t, state, sample, world)
        if log_before_step:
            record(k)
        world.step(forces, mask, swing_targets)
        if not log_before_step:
            record(k)
    summary = policy.summary(world)
    summary["runtime_s"] = time.perf_counter() - t_start
    return ScenarioResult(summary=summary, log={k: np.asarray(v) for k, v in log.items()})


def hop_spec(n_knots: int = 30, z0: float = NOMINAL_Z,
             flight_min: float = 0.3, model: BodyModel | None = None) -> JumpSpec:
    """Vertical hop: push off, fly, land on the same footholds at rest."""
    return JumpSpec(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min),
                ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots)],
        p_start=[0.0, 0.0, z0], r_start=np.eye(3),
        p_goal=[0.0, 0.0, z0], r_goal=np.eye(3),
        v_goal=np.zeros(3), omega_goal=np.zeros(3),
        feet_start=nominal_feet(), t_min=0.5, t_max=1.8,
        com_min=[-0.2, -0.2, 0.25], com_max=[0.2, 0.2, z0], model=model or BodyModel())


def spin_spec(yaw_deg: float = 90.0, n_knots: int = 30, z0: float = NOMINAL_Z,
              flight_min: float = 0.25, model: BodyModel | None = None) -> JumpSpec:
    """Spinning jump: four-leg contact then flight, landing rotated in place."""
    return JumpSpec(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min)],
        p_start=[0.0, 0.0, z0], r_start=np.eye(3),
        p_goal=[0.0, 0.0, z0], r_goal=so3.rot_z(np.deg2rad(yaw_deg)),
        feet_start=nominal_feet(), t_min=0.5, t_max=1.5,
        com_min=[-0.25, -0.25, 0.25], com_max=[0.25, 0.25, z0],
        sphere_radius=0.18, model=model or BodyModel())


# Direction of the simulated accelerometer's bias: a property of the unit,
# drawn once. The noise seed moves only the white noise; the height error of
# a trot on estimates swings by almost a factor of two with the bias
# direction, which would hide any other change between two seeds.
_ACCEL_BIAS_DIR = np.random.default_rng(0).normal(size=3)
_ACCEL_BIAS_DIR /= np.linalg.norm(_ACCEL_BIAS_DIR)


def sensor_noise(accel_std: float, gyro_std: float, accel_bias_mag: float,
                 seed: int) -> SensorNoise:
    """IMU noise with an accelerometer bias of magnitude ``accel_bias_mag``
    along :data:`_ACCEL_BIAS_DIR`, its white noise drawn from ``seed``."""
    return SensorNoise(gyro_std=gyro_std, accel_std=accel_std,
                       accel_bias=accel_bias_mag * _ACCEL_BIAS_DIR, seed=seed)


# published contact timings for the 90-degree spinning jump, in units of
# 10 ms; reported in summaries for context only
SPIN90_REFERENCE_TIMINGS_10MS = (56, 31)


class _StandPolicy:
    """The balance QP on the estimate. Records the truth, the estimate and
    the dead reckoning (mean-only integration) of the same IMU, [pos, vel]
    per tick."""

    COLUMNS = _STAND_COLS

    def __init__(self, model: BodyModel, duration: float):
        self.duration = duration
        self.balancer = BalanceController(model)
        self.des = DesiredState(pos=[0.0, 0.0, NOMINAL_Z])
        self.pred_pos, self.pred_vel = [0.0, 0.0, NOMINAL_Z], [0.0, 0.0, 0.0]
        self.truth, self.fused, self.pred = [], [], []

    def stance(self, t):
        return _ALL_STANCE

    def control(self, k, t, state, sample, world):
        self._tick = state, sample
        return self.balancer.compute(state, self.des, _ALL_STANCE), None

    def record(self, world):
        state, (imu, qs, qds) = self._tick
        u = (state.rot @ imu.accel + GRAVITY_W).tolist()
        self.pred_pos = [p + DT * v + 0.5 * DT * DT * ui
                         for p, v, ui in zip(self.pred_pos, self.pred_vel, u)]
        self.pred_vel = [v + DT * ui for v, ui in zip(self.pred_vel, u)]
        self.pred.append(self.pred_pos + self.pred_vel)
        self.truth.append(world.state.pos.tolist() + world.state.vel.tolist())
        self.fused.append(state.pos.tolist() + state.vel.tolist())
        values = self.fused[-1] + imu.gyro.tolist() + imu.accel.tolist()
        for q, qd in zip(qs.tolist(), qds.tolist()):
            values += (1.0, q[0], qd[0], q[1], qd[1], q[2], qd[2])
        return values

    def summary(self, world):
        truth = np.array(self.truth)

        def rmse(rows, cols):
            # RMS over ticks of the Euclidean error norm
            err = np.array(rows)[:, cols] - truth[:, cols]
            return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))

        pos, vel = slice(0, 3), slice(3, 6)
        return {
            "scenario": "stand",
            "duration_s": self.duration,
            "height_error_final_m": abs(world.state.pos[2] - NOMINAL_Z),
            "pos_rmse_m": rmse(self.fused, pos),
            "vel_rmse_mps": rmse(self.fused, vel),
            "pred_only_pos_rmse_m": rmse(self.pred, pos),
            "pred_only_vel_rmse_mps": rmse(self.pred, vel),
        }


def run_stand(*, noise: SensorNoise, duration: float = 10.0, log_every: int = 10,
              model: BodyModel | None = None) -> ScenarioResult:
    """Stand with the estimator in the loop, on sensors with ``noise``.

    The balance QP runs each tick on the estimated state. The summary
    compares fused estimation errors against prediction-only dead reckoning
    under the same accelerometer bias. A log row holds the state at a tick's
    sensing instant, that tick's sensor sample and the estimate from it.
    """
    model = model or BodyModel()
    return _closed_loop(_StandPolicy(model, duration),
                        RobotState(pos=[0.0, 0.0, NOMINAL_Z], feet=nominal_feet()), model,
                        ground=None, noise=noise, duration=duration, log_every=log_every,
                        log_before_step=True)


class TrotDriver:
    """The trot policy (balance QP or MPC stance force) and its run.

    With ``noise`` the controller runs on the estimator's state, fed by
    sensors with that noise; with None, on the true state, and the sensors
    are not read. With a ``slope`` grade the ground is the plane z = slope x
    and the posture follows the plane fitted to the footholds; with None
    the ground is flat and the posture level.
    """

    def __init__(self, *, noise: SensorNoise | None, v_des=(1.0, 0.0), duration=5.0,
                 controller="balance", preset="trot", period=0.3, z0=NOMINAL_Z,
                 slope: float | None = None, model: BodyModel | None = None, ramp_time=0.8):
        if not ramp_time >= 0.0:
            raise ValueError(f"ramp_time must be non-negative, got {ramp_time!r}")
        self.model = model or BodyModel()
        self.ground = PlaneCoeffs() if slope is None else PlaneCoeffs(0.0, slope, 0.0)
        self.sched = gait.gait_preset(preset, period=period)
        self.v_des = np.asarray(v_des, dtype=float)
        self.ramp_time, self.duration, self.z0 = ramp_time, duration, z0
        self.controller_type, self.noise = controller, noise
        feet = nominal_feet(self.ground)
        self.start = RobotState(pos=[0.0, 0.0, self.ground.height(0.0, 0.0) + z0], feet=feet)
        self.balance = BalanceController(self.model)
        self.swing_trajs: dict[int, tuple[SwingTrajectory, float]] = {}
        self.recent_contacts = feet.copy()
        # on a slope, the ground plane through recent_contacts and the
        # posture it asks for; refit only when a touchdown writes
        # recent_contacts. None on flat ground
        self.plane: PlaneCoeffs | None = None
        if slope is not None:
            self._fit_contacts()
        self._mpc_contact = None  # the first tick plans
        # CoM reference (x, y): integrates the commanded velocity, gently
        # anchored to the predictive support polygon (pure polygon tracking at
        # speed leaves the position term fighting the velocity command)
        self.p_ref_xy: tuple[float, float] | None = None
        # the tick's contact flags (see stance): all stance before the first
        # tick, so a leg scheduled in swing at t = 0 plans its swing there
        self._contact = (True,) * 4
        self._height_err, self._vel_err, self._speed_sum = [], [], 0.0

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
        return tuple(zip(*[gait.subphase(t, self.sched, leg) for leg in range(4)]))

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
        if self.p_ref_xy is None:
            self.p_ref_xy = poly_x, poly_y
        ref_x, ref_y = self.p_ref_xy
        anchor = _ANCHOR_RATE * DT
        cx = ref_x + vx * DT + anchor * (poly_x - ref_x)
        cy = ref_y + vy * DT + anchor * (poly_y - ref_y)
        self.p_ref_xy = cx, cy
        if self.controller_type == "mpc":
            return None
        if self.plane is not None:
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
        target = np.array([*target_xy, self.ground.height(*target_xy)])
        traj = SwingTrajectory(state.feet[leg].copy(), target, self.sched.swing_time())
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

    # -- the policy of the closed loop ----------------------------------------
    COLUMNS = ("stance0", "stance1", "stance2", "stance3")

    def stance(self, t):
        """The scheduled stance mask at ``t``; keeps the tick's schedule."""
        self._t, self._contact_prev = t, self._contact
        self._contact, self._phis = self.schedule(t)
        self._mask = np.array(self._contact)
        return self._mask

    def control(self, k, t, state, sample, world):
        contact, contact_prev = self._contact, self._contact_prev
        # liftoff events start swing trajectories, which give the swing legs'
        # targets for the end of the tick; touchdowns record contacts
        touchdown, swing_targets = False, {}
        for leg in range(4):
            if contact_prev[leg] and not contact[leg]:
                self.plan_swing(leg, t, state)
            if contact[leg] and not contact_prev[leg]:
                self.recent_contacts[leg] = state.feet[leg].copy()
                touchdown = True
            if not contact[leg]:
                traj, t0 = self.swing_trajs[leg]
                swing_targets[leg] = traj.sample(t + DT - t0)
        if touchdown and self.plane is not None:
            self._fit_contacts()

        des = self.desired(t, state, contact, self._phis)
        if self.controller_type == "mpc":
            # every contact switch replans, and the plan's first step takes the
            # realized contact flags, so its swing entries are exact zeros
            return self.mpc_forces(t, state, k, contact), swing_targets
        return self.balance.compute(state, des, self._mask), swing_targets

    def record(self, world):
        px, py, pz = world.state.pos.tolist()
        self._height_err.append(pz - (self.ground.height(px, py) + self.z0))
        vel = world.state.vel
        e = vel[0:2] - self.v_cmd(self._t)
        self._vel_err.append(math.sqrt(e.dot(e)))  # np.linalg.norm's formula
        self._speed_sum += math.hypot(vel[0], vel[1])
        return list(map(float, self._contact))

    def summary(self, world):
        n = len(self._height_err)
        summary = {
            "scenario": f"trot/{self.controller_type}",
            "duration_s": self.duration,
            "v_command_mps": float(np.linalg.norm(self.v_des)),
            "height_rms_m": _rms(self._height_err),
            "vel_rmse_mps": _rms(self._vel_err),
            "mean_speed_mps": self._speed_sum / max(n, 1),
        }
        if self.plane is not None:
            # the slope: the plane fitted to the footholds and its posture
            plane = self.plane
            summary.update(scenario="slope", slope_true=self.ground.a1,
                           slope_estimate=float(plane.a1), pitch_desired_deg=float(
                               np.rad2deg(so3.matrix_to_rpy(self._posture[0])[1])))
            if n > 0:
                summary["slope_fit_error_final"] = float(abs(plane.a1 - self.ground.a1)
                                                         + abs(plane.a2 - self.ground.a2))
        return summary

    def run(self) -> ScenarioResult:
        return _closed_loop(self, self.start, self.model, ground=self.ground, noise=self.noise,
                            duration=self.duration, log_every=10, log_before_step=False)


def run_trot(*, noise: SensorNoise | None, **kw) -> ScenarioResult:
    """Run :class:`TrotDriver` with ``noise`` and the keywords ``kw``."""
    return TrotDriver(noise=noise, **kw).run()


REPLAY_COLUMNS = (
    ["t_s"]
    + [f"gyro_{ax}_radps" for ax in "xyz"]
    + [f"accel_{ax}_mps2" for ax in "xyz"]
    + [f"q{leg}{j}_rad" for leg in range(4) for j in range(3)]
    + [f"qd{leg}{j}_radps" for leg in range(4) for j in range(3)]
    + [f"stance{leg}" for leg in range(4)]
)
# the replay's log: per sample its time and the estimated position and velocity
_ESTIMATE_COLS = ["t_s"] + [f"{c}_{ax}_{u}" for ax in "xyz"
                           for c, u in (("phat", "m"), ("vhat", "mps"))]


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
    if has_truth:
        truth = np.column_stack([log[f"{c}{ax}_{u}"] for c, u in (("p", "m"), ("v", "mps"))
                                 for ax in "xyz"])
    out = {}
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
            p0 = truth[0, 0:3] if has_truth else np.array([0.0, 0.0, -np.mean(feet0[:, 2])])
            est = EstimatorLoop(np.eye(3), p0, p0 + feet0, PlaneCoeffs())
        est.step(imu, qs[k], qds[k], stance[k], dt)
        kf = est.kf
        (px, py, pz), (vx, vy, vz) = kf.pos.tolist(), kf.vel.tolist()
        _append(out, _ESTIMATE_COLS, (t[k], px, vx, py, vy, pz, vz))
        if has_truth:
            pos_err.append(np.linalg.norm(kf.pos - truth[k, 0:3]))
            vel_err.append(np.linalg.norm(kf.vel - truth[k, 3:6]))
    summary = {"scenario": "estimate", "samples": n,
               "runtime_s": time.perf_counter() - t_start}
    if has_truth:
        summary["pos_rmse_m"], summary["vel_rmse_mps"] = _rms(pos_err), _rms(vel_err)
    return ScenarioResult(summary=summary, log={k: np.asarray(v) for k, v in out.items()})


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


def run_jump_opt(spec: JumpSpec, context_timings_10ms: tuple | None = None) -> ScenarioResult:
    """Solve a contact-timing problem and export the sampled body reference,
    logged as :func:`reference_log` writes it; :func:`reference_from_log`
    reads it back."""
    t_start = time.perf_counter()
    sol = solve_timing(TimingProblem(spec))
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
    return ScenarioResult(summary=summary, log=reference_log(ref))


class _JumpPolicy:
    """The stance tracker until takeoff, then the lander (see :func:`run_jump_sim`)."""

    COLUMNS = ("landed",)

    def __init__(self, spec: JumpSpec, ref: BodyReference):
        self.spec, self.ref = spec, ref
        self.z_land = float(spec.p_goal[2])  # the goal's height, the lander's target
        self.lander = BalanceController(spec.model, FrictionSpec(f_max=F_MAX))
        # takeoff = end of the first contact block
        self.t_takeoff = float(ref.phase_times[0])
        # pre-landing pose: legs tucked 0.33 m under the hips so the feet clear
        # the ground until the body has actually descended toward touchdown
        self.hold_pose_body = [(x, y, -0.33)
                               for x, y, _ in (spec.feet_start - spec.p_start).tolist()]
        self.landing_stance, self.ik_fallbacks = [False] * 4, 0
        self.idx_max, self.t_sample = len(ref.t) - 1, float(ref.t[1] - ref.t[0])
        self.dt_ref = max(self.t_sample, 1e-9)
        # a leg's tracking targets per reference sample, kept only when its IK
        # succeeds: a fallback is recomputed, and counted, on every tick
        self.targets: dict[tuple[int, int], tuple] = {}
        # goal posture for the landing recovery
        self.r_land = so3.rot_z(so3.matrix_to_rpy(spec.r_goal)[2])

    def leg_targets(self, leg, i_ref, q_meas):
        ref = self.ref
        i_next = min(i_ref + 1, self.idx_max)
        foot_w = self.spec.feet_start[leg]
        pf_d = ref.rot[i_ref].T @ (foot_w - ref.pos[i_ref])
        vf_d = (ref.rot[i_next].T @ (foot_w - ref.pos[i_next]) - pf_d) / self.dt_ref
        try:
            q_d, reached = swing.leg_ik(pf_d, leg).tolist(), True
        except UnreachableError:
            # the reference foot left the workspace: hold the measured
            # joint angles, and count it
            q_d, reached = q_meas, False
            self.ik_fallbacks += 1
        tau_d = swing.stance_torque(q_d, ref.forces[i_ref, 3 * leg:3 * leg + 3],
                                    ref.rot[i_ref], leg)
        refs = q_d, pf_d.tolist(), vf_d.tolist(), tau_d.tolist()
        if reached:
            self.targets[i_ref, leg] = refs
        return refs

    def stance(self, t):
        return _ALL_STANCE if t < self.t_takeoff else self.landing_stance

    def control(self, k, t, state, sample, world):
        if t < self.t_takeoff:
            # reference tracking through the legs, on the encoders
            i_ref = min(int(t / self.t_sample), self.idx_max)
            qs, qds = world.synth_encoders()
            qs, qds, rot = qs.tolist(), qds.tolist(), state.rot.tolist()
            leg_forces = []
            for leg in range(4):
                refs = self.targets.get((i_ref, leg)) or self.leg_targets(leg, i_ref, qs[leg])
                tau = swing.jump_track_torque(qs[leg], qds[leg], *refs, leg)
                fx, fy, fz = swing.grf_from_torque(qs[leg], tau, rot, leg).tolist()
                # the ground cannot pull or exceed the hardware force budget;
                # min(max(.)) keeps np.clip's result, signed zeros included
                fz = min(max(fz, 0.0), F_MAX)
                lo, hi = -MU * fz, MU * fz
                leg_forces += [min(max(fx, lo), hi), min(max(fy, lo), hi), fz]
            return np.array(leg_forces), None

        # airborne: hold the pre-landing pose and wait for impact; once
        # landed, the lander drives the touched-down feet
        forces = _NO_FORCES
        landing_stance = self.landing_stance
        if any(landing_stance):
            # the mean of the four feet summed as np.mean(axis=0) sums it
            (x0, y0, _), (x1, y1, _), (x2, y2, _), (x3, y3, _) = state.feet.tolist()
            des = unchecked(DesiredState, pos=np.array([(x0 + x1 + x2 + x3) / 4,
                                                        (y0 + y1 + y2 + y3) / 4, self.z_land]),
                            vel=_ZERO3, rot=self.r_land)
            # the balance QP eliminates the swing legs' forces, so their
            # entries are already exact +0.0
            forces = self.lander.compute(state, des, landing_stance)
        # held feet at pos + rot @ hold, each row of the product summed
        # left to right
        pos, rot = state.pos.tolist(), state.rot.tolist()
        swing_targets = {i: tuple(p + (a * hx + b * hy + c * hz)
                                  for p, (a, b, c) in zip(pos, rot))
                         for i, (hx, hy, hz) in enumerate(self.hold_pose_body)
                         if not landing_stance[i]}
        return forces, swing_targets

    def record(self, world):
        self.landing_stance = [a or b for a, b in zip(self.landing_stance,
                                                      world.touched_down.tolist())]
        return (float(any(self.landing_stance)),)

    def summary(self, world):
        s = world.state
        orient_err = float(np.rad2deg(np.linalg.norm(so3.log_map(self.r_land @ s.rot.T))))
        height_err = float(abs(s.pos[2] - self.z_land))
        return {
            "scenario": "jump-sim",
            "takeoff_time_s": self.t_takeoff,
            # touched down, and came to rest at the goal's height and yaw
            "landed": (any(self.landing_stance) and orient_err <= LANDED_ORIENT_DEG
                       and height_err <= LANDED_HEIGHT_M),
            "final_orientation_error_deg": orient_err,
            "final_height_error_m": height_err,
            "final_speed_mps": float(np.linalg.norm(s.vel)),
            "final_rate_radps": float(np.linalg.norm(s.omega)),
            "ik_fallbacks": self.ik_fallbacks,
        }


def run_jump_sim(spec: JumpSpec, ref: BodyReference) -> ScenarioResult:
    """Track an exported jump reference, then catch the landing.

    Stance tracking runs the Cartesian+joint reference-tracking torque law
    per leg and maps the torques back to ground reaction forces. After
    takeoff the legs hold the pre-landing pose; each leg joins the landing
    stance at the simulator's ``touched_down`` for it, and the lander drives
    the stance legs to a stand at the goal's height and yaw for
    :data:`_RECOVER_TIME` s past the reference. The log's ``landed`` reads 1
    once a leg has touched down; the summary's also needs the final pose
    within :data:`LANDED_ORIENT_DEG` and :data:`LANDED_HEIGHT_M` of the goal.
    """
    return _closed_loop(_JumpPolicy(spec, ref),
                        RobotState(pos=spec.p_start, rot=spec.r_start, feet=spec.feet_start),
                        spec.model, ground=None, noise=None,
                        duration=float(ref.t[-1]) + _RECOVER_TIME, log_every=10,
                        log_before_step=False)


def run_slope(*, noise: SensorNoise | None, duration=4.0, slope=0.17, v_des=(0.3, 0.0),
              **kw) -> ScenarioResult:
    """Trot up a planar slope with terrain fitting and posture adjustment."""
    return TrotDriver(noise=noise, v_des=v_des, duration=duration, slope=slope, **kw).run()
