"""Single-rigid-body quadruped simulator with kinematic point feet.

The body integrates under the applied ground reaction forces and gravity
with RK4; rotation is advanced multiplicatively with the exact exponential
of the RK4-averaged body rate, so the ground truth is strictly more
accurate than both the optimizer's Euler transcription and the estimator's
models. Feet are kinematic: stance feet stay pinned where they are, swing
feet follow the commanded targets. The measured constraint force equals the
commanded force.

Sensors are synthesized from the true state: IMU (gyro plus accelerometer
with the gravity reaction included, so a stationary upright reading is
(0, 0, g)), joint encoders via leg inverse kinematics, and a per-foot
contact force channel. When a swing foot's commanded target crosses the
ground plane, the foot is clamped to the surface and the contact channel
reports an impulse-scale spike for that step, which is what the landing
switch listens for.

Everything is deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3
from .balance import GRAVITY_W, BodyModel
from .estimation import ImuSample
from .swing import LegModel, UnreachableError, ik_angles
from .state import RobotState, unchecked
from .terrain import PlaneCoeffs

__all__ = ["SensorNoise", "SimWorld"]


def _ik_batch(p_body: np.ndarray, model: LegModel) -> np.ndarray:
    """Closed-form IK for all four legs (knee-forward branch), (4, 3)."""
    q = []
    for leg, d in enumerate((p_body - model.hip_offsets).tolist()):
        try:
            q.append(ik_angles(d, model))
        except UnreachableError as exc:
            raise UnreachableError(f"leg {leg}: {exc}") from None
    return np.array(q)


def _mv(m, v):
    """``m @ v`` for a 3x3 nested list and a 3-sequence of floats."""
    x, y, z = v
    return (m[0][0] * x + m[0][1] * y + m[0][2] * z,
            m[1][0] * x + m[1][1] * y + m[1][2] * z,
            m[2][0] * x + m[2][1] * y + m[2][2] * z)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@dataclass
class SensorNoise:
    gyro_std: float = 0.0          # rad/s
    accel_std: float = 0.0         # m/s^2
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.accel_bias = np.asarray(self.accel_bias, dtype=float).reshape(3)


class SimWorld:
    """Owns the true robot state, the ground plane, sensors, and the clock."""

    def __init__(self, state: RobotState, model: BodyModel, dt: float = 1e-3,
                 ground: PlaneCoeffs | None = None, noise: SensorNoise | None = None,
                 seed: int = 0, leg_model: LegModel | None = None):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.state = state.copy()
        self.model = model
        self.dt = float(dt)
        self.ground = ground or PlaneCoeffs()
        self.noise = noise or SensorNoise()
        self.leg_model = leg_model or LegModel()
        self.rng = np.random.default_rng(seed)
        self.t = 0.0
        self.last_accel = np.zeros(3)           # linear acceleration, world
        self.contact_forces = np.zeros(12)      # commanded forces on stance feet
        self.touched_down = np.zeros(4, dtype=bool)
        self._q_prev: np.ndarray | None = None
        self._inv_inertia = np.linalg.inv(self.model.inertia)

    # -- dynamics ----------------------------------------------------------

    def step(self, stance_forces: np.ndarray, stance_mask: np.ndarray,
             swing_targets: dict[int, np.ndarray] | None = None) -> "SimWorld":
        """Advance one step under the commanded stance forces.

        ``stance_forces`` is the stacked 12-vector of world-frame GRFs
        (must be zero for swing feet); ``swing_targets`` maps swing leg
        indices to commanded world foot positions for the end of the step.
        """
        stance_mask = np.asarray(stance_mask, dtype=bool).reshape(4)
        stance = stance_mask.tolist()
        f4 = np.asarray(stance_forces, dtype=float).reshape(4, 3)
        if not all(stance):
            for i, f in enumerate(f4.tolist()):
                if not stance[i] and any(f):
                    raise ValueError(f"nonzero force commanded on swing leg {i}")

        s = self.state
        model = self.model
        dt = self.dt
        # the rigid-body update runs on 3-vectors as float tuples: numpy's
        # per-call cost would dominate at this size

        # forces are zero-order held, so the world torque about the CoM (at
        # the step start) is constant over the step
        fx = fy = fz = tx = ty = tz = 0.0
        for f, lever in zip(f4.tolist(), (s.feet - s.pos).tolist()):
            fx, fy, fz = fx + f[0], fy + f[1], fz + f[2]
            cx, cy, cz = _cross(lever, f)
            tx, ty, tz = tx + cx, ty + cy, tz + cz
        mass = model.mass
        gx, gy, gz = GRAVITY_W.tolist()
        acc = (fx / mass + gx, fy / mass + gy, fz / mass + gz)

        inertia, inv_inertia = model.inertia.tolist(), self._inv_inertia.tolist()

        def omega_dot(tau_b, om):
            cx, cy, cz = _cross(om, _mv(inertia, om))
            return _mv(inv_inertia, (tau_b[0] - cx, tau_b[1] - cy, tau_b[2] - cz))

        def ahead(h, k):
            return (om0[0] + h * k[0], om0[1] + h * k[1], om0[2] + h * k[2])

        # RK4 on (p, v, Omega); rotation via exact exp of the averaged rate.
        # Translational part is exact for piecewise-constant force. The body
        # torque at R_half = R0 E and R_full = R0 E E is E^T (R^T tau_w) of
        # the stage before.
        om0 = s.omega.tolist()
        e_half_t = so3.exp_exact(s.omega * (dt / 2.0)).T.tolist()
        tau_0 = _mv(s.rot.T.tolist(), (tx, ty, tz))
        tau_half = _mv(e_half_t, tau_0)
        k1 = omega_dot(tau_0, om0)
        k2 = omega_dot(tau_half, ahead(0.5 * dt, k1))
        k3 = omega_dot(tau_half, ahead(0.5 * dt, k2))
        k4 = omega_dot(_mv(e_half_t, tau_half), ahead(dt, k3))

        new_pos = [p + dt * v + 0.5 * dt * dt * a
                   for p, v, a in zip(s.pos.tolist(), s.vel.tolist(), acc)]
        new_vel = [v + dt * a for v, a in zip(s.vel.tolist(), acc)]
        new_omega = [o + dt / 6.0 * (a + 2 * b + 2 * c + d)
                     for o, a, b, c, d in zip(om0, k1, k2, k3, k4)]
        new_rot = s.rot @ so3.exp_exact([0.5 * (o + n) * dt for o, n in zip(om0, new_omega)])

        s.pos, s.vel, s.omega = np.array(new_pos), np.array(new_vel), np.array(new_omega)
        s.rot = new_rot
        self.last_accel = np.array(acc)

        # feet: stance pinned, swing follow the command
        sensor = np.where(stance_mask[:, None], f4, 0.0).reshape(12)
        self.touched_down[:] = False
        for i in range(4):
            if not stance[i]:
                target = None if swing_targets is None else swing_targets.get(i)
                if target is not None:
                    prev = s.feet[i].copy()
                    s.feet[i] = np.asarray(target, dtype=float).reshape(3)
                    ground_z = self.ground.height(s.feet[i, 0], s.feet[i, 1])
                    if s.feet[i, 2] <= ground_z:
                        # touchdown: clamp to the surface, report an
                        # impulse-scale spike on the force channel
                        s.feet[i, 2] = ground_z
                        self.touched_down[i] = True
                        v_impact = abs(prev[2] - s.feet[i, 2]) / dt + abs(s.vel[2])
                        sensor[3 * i + 2] = model.mass / 4.0 * v_impact / dt

        self.contact_forces = sensor
        self.t += dt
        return self

    # -- sensors -----------------------------------------------------------

    def synth_imu(self) -> ImuSample:
        """Gyro and accelerometer in the body frame, noise per the config."""
        n = self.noise
        gyro = self.state.omega.copy()
        if n.gyro_std > 0.0:
            gyro = gyro + self.rng.normal(size=3) * n.gyro_std
        accel = self.state.rot.T @ (self.last_accel - GRAVITY_W) + n.accel_bias
        if n.accel_std > 0.0:
            accel = accel + self.rng.normal(size=3) * n.accel_std
        return unchecked(ImuSample, gyro=gyro, accel=accel)

    def synth_encoders(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint angles and rates, (4, 3) each, via leg IK of the body-frame feet.

        Velocities are backward differences of the joint angles, matching
        how encoder velocities are produced in practice. Raises
        :class:`quadstack.swing.UnreachableError` if a commanded foot left
        the workspace.
        """
        s = self.state
        p_body = (s.feet - s.pos) @ s.rot  # rows: R^T (foot - p)
        qs = _ik_batch(p_body, self.leg_model)
        if self._q_prev is None:
            qds = np.zeros((4, 3))
        else:
            qds = (qs - self._q_prev) / self.dt
        self._q_prev = qs.copy()
        return qs, qds
