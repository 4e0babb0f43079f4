"""Single-rigid-body quadruped simulator with kinematic point feet.

The body integrates under the applied ground reaction forces and gravity
with RK4; rotation is advanced multiplicatively with the exact exponential
of the RK4-averaged body rate, so the ground truth is strictly more
accurate than both the optimizer's Euler transcription and the estimator's
models. Feet are kinematic: stance feet stay pinned where they are, swing
feet follow the commanded targets. The measured constraint force equals the
commanded force. A non-finite commanded force or swing target raises
``ValueError`` before the state moves, and so does a step whose new body
rate, velocity or position is non-finite (a diverged run). The model holds
only while every stance foot lies within its leg's reach of its hip and the
body's CoM lies above the ground: a step that ends where it does not stores
its state and then raises :class:`BreachError`.

Sensors are synthesized from the true state: IMU (gyro plus accelerometer
with the gravity reaction included, so a stationary upright reading is
(0, 0, g)), joint encoders via leg inverse kinematics, and a per-foot
contact force channel that reads the commanded force (+0.0 on swing legs).
A swing target at or below the ground is clamped to the surface.
``touched_down`` reports each swing's touchdown once: on the first target at
or below the ground after one above it, or else at the leg's switch to
stance. A swing whose targets never rise above the ground reports none.

Everything is deterministic for a fixed noise seed and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .balance import _GRAVITY_XYZ, GRAVITY_W, BodyModel
from .estimation import ImuSample
from .swing import _HIPS, HIP_OFFSETS, L1, L2, UnreachableError, _floats, ik_angles
from .state import RobotState, unchecked
from .terrain import PlaneCoeffs

__all__ = ["BreachError", "SensorNoise", "SimWorld"]

_REACH = L1 + L2   # m, hip to foot of a straight leg


class BreachError(RuntimeError):
    """The state left what the simulator models: a stance foot beyond its
    leg's reach, or the body's CoM under the ground."""


def _ik_batch(p_body: np.ndarray) -> np.ndarray:
    """Closed-form IK for all four legs (knee-forward branch), (4, 3)."""
    q = []
    for leg, d in enumerate((p_body - HIP_OFFSETS).tolist()):
        try:
            q.append(ik_angles(d))
        except UnreachableError as exc:
            raise UnreachableError(f"leg {leg}: {exc}") from None
    return np.array(q)


@dataclass
class SensorNoise:
    gyro_std: float = 0.0          # rad/s
    accel_std: float = 0.0         # m/s^2
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    seed: int = 0                  # of the generator that draws the white noise

    def __post_init__(self):
        # a negative std would read as no noise at all in synth_imu
        for name in ("gyro_std", "accel_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        self.accel_bias = np.asarray(self.accel_bias, dtype=float).reshape(3)


class SimWorld:
    """Owns the true robot state, the ground plane, sensors, and the clock."""

    def __init__(self, state: RobotState, model: BodyModel, dt: float = 1e-3,
                 ground: PlaneCoeffs | None = None, noise: SensorNoise | None = None):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.state = state.copy()
        self.model = model
        self.dt = float(dt)
        self.ground = ground or PlaneCoeffs()
        self.noise = noise or SensorNoise()
        self.rng = np.random.default_rng(self.noise.seed)
        self.t = 0.0
        self.last_accel = np.zeros(3)           # linear acceleration, world
        self.contact_forces = np.zeros(12)      # commanded forces on stance feet
        self.touched_down = np.zeros(4, dtype=bool)
        # per leg: a target of this swing was above the ground, and this
        # swing has reported its touchdown
        self.airborne = [False] * 4
        self.landed = [False] * 4
        # the last encoder sample, (t, angles, rates)
        self._encoders: tuple[float, np.ndarray, np.ndarray] | None = None
        # the body constants of the step, as rows of floats
        self._inertia = tuple(map(tuple, self.model.inertia.tolist()))
        self._inv_inertia = tuple(map(tuple, np.linalg.inv(self.model.inertia).tolist()))

    # -- dynamics ----------------------------------------------------------

    def step(self, stance_forces: np.ndarray, stance_mask: np.ndarray,
             swing_targets: dict[int, np.ndarray] | None = None) -> None:
        """Advance one step under the commanded stance forces.

        ``stance_forces`` is the stacked 12-vector of world-frame GRFs
        (must be zero for swing feet); ``swing_targets`` maps swing leg
        indices to commanded world foot positions for the end of the step.
        A non-finite force or target, or a non-finite new body rate,
        velocity or position, raises ``ValueError`` before the state moves.
        A step that ends with the body's CoM below the ground under it, or
        with a stance foot farther than ``L1 + L2`` from its hip, pos +
        R HIP_OFFSETS[leg], stores its state and advances ``t``, then
        raises :class:`BreachError`.
        """
        stance = np.asarray(stance_mask, dtype=bool).reshape(4).tolist()
        f = np.asarray(stance_forces, dtype=float).reshape(12).tolist()
        if not all(map(math.isfinite, f)):
            raise ValueError("non-finite stance force commanded")
        targets = []  # (leg, x, y, z) of the swing legs that have a target
        if not all(stance):
            for i in range(4):
                if stance[i]:
                    continue
                if f[3 * i] or f[3 * i + 1] or f[3 * i + 2]:
                    raise ValueError(f"nonzero force commanded on swing leg {i}")
                target = None if swing_targets is None else swing_targets.get(i)
                if target is not None:
                    x, y, z = _floats(target)
                    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                        raise ValueError(f"non-finite target commanded for swing leg {i}")
                    targets.append((i, x, y, z))

        s = self.state
        dt = self.dt
        # the rigid-body update runs on Python floats, in the operation order
        # of the 3-vector formulas it stands for: numpy's per-call cost would
        # dominate at this size
        (px, py, pz), (vx, vy, vz) = s.pos.tolist(), s.vel.tolist()
        o0, o1, o2 = s.omega.tolist()
        feet = s.feet.tolist()

        # forces are zero-order held, so the world torque about the CoM (at
        # the step start) is constant over the step: sum of lever x force
        fx = fy = fz = tx = ty = tz = 0.0
        for i in range(4):
            x, y, z = feet[i]
            lx, ly, lz = x - px, y - py, z - pz
            cx, cy, cz = f[3 * i:3 * i + 3]
            fx, fy, fz = fx + cx, fy + cy, fz + cz
            tx, ty, tz = (tx + (ly * cz - lz * cy), ty + (lz * cx - lx * cz),
                          tz + (lx * cy - ly * cx))
        mass = self.model.mass
        gx, gy, gz = _GRAVITY_XYZ
        ax, ay, az = fx / mass + gx, fy / mass + gy, fz / mass + gz

        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = self._inertia
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self._inv_inertia

        def omega_dot(t0, t1, t2, w0, w1, w2):
            # I^-1 (tau_b - w x I w)
            l0 = i00 * w0 + i01 * w1 + i02 * w2
            l1 = i10 * w0 + i11 * w1 + i12 * w2
            l2 = i20 * w0 + i21 * w1 + i22 * w2
            u0 = t0 - (w1 * l2 - w2 * l1)
            u1 = t1 - (w2 * l0 - w0 * l2)
            u2 = t2 - (w0 * l1 - w1 * l0)
            return (j00 * u0 + j01 * u1 + j02 * u2,
                    j10 * u0 + j11 * u1 + j12 * u2,
                    j20 * u0 + j21 * u1 + j22 * u2)

        # RK4 on (p, v, Omega); rotation via exact exp of the averaged rate.
        # Translational part is exact for piecewise-constant force. The body
        # torque at R_half = R0 E and R_full = R0 E E is E^T (R^T tau_w) of
        # the stage before.
        h = 0.5 * dt
        e00, e01, e02, e10, e11, e12, e20, e21, e22 = so3._rodrigues(o0 * h, o1 * h, o2 * h)
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = s.rot.tolist()
        a0 = r00 * tx + r10 * ty + r20 * tz
        a1 = r01 * tx + r11 * ty + r21 * tz
        a2 = r02 * tx + r12 * ty + r22 * tz
        b0 = e00 * a0 + e10 * a1 + e20 * a2
        b1 = e01 * a0 + e11 * a1 + e21 * a2
        b2 = e02 * a0 + e12 * a1 + e22 * a2
        k1 = omega_dot(a0, a1, a2, o0, o1, o2)
        k2 = omega_dot(b0, b1, b2, o0 + h * k1[0], o1 + h * k1[1], o2 + h * k1[2])
        k3 = omega_dot(b0, b1, b2, o0 + h * k2[0], o1 + h * k2[1], o2 + h * k2[2])
        k4 = omega_dot(e00 * b0 + e10 * b1 + e20 * b2,
                       e01 * b0 + e11 * b1 + e21 * b2,
                       e02 * b0 + e12 * b1 + e22 * b2,
                       o0 + dt * k3[0], o1 + dt * k3[1], o2 + dt * k3[2])

        hdt2 = 0.5 * dt * dt
        new_pos = (px + dt * vx + hdt2 * ax, py + dt * vy + hdt2 * ay,
                   pz + dt * vz + hdt2 * az)
        new_vel = (vx + dt * ax, vy + dt * ay, vz + dt * az)
        sixth = dt / 6.0
        n0 = o0 + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        n1 = o1 + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        n2 = o2 + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        # the squared rate also bounds the angle of the rotation update
        if not all(map(math.isfinite, (*new_pos, *new_vel, n0 * n0 + n1 * n1 + n2 * n2))):
            raise ValueError(f"state diverged in the step to t = {self.t + dt:.4f} s: "
                             "non-finite body rate, velocity or position")
        s.pos = np.array(new_pos)
        s.vel = np.array(new_vel)
        s.omega = np.array((n0, n1, n2))
        # R E stays a BLAS product, whose rounding a Python sum does not
        # reproduce; ndarray.dot runs the same kernel as @ with less dispatch
        s.rot = s.rot.dot(np.array(so3._rodrigues(
            0.5 * (o0 + n0) * dt, 0.5 * (o1 + n1) * dt, 0.5 * (o2 + n2) * dt)).reshape(3, 3))
        self.last_accel = np.array((ax, ay, az))

        # feet: stance pinned, swing follow the command; the force channel
        # reads the commanded force on stance legs and +0.0 on swing legs. A
        # swing that has not touched down by its switch to stance does so there
        airborne, landed = self.airborne, self.landed
        sensor, touched = [], [False] * 4
        for i in range(4):
            if stance[i]:
                sensor += f[3 * i:3 * i + 3]
                touched[i] = airborne[i]
                airborne[i] = landed[i] = False
            else:
                sensor += (0.0, 0.0, 0.0)
        for i, x, y, z in targets:
            ground_z = self.ground.height(x, y)
            if z > ground_z:
                airborne[i] = not landed[i]
            else:
                # clamp to the surface; the first contact after a target
                # above it is the touchdown
                z = ground_z
                if airborne[i]:
                    touched[i] = landed[i] = True
                    airborne[i] = False
            s.feet[i] = (x, y, z)

        self.touched_down = np.array(touched)
        self.contact_forces = np.array(sensor)
        self.t += dt

        # the support check, on the new position and the stance feet, which
        # the step left pinned where they were
        px, py, pz = new_pos
        ground_z = self.ground.height(px, py)
        if pz < ground_z:
            raise BreachError(f"body CoM {ground_z - pz:.3g} m below the ground "
                              f"at t = {self.t:.3f} s")
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = s.rot.tolist()
        reach2 = _REACH * _REACH
        for leg in range(4):
            if stance[leg]:
                (x, y, z), (hx, hy, hz) = feet[leg], _HIPS[leg]
                dx = x - (px + (r00 * hx + r01 * hy + r02 * hz))
                dy = y - (py + (r10 * hx + r11 * hy + r12 * hz))
                dz = z - (pz + (r20 * hx + r21 * hy + r22 * hz))
                dist2 = dx * dx + dy * dy + dz * dz
                if dist2 > reach2:
                    raise BreachError(f"stance foot of leg {leg} is {math.sqrt(dist2):.3f} m "
                                      f"from its hip at t = {self.t:.3f} s, beyond the leg's "
                                      f"reach of {_REACH:.2f} m")

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
        """Joint angles and rates, (4, 3) each, via leg IK of the body-frame
        feet; read-only arrays.

        Velocities are backward differences of the joint angles against the
        sample of the last earlier read (zero on the first), matching how
        encoder velocities are produced in practice. A read at an unchanged
        ``t`` returns that time's sample again. Raises
        :class:`quadstack.swing.UnreachableError` if a commanded foot left
        the workspace.
        """
        last = self._encoders
        if last is not None and last[0] == self.t:
            return last[1], last[2]
        s = self.state
        p_body = (s.feet - s.pos) @ s.rot  # rows: R^T (foot - p)
        qs = _ik_batch(p_body)
        qds = np.zeros((4, 3)) if last is None else (qs - last[1]) / self.dt
        qs.setflags(write=False)
        qds.setflags(write=False)
        self._encoders = (self.t, qs, qds)
        return qs, qds
