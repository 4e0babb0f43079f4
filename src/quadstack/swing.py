"""3-DOF leg kinematics, jump-tracking and stance torque laws, swing trajectories.

Joint order per leg is [abduction, hip pitch, knee pitch]. The abduction
axis is the body x-axis through the hip; hip and knee rotate about the leg
plane's y-axis. At q = 0 the leg hangs straight down: the foot sits at
HIP_OFFSETS[leg] - (0, 0, L1 + L2); the four legs share L1 and L2.

Frames: everything here is in the body frame. Stance torque mapping and its
inverse convert between world-frame ground reaction forces and joint
torques through the foot Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "UnreachableError",
    "leg_fk",
    "leg_ik",
    "ik_angles",
    "leg_jacobian",
    "jump_track_torque",
    "stance_torque",
    "grf_from_torque",
    "SwingTrajectory",
]

_APEX = 0.08   # m, height of the swing clearance bump at mid-swing

L1 = 0.34      # m, thigh: hip pitch axis to knee
L2 = 0.34      # m, shank: knee to foot
# body-frame hips FR, FL, BR, BL, read-only; _HIPS: its rows as float tuples
HIP_OFFSETS = np.array([
    [0.3, -0.128, 0.0],
    [0.3, 0.128, 0.0],
    [-0.3, -0.128, 0.0],
    [-0.3, 0.128, 0.0],
])
HIP_OFFSETS.setflags(write=False)
_HIPS = tuple(map(tuple, HIP_OFFSETS.tolist()))


class UnreachableError(ValueError):
    """Commanded foot position lies outside the leg workspace."""


def _floats(v) -> list[float]:
    """A 3-vector as Python floats; a list or tuple is read without numpy."""
    return (list(map(float, v)) if isinstance(v, (list, tuple))
            else np.asarray(v, dtype=float).reshape(3).tolist())


def _foot_and_jacobian(q, leg: int) -> tuple[tuple, np.ndarray]:
    """Body-frame foot position (x, y, z) and the 3x3 foot Jacobian, in floats.

    The foot in the leg plane is (ux, 0, uz), turned about body x by the
    abduction q0. Each row of ``rot_x(q0) @ (a, 0, b)`` has one nonzero
    product, so each entry is that product, plus 0.0 where the matrix
    product's sum of zeros gives +0.0 for a -0.0 product.
    """
    q0, q1, q2 = q
    l1, l2 = L1, L2
    s0, c0 = math.sin(q0), math.cos(q0)
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    ux, uz = -l1 * s1 - l2 * s12, -l1 * c1 - l2 * c12
    ry, rz = -s0 * uz + 0.0, c0 * uz + 0.0
    hx, hy, hz = _HIPS[leg]
    # columns: e_x x (turned foot), then rot_x times d(ux, uz)/dq1 = (uz, b1)
    # and d(ux, uz)/dq2 = (-l2 c12, b2)
    b1, b2 = l1 * s1 + l2 * s12, l2 * s12
    jac = np.array([[0.0, uz, -l2 * c12],
                    [-rz, -s0 * b1 + 0.0, -s0 * b2 + 0.0],
                    [ry, c0 * b1 + 0.0, c0 * b2 + 0.0]])
    return (hx + ux, hy + ry, hz + rz), jac


def leg_fk(q: np.ndarray, leg: int) -> np.ndarray:
    """Body-frame foot position for joint angles ``q``."""
    return np.array(_foot_and_jacobian(_floats(q), leg)[0])


def leg_jacobian(q: np.ndarray, leg: int) -> np.ndarray:
    """Foot Jacobian d(foot)/dq, 3x3, body frame."""
    return _foot_and_jacobian(_floats(q), leg)[1]


def leg_ik(p_body: np.ndarray, leg: int) -> np.ndarray:
    """Joint angles placing the foot at the body-frame position ``p_body``.

    Returns the branch with the knee angle in [0, pi]. Raises
    :class:`UnreachableError` when the target leaves the annular
    workspace |L1 - L2| <= r <= L1 + L2 about the hip.
    """
    d = np.asarray(p_body, dtype=float).reshape(3) - HIP_OFFSETS[leg]
    return np.array(ik_angles(d.tolist()))


def ik_angles(d) -> tuple[float, float, float]:
    """:func:`leg_ik` for the hip-to-foot vector ``d`` = (dx, dy, dz), in scalars."""
    dx, dy, dz = d
    l1, l2 = L1, L2
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    if r > (l1 + l2) * (1.0 + 1e-9) or r < abs(l1 - l2) * (1.0 - 1e-9):
        raise UnreachableError(f"target at distance {r:.3f} m outside [{abs(l1-l2):.3f}, {l1+l2:.3f}]")

    q0 = math.atan2(dy, -dz) if (abs(dy) > 1e-15 or abs(dz) > 1e-15) else 0.0
    # in-plane coordinates after undoing abduction: y component vanishes
    vz = -math.hypot(dy, dz)

    cos_knee = (dx * dx + vz * vz - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    cos_knee = min(1.0, max(-1.0, cos_knee))
    q2 = math.acos(cos_knee)
    q1 = math.atan2(-dx, -vz) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    return q0, q1, q2


def jump_track_torque(q: np.ndarray, qd: np.ndarray, refs: dict, gains: dict,
                      leg: int) -> np.ndarray:
    """Reference-tracking torque for jump execution.

    ``refs`` carries q_d, qd_d, p_foot_d, v_foot_d, tau_d (body-frame foot
    targets, feedforward torque); ``gains`` carries kp_cart, kd_cart,
    kp_joint, kd_joint (diagonal gains, 3 values each). Cartesian PD plus
    the feedforward, plus a joint-space PD. A diagonal gain times a vector
    is one product per row, done in floats; the products with J stay BLAS.
    """
    q, qd = _floats(q), _floats(qd)
    p_f, j = _foot_and_jacobian(q, leg)
    v_f = (j @ np.array(qd)).tolist()
    wrench = [kp * (p_d - p) + kd * (v_d - v) for kp, kd, p_d, p, v_d, v in zip(
        gains["kp_cart"], gains["kd_cart"], refs["p_foot_d"], p_f, refs["v_foot_d"], v_f)]
    tau_ff = (j.T @ np.array(wrench)).tolist()
    return np.array([t + t_d + kp * (q_d - qi) + kd * (qd_d - qdi)
                     for t, t_d, kp, q_d, qi, kd, qd_d, qdi in zip(
                         tau_ff, refs["tau_d"], gains["kp_joint"], refs["q_d"], q,
                         gains["kd_joint"], refs["qd_d"], qd)])


def stance_torque(q: np.ndarray, grf_world: np.ndarray, r_body: np.ndarray,
                  leg: int) -> np.ndarray:
    """Joint torques commanding a world-frame ground reaction force on the body.

    tau = -J^T R^T F: the leg pushes against the ground so that the
    reaction on the body equals ``grf_world``.
    """
    _, j = _foot_and_jacobian(_floats(q), leg)
    return -j.T @ (np.asarray(r_body, dtype=float).T @ np.asarray(grf_world, dtype=float))


def grf_from_torque(q: np.ndarray, tau: np.ndarray, r_body: np.ndarray,
                    leg: int) -> np.ndarray:
    """Inverse of :func:`stance_torque`: world GRF implied by joint torques."""
    _, j = _foot_and_jacobian(_floats(q), leg)
    f_body = np.linalg.solve(j.T, -np.asarray(tau, dtype=float))
    return np.asarray(r_body, dtype=float) @ f_body


class SwingTrajectory:
    """Foot trajectory from liftoff to a touchdown target.

    Minimum-jerk (quintic) time scaling between the endpoints plus a
    quartic clearance bump in z that peaks mid-swing; start and end
    velocities are zero.
    """

    def __init__(self, p_start: np.ndarray, p_end: np.ndarray, duration: float):
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        self.p0 = np.asarray(p_start, dtype=float).reshape(3)
        self.p1 = np.asarray(p_end, dtype=float).reshape(3)
        self.duration = float(duration)
        self._p0 = self.p0.tolist()
        self._delta = (self.p1 - self.p0).tolist()

    def _s(self, u: float) -> tuple[float, float, float]:
        s = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        ds = 30.0 * u * u * (1.0 - u) ** 2
        dds = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
        return s, ds, dds

    def sample(self, t: float) -> tuple[tuple[float, float, float], ...]:
        """Position, velocity, acceleration at time ``t`` since liftoff, as
        (x, y, z) tuples. Python floats in the operation order of the 3-vector
        formula, bump added to every axis (zero in x and y)."""
        u = min(1.0, max(0.0, t / self.duration))
        s, ds, dds = self._s(u)
        inv = 1.0 / self.duration
        bump = 16.0 * u * u * (1.0 - u) ** 2
        dbump = 32.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
        ddbump = 32.0 * (1.0 - 6.0 * u + 6.0 * u * u)
        (x0, y0, z0), (dx, dy, dz) = self._p0, self._delta
        k_vel, k_acc = ds * inv, dds * inv * inv
        pos = (x0 + s * dx + 0.0, y0 + s * dy + 0.0, z0 + s * dz + _APEX * bump)
        vel = (k_vel * dx + 0.0, k_vel * dy + 0.0, k_vel * dz + _APEX * dbump * inv)
        acc = (k_acc * dx + 0.0, k_acc * dy + 0.0, k_acc * dz + _APEX * ddbump * inv * inv)
        return pos, vel, acc
