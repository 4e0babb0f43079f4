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
# jump_track_torque's diagonal gains: foot position and velocity, joint angle and rate
_KP_CART = (900.0,) * 3
_KD_CART = (20.0,) * 3
_KP_JOINT = (20.0,) * 3
_KD_JOINT = (0.5,) * 3

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
    if isinstance(v, (list, tuple)):
        x, y, z = v
        return [float(x), float(y), float(z)]
    return np.asarray(v, dtype=float).reshape(3).tolist()


def _rows(m) -> list[list[float]]:
    """A 3x3 matrix as rows of Python floats; a list or tuple of rows is read
    without numpy."""
    if isinstance(m, (list, tuple)):
        return [[float(a), float(b), float(c)] for a, b, c in m]
    return np.asarray(m, dtype=float).reshape(3, 3).tolist()


def _foot_and_jacobian(q, leg: int) -> tuple[tuple, tuple]:
    """Body-frame foot position (x, y, z) and the rows of the 3x3 foot
    Jacobian, in floats.

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
    jac = ((0.0, uz, -l2 * c12),
           (-rz, -s0 * b1 + 0.0, -s0 * b2 + 0.0),
           (ry, c0 * b1 + 0.0, c0 * b2 + 0.0))
    return (hx + ux, hy + ry, hz + rz), jac


def leg_fk(q: np.ndarray, leg: int) -> np.ndarray:
    """Body-frame foot position for joint angles ``q``."""
    return np.array(_foot_and_jacobian(_floats(q), leg)[0])


def leg_jacobian(q: np.ndarray, leg: int) -> np.ndarray:
    """Foot Jacobian d(foot)/dq, 3x3, body frame."""
    return np.array(_foot_and_jacobian(_floats(q), leg)[1])


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


def jump_track_torque(q: np.ndarray, qd: np.ndarray, q_d, p_foot_d, v_foot_d, tau_d,
                      leg: int) -> np.ndarray:
    """Reference-tracking torque for jump execution.

    Tracks the joint angles ``q_d`` at zero joint rate, the body-frame foot
    position and velocity ``p_foot_d`` and ``v_foot_d``, with the
    feedforward torque ``tau_d``: a Cartesian PD on the foot with gains
    ``_KP_CART`` and ``_KD_CART``, mapped through J^T, plus a joint-space PD
    with ``_KP_JOINT`` and ``_KD_JOINT``, all in floats: each row of J qd
    and J^T w is summed left to right.
    """
    q, qd = _floats(q), _floats(qd)
    (x, y, z), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = _foot_and_jacobian(q, leg)
    u0, u1, u2 = qd
    v_f = (a0 * u0 + a1 * u1 + a2 * u2, b0 * u0 + b1 * u1 + b2 * u2, c0 * u0 + c1 * u1 + c2 * u2)
    w0, w1, w2 = [kp * (p_d - p) + kd * (v_d - v) for kp, kd, p_d, p, v_d, v in zip(
        _KP_CART, _KD_CART, p_foot_d, (x, y, z), v_foot_d, v_f)]
    tau_ff = (a0 * w0 + b0 * w1 + c0 * w2, a1 * w0 + b1 * w1 + c1 * w2, a2 * w0 + b2 * w1 + c2 * w2)
    return np.array([t + t_d + kp * (qi_d - qi) + kd * (0.0 - qdi)
                     for t, t_d, kp, qi_d, qi, kd, qdi in zip(
                         tau_ff, tau_d, _KP_JOINT, q_d, q, _KD_JOINT, qd)])


def stance_torque(q: np.ndarray, grf_world: np.ndarray, r_body: np.ndarray,
                  leg: int) -> np.ndarray:
    """Joint torques commanding a world-frame ground reaction force on the body.

    tau = -J^T R^T F: the leg pushes against the ground so that the
    reaction on the body equals ``grf_world``. In floats, each row summed
    left to right.
    """
    _, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = _foot_and_jacobian(_floats(q), leg)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _rows(r_body)
    g0, g1, g2 = _floats(grf_world)
    f0, f1, f2 = (r00 * g0 + r10 * g1 + r20 * g2, r01 * g0 + r11 * g1 + r21 * g2,
                  r02 * g0 + r12 * g1 + r22 * g2)
    return np.array([-(a0 * f0 + b0 * f1 + c0 * f2), -(a1 * f0 + b1 * f1 + c1 * f2),
                     -(a2 * f0 + b2 * f1 + c2 * f2)])


def grf_from_torque(q: np.ndarray, tau: np.ndarray, r_body: np.ndarray,
                    leg: int) -> np.ndarray:
    """Inverse of :func:`stance_torque`: world GRF implied by joint torques.

    Solves J^T f = -tau in closed form: the cofactor matrix K of J satisfies
    J^T K = det(J) I, and K's rows are cross products of J's rows. A
    Jacobian whose determinant is exactly zero, as at q = (0, 0, 0), raises
    ``np.linalg.LinAlgError`` as ``np.linalg.solve`` does.
    """
    _, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = _foot_and_jacobian(_floats(q), leg)
    k00, k01, k02 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    k10, k11, k12 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    k20, k21, k22 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * k00 + a1 * k01 + a2 * k02
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    t0, t1, t2 = _floats(tau)
    f0 = -(k00 * t0 + k01 * t1 + k02 * t2) / det
    f1 = -(k10 * t0 + k11 * t1 + k12 * t2) / det
    f2 = -(k20 * t0 + k21 * t1 + k22 * t2) / det
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _rows(r_body)
    return np.array([r00 * f0 + r01 * f1 + r02 * f2, r10 * f0 + r11 * f1 + r12 * f2,
                     r20 * f0 + r21 * f1 + r22 * f2])


class SwingTrajectory:
    """Foot trajectory from liftoff to a touchdown target.

    Minimum-jerk (quintic) time scaling between the endpoints plus a
    quartic clearance bump in z that peaks mid-swing; start and end
    velocities are zero.
    """

    def __init__(self, p_start: np.ndarray, p_end: np.ndarray, duration: float):
        if not duration > 0.0:
            raise ValueError("duration must be positive")
        p0 = np.asarray(p_start, dtype=float).reshape(3)
        p1 = np.asarray(p_end, dtype=float).reshape(3)
        self.duration = float(duration)
        self._p0 = p0.tolist()
        self._delta = (p1 - p0).tolist()

    def sample(self, t: float) -> tuple[float, float, float]:
        """Position (x, y, z) at time ``t`` since liftoff. Python floats in
        the operation order of the 3-vector formula, bump added to every
        axis (zero in x and y)."""
        u = min(1.0, max(0.0, t / self.duration))
        s = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        bump = 16.0 * u * u * (1.0 - u) ** 2
        (x0, y0, z0), (dx, dy, dz) = self._p0, self._delta
        return (x0 + s * dx + 0.0, y0 + s * dy + 0.0, z0 + s * dz + _APEX * bump)
