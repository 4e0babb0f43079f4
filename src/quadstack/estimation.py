"""Two-stage state estimation.

Stage one is a complementary orientation filter: gyro integration on SO(3)
with an accelerometer correction that pulls the estimated gravity direction
toward the measured one. The correction gain adapts down when the
accelerometer norm departs from g (highly dynamic motion), so the filter
trusts the gyro there. The de-drift time constant is approximately 1/kappa.

Stage two is a conventional (linear) Kalman filter over body position,
body velocity, and the four foot positions, all in the world frame:

    state   x = [p_b, v_b, p_1, p_2, p_3, p_4]           (18)
    process p_b' = v_b,  v_b' = R_hat a_b + a_g + w_v,  p_i' = w_pi
    meas    per foot: relative position, relative velocity (feet assumed
            pinned while in stance), and contact height     (28 rows)

The rotated accelerometer reading is treated as a known input, which keeps
the filter linear time invariant; measurement covariances for a foot are
inflated by a large factor during swing so its rows are effectively ignored.
State ordering is fixed as above for serialization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import so3
from .balance import GRAVITY, GRAVITY_W
from .state import unchecked
from .swing import _foot_and_jacobian, leg_fk, leg_jacobian

_EYE3_X15 = 1.5 * np.eye(3)
_EYE18 = np.eye(18)

__all__ = [
    "ImuSample",
    "KfState",
    "SingularInnovationError",
    "orientation_step",
    "kf_predict",
    "kf_update",
    "kf_default_state",
    "leg_measurement_from_kinematics",
    "leg_measurements_batch",
    "Q_ACCEL_DEFAULT",
    "Q_FOOT_STANCE_DEFAULT",
    "R_POS_DEFAULT",
    "R_VEL_DEFAULT",
    "R_HEIGHT_DEFAULT",
    "SWING_INFLATION_DEFAULT",
]

# noise densities and measurement covariances
Q_ACCEL_DEFAULT = 1e-2          # (m/s^2)^2 * s, accelerometer white noise
Q_FOOT_STANCE_DEFAULT = 1e-6    # m^2 * s, stance-foot position drift
R_POS_DEFAULT = 1e-4            # m^2
R_VEL_DEFAULT = 1e-3            # (m/s)^2
R_HEIGHT_DEFAULT = 1e-4         # m^2
SWING_INFLATION_DEFAULT = 1e6
_PRIOR_VAR = 1e-4              # m^2 and (m/s)^2, initial KF state variance
_KAPPA_REF = 0.1               # 1/s, orientation-filter correction gain at |a| = g


class SingularInnovationError(np.linalg.LinAlgError):
    """Innovation covariance could not be inverted."""


@dataclass
class ImuSample:
    gyro: np.ndarray   # rad/s, body frame
    accel: np.ndarray  # m/s^2, body frame, includes the gravity reaction

    def __post_init__(self):
        self.gyro = np.asarray(self.gyro, dtype=float).reshape(3)
        self.accel = np.asarray(self.accel, dtype=float).reshape(3)


def _kappa(a_norm: float) -> float:
    """Correction gain shrinking as the accelerometer norm departs from g:
    _KAPPA_REF * clamp(1 - |a_norm - g| / g, 0, 1)."""
    ratio = abs(a_norm - GRAVITY) / GRAVITY
    return _KAPPA_REF * min(1.0, max(0.0, 1.0 - ratio))


def orientation_step(r_hat: np.ndarray, imu: ImuSample, dt: float) -> np.ndarray:
    """One filter update of the (3, 3) estimate ``r_hat``:
    R <- R exp((gyro + kappa * w_corr) dt), re-orthonormalized.

    w_corr = (a/|a|) x R^T e_z rotates the estimated gravity direction toward
    the measured one; it carries no yaw information when upright.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    ax, ay, az = imu.accel.tolist()
    wx, wy, wz = imu.gyro.tolist()
    a_norm = math.sqrt(ax * ax + ay * ay + az * az)
    if a_norm > 1e-9:
        kappa = _kappa(a_norm)
        ax, ay, az = ax / a_norm, ay / a_norm, az / a_norm
        rx, ry, rz = r_hat[2].tolist()  # R^T e_z is the third row
        wx += kappa * (ay * rz - az * ry)
        wy += kappa * (az * rx - ax * rz)
        wz += kappa * (ax * ry - ay * rx)
    r_new = r_hat @ so3.exp_exact((wx * dt, wy * dt, wz * dt))
    # one polar-Newton step of renormalization: keeps the per-step
    # orthogonality defect at machine scale without an SVD
    return r_new @ (_EYE3_X15 - 0.5 * (r_new.T @ r_new))


@dataclass
class KfState:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(18)
        self.cov = np.asarray(self.cov, dtype=float).reshape(18, 18)

    @property
    def pos(self) -> np.ndarray:
        return self.mean[0:3]

    @property
    def vel(self) -> np.ndarray:
        return self.mean[3:6]

    @property
    def feet(self) -> np.ndarray:
        """The (4, 3) foot positions, a view of the mean."""
        return self.mean[6:18].reshape(4, 3)


def kf_default_state(p_b: np.ndarray, feet: np.ndarray) -> KfState:
    """Body at ``p_b`` at rest on the footholds ``feet``, every state variance
    :data:`_PRIOR_VAR`."""
    mean = np.concatenate([np.asarray(p_b, dtype=float).reshape(3), np.zeros(3),
                           np.asarray(feet, dtype=float).reshape(12)])
    return KfState(mean=mean, cov=_PRIOR_VAR * _EYE18)


def leg_measurement_from_kinematics(q: np.ndarray, qd: np.ndarray, r_hat: np.ndarray,
                                    gyro: np.ndarray, leg: int) -> tuple[np.ndarray, np.ndarray]:
    """One leg's measurement from encoders, the orientation estimate, and gyro.

    Returns the world-frame foot-minus-body position and velocity:
    rel_pos = R p_foot(q);  rel_vel = R (hat(gyro) p_foot(q) + J(q) qd).
    """
    p_body = leg_fk(q, leg)
    v_body = so3.hat(gyro) @ p_body + leg_jacobian(q, leg) @ np.asarray(qd, dtype=float)
    r_hat = np.asarray(r_hat, dtype=float)
    return r_hat @ p_body, r_hat @ v_body


def leg_measurements_batch(qs: np.ndarray, qds: np.ndarray, r_hat: np.ndarray,
                           gyro: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World-frame foot-minus-body positions and velocities, (4, 3) each.

    :func:`leg_measurement_from_kinematics` for all four legs, in floats
    (numpy's per-call cost dominates at this size) from each leg's foot and
    Jacobian rows, each row of J qd summed left to right; these arrays are
    the leg measurement of :func:`kf_update`.
    """
    gx, gy, gz = np.asarray(gyro, dtype=float).reshape(3).tolist()
    p_body, v_body = [], []
    for leg, (q, (u0, u1, u2)) in enumerate(zip(
            np.asarray(qs, dtype=float).reshape(4, 3).tolist(),
            np.asarray(qds, dtype=float).reshape(4, 3).tolist())):
        (px, py, pz), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = _foot_and_jacobian(q, leg)
        p_body.append((px, py, pz))
        v_body.append(((gy * pz - gz * py) + (a0 * u0 + a1 * u1 + a2 * u2),
                       (gz * px - gx * pz) + (b0 * u0 + b1 * u1 + b2 * u2),
                       (gx * py - gy * px) + (c0 * u0 + c1 * u1 + c2 * u2)))
    r_t = np.asarray(r_hat, dtype=float).T
    return np.array(p_body) @ r_t, np.array(v_body) @ r_t


@functools.lru_cache(maxsize=64)
def _process_matrices(dt: float, stance: tuple[bool, ...], inflation: float):
    """Transition A, its transpose and process covariance Q over ``dt``, a
    swing foot's drift density scaled by ``inflation``; read-only."""
    a = np.eye(18)
    a[0:3, 3:6] = dt * np.eye(3)
    # exact discretization of white accel noise on the (p, v) block
    q = np.zeros((18, 18))
    q[0:3, 0:3] = Q_ACCEL_DEFAULT * dt**3 / 3.0 * np.eye(3)
    q[0:3, 3:6] = Q_ACCEL_DEFAULT * dt**2 / 2.0 * np.eye(3)
    q[3:6, 0:3] = q[0:3, 3:6]
    q[3:6, 3:6] = Q_ACCEL_DEFAULT * dt * np.eye(3)
    for i, on in enumerate(stance):
        s = 6 + 3 * i
        q_p = Q_FOOT_STANCE_DEFAULT if on else Q_FOOT_STANCE_DEFAULT * inflation
        q[s:s + 3, s:s + 3] = q_p * dt * np.eye(3)
    a.setflags(write=False)
    q.setflags(write=False)
    return a, a.T, q


def _stance_key(in_stance) -> tuple[bool, ...]:
    """The cache key of the (4,) contact flags; a tuple passes unchanged."""
    if type(in_stance) is tuple:
        return in_stance
    return tuple(np.asarray(in_stance, dtype=bool).reshape(4).tolist())


def kf_predict(s: KfState, r_hat: np.ndarray, accel: np.ndarray, dt: float,
               in_stance: np.ndarray) -> KfState:
    """Propagate mean and covariance one step under the rotated accel input.

    ``in_stance`` holds the (4,) contact flags. A stance foot drifts with
    process noise density :data:`Q_FOOT_STANCE_DEFAULT`; a swing foot's is
    scaled by :data:`SWING_INFLATION_DEFAULT`, so it is free to move. The
    body's is :data:`Q_ACCEL_DEFAULT`.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    u = (np.asarray(r_hat, dtype=float) @ np.asarray(accel, dtype=float) + GRAVITY_W).tolist()
    a, a_t, q = _process_matrices(dt, _stance_key(in_stance), SWING_INFLATION_DEFAULT)
    mean = s.mean.copy()
    pos, vel = s.mean[0:3].tolist(), s.mean[3:6].tolist()
    mean[0:6] = ([p + (dt * v + 0.5 * dt * dt * ui) for p, v, ui in zip(pos, vel, u)]
                 + [v + dt * ui for v, ui in zip(vel, u)])
    cov = a @ s.cov @ a_t + q
    cov = 0.5 * (cov + cov.T)
    return unchecked(KfState, mean=mean, cov=cov)


# measurement matrix is constant: rows per foot are [rel pos; rel vel; height]
def _measurement_matrix() -> np.ndarray:
    h = np.zeros((28, 18))
    for i in range(4):
        r0 = 7 * i
        f0 = 6 + 3 * i
        h[r0:r0 + 3, 0:3] = -np.eye(3)        # -(p_b)
        h[r0:r0 + 3, f0:f0 + 3] = np.eye(3)   # +p_i
        h[r0 + 3:r0 + 6, 3:6] = -np.eye(3)    # -(v_b)
        h[r0 + 6, f0 + 2] = 1.0               # p_i z
    return h


_H = _measurement_matrix()
_H_T = _H.T
# measurement variances of one stance foot's rows
_R_FOOT = np.array([R_POS_DEFAULT] * 3 + [R_VEL_DEFAULT] * 3 + [R_HEIGHT_DEFAULT])


@functools.lru_cache(maxsize=64)
def _stance_r_diag(stance: tuple[bool, ...], inflation: float) -> np.ndarray:
    """The (28,) measurement variances for the contact flags ``stance``, a
    swing foot's rows scaled by ``inflation``; read-only."""
    scale = np.array([1.0 if on else inflation for on in stance])
    r_diag = (scale[:, None] * _R_FOOT).reshape(28)
    r_diag.setflags(write=False)
    return r_diag


def kf_update(s: KfState, rel_pos: np.ndarray, rel_vel: np.ndarray,
              contact_heights: np.ndarray, in_stance: np.ndarray) -> KfState:
    """Innovation step over the stacked 28-row leg measurement.

    ``rel_pos`` and ``rel_vel`` are the (4, 3) world-frame foot-minus-body
    positions and velocities of :func:`leg_measurements_batch`,
    ``contact_heights`` the (4,) assumed ground heights of the feet, and
    ``in_stance`` the (4,) contact flags. Swing feet keep their rows but
    with covariance scaled by :data:`SWING_INFLATION_DEFAULT` so they carry
    (numerically) no information. Raises :class:`SingularInnovationError`
    if the innovation covariance cannot be factorized.

    The gain is formed from the Cholesky factor L of S = H P H^T + R: one
    triangular solve gives W = L^-1 H P and w = L^-1 nu, so the mean gains
    W^T w and the covariance becomes P - W^T W, which equals the Joseph form
    for the optimal gain. numpy forms W^T W as a symmetric rank-k product,
    so a symmetric P stays exactly symmetric.
    """
    r_diag = _stance_r_diag(_stance_key(in_stance), SWING_INFLATION_DEFAULT)
    pht = s.cov @ _H_T
    s_mat = _H @ pht
    s_mat.ravel()[::29] += r_diag
    # LAPACK directly: the scipy.linalg wrappers cost more than the 28x28
    # factorization itself
    factor, info = dpotrf(s_mat, lower=1, clean=0)
    if info != 0:
        raise SingularInnovationError("innovation covariance not positive definite")
    # right-hand side [H P | nu], filled by rows of its transpose; the
    # innovation nu = z - H x has per foot [rel pos; rel vel; height], and
    # h(x) = -v_b on the velocity rows: feet fixed => rel_vel = -v_b
    rhs_t = np.empty((19, 28))
    rhs_t[:18] = pht
    z = rhs_t[18].reshape(4, 7)
    z[:, 0:3] = rel_pos
    z[:, 3:6] = rel_vel
    z[:, 6] = contact_heights
    rhs_t[18] -= _H @ s.mean
    w = dtrtrs(factor, rhs_t.T, lower=1, overwrite_b=1)[0]
    w_p = w[:, :18]
    return unchecked(KfState, mean=s.mean + w_p.T @ w[:, 18], cov=s.cov - w_p.T @ w_p)
