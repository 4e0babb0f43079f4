"""Rotation-matrix math on SO(3).

Rotations are 3x3 numpy arrays mapping body-frame vectors into the world
frame. Axis-angle vectors are axis * angle in radians.

Two exponentials are provided on purpose:

* ``exp_exact``   closed-form Rodrigues formula, orthonormal to machine
                  precision. Used by the orientation filter and as the
                  oracle in tests; the simulator's step reads the same
                  entries as floats from ``_rodrigues``.
* ``exp_taylor4`` degree-4 Taylor polynomial of the matrix exponential,
                  deliberately NOT re-orthonormalized. The contact-timing
                  optimizer constrains rotation evolution with exactly this
                  polynomial, so the library keeps the same object. For
                  ``|theta| <= 1`` its Frobenius distance to the exact
                  exponential stays below ``|theta|**5 / 60`` and its
                  orthogonality defect below ``|theta|**5 / 55`` (both
                  measured against the Rodrigues form on a grid).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "NonSkewError",
    "NearPiWarning",
    "hat",
    "vee",
    "exp_taylor4",
    "exp_exact",
    "log_map",
    "rotation_error",
    "interp_rotation",
    "project_so3",
    "orthonormality_defect",
    "rot_x",
    "rot_y",
    "rot_z",
    "rpy_to_matrix",
    "matrix_to_rpy",
]

_EPS_ANGLE = 1e-8          # below this, use series expansions
_NEAR_PI_TOL = 1e-6        # trace(R) <= -1 + tol flags the angle-pi branch
_SKEW_TOL = 1e-8           # largest ||M + M^T||_F that vee accepts


class NonSkewError(ValueError):
    """Raised when ``vee`` is handed a matrix that is not skew-symmetric."""


class NearPiWarning(RuntimeWarning):
    """Emitted when ``log_map`` operates within tolerance of a half-turn.

    The returned branch is still valid; the warning flags that the axis sign
    is numerically fragile there.
    """


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of ``v``, satisfying ``hat(v) @ w == cross(v, w)``."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`.

    Raises :class:`NonSkewError` if ``||m + m.T||_F`` exceeds :data:`_SKEW_TOL`.
    """
    m = np.asarray(m, dtype=float).reshape(3, 3)
    defect = np.linalg.norm(m + m.T)
    if defect > _SKEW_TOL:
        raise NonSkewError(f"matrix is not skew-symmetric: ||M + M^T|| = {defect:.3e}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp_taylor4(w: np.ndarray) -> np.ndarray:
    """Degree-4 Taylor polynomial of ``expm(hat(w))``.

    Not re-orthonormalized: the orthogonality defect grows like
    ``|w|**5 / 60`` and is part of the contract (the trajectory optimizer's
    manifold constraint uses this exact polynomial).
    """
    a = hat(w)
    a2 = a @ a
    a3 = a2 @ a
    return np.eye(3) + a + a2 / 2.0 + a3 / 6.0 + (a3 @ a) / 24.0


def _rodrigues(x: float, y: float, z: float) -> tuple[float, ...]:
    """The nine entries, row by row, of ``expm(hat((x, y, z)))`` by the
    Rodrigues formula, in floats.

    I + a hat(w) + b hat(w)^2 with hat(w)^2 = w w^T - theta^2 I, evaluated
    entrywise: the simulator's step takes its half-step rotation from here
    without building an array.
    """
    t2 = x * x + y * y + z * z
    theta = math.sqrt(t2)
    if theta < _EPS_ANGLE:
        # sin(t)/t ~ 1 - t^2/6, (1-cos t)/t^2 ~ 1/2 - t^2/24
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / t2
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return (1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
            bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
            bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y))


def exp_exact(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula for ``expm(hat(w))``; exactly orthonormal.

    The entries come from :func:`_rodrigues`; a list or tuple of floats is
    read without numpy (the orientation filter calls this once a tick).
    """
    x, y, z = (map(float, w) if isinstance(w, (list, tuple))
               else np.asarray(w, dtype=float).reshape(3).tolist())
    return np.array(_rodrigues(x, y, z)).reshape(3, 3)


def _log_rows(r: list) -> list[float] | None:
    """:func:`log_map` on the rows of ``r`` as float lists, as three floats
    with the array formula's bits; None near the half-turn. arccos stays
    numpy: libm's acos differs from it in the last bit."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    tr = r00 + r11 + r22  # np.trace's order
    if tr <= -1.0 + _NEAR_PI_TOL:
        return None
    theta = float(np.arccos(min(1.0, max(-1.0, (tr - 1.0) / 2.0))))
    s = (r21 - r12, r02 - r20, r10 - r01)
    if theta < _EPS_ANGLE:
        f = 1.0 + theta * theta / 6.0
        return [0.5 * x * f for x in s]
    f = theta / (2.0 * math.sin(theta))
    return [f * x for x in s]


def log_map(r: np.ndarray) -> np.ndarray:
    """Axis-angle vector ``w`` with ``exp_exact(w) == r``, angle in [0, pi].

    Near a half-turn (``trace(r) <= -1 + tol``) the axis is recovered from the
    dominant diagonal element of the symmetric part and a
    :class:`NearPiWarning` is emitted; the result is still a valid branch.
    """
    r = np.asarray(r, dtype=float).reshape(3, 3)
    w = _log_rows(r.tolist())
    if w is not None:
        return np.array(w)
    warnings.warn("rotation angle within tolerance of pi; axis sign is fragile",
                  NearPiWarning, stacklevel=2)
    c = min(1.0, max(-1.0, (float(np.trace(r)) - 1.0) / 2.0))
    theta = float(np.arccos(c))
    s = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    # R = I + (1 - cos)* (uu^T - I) => uu^T = (sym(R) - cos*I) / (1 - cos)
    sym = 0.5 * (r + r.T)
    uut = (sym - c * np.eye(3)) / (1.0 - c)
    i = int(np.argmax(np.diag(uut)))
    u = uut[:, i] / np.sqrt(max(uut[i, i], 1e-15))
    u /= np.linalg.norm(u)
    # align with the (tiny) skew part when it is informative
    if np.dot(u, s) < 0.0:
        u = -u
    return theta * u


def rotation_error(r_ref: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Body-frame rotation error ``log(r_ref^T r)``; zero iff ``r == r_ref``."""
    return log_map(np.asarray(r_ref).T @ np.asarray(r))


def interp_rotation(r0: np.ndarray, rg: np.ndarray, s: float) -> np.ndarray:
    """Geodesic interpolation ``r0 * exp(s * log(r0^T rg))`` for s in [0, 1].

    Endpoints are reproduced exactly. (Entrywise interpolation would leave
    SO(3); the geodesic keeps every sample a valid rotation, which the
    rotation-error cost requires.)
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {s}")
    r0 = np.asarray(r0, dtype=float)
    if s == 0.0:
        return r0.copy()
    rg = np.asarray(rg, dtype=float)
    if s == 1.0:
        return rg.copy()
    return r0 @ exp_exact(s * log_map(r0.T @ rg))


def project_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float).reshape(3, 3))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def orthonormality_defect(r: np.ndarray) -> float:
    """``||r^T r - I||_F``, zero for an exact rotation."""
    r = np.asarray(r, dtype=float).reshape(3, 3)
    return float(np.linalg.norm(r.T @ r - np.eye(3)))


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_to_matrix(rpy: np.ndarray) -> np.ndarray:
    """Roll-pitch-yaw (x-y-z intrinsic, ``Rz @ Ry @ Rx``) to matrix. I/O helper."""
    roll, pitch, yaw = np.asarray(rpy, dtype=float).reshape(3)
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def matrix_to_rpy(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rpy_to_matrix`; pitch returned in [-pi/2, pi/2]. I/O helper."""
    r = np.asarray(r, dtype=float).reshape(3, 3)
    pitch = np.arctan2(-r[2, 0], np.hypot(r[2, 1], r[2, 2]))
    roll = np.arctan2(r[2, 1], r[2, 2])
    yaw = np.arctan2(r[1, 0], r[0, 0])
    return np.array([roll, pitch, yaw])
