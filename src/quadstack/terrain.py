"""Walking-surface estimation and posture adjustment.

The ground under the robot is modeled as a plane z = a0 + a1*x + a2*y fit
to the most recent contact point of each leg by least squares (with a
pseudo-inverse, so collinear footholds degrade gracefully to the
minimum-norm solution). The fitted plane drives a desired body orientation
(body z along the plane normal, zero yaw); the trot holds its nominal
height along the same normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3

__all__ = ["PlaneCoeffs", "SlopeTooSteepError", "fit_plane", "posture_from_plane"]

_MAX_SLOPE = 10.0          # precondition on |a1|, |a2|
_MIN_NORMAL_TILT = np.deg2rad(5.0)   # normal within 5 deg of horizontal is rejected


class SlopeTooSteepError(ValueError):
    """Fitted plane is too steep to derive a posture from."""


@dataclass
class PlaneCoeffs:
    """z(x, y) = a0 + a1*x + a2*y; a0 in meters, a1/a2 dimensionless slopes."""

    a0: float = 0.0
    a1: float = 0.0
    a2: float = 0.0

    def height(self, x: float, y: float) -> float:
        return self.a0 + self.a1 * x + self.a2 * y

    def normal(self) -> np.ndarray:
        n = np.array([-self.a1, -self.a2, 1.0])
        return n / np.linalg.norm(n)


def fit_plane(foot_xy: np.ndarray, foot_z: np.ndarray) -> PlaneCoeffs:
    """Least-squares plane through foothold samples.

    ``foot_xy`` is (n, 2) and ``foot_z`` (n,), one row per leg (most recent
    contact point each). Solves a = pinv(W^T W) W^T z with W = [1 x y].
    """
    foot_xy = np.asarray(foot_xy, dtype=float).reshape(-1, 2)
    foot_z = np.asarray(foot_z, dtype=float).reshape(-1)
    w = np.column_stack([np.ones(foot_xy.shape[0]), foot_xy[:, 0], foot_xy[:, 1]])
    a = np.linalg.pinv(w.T @ w) @ (w.T @ foot_z)
    return PlaneCoeffs(*a)


def posture_from_plane(a: PlaneCoeffs) -> np.ndarray:
    """Desired body rotation for standing on the fitted plane: the minimal
    tilt rotation that aligns the body z-axis with the plane normal, at
    zero yaw."""
    if abs(a.a1) >= _MAX_SLOPE or abs(a.a2) >= _MAX_SLOPE:
        raise SlopeTooSteepError(f"slopes out of range: a1={a.a1}, a2={a.a2}")
    n = a.normal()
    if n[2] < np.sin(_MIN_NORMAL_TILT):
        raise SlopeTooSteepError("plane normal within 5 degrees of horizontal")

    z_axis = np.array([0.0, 0.0, 1.0])
    axis = np.cross(z_axis, n)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        return np.eye(3)
    angle = np.arctan2(s, float(n @ z_axis))
    return so3.exp_exact(axis / s * angle)
