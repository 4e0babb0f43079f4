"""Gait scheduling, phase weights, the virtual support polygon, and footsteps.

Legs are indexed 0=FR, 1=FL, 2=BR, 3=BL. Each leg runs an independent phase
clock with a per-leg offset; scheduled contact is a boolean derived from the
clock and the stance fraction. Phase weights are erf-shaped gains that fade
a leg's contribution to the support polygon in and out around contact
switches; their widths are fixed at 0.1 of a subphase (the shape saturates
quickly away from transitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import GRAVITY

__all__ = [
    "GaitSchedule",
    "DegenerateWeightsError",
    "gait_preset",
    "subphase",
    "phase_gain_contact",
    "phase_gain_swing",
    "total_weight",
    "virtual_points",
    "polygon_vertex",
    "support_polygon",
    "desired_com",
    "footstep",
]

# ring of legs counterclockwise viewed from above (x forward, y left):
# FR -> FL -> BL -> BR -> FR
_CCW_NEXT = {0: 1, 1: 3, 3: 2, 2: 0}
_CW_NEXT = {v: k for k, v in _CCW_NEXT.items()}

# erf width of the phase weights at either end of a subphase, in units of it
_SIGMA = 0.1
_WEIGHT_EPS = 1e-9   # a vertex's three weights summing to no more are all mid-swing


class DegenerateWeightsError(ValueError):
    """All weights feeding a polygon vertex are (numerically) zero."""


@dataclass
class GaitSchedule:
    """Periodic gait: per-leg phase offsets and a common stance fraction."""

    period: float
    offsets: tuple[float, float, float, float]
    stance_fraction: float

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        if not 0.0 < self.stance_fraction < 1.0:
            raise ValueError("stance fraction must be in (0, 1)")
        if any(not 0.0 <= o < 1.0 for o in self.offsets):
            raise ValueError("offsets must be in [0, 1)")

    def stance_time(self) -> float:
        return self.period * self.stance_fraction

    def swing_time(self) -> float:
        return self.period * (1.0 - self.stance_fraction)


_PRESETS = {
    "trot": ((0.0, 0.5, 0.5, 0.0), 0.5),
    "pace": ((0.0, 0.5, 0.0, 0.5), 0.5),
    "bound": ((0.0, 0.0, 0.5, 0.5), 0.5),
}


def gait_preset(name: str, period: float) -> GaitSchedule:
    """Built-in gaits: trot, pace, bound."""
    try:
        offsets, stance = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown gait preset {name!r}; choose from {sorted(_PRESETS)}") from None
    return GaitSchedule(period=period, offsets=offsets, stance_fraction=stance)


def subphase(t: float, sched: GaitSchedule, leg: int) -> tuple[bool, float]:
    """Scheduled contact flag and normalized progress through the subphase.

    The returned phase is 0 at the start and 1 at the end of the current
    contact (or swing) subphase, piecewise linear in ``t``.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    tau = (t / sched.period + sched.offsets[leg]) % 1.0
    sf = sched.stance_fraction
    if tau < sf:
        return True, tau / sf
    return False, (tau - sf) / (1.0 - sf)


def phase_gain_contact(phi: float) -> float:
    """Contact weighting 0.5*[erf(phi/(s*sqrt2)) + erf((1-phi)/(s*sqrt2))].

    Near 1 in mid-contact, ~0.5 at either end of the contact subphase.
    """
    return 0.5 * (math.erf(phi / (_SIGMA * math.sqrt(2.0)))
                  + math.erf((1.0 - phi) / (_SIGMA * math.sqrt(2.0))))


def phase_gain_swing(phi: float) -> float:
    """Swing weighting 0.5*[2 + erf(-phi/(s*sqrt2)) + erf((phi-1)/(s*sqrt2))].

    Near 0 in mid-swing, ~0.5 at either end of the swing subphase.
    """
    return 0.5 * (2.0 + math.erf(-phi / (_SIGMA * math.sqrt(2.0)))
                  + math.erf((phi - 1.0) / (_SIGMA * math.sqrt(2.0))))


def total_weight(in_contact: bool, phi: float) -> float:
    """Total foot weight: contact gain when scheduled in contact, else swing gain."""
    return phase_gain_contact(phi) if in_contact else phase_gain_swing(phi)


def virtual_points(p_i: np.ndarray, p_prev: np.ndarray, p_next: np.ndarray,
                   weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Virtual points sliding between a foot and its two ring neighbors.

    Each point is weight*p_i + (1-weight)*p_neighbor, so it sits at the foot
    for weight=1 and at the neighbor for weight=0.
    """
    p_i = np.asarray(p_i, dtype=float)
    xi_minus = weight * p_i + (1.0 - weight) * np.asarray(p_prev, dtype=float)
    xi_plus = weight * p_i + (1.0 - weight) * np.asarray(p_next, dtype=float)
    return xi_minus, xi_plus


def polygon_vertex(p_i: np.ndarray, xi_minus: np.ndarray, xi_plus: np.ndarray,
                   w_i: float, w_prev: float, w_next: float) -> np.ndarray:
    """Predictive polygon vertex: weight-normalized blend of foot and virtual points."""
    denom = w_i + w_prev + w_next
    if denom <= _WEIGHT_EPS:
        raise DegenerateWeightsError("all three legs feeding this vertex are mid-swing")
    return (w_i * np.asarray(p_i, dtype=float)
            + w_prev * np.asarray(xi_minus, dtype=float)
            + w_next * np.asarray(xi_plus, dtype=float)) / denom


def support_polygon(feet_xy, weights) -> list[tuple[float, float]]:
    """All four predictive polygon vertices from foot positions and weights.

    ``feet_xy`` holds four rows in leg order FR, FL, BR, BL whose first two
    entries are the foot's x and y (a (4, 2) or (4, 3) array, or nested
    lists); ``weights`` holds the four foot weights. Returns the vertices as
    (x, y) tuples. Each vertex is :func:`virtual_points` then
    :func:`polygon_vertex` in Python floats, in the same operation order and
    so with the same bits: numpy's per-call cost would dominate at this size.
    """
    xy = [(float(p[0]), float(p[1])) for p in feet_xy]
    w = [float(x) for x in weights]
    verts = []
    for i in range(4):
        i_prev, i_next = _CW_NEXT[i], _CCW_NEXT[i]
        w_i, w_prev, w_next = w[i], w[i_prev], w[i_next]
        denom = w_i + w_prev + w_next
        if denom <= _WEIGHT_EPS:
            raise DegenerateWeightsError("all three legs feeding this vertex are mid-swing")
        w_rest = 1.0 - w_i
        vertex = []
        for p, p_prev, p_next in zip(xy[i], xy[i_prev], xy[i_next]):
            wp = w_i * p
            xi_minus = wp + w_rest * p_prev
            xi_plus = wp + w_rest * p_next
            vertex.append((wp + w_prev * xi_minus + w_next * xi_plus) / denom)
        verts.append(tuple(vertex))
    return verts


def desired_com(vertices) -> tuple[float, float]:
    """Desired CoM ground position (x, y): the arithmetic mean of the four
    polygon vertices, summed in order as ``np.mean(vertices, axis=0)`` does."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = vertices
    return (x0 + x1 + x2 + x3) / 4.0, (y0 + y1 + y2 + y3) / 4.0


def footstep(p_hip, t_stance: float, v_des, v, z0: float) -> tuple[float, float]:
    """Touchdown target (x, y) on the ground plane for one foot.

    Half-stance feedforward from the commanded velocity plus the
    inverted-pendulum velocity-feedback offset sqrt(z0/g)*(v - v_des),
    measured from the hip's ground projection, with g = :data:`~quadstack.balance.GRAVITY`.
    ``p_hip``, ``v_des`` and ``v`` are (x, y) pairs.
    """
    if not z0 > 0.0:
        raise ValueError("z0 must be positive")
    (hx, hy), (dx, dy), (vx, vy) = p_hip, v_des, v
    ff = 0.5 * t_stance
    fb = math.sqrt(z0 / GRAVITY)
    return hx + ff * dx + fb * (vx - dx), hy + ff * dy + fb * (vy - dy)
