"""Gait scheduling, phase weights, the virtual support polygon, and footsteps.

Legs are indexed 0=FR, 1=FL, 2=BR, 3=BL. Each leg runs an independent phase
clock with a per-leg offset; scheduled contact is a boolean derived from the
clock and the stance fraction. Phase weights are erf-shaped gains that fade
a leg's contribution to the support polygon in and out around contact
switches; their widths are configuration (the shape saturates quickly away
from transitions at the defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaitSchedule",
    "PhaseGainParams",
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

LEG_NAMES = ("FR", "FL", "BR", "BL")

# ring of legs counterclockwise viewed from above (x forward, y left):
# FR -> FL -> BL -> BR -> FR
_CCW_NEXT = {0: 1, 1: 3, 3: 2, 2: 0}
_CW_NEXT = {v: k for k, v in _CCW_NEXT.items()}


class DegenerateWeightsError(ValueError):
    """All weights feeding a polygon vertex are (numerically) zero."""


@dataclass
class GaitSchedule:
    """Periodic gait: per-leg phase offsets and a common stance fraction."""

    period: float
    offsets: tuple[float, float, float, float]
    stance_fraction: float
    name: str = "custom"

    def __post_init__(self):
        if self.period <= 0.0:
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
    "stand": ((0.0, 0.0, 0.0, 0.0), 0.999),  # legs practically never swing
}


def gait_preset(name: str, period: float = 0.4) -> GaitSchedule:
    """Built-in gaits: trot, pace, bound, stand."""
    try:
        offsets, stance = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown gait preset {name!r}; choose from {sorted(_PRESETS)}") from None
    return GaitSchedule(period=period, offsets=offsets, stance_fraction=stance, name=name)


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


@dataclass
class PhaseGainParams:
    """erf widths for the contact/swing weighting gains (all positive)."""

    sigma_c0: float = 0.1
    sigma_c1: float = 0.1
    sigma_s0: float = 0.1
    sigma_s1: float = 0.1

    def __post_init__(self):
        if min(self.sigma_c0, self.sigma_c1, self.sigma_s0, self.sigma_s1) <= 0.0:
            raise ValueError("erf widths must be positive")


def phase_gain_contact(phi: float, p: PhaseGainParams) -> float:
    """Contact weighting 0.5*[erf(phi/(s0*sqrt2)) + erf((1-phi)/(s1*sqrt2))].

    Near 1 in mid-contact, ~0.5 at either end of the contact subphase.
    """
    return 0.5 * (math.erf(phi / (p.sigma_c0 * math.sqrt(2.0)))
                  + math.erf((1.0 - phi) / (p.sigma_c1 * math.sqrt(2.0))))


def phase_gain_swing(phi: float, p: PhaseGainParams) -> float:
    """Swing weighting 0.5*[2 + erf(-phi/(s0*sqrt2)) + erf((phi-1)/(s1*sqrt2))].

    Near 0 in mid-swing, ~0.5 at either end of the swing subphase.
    """
    return 0.5 * (2.0 + math.erf(-phi / (p.sigma_s0 * math.sqrt(2.0)))
                  + math.erf((phi - 1.0) / (p.sigma_s1 * math.sqrt(2.0))))


def total_weight(in_contact: bool, phi: float, p: PhaseGainParams) -> float:
    """Total foot weight: contact gain when scheduled in contact, else swing gain."""
    return phase_gain_contact(phi, p) if in_contact else phase_gain_swing(phi, p)


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
                   w_i: float, w_prev: float, w_next: float,
                   eps: float = 1e-9) -> np.ndarray:
    """Predictive polygon vertex: weight-normalized blend of foot and virtual points."""
    denom = w_i + w_prev + w_next
    if denom <= eps:
        raise DegenerateWeightsError("all three legs feeding this vertex are mid-swing")
    return (w_i * np.asarray(p_i, dtype=float)
            + w_prev * np.asarray(xi_minus, dtype=float)
            + w_next * np.asarray(xi_plus, dtype=float)) / denom


def support_polygon(feet_xy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All four predictive polygon vertices from foot positions and weights.

    ``feet_xy`` is (4, 2) in leg order FR, FL, BR, BL; ``weights`` is (4,).
    """
    feet_xy = np.asarray(feet_xy, dtype=float).reshape(4, 2)
    weights = np.asarray(weights, dtype=float).reshape(4)
    verts = np.zeros((4, 2))
    for i in range(4):
        i_prev, i_next = _CW_NEXT[i], _CCW_NEXT[i]
        xi_m, xi_p = virtual_points(feet_xy[i], feet_xy[i_prev], feet_xy[i_next], weights[i])
        verts[i] = polygon_vertex(feet_xy[i], xi_m, xi_p,
                                  weights[i], weights[i_prev], weights[i_next])
    return verts


def desired_com(vertices: np.ndarray) -> np.ndarray:
    """Desired CoM ground position: arithmetic mean of the polygon vertices."""
    return np.mean(np.asarray(vertices, dtype=float).reshape(4, 2), axis=0)


def footstep(p_hip: np.ndarray, t_stance: float, v_des: np.ndarray, v: np.ndarray,
             z0: float, g: float = 9.81) -> np.ndarray:
    """Touchdown target on the ground plane for one foot.

    Half-stance feedforward from the commanded velocity plus the
    inverted-pendulum velocity-feedback offset sqrt(z0/g)*(v - v_des),
    measured from the hip's ground projection.
    """
    if z0 <= 0.0 or g <= 0.0:
        raise ValueError("z0 and g must be positive")
    p_hip = np.asarray(p_hip, dtype=float).reshape(2)
    v_des = np.asarray(v_des, dtype=float).reshape(2)
    v = np.asarray(v, dtype=float).reshape(2)
    return p_hip + 0.5 * t_stance * v_des + np.sqrt(z0 / g) * (v - v_des)
