"""Convex model-predictive ground-force planning over linearized SRB dynamics.

State per step is the 12-vector [p, rpy, v, omega_w]: world position,
small-angle roll/pitch/yaw, world velocity, world angular rate. The
dynamics are linearized about the level, unyawed body and a reference
position trajectory:

    p+     = p + dt v + dt^2/2 (sum f / m + g)
    rpy+   = rpy + dt omega_w
    v+     = v + dt (sum f / m + g)
    omega+ = omega + dt I^-1 sum (p_f - p_ref) x f

with I the body inertia. Force columns of swing feet are zero by
construction. The horizon problem is condensed onto
the stance forces and handed to the dense dual active-set QP solver together
with per-step friction pyramids and normal-force bounds; the returned plan
covers the whole horizon and the caller applies the first step.

Within one plan A and c are fixed, and A = I + N with N^2 = 0 (N holds only
the two dt I blocks), so the condensation is closed-form: A^l = I + l N,
and every force block of the prediction is B_i + l N B_i, formed for all steps
and feet in one batched pass. ``linearize_srbd``, ``rollout`` and
``plan_cost`` take the same dynamics one step at a time; they are the
independent oracle the condensation is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .balance import GRAVITY_W, BodyModel, FrictionSpec, _friction_qp
from .qpsolver import ActiveSetSolver, QpStatus

__all__ = ["MpcConfig", "MpcInfeasibleError", "linearize_srbd", "solve_mpc",
           "rollout", "plan_cost"]

NX = 12
DT = 0.03   # s per horizon step
# state weight of every step and force weight (times the identity)
_Q_WEIGHT = np.diag([50.0, 50.0, 800.0, 400.0, 400.0, 100.0,
                     60.0, 60.0, 80.0, 4.0, 4.0, 4.0])
_R_WEIGHT = 1e-6


class MpcInfeasibleError(RuntimeError):
    """The condensed force QP was infeasible."""


@dataclass
class MpcConfig:
    """One horizon of k = len(x_ref) steps of :data:`DT` seconds."""

    x_ref: np.ndarray                     # (k, 12) target states for steps 1..k
    contact: np.ndarray                   # (k, 4) scheduled contact per step
    feet: np.ndarray                      # (k, 4, 3) foot positions per step
    p_nom: np.ndarray                     # (k, 3) positions for the moment arms
    model: BodyModel = field(default_factory=BodyModel)

    def __post_init__(self):
        self.x_ref = np.asarray(self.x_ref, dtype=float).reshape(-1, NX)
        k = self.horizon
        if k < 1:
            raise ValueError("horizon must be at least 1")
        self.contact = np.asarray(self.contact, dtype=bool).reshape(k, 4)
        self.feet = np.asarray(self.feet, dtype=float).reshape(k, 4, 3)
        self.p_nom = np.asarray(self.p_nom, dtype=float).reshape(k, 3)

    @property
    def horizon(self) -> int:
        return len(self.x_ref)


def linearize_srbd(feet: np.ndarray, model: BodyModel, dt: float, contact: np.ndarray,
                   p_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step linear dynamics (A, B, c): x+ = A x + B u + c.

    ``feet`` is (4, 3), ``contact`` the per-foot booleans, ``p_ref`` the
    position the moment arms are taken about. B columns of swing feet are
    zero. Gravity enters through ``c``.
    """
    feet = np.asarray(feet, dtype=float).reshape(4, 3)
    contact = np.asarray(contact, dtype=bool).reshape(4)
    p_ref = np.asarray(p_ref, dtype=float).reshape(3)
    i_inv = np.linalg.inv(model.inertia)
    m = model.mass

    a = np.eye(NX)
    a[0:3, 6:9] = dt * np.eye(3)
    a[3:6, 9:12] = dt * np.eye(3)

    b = np.zeros((NX, 12))
    for i in range(4):
        if not contact[i]:
            continue
        cols = slice(3 * i, 3 * i + 3)
        b[0:3, cols] = 0.5 * dt * dt / m * np.eye(3)
        b[6:9, cols] = dt / m * np.eye(3)
        b[9:12, cols] = dt * (i_inv @ so3.hat(feet[i] - p_ref))

    c = np.zeros(NX)
    c[0:3] = 0.5 * dt * dt * GRAVITY_W
    c[6:9] = dt * GRAVITY_W
    return a, b, c


@functools.lru_cache(maxsize=16)
def _horizon_tables(k: int, dt: float, mass: float, inertia: tuple[float, ...]):
    """The parts of the condensation that depend only on the horizon, the
    step and the model, read-only: I^-1, N, ``sx``, ``sc``, the steps
    0..k-1 and the two constant force blocks of B, (3, 1, 3) each."""
    i_inv = np.linalg.inv(np.array(inertia).reshape(3, 3))
    n_mat = np.zeros((NX, NX))
    n_mat[0:3, 6:9] = dt * np.eye(3)
    n_mat[3:6, 9:12] = dt * np.eye(3)
    c = np.zeros(NX)
    c[0:3] = 0.5 * dt * dt * GRAVITY_W
    c[6:9] = dt * GRAVITY_W
    steps = np.arange(1.0, k + 1.0)
    sx = (np.eye(NX) + steps[:, None, None] * n_mat).reshape(k * NX, NX)
    sc = (steps[:, None] * c + (0.5 * steps * (steps - 1.0))[:, None] * (n_mat @ c)).reshape(-1)
    b_pos = 0.5 * dt * dt / mass * np.eye(3)[:, None]
    b_vel = dt / mass * np.eye(3)[:, None]
    tables = i_inv, n_mat, sx, sc, np.arange(k), b_pos, b_vel
    for x in tables:
        x.setflags(write=False)
    return tables


def _condense(cfg: MpcConfig):
    """Stack x_1..x_k as X = sx @ x0 + su @ U + sc over the stance force columns.

    A = I + N with N^2 = 0, so A^l = I + l N: row block j of ``sx`` is
    I + (j+1) N, and the block of step j in the columns of a force applied at
    step i <= j is A^(j-i) B_i = B_i + (j-i) N B_i. The columns follow the
    row-major order of ``cfg.contact``.
    """
    k, dt = cfg.horizon, DT
    i_inv, n_mat, sx, sc, step_of_row, b_pos, b_vel = _horizon_tables(
        k, dt, cfg.model.mass, tuple(cfg.model.inertia.ravel().tolist()))
    step, foot = np.nonzero(cfg.contact)
    arm = cfg.feet[step, foot] - cfg.p_nom[step]
    hats = np.zeros((step.size, 3, 3))  # so3.hat of each moment arm
    hats[:, (2, 0, 1), (1, 2, 0)] = arm
    hats[:, (1, 2, 0), (2, 0, 1)] = -arm
    b = np.zeros((NX, step.size, 3))  # B_i in the columns of each stance force
    b[0:3] = b_pos
    b[6:9] = b_vel
    b[9:12] = dt * (i_inv @ hats).transpose(1, 0, 2)
    b = b.reshape(NX, 3 * step.size)
    lag = (step_of_row[:, None] - step.repeat(3))[:, None, :]  # (k, 1, nu)
    su = np.where(lag >= 0, b + lag * (n_mat @ b), 0.0)
    return sx, su.reshape(k * NX, 3 * step.size), sc


def solve_mpc(cfg: MpcConfig, x0: np.ndarray, friction: FrictionSpec) -> np.ndarray:
    """Plan stance forces over the horizon; returns a (k, 12) array.

    Swing-foot entries are exactly zero (their variables are eliminated).
    Raises :class:`MpcInfeasibleError` if the force QP has no feasible
    point under the friction pyramid and bounds.
    """
    x0 = np.asarray(x0, dtype=float).reshape(NX)
    k = cfg.horizon
    plan = np.zeros((k, 4, 3))
    sx, su, sc = _condense(cfg)
    nu = su.shape[1]
    if nu == 0:
        return plan.reshape(k, 12)  # full flight

    # the state cost is block-diagonal in the steps: sum_j su_j^T Q su_j
    resid0 = (sx @ x0 + sc - cfg.x_ref.reshape(-1)).reshape(k, NX)
    h = 2.0 * (su.T @ (_Q_WEIGHT @ su.reshape(k, NX, nu)).reshape(k * NX, nu))
    h.ravel()[::nu + 1] += 2.0 * _R_WEIGHT  # the diagonal, in place
    g = 2.0 * (su.T @ (resid0 @ _Q_WEIGHT.T).reshape(-1))

    # friction pyramid and bounds per stance force block
    res = ActiveSetSolver().solve(_friction_qp(h, g, friction))
    if res.status is not QpStatus.OPTIMAL:
        raise MpcInfeasibleError(f"force plan QP returned {res.status}")
    plan[cfg.contact] = res.x.reshape(-1, 3)
    return plan.reshape(k, 12)


def rollout(cfg: MpcConfig, x0: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Predicted states x_1..x_k under the linearized dynamics and a force plan."""
    x = np.asarray(x0, dtype=float).reshape(NX)
    out = np.zeros((cfg.horizon, NX))
    for i in range(cfg.horizon):
        a, b, c = linearize_srbd(cfg.feet[i], cfg.model, DT, cfg.contact[i], cfg.p_nom[i])
        x = a @ x + b @ np.asarray(plan[i], dtype=float) + c
        out[i] = x
    return out


def plan_cost(cfg: MpcConfig, x0: np.ndarray, plan: np.ndarray) -> float:
    """Objective value of a force plan under the configured weights."""
    xs = rollout(cfg, x0, plan)
    j = 0.0
    for i in range(cfg.horizon):
        e = xs[i] - cfg.x_ref[i]
        u = np.asarray(plan[i], dtype=float)
        j += float(e @ _Q_WEIGHT @ e + (_R_WEIGHT * u) @ u)
    return j
