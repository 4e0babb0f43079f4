"""Convex model-predictive ground-force planning over linearized SRB dynamics.

State per step is the 12-vector [p, rpy, v, omega_w]: world position,
small-angle roll/pitch about the operating yaw, world velocity, world
angular rate. The dynamics are linearized about the operating yaw and a
reference position trajectory:

    p+     = p + dt v + dt^2/2 (sum f / m + g)
    rpy+   = rpy + dt Rz(yaw)^T omega_w
    v+     = v + dt (sum f / m + g)
    omega+ = omega + dt I_w^-1 sum (p_f - p_ref) x f

with I_w the body inertia rotated by the operating yaw. Force columns of
swing feet are zero by construction. The horizon problem is condensed onto
the stance forces and handed to the dense dual active-set QP solver together
with per-step friction pyramids and normal-force bounds; the returned plan
covers the whole horizon and the caller applies the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3
from .balance import BodyModel, FrictionSpec, _friction_rows
from .qpsolver import ActiveSetSolver, QpProblem, QpStatus

__all__ = ["MpcConfig", "MpcInfeasibleError", "linearize_srbd", "solve_mpc",
           "rollout", "plan_cost"]

NX = 12


class MpcInfeasibleError(RuntimeError):
    """The condensed force QP was infeasible."""


@dataclass
class MpcConfig:
    horizon: int
    dt: float
    q_weight: np.ndarray                  # (12, 12) state weight of every step
    r_weight: float                       # force weight, times the identity
    x_ref: np.ndarray                     # (k, 12) target states for steps 1..k
    contact: np.ndarray                   # (k, 4) scheduled contact per step
    feet: np.ndarray                      # (k, 4, 3) foot positions per step
    op_yaw: float = 0.0
    model: BodyModel = field(default_factory=BodyModel)
    p_nom: np.ndarray | None = None       # (k, 3) positions for the moment arms;
                                          # defaults to the x_ref positions

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        k = self.horizon
        self.q_weight = np.asarray(self.q_weight, dtype=float).reshape(NX, NX)
        self.r_weight = float(self.r_weight)
        self.x_ref = np.asarray(self.x_ref, dtype=float).reshape(k, NX)
        self.contact = np.asarray(self.contact, dtype=bool).reshape(k, 4)
        self.feet = np.asarray(self.feet, dtype=float).reshape(k, 4, 3)
        if self.p_nom is not None:
            self.p_nom = np.asarray(self.p_nom, dtype=float).reshape(k, 3)


def linearize_srbd(op_yaw: float, feet: np.ndarray, model: BodyModel, dt: float,
                   contact: np.ndarray, p_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step linear dynamics (A, B, c): x+ = A x + B u + c.

    ``feet`` is (4, 3), ``contact`` the per-foot booleans, ``p_ref`` the
    position the moment arms are taken about. B columns of swing feet are
    zero. Gravity enters through ``c``.
    """
    feet = np.asarray(feet, dtype=float).reshape(4, 3)
    contact = np.asarray(contact, dtype=bool).reshape(4)
    p_ref = np.asarray(p_ref, dtype=float).reshape(3)
    rz = so3.rot_z(op_yaw)
    i_world = rz @ model.inertia @ rz.T
    i_inv = np.linalg.inv(i_world)
    m = model.mass

    a = np.eye(NX)
    a[0:3, 6:9] = dt * np.eye(3)
    a[3:6, 9:12] = dt * rz.T

    b = np.zeros((NX, 12))
    for i in range(4):
        if not contact[i]:
            continue
        cols = slice(3 * i, 3 * i + 3)
        b[0:3, cols] = 0.5 * dt * dt / m * np.eye(3)
        b[6:9, cols] = dt / m * np.eye(3)
        b[9:12, cols] = dt * (i_inv @ so3.hat(feet[i] - p_ref))

    c = np.zeros(NX)
    c[0:3] = 0.5 * dt * dt * model.g_vec
    c[6:9] = dt * model.g_vec
    return a, b, c


def _condense(cfg: MpcConfig, x0: np.ndarray):
    """Stack x_1..x_k as X = sx @ x0 + su @ U + sc over the active force columns."""
    k = cfg.horizon
    mats = []
    for i in range(k):
        p_arm = cfg.x_ref[i, 0:3] if cfg.p_nom is None else cfg.p_nom[i]
        mats.append(linearize_srbd(cfg.op_yaw, cfg.feet[i], cfg.model, cfg.dt,
                                   cfg.contact[i], p_arm))

    active = []  # (step, foot) pairs owning force variables
    col_of = {}
    for i in range(k):
        for f in range(4):
            if cfg.contact[i, f]:
                col_of[(i, f)] = 3 * len(active)
                active.append((i, f))
    nu = 3 * len(active)

    sx = np.zeros((k * NX, NX))
    su = np.zeros((k * NX, nu))
    sc = np.zeros(k * NX)
    # build row blocks iteratively: x_{i+1} = A_i x_i + B_i u_i + c_i
    prev_rows_x = np.eye(NX)
    prev_rows_u = np.zeros((NX, nu))
    prev_rows_c = np.zeros(NX)
    for i in range(k):
        a, b, c = mats[i]
        rows_x = a @ prev_rows_x
        rows_u = a @ prev_rows_u
        for f in range(4):
            if cfg.contact[i, f]:
                rows_u[:, col_of[(i, f)]:col_of[(i, f)] + 3] += b[:, 3 * f:3 * f + 3]
        rows_c = a @ prev_rows_c + c
        sx[i * NX:(i + 1) * NX] = rows_x
        su[i * NX:(i + 1) * NX] = rows_u
        sc[i * NX:(i + 1) * NX] = rows_c
        prev_rows_x, prev_rows_u, prev_rows_c = rows_x, rows_u, rows_c
    return sx, su, sc, active, col_of, nu


def solve_mpc(cfg: MpcConfig, x0: np.ndarray, friction: FrictionSpec) -> np.ndarray:
    """Plan stance forces over the horizon; returns a (k, 12) array.

    Swing-foot entries are exactly zero (their variables are eliminated).
    Raises :class:`MpcInfeasibleError` if the force QP has no feasible
    point under the friction pyramid and bounds.
    """
    x0 = np.asarray(x0, dtype=float).reshape(NX)
    sx, su, sc, active, col_of, nu = _condense(cfg, x0)
    k = cfg.horizon

    if nu == 0:
        return np.zeros((k, 12))  # full flight

    q_bar = np.zeros((k * NX, k * NX))
    for i in range(k):
        q_bar[i * NX:(i + 1) * NX, i * NX:(i + 1) * NX] = cfg.q_weight
    r_bar = cfg.r_weight * np.eye(nu)

    resid0 = sx @ x0 + sc - cfg.x_ref.reshape(-1)
    h = 2.0 * (su.T @ q_bar @ su + r_bar)
    g = 2.0 * (su.T @ (q_bar @ resid0))

    # friction pyramid and bounds per active force block
    c_ineq, d_ineq = _friction_rows(len(active), friction.mu, friction.f_min,
                                    friction.f_max)
    qp = QpProblem(h=h, g=g, c_ineq=c_ineq, d_ineq=d_ineq)
    res = ActiveSetSolver().solve(qp)
    if res.status is not QpStatus.OPTIMAL:
        raise MpcInfeasibleError(f"force plan QP returned {res.status}")

    plan = np.zeros((k, 12))
    for idx, (i, f) in enumerate(active):
        plan[i, 3 * f:3 * f + 3] = res.x[3 * idx:3 * idx + 3]
    return plan


def rollout(cfg: MpcConfig, x0: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Predicted states x_1..x_k under the linearized dynamics and a force plan."""
    x = np.asarray(x0, dtype=float).reshape(NX)
    out = np.zeros((cfg.horizon, NX))
    for i in range(cfg.horizon):
        p_arm = cfg.x_ref[i, 0:3] if cfg.p_nom is None else cfg.p_nom[i]
        a, b, c = linearize_srbd(cfg.op_yaw, cfg.feet[i], cfg.model, cfg.dt,
                                 cfg.contact[i], p_arm)
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
        j += float(e @ cfg.q_weight @ e + (cfg.r_weight * u) @ u)
    return j
