"""Force-based balance and landing control.

A PD law on CoM position and body orientation produces desired linear and
angular accelerations; the linear force/moment model

    A F = [ sum_i F_i ; sum_i (p_i - p_c) x F_i ]

maps the stacked foot forces to the body wrench, and a QP distributes the
forces. The cost trades off tracking the desired wrench, force magnitude,
and change from the previous solution; constraints keep each stance force
inside its friction pyramid and normal-force bounds, and swing feet carry
exactly zero force.

The same controller doubles as the landing controller: the caller sets the
stance mask from detected contacts, and swing legs stay force-free until
their own touchdown.

:meth:`BalanceController.compute` runs in one pass from the state to the
QP. The PD law returns floats, which the force model reads as they are;
the force map is built on the stance legs' columns only, in the Fortran
layout that a column gather of the 6x12 map has, and the swing legs'
variables never exist. The products whose rounding sets the forces' bits
stay BLAS and LAPACK calls: R_d R^T, R omega, R I R^T, I_w acc_ang,
A_s^T S A_s and A_s^T (S b_d), as ``ndarray.dot`` (the kernel ``@`` runs,
with less dispatch), and the solver's ``dpotrf`` and ``dtrtrs``. A
C-ordered A_s would change the bits of A_s^T S A_s.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import so3
from .qpsolver import ActiveSetSolver, QpProblem, QpStatus
from .state import DesiredState, RobotState, unchecked

__all__ = [
    "BodyModel",
    "FrictionSpec",
    "ForceDistributionError",
    "pd_wrench",
    "build_force_model",
    "BalanceController",
    "balance_qp",
]

GRAVITY = 9.81                      # m/s^2, magnitude of the gravitational acceleration
GRAVITY_W = np.array([0.0, 0.0, -GRAVITY])   # the same, as a world-frame vector
GRAVITY_W.setflags(write=False)
_GRAVITY_XYZ = tuple(GRAVITY_W.tolist())
MU = 0.6                            # friction coefficient of every stance pyramid

# diagonals of the PD gains on the CoM position and the body orientation,
# and the force QP's weights: S on the wrench error, alpha on |F|^2, beta on
# |F - F_prev|^2
_KP_POS = (50.0, 50.0, 120.0)
_KD_POS = (15.0, 15.0, 25.0)
_KP_ORN = (300.0, 300.0, 200.0)
_KD_ORN = (40.0, 40.0, 30.0)
_S_WEIGHT = np.diag([1.0, 1.0, 1.0, 20.0, 20.0, 10.0])
_ALPHA = 1e-4
_BETA = 1e-4


class ForceDistributionError(RuntimeError):
    """The force QP ended without an optimum (infeasible, iteration limit, dependent rows)."""


@dataclass
class BodyModel:
    """Mass and centroidal inertia (body frame); gravity is :data:`GRAVITY_W`."""

    mass: float = 45.0
    inertia: np.ndarray = field(default_factory=lambda: np.diag([0.35, 2.1, 2.1]))

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.mass!r}")
        if not np.isfinite(self.inertia).all():
            raise ValueError(f"inertia must be finite, got {self.inertia.tolist()!r}")
        # an inertia of no rigid body steps with a drifting rate and no error;
        # the Cholesky factor exists only for a positive definite one
        not_spd = f"inertia must be symmetric positive definite, got {self.inertia.tolist()!r}"
        if (self.inertia != self.inertia.T).any():
            raise ValueError(not_spd)
        try:
            np.linalg.cholesky(self.inertia)
        except np.linalg.LinAlgError:
            raise ValueError(not_spd) from None

    def inertia_world(self, r: np.ndarray) -> np.ndarray:
        """R I R^T for a (3, 3) float array R."""
        return r.dot(self.inertia).dot(r.T)

    @property
    def weight(self) -> float:
        return self.mass * float(np.linalg.norm(GRAVITY_W))


@dataclass
class FrictionSpec:
    mu: float = MU
    f_min: float = 0.0
    f_max: float = 500.0

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not (0.0 < self.mu < math.inf and 0.0 <= self.f_min < self.f_max):
            raise ValueError(f"need a finite mu > 0 and 0 <= f_min < f_max, got {self!r}")


def pd_wrench(state: RobotState, des: DesiredState) -> tuple[list[float], list[float]]:
    """Desired linear and angular accelerations from the PD law, as two
    lists of three floats.

    Orientation feedback acts on log(R_d R^T), a world-frame axis-angle
    error, and the target body rate is zero; both outputs vanish when the
    state matches the target.

    The gains are diagonal: each output entry is one product per term, in
    floats, and ``+ 0.0`` gives a zero entry the +0.0 of a gain matrix's
    product. log(R_d R^T) is :func:`so3.log_map`'s scalar path; its near-pi
    branch calls ``log_map``. R_d R^T and the world rate R omega stay BLAS
    products.
    """
    err = des.rot.dot(state.rot.T)
    err_rot = so3._log_rows(err.tolist())
    if err_rot is None:
        err_rot = so3.log_map(err).tolist()
    acc_lin = [kp * (d - p) + kd * (dv - v) + 0.0 for kp, kd, d, p, dv, v in zip(
        _KP_POS, _KD_POS, des.pos.tolist(), state.pos.tolist(),
        des.vel.tolist(), state.vel.tolist())]
    # 0.0 - w, not -w: the rate error keeps the signed zeros of a zero target
    acc_ang = [kp * e + kd * (0.0 - w) + 0.0 for kp, kd, e, w in zip(
        _KP_ORN, _KD_ORN, err_rot, state.omega_world().tolist())]
    return acc_lin, acc_ang


def build_force_model(p_c: np.ndarray, feet: np.ndarray, model: BodyModel,
                      acc_lin: Sequence[float], acc_ang: Sequence[float], r: np.ndarray,
                      legs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Force/moment map A_s (6 x 3 len(legs)) of the stance legs ``legs``
    and target wrench b_d (6,).

    A_s holds the columns of A = [I I I I; hat(p_1 - p_c) ... hat(p_4 - p_c)]
    that the legs' forces multiply, in Fortran order, the layout a column
    gather ``A[:, cols]`` gives: the QP's products read it as such, and a
    C-ordered A_s changes their bits. The columns are written from the
    lever arms computed as floats, the same bits as :func:`so3.hat` of the
    array difference. b_d = [m (acc_lin - g); I_w acc_ang] with the inertia
    rotated to the world frame by ``r``; its force rows are taken in
    floats, the moment rows stay a BLAS product. ``p_c`` is a (3,) and
    ``feet`` a (4, 3) float array.
    """
    px, py, pz = p_c.tolist()
    rows = feet.tolist()
    cols = []
    for leg in legs:
        fx, fy, fz = rows[leg]
        x, y, z = fx - px, fy - py, fz - pz
        # the leg's three columns: e_k over the k-th column of hat(p_leg - p_c)
        cols += (1.0, 0.0, 0.0, 0.0, z, -y,
                 0.0, 1.0, 0.0, -z, 0.0, x,
                 0.0, 0.0, 1.0, y, -x, 0.0)
    a_s = np.array(cols).reshape(-1, 6).T
    ax, ay, az = acc_lin
    gx, gy, gz = _GRAVITY_XYZ
    m = model.mass
    b_d = np.array([m * (ax - gx), m * (ay - gy), m * (az - gz),
                    *model.inertia_world(r).dot(np.array(acc_ang, dtype=float)).tolist()])
    return a_s, b_d


@functools.lru_cache(maxsize=64)
def _friction_rows(n_stance: int, mu: float, f_min: float, f_max: float):
    """Pyramid and normal-bound rows C F <= d for n_stance feet and the rows'
    norms, read-only."""
    block = np.array([[1.0, 0.0, -mu], [0.0, 1.0, -mu], [-1.0, 0.0, -mu],
                      [0.0, -1.0, -mu], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    rows = np.zeros((n_stance, 6, n_stance, 3))
    feet = np.arange(n_stance)
    rows[feet, :, feet, :] = block  # one block per foot on the diagonal
    rows = rows.reshape(6 * n_stance, 3 * n_stance)
    rhs = np.tile([0.0, 0.0, 0.0, 0.0, f_max, -f_min], n_stance)
    norms = np.linalg.norm(rows, axis=1)
    for x in (rows, rhs, norms):
        x.setflags(write=False)
    return rows, rhs, norms


def _friction_qp(h: np.ndarray, g: np.ndarray, friction: FrictionSpec) -> QpProblem:
    """The QP min 1/2 F^T h F + g^T F over the forces of g.size / 3 stance
    feet, under their cached friction-pyramid and normal-bound rows, with
    the rows' cached norms; ``h`` and ``g`` are already float arrays of the
    shapes QpProblem checks."""
    c_ineq, d_ineq, norms = _friction_rows(g.size // 3, friction.mu, friction.f_min,
                                           friction.f_max)
    qp = unchecked(QpProblem, h=h, g=g, c_ineq=c_ineq, d_ineq=d_ineq)
    qp.row_norms = norms
    return qp


@functools.lru_cache(maxsize=16)
def _stance_cols(legs: tuple[int, ...]) -> np.ndarray:
    """Indices of the legs' force components in F (12,), read-only."""
    cols = np.array([3 * i + k for i in legs for k in range(3)])
    cols.setflags(write=False)
    return cols


def balance_qp(a_s: np.ndarray, b_d: np.ndarray, f_prev: np.ndarray,
               friction: FrictionSpec, legs: tuple[int, ...],
               solver: ActiveSetSolver) -> np.ndarray:
    """Distribute foot forces minimizing the weighted wrench error.

    min (A F - b_d)^T S (A F - b_d) + alpha |F|^2 + beta |F - F_prev|^2
    s.t. friction pyramid and normal bounds per stance foot; F = 0 on swing
    feet. Only the stance legs ``legs`` have variables: ``a_s`` is A on
    their force columns (see :func:`build_force_model`), ``f_prev`` the
    previous F (12,), and the swing legs' entries of the returned F (12,)
    are exact zeros.

    A QP that ends without an optimum (infeasible, iteration limit,
    dependent working set) raises :class:`ForceDistributionError`.
    """
    if not legs:
        raise ValueError("at least one stance leg required")
    cols = _stance_cols(legs)
    n = cols.size
    # 2 (A_s^T S A_s + (alpha + beta) I), with the identity added in place
    h = a_s.T.dot(_S_WEIGHT).dot(a_s)
    h.ravel()[::n + 1] += _ALPHA + _BETA
    h *= 2.0
    g = -2.0 * (a_s.T.dot(_S_WEIGHT.dot(b_d)) + _BETA * f_prev[cols])
    res = solver.solve(_friction_qp(h, g, friction))
    if res.status is not QpStatus.OPTIMAL:
        raise ForceDistributionError(f"force QP failed with status {res.status}")

    f = np.zeros(12)
    f[cols] = res.x
    return f


class BalanceController:
    """Stateful wrapper owning the previous solution ``f_prev``, the reference of the beta term."""

    def __init__(self, model: BodyModel, friction: FrictionSpec | None = None):
        self.model = model
        self.friction = friction or FrictionSpec()
        self.f_prev = np.zeros(12)
        self._solver = ActiveSetSolver()

    def compute(self, state: RobotState, des: DesiredState,
                stance_mask: np.ndarray) -> np.ndarray:
        """The forces F (12,) for ``state`` under the (4,) stance mask: the
        PD law, the force map on the stance legs and the QP in one pass."""
        legs = tuple(compress(range(4), np.asarray(stance_mask, dtype=bool).reshape(4).tolist()))
        acc_lin, acc_ang = pd_wrench(state, des)
        a_s, b_d = build_force_model(state.pos, state.feet, self.model,
                                     acc_lin, acc_ang, state.rot, legs)
        self.f_prev = f = balance_qp(a_s, b_d, self.f_prev, self.friction, legs,
                                     self._solver)
        return f

