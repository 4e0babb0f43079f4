"""Contact-timing trajectory optimization over single-rigid-body dynamics.

Given a fixed contact sequence (phases, each with a stance-foot set and a
knot budget), this module optimizes the phase durations together with the
body trajectory and ground reaction forces. Orientation is carried as the
nine entries of a rotation matrix per knot; the manifold is enforced by the
equality constraint

    R_{k+1} = R_k * exp_taylor4(hat(Omega_k * h_i))

with the same degree-4 Taylor exponential exposed by :mod:`quadstack.so3`
(no explicit orthogonality constraints; the accumulated polynomial defect
is measured and reported). Translational and angular dynamics are
forward-Euler defects of

    p''  = sum_s f_s / m + g
    I Om' + Om x I Om = R^T sum_s f_s x (p - p_f^s)

Stance feet are phase parameters pinned at given world positions; flight
phases carry no force variables at all. Kinematic reach is kept by a
body-frame sphere constraint |R (p_f - p) - center|^2 <= r^2 at stance
knots, friction by the pyramid multiplied through the normal force
(requiring f_z >= f_min > 0 during stance), and the total duration by
T_min <= sum T_i <= T_max. Per-phase duration floors and an optional CoM
box during contact are variable bounds.

Problem size, for phases i = 1..n_p with N_i intervals and n_i stance feet
(N = sum N_i intervals, N + 1 knots):

    variables    18 (N + 1) + 3 sum_i N_i n_i + n_p
    equalities   18 + 12 + 18 N (+3 for the initial angular-acceleration pin
                 when the first phase has stance feet)
    inequalities 4 sum_i N_i n_i + sphere rows + 2

The solver is an augmented-Lagrangian outer loop over the equality and
inequality constraints. Each subproblem is solved over the variable bounds
by :func:`minimize`, the module's own projected Newton loop on
B = ∇²L + rho J^T S^2 J, which records why it stopped. Every nonlinear
term touches one knot, the forces of the interval it starts and one phase
duration, so J and ∇²L are computed block by block in closed form. J is
the one source of first derivatives: the AL gradient is ∇cost + J^T y,
formed from the same blocks at each accepted point, while line-search
trial points evaluate the merit value only. B is banded in a
knot-by-interval ordering, with the phase durations as a border. Returned
solutions are re-checked by an independent constraint evaluator that does
not share code with the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_solve, cho_solve_banded, cholesky_banded

from . import so3
from .balance import GRAVITY_W, MU, BodyModel
from .swing import HIP_OFFSETS

__all__ = [
    "ContactPhase",
    "JumpSpec",
    "SrbdState",
    "TimingSolution",
    "BodyReference",
    "SpecError",
    "NoConvergenceError",
    "srbd_residual",
    "rotation_defect",
    "trajectory_cost",
    "TimingProblem",
    "initial_guess",
    "solve_timing",
    "check_constraints",
    "export_reference",
]

_T_PHASE_MIN = 0.05   # vanishing phase guard, seconds
_EPS_OMEGA, _EPS_FORCE, _EPS_ROT = 1e-2, 1e-6, 1.0   # cost weights: rates, forces, rotation
F_MIN, F_MAX = 1.0, 700.0   # N, stance normal-force bounds; F_MIN > 0 as friction scales with f_z
_REFERENCE_DT = 0.01   # s, sample interval of the exported body reference

# augmented-Lagrangian outer loop
_TOL = 1e-5                         # target max constraint violation
_MAX_OUTER = 30
_ROW_NORM_MIN = 0.3                 # constraint row norms are clipped to
_ROW_NORM_MAX = 50.0                # [min, max] before they set the row scales

# projected-Newton inner solve
_MAX_INNER = 100                    # Newton steps per subproblem
_ACTIVE_MARGIN = 1e-6               # bound margin of the fixed set
_NEWTON_DECREMENT = 1e-14           # stop when -g.d <= this * max(1, |phi|)
_ARMIJO = 1e-4
_RHO0 = 10.0                        # first augmented-Lagrangian penalty
_RHO_GROWTH = 5.0                   # its growth factor, every second outer iteration
_RHO_MAX = 1e9
_MAX_BACKTRACKS = 40
_DELTA_FLOOR = 1e-12                # first damping, relative to the diagonal
_DELTA_MAX = 1e6                    # damping limit, relative to the diagonal


class SpecError(ValueError):
    """Inconsistent jump specification (phases, feet, bounds)."""


class NoConvergenceError(RuntimeError):
    """Solver stalled; carries diagnostics in ``args[1]``."""


@dataclass
class SrbdState:
    pos: np.ndarray
    vel: np.ndarray
    omega: np.ndarray   # body frame
    rot: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(3)
        self.vel = np.asarray(self.vel, dtype=float).reshape(3)
        self.omega = np.asarray(self.omega, dtype=float).reshape(3)
        self.rot = np.asarray(self.rot, dtype=float).reshape(3, 3)


@dataclass
class ContactPhase:
    feet: tuple[int, ...]          # stance foot indices, empty = flight
    n_knots: int = 30              # intervals in this phase
    t_min: float = _T_PHASE_MIN    # duration floor; the spec's t_max bounds it above
    feet_pos: np.ndarray | None = None   # world footholds; None = spec.feet_start

    def __post_init__(self):
        self.feet = tuple(int(f) for f in self.feet)
        if self.n_knots < 2:
            raise SpecError("each phase needs at least 2 intervals")
        if self.t_min < _T_PHASE_MIN:
            raise SpecError(f"phase duration floor {self.t_min} s is below {_T_PHASE_MIN} s")
        if self.feet_pos is not None:
            self.feet_pos = np.asarray(self.feet_pos, dtype=float).reshape(4, 3)


# body-frame centers of the feet's reachable spheres, 0.45 m below the hips
_SPHERE_CENTERS = HIP_OFFSETS - [0.0, 0.0, 0.45]


@dataclass
class JumpSpec:
    phases: list[ContactPhase]
    p_start: np.ndarray
    r_start: np.ndarray
    p_goal: np.ndarray
    r_goal: np.ndarray
    feet_start: np.ndarray                     # (4, 3) world stance positions
    t_min: float = 0.5
    t_max: float = 1.5
    sphere_radius: float = 0.16
    com_min: np.ndarray | None = None           # CoM box during contact phases
    com_max: np.ndarray | None = None
    v_goal: np.ndarray | None = None            # optional final-velocity pin
    omega_goal: np.ndarray | None = None        # optional final body-rate pin
    model: BodyModel = field(default_factory=BodyModel)

    def __post_init__(self):
        self.p_start = np.asarray(self.p_start, dtype=float).reshape(3)
        self.p_goal = np.asarray(self.p_goal, dtype=float).reshape(3)
        self.r_start = np.asarray(self.r_start, dtype=float).reshape(3, 3)
        self.r_goal = np.asarray(self.r_goal, dtype=float).reshape(3, 3)
        self.feet_start = np.asarray(self.feet_start, dtype=float).reshape(4, 3)
        if self.v_goal is not None:
            self.v_goal = np.asarray(self.v_goal, dtype=float).reshape(3)
        if self.omega_goal is not None:
            self.omega_goal = np.asarray(self.omega_goal, dtype=float).reshape(3)
        if not self.phases:
            raise SpecError("need at least one contact phase")
        if self.t_min >= self.t_max:
            raise SpecError("t_min must be below t_max")
        for ph in self.phases:
            if any(f < 0 or f > 3 for f in ph.feet):
                raise SpecError(f"bad foot index in phase {ph.feet}")
        if sum(ph.t_min for ph in self.phases) > self.t_max:
            raise SpecError("per-phase minimum durations exceed t_max")


@dataclass
class TimingSolution:
    durations: np.ndarray            # T_i per phase
    states: list[SrbdState]          # N + 1 knots
    forces: np.ndarray               # (N, 4, 3), zero on swing feet
    cost: float
    max_violation: float
    kkt_residual: float
    converged: bool
    outer_iterations: int
    ortho_defect: float              # max knot orthogonality defect
    trace: list                      # per outer: violation, rho, newton_steps, merit_evals, delta, stop


@dataclass
class BodyReference:
    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    rot: np.ndarray                  # (n, 3, 3)
    omega: np.ndarray
    forces: np.ndarray               # (n, 12)
    phase_times: np.ndarray          # cumulative phase end times


# -- per-step operations (also used by the independent checker) ------------


def srbd_residual(x_k: SrbdState, x_k1: SrbdState, f_k: np.ndarray,
                  feet: np.ndarray, h: float, model: BodyModel) -> np.ndarray:
    """Stacked forward-Euler defects of the velocity and body-rate rows.

    ``f_k`` is (4, 3) world GRFs (zero rows for swing feet), ``feet`` the
    (4, 3) world foot positions. Zero iff the step satisfies the discrete
    dynamics.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    f_k = np.asarray(f_k, dtype=float).reshape(4, 3)
    feet = np.asarray(feet, dtype=float).reshape(4, 3)
    u = f_k.sum(axis=0) / model.mass + GRAVITY_W
    c_vel = x_k1.vel - x_k.vel - h * u
    tau = np.zeros(3)
    for s in range(4):
        tau += np.cross(f_k[s], x_k.pos - feet[s])
    inertia = model.inertia
    om_dot = np.linalg.solve(inertia, x_k.rot.T @ tau - np.cross(x_k.omega, inertia @ x_k.omega))
    c_om = x_k1.omega - x_k.omega - h * om_dot
    return np.concatenate([c_vel, c_om])


def rotation_defect(r_k: np.ndarray, r_k1: np.ndarray, omega_k: np.ndarray,
                    h: float) -> np.ndarray:
    """Manifold defect R_{k+1} - R_k exp_taylor4(hat(omega_k h)); all 9 entries."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return np.asarray(r_k1, dtype=float) - np.asarray(r_k, dtype=float) @ so3.exp_taylor4(
        np.asarray(omega_k, dtype=float) * h)


def trajectory_cost(states: list[SrbdState], forces: np.ndarray,
                    ref_rots: list[np.ndarray], eps_omega: float,
                    eps_force: float, eps_rot: float) -> float:
    """Sum of weighted squared body rates, forces, and rotation errors."""
    j = 0.0
    for k, x in enumerate(states):
        j += eps_omega * float(x.omega @ x.omega)
        e = so3.log_map(np.asarray(ref_rots[k]).T @ x.rot)
        j += eps_rot * float(e @ e)
    f = np.asarray(forces, dtype=float)
    j += eps_force * float(np.sum(f * f))
    return j


# -- problem construction ---------------------------------------------------


class TimingProblem:
    """Packed NLP: decision vector, bounds, cost and constraints, and their
    exact derivatives block by block: the constraint Jacobian J, the
    Lagrangian Hessian and the Lagrangian gradient ∇cost + J^T y.

    Layout: knots [p v omega R(9)] x (N+1), then scaled stance forces
    (f / (m g)) per stance interval and foot, then phase durations.
    """

    def __init__(self, spec: JumpSpec):
        self.spec = spec
        self.n_phases = len(spec.phases)
        self.n_int = sum(ph.n_knots for ph in spec.phases)
        self.n_knots = self.n_int + 1

        # interval -> phase, and per-interval stance feet
        self.int_phase = np.zeros(self.n_int, dtype=int)
        j = 0
        for i, ph in enumerate(spec.phases):
            self.int_phase[j:j + ph.n_knots] = i
            j += ph.n_knots
        self.phase_nk = np.array([ph.n_knots for ph in spec.phases], dtype=float)
        self.int_feet = [spec.phases[self.int_phase[j]].feet for j in range(self.n_int)]
        # world foothold positions per interval (phases may override)
        self.phase_feet_pos = [
            spec.feet_start if ph.feet_pos is None else ph.feet_pos
            for ph in spec.phases
        ]
        self.int_feet_pos = np.stack([
            self.phase_feet_pos[self.int_phase[j]] for j in range(self.n_int)
        ])

        # force variables: 3 per (interval, stance foot), interval by interval
        self.fi_j = np.repeat(np.arange(self.n_int), [len(f) for f in self.int_feet])
        self.fi_f = np.array([f for feet in self.int_feet for f in feet], dtype=int)
        self.n_force = 3 * len(self.fi_j)

        # stance knots, knot by knot and foot by foot: a knot is contact-
        # constrained when an adjacent interval has stance feet; the interval
        # it starts gives the foothold, else the one it ends
        starts = np.zeros((self.n_knots, 4), dtype=bool)
        starts[self.fi_j, self.fi_f] = True
        stance = starts.copy()
        stance[1:] |= starts[:-1]
        self.sk_k, self.sk_f = np.divmod(np.flatnonzero(stance), 4)
        source = np.where(starts[self.sk_k, self.sk_f], self.sk_k, self.sk_k - 1)
        self.sk_pw = self.int_feet_pos[source, self.sk_f]
        # the first row of each stance knot
        self.sk_knots, self.sk_start = np.unique(self.sk_k, return_index=True)

        self.nf_off = 18 * self.n_knots
        self.nt_off = self.nf_off + self.n_force
        self.n_vars = self.nt_off + self.n_phases

        self.f_scale = spec.model.mass * abs(GRAVITY_W[2])
        self.ref_rots = np.stack([
            so3.interp_rotation(spec.r_start, spec.r_goal, k / self.n_int)
            for k in range(self.n_knots)
        ])
        # tables of _eval: component-major copies and per-interval phase data
        self.ref_rots_cm = self.ref_rots.transpose(1, 2, 0)                # (3, 3, n_knots)
        self.inertia_cm = spec.model.inertia[:, :, None]
        self.inv_inertia_cm = np.linalg.inv(spec.model.inertia)[:, :, None]
        self.feet_cm = self.int_feet_pos.transpose(2, 1, 0)                # (3, 4, N)
        self.item_slot = self.fi_f * self.n_int + self.fi_j
        self.sk_pw_cm = self.sk_pw.T
        self.sk_center_cm = _SPHERE_CENTERS[self.sk_f].T
        self.int_nk = self.phase_nk[self.int_phase]

        self.n_goal_twist = (3 if spec.v_goal is not None else 0) + \
            (3 if spec.omega_goal is not None else 0)
        self.n_head = 18 + 12 + self.n_goal_twist
        self.n_eq = self.n_head + 18 * self.n_int + (3 if self.int_feet[0] else 0)
        self.n_ineq = 4 * (self.n_force // 3) + len(self.sk_k) + 2
        self._block_layout()

    def _block_layout(self):
        """Rows and variables of the derivative blocks, one block per knot.

        Block j holds knot j and the stance forces of interval j (padded to
        ``block_size``), then knot j + 1, then the duration of interval j's
        phase; its rows are the defects of interval j, the angular-
        acceleration pin (block 0), the friction rows of interval j's forces
        and the sphere rows of knot j. ``block_rows`` and ``block_cols`` give
        the global row and variable of each local one, -1 for padding. The
        boundary rows pin one variable each with unit coefficient
        (``unit_rows`` on ``unit_vars``); the duration window rows are the
        last two.
        """
        n, n_items, nk = self.n_int, self.n_force // 3, self.n_knots
        ax = np.arange(3)
        slot = np.arange(n_items) - np.searchsorted(self.fi_j, self.fi_j)   # within its interval
        self.item_col = 18 + 3 * slot
        max_feet = max(len(f) for f in self.int_feet)
        self.block_size = bs = 18 + 3 * max_feet
        cols = np.full((nk, bs + 19), -1, dtype=np.int32)
        cols[:, :18] = 18 * np.arange(nk)[:, None] + np.arange(18)
        cols[self.fi_j[:, None], self.item_col[:, None] + ax] = \
            self.nf_off + 3 * np.arange(n_items)[:, None] + ax
        cols[:n, bs:bs + 18] = cols[1:, :18]
        cols[:n, -1] = self.nt_off + self.int_phase

        n_pin = 3 if self.int_feet[0] else 0
        fric0 = 18 + n_pin
        sph0 = fric0 + 4 * max_feet
        sk_slot = np.arange(len(self.sk_k)) - np.searchsorted(self.sk_k, self.sk_k)
        self.sk_row = sph0 + sk_slot
        rows = np.full((nk, sph0 + int(sk_slot.max(initial=-1)) + 1), -1, dtype=np.int32)
        o, j = self.n_head, np.arange(n)[:, None]
        for first, width in ((0, 3), (3, 3), (6, 3), (9, 9)):   # p, v, omega, R defects
            rows[:n, first:first + width] = o + width * j + np.arange(width)
            o += width * n
        rows[0, 18:fric0] = o + np.arange(n_pin)
        self.fric_row = fric0 + 4 * slot[:, None] + np.arange(4)
        rows[self.fi_j[:, None], self.fric_row] = self.n_eq + 4 * np.arange(n_items)[:, None] \
            + np.arange(4)
        rows[self.sk_k, self.sk_row] = self.n_eq + 4 * n_items + np.arange(len(self.sk_k))
        self.block_rows, self.block_cols = rows, cols

        # the local columns each local row may touch
        p, v, w, r, f = np.r_[0:3], np.r_[3:6], np.r_[6:9], np.r_[9:18], np.r_[18:bs]
        t = [bs + 18]
        pattern = np.zeros(rows.shape[1:] + cols.shape[1:], dtype=bool)
        for local, touched in ((np.r_[0:3], [p, v, bs + p, t]), (np.r_[3:6], [v, f, bs + v, t]),
                               (np.r_[6:9], [p, w, r, f, bs + w, t]),
                               (np.r_[9:18], [w, r, bs + r, t]), (np.r_[18:fric0], [p, w, r, f]),
                               (np.r_[fric0:sph0], [f]), (np.r_[sph0:rows.shape[1]], [p, r])):
            pattern[np.ix_(local, np.concatenate(touched))] = True
        self.block_pattern = pattern

        goal = [np.arange(3), np.arange(9, 18)]
        if self.spec.v_goal is not None:
            goal.append(np.arange(3, 6))
        if self.spec.omega_goal is not None:
            goal.append(np.arange(6, 9))
        self.unit_rows = np.arange(self.n_head)
        self.unit_vars = np.concatenate([np.arange(18), 18 * n + np.concatenate(goal)])

    # -- packing ------------------------------------------------------------

    def pack(self, pos, vel, omega, rots, forces, durations) -> np.ndarray:
        z = np.zeros(self.n_vars)
        knots = np.concatenate([
            np.asarray(pos).reshape(self.n_knots, 3),
            np.asarray(vel).reshape(self.n_knots, 3),
            np.asarray(omega).reshape(self.n_knots, 3),
            np.asarray(rots).reshape(self.n_knots, 9),
        ], axis=1)
        z[:self.nf_off] = knots.reshape(-1)
        forces = np.asarray(forces, dtype=float).reshape(self.n_int, 4, 3)
        z[self.nf_off:self.nt_off] = (forces[self.fi_j, self.fi_f] / self.f_scale).reshape(-1)
        z[self.nt_off:] = np.asarray(durations, dtype=float).reshape(self.n_phases)
        return z

    def unpack(self, z: np.ndarray):
        knots = z[:self.nf_off].reshape(self.n_knots, 18)
        pos = knots[:, 0:3]
        vel = knots[:, 3:6]
        omega = knots[:, 6:9]
        rots = knots[:, 9:18].reshape(self.n_knots, 3, 3)
        forces = np.zeros((self.n_int, 4, 3))
        if self.n_force:
            forces[self.fi_j, self.fi_f] = z[self.nf_off:self.nt_off].reshape(-1, 3) * self.f_scale
        durations = z[self.nt_off:].copy()
        return pos, vel, omega, rots, forces, durations

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper variable bounds."""
        spec = self.spec
        lo = np.full(self.n_vars, -np.inf)
        hi = np.full(self.n_vars, np.inf)
        lo_k, hi_k = (b[:self.nf_off].reshape(self.n_knots, 18) for b in (lo, hi))
        # rotation entries live in [-1, 1] up to the Taylor defect
        lo_k[:, 9:18], hi_k[:, 9:18] = -1.2, 1.2
        lo_k[:, 6:9], hi_k[:, 6:9] = -60.0, 60.0
        if spec.com_min is not None:
            lo_k[self.sk_knots, 0:3] = spec.com_min
        if spec.com_max is not None:
            hi_k[self.sk_knots, 0:3] = spec.com_max
        lo_f, hi_f = (b[self.nf_off:self.nt_off].reshape(-1, 3) for b in (lo, hi))
        lo_f[:, 0:2], hi_f[:] = -F_MAX / self.f_scale, F_MAX / self.f_scale
        lo_f[:, 2] = F_MIN / self.f_scale
        lo[self.nt_off:] = [ph.t_min for ph in spec.phases]
        hi[self.nt_off:] = spec.t_max
        return lo, hi

    # -- vectorized evaluation ----------------------------------------------
    #
    # Arrays are component-major: a 3-vector per knot is (3, n_knots) and a
    # 3x3 matrix (3, 3, n_knots), so every numpy call runs over all knots or
    # intervals at once. Per-interval quantities have n_int columns; the
    # suffix _k marks the knot that starts the interval.

    def _state(self, z: np.ndarray) -> SimpleNamespace:
        """Knot, force and step quantities at ``z``."""
        spec = self.spec
        inertia, inv_i = self.inertia_cm, self.inv_inertia_cm
        n_int, n_items = self.n_int, self.n_force // 3
        st = SimpleNamespace()
        knots = np.ascontiguousarray(z[:self.nf_off].reshape(self.n_knots, 18).T)
        st.pos, st.vel, st.omega = knots[0:3], knots[3:6], knots[6:9]
        st.rots = knots[9:18].reshape(3, 3, self.n_knots)
        st.f_cm = z[self.nf_off:self.nt_off].reshape(n_items, 3).T * self.f_scale
        forces = np.zeros((3, 4 * n_int))                      # (3, foot x interval)
        forces[:, self.item_slot] = st.f_cm
        forces = forces.reshape(3, 4, n_int)
        st.durations = z[self.nt_off:]
        st.h = st.durations[self.int_phase] / self.int_nk
        st.p_k, st.v_k = st.pos[:, :-1], st.vel[:, :-1]
        st.om_k, st.r_k = st.omega[:, :-1], st.rots[..., :-1]

        st.fsum = forces.sum(axis=1)
        st.u = st.fsum / spec.model.mass + GRAVITY_W[:, None]
        # torque about the CoM per interval, world frame
        lever = st.p_k[:, None] - self.feet_cm                  # (3, 4, N)
        st.lever_items = lever.reshape(3, 4 * n_int)[:, self.item_slot]
        st.tau = _cross(forces, lever).sum(axis=1)
        st.i_om = _matvec(inertia, st.om_k)
        st.om_dot = _matvec(inv_i, _matvec(st.r_k.swapaxes(0, 1), st.tau)
                            - _cross(st.om_k, st.i_om))

        # exp_taylor4(hat(a)) for a = omega h; on skew A, A^3 = -|a|^2 A
        st.a = st.om_k * st.h
        st.th2 = np.sum(st.a * st.a, axis=0)
        st.c1, st.c2 = 1.0 - st.th2 / 6.0, 0.5 - st.th2 / 24.0
        st.e_mat = st.c2 * st.a[:, None] * st.a[None] + _hat(st.c1 * st.a)
        st.e_mat[[0, 1, 2], [0, 1, 2]] += 1.0 - st.c2 * st.th2

        st.d_sph = self.sk_pw_cm - st.pos[:, self.sk_k]        # (3, stance knots)
        st.u_sph = _matvec(st.rots[..., self.sk_k], st.d_sph) - self.sk_center_cm
        st.m_err = _matmul(self.ref_rots_cm.swapaxes(0, 1), st.rots)   # ref^T R
        return st

    def _multipliers(self, y_eq: np.ndarray, y_in: np.ndarray) -> SimpleNamespace:
        """Multipliers by constraint family, component-major."""
        n, n_items = self.n_int, self.n_force // 3
        y = SimpleNamespace()
        o = self.n_head
        y.pos, y.vel, y.om = (y_eq[o + 3 * n * i:o + 3 * n * (i + 1)].reshape(n, 3).T
                              for i in range(3))
        o += 9 * n
        y.rot = y_eq[o:o + 9 * n].reshape(n, 3, 3).transpose(1, 2, 0)
        y.pin = y_eq[o + 9 * n:]
        y.sph = y_in[4 * n_items:4 * n_items + len(self.sk_k)]
        return y

    def _rate_weights(self, st: SimpleNamespace, y: SimpleNamespace) -> np.ndarray:
        """inv(I)^T times the multipliers of h * om_dot, the pin's included.

        The defects enter as -h om_dot and the pin as +om_dot[0], so the
        Lagrangian holds -<w, R^T tau - om x I om> per interval.
        """
        y_eff = y.om * st.h
        if len(y.pin):
            y_eff[:, 0] -= y.pin
        return _matvec(self.inv_inertia_cm.swapaxes(0, 1), y_eff)

    def _rate_adjoint(self, st: SimpleNamespace, w: np.ndarray):
        """Gradients of -<w, R^T tau - om x I om> per interval.

        Returns the parts in omega_k, p_k, R_k and the force items (world
        units).
        """
        # d om_dot / d omega = -inv_i (hat(om) I - hat(I om)), so its
        # transpose takes w to (I om) x w - I^T (om x w)
        g_om = (_cross(st.i_om, w)
                - _matvec(self.inertia_cm.swapaxes(0, 1), _cross(st.om_k, w)))
        # the torque term is -<R w, sum_s f_s x lever_s>: its gradient is
        # (sum_s f_s) x R w in the position, R w x lever_s in f_s and
        # -outer(tau, w) in R
        rw = _matvec(st.r_k, w)
        g_r = -st.tau[:, None] * w[None]
        return g_om, _cross(st.fsum, rw), g_r, _cross(rw[:, self.fi_j], st.lever_items)

    def _eval(self, z: np.ndarray, need_grad: bool):
        """Cost, equality residuals, inequality residuals and, given
        ``need_grad``, a handle on the derivatives at ``z``.

        The handle ``derivatives(y_eq, y_in)`` is :meth:`_derivative_blocks`
        at this point; nothing is computed until it is called, so a line
        search may hold it for every trial and call it only where it stops.
        """
        spec = self.spec
        # the handle keeps this point's state, which must not share the
        # caller's array (st.durations is a view of z)
        z = np.array(z, dtype=float) if need_grad else np.asarray(z, dtype=float)
        st = self._state(z)
        pos, vel, omega, rots, h = st.pos, st.vel, st.omega, st.rots, st.h

        c_pos = pos[:, 1:] - st.p_k - h * st.v_k
        c_vel = vel[:, 1:] - st.v_k - h * st.u
        c_om = omega[:, 1:] - st.om_k - h * st.om_dot
        c_rot = rots[..., 1:] - _matmul(st.r_k, st.e_mat)
        eq_parts = [
            pos[:, 0] - spec.p_start,
            vel[:, 0],
            omega[:, 0],
            (rots[..., 0] - spec.r_start).reshape(9),
            pos[:, -1] - spec.p_goal,
            (rots[..., -1] - spec.r_goal).reshape(9),
        ]
        if spec.v_goal is not None:
            eq_parts.append(vel[:, -1] - spec.v_goal)
        if spec.omega_goal is not None:
            eq_parts.append(omega[:, -1] - spec.omega_goal)
        # defect rows are interval-major, as in the decision vector
        eq_parts += [c.T.reshape(-1) for c in (c_pos, c_vel, c_om)]
        eq_parts.append(c_rot.transpose(2, 0, 1).reshape(-1))
        if self.int_feet[0]:
            eq_parts.append(st.om_dot[:, 0])
        c_eq = np.concatenate(eq_parts)

        # inequalities: friction pyramid per force variable block
        fx, fy, mu_fz = st.f_cm[0], st.f_cm[1], MU * st.f_cm[2]
        fric = np.stack([fx - mu_fz, -fx - mu_fz, fy - mu_fz, -fy - mu_fz], axis=-1)
        sph = np.sum(st.u_sph * st.u_sph, axis=0) - spec.sphere_radius**2
        t_total = float(st.durations.sum())
        ineq = np.concatenate([fric.reshape(-1), sph,
                               [spec.t_min - t_total, t_total - spec.t_max]])

        # rotation error eps |log(ref^T R)^vee|^2 per knot, log(M)^vee = a(c) s
        s_vec, a_fac, _, _ = _log_factor(st.m_err)
        e_vecs = a_fac * s_vec
        cost = float(_EPS_OMEGA * np.sum(omega * omega)
                     + _EPS_FORCE * np.sum(st.f_cm * st.f_cm)
                     + _EPS_ROT * float(np.sum(e_vecs * e_vecs)))
        if not need_grad:
            return cost, c_eq, ineq, None
        return cost, c_eq, ineq, partial(self._derivative_blocks, st)

    def _derivative_blocks(self, st: SimpleNamespace, y_eq: np.ndarray | None = None,
                           y_in: np.ndarray | None = None):
        """Exact constraint Jacobian, Lagrangian Hessian and gradient at the
        point whose :meth:`_state` is ``st``.

        Returns ``(jac, hess, grad)``. ``jac`` has shape ``block_rows.shape +
        (n_cols,)``: the derivatives of each block's rows in its variables
        (see :meth:`_block_layout`); the linear boundary and duration window
        rows are left out. Given multipliers, ``hess``, ``(n_knots,
        block_size + 1, block_size + 1)``, is the Hessian of L = cost + y_eq .
        c_eq + y_in . c_in in each block's own variables and its duration
        (last). No nonlinear term touches knot j + 1, so these are all its
        terms; only the upper triangle is filled. ``grad`` is the gradient
        of L over the decision vector, ∇cost + J^T y, the linear rows
        included. Without multipliers both are None.
        """
        spec = self.spec
        n, n_items, bs = self.n_int, self.n_force // 3, self.block_size
        m, fs = spec.model.mass, self.f_scale
        inertia, inv_i = self.inertia_cm, self.inv_inertia_cm
        h, nk = st.h, self.int_nk
        ax = np.arange(3)
        t_col = bs + 18
        fi_j, ic = self.fi_j[:, None], self.item_col[:, None]
        jac = np.zeros(self.block_rows.shape + self.block_cols.shape[1:])
        jac[:n, np.arange(18), bs + np.arange(18)] = 1.0          # knot j + 1 in its defects
        jac[fi_j[:, :, None], self.fric_row[:, :, None], ic[:, :, None] + ax] = fs * np.array(
            [[1.0, 0.0, -MU], [-1.0, 0.0, -MU], [0.0, 1.0, -MU], [0.0, -1.0, -MU]])

        # position and velocity defects
        jac[:n, ax, ax] = -1.0
        jac[:n, 3 + ax, 3 + ax] = -1.0
        jac[:n, ax, 3 + ax] = -h[:, None]
        jac[:n, 0:3, t_col] = -(st.v_k / nk).T
        jac[fi_j, 3 + ax, ic + ax] = -(h[self.fi_j] * fs / m)[:, None]
        jac[:n, 3:6, t_col] = -(st.u / nk).T

        # body-rate defects: d om_dot / d (p, omega, R, forces) of knot j
        rate = np.zeros((n, 3, bs))
        r_t = st.r_k.swapaxes(0, 1)
        rate[:, :, 0:3] = _matmul(inv_i, _matmul(r_t, _hat(st.fsum))).transpose(2, 0, 1)
        rate[:, :, 6:9] = _matmul(inv_i, _hat(st.i_om) - _matmul(_hat(st.om_k), inertia)
                                  ).transpose(2, 0, 1)
        rate[:, :, 9:18] = (inv_i[:, None] * st.tau[None, :, None]   # inv_i[a, c] tau[b]
                            ).reshape(3, 9, n).transpose(2, 0, 1)
        if n_items:
            d_f = -fs * _matmul(inv_i, _matmul(r_t[..., self.fi_j], _hat(st.lever_items)))
            rate[fi_j[:, :, None], ax[:, None], ic[:, :, None] + ax] = d_f.transpose(2, 0, 1)
        jac[:n, 6:9, :bs] = -h[:, None, None] * rate
        jac[:n, 6 + ax, 6 + ax] -= 1.0
        jac[:n, 6:9, t_col] = -(st.om_dot / nk).T
        if self.int_feet[0]:
            jac[0, 18:21, :bs] = rate[0]

        # rotation defects R_{j+1} - R_j E(a): row (a, b) has -E[c, b] at R_j[a, c]
        de = _exp_jacobian(st)                                  # dE/da_k, (3, 3, k, N)
        r_de = _matmul(st.r_k[:, :, None], de)                  # R dE/da_k
        jac[:n, _ROT_ROWS, _ROT_COLS] = -st.e_mat[_ROT_C, _ROT_B].T
        jac[:n, 9:18, 6:9] = -h[:, None, None] * r_de.reshape(9, 3, n).transpose(2, 0, 1)
        jac[:n, 9:18, t_col] = -(np.sum(r_de * st.om_k, axis=2).reshape(9, n) / nk).T

        # sphere rows |R (p_f - p) - c|^2 - r^2
        n_sph = len(self.sk_k)
        if n_sph:
            ru = _matvec(st.rots[..., self.sk_k].swapaxes(0, 1), st.u_sph)
            jac[self.sk_k, self.sk_row, 0:3] = -2.0 * ru.T
            jac[self.sk_k, self.sk_row, 9:18] = \
                2.0 * (st.u_sph[:, None] * st.d_sph[None]).reshape(9, n_sph).T
        if y_eq is None:
            return jac, None, None

        # gradient: J^T y block by block, padding rows reading the zero
        # appended to y and padding columns (-1) landing in a dropped slot;
        # then the linear rows and the cost
        y_rows = np.concatenate([y_eq, y_in, [0.0]])[self.block_rows]
        grad = np.bincount(self.block_cols.ravel() + 1, np.matmul(y_rows[:, None], jac).ravel(),
                           self.n_vars + 1)[1:]
        grad[self.unit_vars] += y_eq[self.unit_rows]
        grad[self.nt_off:] += y_in[-1] - y_in[-2]
        rot_grad, rot_hess = _rot_cost_derivatives(st.m_err, self.ref_rots)
        g_knots = grad[:self.nf_off].reshape(self.n_knots, 18)
        g_knots[:, 6:9] += 2.0 * _EPS_OMEGA * st.omega.T
        g_knots[:, 9:18] += rot_grad
        grad[self.nf_off:self.nt_off] += 2.0 * _EPS_FORCE * fs * st.f_cm.T.ravel()

        y = self._multipliers(y_eq, y_in)
        hess = np.zeros((self.n_knots, bs + 1, bs + 1))          # the duration last
        # cost
        hess[:, 6 + ax, 6 + ax] = 2.0 * _EPS_OMEGA
        hess[fi_j, ic + ax, ic + ax] = 2.0 * _EPS_FORCE * fs**2
        hess[:, 9:18, 9:18] = rot_hess

        # position and velocity defects: linear in h, so only the duration
        # column
        hess[:n, 3:6, bs] = -(y.pos / nk).T
        hess[fi_j, ic + ax, bs] = -(y.vel[:, self.fi_j] * fs / (m * nk[self.fi_j])).T

        # body-rate defects
        w = self._rate_weights(st, y)
        hat_w = _hat(w)
        hess[:n, 6:9, 6:9] += (_matmul(inertia, hat_w) - _matmul(hat_w, inertia)
                               ).transpose(2, 0, 1)
        # d^2 / dp[i] dR[b, c] = hat(sum_s f_s)[i, b] w[c]
        hess[:n, 0:3, 9:18] += (_hat(st.fsum)[:, :, None] * w[None, None]
                                ).reshape(3, 9, n).transpose(2, 0, 1)
        if n_items:
            w_it = w[:, self.fi_j]
            rw = _matvec(st.r_k[..., self.fi_j], w_it)
            hess[fi_j[:, :, None], ax[:, None], ic[:, :, None] + ax] = \
                -fs * _hat(rw).transpose(2, 0, 1)
            # d^2 / dR[b, c] df[a] = -hat(lever)[a, b] w[c]
            r_force = -fs * _hat(st.lever_items)[:, :, None] * w_it[None, None]
            hess[fi_j[:, :, None], 9 + np.arange(9)[:, None], ic[:, :, None] + ax] = \
                r_force.transpose(3, 1, 2, 0).reshape(n_items, 9, 3)
        # w = h inv_i^T y_om (+ the pin): its duration derivative is
        # inv_i^T y_om / N_i
        r_om, r_p, r_rot, r_f = self._rate_adjoint(
            st, _matvec(inv_i.swapaxes(0, 1), y.om / nk))
        hess[:n, 6:9, bs] += r_om.T
        hess[:n, 0:3, bs] += r_p.T
        hess[:n, 9:18, bs] += r_rot.reshape(9, n).T
        hess[fi_j, ic + ax, bs] += (fs * r_f).T

        # rotation defects: -<R^T Y, E(a)>, a = omega h
        vs, hv = _exp_curvature(st, _matmul(r_t, y.rot))
        y_de = _matmul(y.rot[:, :, None], de.swapaxes(0, 1))   # Y dE/da_k^T
        hess[:n, 6:9, 6:9] -= (h * h * hv).transpose(2, 0, 1)
        hess[:n, 6:9, 9:18] -= h[:, None, None] * y_de.reshape(9, 3, n).transpose(2, 1, 0)
        hess[:n, 9:18, bs] -= (np.sum(y_de * st.om_k, axis=2).reshape(9, n) / nk).T
        hv_om = _matvec(hv, st.om_k)
        hess[:n, 6:9, bs] -= ((vs + h * hv_om) / nk).T
        hess[:n, bs, bs] = -np.sum(st.om_k * hv_om, axis=0) / nk**2

        # sphere rows, summed per knot
        if n_sph:
            ys = 2.0 * y.sph
            kk, start = self.sk_knots, self.sk_start
            y_sum = np.add.reduceat(ys, start)
            y_u = np.add.reduceat(ys * st.u_sph, start, axis=-1)
            y_d = np.add.reduceat(ys * st.d_sph, start, axis=-1)
            y_dd = np.add.reduceat(ys * st.d_sph[:, None] * st.d_sph[None], start, axis=-1)
            r = st.rots[..., kk]
            hess[kk, 0:3, 0:3] += (y_sum * _matmul(r.swapaxes(0, 1), r)).transpose(2, 0, 1)
            for i in range(3):
                hess[kk, 9 + 3 * i:12 + 3 * i, 9 + 3 * i:12 + 3 * i] += y_dd.transpose(2, 0, 1)
            # d^2 / dp[i] dR[a, b] = -2 y (delta_ib u_a + R[a, i] d_b)
            p_r = -(np.eye(3)[:, None, :, None] * y_u[None, :, None]
                    + r.swapaxes(0, 1)[:, :, None] * y_d[None, None])
            hess[kk, 0:3, 9:18] += p_r.reshape(3, 9, len(kk)).transpose(2, 0, 1)
        return jac, hess, grad


# -- component-major 3-vector and 3x3 algebra --------------------------------
#
# Components lead and the knot or interval axes trail. Products are written
# out as elementwise multiplies and adds over the trailing axes, which beats
# einsum and matmul dispatch on these 3-wide operands.


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return m[:, 0] * v[0] + m[:, 1] * v[1] + m[:, 2] * v[2]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1] + a[:, 2, None] * b[2]


def _hat(v: np.ndarray) -> np.ndarray:
    out = np.zeros((3,) + v.shape)
    out[0, 1] = -v[2]
    out[0, 2] = v[1]
    out[1, 0] = v[2]
    out[1, 2] = -v[0]
    out[2, 0] = -v[1]
    out[2, 1] = v[0]
    return out


_HAT_UNITS = _hat(np.eye(3)).transpose(2, 0, 1)      # hat(e_k), (k, 3, 3)
# rotation-defect row (a, b) holds -E[c, b] in column R_j[a, c]
_ROT_A, _ROT_B, _ROT_C = (i.ravel() for i in np.indices((3, 3, 3)))
_ROT_ROWS, _ROT_COLS = 9 + 3 * _ROT_A + _ROT_B, 9 + 3 * _ROT_A + _ROT_C


def _vee_star_batch(g: np.ndarray) -> np.ndarray:
    """Adjoint of the hat map: <G, hat(w)> = vee_star(G) . w."""
    return np.stack([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]])


def _exp_jacobian(st: SimpleNamespace) -> np.ndarray:
    """dE/da_k of E(a) = I + c1 hat(a) + c2 (a a^T - |a|^2 I), as (3, 3, k, N)."""
    a, eye = st.a, np.eye(3)
    # c1 = 1 - |a|^2 / 6 and c2 = 1/2 - |a|^2 / 24 contribute their a_k terms
    de = -(_hat(a) / 3.0 + (a[:, None] * a[None] - st.th2 * eye[:, :, None]) / 12.0
           )[:, :, None] * a[None, None]
    de += st.c1 * _HAT_UNITS.transpose(1, 2, 0)[..., None]
    de += st.c2 * (eye[:, None, :, None] * a[None, :, None]          # e_k a^T
                   + a[:, None, None] * eye[None, :, :, None]          # a e_k^T
                   - 2.0 * eye[:, :, None, None] * a[None, None])      # -2 a_k I
    return de


def _exp_curvature(st: SimpleNamespace, v: np.ndarray):
    """Gradient (3, N) and Hessian (3, 3, N) in a of <V, E(a)>.

    <V, E(a)> = tr V + c1 s.a + c2 a^T P a with s = vee_star(V) and
    P = sym(V) - tr(V) I.
    """
    a, c1, c2 = st.a, st.c1, st.c2
    s_v = _vee_star_batch(v)
    p_mat = 0.5 * (v + v.swapaxes(0, 1))
    p_mat[[0, 1, 2], [0, 1, 2]] -= v[0, 0] + v[1, 1] + v[2, 2]
    pa = _matvec(p_mat, a)
    k = np.sum(s_v * a, axis=0) / 3.0 + np.sum(pa * a, axis=0) / 12.0
    grad = c1 * s_v + 2.0 * c2 * pa - k * a
    hess = 2.0 * c2 * p_mat - (a[:, None] * s_v[None] + s_v[:, None] * a[None]) / 3.0 \
        - (a[:, None] * pa[None] + pa[:, None] * a[None]) / 6.0
    hess[[0, 1, 2], [0, 1, 2]] -= k
    return grad, hess


def _log_factor(m_err: np.ndarray):
    """log(M)^vee = a(c) s per knot, with c = (tr M - 1) / 2 and s = vee_star(M).

    Returns ``(s, a, a_c, a_cc)``: a(c) = theta / (2 sin theta) and its
    first two derivatives in c. c is clipped to [-1 + 1e-9, 1], where a is
    constant. Near c = 1 the closed forms cancel digits, so a series in
    x = 1 - c takes over.
    """
    tr = m_err[0, 0] + m_err[1, 1] + m_err[2, 2]
    c_raw = (tr - 1.0) / 2.0
    c = np.clip(c_raw, -1.0 + 1e-9, 1.0)
    theta = np.arccos(c)
    x = 1.0 - c
    series = x < 1e-3
    sn = np.where(series, 1.0, np.sin(theta))
    a = np.where(series,
                 0.5 + x * (1 / 6 + x * (1 / 15 + x * (1 / 35 + x * (4 / 315 + x * 4 / 693)))),
                 theta / (2.0 * sn))
    a_c = np.where(series, -(1 / 6 + x * (2 / 15 + x * (3 / 35 + x * (16 / 315 + x * 20 / 693)))),
                   -(sn - theta * c) / (2.0 * sn**3))
    a_cc = np.where(series, 2 / 15 + x * (6 / 35 + x * (16 / 105 + x * 80 / 693)),
                    (theta * (1.0 + 2.0 * c * c) - 3.0 * c * sn) / (2.0 * sn**5))
    held = c != c_raw
    return _vee_star_batch(m_err), a, np.where(held, 0.0, a_c), np.where(held, 0.0, a_cc)


def _rot_cost_derivatives(m_err: np.ndarray, ref: np.ndarray):
    """Gradient ``(n_knots, 9)`` and Hessian ``(n_knots, 9, 9)`` of the
    rotation-error cost in each knot's rotation entries.

    ``ref`` is ``(n_knots, 3, 3)`` and ``m_err`` = ref^T R, so the map R -> M
    takes vec(X) back to vec(ref X). With log(M)^vee = a(c) s the cost is
    eps q(tr M) |s|^2, q = a^2. In the entries of M its gradient is eps (2 q
    sigma + q' |s|^2 tau) and its Hessian eps (q'' |s|^2 tau tau^T + 2 q'
    (tau sigma^T + sigma tau^T) + 2 q sum_i sigma_i sigma_i^T), with tau =
    vec(I), sigma = vec(hat(s)) and sigma_i = vec(hat(e_i)).
    """
    s_vec, a_fac, a_c, a_cc = _log_factor(m_err)
    s_sq = np.sum(s_vec * s_vec, axis=0)
    q = _EPS_ROT * a_fac * a_fac
    q1 = _EPS_ROT * a_fac * a_c                           # d q / d tr, times eps
    q2 = _EPS_ROT * 0.5 * (a_c * a_c + a_fac * a_cc)      # d^2 q / d tr^2, times eps
    n = len(ref)
    tau = ref.reshape(n, 9)                               # vec(ref I)
    ref_hat = (ref[:, None] @ _HAT_UNITS).reshape(n, 3, 9)   # vec(ref hat(e_i))
    sigma = np.einsum("ik,kij->kj", s_vec, ref_hat)       # vec(ref hat(s))
    grad = 2.0 * q[:, None] * sigma + (q1 * s_sq)[:, None] * tau
    hess = (q2 * s_sq)[:, None, None] * tau[:, :, None] * tau[:, None]
    cross = tau[:, :, None] * sigma[:, None]
    hess += 2.0 * q1[:, None, None] * (cross + cross.transpose(0, 2, 1))
    hess += np.einsum("k,kia,kib->kab", 2.0 * q, ref_hat, ref_hat)
    return grad, hess


# -- building, solving, checking --------------------------------------------


def initial_guess(problem: TimingProblem) -> np.ndarray:
    """Geodesic rotations, linear positions, gravity-support forces, mid durations.

    Rotation progress is weighted toward flight intervals (stance feet pin
    the body near its footholds, so most of a large reorientation must
    happen airborne); velocities and body rates are chosen consistent with
    the position and rotation defect chains of the guessed trajectory.
    """
    spec = problem.spec
    nk = problem.n_knots
    t_total0 = 0.5 * (spec.t_min + spec.t_max)
    durations = np.full(problem.n_phases, t_total0 / problem.n_phases)
    for i, ph in enumerate(spec.phases):
        durations[i] = min(max(durations[i], ph.t_min), spec.t_max)
    h_int = durations[problem.int_phase] / problem.phase_nk[problem.int_phase]

    # rotation schedule: flight intervals carry 5x the progress of stance
    w_int = np.array([1.0 if problem.int_feet[j] else 5.0 for j in range(problem.n_int)])
    s = np.concatenate([[0.0], np.cumsum(w_int)])
    s /= s[-1]
    rots = np.stack([so3.interp_rotation(spec.r_start, spec.r_goal, si) for si in s])

    frac = np.arange(nk) / problem.n_int
    pos = spec.p_start[None, :] + frac[:, None] * (spec.p_goal - spec.p_start)[None, :]
    vel = np.zeros((nk, 3))
    vel[:-1] = (pos[1:] - pos[:-1]) / h_int[:, None]
    omega = np.zeros((nk, 3))
    for j in range(problem.n_int):
        omega[j] = so3.log_map(rots[j].T @ rots[j + 1]) / h_int[j]

    forces = np.zeros((problem.n_int, 4, 3))
    weight = spec.model.mass * abs(GRAVITY_W[2])
    for j in range(problem.n_int):
        feet = problem.int_feet[j]
        for f in feet:
            forces[j, f, 2] = weight / len(feet)
    return problem.pack(pos, vel, omega, rots, forces, durations)


# -- structured Newton systems ---------------------------------------------


class _KktStructure:
    """Band layout of the augmented-Lagrangian Newton matrix.

    Block j holds knot j and the stance forces of interval j; the final knot
    is a block of its own. Every Jacobian row but the boundary and duration
    window rows lies in one derivative block of
    :meth:`TimingProblem._derivative_blocks`, which spans block j, knot
    j + 1 and the duration of one phase, and so does every Lagrangian
    Hessian term. Ordered block by block, the Newton matrix is therefore
    banded with the durations as a border: each derivative block's
    J^T W J + ∇²L is one dense product, and the band and border are
    gathered from those products through a precomputed index.
    """

    def __init__(self, p: TimingProblem):
        self.n_rows = p.n_eq + p.n_ineq
        self.n_x, self.n_t = p.nt_off, p.n_phases
        self.unit_rows, self.int_phase = p.unit_rows, p.int_phase
        self.bs = bs = p.block_size
        cols = p.block_cols
        n_blocks, n_cols = cols.shape
        # padding rows read a zero weight from the slot after the last row
        self.row_of = np.where(p.block_rows >= 0, p.block_rows, self.n_rows)

        # band position of every non-duration variable; durations follow
        sizes = np.append(18 + 3 * np.array([len(f) for f in p.int_feet], dtype=int), 18)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        blk, off = np.nonzero(cols[:, :bs] >= 0)
        self.pos = np.empty(self.n_x, dtype=np.int32)
        self.pos[cols[blk, off]] = starts[blk] + off

        # the local pairs that a row or a Hessian term couples: any two
        # columns of a row, and any two of block j and its duration
        touch = p.block_pattern.astype(np.intp)
        coupled = touch.T @ touch > 0
        own = np.r_[0:bs, n_cols - 1]
        coupled[np.ix_(own, own)] = True
        # Knot j + 1 and its duration entries appear in derivative blocks j
        # and j + 1. assemble() first adds block j's share into block j + 1
        # (the duration entries only when both intervals share a phase), so
        # that every band and border entry has one source.
        t = n_cols - 1
        self.carry = np.flatnonzero(p.int_phase[1:] == p.int_phase[:-1])
        ia, ib = np.nonzero(np.triu(coupled))
        keep = ~((ia >= bs) & (ib < t)) & (ia < t)     # no knot j + 1 pair, no corner
        ia, ib = ia[keep], ib[keep]
        va, vb = cols[:, ia], cols[:, ib]
        ok = (va >= 0) & (vb >= 0)
        carried = np.zeros((n_blocks, 1), dtype=bool)
        carried[self.carry] = True
        ok &= ~(carried & (ia >= bs) & (ib == t))
        # half-bandwidth: the widest coupled pair of a block and the knot after it
        pa, pb = self.pos[va[ok & (ib < t)]], self.pos[vb[ok & (ib < t)]]
        self.u = int(np.max(pb - pa))
        self.order = np.concatenate([self.pos, self.n_x + np.arange(self.n_t, dtype=np.int32)])
        src = (n_cols * n_cols * np.arange(n_blocks)[:, None] + n_cols * ia + ib)[ok]
        # entries without a source read the final block's empty knot j + 1
        # diagonal entry, which stays zero
        empty = n_cols * n_cols * (n_blocks - 1) + (n_cols + 1) * bs
        self.gather = np.full((self.u + 1 + self.n_t) * self.n_x, empty, dtype=np.intp)
        self.gather[self._target(va[ok], vb[ok])] = src
        # the boundary rows are unit rows on one variable: a diagonal entry
        knot = p.unit_vars // 18
        self.unit_src = n_cols * n_cols * knot + (n_cols + 1) * (p.unit_vars - 18 * knot)
        # the products of assemble(), reused: fresh pages cost more than they do
        self._k = np.empty((n_blocks, n_cols, n_cols))

    def _target(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """Flat index of (va, vb) in [band | border] storage; vb may be a duration."""
        n_x, u = self.n_x, self.u
        pa, pb = self.order[va], self.order[vb]
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        return np.where(hi < n_x, (u + lo - hi) * n_x + hi,
                        (u + 1) * n_x + lo * self.n_t + hi - n_x)

    def row_norms(self, jac: np.ndarray) -> np.ndarray:
        """Euclidean norm of every Jacobian row, from the derivative blocks."""
        sq = np.zeros(self.n_rows + 1)
        sq[self.row_of] = np.sum(jac * jac, axis=2)
        sq[self.unit_rows] = 1.0
        sq[self.n_rows - 2:self.n_rows] = self.n_t        # the duration window
        return np.sqrt(sq[:-1])

    def assemble(self, jac: np.ndarray, hess: np.ndarray,
                 weights: np.ndarray) -> _BorderedSystem:
        """Newton matrix ∇²L + J^T diag(weights) J from the derivative blocks.

        ``jac`` is scaled in place: callers pass blocks they no longer need.
        """
        n_x, bs = self.n_x, self.bs
        jac *= np.sqrt(np.append(weights, 0.0)[self.row_of])[:, :, None]
        k = np.matmul(jac.transpose(0, 2, 1), jac, out=self._k)
        t = k.shape[2] - 1
        k[:, :bs, :bs] += hess[:, :bs, :bs]
        k[:, :bs, t] += hess[:, :bs, bs]
        k[:, t, t] += hess[:, bs, bs]
        flat_k = k.reshape(-1)
        flat_k[self.unit_src] += weights[self.unit_rows]
        k[1:, :18, :18] += k[:-1, bs:bs + 18, bs:bs + 18]
        k[self.carry + 1, :18, t] += k[self.carry, bs:bs + 18, t]
        flat = flat_k[self.gather]
        n_band = (self.u + 1) * n_x
        # each phase's duration meets only itself within a block; the
        # duration window rows weigh every pair of durations
        corner = np.diag(np.bincount(self.int_phase, k[:-1, t, t], self.n_t)) + weights[-2:].sum()
        return _BorderedSystem(flat[:n_band].reshape(self.u + 1, n_x),
                               flat[n_band:].reshape(n_x, self.n_t), corner, self.pos)


class _BorderedSystem:
    """Symmetric [[A, C], [C^T, D]]: A banded (upper storage), D small.

    Rows and columns of A are in band order; ``pos`` maps the leading
    variables of the decision vector to it.
    """

    def __init__(self, band: np.ndarray, border: np.ndarray, corner: np.ndarray,
                 pos: np.ndarray):
        self.band, self.border, self.corner, self.pos = band, border, corner, pos
        self.scale = max(1.0, float(np.max(np.abs(band[-1]), initial=0.0)),
                         float(np.max(np.abs(np.diag(corner)), initial=0.0)))

    def masked(self, g: np.ndarray, fixed: np.ndarray):
        """The Newton step -(K + delta I)^-1 g over the free variables as a
        function of delta: the step, or None if the damped matrix is not
        positive definite.

        Fixed variables keep a zero step. Their rows and columns are masked
        out of the band, border and right-hand side here, once; each delta
        then adds delta on the free diagonal of a copy and factors it. The
        band is masked in place, so a system serves one set of fixed
        variables.
        """
        n_x, u = self.band.shape[1], self.band.shape[0] - 1
        mx = np.empty(n_x)
        mx[self.pos] = ~fixed[:n_x]
        mt = (~fixed[n_x:]).astype(float)
        band = self.band
        for d in range(u):
            s = u - d
            band[d, s:] *= mx[:-s] * mx[s:]
        band[u] = band[u] * mx + (1.0 - mx)
        c = self.border * mx[:, None] * mt
        corner, corner_diag = self.corner * np.outer(mt, mt), 1.0 - mt
        rhs = np.empty((n_x, 1 + len(mt)))
        rhs[self.pos, 0] = -g[:n_x]
        rhs[:, 0] *= mx
        rhs[:, 1:] = c
        g_t = -g[n_x:] * mt

        def step(delta: float):
            ab = band.copy()
            ab[u] += delta * mx
            dmat = corner + np.diag(corner_diag + delta * mt)
            try:
                factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
                y = cho_solve_banded((factor, False), rhs, check_finite=False)
                schur = np.linalg.cholesky(dmat - c.T @ y[:, 1:])
            except np.linalg.LinAlgError:
                return None
            dt = cho_solve((schur, True), g_t - c.T @ y[:, 0], check_finite=False)
            out = np.empty(len(g))
            out[:n_x] = (y[:, 0] - y[:, 1:] @ dt)[self.pos]
            out[n_x:] = dt
            return out if np.all(np.isfinite(out)) else None
        return step


class _AugmentedLagrangian:
    """The AL merit function of one subproblem and its derivatives.

    ``value`` runs at every line-search trial and keeps the derivative
    handle of its point; ``derivatives`` runs at accepted points only.
    """

    def __init__(self, problem: TimingProblem, structure: _KktStructure,
                 s_eq: np.ndarray, s_in: np.ndarray, rho: float):
        self.problem, self.structure = problem, structure
        self.s_eq, self.s_in = s_eq, s_in
        self.lam_eq = np.zeros(problem.n_eq)
        self.lam_in = np.zeros(problem.n_ineq)
        self.rho = rho
        self._point = None             # (derivative handle, multipliers, active rows)

    def value(self, z: np.ndarray) -> float:
        cost, c_eq, c_in, derivatives = self.problem._eval(z, need_grad=True)
        cs_eq = self.s_eq * c_eq
        cs_in = self.s_in * c_in
        rho, lam_in = self.rho, self.lam_in
        y_eq = self.lam_eq + rho * cs_eq
        y_in = np.maximum(0.0, lam_in + rho * cs_in)
        self._point = (derivatives, (self.s_eq * y_eq, self.s_in * y_in), y_in > 0.0)
        return (cost + self.lam_eq @ cs_eq + 0.5 * rho * float(cs_eq @ cs_eq)
                + float(np.sum(y_in**2 - lam_in**2)) / (2.0 * rho))

    def derivatives(self):
        """Gradient and Newton matrix at the point of the last :meth:`value`.

        The gradient is the Lagrangian's at the AL multipliers. The second
        value builds ∇²L + rho J^T S^2 J from the same blocks when called;
        S^2 covers the equality rows and the active inequality rows.
        """
        derivatives, y, active = self._point
        jac, hess, g = derivatives(*y)
        weights = self.rho * np.concatenate([self.s_eq**2, self.s_in**2 * active])
        return g, partial(self.structure.assemble, jac, hess, weights)


def minimize(al: _AugmentedLagrangian, z: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> SimpleNamespace:
    """Projected Newton method on the merit ``al`` over the box [lo, hi].

    Bertsekas (SIAM J. Control Optim. 20, 1982): variables within a small
    margin of a bound whose gradient pushes outward are moved onto it and
    held fixed; the others take a Newton step, followed by Armijo
    backtracking along the projection arc. The Levenberg damping delta
    rises tenfold whenever the factorization fails or the step is not a
    descent direction, and falls tenfold after each full step.
    ``al.value`` runs at every trial point, ``al.derivatives`` only at the
    start and at accepted points. Returns the point ``x``, its gradient
    ``grad``, the Newton steps ``nit``, ``merit_evals``, the final
    ``delta`` and why the loop stopped, ``stop``.
    """
    z = np.clip(z, lo, hi)
    f = al.value(z)
    g, newton_matrix = al.derivatives()
    merit_evals, delta, nit = 1, 0.0, 0
    stop = "iteration limit"
    while nit < _MAX_INNER:
        proj = z - np.clip(z - g, lo, hi)
        margin = min(_ACTIVE_MARGIN, float(np.max(np.abs(proj))))
        at_lo = (z <= lo + margin) & (g > 0.0)
        at_hi = (z >= hi - margin) & (g < 0.0)
        fixed = at_lo | at_hi
        system = newton_matrix()
        newton_matrix = None           # frees the blocks before the next ones are formed
        nit += 1
        free = ~fixed
        step = system.masked(g, fixed)
        while delta <= _DELTA_MAX * system.scale:
            d = step(delta)
            if d is not None and (g[free] @ d[free] < 0.0 or not np.any(g[free])):
                break
            delta = max(10.0 * delta, _DELTA_FLOOR * system.scale)
        else:
            stop = "no descent direction"
            break
        d[at_lo] = (lo - z)[at_lo]
        d[at_hi] = (hi - z)[at_hi]
        if -(g @ d) <= _NEWTON_DECREMENT * max(1.0, abs(f)):
            stop = "Newton decrement below tolerance"
            break
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            zt = np.clip(z + alpha * d, lo, hi)
            ft = al.value(zt)
            merit_evals += 1
            if ft <= f + _ARMIJO * (g @ (zt - z)):
                break
            alpha *= 0.5
        else:
            stop = "line search found no decrease"
            break
        z, f = zt, ft
        g, newton_matrix = al.derivatives()
        if alpha == 1.0:
            delta = 0.0 if delta < _DELTA_FLOOR * system.scale * 10.0 else 0.1 * delta
    return SimpleNamespace(x=z, grad=g, nit=nit, merit_evals=merit_evals, delta=delta,
                           stop=stop)


def _row_scales(problem: TimingProblem, z: np.ndarray, structure: _KktStructure):
    """Reciprocal constraint-Jacobian row norms at ``z``, clipped to
    [_ROW_NORM_MIN, _ROW_NORM_MAX].

    The constraint families have wildly different natural Jacobian scales
    (friction rows carry the force scale, the angular rows the inverse
    inertia); equilibrating them keeps the penalty Hessian workable.
    """
    jac = problem._derivative_blocks(problem._state(z))[0]
    scales = 1.0 / np.clip(structure.row_norms(jac), _ROW_NORM_MIN, _ROW_NORM_MAX)
    return scales[:problem.n_eq], scales[problem.n_eq:]


def solve_timing(problem: TimingProblem) -> TimingSolution:
    """Augmented-Lagrangian solve; returns the best feasible iterate found.

    Multipliers are updated every outer iteration; the penalty grows on a
    fixed cadence. Convergence is judged on the unscaled constraint
    violations. Raises :class:`NoConvergenceError` with diagnostics when
    the violation target cannot be met.
    """
    lo, hi = problem.bounds()
    z = np.clip(initial_guess(problem), lo, hi)

    structure = _KktStructure(problem)
    s_eq, s_in = _row_scales(problem, z, structure)
    al = _AugmentedLagrangian(problem, structure, s_eq, s_in, _RHO0)

    def violation(zv):
        _, c_eq, c_in, _ = problem._eval(zv, need_grad=False)
        v_eq = float(np.max(np.abs(c_eq), initial=0.0))
        v_in = float(np.max(c_in, initial=0.0))
        return max(v_eq, v_in), c_eq, c_in

    best = None
    kkt = np.inf
    trace = []
    outer = 0
    for outer in range(1, _MAX_OUTER + 1):
        res = minimize(al, z, lo, hi)
        z = res.x
        kkt = float(np.max(np.abs(z - np.clip(z - res.grad, lo, hi))))
        viol, c_eq, c_in = violation(z)
        trace.append({"violation": viol, "rho": al.rho, "newton_steps": res.nit,
                      "merit_evals": res.merit_evals, "delta": res.delta, "stop": res.stop})
        if best is None or viol < best[0]:
            best = (viol, z.copy())
        if viol <= _TOL:
            break
        al.lam_eq = al.lam_eq + al.rho * s_eq * c_eq
        al.lam_in = np.maximum(0.0, al.lam_in + al.rho * s_in * c_in)
        if outer % 2 == 0:
            al.rho = min(al.rho * _RHO_GROWTH, _RHO_MAX)

    viol, z = best
    pos, vel, omega, rots, forces, durations = problem.unpack(z)
    states = [SrbdState(pos=pos[k], vel=vel[k], omega=omega[k], rot=rots[k])
              for k in range(problem.n_knots)]
    cost, *_ = problem._eval(z, need_grad=False)
    ortho = max(so3.orthonormality_defect(r) for r in rots)
    sol = TimingSolution(
        durations=durations, states=states, forces=forces, cost=cost,
        max_violation=viol, kkt_residual=kkt,
        converged=viol <= _TOL, outer_iterations=outer, ortho_defect=ortho,
        trace=trace,
    )
    if not sol.converged:
        raise NoConvergenceError(
            f"timing optimization stalled at violation {viol:.3e} "
            f"(target {_TOL:.1e}) after {outer} outer iterations",
            {"violation": viol, "durations": durations, "trace": trace},
        )
    return sol


def check_constraints(spec: JumpSpec, sol: TimingSolution) -> dict:
    """Independent feasibility audit of a solution.

    Walks every constraint family directly from the solution data using the
    scalar per-step helpers; shares no evaluation code with the solver.
    Returns the worst violation per family.
    """
    phases = spec.phases
    report: dict[str, float] = {}
    states, forces, t = sol.states, sol.forces, sol.durations

    report["initial_pos"] = float(np.max(np.abs(states[0].pos - spec.p_start)))
    report["initial_vel"] = float(np.max(np.abs(states[0].vel)))
    report["initial_rate"] = float(np.max(np.abs(states[0].omega)))
    report["initial_rot"] = float(np.max(np.abs(states[0].rot - spec.r_start)))
    report["final_pos"] = float(np.max(np.abs(states[-1].pos - spec.p_goal)))
    report["final_rot"] = float(np.max(np.abs(states[-1].rot - spec.r_goal)))
    if spec.v_goal is not None:
        report["final_vel"] = float(np.max(np.abs(states[-1].vel - spec.v_goal)))
    if spec.omega_goal is not None:
        report["final_rate"] = float(np.max(np.abs(states[-1].omega - spec.omega_goal)))

    dyn, rotd, fric, fz_bounds, sphere, posd = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    j = 0
    for i, ph in enumerate(phases):
        h = float(t[i]) / ph.n_knots
        feet_pos = spec.feet_start if ph.feet_pos is None else ph.feet_pos
        for _ in range(ph.n_knots):
            xk, xk1 = states[j], states[j + 1]
            dyn = max(dyn, float(np.max(np.abs(
                srbd_residual(xk, xk1, forces[j], feet_pos, h, spec.model)))))
            rotd = max(rotd, float(np.max(np.abs(
                rotation_defect(xk.rot, xk1.rot, xk.omega, h)))))
            posd = max(posd, float(np.max(np.abs(
                xk1.pos - xk.pos - h * xk.vel))))
            for f in range(4):
                fx, fy, fz = forces[j, f]
                if f in ph.feet:
                    fric = max(fric, abs(fx) - MU * fz, abs(fy) - MU * fz)
                    fz_bounds = max(fz_bounds, F_MIN - fz, fz - F_MAX)
                else:
                    fric = max(fric, float(np.max(np.abs(forces[j, f]))))
            j += 1

    # kinematic sphere and CoM box at contact knots
    j = 0
    for i, ph in enumerate(phases):
        rng = range(j, j + ph.n_knots + 1)
        feet_pos = spec.feet_start if ph.feet_pos is None else ph.feet_pos
        for k in rng:
            if ph.feet:
                for f in ph.feet:
                    u = states[k].rot @ (feet_pos[f] - states[k].pos) - _SPHERE_CENTERS[f]
                    sphere = max(sphere, float(np.linalg.norm(u)) - spec.sphere_radius)
                if spec.com_min is not None:
                    sphere_box = float(np.max(np.asarray(spec.com_min) - states[k].pos))
                    report["com_box_lo"] = max(report.get("com_box_lo", 0.0), sphere_box)
                if spec.com_max is not None:
                    report["com_box_hi"] = max(report.get("com_box_hi", 0.0),
                                               float(np.max(states[k].pos - np.asarray(spec.com_max))))
        j += ph.n_knots

    total = float(np.sum(t))
    report["duration_window"] = max(spec.t_min - total, total - spec.t_max, 0.0)
    report["dynamics"] = dyn
    report["position"] = posd
    report["rotation"] = rotd
    report["friction"] = max(fric, 0.0)
    report["force_bounds"] = max(fz_bounds, 0.0)
    report["foot_sphere"] = max(sphere, 0.0)
    report["max"] = max(v for v in report.values())
    return report


def export_reference(sol: TimingSolution, spec: JumpSpec) -> BodyReference:
    """Sample the solution every :data:`_REFERENCE_DT` seconds for the
    tracking controller.

    Positions and velocities are interpolated linearly between knots,
    rotations along the geodesic; knot times are reproduced exactly.
    """
    dt = _REFERENCE_DT
    knot_t = [0.0]
    for i, ph in enumerate(spec.phases):
        h = float(sol.durations[i]) / ph.n_knots
        knot_t.extend(knot_t[-1] + h * (np.arange(ph.n_knots) + 1.0))
    knot_t = np.asarray(knot_t)
    total = knot_t[-1]
    # the last sample falls on the final knot, after a shorter interval if
    # need be; a total within 1e-4 dt above a multiple of dt adds none
    n = math.ceil(total / dt - 1e-4) + 1
    ts = np.minimum(np.arange(n) * dt, total)

    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    omega = np.zeros((n, 3))
    rot = np.zeros((n, 3, 3))
    forces = np.zeros((n, 12))
    idx = np.clip(np.searchsorted(knot_t, ts, side="right") - 1, 0, len(knot_t) - 2)
    for i, t in enumerate(ts):
        k = int(idx[i])
        span = knot_t[k + 1] - knot_t[k]
        s = 0.0 if span <= 0.0 else (t - knot_t[k]) / span
        s = min(1.0, max(0.0, s))
        a, b = sol.states[k], sol.states[k + 1]
        pos[i] = (1 - s) * a.pos + s * b.pos
        vel[i] = (1 - s) * a.vel + s * b.vel
        omega[i] = (1 - s) * a.omega + s * b.omega
        ra = so3.project_so3(a.rot)
        rb = so3.project_so3(b.rot)
        rot[i] = so3.interp_rotation(ra, rb, s)
        forces[i] = sol.forces[min(k, sol.forces.shape[0] - 1)].reshape(12)

    phase_times = np.cumsum(sol.durations)
    return BodyReference(t=ts, pos=pos, vel=vel, rot=rot, omega=omega,
                         forces=forces, phase_times=phase_times)
