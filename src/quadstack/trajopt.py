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
T_min <= sum T_i <= T_max. Optional per-phase duration bounds and a CoM box
during contact are variable bounds.

Problem size, for phases i = 1..n_p with N_i intervals and n_i stance feet
(N = sum N_i intervals, N + 1 knots):

    variables    18 (N + 1) + 3 sum_i N_i n_i + n_p
    equalities   18 + 12 + 18 N (+3 for the initial angular-acceleration pin
                 when the first phase has stance feet)
    inequalities 4 sum_i N_i n_i + sphere rows + 2

The solver is an augmented-Lagrangian outer loop over the equality and
inequality constraints. Each subproblem is solved over the variable bounds
by a projected Newton method on B = ∇²L + rho J^T S^2 J. The cost and
constraint gradients are analytic. J and ∇²L are forward differences of
the constraints and of that gradient, one per structural colour. B is
banded in a knot-by-interval ordering, with the phase durations as a
border. Returned solutions are re-checked by an independent constraint
evaluator that does not share code with the solver path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cho_solve_banded, cholesky_banded
from scipy.optimize import Bounds, OptimizeResult, minimize

from . import so3
from .balance import BodyModel

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
    "build_problem",
    "initial_guess",
    "solve_timing",
    "check_constraints",
    "export_reference",
]

_T_PHASE_MIN = 0.05   # vanishing phase guard, seconds

# projected-Newton inner solve
_FD_STEP = float(np.sqrt(np.finfo(float).eps))   # relative difference step
_ACTIVE_MARGIN = 1e-6               # bound margin of the fixed set
_NEWTON_DECREMENT = 1e-14           # stop when -g.d <= this * max(1, |phi|)
_ARMIJO = 1e-4
_RHO0 = 10.0                        # first augmented-Lagrangian penalty
_RHO_GROWTH = 5.0                   # its growth factor, every second outer iteration
_RHO_MAX = 1e9
_MAX_BACKTRACKS = 40
_DELTA_FLOOR = 1e-12                # first damping, relative to the diagonal
_DELTA_MAX = 1e6                    # damping limit, relative to the diagonal
_ROW_GROUP = 64                     # Jacobian rows per Gauss-Newton scatter


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
    t_min: float = _T_PHASE_MIN    # per-phase duration bounds
    t_max: float = np.inf
    feet_pos: np.ndarray | None = None   # world footholds; None = spec.feet_start

    def __post_init__(self):
        self.feet = tuple(int(f) for f in self.feet)
        if self.n_knots < 2:
            raise SpecError("each phase needs at least 2 intervals")
        if self.t_min < _T_PHASE_MIN:
            self.t_min = _T_PHASE_MIN
        if self.feet_pos is not None:
            self.feet_pos = np.asarray(self.feet_pos, dtype=float).reshape(4, 3)


_NOMINAL_FOOT_CENTERS = np.array([
    [0.3, -0.128, -0.45],
    [0.3, 0.128, -0.45],
    [-0.3, -0.128, -0.45],
    [-0.3, 0.128, -0.45],
])


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
    sphere_centers: np.ndarray = field(default_factory=lambda: _NOMINAL_FOOT_CENTERS.copy())
    sphere_radius: float = 0.16
    mu: float = 0.6
    f_min: float = 1.0                          # > 0: friction is multiplied through f_z
    f_max: float = 700.0
    com_min: np.ndarray | None = None           # CoM box during contact phases
    com_max: np.ndarray | None = None
    v_goal: np.ndarray | None = None            # optional final-velocity pin
    omega_goal: np.ndarray | None = None        # optional final body-rate pin
    eps_omega: float = 1e-2
    eps_force: float = 1e-6
    eps_rot: float = 1.0
    model: BodyModel = field(default_factory=BodyModel)

    def __post_init__(self):
        self.p_start = np.asarray(self.p_start, dtype=float).reshape(3)
        self.p_goal = np.asarray(self.p_goal, dtype=float).reshape(3)
        self.r_start = np.asarray(self.r_start, dtype=float).reshape(3, 3)
        self.r_goal = np.asarray(self.r_goal, dtype=float).reshape(3, 3)
        self.feet_start = np.asarray(self.feet_start, dtype=float).reshape(4, 3)
        self.sphere_centers = np.asarray(self.sphere_centers, dtype=float).reshape(4, 3)
        if self.v_goal is not None:
            self.v_goal = np.asarray(self.v_goal, dtype=float).reshape(3)
        if self.omega_goal is not None:
            self.omega_goal = np.asarray(self.omega_goal, dtype=float).reshape(3)
        if not self.phases:
            raise SpecError("need at least one contact phase")
        if self.t_min >= self.t_max:
            raise SpecError("t_min must be below t_max")
        if self.f_min <= 0.0:
            raise SpecError("f_min must be positive (friction is multiplied through f_z)")
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
    defect_norms: dict
    kkt_residual: float
    converged: bool
    outer_iterations: int
    ortho_defect: float              # max knot orthogonality defect


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
    u = f_k.sum(axis=0) / model.mass + model.g_vec
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


def _smooth_log(m: np.ndarray) -> np.ndarray:
    """log(m)^vee for a near-rotation matrix, smooth in the entries."""
    c = min(1.0, max(-1.0 + 1e-9, (float(np.trace(m)) - 1.0) / 2.0))
    theta = np.arccos(c)
    s = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    if theta < 1e-6:
        a = 0.5 + theta * theta / 12.0
    else:
        a = theta / (2.0 * np.sin(theta))
    return a * s


def trajectory_cost(states: list[SrbdState], forces: np.ndarray,
                    ref_rots: list[np.ndarray], eps_omega: float,
                    eps_force: float, eps_rot: float) -> float:
    """Sum of weighted squared body rates, forces, and rotation errors."""
    j = 0.0
    for k, x in enumerate(states):
        j += eps_omega * float(x.omega @ x.omega)
        e = _smooth_log(np.asarray(ref_rots[k]).T @ x.rot)
        j += eps_rot * float(e @ e)
    f = np.asarray(forces, dtype=float)
    j += eps_force * float(np.sum(f * f))
    return j


# -- problem construction ---------------------------------------------------


class TimingProblem:
    """Packed NLP: decision vector, bounds, cost/constraints with gradients.

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

        # force variable table: (interval, foot) -> slice start
        self.force_index: dict[tuple[int, int], int] = {}
        nf = 0
        for j in range(self.n_int):
            for f in self.int_feet[j]:
                self.force_index[(j, f)] = nf
                nf += 3
        self.n_force = nf
        self.fi_j = np.array([j for (j, _f) in self.force_index], dtype=int)
        self.fi_f = np.array([f for (_j, f) in self.force_index], dtype=int)

        # stance-knot set: a knot is contact-constrained when an adjacent
        # interval has stance feet; footholds come from that interval
        self.stance_knots: list[tuple[int, int, np.ndarray]] = []  # (knot, foot, world pos)
        for k in range(self.n_knots):
            seen: dict[int, np.ndarray] = {}
            if k < self.n_int:
                for f in self.int_feet[k]:
                    seen[f] = self.int_feet_pos[k, f]
            if k > 0:
                for f in self.int_feet[k - 1]:
                    seen.setdefault(f, self.int_feet_pos[k - 1, f])
            for f in sorted(seen):
                self.stance_knots.append((k, f, seen[f]))
        if self.stance_knots:
            self.sk_k = np.array([k for k, _f, _p in self.stance_knots], dtype=int)
            self.sk_f = np.array([f for _k, f, _p in self.stance_knots], dtype=int)
            self.sk_pw = np.stack([p for _k, _f, p in self.stance_knots])
        else:
            self.sk_k = np.zeros(0, dtype=int)
            self.sk_f = np.zeros(0, dtype=int)
            self.sk_pw = np.zeros((0, 3))
        # stance knots are listed knot by knot: the first row of each knot
        self.sk_knots, self.sk_start = np.unique(self.sk_k, return_index=True)

        self.nk_off = 0
        self.nf_off = 18 * self.n_knots
        self.nt_off = self.nf_off + self.n_force
        self.n_vars = self.nt_off + self.n_phases

        self.f_scale = spec.model.mass * abs(spec.model.g_vec[2])
        self.ref_rots = np.stack([
            so3.interp_rotation(spec.r_start, spec.r_goal, k / self.n_int)
            for k in range(self.n_knots)
        ])
        # tables of _eval: component-major copies and per-interval phase data
        self.ref_rots_cm = self.ref_rots.transpose(1, 2, 0)[:, :, None]  # (3, 3, 1, n_knots)
        self.inertia_cm = spec.model.inertia[:, :, None, None]
        self.inv_inertia_cm = np.linalg.inv(spec.model.inertia)[:, :, None, None]
        self.feet_cm = self.int_feet_pos.transpose(2, 1, 0)[:, None]      # (3, 1, 4, N)
        self.item_slot = self.fi_f * self.n_int + self.fi_j
        self.sk_pw_cm = self.sk_pw.T[:, None]
        self.sk_center_cm = spec.sphere_centers[self.sk_f].T[:, None]
        self.int_nk = self.phase_nk[self.int_phase]
        self.phase_start = np.concatenate([[0], np.cumsum(self.phase_nk[:-1])]).astype(np.intp)

        self.n_goal_twist = (3 if spec.v_goal is not None else 0) + \
            (3 if spec.omega_goal is not None else 0)
        self.n_eq = 18 + 12 + self.n_goal_twist + 18 * self.n_int \
            + (3 if self.int_feet[0] else 0)
        self.n_ineq = 4 * (self.n_force // 3) + len(self.stance_knots) + 2

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

    def bounds(self) -> list[tuple[float, float]]:
        spec = self.spec
        lo = np.full(self.n_vars, -np.inf)
        hi = np.full(self.n_vars, np.inf)
        knots = np.arange(self.n_knots)
        # rotation entries live in [-1, 1] up to the Taylor defect
        for k in knots:
            base = 18 * k
            lo[base + 9:base + 18] = -1.2
            hi[base + 9:base + 18] = 1.2
            lo[base + 6:base + 9] = -60.0
            hi[base + 6:base + 9] = 60.0
        if spec.com_min is not None or spec.com_max is not None:
            cmin = -np.inf * np.ones(3) if spec.com_min is None else np.asarray(spec.com_min, dtype=float)
            cmax = np.inf * np.ones(3) if spec.com_max is None else np.asarray(spec.com_max, dtype=float)
            stance_set = {k for k, _, _ in self.stance_knots}
            for k in stance_set:
                base = 18 * k
                lo[base:base + 3] = cmin
                hi[base:base + 3] = cmax
        for (j, f), idx in self.force_index.items():
            col = self.nf_off + idx
            lo[col + 2] = spec.f_min / self.f_scale
            hi[col + 2] = spec.f_max / self.f_scale
            lo[col:col + 2] = -spec.f_max / self.f_scale
            hi[col:col + 2] = spec.f_max / self.f_scale
        for i, ph in enumerate(spec.phases):
            lo[self.nt_off + i] = ph.t_min
            hi[self.nt_off + i] = min(ph.t_max, spec.t_max)
        return list(zip(lo, hi))

    # -- vectorized evaluation ----------------------------------------------

    def _eval(self, z: np.ndarray, need_grad: bool):
        """Cost, equality residuals, inequality residuals, and a vjp closure.

        ``z`` is one decision vector or a stack ``(B, n_vars)`` of them. A
        stack is evaluated in one pass and gives the costs ``(B,)``, the
        residuals ``(B, n_eq)`` and ``(B, n_ineq)``, and a ``grad(y_eq, y_in)``
        that returns ``(B, n_vars)`` for multipliers shared by all rows. One
        vector is evaluated as a stack of one.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim == 2:
            return self._eval_stack(z, need_grad)
        cost, c_eq, c_in, stack_grad = self._eval_stack(z[None], need_grad)
        if not need_grad:
            return float(cost[0]), c_eq[0], c_in[0], None

        def grad(y_eq: np.ndarray, y_in: np.ndarray) -> np.ndarray:
            return stack_grad(y_eq, y_in)[0]

        return float(cost[0]), c_eq[0], c_in[0], grad

    def _eval_stack(self, z: np.ndarray, need_grad: bool):
        """``_eval`` on a stack ``(B, n_vars)``.

        Internally the arrays are component-major: a 3-vector per knot is
        ``(3, B, n_knots)`` and a 3x3 matrix ``(3, 3, B, n_knots)``, so every
        numpy call runs over all intervals of all rows at once.
        """
        spec = self.spec
        m, g_vec = spec.model.mass, spec.model.g_vec
        inertia, inv_i = self.inertia_cm, self.inv_inertia_cm
        b, n_int, n_items = len(z), self.n_int, self.n_force // 3
        knots = np.ascontiguousarray(
            z[:, :self.nf_off].reshape(b, self.n_knots, 18).transpose(2, 0, 1))
        pos, vel, omega = knots[0:3], knots[3:6], knots[6:9]
        rots = knots[9:18].reshape(3, 3, b, self.n_knots)
        f_items = z[:, self.nf_off:self.nt_off].reshape(b, n_items, 3) * self.f_scale
        f_cm = f_items.transpose(2, 0, 1)                      # (3, B, items)
        forces = np.zeros((3, b, 4 * n_int))                   # (3, B, foot x interval)
        forces[..., self.item_slot] = f_cm
        forces = forces.reshape(3, b, 4, n_int)
        durations = z[:, self.nt_off:]
        h = durations[:, self.int_phase] / self.int_nk        # (B, N)
        p_k, v_k, om_k, r_k = pos[..., :-1], vel[..., :-1], omega[..., :-1], rots[..., :-1]

        fsum = forces.sum(axis=2)                              # (3, B, N)
        u = fsum / m + g_vec[:, None, None]

        # torque about the CoM per interval, world frame
        lever = p_k[:, :, None] - self.feet_cm                 # (3, B, 4, N)
        tau = _cross(forces, lever).sum(axis=2)
        # a stack's arrays are B times those of one evaluation: each one the
        # gradient does not read is freed as soon as it is consumed
        del forces
        tau_b = _matvec(r_k.swapaxes(0, 1), tau)                # R^T tau
        i_om = _matvec(inertia, om_k)
        om_dot = _matvec(inv_i, tau_b - _cross(om_k, i_om))

        c_pos = pos[..., 1:] - p_k - h * v_k
        c_vel = vel[..., 1:] - v_k - h * u
        c_om = omega[..., 1:] - om_k - h * om_dot

        # exp_taylor4(hat(a)) for a = omega h; on skew A, A^3 = -|a|^2 A
        a = om_k * h
        th2 = np.sum(a * a, axis=0)
        c1, c2 = 1.0 - th2 / 6.0, 0.5 - th2 / 24.0
        e_mat = c2 * a[:, None] * a[None] + _hat(c1 * a)
        e_mat[[0, 1, 2], [0, 1, 2]] += 1.0 - c2 * th2
        c_rot = rots[..., 1:] - _matmul(r_k, e_mat)

        head = [
            pos[..., 0] - spec.p_start[:, None],
            vel[..., 0],
            omega[..., 0],
            (rots[..., 0] - spec.r_start[..., None]).reshape(9, b),
            pos[..., -1] - spec.p_goal[:, None],
            (rots[..., -1] - spec.r_goal[..., None]).reshape(9, b),
        ]
        if spec.v_goal is not None:
            head.append(vel[..., -1] - spec.v_goal[:, None])
        if spec.omega_goal is not None:
            head.append(omega[..., -1] - spec.omega_goal[:, None])
        eq_parts = [np.concatenate(head).T]
        # defect rows are interval-major, as in the decision vector
        eq_parts += [c.transpose(1, 2, 0).reshape(b, -1) for c in (c_pos, c_vel, c_om)]
        eq_parts.append(c_rot.transpose(2, 3, 0, 1).reshape(b, -1))
        if self.int_feet[0]:
            eq_parts.append(om_dot[..., 0].T)
        c_eq = np.concatenate(eq_parts, axis=1)
        del eq_parts, c_pos, c_vel, c_om, c_rot

        # inequalities: friction pyramid per force variable block
        mu_fz = spec.mu * f_items[..., 2]
        fric = np.stack([f_items[..., 0] - mu_fz, -f_items[..., 0] - mu_fz,
                         f_items[..., 1] - mu_fz, -f_items[..., 1] - mu_fz], axis=-1)
        d_sph = self.sk_pw_cm - pos[..., self.sk_k]           # (3, B, stance knots)
        u_sph = _matvec(rots[..., self.sk_k], d_sph) - self.sk_center_cm
        sph = np.sum(u_sph * u_sph, axis=0) - spec.sphere_radius**2
        t_total = durations.sum(axis=1)[:, None]
        ineq = np.concatenate([fric.reshape(b, -1), sph,
                               spec.t_min - t_total, t_total - spec.t_max], axis=1)
        del fric, sph

        # cost
        cost_rot, cost_rot_grads = _rot_cost_batch(
            _matmul(self.ref_rots_cm.swapaxes(0, 1), rots), spec.eps_rot, need_grad)  # ref^T R
        cost = (spec.eps_omega * np.sum(omega * omega, axis=(0, 2))
                + spec.eps_force * np.sum(f_items * f_items, axis=(1, 2))
                + cost_rot)

        if not need_grad:
            return cost, c_eq, ineq, None

        def grad(y_eq: np.ndarray, y_in: np.ndarray) -> np.ndarray:
            """Gradient of cost + y_eq . c_eq + y_in . c_ineq, per row."""
            g_knots = np.zeros((18, b, self.n_knots))
            g_pos, g_vel, g_om = g_knots[0:3], g_knots[3:6], g_knots[6:9]
            g_rot = g_knots[9:18].reshape(3, 3, b, self.n_knots)

            # cost terms
            g_om += 2.0 * spec.eps_omega * omega
            g_f = 2.0 * spec.eps_force * f_cm
            g_rot += _matmul(self.ref_rots_cm, cost_rot_grads)

            o = 0
            g_pos[..., 0] += y_eq[o:o + 3, None]; o += 3
            g_vel[..., 0] += y_eq[o:o + 3, None]; o += 3
            g_om[..., 0] += y_eq[o:o + 3, None]; o += 3
            g_rot[..., 0] += y_eq[o:o + 9].reshape(3, 3, 1); o += 9
            g_pos[..., -1] += y_eq[o:o + 3, None]; o += 3
            g_rot[..., -1] += y_eq[o:o + 9].reshape(3, 3, 1); o += 9
            if spec.v_goal is not None:
                g_vel[..., -1] += y_eq[o:o + 3, None]; o += 3
            if spec.omega_goal is not None:
                g_om[..., -1] += y_eq[o:o + 3, None]; o += 3

            # defect multipliers, shared by the rows: (3, 1, N) and (3, 3, 1, N)
            y_pos = y_eq[o:o + 3 * n_int].reshape(n_int, 1, 3).T; o += 3 * n_int
            y_vel = y_eq[o:o + 3 * n_int].reshape(n_int, 1, 3).T; o += 3 * n_int
            y_om = y_eq[o:o + 3 * n_int].reshape(n_int, 1, 3).T; o += 3 * n_int
            y_rot = y_eq[o:o + 9 * n_int].reshape(n_int, 1, 3, 3).transpose(2, 3, 1, 0)
            o += 9 * n_int

            # position defects
            g_pos[..., 1:] += y_pos
            g_pos[..., :-1] -= y_pos
            g_vel[..., :-1] -= h * y_pos

            # velocity defects
            g_vel[..., 1:] += y_vel
            g_vel[..., :-1] -= y_vel
            g_f -= (h[:, self.fi_j] / m) * y_vel[..., self.fi_j]

            # omega defects (including the initial angular-acceleration pin)
            y_om_eff = y_om * h
            if self.int_feet[0]:
                y_om_eff[..., 0] -= y_eq[-3:, None]  # pin enters as +om_dot[0], defect as -h*om_dot
            g_om[..., 1:] += y_om
            g_om[..., :-1] -= y_om
            w_vec = _matvec(inv_i.swapaxes(0, 1), y_om_eff)      # inv_i^T y
            # d om_dot / d omega = -inv_i (hat(om) I - hat(I om)), so its
            # transpose takes w to (I om) x w - I^T (om x w)
            g_om[..., :-1] += (_cross(i_om, w_vec)
                               - _matvec(inertia.swapaxes(0, 1), _cross(om_k, w_vec)))
            # d om_dot / d R = inv_i d(R^T tau): grad_R -= outer(tau, w)
            g_rot[..., :-1] -= tau[:, None] * w_vec[None]
            # the torque term is -<R w, sum_s f_s x lever_s>: its gradient is
            # (sum_s f_s) x R w in the position and R w x lever_s in f_s
            rw = _matvec(r_k, w_vec)
            g_pos[..., :-1] += _cross(fsum, rw)
            g_f += _cross(rw[..., self.fi_j],
                          lever.reshape(3, b, 4 * n_int)[..., self.item_slot])

            # rotation-manifold defects: gradient in a of <R^T Y, E(a)>, with
            # E(a) = I + c1 hat(a) + c2 (a a^T - |a|^2 I)
            g_rot[..., 1:] += y_rot
            g_rot[..., :-1] -= _matmul(y_rot, e_mat.swapaxes(0, 1))
            v_adj = _matmul(r_k.swapaxes(0, 1), y_rot)
            s_v = _vee_star_batch(v_adj)
            tr_v = v_adj[0, 0] + v_adj[1, 1] + v_adj[2, 2]
            sym_a = _matvec(v_adj, a) + _matvec(v_adj.swapaxes(0, 1), a)
            vs = (c1 * s_v + c2 * (sym_a - 2.0 * tr_v * a)
                  - (np.sum(s_v * a, axis=0) / 3.0
                     + (0.5 * np.sum(sym_a * a, axis=0) - th2 * tr_v) / 12.0) * a)
            g_om[..., :-1] -= vs * h

            # durations: every defect of interval j scales with h_j = T_i / N_i
            dh = np.sum(y_pos * v_k + y_vel * u + y_om * om_dot + vs * om_k, axis=0)
            g_t = -np.add.reduceat(dh / self.int_nk, self.phase_start, axis=1)

            # friction rows
            if n_items:
                yf = y_in[:4 * n_items].reshape(-1, 4)
                g_f[0] += yf[:, 0] - yf[:, 1]
                g_f[1] += yf[:, 2] - yf[:, 3]
                g_f[2] -= spec.mu * yf.sum(axis=1)
            # sphere rows; the rows of one knot are adjacent
            if len(self.sk_k):
                y_sph = 2.0 * y_in[4 * n_items:4 * n_items + len(self.sk_k)]
                ru = _matvec(rots[..., self.sk_k].swapaxes(0, 1), u_sph)   # R^T u
                g_pos[..., self.sk_knots] -= np.add.reduceat(y_sph * ru, self.sk_start, axis=-1)
                g_rot[..., self.sk_knots] += np.add.reduceat(
                    (y_sph * u_sph)[:, None] * d_sph[None], self.sk_start, axis=-1)
            # duration window rows
            g_t += y_in[-1] - y_in[-2]

            gz = np.empty((b, self.n_vars))
            gz[:, :self.nf_off].reshape(b, self.n_knots, 18)[...] = g_knots.transpose(1, 2, 0)
            gz[:, self.nf_off:self.nt_off].reshape(b, n_items, 3)[...] = \
                (g_f * self.f_scale).transpose(1, 2, 0)
            gz[:, self.nt_off:] = g_t
            return gz

        return cost, c_eq, ineq, grad


# -- component-major 3-vector and 3x3 algebra --------------------------------
#
# Components lead and the batch axes trail. Products are written out as
# elementwise multiplies and adds, which numpy never fuses, so a row of a
# stack gets the same bits as that row evaluated alone; einsum picks fused
# multiply-add kernels by stride, and would not.


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


def _vee_star_batch(g: np.ndarray) -> np.ndarray:
    """Adjoint of the hat map: <G, hat(w)> = vee_star(G) . w."""
    return np.stack([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]])


def _rot_cost_batch(m_err: np.ndarray, eps_rot: float, need_grad: bool):
    """Rotation-error cost per stack row, and its gradient in the error matrices.

    ``m_err`` is ``(3, 3, B, n_knots)``; the cost is ``(B,)``.
    """
    tr = m_err[0, 0] + m_err[1, 1] + m_err[2, 2]
    c = np.clip((tr - 1.0) / 2.0, -1.0 + 1e-9, 1.0)
    theta = np.arccos(c)
    s_vec = _vee_star_batch(m_err)          # entries of M - M^T
    small = theta < 1e-6
    sin_t = np.sin(theta)
    a_fac = np.where(small, 0.5 + theta**2 / 12.0,
                     theta / (2.0 * np.where(sin_t < 1e-12, 1.0, sin_t)))
    e_vecs = a_fac * s_vec
    cost = eps_rot * np.sum(e_vecs * e_vecs, axis=(0, 2))
    if not need_grad:
        return cost, None
    w = 2.0 * eps_rot * e_vecs                              # dJ/de
    # de/dM = a * d(s)/dM + s outer da/dM
    grads = _hat(a_fac * w)
    ws = np.sum(w * s_vec, axis=0)
    da_dtheta = np.where(small, theta / 6.0,
                         (sin_t - theta * np.cos(theta)) / (2.0 * np.where(sin_t < 1e-12, 1.0, sin_t**2)))
    denom = np.sqrt(np.clip(1.0 - c * c, 1e-12, None))
    dtheta_dc = -1.0 / denom
    grads[[0, 1, 2], [0, 1, 2]] += ws * da_dtheta * dtheta_dc * 0.5
    return cost, grads


# -- building, solving, checking --------------------------------------------


def build_problem(spec: JumpSpec) -> TimingProblem:
    """Assemble the packed NLP for a jump specification."""
    return TimingProblem(spec)


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
        durations[i] = min(max(durations[i], ph.t_min), min(ph.t_max, spec.t_max))
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
    weight = spec.model.mass * abs(spec.model.g_vec[2])
    for j in range(problem.n_int):
        feet = problem.int_feet[j]
        for f in feet:
            forces[j, f, 2] = weight / len(feet)
    return problem.pack(pos, vel, omega, rots, forces, durations)


@dataclass
class SolveOptions:
    tol: float = 1e-5                 # target max constraint violation
    max_outer: int = 30
    max_inner: int = 100              # projected-Newton steps per subproblem


# -- structured Newton systems ---------------------------------------------


def _jacobian_pattern(p: TimingProblem):
    """Structural nonzeros of the stacked [equality; inequality] Jacobian.

    Returns ``(rows, cols, unit)``; ``unit`` marks the entries whose value
    is identically 1: the defect rows of interval j in knot j + 1.
    """
    spec = p.spec
    n_int, n_items = p.n_int, p.n_force // 3
    rows, cols, unit = [], [], []

    def add(r, c, is_unit=False):
        r, c = np.broadcast_arrays(r, c)
        rows.append(r.ravel())
        cols.append(c.ravel())
        unit.append(np.full(r.size, is_unit))

    a = np.arange(3)
    j = np.arange(n_int)[:, None]
    t_col = (p.nt_off + p.int_phase)[:, None]
    force = p.nf_off + 3 * np.arange(n_items)[:, None] + a       # (items, 3)
    stance = np.flatnonzero([bool(f) for f in p.int_feet])[:, None]
    knot_terms = np.r_[0:3, 9:18]                                 # p and R of a knot

    # boundary rows: one knot variable each
    add(np.arange(18), np.arange(18))
    o = 18
    goal = [np.arange(3), np.arange(9, 18)]
    if spec.v_goal is not None:
        goal.append(np.arange(3, 6))
    if spec.omega_goal is not None:
        goal.append(np.arange(6, 9))
    goal = np.concatenate(goal)
    add(o + np.arange(len(goal)), 18 * n_int + goal)
    o += len(goal)

    r = o + 3 * j + a                            # position defects
    add(r, 18 * j + a)
    add(r, 18 * j + 3 + a)
    add(r, t_col)
    add(r, 18 * (j + 1) + a, True)
    o += 3 * n_int
    r = o + 3 * j + a                            # velocity defects
    add(r, 18 * j + 3 + a)
    add(r, t_col)
    add(r, 18 * (j + 1) + 3 + a, True)
    add(o + 3 * p.fi_j[:, None] + a, force)
    o += 3 * n_int
    r = o + 3 * j + a                            # body-rate defects
    add(r[:, :, None], (18 * j + 6 + a)[:, None, :])
    add(r, t_col)
    add(r, 18 * (j + 1) + 6 + a, True)
    add((o + 3 * stance + a)[:, :, None], (18 * stance + knot_terms)[:, None, :])
    add((o + 3 * p.fi_j[:, None] + a)[:, :, None], force[:, None, :])
    o += 3 * n_int
    jj = j[:, :, None]                           # rotation defects, row (j, a, b)
    r = o + 9 * jj + 3 * a[:, None] + a
    add(r[..., None], (18 * jj + 9 + 3 * a[:, None])[..., None] + a)
    add(r[..., None], (18 * jj + 6)[..., None] + a)
    add(r, t_col[:, :, None])
    add(r, 18 * (jj + 1) + 9 + 3 * a[:, None] + a, True)
    o += 9 * n_int
    if p.int_feet[0]:                            # initial angular-acceleration pin
        add(o + a[:, None], np.r_[knot_terms, 6:9])
        add(o + a[:, None], force[p.fi_j == 0].reshape(1, -1))
        o += 3
    assert o == p.n_eq

    if n_items:                                  # friction pyramid: (fx|fy, fz)
        r = o + 4 * np.arange(n_items)[:, None] + np.arange(4)
        add(r, force[:, [0, 0, 1, 1]])
        add(r, force[:, 2:3])
        o += 4 * n_items
    n_sph = len(p.sk_k)
    add(o + np.arange(n_sph)[:, None], 18 * p.sk_k[:, None] + knot_terms)
    o += n_sph
    add(o + np.arange(2)[:, None], p.nt_off + np.arange(p.n_phases))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(unit)


class _KktStructure:
    """Colouring and band layout of the augmented-Lagrangian Newton matrix.

    Block j holds knot j and the stance forces of interval j; the final knot
    is a block of its own. Every nonlinear term of the cost and constraints
    touches one block and the phase durations, and the defect rows of
    interval j are linear, with unit coefficient, in knot j + 1. So the
    offset of a variable within its block is a colour: one forward
    difference per colour recovers the Jacobian (after subtracting the
    known unit entries) and the block-diagonal Lagrangian Hessian. Each
    phase duration has a colour of its own; the dense duration rows of the
    Hessian are filled from the duration columns by symmetry. Ordered block
    by block, the Newton matrix is banded with the durations as a border.
    """

    def __init__(self, p: TimingProblem):
        n_items = p.n_force // 3
        self.n_eq, self.n_rows = p.n_eq, p.n_eq + p.n_ineq
        self.n_x, self.n_t = p.nt_off, p.n_phases
        sizes = np.append(18 + 3 * np.array([len(f) for f in p.int_feet], dtype=int), 18)
        self.n_block_colours = int(sizes.max())
        slot = np.arange(n_items) - np.searchsorted(p.fi_j, p.fi_j)
        colour = np.empty(p.n_vars, dtype=np.intp)
        block = np.empty(self.n_x, dtype=np.intp)
        colour[:p.nf_off] = np.tile(np.arange(18), p.n_knots)
        block[:p.nf_off] = np.repeat(np.arange(p.n_knots), 18)
        colour[p.nf_off:p.nt_off] = (18 + 3 * slot[:, None] + np.arange(3)).reshape(-1)
        block[p.nf_off:p.nt_off] = np.repeat(p.fi_j, 3)
        colour[p.nt_off:] = self.n_block_colours + np.arange(self.n_t)
        self.colour = colour
        self.n_colours = self.n_block_colours + self.n_t
        # band position of every non-duration variable; durations follow
        self.pos = (np.concatenate([[0], np.cumsum(sizes)[:-1]])[block]
                    + colour[:self.n_x]).astype(np.int32)
        self.order = np.concatenate([self.pos, self.n_x + np.arange(self.n_t, dtype=np.int32)])

        rows, cols, unit = _jacobian_pattern(p)
        srt = np.lexsort((cols, rows))
        self.jr, self.jc = rows[srt].astype(np.int32), cols[srt].astype(np.int32)
        self.unit = unit[srt]
        # a differenced entry sharing its row and colour with a unit entry
        # carries that entry's 1 in its difference quotient
        self.entry_colour = colour[self.jc]
        key = self.jr * self.n_colours + self.entry_colour
        self.unit_shift = np.isin(key, key[self.unit]).astype(float)

        # half-bandwidth: the widest block or the widest row in band order
        x_entry = self.jc < self.n_x
        row_lo = np.full(self.n_rows, self.n_x)
        row_hi = np.full(self.n_rows, -1)
        np.minimum.at(row_lo, self.jr[x_entry], self.pos[self.jc[x_entry]])
        np.maximum.at(row_hi, self.jr[x_entry], self.pos[self.jc[x_entry]])
        self.u = int(max(np.max(row_hi - row_lo), self.n_block_colours - 1))
        self.size = (self.u + 1) * self.n_x + (self.n_x + self.n_t) * self.n_t

        # J^T W J: the entry pairs of each row, in small groups of rows with
        # one entry count (small, to keep the temporaries small)
        counts = np.bincount(self.jr, minlength=self.n_rows)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int32)
        self.row_groups = []
        for m in np.unique(counts[counts > 0]):
            ia, ib = np.triu_indices(m)
            starts = first[counts == m]
            for i in range(0, len(starts), _ROW_GROUP):
                entries = starts[i:i + _ROW_GROUP, None] + np.arange(m, dtype=np.int32)
                cols = self.jc[entries]
                self.row_groups.append((entries, ia, ib,
                                        self._target(cols[:, ia], cols[:, ib])))

        # Lagrangian Hessian: upper triangle of each dense block
        h_a, h_b = [], []
        for b in range(p.n_knots):
            v = np.flatnonzero(block == b).astype(np.int32)
            ia, ib = np.triu_indices(len(v))
            h_a.append(v[ia])
            h_b.append(v[ib])
        self.h_a, self.h_b = np.concatenate(h_a), np.concatenate(h_b)
        self.h_idx = self._target(self.h_a, self.h_b)

    def _target(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """Flat index of (va, vb) in [band | border | upper corner] storage."""
        n_x, n_t, u = self.n_x, self.n_t, self.u
        pa, pb = self.order[va], self.order[vb]
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        n_band = (u + 1) * n_x
        return np.where(hi < n_x, (u + lo - hi) * n_x + hi,
                        np.where(lo < n_x, n_band + lo * n_t + hi - n_x,
                                 n_band + n_x * n_t + (lo - n_x) * n_t + hi - n_x))

    def differences(self, problem: TimingProblem, z: np.ndarray, c0: np.ndarray,
                    grad_args=None, g0=None):
        """Jacobian values at ``z`` by coloured forward differences of ``_eval``.

        With ``grad_args`` (the multipliers handed to ``grad``) and the
        gradient ``g0`` at ``z``, also returns the differenced Lagrangian
        gradient per colour, ``(n_colours, n_vars)``. All colours are
        perturbed in one stack and evaluated in one call.
        """
        z_max = np.zeros(self.n_colours)
        np.maximum.at(z_max, self.colour, np.abs(z))
        steps = _FD_STEP * np.maximum(1.0, z_max)
        stack = np.repeat(z[None], len(steps), axis=0)
        stack[self.colour, np.arange(len(z))] += steps[self.colour]
        _, c_eq, c_in, grad = problem._eval(stack, need_grad=grad_args is not None)
        ck = np.concatenate([c_eq, c_in], axis=1)[self.entry_colour, self.jr]
        del stack, c_eq, c_in        # not held through the gradient pass
        ck -= c0[self.jr]
        jvals = ck / steps[self.entry_colour] - self.unit_shift
        jvals[self.unit] = 1.0
        if grad_args is None:
            return jvals, None
        dg = grad(*grad_args)
        dg -= g0
        dg /= steps[:, None]
        return jvals, dg

    def assemble(self, jvals: np.ndarray, weights: np.ndarray,
                 dg: np.ndarray) -> _BorderedSystem:
        """Newton matrix ∇²L + J^T diag(weights) J from differenced data."""
        n_x, n_t, n_bc = self.n_x, self.n_t, self.n_block_colours
        jw = jvals * np.sqrt(weights[self.jr])
        flat = np.zeros(self.size)
        for entries, ia, ib, target in self.row_groups:
            jg = jw[entries]
            prod = jg[:, ia]
            prod *= jg[:, ib]
            np.add.at(flat, target, prod)
        col = self.colour
        h = dg[col[self.h_b], self.h_a]
        h += dg[col[self.h_a], self.h_b]
        h *= 0.5
        np.add.at(flat, self.h_idx, h)
        n_band = (self.u + 1) * n_x
        border = flat[n_band:n_band + n_x * n_t].reshape(n_x, n_t)
        border[self.pos] += dg[n_bc:, :n_x].T
        upper = flat[n_band + n_x * n_t:].reshape(n_t, n_t)
        h_tt = dg[n_bc:, n_x:]
        corner = upper + upper.T - np.diag(np.diag(upper)) + 0.5 * (h_tt + h_tt.T)
        return _BorderedSystem(flat[:n_band].reshape(self.u + 1, n_x), border, corner, self.pos)


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

    def step(self, g: np.ndarray, fixed: np.ndarray, delta: float):
        """Newton step -(K + delta I)^-1 g over the free variables, or None.

        Fixed variables keep a zero step. None means the damped matrix is
        not positive definite.
        """
        n_x, u = self.band.shape[1], self.band.shape[0] - 1
        mx = np.empty(n_x)
        mx[self.pos] = ~fixed[:n_x]
        mt = (~fixed[n_x:]).astype(float)
        ab = self.band.copy()
        for d in range(u):
            s = u - d
            ab[d, s:] *= mx[:-s] * mx[s:]
        ab[u] = ab[u] * mx + (1.0 - mx) + delta * mx
        c = self.border * mx[:, None] * mt
        dmat = self.corner * np.outer(mt, mt) + np.diag(1.0 - mt + delta * mt)
        rhs = np.empty((n_x, 1 + len(mt)))
        rhs[self.pos, 0] = -g[:n_x]
        rhs[:, 0] *= mx
        rhs[:, 1:] = c
        try:
            factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
            y = cho_solve_banded((factor, False), rhs, overwrite_b=True, check_finite=False)
            schur = np.linalg.cholesky(dmat - c.T @ y[:, 1:])
        except np.linalg.LinAlgError:
            return None
        dt = cho_solve((schur, True), -g[n_x:] * mt - c.T @ y[:, 0], check_finite=False)
        out = np.empty(len(g))
        out[:n_x] = (y[:, 0] - y[:, 1:] @ dt)[self.pos]
        out[n_x:] = dt
        return out if np.all(np.isfinite(out)) else None


class _AugmentedLagrangian:
    """The AL merit function of one subproblem and its Newton systems."""

    def __init__(self, problem: TimingProblem, structure: _KktStructure,
                 s_eq: np.ndarray, s_in: np.ndarray, rho: float):
        self.problem, self.structure = problem, structure
        self.s_eq, self.s_in = s_eq, s_in
        self.lam = np.zeros(problem.n_eq)
        self.mu = np.zeros(problem.n_ineq)
        self.rho = rho
        self._base = None

    def value_grad(self, z: np.ndarray):
        cost, c_eq, c_in, grad = self.problem._eval(z, need_grad=True)
        cs_eq = self.s_eq * c_eq
        cs_in = self.s_in * c_in
        rho, mu = self.rho, self.mu
        y_eq = self.lam + rho * cs_eq
        y_in = np.maximum(0.0, mu + rho * cs_in)
        val = (cost + self.lam @ cs_eq + 0.5 * rho * float(cs_eq @ cs_eq)
               + float(np.sum(y_in**2 - mu**2)) / (2.0 * rho))
        args = (self.s_eq * y_eq, self.s_in * y_in)
        g = grad(*args)
        self._base = (z.copy(), np.concatenate([c_eq, c_in]), args, g, y_in > 0.0)
        return val, g

    def newton_system(self, z: np.ndarray) -> _BorderedSystem:
        """∇²_zz of the AL at ``z``: Lagrangian Hessian plus rho J^T S^2 J.

        S^2 covers the equality rows and the active inequality rows.
        """
        if self._base is None or not np.array_equal(z, self._base[0]):
            self.value_grad(z)
        _, c0, args, g0, active = self._base
        s = self.structure
        jvals, dg = s.differences(self.problem, z, c0, args, g0)
        weights = self.rho * np.concatenate([self.s_eq**2, self.s_in**2 * active])
        return s.assemble(jvals, weights, dg)


def _projected_newton(fun, x0, jac=None, bounds=None, maxiter=100, newton_system=None,
                      **_unused):
    """Projected Newton method over box bounds, as a ``minimize`` method.

    Bertsekas (SIAM J. Control Optim. 20, 1982): variables within a small
    margin of a bound whose gradient pushes outward are moved onto it and
    held fixed; the others take a Newton step on ``newton_system(z)``,
    followed by Armijo backtracking along the projection arc. The
    Levenberg damping delta rises tenfold whenever the factorization fails
    or the step is not a descent direction, and falls tenfold after each
    full step.
    """
    lo, hi = bounds.lb, bounds.ub
    z = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = fun(z), jac(z)
    nfev, delta, nit = 1, 0.0, 0
    message = "iteration limit"
    while nit < maxiter:
        proj = z - np.clip(z - g, lo, hi)
        margin = min(_ACTIVE_MARGIN, float(np.max(np.abs(proj))))
        at_lo = (z <= lo + margin) & (g > 0.0)
        at_hi = (z >= hi - margin) & (g < 0.0)
        fixed = at_lo | at_hi
        system = newton_system(z)
        nit += 1
        free = ~fixed
        while delta <= _DELTA_MAX * system.scale:
            d = system.step(g, fixed, delta)
            if d is not None and (g[free] @ d[free] < 0.0 or not np.any(g[free])):
                break
            delta = max(10.0 * delta, _DELTA_FLOOR * system.scale)
        else:
            message = "no descent direction"
            break
        d[at_lo] = (lo - z)[at_lo]
        d[at_hi] = (hi - z)[at_hi]
        if -(g @ d) <= _NEWTON_DECREMENT * max(1.0, abs(f)):
            message = "Newton decrement below tolerance"
            break
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            zt = np.clip(z + alpha * d, lo, hi)
            ft = fun(zt)
            nfev += 1
            if ft <= f + _ARMIJO * (g @ (zt - z)):
                break
            alpha *= 0.5
        else:
            message = "line search found no decrease"
            break
        z, f, g = zt, ft, jac(zt)
        if alpha == 1.0:
            delta = 0.0 if delta < _DELTA_FLOOR * system.scale * 10.0 else 0.1 * delta
    return OptimizeResult(x=z, fun=f, jac=g, nit=nit, nfev=nfev, delta=delta,
                          success=message.startswith("Newton"), message=message)


def _row_scales(problem: TimingProblem, z: np.ndarray, structure: _KktStructure,
                lo: float = 0.3, hi: float = 50.0):
    """Reciprocal constraint-Jacobian row norms at ``z``, clipped to [lo, hi].

    The constraint families have wildly different natural Jacobian scales
    (friction rows carry the force scale, the angular rows the inverse
    inertia); equilibrating them keeps the penalty Hessian workable.
    """
    _, c_eq, c_in, _ = problem._eval(z, need_grad=False)
    jvals, _ = structure.differences(problem, z, np.concatenate([c_eq, c_in]))
    norms = np.sqrt(np.bincount(structure.jr, jvals**2, structure.n_rows))
    scales = 1.0 / np.clip(norms, lo, hi)
    return scales[:problem.n_eq], scales[problem.n_eq:]


def solve_timing(problem: TimingProblem | JumpSpec,
                 z0: np.ndarray | None = None,
                 opts: SolveOptions | None = None) -> TimingSolution:
    """Augmented-Lagrangian solve; returns the best feasible iterate found.

    Multipliers are updated every outer iteration; the penalty grows on a
    fixed cadence. Convergence is judged on the unscaled constraint
    violations. Raises :class:`NoConvergenceError` with diagnostics when
    the violation target cannot be met.
    """
    if isinstance(problem, JumpSpec):
        problem = build_problem(problem)
    opts = opts or SolveOptions()

    z = initial_guess(problem) if z0 is None else np.asarray(z0, dtype=float).copy()
    bounds = Bounds(*np.array(problem.bounds()).T)
    z = np.clip(z, bounds.lb, bounds.ub)

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
    for outer in range(1, opts.max_outer + 1):
        res = minimize(al.value_grad, z, jac=True, method=_projected_newton,
                       bounds=bounds, options={"maxiter": opts.max_inner,
                                               "newton_system": al.newton_system})
        z = res.x
        kkt = float(np.max(np.abs(z - np.clip(z - res.jac, bounds.lb, bounds.ub))))
        viol, c_eq, c_in = violation(z)
        trace.append({"violation": viol, "rho": al.rho, "newton_steps": int(res.nit),
                      "delta": float(res.delta)})
        if best is None or viol < best[0]:
            best = (viol, z.copy())
        if viol <= opts.tol:
            break
        al.lam = al.lam + al.rho * s_eq * c_eq
        al.mu = np.maximum(0.0, al.mu + al.rho * s_in * c_in)
        if outer % 2 == 0:
            al.rho = min(al.rho * _RHO_GROWTH, _RHO_MAX)

    viol, z = best
    pos, vel, omega, rots, forces, durations = problem.unpack(z)
    states = [SrbdState(pos=pos[k], vel=vel[k], omega=omega[k], rot=rots[k])
              for k in range(problem.n_knots)]
    cost, c_eq, c_in, _ = problem._eval(z, need_grad=False)
    defects = _defect_norms(problem, c_eq, c_in)
    ortho = max(so3.orthonormality_defect(r) for r in rots)
    sol = TimingSolution(
        durations=durations, states=states, forces=forces, cost=cost,
        max_violation=viol, defect_norms=defects, kkt_residual=kkt,
        converged=viol <= opts.tol, outer_iterations=outer, ortho_defect=ortho,
    )
    if not sol.converged:
        raise NoConvergenceError(
            f"timing optimization stalled at violation {viol:.3e} "
            f"(target {opts.tol:.1e}) after {outer} outer iterations",
            {"violation": viol, "durations": durations, "defects": defects,
             "trace": trace},
        )
    return sol


def _defect_norms(problem: TimingProblem, c_eq: np.ndarray, c_in: np.ndarray) -> dict:
    n = problem.n_int
    o = 18 + 12
    return {
        "boundary": float(np.max(np.abs(c_eq[:o]), initial=0.0)),
        "position": float(np.max(np.abs(c_eq[o:o + 3 * n]), initial=0.0)),
        "velocity": float(np.max(np.abs(c_eq[o + 3 * n:o + 6 * n]), initial=0.0)),
        "body_rate": float(np.max(np.abs(c_eq[o + 6 * n:o + 9 * n]), initial=0.0)),
        "rotation": float(np.max(np.abs(c_eq[o + 9 * n:o + 18 * n]), initial=0.0)),
        "inequality": float(np.max(c_in, initial=0.0)),
    }


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
                    fric = max(fric, abs(fx) - spec.mu * fz, abs(fy) - spec.mu * fz)
                    fz_bounds = max(fz_bounds, spec.f_min - fz, fz - spec.f_max)
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
                    u = states[k].rot @ (feet_pos[f] - states[k].pos) - spec.sphere_centers[f]
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


def export_reference(sol: TimingSolution, spec: JumpSpec, dt: float = 0.01) -> BodyReference:
    """Sample the solution on a uniform grid for the tracking controller.

    Positions and velocities are interpolated linearly between knots,
    rotations along the geodesic; knot times are reproduced exactly.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    knot_t = [0.0]
    for i, ph in enumerate(spec.phases):
        h = float(sol.durations[i]) / ph.n_knots
        knot_t.extend(knot_t[-1] + h * (np.arange(ph.n_knots) + 1.0))
    knot_t = np.asarray(knot_t)
    total = knot_t[-1]
    n = int(round(total / dt)) + 1
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
