import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import scenarios, so3, trajopt
from quadstack.balance import BodyModel
from quadstack.trajopt import (
    ContactPhase,
    JumpSpec,
    NoConvergenceError,
    SpecError,
    SrbdState,
    TimingProblem,
    check_constraints,
    export_reference,
    initial_guess,
    rotation_defect,
    solve_timing,
    srbd_residual,
    trajectory_cost,
)
from quadstack.trajopt import _BorderedSystem, _KktStructure

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
MODEL = BodyModel()
G = 9.81


def stand_state(z=0.45, **kw):
    d = dict(pos=[0.0, 0.0, z], vel=np.zeros(3), omega=np.zeros(3), rot=np.eye(3))
    d.update(kw)
    return SrbdState(**d)


def stand_spec(n_knots=8, **kw):
    # rest-at-end pins are needed for a true stand: without them the force
    # cost is minimized by tossing the body and letting it fall through the
    # goal point with nonzero velocity
    d = dict(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots)],
        p_start=[0.0, 0.0, 0.45], r_start=np.eye(3),
        p_goal=[0.0, 0.0, 0.45], r_goal=np.eye(3),
        v_goal=np.zeros(3), omega_goal=np.zeros(3),
        feet_start=FEET, t_min=0.4, t_max=1.0,
    )
    d.update(kw)
    return JumpSpec(**d)


def hop_spec(n_knots=10, flight_min=0.25, **kw):
    d = dict(
        phases=[ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots),
                ContactPhase(feet=(), n_knots=n_knots, t_min=flight_min),
                ContactPhase(feet=(0, 1, 2, 3), n_knots=n_knots)],
        p_start=[0.0, 0.0, 0.45], r_start=np.eye(3),
        p_goal=[0.0, 0.0, 0.45], r_goal=np.eye(3),
        v_goal=np.zeros(3), omega_goal=np.zeros(3),
        feet_start=FEET, t_min=0.5, t_max=1.8,
        com_min=[-0.2, -0.2, 0.25], com_max=[0.2, 0.2, 0.45],
    )
    d.update(kw)
    return JumpSpec(**d)


class TestResiduals:
    def test_static_equilibrium(self):
        x = stand_state()
        f = np.zeros((4, 3))
        f[:, 2] = MODEL.mass * G / 4.0
        r = srbd_residual(x, x, f, FEET, 0.02, MODEL)
        assert_allclose(r, np.zeros(6), atol=1e-12)

    def test_ballistic_velocity(self):
        h = 0.02
        x0 = stand_state(vel=[0.0, 0.0, 1.0])
        x1 = stand_state(vel=[0.0, 0.0, 1.0 - G * h])
        r = srbd_residual(x0, x1, np.zeros((4, 3)), FEET, h, MODEL)
        assert_allclose(r, np.zeros(6), atol=1e-12)
        x_bad = stand_state(vel=[0.0, 0.0, 1.0])
        r2 = srbd_residual(x0, x_bad, np.zeros((4, 3)), FEET, h, MODEL)
        assert abs(r2[2] - G * h) <= 1e-12

    def test_rear_foot_pitch_sign(self):
        # upward push on a rear foot: f x (p - p_f) has positive y component
        x0 = stand_state()
        f = np.zeros((4, 3))
        f[2, 2] = 100.0  # BR foot, behind the CoM
        x1 = stand_state()
        r = srbd_residual(x0, x1, f, FEET, 0.02, MODEL)
        assert r[4] < 0.0  # omega defect = -h * om_dot => negative when om_dot_y > 0

    def test_rotation_defect_zero_rate(self):
        r = np.asarray(so3.rot_z(0.3))
        assert_allclose(rotation_defect(r, r, np.zeros(3), 0.02), np.zeros((3, 3)), atol=0.0)

    def test_rotation_defect_chaining(self):
        # chaining defect-zero steps reproduces the composed Taylor product
        omega = np.array([0.4, -0.2, 1.0])
        h = 0.02
        r = np.eye(3)
        for _ in range(10):
            r = r @ so3.exp_taylor4(omega * h)
        r_check = np.eye(3)
        for _ in range(10):
            step = r_check @ so3.exp_taylor4(omega * h)
            assert_allclose(rotation_defect(r_check, step, omega, h), np.zeros((3, 3)), atol=1e-15)
            r_check = step
        assert_allclose(r_check, r, atol=1e-14)

    def test_orthogonality_drift_bound(self):
        # 60 defect-zero steps at |omega h| <= 0.05 stay orthonormal to 1e-6
        omega = np.array([1.5, -1.0, 2.0])
        omega *= 0.05 / (np.linalg.norm(omega) * 0.02)
        r = np.eye(3)
        for _ in range(60):
            r = r @ so3.exp_taylor4(omega * 0.02)
        assert so3.orthonormality_defect(r) <= 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            srbd_residual(stand_state(), stand_state(), np.zeros((4, 3)), FEET, 0.0, MODEL)


class TestCost:
    def test_zero_trajectory(self):
        states = [stand_state() for _ in range(5)]
        refs = [np.eye(3)] * 5
        assert trajectory_cost(states, np.zeros((4, 4, 3)), refs, 1e-2, 1e-3, 1.0) == 0.0

    def test_single_force_knot(self):
        states = [stand_state()]
        f = np.zeros((1, 4, 3))
        f[0, 0, 2] = 10.0
        assert_allclose(trajectory_cost(states, f, [np.eye(3)], 0.0, 1e-3, 0.0), 0.1)

    def test_foot_relabel_invariance(self):
        states = [stand_state()]
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 4, 3))
        c1 = trajectory_cost(states, f, [np.eye(3)], 0.0, 1e-3, 0.0)
        c2 = trajectory_cost(states, f[:, [2, 3, 0, 1], :], [np.eye(3)], 0.0, 1e-3, 0.0)
        assert_allclose(c1, c2)

    def test_rotation_error_term(self):
        x = stand_state(rot=so3.rot_z(0.2))
        c = trajectory_cost([x], np.zeros((0, 4, 3)), [np.eye(3)], 0.0, 0.0, 2.0)
        assert_allclose(c, 2.0 * 0.2**2, atol=1e-10)

    @pytest.mark.slow
    @pytest.mark.parametrize("solution", ["hop_solution", "yaw_stand_solution"])
    def test_oracle_of_the_solver_cost(self, solution, request):
        # the per-knot cost sum, on references interpolated here, against the
        # cost the solver's vectorized evaluation reports
        spec, sol = request.getfixturevalue(solution)
        n_int = len(sol.states) - 1
        refs = [so3.interp_rotation(spec.r_start, spec.r_goal, k / n_int)
                for k in range(n_int + 1)]
        cost = trajectory_cost(sol.states, sol.forces, refs, trajopt._EPS_OMEGA,
                               trajopt._EPS_FORCE, trajopt._EPS_ROT)
        assert_allclose(cost, sol.cost, rtol=1e-12, atol=0.0)

    def test_log_factor_derivatives(self):
        # a(c) = theta / (2 sin theta) and its c-derivatives, on both sides
        # of the switch to the series near c = 1 and across it
        def factor(c):
            m = np.stack([so3.rot_z(np.arccos(x)) for x in c], axis=-1)
            return trajopt._log_factor(m)[1:]

        c = np.array([1.0 - 5e-4, 0.99, 0.5, -0.7])
        eps = 1e-6
        a, a_c, a_cc = factor(c)
        a_p, a_c_p, _ = factor(c + eps)
        a_m, a_c_m, _ = factor(c - eps)
        assert_allclose(a_c, (a_p - a_m) / (2 * eps), rtol=1e-6)
        assert_allclose(a_cc, (a_c_p - a_c_m) / (2 * eps), rtol=1e-5)
        switch = factor(1.0 - 1e-3 * np.array([1.0 - 1e-9, 1.0 + 1e-9]))
        for side in switch:
            assert_allclose(side[0], side[1], rtol=1e-9)


class TestBuild:
    def test_variable_and_constraint_counts(self):
        spec = hop_spec(n_knots=10)
        prob = TimingProblem(spec)
        n = 30  # intervals
        assert prob.n_int == n
        assert prob.n_vars == 18 * (n + 1) + 3 * (4 * 10 + 0 + 4 * 10) + 3
        # eq: 18 boundary at start + 12 at goal + 6 goal twist + 18 per
        # interval + 3 angular-acceleration pin
        assert prob.n_eq == 18 + 12 + 6 + 18 * n + 3
        # ineq: 4 friction rows per force item + sphere rows + 2 time rows
        n_force_items = 4 * 10 + 4 * 10
        n_sphere = 4 * 11 + 4 * 11
        assert prob.n_ineq == 4 * n_force_items + n_sphere + 2

    def test_flight_knots_have_no_force_variables(self):
        spec = hop_spec(n_knots=6)
        prob = TimingProblem(spec)
        for j in prob.fi_j:
            assert prob.int_feet[j], "force variable on a flight interval"

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            stand_spec(phases=[])
        with pytest.raises(SpecError):
            stand_spec(phases=[ContactPhase(feet=(0, 9), n_knots=8)])
        with pytest.raises(SpecError):
            stand_spec(t_min=2.0, t_max=1.0)
        # a phase floor below the vanishing-phase guard is refused, not raised
        with pytest.raises(SpecError, match="below"):
            ContactPhase(feet=(), n_knots=8, t_min=0.01)

    def test_gradient_matches_finite_differences(self):
        spec = hop_spec(n_knots=4, flight_min=0.1)
        prob = TimingProblem(spec)
        rng = np.random.default_rng(3)
        z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
        lam = rng.normal(size=prob.n_eq)
        mu = np.abs(rng.normal(size=prob.n_ineq))
        rho = 3.0

        def al(zv):
            cost, c_eq, c_in, _ = prob._eval(zv, need_grad=False)
            y_eq = lam + rho * c_eq
            y_in = np.maximum(0.0, mu + rho * c_in)
            val = (cost + lam @ c_eq + 0.5 * rho * float(c_eq @ c_eq)
                   + float(np.sum(y_in**2 - mu**2)) / (2.0 * rho))
            return val, (y_eq, y_in)

        # the AL gradient is the Lagrangian's at y = (lam + rho c_eq, max(0, mu + rho c_in))
        g = prob._derivative_blocks(prob._state(z), *al(z)[1])[2]
        eps = 1e-5
        for i in rng.choice(prob.n_vars, size=60, replace=False):
            zp = z.copy(); zp[i] += eps
            zm = z.copy(); zm[i] -= eps
            fd = (al(zp)[0] - al(zm)[0]) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(fd))

    def test_derivative_handle_is_the_blocks(self):
        prob = TimingProblem(hop_spec(n_knots=4, flight_min=0.1))
        rng = np.random.default_rng(4)
        z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
        y = (rng.normal(size=prob.n_eq), np.abs(rng.normal(size=prob.n_ineq)))
        _, _, _, derivatives = prob._eval(z, need_grad=True)
        assert prob._eval(z, need_grad=False)[3] is None
        z_seen = z.copy()
        z[:] = 0.0                       # the handle keeps its own point
        for a, b in zip(derivatives(*y), prob._derivative_blocks(prob._state(z_seen), *y)):
            assert np.array_equal(a, b)


def dense_jacobian(prob, jac):
    """The stacked [equality; inequality] Jacobian from its derivative blocks."""
    full = np.zeros((prob.n_eq + prob.n_ineq, prob.n_vars))
    rows, cols = prob.block_rows, prob.block_cols
    g, r, c = np.nonzero((rows[:, :, None] >= 0) & (cols[:, None, :] >= 0))
    entries = rows[g, r] * prob.n_vars + cols[g, c]
    assert len(np.unique(entries)) == len(entries)       # no entry in two blocks
    full[rows[g, r], cols[g, c]] = jac[g, r, c]
    full[prob.unit_rows, prob.unit_vars] = 1.0            # boundary rows
    full[-2, prob.nt_off:] = -1.0                         # duration window
    full[-1, prob.nt_off:] = 1.0
    return full


def dense_matrix(system, structure):
    """The bordered banded Newton matrix as a dense array in variable order."""
    n_x, u = structure.n_x, structure.u
    a = np.zeros((n_x, n_x))
    for d in range(u + 1):
        s = u - d
        cols = np.arange(s, n_x)
        a[cols - s, cols] = system.band[d, s:]
    a = np.triu(a) + np.triu(a, 1).T
    p = structure.pos
    k = np.zeros((n_x + structure.n_t, n_x + structure.n_t))
    k[:n_x, :n_x] = a[np.ix_(p, p)]
    k[:n_x, n_x:] = system.border[p]
    k[n_x:, :n_x] = system.border[p].T
    k[n_x:, n_x:] = system.corner
    return k


class TestNewtonStructure:
    """The exact derivative blocks against central differences of ``_eval``."""

    @pytest.fixture(scope="class")
    def setups(self):
        out = []
        for seed, spec in enumerate((scenarios.hop_spec(n_knots=4),
                                     scenarios.spin_spec(n_knots=4))):
            prob = TimingProblem(spec)
            rng = np.random.default_rng(7 + seed)
            z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
            # push some tangential forces out of the pyramid and lift the
            # body at a stance knot so that its sphere rows are violated
            items = prob.nf_off + 3 * np.arange(0, prob.n_force // 3, 5)
            z[items] += 0.3
            z[18 * 2 + 2] += 0.25
            _, c_eq, c_in, _ = prob._eval(z, need_grad=False)
            n_fric = 4 * (prob.n_force // 3)
            assert np.any(c_in[:n_fric] > 0.0) and np.any(c_in[n_fric:-2] > 0.0)
            # multipliers on the active inequality rows only, as in the AL
            y = (rng.normal(size=prob.n_eq),
                 np.abs(rng.normal(size=prob.n_ineq)) * (c_in > 0.0))
            out.append((prob, _KktStructure(prob), z, y))
        return out

    @staticmethod
    def constraints(prob, z):
        _, c_eq, c_in, _ = prob._eval(z, need_grad=False)
        return np.concatenate([c_eq, c_in])

    def test_jacobian_matches_central_differences(self, setups):
        for prob, structure, z, _ in setups:
            eps = 1e-6
            fd = np.zeros((structure.n_rows, prob.n_vars))
            for i in range(prob.n_vars):
                zp, zm = z.copy(), z.copy()
                zp[i] += eps
                zm[i] -= eps
                fd[:, i] = (self.constraints(prob, zp) - self.constraints(prob, zm)) / (2 * eps)
            jac = prob._derivative_blocks(prob._state(z))[0]
            padding = (prob.block_rows[:, :, None] < 0) | (prob.block_cols[:, None, :] < 0)
            assert not np.any(jac[padding])
            assert not np.any(jac[:, ~prob.block_pattern])     # the band layout's pattern
            full = dense_jacobian(prob, jac)
            assert_allclose(full, fd, atol=1e-6 * np.max(np.abs(fd)))
            # the row scaling reads the same rows
            assert_allclose(structure.row_norms(jac), np.linalg.norm(full, axis=1), rtol=1e-12)

    def test_coloured_hessian_matches_dense_differences(self, setups):
        for prob, structure, z, y in setups:
            eps = 1e-6
            fd = np.zeros((prob.n_vars, prob.n_vars))
            for i in range(prob.n_vars):
                zp, zm = z.copy(), z.copy()
                zp[i] += eps
                zm[i] -= eps
                fd[:, i] = (prob._derivative_blocks(prob._state(zp), *y)[2]
                            - prob._derivative_blocks(prob._state(zm), *y)[2]) / (2 * eps)
            fd = 0.5 * (fd + fd.T)
            jac, hess, _ = prob._derivative_blocks(prob._state(z), *y)
            lagrangian = dense_matrix(structure.assemble(jac, hess, np.zeros(structure.n_rows)),
                                      structure)
            assert_allclose(lagrangian, fd, atol=1e-6 * np.max(np.abs(fd)))
            # the Gauss-Newton term adds J^T W J exactly
            w = np.random.default_rng(8).uniform(0.0, 2.0, structure.n_rows)
            j_full = dense_jacobian(prob, prob._derivative_blocks(prob._state(z))[0])
            blocks = prob._derivative_blocks(prob._state(z), *y)
            full = dense_matrix(structure.assemble(*blocks[:2], w), structure)
            assert_allclose(full - lagrangian, j_full.T @ (w[:, None] * j_full),
                            atol=1e-9 * np.max(np.abs(full)))


def quartic_bowl(x):
    """Sum of double wells (x^2 - 1)^2 coupled along a chain; indefinite near 0."""
    d = np.diff(x)
    f = float(np.sum((x * x - 1.0) ** 2) + 0.5 * np.sum(d * d))
    g = 4.0 * x * (x * x - 1.0)
    g[:-1] -= d
    g[1:] += d
    h = np.diag(12.0 * x * x - 4.0)
    h += np.diag(np.r_[1.0, np.full(len(x) - 2, 2.0), 1.0])
    h -= np.diag(np.ones(len(x) - 1), 1) + np.diag(np.ones(len(x) - 1), -1)
    return f, g, h


class BowlMerit:
    """quartic_bowl as the merit object of ``trajopt.minimize``: the last
    variable is the border, and every damping the loop tries is recorded."""

    def __init__(self):
        self.deltas = []

    def value(self, x):
        self.x = x.copy()
        return quartic_bowl(x)[0]

    def derivatives(self):
        _, g, h = quartic_bowl(self.x)
        return g, lambda: self.system(h)

    def system(self, h):
        n_x = len(h) - 1
        band = np.zeros((n_x, n_x))
        for d in range(n_x):
            s = n_x - 1 - d
            band[d, s:] = h[np.arange(n_x - s), np.arange(s, n_x)]
        out = _BorderedSystem(band, h[:n_x, n_x:], h[n_x:, n_x:], np.arange(n_x))
        masked = out.masked

        def recorded(g, fixed):
            step = masked(g, fixed)

            def at(delta):
                self.deltas.append(delta)
                return step(delta)
            return at

        out.masked = recorded
        return out


class TestProjectedNewton:
    """``trajopt.minimize`` on a small problem."""

    @staticmethod
    def solve(x0, lo, hi, monkeypatch):
        monkeypatch.setattr(trajopt, "_MAX_INNER", 50)
        merit = BowlMerit()
        return trajopt.minimize(merit, x0, lo, hi), merit.deltas

    def test_damping_recovers_from_indefinite_hessian(self, monkeypatch):
        x0 = np.array([0.1, -0.1, 0.2, 0.05])
        res, deltas = self.solve(x0, np.full(4, -np.inf), np.full(4, np.inf), monkeypatch)
        assert res.stop == "Newton decrement below tolerance"
        assert deltas[0] == 0.0 and max(deltas) > 0.0    # first factorization failed
        assert np.max(np.abs(res.grad)) <= 1e-6
        assert np.all(np.linalg.eigvalsh(quartic_bowl(res.x)[2]) > 0.0)

    def test_bound_blocked_variables_stay_on_the_bound(self, monkeypatch):
        # the first variable and the bordered last one would go to about 1
        hi = np.array([0.5, np.inf, np.inf, 0.25])
        res, _ = self.solve(np.array([0.9, 0.9, 0.9, 0.2]), np.full(4, -np.inf), hi,
                            monkeypatch)
        assert res.stop == "Newton decrement below tolerance"
        assert res.x[0] == 0.5 and res.x[3] == 0.25
        assert res.grad[0] < 0.0 and res.grad[3] < 0.0
        assert np.max(np.abs(res.grad[1:3])) <= 1e-6

    def test_each_stop_is_reported(self, monkeypatch):
        free = np.full(4, -np.inf), np.full(4, np.inf)
        x0 = np.array([0.1, -0.1, 0.2, 0.05])
        monkeypatch.setattr(trajopt, "_MAX_INNER", 1)
        res = trajopt.minimize(BowlMerit(), x0, *free)
        assert (res.stop, res.nit, res.merit_evals) == ("iteration limit", 1, 2)

        monkeypatch.setattr(trajopt, "_MAX_INNER", 50)
        rising = BowlMerit()
        rising.value = lambda x: float(np.sum(x * x))   # a value its gradient does not fit
        rising.x = x0
        res = trajopt.minimize(rising, x0, *free)
        assert res.stop == "line search found no decrease" and res.nit == 1
        assert res.merit_evals == 1 + trajopt._MAX_BACKTRACKS

        singular = BowlMerit()        # no damping gives a factorization
        singular.system = lambda h: SimpleNamespace(scale=1.0, masked=lambda g, fixed: lambda d: None)
        res = trajopt.minimize(singular, x0, *free)
        assert (res.stop, res.nit, res.merit_evals) == ("no descent direction", 1, 1)
        assert np.array_equal(res.x, x0)


def legacy_tables(prob):
    """The force and stance-knot tables and the bounds, built from a
    (interval, foot) dict and a list of (knot, foot, foothold) tuples."""
    spec = prob.spec
    force_index = {}
    for j in range(prob.n_int):
        for f in prob.int_feet[j]:
            force_index[(j, f)] = 3 * len(force_index)
    stance_knots = []
    for k in range(prob.n_knots):
        seen = {}
        if k < prob.n_int:
            for f in prob.int_feet[k]:
                seen[f] = prob.int_feet_pos[k, f]
        if k > 0:
            for f in prob.int_feet[k - 1]:
                seen.setdefault(f, prob.int_feet_pos[k - 1, f])
        for f in sorted(seen):
            stance_knots.append((k, f, seen[f]))
    lo, hi = np.full(prob.n_vars, -np.inf), np.full(prob.n_vars, np.inf)
    for k in range(prob.n_knots):
        base = 18 * k
        lo[base + 9:base + 18], hi[base + 9:base + 18] = -1.2, 1.2
        lo[base + 6:base + 9], hi[base + 6:base + 9] = -60.0, 60.0
    if spec.com_min is not None or spec.com_max is not None:
        cmin = -np.inf * np.ones(3) if spec.com_min is None else np.asarray(spec.com_min, float)
        cmax = np.inf * np.ones(3) if spec.com_max is None else np.asarray(spec.com_max, float)
        for k in {k for k, _, _ in stance_knots}:
            lo[18 * k:18 * k + 3], hi[18 * k:18 * k + 3] = cmin, cmax
    for idx in force_index.values():
        col = prob.nf_off + idx
        f_min, f_max = trajopt.F_MIN / prob.f_scale, trajopt.F_MAX / prob.f_scale
        lo[col + 2], hi[col + 2] = f_min, f_max
        lo[col:col + 2], hi[col:col + 2] = -f_max, f_max
    for i, ph in enumerate(spec.phases):
        lo[prob.nt_off + i], hi[prob.nt_off + i] = ph.t_min, spec.t_max
    return {
        "fi_j": np.array([j for j, _f in force_index], dtype=int),
        "fi_f": np.array([f for _j, f in force_index], dtype=int),
        "sk_k": np.array([k for k, _f, _p in stance_knots], dtype=int),
        "sk_f": np.array([f for _k, f, _p in stance_knots], dtype=int),
        "sk_pw": np.stack([p for _k, _f, p in stance_knots]),
        "bounds": tuple(np.array(list(zip(lo, hi))).T),
    }


class TestTables:
    @pytest.mark.parametrize("box", [{"com_max": [0.2, 0.1, 0.5]},
                                     {"com_min": [-0.2, -0.1, 0.3]}])
    def test_tables_match_the_dict_and_list_construction(self, box):
        # foot 0 steps between two stance phases, so a knot where both meet
        # takes the foothold of the interval it starts; feet are listed out
        # of order, and the CoM box has one side only
        moved = FEET.copy()
        moved[0] += [0.05, -0.02, 0.0]
        spec = stand_spec(phases=[
            ContactPhase(feet=(0, 1, 2, 3), n_knots=3),
            ContactPhase(feet=(3, 0, 1), n_knots=3, feet_pos=moved),
            ContactPhase(feet=(), n_knots=2),
            ContactPhase(feet=(2, 0), n_knots=2, feet_pos=moved),
        ], t_max=1.2, **box)
        prob = TimingProblem(spec)
        old = legacy_tables(prob)
        for name in ("fi_j", "fi_f", "sk_k", "sk_f", "sk_pw"):
            new = getattr(prob, name)
            assert new.dtype == old[name].dtype and new.shape == old[name].shape, name
            assert new.flags.c_contiguous, name
            assert new.tobytes() == old[name].tobytes(), name
        for new, ref in zip(prob.bounds(), old["bounds"]):
            assert new.tobytes() == ref.tobytes()
        assert prob.n_force == 3 * len(old["fi_j"])
        assert prob.n_ineq == 4 * len(old["fi_j"]) + len(old["sk_k"]) + 2
        # the knot between the two stance phases holds foot 0 at its new foothold
        assert_allclose(prob.sk_pw[(prob.sk_k == 3) & (prob.sk_f == 0)], moved[[0]])


@pytest.fixture(scope="module")
def stand_solution():
    spec = stand_spec(n_knots=8)
    return spec, solve_timing(TimingProblem(spec))


@pytest.fixture(scope="module")
def hop_solution():
    spec = hop_spec(n_knots=10)
    return spec, solve_timing(TimingProblem(spec))


@pytest.fixture(scope="module")
def yaw_stand_solution():
    spec = stand_spec(n_knots=8, r_goal=so3.rot_z(0.4),
                      sphere_radius=0.25, t_min=0.4, t_max=0.9)
    return spec, solve_timing(TimingProblem(spec))


@pytest.mark.slow
class TestSolveStand:

    def test_converges(self, stand_solution):
        spec, sol = stand_solution
        assert sol.converged
        assert sol.max_violation <= 1e-4

    def test_duration_interior(self, stand_solution):
        spec, sol = stand_solution
        t = float(sol.durations.sum())
        assert spec.t_min - 1e-6 <= t <= spec.t_max + 1e-6

    def test_forces_quarter_weight(self, stand_solution):
        spec, sol = stand_solution
        for j in range(sol.forces.shape[0]):
            for f in range(4):
                assert_allclose(sol.forces[j, f, 2], MODEL.mass * G / 4.0, atol=2.0)

    def test_force_subproblem_matches_qp(self, stand_solution):
        # freeze states at stand; the per-interval force distribution solves
        # min eps_f |f|^2 subject to force/moment balance, whose minimizer is
        # the min-norm solution of the balance equations
        spec, sol = stand_solution
        a = np.zeros((6, 12))
        for i in range(4):
            a[0:3, 3 * i:3 * i + 3] = np.eye(3)
            a[3:6, 3 * i:3 * i + 3] = so3.hat(FEET[i] - np.array([0.0, 0.0, 0.45]))
        b = np.concatenate([[0.0, 0.0, MODEL.mass * G], np.zeros(3)])
        f_qp = np.linalg.lstsq(a, b, rcond=None)[0].reshape(4, 3)
        mid = sol.forces.shape[0] // 2
        assert_allclose(sol.forces[mid], f_qp, atol=2.0)

    def test_independent_checker_agrees(self, stand_solution):
        spec, sol = stand_solution
        rep = check_constraints(spec, sol)
        assert rep["max"] <= 1e-4


@pytest.mark.slow
class TestSolveHop:

    def test_feasible(self, hop_solution):
        spec, sol = hop_solution
        assert sol.converged
        assert check_constraints(spec, sol)["max"] <= 1e-4
        assert sol.kkt_residual <= 1e-6

    def test_matches_lbfgsb_solution(self, hop_solution):
        # the optimum the former L-BFGS-B inner solver reached on this spec
        spec, sol = hop_solution
        assert_allclose(sol.cost, 1.3975737, rtol=1e-5)
        assert_allclose(sol.durations, [0.79504, 0.25, 0.75496], atol=1e-4)

    def test_ballistic_consistency(self, hop_solution):
        # flight knots lie on a parabola whose takeoff slope matches the
        # exact ballistic relation for the realized takeoff/landing heights
        spec, sol = hop_solution
        n = 10
        t_f = float(sol.durations[1])
        h = t_f / n
        ts = np.arange(n + 1) * h
        zs = np.array([sol.states[n + i].pos[2] for i in range(n + 1)])
        coef = np.polyfit(ts, zs, 2)
        assert np.max(np.abs(zs - np.polyval(coef, ts))) <= 1e-3
        v_takeoff = coef[1]
        dz = sol.states[2 * n].pos[2] - sol.states[n].pos[2]
        v_required = G * t_f / 2.0 + dz / t_f
        assert abs(v_takeoff - v_required) <= 0.02 * v_takeoff
        assert_allclose(coef[0], -G / 2.0, rtol=1e-3)

    def test_flight_angular_momentum(self, hop_solution):
        spec, sol = hop_solution
        n = 10
        l_world = [s.rot @ (MODEL.inertia @ s.omega) for s in sol.states[n:2 * n + 1]]
        drift = max(np.linalg.norm(l - l_world[0]) for l in l_world)
        h = float(sol.durations[1]) / n
        assert drift <= 1e-3 + 10.0 * h**2  # first-order integrator, tiny rates

    def test_raw_knot_velocity_carries_euler_bias(self, hop_solution):
        # the knot velocity differs from the fitted parabola slope by g h / 2
        spec, sol = hop_solution
        n = 10
        t_f = float(sol.durations[1])
        h = t_f / n
        v_knot = sol.states[n].vel[2]
        ts = np.arange(n + 1) * h
        zs = np.array([sol.states[n + i].pos[2] for i in range(n + 1)])
        v_fit = np.polyfit(ts, zs, 2)[1]
        assert_allclose(v_fit - v_knot, G * h / 2.0, atol=2e-3)

    def test_first_order_convergence_in_h(self, hop_solution):
        # flight-phase knots vs the exact ballistic arc: global error is
        # O(h); doubling the knot count roughly halves it
        spec10, sol10 = hop_solution
        spec20 = hop_spec(n_knots=20)
        sol20 = solve_timing(TimingProblem(spec20))

        def flight_error(sol, n):
            t_f = float(sol.durations[1])
            h = t_f / n
            ts = np.arange(n + 1) * h
            z0 = sol.states[n].pos[2]
            v0 = sol.states[n].vel[2]
            z_exact = z0 + v0 * ts - 0.5 * G * ts**2
            zs = np.array([sol.states[n + i].pos[2] for i in range(n + 1)])
            return np.max(np.abs(zs - z_exact)) / (G * t_f**2)

        ratio = flight_error(sol10, 10) / flight_error(sol20, 20)
        assert 1.4 <= ratio <= 2.8


class TestExport:

    def test_knots_reproduced(self, yaw_stand_solution, monkeypatch):
        spec, sol = yaw_stand_solution
        h = float(sol.durations[0]) / 8
        monkeypatch.setattr(trajopt, "_REFERENCE_DT", h)
        ref = export_reference(sol, spec)
        for k in range(9):
            assert_allclose(ref.pos[k], sol.states[k].pos, atol=1e-9)
            assert_allclose(ref.vel[k], sol.states[k].vel, atol=1e-9)

    def test_midpoint_average(self, yaw_stand_solution, monkeypatch):
        spec, sol = yaw_stand_solution
        h = float(sol.durations[0]) / 8
        monkeypatch.setattr(trajopt, "_REFERENCE_DT", h / 2)
        ref = export_reference(sol, spec)
        assert_allclose(ref.pos[1], 0.5 * (sol.states[0].pos + sol.states[1].pos), atol=1e-9)

    def test_sample_count(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        dt = trajopt._REFERENCE_DT
        ref = export_reference(sol, spec)
        assert len(ref.t) == int(round(float(sol.durations.sum()) / dt)) + 1

    def test_grid_ends_on_the_final_knot(self, yaw_stand_solution):
        # a total that is no multiple of the sample interval ends the grid
        # with one shorter interval, on the final knot
        spec, sol = yaw_stand_solution
        durations = sol.durations * (0.634 / sol.durations.sum())
        ref = export_reference(dataclasses.replace(sol, durations=durations), spec)
        assert len(ref.t) == 65
        assert_allclose(ref.t[-2:], [0.63, 0.634], rtol=1e-12)
        assert_allclose(ref.pos[-1], sol.states[-1].pos, rtol=0.0, atol=1e-15)

    def test_rotations_orthonormal(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        ref = export_reference(sol, spec)
        for r in ref.rot[::5]:
            assert so3.orthonormality_defect(r) <= 1e-9


STOPS = ("Newton decrement below tolerance", "iteration limit",
         "line search found no decrease", "no descent direction")


class TestDiagnostics:
    @pytest.mark.slow
    @pytest.mark.parametrize("preset", ["hop", "spin90"])
    def test_no_subproblem_reaches_the_step_limit(self, preset):
        spec = (scenarios.hop_spec(n_knots=30) if preset == "hop"
                else scenarios.spin_spec(yaw_deg=90.0, n_knots=30))
        sol = solve_timing(TimingProblem(spec))
        assert sol.converged and len(sol.trace) == sol.outer_iterations
        assert max(entry["newton_steps"] for entry in sol.trace) < trajopt._MAX_INNER

    def test_derivatives_only_at_accepted_points(self, monkeypatch):
        # one _derivative_blocks call for the row scales, then one per
        # subproblem start and accepted step; the Newton systems reuse them
        # and line-search trials evaluate the merit value only
        calls = {"blocks": 0, "eval": 0}
        blocks, evaluate = trajopt.TimingProblem._derivative_blocks, trajopt.TimingProblem._eval

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trajopt.TimingProblem, "_derivative_blocks", counted("blocks", blocks))
        monkeypatch.setattr(trajopt.TimingProblem, "_eval", counted("eval", evaluate))
        sol = solve_timing(TimingProblem(hop_spec(n_knots=6)))
        steps = sum(entry["newton_steps"] for entry in sol.trace)
        merit = sum(entry["merit_evals"] for entry in sol.trace)
        # a subproblem that stops on its Newton decrement accepts one step fewer
        assert 1 + steps <= calls["blocks"] <= 1 + steps + sol.outer_iterations
        assert calls["blocks"] < calls["eval"]
        # the merit evaluations, one violation check per outer iteration and the final one
        assert calls["eval"] == merit + sol.outer_iterations + 1
        assert all(entry["merit_evals"] >= entry["newton_steps"] for entry in sol.trace)

    def test_no_convergence_reports(self, monkeypatch):
        spec = hop_spec(n_knots=6)
        monkeypatch.setattr(trajopt, "_TOL", 1e-14)
        monkeypatch.setattr(trajopt, "_MAX_OUTER", 2)
        monkeypatch.setattr(trajopt, "_MAX_INNER", 30)
        with pytest.raises(NoConvergenceError) as exc:
            solve_timing(TimingProblem(spec))
        diag = exc.value.args[1]
        assert "violation" in diag and "durations" in diag
        trace = diag["trace"]
        assert len(trace) == 2
        assert trace[0]["rho"] == trajopt._RHO0
        for entry in trace:
            assert 1 <= entry["newton_steps"] <= 30
            assert entry["violation"] > 1e-14 and entry["delta"] >= 0.0
            assert entry["stop"] in STOPS
