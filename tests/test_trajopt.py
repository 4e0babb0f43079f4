import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import Bounds, minimize

from quadstack import scenarios, so3
from quadstack.balance import BodyModel
from quadstack.qpsolver import QpProblem, solve as qp_solve
from quadstack.trajopt import (
    BodyReference,
    ContactPhase,
    JumpSpec,
    NoConvergenceError,
    SolveOptions,
    SpecError,
    SrbdState,
    build_problem,
    check_constraints,
    export_reference,
    initial_guess,
    rotation_defect,
    solve_timing,
    srbd_residual,
    trajectory_cost,
)
from quadstack.trajopt import _FD_STEP, _BorderedSystem, _KktStructure, _projected_newton

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


class TestBuild:
    def test_variable_and_constraint_counts(self):
        spec = hop_spec(n_knots=10)
        prob = build_problem(spec)
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
        prob = build_problem(spec)
        for (j, f) in prob.force_index:
            assert prob.int_feet[j], "force variable on a flight interval"

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            stand_spec(phases=[])
        with pytest.raises(SpecError):
            stand_spec(f_min=0.0)
        with pytest.raises(SpecError):
            stand_spec(phases=[ContactPhase(feet=(0, 9), n_knots=8)])
        with pytest.raises(SpecError):
            stand_spec(t_min=2.0, t_max=1.0)

    def test_gradient_matches_finite_differences(self):
        spec = hop_spec(n_knots=4, flight_min=0.1)
        prob = build_problem(spec)
        rng = np.random.default_rng(3)
        z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
        lam = rng.normal(size=prob.n_eq)
        mu = np.abs(rng.normal(size=prob.n_ineq))
        rho = 3.0

        def al(zv):
            cost, c_eq, c_in, grad = prob._eval(zv, need_grad=True)
            y_eq = lam + rho * c_eq
            y_in = np.maximum(0.0, mu + rho * c_in)
            val = (cost + lam @ c_eq + 0.5 * rho * float(c_eq @ c_eq)
                   + float(np.sum(y_in**2 - mu**2)) / (2.0 * rho))
            return val, grad(y_eq, y_in)

        _, g = al(z)
        eps = 1e-5
        for i in rng.choice(prob.n_vars, size=60, replace=False):
            zp = z.copy(); zp[i] += eps
            zm = z.copy(); zm[i] -= eps
            fd = (al(zp)[0] - al(zm)[0]) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(fd))


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
    @pytest.fixture(scope="class")
    def setup(self):
        prob = build_problem(hop_spec(n_knots=4, flight_min=0.1))
        rng = np.random.default_rng(7)
        z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
        y = (rng.normal(size=prob.n_eq), np.abs(rng.normal(size=prob.n_ineq)))
        return prob, _KktStructure(prob), z, y

    @staticmethod
    def constraints(prob, z):
        _, c_eq, c_in, _ = prob._eval(z, need_grad=False)
        return np.concatenate([c_eq, c_in])

    def test_jacobian_matches_central_differences(self, setup):
        prob, structure, z, _ = setup
        eps = 1e-6
        jac = np.zeros((structure.n_rows, prob.n_vars))
        for i in range(prob.n_vars):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            jac[:, i] = (self.constraints(prob, zp) - self.constraints(prob, zm)) / (2 * eps)
        pattern = np.zeros(jac.shape, dtype=bool)
        pattern[structure.jr, structure.jc] = True
        assert pattern.sum() == len(structure.jr)       # no duplicate entries
        assert not np.any(jac[~pattern])                 # every nonzero is structural
        jvals, _ = structure.differences(prob, z, self.constraints(prob, z))
        assert_allclose(jvals, jac[structure.jr, structure.jc],
                        atol=1e-6 * np.max(np.abs(jac)))

    def test_coloured_hessian_matches_dense_differences(self, setup):
        prob, structure, z, y = setup
        _, c_eq, c_in, grad = prob._eval(z, need_grad=True)
        jvals, dg = structure.differences(prob, z, np.concatenate([c_eq, c_in]), y, grad(*y))
        eps = 1e-6
        hess = np.zeros((prob.n_vars, prob.n_vars))
        for i in range(prob.n_vars):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            hess[:, i] = (prob._eval(zp, True)[3](*y) - prob._eval(zm, True)[3](*y)) / (2 * eps)
        hess = 0.5 * (hess + hess.T)
        scale = np.max(np.abs(hess))
        lagrangian = dense_matrix(structure.assemble(jvals, np.zeros(structure.n_rows), dg),
                                  structure)
        assert_allclose(lagrangian, hess, atol=1e-6 * scale)
        # the Gauss-Newton term adds J^T W J exactly
        w = np.random.default_rng(8).uniform(0.0, 2.0, structure.n_rows)
        jac = np.zeros((structure.n_rows, prob.n_vars))
        jac[structure.jr, structure.jc] = jvals
        full = dense_matrix(structure.assemble(jvals, w, dg), structure)
        assert_allclose(full - lagrangian, jac.T @ (w[:, None] * jac),
                        atol=1e-9 * np.max(np.abs(full)))


class TestBatchedEvaluation:
    """All coloured differences come from one stacked ``_eval`` call."""

    @pytest.fixture(scope="class", params=["hop", "spin"])
    def setup(self, request):
        spec = (scenarios.hop_spec(n_knots=4) if request.param == "hop"
                else scenarios.spin_spec(n_knots=4))
        prob = build_problem(spec)
        rng = np.random.default_rng(11)
        z = initial_guess(prob) + rng.normal(size=prob.n_vars) * 0.01
        y = (rng.normal(size=prob.n_eq), np.abs(rng.normal(size=prob.n_ineq)))
        return prob, _KktStructure(prob), z, y

    @staticmethod
    def per_colour_loop(prob, structure, z, y):
        """The differences with one ``_eval`` and one ``grad`` call per colour."""
        _, c_eq, c_in, grad = prob._eval(z, need_grad=True)
        c0, g0 = np.concatenate([c_eq, c_in]), grad(*y)
        jvals = -structure.unit_shift
        dg = np.empty((structure.n_colours, prob.n_vars))
        for k in range(structure.n_colours):
            members = np.flatnonzero(structure.colour == k)
            step = _FD_STEP * max(1.0, float(np.max(np.abs(z[members]))))
            zk = z.copy()
            zk[members] += step
            _, ck_eq, ck_in, grad_k = prob._eval(zk, need_grad=True)
            entries = np.flatnonzero(structure.colour[structure.jc] == k)
            rows = structure.jr[entries]
            jvals[entries] += (np.concatenate([ck_eq, ck_in])[rows] - c0[rows]) / step
            dg[k] = (grad_k(*y) - g0) / step
        jvals[structure.unit] = 1.0
        return c0, g0, jvals, dg

    def test_differences_match_per_colour_loop(self, setup):
        prob, structure, z, y = setup
        c0, g0, j_loop, dg_loop = self.per_colour_loop(prob, structure, z, y)
        jvals, dg = structure.differences(prob, z, c0, y, g0)
        assert_allclose(jvals, j_loop, rtol=1e-12, atol=1e-12 * np.max(np.abs(j_loop)))
        assert_allclose(dg, dg_loop, rtol=1e-12, atol=1e-12 * np.max(np.abs(dg_loop)))
        # without multipliers only the Jacobian is differenced
        jvals_only, none = structure.differences(prob, z, c0)
        assert none is None
        assert_allclose(jvals_only, j_loop, rtol=1e-12, atol=1e-12 * np.max(np.abs(j_loop)))

    def test_one_row_stack_is_the_unbatched_call(self, setup):
        prob, _, z, y = setup
        cost, c_eq, c_in, grad = prob._eval(z, need_grad=True)
        s_cost, s_eq, s_in, s_grad = prob._eval(z[None], need_grad=True)
        assert s_cost.shape == (1,) and s_eq.shape == (1, prob.n_eq)
        assert s_cost[0] == cost
        assert np.array_equal(s_eq[0], c_eq) and np.array_equal(s_in[0], c_in)
        assert np.array_equal(s_grad(*y)[0], grad(*y))
        assert np.array_equal(prob._eval(z[None], need_grad=False)[1][0],
                              prob._eval(z, need_grad=False)[1])

    def test_stack_rows_match_single_calls(self, setup):
        prob, _, z, y = setup
        stack = z + np.random.default_rng(12).normal(size=(5, prob.n_vars)) * 1e-3
        cost, c_eq, c_in, grad = prob._eval(stack, need_grad=True)
        g = grad(*y)
        assert g.shape == (5, prob.n_vars)
        for i, zi in enumerate(stack):
            ci, eq_i, in_i, grad_i = prob._eval(zi, need_grad=True)
            assert cost[i] == pytest.approx(ci, rel=1e-14)
            assert np.array_equal(c_eq[i], eq_i) and np.array_equal(c_in[i], in_i)
            assert np.array_equal(g[i], grad_i(*y))


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


class TestProjectedNewton:
    """The inner solver on a small problem: the last variable is the border."""

    @staticmethod
    def solve(x0, lo, hi):
        deltas = []

        def system(x):
            h = quartic_bowl(x)[2]
            n_x = len(x) - 1
            band = np.zeros((n_x, n_x))
            for d in range(n_x):
                s = n_x - 1 - d
                band[d, s:] = h[np.arange(n_x - s), np.arange(s, n_x)]
            out = _BorderedSystem(band, h[:n_x, n_x:], h[n_x:, n_x:], np.arange(n_x))
            step = out.step

            def recorded(g, fixed, delta):
                deltas.append(delta)
                return step(g, fixed, delta)

            out.step = recorded
            return out

        res = minimize(lambda x: quartic_bowl(x)[:2], x0, jac=True, method=_projected_newton,
                       bounds=Bounds(lo, hi), options={"maxiter": 50, "newton_system": system})
        return res, deltas

    def test_damping_recovers_from_indefinite_hessian(self):
        x0 = np.array([0.1, -0.1, 0.2, 0.05])
        res, deltas = self.solve(x0, np.full(4, -np.inf), np.full(4, np.inf))
        assert res.success
        assert deltas[0] == 0.0 and max(deltas) > 0.0    # first factorization failed
        assert np.max(np.abs(res.jac)) <= 1e-6
        assert np.all(np.linalg.eigvalsh(quartic_bowl(res.x)[2]) > 0.0)

    def test_bound_blocked_variables_stay_on_the_bound(self):
        # the first variable and the bordered last one would go to about 1
        hi = np.array([0.5, np.inf, np.inf, 0.25])
        res, _ = self.solve(np.array([0.9, 0.9, 0.9, 0.2]), np.full(4, -np.inf), hi)
        assert res.success
        assert res.x[0] == 0.5 and res.x[3] == 0.25
        assert res.jac[0] < 0.0 and res.jac[3] < 0.0
        assert np.max(np.abs(res.jac[1:3])) <= 1e-6


@pytest.fixture(scope="module")
def stand_solution():
    spec = stand_spec(n_knots=8)
    return spec, solve_timing(build_problem(spec))


@pytest.fixture(scope="module")
def hop_solution():
    spec = hop_spec(n_knots=10)
    return spec, solve_timing(build_problem(spec))


@pytest.fixture(scope="module")
def yaw_stand_solution():
    spec = stand_spec(n_knots=8, r_goal=so3.rot_z(0.4),
                      sphere_radius=0.25, t_min=0.4, t_max=0.9)
    return spec, solve_timing(build_problem(spec))


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
        # min eps_f |f|^2 subject to force/moment balance, which the dense
        # QP solver reproduces
        spec, sol = stand_solution
        a = np.zeros((6, 12))
        for i in range(4):
            a[0:3, 3 * i:3 * i + 3] = np.eye(3)
            a[3:6, 3 * i:3 * i + 3] = so3.hat(FEET[i] - np.array([0.0, 0.0, 0.45]))
        b = np.concatenate([[0.0, 0.0, MODEL.mass * G], np.zeros(3)])
        qp = QpProblem(h=2 * spec.eps_force * np.eye(12), g=np.zeros(12),
                       c_eq=a, d_eq=b)
        res = qp_solve(qp)
        f_qp = res.x.reshape(4, 3)
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
        sol20 = solve_timing(build_problem(spec20))

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

    def test_knots_reproduced(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        h = float(sol.durations[0]) / 8
        ref = export_reference(sol, spec, dt=h)
        for k in range(9):
            assert_allclose(ref.pos[k], sol.states[k].pos, atol=1e-9)
            assert_allclose(ref.vel[k], sol.states[k].vel, atol=1e-9)

    def test_midpoint_average(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        h = float(sol.durations[0]) / 8
        ref = export_reference(sol, spec, dt=h / 2)
        assert_allclose(ref.pos[1], 0.5 * (sol.states[0].pos + sol.states[1].pos), atol=1e-9)

    def test_sample_count(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        dt = 0.01
        ref = export_reference(sol, spec, dt=dt)
        assert len(ref.t) == int(round(float(sol.durations.sum()) / dt)) + 1

    def test_rotations_orthonormal(self, yaw_stand_solution):
        spec, sol = yaw_stand_solution
        ref = export_reference(sol, spec, dt=0.01)
        for r in ref.rot[::5]:
            assert so3.orthonormality_defect(r) <= 1e-9


class TestDiagnostics:
    def test_no_convergence_reports(self):
        spec = hop_spec(n_knots=6)
        with pytest.raises(NoConvergenceError) as exc:
            solve_timing(build_problem(spec), opts=SolveOptions(tol=1e-14, max_outer=2,
                                                                max_inner=30))
        diag = exc.value.args[1]
        assert "violation" in diag and "durations" in diag
        trace = diag["trace"]
        assert len(trace) == 2
        assert trace[0]["rho"] == SolveOptions().rho0
        for entry in trace:
            assert 1 <= entry["newton_steps"] <= 30
            assert entry["violation"] > 1e-14 and entry["delta"] >= 0.0
