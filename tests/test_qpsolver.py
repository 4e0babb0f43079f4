import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import cholesky, lapack, qr_delete, solve_triangular
from scipy.linalg.lapack import dtrtrs

from quadstack import qpsolver, scenarios
from quadstack.qpsolver import ActiveSetSolver, QpProblem, QpResult, QpStatus, _solved
from quadstack.scenarios import hop_spec, reference_from_log, run_jump_opt, run_jump_sim, run_trot
from quadstack.sim import SensorNoise
from quadstack.state import unchecked

# the solver keeps no state between solves
solve = ActiveSetSolver().solve


def max_violation(qp: QpProblem, x: np.ndarray) -> float:
    """Largest excess of C x over d, 0 for a feasible x."""
    return float(np.max(qp.c_ineq @ x - qp.d_ineq, initial=0.0))


def brute_force_qp(qp: QpProblem, feas_tol: float = 1e-8):
    """Enumerate every subset of inequality constraints as an active set,
    solve the corresponding equality-constrained KKT system, and return the
    best feasible candidate. Independent of the solver under test."""
    n = qp.n
    m = len(qp.d_ineq)
    best_x, best_f = None, np.inf
    for size in range(0, m + 1):
        for subset in itertools.combinations(range(m), size):
            a, b = qp.c_ineq[list(subset)], qp.d_ineq[list(subset)]
            k = a.shape[0]
            kkt = np.block([[qp.h, a.T], [a, np.zeros((k, k))]])
            rhs = np.concatenate([-qp.g, b])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            x = sol[:n]
            if np.linalg.norm(kkt @ sol - rhs) > 1e-6:
                continue  # inconsistent active set
            if max_violation(qp, x) > feas_tol:
                continue
            f = qp.objective(x)
            if f < best_f - 1e-12:
                best_f, best_x = f, x
    return best_x, best_f


def friction_box_constraints(n_feet: int, mu: float, f_min: float, f_max: float):
    """Per-foot pyramid |fx|<=mu*fz, |fy|<=mu*fz plus f_min<=fz<=f_max."""
    rows, rhs = [], []
    for i in range(n_feet):
        base = 3 * i
        for sgn in (1.0, -1.0):
            for axis in (0, 1):
                r = np.zeros(3 * n_feet)
                r[base + axis] = sgn
                r[base + 2] = -mu
                rows.append(r)
                rhs.append(0.0)
        r = np.zeros(3 * n_feet)
        r[base + 2] = 1.0
        rows.append(r)
        rhs.append(f_max)
        r = np.zeros(3 * n_feet)
        r[base + 2] = -1.0
        rows.append(r)
        rhs.append(-f_min)
    return np.array(rows), np.array(rhs)


def assert_kkt_certificate(qp: QpProblem, res):
    """Stationarity, dual feasibility and complementary slackness of ``res``."""
    # stationarity: H x + g + C^T mu = 0 with mu >= 0
    grad = qp.h @ res.x + qp.g + qp.c_ineq.T @ res.lam_ineq
    assert np.linalg.norm(grad, ord=np.inf) <= 1e-6
    assert np.all(res.lam_ineq >= -1e-9)
    # complementary slackness
    slack = qp.d_ineq - qp.c_ineq @ res.x
    assert np.max(np.abs(res.lam_ineq * slack)) <= 1e-6


def hat(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


class TestBasics:
    @pytest.mark.parametrize("fields, message", [
        (dict(h=np.eye(3), g=np.zeros(2), c_ineq=np.zeros((0, 2)), d_ineq=np.zeros(0)), "H must"),
        (dict(h=np.eye(2), g=np.zeros(2), c_ineq=np.zeros((3, 2)), d_ineq=np.zeros(2)), "one row"),
        (dict(h=np.eye(2), g=np.zeros(2), c_ineq=np.zeros((1, 3)), d_ineq=np.zeros(1)), "reshape"),
    ])
    def test_bad_shapes_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            QpProblem(**fields)

    def test_unchecked_problem_needs_every_field(self):
        with pytest.raises(TypeError, match="c_ineq"):
            unchecked(QpProblem, h=np.eye(2), g=np.zeros(2))

    def test_row_norms_formed_once_or_assigned(self):
        c = np.array([[3.0, 4.0], [0.0, -2.0]])
        qp = QpProblem(h=np.eye(2), g=np.zeros(2), c_ineq=c, d_ineq=np.zeros(2))
        assert qp.row_norms is qp.row_norms
        assert qp.row_norms.tobytes() == np.linalg.norm(c, axis=1).tobytes()
        qp = QpProblem(h=np.eye(2), g=np.zeros(2), c_ineq=c, d_ineq=np.zeros(2))
        cached = np.array([5.0, 2.0])
        qp.row_norms = cached
        assert qp.row_norms is cached

    def test_projection_onto_orthant(self):
        # min |x - (-1, 2)|^2 s.t. x >= 0
        qp = QpProblem(h=2 * np.eye(2), g=np.array([2.0, -4.0]),
                       c_ineq=-np.eye(2), d_ineq=np.zeros(2))
        res = solve(qp)
        assert res.status is QpStatus.OPTIMAL
        assert_allclose(res.x, [0.0, 2.0], atol=1e-9)

    def test_unconstrained(self):
        qp = QpProblem(h=np.diag([2.0, 2.0]), g=np.array([-2.0, -4.0]),
                       c_ineq=np.zeros((0, 2)), d_ineq=np.zeros(0))
        res = solve(qp)
        assert_allclose(res.x, [1.0, 2.0], atol=1e-10)

    def test_hessian_read_from_its_lower_triangle(self):
        # the upper triangle is never read, on the first factor or on the
        # regularized retry that a singular H takes
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4))
        for h in (a @ a.T + np.eye(4), np.diag([1.0, 2.0, 0.0, 3.0])):
            g, c = rng.normal(size=4), rng.normal(size=(5, 4))
            d = c @ rng.normal(size=4) + 0.1
            upper_nan = h.copy()
            upper_nan[np.triu_indices(4, 1)] = np.nan
            r1 = solve(QpProblem(h=h, g=g, c_ineq=c, d_ineq=d))
            r2 = solve(QpProblem(h=upper_nan, g=g, c_ineq=c, d_ineq=d))
            assert r1.status is r2.status is QpStatus.OPTIMAL
            assert r1.x.tobytes() == r2.x.tobytes()
            assert_kkt_certificate(QpProblem(h=h + qpsolver._REG * np.eye(4), g=g, c_ineq=c,
                                             d_ineq=d), r1)

    def test_indefinite_hessian_raises(self):
        qp = QpProblem(h=np.diag([1.0, -1.0]), g=np.zeros(2), c_ineq=np.zeros((0, 2)),
                       d_ineq=np.zeros(0))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            solve(qp)

    def test_infeasible_flagged(self):
        # x <= -1 and -x <= 0 cannot both hold
        qp = QpProblem(h=np.eye(1), g=np.zeros(1),
                       c_ineq=np.array([[1.0], [-1.0]]), d_ineq=np.array([-1.0, 0.0]))
        res = solve(qp)
        assert res.status is QpStatus.INFEASIBLE

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        qp = QpProblem(h=a @ a.T + np.eye(6), g=rng.normal(size=6),
                       c_ineq=rng.normal(size=(8, 6)), d_ineq=rng.uniform(0.5, 1.0, size=8))
        r1 = solve(qp)
        r2 = solve(qp)
        assert r1.status is r2.status
        assert np.array_equal(r1.x, r2.x)

    def test_triangular_solves_keep_solve_triangular_bits(self):
        # the solver hands its C-ordered factors to LAPACK the way
        # solve_triangular does: transposed, with lower and trans flipped
        rng = np.random.default_rng(4)
        for n in range(1, 40):
            a = rng.normal(size=(n, n))
            l = np.linalg.cholesky(a @ a.T + n * np.eye(n))
            b = rng.normal(size=(n, 3))
            assert np.array_equal(_solved(dtrtrs(l.T, b, lower=0, trans=1)),
                                  solve_triangular(l, b, lower=True))
            assert np.array_equal(_solved(dtrtrs(l.T, b, lower=0)),
                                  solve_triangular(l, b, trans="T", lower=True))
        with pytest.raises(np.linalg.LinAlgError):
            _solved(dtrtrs(np.zeros((2, 2)), np.ones(2)))


    def test_norm_keeps_the_bits_of_numpy_norm(self):
        # the solver's vector norm is np.linalg.norm's own formula
        rng = np.random.default_rng(8)
        for _ in range(2000):
            v = rng.normal(size=int(rng.integers(1, 130))) * 10.0 ** rng.uniform(-8.0, 8.0)
            assert qpsolver._norm(v) == np.linalg.norm(v)


class TestAgainstBruteForce:
    def test_random_coupled_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n, m = 5, 8
            a = rng.normal(size=(n, n))
            qp = QpProblem(
                h=a @ a.T + 0.5 * np.eye(n),
                g=rng.normal(size=n) * 2.0,
                c_ineq=rng.normal(size=(m, n)),
                d_ineq=rng.uniform(0.2, 1.5, size=m),
            )
            res = solve(qp)
            assert res.status is QpStatus.OPTIMAL
            x_ref, f_ref = brute_force_qp(qp)
            assert x_ref is not None
            assert qp.objective(res.x) <= f_ref + 1e-6
            assert_allclose(res.x, x_ref, atol=1e-6)

    def test_friction_pyramid_problems(self):
        # one foot, 6 constraints: exhaustive enumeration is cheap
        rng = np.random.default_rng(23)
        c, d = friction_box_constraints(1, mu=0.6, f_min=0.0, f_max=120.0)
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            qp = QpProblem(h=a @ a.T + 0.1 * np.eye(3),
                           g=rng.normal(size=3) * 50.0, c_ineq=c, d_ineq=d)
            res = solve(qp)
            assert res.status is QpStatus.OPTIMAL
            x_ref, f_ref = brute_force_qp(qp)
            assert abs(qp.objective(res.x) - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
            assert max_violation(qp, res.x) <= 1e-7


class TestProperties:
    def test_solution_dominates_random_feasible_points(self):
        rng = np.random.default_rng(5)
        c, d = friction_box_constraints(4, mu=0.7, f_min=0.0, f_max=150.0)
        a = rng.normal(size=(12, 12))
        qp = QpProblem(h=a @ a.T + 0.2 * np.eye(12), g=rng.normal(size=12) * 30.0,
                       c_ineq=c, d_ineq=d)
        res = solve(qp)
        assert res.status is QpStatus.OPTIMAL
        f_star = qp.objective(res.x)
        for _ in range(1000):
            f = np.zeros(12)
            for i in range(4):
                fz = rng.uniform(0.0, 150.0)
                f[3 * i + 2] = fz
                f[3 * i] = rng.uniform(-0.7 * fz, 0.7 * fz)
                f[3 * i + 1] = rng.uniform(-0.7 * fz, 0.7 * fz)
            assert max_violation(qp, f) <= 1e-9
            assert f_star <= qp.objective(f) + 1e-9

    def test_kkt_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, m = 8, 14
            a = rng.normal(size=(n, n))
            qp = QpProblem(h=a @ a.T + 0.3 * np.eye(n), g=rng.normal(size=n),
                           c_ineq=rng.normal(size=(m, n)), d_ineq=rng.uniform(0.1, 2.0, size=m))
            res = solve(qp)
            assert res.status is QpStatus.OPTIMAL
            assert_kkt_certificate(qp, res)


class TestDegenerate:
    def test_stance_force_qp_from_degenerate_start(self):
        # the stance-force QP of a one-step plan (45 kg body, four feet,
        # mu = 0.6, fz <= 400 N). At its vertex F = 0, 20 of its 24 rows
        # are active and a foot's four pyramid faces are dependent.
        # H has eigenvalues from 2e-5 to 41.
        feet = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                         [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
        mass, inertia, dt = 45.0, np.diag([0.35, 2.1, 2.1]), 0.02
        s_w = np.diag([1.0, 1.0, 1.0, 15.0, 15.0, 8.0])
        a = np.vstack([np.hstack([np.eye(3)] * 4),
                       np.hstack([hat(f - [0.0, 0.0, 0.45]) for f in feet])])
        vel, omega_ref = np.array([0.1, -0.05, 0.2]), np.array([0.0, 0.0, 0.1])
        b_d = np.concatenate([mass * (-vel / dt + [0.0, 0.0, 9.81]),
                              inertia @ omega_ref / dt])
        c, d = friction_box_constraints(4, mu=0.6, f_min=0.0, f_max=400.0)
        qp = QpProblem(h=2.0 * (a.T @ s_w @ a + 1e-5 * np.eye(12)),
                       g=-2.0 * a.T @ s_w @ b_d, c_ineq=c, d_ineq=d)
        res = ActiveSetSolver().solve(qp)
        assert res.status is QpStatus.OPTIMAL
        assert max_violation(qp, res.x) <= 1e-9
        assert_kkt_certificate(qp, res)

    def test_dependent_rows_are_passed_over(self):
        # every row also appears scaled by 1e8: the copies lie in the span
        # of the originals, and the scale lifts the roundoff in their c p
        # above the blocking threshold, so a copy would enter the working
        # set with a zero step and make it dependent
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 6
            a = rng.normal(size=(n, n))
            c = rng.normal(size=(4, n))
            h, g = a @ a.T + 1e-3 * np.eye(n), rng.normal(size=n) * 10.0
            plain = solve(QpProblem(h=h, g=g, c_ineq=c, d_ineq=np.zeros(4)))
            res = solve(QpProblem(h=h, g=g, c_ineq=np.vstack([c, 1e8 * c]),
                                  d_ineq=np.zeros(8)))
            assert res.status is QpStatus.OPTIMAL
            assert_allclose(res.x, plain.x, atol=1e-9)


# deterministic examples, so the suite gives the same verdict on every run
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def unit_floats(shape, scale=1.0):
    return arrays(float, shape, elements=st.floats(-scale, scale, allow_subnormal=False))


@st.composite
def convex_qps(draw, m_max=8):
    """A strictly convex QP (n <= 5, 1 <= m <= m_max) and a point x_f that
    satisfies its inequality rows with a margin."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, m_max))
    a = draw(unit_floats((n, n)))
    c = draw(unit_floats((m, n)))
    x_f = draw(unit_floats(n))
    slack = draw(arrays(float, m, elements=st.floats(0.1, 2.0)))
    qp = QpProblem(h=a @ a.T + 0.5 * np.eye(n), g=draw(unit_floats(n, 2.0)),
                   c_ineq=c, d_ineq=c @ x_f + slack)
    return qp, x_f


def assert_matches_enumeration(qp, res):
    assert res.status is QpStatus.OPTIMAL
    x_ref, f_ref = brute_force_qp(qp)
    assert x_ref is not None
    assert qp.objective(res.x) <= f_ref + 1e-6
    assert_allclose(res.x, x_ref, atol=1e-6)


class TestProperty:
    @PROPERTY
    @given(convex_qps())
    def test_random_problems(self, case):
        qp, _ = case
        res = solve(qp)
        assert_matches_enumeration(qp, res)
        assert_kkt_certificate(qp, res)

    @PROPERTY
    @given(convex_qps(m_max=4))
    # a tolerance on the raw residual, not on the distance to the bound,
    # swaps the scaled copies in and out of the working set until MAX_ITER
    @example((QpProblem(h=np.diag([0.625, 0.5]), g=np.full(2, 0.25),
                        c_ineq=-np.ones((2, 2)), d_ineq=np.full(2, 0.25)), None))
    def test_rows_duplicated_at_scale(self, case):
        # each copy is dependent on its original, and the scale lifts the
        # roundoff in its residual above the feasibility tolerance
        qp, _ = case
        scaled = QpProblem(h=qp.h, g=qp.g, c_ineq=np.vstack([qp.c_ineq, 1e8 * qp.c_ineq]),
                           d_ineq=np.concatenate([qp.d_ineq, 1e8 * qp.d_ineq]))
        res = solve(scaled)
        assert res.status is QpStatus.OPTIMAL
        x_ref, _ = brute_force_qp(qp)
        assert_allclose(res.x, x_ref, atol=1e-6)

    @PROPERTY
    @given(unit_floats((3, 3)), arrays(float, 6, elements=st.floats(0.0, 10.0)))
    def test_optimum_at_pyramid_vertex(self, a, lam):
        # g = -C^T lam with lam >= 0 on the five rows active at F = 0 makes
        # the degenerate vertex F = 0 the optimum
        c, d = friction_box_constraints(1, mu=0.6, f_min=0.0, f_max=120.0)
        lam[4] = 0.0  # the f_max row is not active at F = 0
        qp = QpProblem(h=a @ a.T + 0.1 * np.eye(3), g=-c.T @ lam, c_ineq=c, d_ineq=d)
        res = solve(qp)
        assert_matches_enumeration(qp, res)
        assert_kkt_certificate(qp, res)
        assert_allclose(res.x, np.zeros(3), atol=1e-6)

    @PROPERTY
    @given(convex_qps(m_max=6), unit_floats(5), st.floats(1e-3, 1.0))
    def test_inconsistent_pair_is_infeasible(self, case, row, gap):
        # c x <= b and -c x <= -b - gap cannot both hold
        qp, x_f = case
        c = row[:qp.n] + 2.0  # every entry in [1, 3]
        b = float(c @ x_f)
        bad = QpProblem(h=qp.h, g=qp.g, c_ineq=np.vstack([qp.c_ineq, c, -c]),
                        d_ineq=np.concatenate([qp.d_ineq, [b, -b - gap]]))
        assert solve(bad).status is QpStatus.INFEASIBLE


def vertex_qp(a, lam, noise):
    """One foot's friction pyramid and force bounds and a gradient that
    pushes into the vertex F = 0, where the faces are dependent."""
    c, d = friction_box_constraints(1, mu=0.6, f_min=0.0, f_max=120.0)
    return QpProblem(h=a @ a.T + 0.1 * np.eye(3), g=-c[[0, 1, 2, 3, 5]].T @ lam + noise,
                     c_ineq=c, d_ineq=d)


def faces_at_scale(qp):
    """``qp`` with its four pyramid faces repeated at 1e8 scale."""
    return QpProblem(h=qp.h, g=qp.g, c_ineq=np.vstack([qp.c_ineq, 1e8 * qp.c_ineq[:4]]),
                     d_ineq=np.concatenate([qp.d_ineq, 1e8 * qp.d_ineq[:4]]))


def assert_solves_with_faces_at_scale(qp):
    """Solve ``qp`` with its four pyramid faces repeated at 1e8 scale.

    The copies leave the feasible set as it is, so the enumeration of ``qp``
    is the reference; the KKT certificate is taken on the problem solved.
    """
    scaled = faces_at_scale(qp)
    res = solve(scaled)
    assert res.status is QpStatus.OPTIMAL
    x_ref, f_ref = brute_force_qp(qp)
    assert qp.objective(res.x) <= f_ref + 1e-6
    assert_allclose(res.x, x_ref, atol=1e-6)
    assert_kkt_certificate(scaled, res)


@st.composite
def vertex_qps(draw):
    return vertex_qp(draw(unit_floats((3, 3))),
                     draw(arrays(float, 5, elements=st.floats(0.0, 10.0))), draw(unit_floats(3)))


def random_vertex_qps(rng, n_cases):
    for _ in range(n_cases):
        yield vertex_qp(rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(0.0, 10.0, 5),
                        rng.uniform(-1.0, 1.0, 3))


class TestFactorUpdates:
    @PROPERTY
    @given(vertex_qps())
    def test_paths_that_drop_rows(self, qp):
        assert_solves_with_faces_at_scale(qp)

    def test_vertex_cases_drop_rows(self, monkeypatch):
        # cases like the drawn ones reach the drop path (a qr_delete call)
        drops = []
        qr_delete = qpsolver.qr_delete

        def counting_qr_delete(*args, **kwargs):
            drops.append(1)
            return qr_delete(*args, **kwargs)

        monkeypatch.setattr(qpsolver, "qr_delete", counting_qr_delete)
        for qp in random_vertex_qps(np.random.default_rng(2), 100):
            assert_solves_with_faces_at_scale(qp)
        assert drops

    def test_every_mpc_trot_qp_has_a_kkt_certificate(self, stack_qps):
        results = [(qp, solve(qp)) for qp in stack_qps["mpc"]]
        assert len(results) > 30
        # some of these paths drop rows: more steps than working rows
        assert any(res.iterations > len(res.active_set) for _, res in results)
        for qp, res in results:
            assert res.status is QpStatus.OPTIMAL
            assert max_violation(qp, res.x) <= 1e-9
            assert_kkt_certificate(qp, res)


def recorded_qps(run) -> list[QpProblem]:
    """The QPs that ``run()`` poses to the solver, in order."""
    problems = []
    original = ActiveSetSolver.solve

    def recording_solve(self, qp):
        problems.append(qp)
        return original(self, qp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ActiveSetSolver, "solve", recording_solve)
        run()
    return problems


@pytest.fixture(scope="module")
def stack_qps():
    """The QPs the stack poses, by source: the cold n = 60, m = 120 QPs of a
    1 s MPC trot, the balance QPs of a 0.3 s trot on estimates and the
    lander's QPs of one hop landing, run 0.3 s past the reference."""
    spec = hop_spec(n_knots=4)
    ref = reference_from_log(run_jump_opt(spec).log)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_RECOVER_TIME", 0.3)
        landing = recorded_qps(lambda: run_jump_sim(spec, ref))
    return {"mpc": recorded_qps(lambda: run_trot(noise=None, duration=1.0, controller="mpc")),
            "estimates": recorded_qps(lambda: run_trot(noise=SensorNoise(), duration=0.3)),
            "landing": landing}


def primal_reference_solve(qp: QpProblem) -> QpResult:
    """The dual active-set loop with the violations measured in x, each
    picked row's normal solved for when it is picked, the factor buffers
    allocated up front and the result built from index arrays. Every path
    of ``ActiveSetSolver.solve`` returns its bits."""
    n = qp.n
    try:
        l = cholesky(qp.h, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        l = cholesky(qp.h + qpsolver._REG * np.eye(n), lower=True, check_finite=False)
    c, d = qp.c_ineq, qp.d_ineq
    norm = np.linalg.norm(c, axis=1)
    y = -solve_triangular(l, qp.g, lower=True)
    x = solve_triangular(l, y, lower=True, trans="T")

    def stopped(status):
        return QpResult(x=solve_triangular(l, y, lower=True, trans="T"), status=status,
                        iterations=it, active_set=sorted(work))

    work, u = [], np.zeros(0)
    qf, rf = np.zeros((n, n), order="F"), np.zeros((n, n))
    q, r = qf[:, :0], rf[:0, :0]
    it = 0
    while True:
        viol = c @ x - d
        viol[viol <= qpsolver._TOL * norm] = 0.0
        viol[work] = 0.0
        if not viol.any():
            break
        p = int(np.argmax(viol))
        n_p, u_p, full = solve_triangular(l, c[p], lower=True), 0.0, False
        while not full:
            if it == qpsolver._MAX_ITER:
                return stopped(QpStatus.MAX_ITER)
            it += 1
            proj = q.T @ n_p
            z = n_p - q @ proj
            dual = _solved(dtrtrs(r.T, proj, lower=1, trans=1)) if work else proj
            block = np.flatnonzero(dual > 0.0)
            ratio = u[block] / dual[block]
            drop = block[np.argmin(ratio)] if block.size else -1
            t1 = np.min(ratio, initial=np.inf)
            zz = z @ z
            resid = n_p @ y - d[p]
            t2 = resid / zz if zz > (qpsolver._DEP_TOL * np.linalg.norm(n_p)) ** 2 else np.inf
            if t1 == t2 == np.inf:
                return stopped(QpStatus.INFEASIBLE)
            full = t2 <= t1
            t = min(t1, t2)
            if t2 < np.inf:
                y = y - t * z
            u, u_p = u - t * dual, u_p + t
            k = len(work)
            if full:
                s = q.T @ z
                z = z - q @ s
                rf[k, :k] = 0.0
                rf[:k, k] = proj + s
                rf[k, k] = np.linalg.norm(z)
                qf[:, k] = z / rf[k, k]
                work.append(p)
                u = np.append(u, u_p)
            else:
                qd, rd = qr_delete(q, r, drop, which="col", check_finite=False)
                qf[:, :k - 1], rf[:k - 1, :k - 1] = qd[:, :k - 1], rd[:k - 1]
                work.pop(drop)
                u = np.delete(u, drop)
            q, r = qf[:, :len(work)], rf[:len(work), :len(work)]
        x = solve_triangular(l, y, lower=True, trans="T")

    if work:
        resid = d[work] - c[work] @ x
        v = q @ _solved(dtrtrs(r.T, resid, lower=1))
        x = x + solve_triangular(l, v, lower=True, trans="T")
    active = np.array(work, dtype=int)
    lam = np.zeros(len(d))
    lam[active] = np.maximum(u, 0.0)
    return QpResult(x=x, status=QpStatus.OPTIMAL, iterations=it,
                    active_set=sorted(active.tolist()), lam_ineq=lam)


def dual_space_reference_solve(qp: QpProblem) -> QpResult:
    """The dual active-set loop with every row normal and g transformed up
    front, stacked by vstack, and the violations measured in y = L^T x, on
    a NumPy Cholesky factor of the symmetrized H. It is the same method as
    ``ActiveSetSolver.solve`` in other arithmetic: an oracle to within
    rounding, not to the bit."""
    n = qp.n
    h = 0.5 * (qp.h + qp.h.T)
    try:
        l = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        l = np.linalg.cholesky(h + qpsolver._REG * np.eye(n))
    c, d = qp.c_ineq, qp.d_ineq
    norm = np.linalg.norm(c, axis=1)
    wg = _solved(dtrtrs(l.T, np.vstack([c, qp.g]).T, lower=0, trans=1))
    w, y = wg[:, :-1], -wg[:, -1]

    def stopped(status):
        return QpResult(x=_solved(dtrtrs(l.T, y, lower=0)), status=status, iterations=it,
                        active_set=sorted(work))

    work, u = [], np.zeros(0)
    qf, rf = np.zeros((n, n), order="F"), np.zeros((n, n))
    q, r = qf[:, :0], rf[:0, :0]
    it = 0
    while True:
        viol = w.T @ y - d
        viol[viol <= qpsolver._TOL * norm] = 0.0
        viol[work] = 0.0
        if not viol.any():
            break
        p = int(np.argmax(viol))
        n_p, u_p, full = w[:, p], 0.0, False
        while not full:
            if it == qpsolver._MAX_ITER:
                return stopped(QpStatus.MAX_ITER)
            it += 1
            proj = q.T @ n_p
            z = n_p - q @ proj
            dual = _solved(dtrtrs(r.T, proj, lower=1, trans=1)) if work else proj
            block = np.flatnonzero(dual > 0.0)
            ratio = u[block] / dual[block]
            drop = block[np.argmin(ratio)] if block.size else -1
            t1 = np.min(ratio, initial=np.inf)
            zz = z @ z
            resid = n_p @ y - d[p]
            t2 = resid / zz if zz > (qpsolver._DEP_TOL * np.linalg.norm(n_p)) ** 2 else np.inf
            if t1 == t2 == np.inf:
                return stopped(QpStatus.INFEASIBLE)
            full = t2 <= t1
            t = min(t1, t2)
            if t2 < np.inf:
                y = y - t * z
            u, u_p = u - t * dual, u_p + t
            k = len(work)
            if full:
                s = q.T @ z
                z = z - q @ s
                rf[k, :k] = 0.0
                rf[:k, k] = proj + s
                rf[k, k] = np.linalg.norm(z)
                qf[:, k] = z / rf[k, k]
                work.append(p)
                u = np.append(u, u_p)
            else:
                qd, rd = qr_delete(q, r, drop, which="col", check_finite=False)
                qf[:, :k - 1], rf[:k - 1, :k - 1] = qd[:, :k - 1], rd[:k - 1]
                work.pop(drop)
                u = np.delete(u, drop)
            q, r = qf[:, :len(work)], rf[:len(work), :len(work)]

    x = _solved(dtrtrs(l.T, y, lower=0))
    if work:
        resid = d[work] - c[work] @ x
        v = q @ _solved(dtrtrs(r.T, resid, lower=1))
        x = x + _solved(dtrtrs(l.T, v, lower=0))
    active = np.array(work, dtype=int)
    lam = np.zeros(len(d))
    lam[active] = np.maximum(u, 0.0)
    return QpResult(x=x, status=QpStatus.OPTIMAL, iterations=it,
                    active_set=sorted(active.tolist()), lam_ineq=lam)


def assert_same_bits(res, ref):
    assert res.status is ref.status
    assert res.iterations == ref.iterations
    assert res.active_set == ref.active_set
    assert res.x.tobytes() == ref.x.tobytes()
    if ref.lam_ineq is None:
        assert res.lam_ineq is None
    else:
        assert res.lam_ineq.shape == ref.lam_ineq.shape
        assert res.lam_ineq.tobytes() == ref.lam_ineq.tobytes()


class TestRowBlocks:
    """Problems with rows, and with none, keep the bits of the reference."""

    @staticmethod
    def random_qps(rng, n_cases):
        for case in range(n_cases):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n))
            h, g = a @ a.T + 0.3 * np.eye(n), rng.normal(size=n) * 5.0
            c = rng.normal(size=(int(rng.integers(1, 10)), n))
            d = c @ rng.normal(size=n) + rng.uniform(0.0, 1.0, len(c))
            yield [QpProblem(h=h, g=g, c_ineq=c, d_ineq=d),
                   QpProblem(h=h, g=g, c_ineq=np.zeros((0, n)), d_ineq=np.zeros(0))]

    def test_every_block_layout_keeps_the_reference_bits(self):
        rng = np.random.default_rng(31)
        iterations = 0
        for qps in self.random_qps(rng, 60):
            for qp in qps:
                res = solve(qp)
                assert_same_bits(res, primal_reference_solve(qp))
                iterations += res.iterations
        # rows move in and out of the working set
        assert iterations

    def test_paths_that_drop_rows_keep_the_reference_bits(self):
        for qp in random_vertex_qps(np.random.default_rng(2), 40):
            for p in (qp, faces_at_scale(qp)):
                assert_same_bits(solve(p), primal_reference_solve(p))

    def test_stopped_solves_keep_the_reference_bits(self, monkeypatch):
        c, d = friction_box_constraints(1, mu=0.6, f_min=0.0, f_max=120.0)
        infeasible = QpProblem(h=np.eye(1), g=np.zeros(1), c_ineq=np.array([[1.0], [-1.0]]),
                               d_ineq=np.array([-1.0, 0.0]))
        saturated = QpProblem(h=np.eye(3), g=np.array([0.0, 0.0, -500.0]), c_ineq=c, d_ineq=d)
        res = solve(infeasible)
        assert res.status is QpStatus.INFEASIBLE
        assert_same_bits(res, primal_reference_solve(infeasible))
        monkeypatch.setattr(qpsolver, "_MAX_ITER", 0)
        res = solve(saturated)
        assert res.status is QpStatus.MAX_ITER
        assert_same_bits(res, primal_reference_solve(saturated))

    def test_trot_qps_keep_the_reference_bits(self, stack_qps):
        # the problems the stack poses: the MPC's cold n = 60, m = 120 QPs,
        # some of whose paths drop rows, the balance QPs of a trot on
        # estimates and the lander's
        mpc_qps = stack_qps["mpc"]
        assert len(mpc_qps) > 30 and len(stack_qps["estimates"]) == 300
        assert any(qp.n == 60 and len(qp.d_ineq) == 120 for qp in mpc_qps)
        drops = 0
        for qp in [qp for qps in stack_qps.values() for qp in qps]:
            res = solve(qp)
            assert_same_bits(res, primal_reference_solve(qp))
            drops += res.iterations > len(res.active_set)
        assert drops

    def test_zero_inequality_rows(self):
        # a problem with no rows is the unconstrained problem
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        h, g = a @ a.T + np.eye(4), rng.normal(size=4)
        empty = QpProblem(h=h, g=g, c_ineq=np.zeros((0, 4)), d_ineq=np.zeros(0))
        res = solve(empty)
        assert res.status is QpStatus.OPTIMAL
        assert res.iterations == 0 and res.active_set == []
        assert res.lam_ineq.shape == (0,)
        assert_allclose(res.x, np.linalg.solve(h, -g), atol=1e-12)
        assert_same_bits(res, primal_reference_solve(empty))


class TestAgainstDualSpaceOracle:
    """The solver measures the violations in x and solves for each picked
    row's normal; the oracle transforms every row up front and measures in
    y. The two differ in rounding only."""

    @pytest.mark.parametrize("source", ["mpc", "estimates", "landing"])
    def test_stack_qps_match_the_oracle(self, stack_qps, source):
        steps = 0
        for qp in stack_qps[source]:
            res, ref = solve(qp), dual_space_reference_solve(qp)
            assert res.status is ref.status
            assert res.iterations == ref.iterations
            assert np.max(np.abs(res.x - ref.x)) <= 1e-9 * np.max(np.abs(ref.x))
            # where rows tie in the pick (a foot's pyramid faces at F = 0)
            # the two may take different ones, each on its bound at x
            for i in set(res.active_set) ^ set(ref.active_set):
                slack = qp.d_ineq[i] - qp.c_ineq[i] @ res.x
                assert abs(slack) <= 1e-9 * qp.row_norms[i] * np.max(np.abs(res.x))
            steps += res.iterations
        assert steps or source == "estimates"


class TestCostShape:
    """H is factored once, and every triangular solve with its factor is
    one column: the unconstrained minimum, x after each picked row's steps,
    and the normal of each picked row, never every row's."""

    @staticmethod
    def count_lapack(monkeypatch) -> dict[str, list]:
        """(args, kwargs, result) of each ``lapack.dpotrf`` and ``dtrtrs`` call."""
        calls = {"dpotrf": [], "dtrtrs": []}
        for name, log in calls.items():
            def counting(*args, _fn=getattr(lapack, name), _log=log, **kwargs):
                out = _fn(*args, **kwargs)
                _log.append((args, kwargs, out))
                return out
            monkeypatch.setattr(lapack, name, counting)
        return calls

    def test_feasible_start_factors_once_and_solves_two_columns(self, stack_qps, monkeypatch):
        # a trot on estimates takes no step: its unconstrained minima are feasible
        qps = stack_qps["estimates"][:50]
        for qp in qps:
            calls = self.count_lapack(monkeypatch)
            res = solve(qp)
            monkeypatch.undo()
            assert res.iterations == 0
            assert len(calls["dpotrf"]) == 1
            assert [args[1].shape for args, _, _ in calls["dtrtrs"]] == [(qp.n,), (qp.n,)]

    def test_one_normal_solve_per_picked_row(self, stack_qps, monkeypatch):
        for qp in stack_qps["mpc"]:
            calls = self.count_lapack(monkeypatch)
            res = solve(qp)
            monkeypatch.undo()
            assert res.status is QpStatus.OPTIMAL
            # every pick ends in a join and every other step is a drop
            picks = (res.iterations + len(res.active_set)) // 2
            (_, _, (l, _)), = calls["dpotrf"]
            with_l = [(args[1], kwargs.get("trans", 0)) for args, kwargs, _ in calls["dtrtrs"]
                      if args[0] is l]
            assert all(b.shape == (qp.n,) for b, _ in with_l)
            forward = [b for b, trans in with_l if not trans]
            assert forward[0] is qp.g and len(forward) == 1 + picks
            assert all(np.any(np.all(qp.c_ineq == b, axis=1)) for b in forward[1:])
            # x at the start, after each picked row and in the refinement
            assert len(with_l) - len(forward) == 1 + picks + bool(res.active_set)
