import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import balance, qpsolver, so3
from quadstack.balance import (
    GRAVITY_W,
    BalanceController,
    BodyModel,
    ForceDistributionError,
    FrictionSpec,
    _friction_rows,
    _stance_cols,
    balance_qp,
    build_force_model,
    pd_wrench,
)
from quadstack.qpsolver import ActiveSetSolver, QpProblem
from quadstack.scenarios import run_trot, sensor_noise
from quadstack.state import DesiredState, RobotState

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
MODEL = BodyModel()
STAND = RobotState(pos=[0.0, 0.0, 0.45], feet=FEET)


def hover_desired():
    return DesiredState(pos=[0.0, 0.0, 0.45])


@pytest.fixture
def set_gains(monkeypatch):
    """Sets balance gains and QP weights for one test: ``alpha=1e-9`` sets
    ``balance._ALPHA``."""
    def set_(**values):
        for name, value in values.items():
            monkeypatch.setattr(balance, f"_{name.upper()}", value)
    return set_


def force_model_per_leg(p_c, feet, model, acc_lin, acc_ang, r):
    """build_force_model as the per-leg np.eye / so3.hat construction."""
    a = np.zeros((6, 12))
    for i in range(4):
        a[0:3, 3 * i:3 * i + 3] = np.eye(3)
        a[3:6, 3 * i:3 * i + 3] = so3.hat(feet[i] - p_c)
    b_d = np.concatenate([model.mass * (acc_lin - GRAVITY_W), model.inertia_world(r) @ acc_ang])
    return a, b_d


def balance_qp_gather(a, b_d, f_prev, friction, stance_mask, solver):
    """balance_qp with its stance columns gathered per call and the
    regularization added as (alpha + beta) * np.eye(n); returns the QP too."""
    stance = np.flatnonzero(stance_mask)
    cols = np.concatenate([[3 * i, 3 * i + 1, 3 * i + 2] for i in stance])
    a_s = a[:, cols]
    s_w = balance._S_WEIGHT
    h = 2.0 * (a_s.T @ s_w @ a_s + (balance._ALPHA + balance._BETA) * np.eye(cols.size))
    c_ineq, d_ineq, _ = _friction_rows(stance.size, friction.mu, friction.f_min, friction.f_max)
    g = -2.0 * (a_s.T @ (s_w @ b_d) + balance._BETA * f_prev[cols])
    qp = QpProblem(h=h, g=g, c_ineq=c_ineq, d_ineq=d_ineq)
    f = np.zeros(12)
    f[cols] = solver.solve(qp).x
    return f, qp


class RecordingSolver(ActiveSetSolver):
    def __init__(self):
        super().__init__()
        self.problems = []

    def solve(self, qp):
        self.problems.append(qp)
        return super().solve(qp)


ALL_MASKS = [np.array([(k >> leg) & 1 for leg in range(4)], dtype=bool) for k in range(1, 16)]


@pytest.fixture(scope="module")
def trot_ticks():
    """The pd_wrench calls ``(state, des, output)`` and the balance QP solves
    ``(problem, solution)`` of a 0.3 s balance trot on estimates with the
    CLI's default sensor noise."""
    wrenches, solves = [], []
    pd, solve = balance.pd_wrench, ActiveSetSolver.solve

    def recording_pd(state, des):
        out = pd(state, des)
        wrenches.append((state.copy(), des, out))
        return out

    def recording_solve(self, qp):
        res = solve(self, qp)
        solves.append((qp, res.x))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balance, "pd_wrench", recording_pd)
        mp.setattr(ActiveSetSolver, "solve", recording_solve)
        run_trot(noise=sensor_noise(0.05, 0.005, 0.2, seed=1), duration=0.3, v_des=(0.9, 0.05))
    assert len(wrenches) == len(solves) == 300
    return wrenches, solves


def pd_wrench_matrix(state, des):
    """pd_wrench as products with the 3x3 gain matrices and so3.log_map."""
    kp_pos, kd_pos, kp_orn, kd_orn = (np.diag(k) for k in (
        balance._KP_POS, balance._KD_POS, balance._KP_ORN, balance._KD_ORN))
    acc_lin = kp_pos @ (des.pos - state.pos) + kd_pos @ (des.vel - state.vel)
    err_rot = so3.log_map(des.rot @ state.rot.T)
    acc_ang = kp_orn @ err_rot + kd_orn @ (0.0 - state.omega_world())
    return acc_lin, acc_ang


def assert_same_bits(got, want, case):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, case
        assert x.tobytes() == y.tobytes(), (case, x, y)


class TestPdWrench:
    def test_zero_at_target(self):
        acc_lin, acc_ang = pd_wrench(STAND, hover_desired())
        assert_allclose(acc_lin, np.zeros(3), atol=1e-12)
        assert_allclose(acc_ang, np.zeros(3), atol=1e-12)

    def test_pure_position_error(self, set_gains):
        set_gains(kp_pos=(100.0,) * 3, kd_pos=(0.0,) * 3)
        state = RobotState(pos=[-0.1, 0.0, 0.45], feet=FEET)
        des = DesiredState(pos=[0.0, 0.0, 0.45])
        acc_lin, _ = pd_wrench(state, des)
        assert_allclose(acc_lin, [10.0, 0.0, 0.0], atol=1e-12)

    def test_orientation_error_sign(self, set_gains):
        set_gains(kp_orn=(50.0,) * 3, kd_orn=(0.0,) * 3)
        state = RobotState(pos=[0.0, 0.0, 0.45], rot=so3.rot_z(0.1), feet=FEET)
        des = DesiredState(pos=[0.0, 0.0, 0.45])  # rot = identity
        _, acc_ang = pd_wrench(state, des)
        assert_allclose(acc_ang, [0.0, 0.0, -5.0], atol=1e-9)

    def test_recorded_ticks_match_matrix_formula_bit_for_bit(self, trot_ticks):
        for i, (state, des, out) in enumerate(trot_ticks[0]):
            assert_same_bits(out, pd_wrench_matrix(state, des), i)

    def test_zero_target_gives_positive_zeros(self):
        # every difference is a signed zero: -0.0 - 0.0 on x makes both PD
        # terms -0.0, which the gain matrices' sums turn into +0.0
        state = RobotState(pos=[0.0, -0.0, 0.45], vel=[0.0, 0.0, -0.0],
                           omega=[-0.0, 0.0, -0.0], feet=FEET)
        des = DesiredState(pos=[-0.0, 0.0, 0.45], vel=[-0.0, -0.0, 0.0])
        got = pd_wrench(state, des)
        assert_same_bits(got, pd_wrench_matrix(state, des), "zero target")
        assert all(x.tobytes() == np.zeros(3).tobytes() for x in got)

    def test_small_angle_branch_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for case in range(50):
            # rotation errors below so3's series threshold of 1e-8 rad
            w = rng.normal(size=3) * 10.0 ** rng.uniform(-12, -8.5)
            state = RobotState(pos=rng.normal(size=3), vel=rng.normal(size=3),
                               rot=so3.exp_exact(w), omega=rng.normal(size=3), feet=FEET)
            des = DesiredState(pos=rng.normal(size=3), vel=rng.normal(size=3))
            assert_same_bits(pd_wrench(state, des), pd_wrench_matrix(state, des), case)

    def test_near_pi_branch_bit_for_bit(self):
        for rot in (so3.rot_x(np.pi), so3.rot_z(np.pi - 1e-4),
                    so3.exp_exact(np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25) * (np.pi - 3e-4))):
            state = RobotState(pos=[0.1, 0.0, 0.4], rot=rot, omega=[0.3, -0.2, 0.1], feet=FEET)
            with pytest.warns(so3.NearPiWarning):
                got = pd_wrench(state, hover_desired())
            with pytest.warns(so3.NearPiWarning):
                want = pd_wrench_matrix(state, hover_desired())
            assert_same_bits(got, want, rot)

    def test_random_states_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for case in range(300):
            state = RobotState(pos=rng.normal(size=3), vel=rng.normal(size=3),
                               rot=so3.exp_exact(rng.normal(size=3)),
                               omega=rng.normal(size=3) * 3.0, feet=FEET)
            des = DesiredState(pos=rng.normal(size=3), vel=rng.normal(size=3),
                               rot=so3.exp_exact(rng.normal(size=3) * 0.2))
            if case % 3 == 0:
                des.pos[case % 2] = state.pos[case % 2]  # an exact zero error
            assert_same_bits(pd_wrench(state, des), pd_wrench_matrix(state, des), case)


class TestForceModel:
    def test_zero_lever_arm(self):
        feet = np.vstack([STAND.pos, FEET[1:]])
        a, _ = build_force_model(STAND.pos, feet, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        assert_allclose(a[3:6, 0:3], np.zeros((3, 3)), atol=1e-12)

    def test_hover_wrench(self):
        _, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        assert_allclose(b_d[0:3], [0.0, 0.0, 45.0 * 9.81], atol=1e-12)
        assert_allclose(b_d[0:3], [0.0, 0.0, 441.45], atol=1e-10)
        assert_allclose(b_d[3:6], np.zeros(3), atol=1e-12)

    def test_translation_invariance(self):
        a1, _ = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        shift = np.array([1.0, -2.0, 0.3])
        a2, _ = build_force_model(STAND.pos + shift, FEET + shift, MODEL,
                                  np.zeros(3), np.zeros(3), np.eye(3))
        assert_allclose(a1, a2, atol=1e-12)

    def test_matches_per_leg_construction_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            p_c = rng.normal(size=3)
            feet = p_c + rng.normal(size=(4, 3)) * 0.4
            if case % 10 == 0:
                feet[case % 4] = p_c  # a zero lever arm: hat has signed zeros
            if case % 7 == 0:
                feet[:, 2] = p_c[2]  # a lever arm in the body's plane
            acc_lin, acc_ang = rng.normal(size=3), rng.normal(size=3)
            r = so3.exp_exact(rng.normal(size=3)) if case % 2 else np.eye(3)
            got = build_force_model(p_c, feet, MODEL, acc_lin, acc_ang, r)
            want = force_model_per_leg(p_c, feet, MODEL, acc_lin, acc_ang, r)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), case


class TestBalanceQp:
    def test_hover_distributes_weight_evenly(self, set_gains):
        set_gains(alpha=1e-9, beta=0.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        f = balance_qp(a, b_d, np.zeros(12), FrictionSpec(), np.ones(4, dtype=bool))
        for i in range(4):
            assert_allclose(f[3 * i + 2], 45.0 * 9.81 / 4.0, atol=0.5)
            assert_allclose(f[3 * i:3 * i + 2], np.zeros(2), atol=0.5)

    def test_swing_feet_exactly_zero(self):
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        mask = np.array([True, False, False, True])
        f = balance_qp(a, b_d, np.zeros(12), FrictionSpec(), mask)
        assert np.all(f[3:9] == 0.0)
        assert f[2] > 0.0 and f[11] > 0.0

    def test_friction_clamps_lateral_commands(self):
        # huge lateral acceleration: tangential forces saturate at mu * Fz
        friction = FrictionSpec(mu=0.5, f_min=0.0, f_max=400.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL,
                                   np.array([30.0, 0.0, 0.0]), np.zeros(3), np.eye(3))
        f = balance_qp(a, b_d, np.zeros(12), friction,
                       np.ones(4, dtype=bool))
        for i in range(4):
            fx, fy, fz = f[3 * i:3 * i + 3]
            assert abs(fx) <= friction.mu * fz + 1e-6
            assert abs(fy) <= friction.mu * fz + 1e-6
        assert abs(np.sum(f[0::3]) - 45.0 * 30.0) > 1.0  # clamped below command

    def test_unconstrained_matches_least_squares(self, set_gains):
        # S = I, alpha -> 0, beta = 0, no active constraints: A F = b_d for
        # b_d in range(A); compare against the pseudo-inverse solution
        set_gains(s_weight=np.eye(6), alpha=1e-12, beta=0.0)
        friction = FrictionSpec(mu=5.0, f_min=0.0, f_max=1e5)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.array([0.5, -0.2, 0.3]),
                                   np.array([0.1, 0.2, -0.1]), np.eye(3))
        f = balance_qp(a, b_d, np.zeros(12), friction, np.ones(4, dtype=bool))
        assert_allclose(a @ f, b_d, atol=1e-5)
        f_ls = np.linalg.pinv(a) @ b_d
        assert_allclose(a @ f_ls, b_d, atol=1e-9)

    def test_beta_slews_solution(self, set_gains):
        # increasing beta monotonically shrinks the step from f_prev
        a, b_d = build_force_model(STAND.pos, FEET, MODEL,
                                   np.array([0.0, 0.0, 3.0]), np.zeros(3), np.eye(3))
        a0, b0 = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        set_gains(beta=0.0)
        f_prev = balance_qp(a0, b0, np.zeros(12), FrictionSpec(), np.ones(4, dtype=bool))
        steps = []
        for beta in (0.0, 1e-3, 1e-2, 1e-1):
            set_gains(beta=beta)
            f = balance_qp(a, b_d, f_prev, FrictionSpec(), np.ones(4, dtype=bool))
            steps.append(np.linalg.norm(f - f_prev))
        assert all(b <= a_ + 1e-9 for a_, b in zip(steps, steps[1:]))

    def test_random_scenarios_respect_constraints(self):
        rng = np.random.default_rng(8)
        friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=300.0)
        for _ in range(50):
            feet = FEET + rng.normal(size=(4, 3)) * 0.05
            mask = rng.uniform(size=4) < 0.8
            if not mask.any():
                mask[0] = True
            acc = rng.normal(size=3) * 2.0
            ang = rng.normal(size=3) * 1.0
            a, b_d = build_force_model(STAND.pos, feet, MODEL, acc, ang, np.eye(3))
            f = balance_qp(a, b_d, np.zeros(12), friction, mask)
            for i in range(4):
                fx, fy, fz = f[3 * i:3 * i + 3]
                if mask[i]:
                    assert -1e-7 <= fz <= 300.0 + 1e-7
                    assert abs(fx) <= 0.6 * fz + 1e-6
                    assert abs(fy) <= 0.6 * fz + 1e-6
                else:
                    assert fx == fy == fz == 0.0

    def test_unreachable_wrench_saturates_at_bounds(self):
        # unreachable wrench with tight bounds: the normal forces stop at f_max
        friction = FrictionSpec(mu=0.3, f_min=0.0, f_max=150.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL,
                                   np.array([0.0, 0.0, 100.0]), np.zeros(3), np.eye(3))
        f = balance_qp(a, b_d, np.zeros(12), friction,
                       np.ones(4, dtype=bool))
        assert np.all(f[2::3] <= 150.0 + 1e-7)

    def test_iteration_limit_raises_without_backoff(self, monkeypatch):
        # a solver stopped by its iteration limit is not an infeasible
        # problem: no weaker wrench is tried in its place
        class CountingSolver(ActiveSetSolver):
            calls = 0

            def solve(self, qp, **kw):
                self.calls += 1
                return super().solve(qp, **kw)

        # the saturating wrench needs several working-set changes
        monkeypatch.setattr(qpsolver, "_MAX_ITER", 1)
        solver = CountingSolver()
        friction = FrictionSpec(mu=0.3, f_min=0.0, f_max=150.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.array([0.0, 0.0, 100.0]),
                                   np.zeros(3), np.eye(3))
        with pytest.raises(ForceDistributionError, match="MAX_ITER"):
            balance_qp(a, b_d, np.zeros(12), friction,
                       np.ones(4, dtype=bool), solver=solver)
        assert solver.calls == 1


class TestStanceSets:
    def test_matches_column_gather_bit_for_bit(self):
        rng = np.random.default_rng(6)
        friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=300.0)
        for mask in ALL_MASKS:
            for case in range(6):
                feet = FEET + rng.normal(size=(4, 3)) * 0.05
                # the larger wrenches saturate the bounds: rows join the working set
                scale = 40.0 if case % 2 else 1.0
                a, b_d = build_force_model(STAND.pos, feet, MODEL, rng.normal(size=3) * scale,
                                           rng.normal(size=3) * scale, np.eye(3))
                f_prev = rng.normal(size=12) * 50.0
                solver = RecordingSolver()
                f = balance_qp(a, b_d, f_prev, friction, mask, solver=solver)
                f_ref, qp_ref = balance_qp_gather(a, b_d, f_prev, friction, mask,
                                                  ActiveSetSolver())
                qp, = solver.problems
                for name in ("h", "g", "c_ineq", "d_ineq"):
                    assert getattr(qp, name).tobytes() == getattr(qp_ref, name).tobytes(), name
                assert f.tobytes() == f_ref.tobytes(), (mask, case)

    def test_recorded_solves_match_a_validated_problem(self, trot_ticks):
        # each recorded problem, rebuilt from lists so that QpProblem coerces
        # and checks every field and the solver forms its own row norms
        for i, (qp, x) in enumerate(trot_ticks[1]):
            fresh = QpProblem(h=qp.h.tolist(), g=qp.g.tolist(), c_ineq=qp.c_ineq.tolist(),
                              d_ineq=qp.d_ineq.tolist())
            assert qp.row_norms.tobytes() == fresh.row_norms.tobytes(), i
            assert ActiveSetSolver().solve(fresh).x.tobytes() == x.tobytes(), i

    def test_all_swing_raises_before_any_cache_lookup(self):
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3))
        before = (_stance_cols.cache_info(), _friction_rows.cache_info())
        with pytest.raises(ValueError, match="stance"):
            balance_qp(a, b_d, np.zeros(12), FrictionSpec(),
                       np.zeros(4, dtype=bool))
        assert (_stance_cols.cache_info(), _friction_rows.cache_info()) == before

    def test_friction_reassigned_after_construction_takes_effect(self):
        # jump-sim's lander is built with f_max = 700 N, the trot's with the
        # default 500 N; a 1 m height error asks for about 1,460 N per foot
        controller = BalanceController(MODEL)
        des = DesiredState(pos=STAND.pos + [0.0, 0.0, 1.0])
        stance = np.ones(4, dtype=bool)
        f = controller.compute(STAND, des, stance)
        assert_allclose(f[2::3], 500.0, atol=1e-7)
        controller.friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=700.0)
        f = controller.compute(STAND, des, stance)
        assert_allclose(f[2::3], 700.0, atol=1e-7)
        lander = BalanceController(MODEL, FrictionSpec(f_max=700.0))
        assert_allclose(lander.compute(STAND, des, stance)[2::3], 700.0, atol=1e-7)

