import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import balance, qpsolver, scenarios, so3
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
from quadstack.scenarios import (hop_spec, reference_from_log, run_jump_opt, run_jump_sim,
                                 run_trot, sensor_noise)
from quadstack.state import DesiredState, RobotState

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
MODEL = BodyModel()
STAND = RobotState(pos=[0.0, 0.0, 0.45], feet=FEET)
ALL_LEGS = (0, 1, 2, 3)


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
    b_d = np.concatenate([model.mass * (acc_lin - GRAVITY_W), r @ model.inertia @ r.T @ acc_ang])
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


def legs_of(mask):
    return tuple(np.flatnonzero(mask).tolist())


def recorded_computes(run):
    """The ``BalanceController.compute`` calls ``(state, des, stance mask,
    f_prev before, forces)`` and the QP solves ``(problem, solution)`` that
    ``run()`` makes."""
    computes, solves = [], []
    compute, solve = BalanceController.compute, ActiveSetSolver.solve

    def recording_compute(self, state, des, stance_mask):
        f_prev = self.f_prev
        out = compute(self, state, des, stance_mask)
        computes.append((state.copy(), des, stance_mask.copy(), f_prev, out))
        return out

    def recording_solve(self, qp):
        res = solve(self, qp)
        solves.append((qp, res.x))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BalanceController, "compute", recording_compute)
        mp.setattr(ActiveSetSolver, "solve", recording_solve)
        run()
    return computes, solves


@pytest.fixture(scope="module")
def trot_ticks():
    """The balance computes and QP solves of a 0.3 s balance trot on
    estimates with the CLI's default sensor noise."""
    computes, solves = recorded_computes(lambda: run_trot(
        noise=sensor_noise(0.05, 0.005, 0.2, seed=1), duration=0.3, v_des=(0.9, 0.05)))
    assert len(computes) == len(solves) == 300
    return computes, solves


@pytest.fixture(scope="module")
def hop_landing():
    """The lander's computes of a 4-knot hop, run 0.3 s past its reference."""
    spec = hop_spec(n_knots=4)
    ref = reference_from_log(run_jump_opt(spec).log)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_RECOVER_TIME", 0.3)
        computes, _ = recorded_computes(lambda: run_jump_sim(spec, ref))
    return computes


def pd_wrench_matrix(state, des):
    """pd_wrench as products with the 3x3 gain matrices and so3.log_map."""
    kp_pos, kd_pos, kp_orn, kd_orn = (np.diag(k) for k in (
        balance._KP_POS, balance._KD_POS, balance._KP_ORN, balance._KD_ORN))
    acc_lin = kp_pos @ (des.pos - state.pos) + kd_pos @ (des.vel - state.vel)
    err_rot = so3.log_map(des.rot @ state.rot.T)
    acc_ang = kp_orn @ err_rot + kd_orn @ (0.0 - state.rot @ state.omega)
    return acc_lin, acc_ang


def pd_arrays(state, des):
    """pd_wrench's two float lists as arrays."""
    return tuple(np.array(x) for x in pd_wrench(state, des))


def compute_reference(state, des, mask, f_prev, model, friction):
    """BalanceController.compute as the composition of the array formulas:
    the gain matrices, the per-leg 6x12 map and the column gather."""
    acc_lin, acc_ang = pd_wrench_matrix(state, des)
    a, b_d = force_model_per_leg(state.pos, state.feet, model, acc_lin, acc_ang, state.rot)
    return balance_qp_gather(a, b_d, f_prev, friction, mask, ActiveSetSolver())[0]


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
        for i, (state, des, *_) in enumerate(trot_ticks[0]):
            assert_same_bits(pd_arrays(state, des), pd_wrench_matrix(state, des), i)

    def test_zero_target_gives_positive_zeros(self):
        # every difference is a signed zero: -0.0 - 0.0 on x makes both PD
        # terms -0.0, which the gain matrices' sums turn into +0.0
        state = RobotState(pos=[0.0, -0.0, 0.45], vel=[0.0, 0.0, -0.0],
                           omega=[-0.0, 0.0, -0.0], feet=FEET)
        des = DesiredState(pos=[-0.0, 0.0, 0.45], vel=[-0.0, -0.0, 0.0])
        got = pd_arrays(state, des)
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
            assert_same_bits(pd_arrays(state, des), pd_wrench_matrix(state, des), case)

    def test_near_pi_branch_bit_for_bit(self):
        for rot in (so3.rot_x(np.pi), so3.rot_z(np.pi - 1e-4),
                    so3.exp_exact(np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25) * (np.pi - 3e-4))):
            state = RobotState(pos=[0.1, 0.0, 0.4], rot=rot, omega=[0.3, -0.2, 0.1], feet=FEET)
            with pytest.warns(so3.NearPiWarning):
                got = pd_arrays(state, hover_desired())
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
            assert_same_bits(pd_arrays(state, des), pd_wrench_matrix(state, des), case)


class TestBodyModel:
    @pytest.mark.parametrize("inertia", [np.diag([0.35, -2.1, 2.1]),
                                         [[0.35, 0.01, 0.0], [0.0, 2.1, 0.0], [0.0, 0.0, 2.1]],
                                         [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
                             ids=["negative", "asymmetric", "indefinite"])
    def test_inertia_must_be_symmetric_positive_definite(self, inertia):
        # the negative diagonal used to step 100 ticks with a drifting body
        # rate and raise nothing
        with pytest.raises(ValueError, match="symmetric positive definite"):
            BodyModel(inertia=inertia)


class TestForceModel:
    def test_zero_lever_arm(self):
        feet = np.vstack([STAND.pos, FEET[1:]])
        a, _ = build_force_model(STAND.pos, feet, MODEL, np.zeros(3), np.zeros(3), np.eye(3), ALL_LEGS)
        assert_allclose(a[3:6, 0:3], np.zeros((3, 3)), atol=1e-12)

    def test_hover_wrench(self):
        _, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3), ALL_LEGS)
        assert_allclose(b_d[0:3], [0.0, 0.0, 45.0 * 9.81], atol=1e-12)
        assert_allclose(b_d[0:3], [0.0, 0.0, 441.45], atol=1e-10)
        assert_allclose(b_d[3:6], np.zeros(3), atol=1e-12)

    def test_translation_invariance(self):
        a1, _ = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3), ALL_LEGS)
        shift = np.array([1.0, -2.0, 0.3])
        a2, _ = build_force_model(STAND.pos + shift, FEET + shift, MODEL,
                                  np.zeros(3), np.zeros(3), np.eye(3), ALL_LEGS)
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
            mask = ALL_MASKS[case % 15]
            a_s, b_d = build_force_model(p_c, feet, MODEL, acc_lin.tolist(), acc_ang.tolist(), r,
                                         legs_of(mask))
            a, b_want = force_model_per_leg(p_c, feet, MODEL, acc_lin, acc_ang, r)
            # the stance columns in the layout of the column gather
            a_want = a[:, _stance_cols(legs_of(mask))]
            assert a_s.flags.f_contiguous and a_want.flags.f_contiguous, case
            for x, y in ((a_s, a_want), (b_d, b_want)):
                assert x.shape == y.shape and x.tobytes(order="A") == y.tobytes(order="A"), case


class TestBalanceQp:
    def test_hover_distributes_weight_evenly(self, set_gains):
        set_gains(alpha=1e-9, beta=0.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3), ALL_LEGS)
        f = balance_qp(a, b_d, np.zeros(12), FrictionSpec(), ALL_LEGS, ActiveSetSolver())
        for i in range(4):
            assert_allclose(f[3 * i + 2], 45.0 * 9.81 / 4.0, atol=0.5)
            assert_allclose(f[3 * i:3 * i + 2], np.zeros(2), atol=0.5)

    def test_swing_feet_exactly_zero(self):
        legs = (0, 3)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3),
                                   legs)
        f = balance_qp(a, b_d, np.zeros(12), FrictionSpec(), legs, ActiveSetSolver())
        assert f[3:9].tobytes() == np.zeros(6).tobytes()
        assert f[2] > 0.0 and f[11] > 0.0

    def test_friction_clamps_lateral_commands(self):
        # huge lateral acceleration: tangential forces saturate at mu * Fz
        friction = FrictionSpec(mu=0.5, f_min=0.0, f_max=400.0)
        a, b_d = build_force_model(STAND.pos, FEET, MODEL,
                                   np.array([30.0, 0.0, 0.0]), np.zeros(3), np.eye(3), ALL_LEGS)
        f = balance_qp(a, b_d, np.zeros(12), friction, ALL_LEGS, ActiveSetSolver())
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
                                   np.array([0.1, 0.2, -0.1]), np.eye(3), ALL_LEGS)
        f = balance_qp(a, b_d, np.zeros(12), friction, ALL_LEGS, ActiveSetSolver())
        assert_allclose(a @ f, b_d, atol=1e-5)
        f_ls = np.linalg.pinv(a) @ b_d
        assert_allclose(a @ f_ls, b_d, atol=1e-9)

    def test_beta_slews_solution(self, set_gains):
        # increasing beta monotonically shrinks the step from f_prev
        a, b_d = build_force_model(STAND.pos, FEET, MODEL,
                                   np.array([0.0, 0.0, 3.0]), np.zeros(3), np.eye(3), ALL_LEGS)
        a0, b0 = build_force_model(STAND.pos, FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3),
                                   ALL_LEGS)
        set_gains(beta=0.0)
        f_prev = balance_qp(a0, b0, np.zeros(12), FrictionSpec(), ALL_LEGS, ActiveSetSolver())
        steps = []
        for beta in (0.0, 1e-3, 1e-2, 1e-1):
            set_gains(beta=beta)
            f = balance_qp(a, b_d, f_prev, FrictionSpec(), ALL_LEGS, ActiveSetSolver())
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
            a, b_d = build_force_model(STAND.pos, feet, MODEL, acc, ang, np.eye(3), legs_of(mask))
            f = balance_qp(a, b_d, np.zeros(12), friction, legs_of(mask), ActiveSetSolver())
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
                                   np.array([0.0, 0.0, 100.0]), np.zeros(3), np.eye(3), ALL_LEGS)
        f = balance_qp(a, b_d, np.zeros(12), friction, ALL_LEGS, ActiveSetSolver())
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
                                   np.zeros(3), np.eye(3), ALL_LEGS)
        with pytest.raises(ForceDistributionError, match="MAX_ITER"):
            balance_qp(a, b_d, np.zeros(12), friction, ALL_LEGS, solver)
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
                acc_lin, acc_ang = rng.normal(size=3) * scale, rng.normal(size=3) * scale
                a_s, b_d = build_force_model(STAND.pos, feet, MODEL, acc_lin, acc_ang, np.eye(3),
                                             legs_of(mask))
                f_prev = rng.normal(size=12) * 50.0
                solver = RecordingSolver()
                f = balance_qp(a_s, b_d, f_prev, friction, legs_of(mask), solver)
                a, _ = force_model_per_leg(STAND.pos, feet, MODEL, acc_lin, acc_ang, np.eye(3))
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
        controller = BalanceController(MODEL)
        before = (_stance_cols.cache_info(), _friction_rows.cache_info())
        with pytest.raises(ValueError, match="stance"):
            controller.compute(STAND, hover_desired(), np.zeros(4, dtype=bool))
        assert (_stance_cols.cache_info(), _friction_rows.cache_info()) == before
        assert controller.f_prev.tobytes() == np.zeros(12).tobytes()

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



class TestOnePass:
    """BalanceController.compute against the composition of the array
    formulas (gain matrices, the per-leg 6x12 map, the column gather): the
    same forces, byte for byte, and the same f_prev after each call."""

    @staticmethod
    def assert_replay_matches(computes, model, friction):
        # one controller carries f_prev from call to call, from zero
        assert computes[0][3].tobytes() == np.zeros(12).tobytes()
        assert all(a[4] is b[3] for a, b in zip(computes, computes[1:]))
        controller, f_ref = BalanceController(model, friction), np.zeros(12)
        for i, (state, des, mask, _, out) in enumerate(computes):
            f = controller.compute(state, des, mask)
            f_ref = compute_reference(state, des, mask, f_ref, model, friction)
            assert f.tobytes() == f_ref.tobytes() == out.tobytes(), i
            assert controller.f_prev.tobytes() == f_ref.tobytes(), i

    def test_trot_ticks_on_estimates(self, trot_ticks):
        computes = trot_ticks[0]
        assert {len(legs_of(c[2])) for c in computes} == {2}
        self.assert_replay_matches(computes, MODEL, FrictionSpec())

    def test_hop_landing_ticks(self, hop_landing):
        assert sum(all(c[2]) for c in hop_landing) > 300
        self.assert_replay_matches(hop_landing, hop_spec(n_knots=4).model,
                                   FrictionSpec(f_max=scenarios.F_MAX))

    def test_every_stance_set_at_random_states(self):
        rng = np.random.default_rng(12)
        friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=300.0)
        controller = BalanceController(MODEL, friction)
        for mask in ALL_MASKS:
            for case in range(4):
                state = RobotState(pos=STAND.pos + rng.normal(size=3) * 0.05,
                                   vel=rng.normal(size=3) * 0.5,
                                   rot=so3.exp_exact(rng.normal(size=3) * 0.2),
                                   omega=rng.normal(size=3),
                                   feet=FEET + rng.normal(size=(4, 3)) * 0.05)
                # the larger errors saturate the bounds: rows join the working set
                scale = 0.3 if case % 2 else 0.02
                des = DesiredState(pos=state.pos + rng.normal(size=3) * scale,
                                   vel=rng.normal(size=3) * scale,
                                   rot=so3.exp_exact(rng.normal(size=3) * scale))
                f_prev = rng.normal(size=12) * 50.0
                controller.f_prev = f_prev
                f = controller.compute(state, des, mask)
                want = compute_reference(state, des, mask, f_prev, MODEL, friction)
                assert f.tobytes() == want.tobytes(), (mask, case)
                assert controller.f_prev is f
