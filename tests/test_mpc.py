import dataclasses
import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import balance, mpc, so3
from quadstack.balance import GRAVITY_W, BodyModel, FrictionSpec, balance_qp, build_force_model
from quadstack.mpc import MpcConfig, _condense, linearize_srbd, plan_cost, rollout, solve_mpc
from quadstack.qpsolver import ActiveSetSolver, QpProblem, QpStatus
from quadstack.sim import SimWorld
from quadstack.state import RobotState

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
MODEL = BodyModel()
G = 9.81


def stand_x0(z=0.45):
    x = np.zeros(12)
    x[2] = z
    return x


STAND_Q = np.diag([150.0, 150.0, 400.0, 80.0, 80.0, 40.0,
                   1.0, 1.0, 2.0, 4.0, 4.0, 2.0])


@pytest.fixture
def set_weights(monkeypatch):
    """Sets the MPC's step and cost weights for one test."""
    def set_(dt=0.03, q=STAND_Q, r=1e-7):
        monkeypatch.setattr(mpc, "DT", dt)
        monkeypatch.setattr(mpc, "_Q_WEIGHT", q)
        monkeypatch.setattr(mpc, "_R_WEIGHT", r)
    return set_


def stand_cfg(horizon=8):
    x_ref = np.tile(stand_x0(), (horizon, 1))
    contact = np.ones((horizon, 4), dtype=bool)
    feet = np.tile(FEET, (horizon, 1, 1))
    return MpcConfig(x_ref=x_ref, contact=contact, feet=feet, p_nom=x_ref[:, 0:3],
                     model=MODEL)


class TestLinearize:
    def test_ballistic_velocity_row(self):
        a, b, c = linearize_srbd(FEET, MODEL, 0.03, np.ones(4, dtype=bool),
                                 np.array([0.0, 0.0, 0.45]))
        x = stand_x0()
        x_next = a @ x + c  # zero forces
        assert_allclose(x_next[8], -G * 0.03, atol=1e-12)

    def test_swing_columns_zero(self):
        contact = np.array([True, False, True, True])
        _, b, _ = linearize_srbd(FEET, MODEL, 0.03, contact, np.array([0.0, 0.0, 0.45]))
        assert_allclose(b[:, 3:6], np.zeros((12, 3)), atol=0.0)
        assert np.any(b[:, 0:3] != 0.0)

    @staticmethod
    def _one_step_error(dt, angle_scale, omega_scale):
        rng = np.random.default_rng(4)
        forces = np.zeros(12)
        forces[2::3] = MODEL.mass * G / 4.0
        forces[0::3] = rng.normal(size=4) * 5.0
        forces[1::3] = rng.normal(size=4) * 5.0
        state = RobotState(pos=[0.0, 0.0, 0.45], vel=[0.1, -0.05, 0.02],
                           rot=so3.rpy_to_matrix([0.02 * angle_scale,
                                                  -0.03 * angle_scale, 0.0]),
                           omega=np.array([0.05, 0.02, -0.04]) * omega_scale,
                           feet=FEET)
        world = SimWorld(state, MODEL, dt=dt)
        world.step(forces, np.ones(4, dtype=bool))
        truth = np.concatenate([world.state.pos, so3.matrix_to_rpy(world.state.rot),
                                world.state.vel, world.state.rot @ world.state.omega])
        x0 = np.concatenate([state.pos, so3.matrix_to_rpy(state.rot),
                             state.vel, state.rot @ state.omega])
        a, b, c = linearize_srbd(FEET, MODEL, dt, np.ones(4, dtype=bool), state.pos)
        return np.linalg.norm(a @ x0 + b @ forces + c - truth)

    def test_discretization_error_second_order_in_dt(self):
        # at the linearization point (level, at rest) the only error is
        # discretization, measured slope 2.0 against the nonlinear simulator
        dts = [1e-3, 2e-3, 4e-3, 8e-3]
        errs = [self._one_step_error(dt, 0.0, 0.0) for dt in dts]
        slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
        assert np.all(slopes >= 1.9)

    def test_tilt_model_error_first_order_and_small(self):
        # tilting the body adds a model error linear in the tilt (anisotropic
        # inertia rotated by roll/pitch), scaled by dt; small at 1 kHz
        scales = [1.0, 2.0, 4.0]
        errs = [self._one_step_error(1e-3, s, 0.0) for s in scales]
        slopes = np.diff(np.log(errs)) / np.diff(np.log(scales))
        assert np.all(slopes >= 0.9)
        assert errs[0] <= 1e-3  # absolute one-step error at ~2 deg tilt


TROT = np.array([[True, False, False, True], [False, True, True, False]])


def random_cfg(rng, contact, yaw=0.0, with_p_nom=False):
    """A random plan for a body turned by ``yaw``: the reference yaw and the
    footholds turn with it, while the dynamics stay linearized unyawed.
    Without ``with_p_nom`` the moment arms are taken about the reference."""
    k = contact.shape[0]
    x_ref = np.tile(stand_x0(), (k, 1)) + rng.normal(scale=0.1, size=(k, 12))
    x_ref[:, 5] += yaw
    feet = (FEET + rng.normal(scale=0.05, size=(k, 4, 3))) @ so3.rot_z(yaw).T
    p_nom = x_ref[:, 0:3] + (rng.normal(scale=0.05, size=(k, 3)) if with_p_nom else 0.0)
    return MpcConfig(x_ref=x_ref, contact=contact, feet=feet, p_nom=p_nom, model=MODEL)


class TestCondense:
    # contact schedules: all four feet, trot diagonals, one foot, flight steps
    SCHEDULES = {
        "stance": np.ones((10, 4), dtype=bool),
        "trot": np.repeat(TROT, 5, axis=0),
        "one_foot": np.tile([False, False, True, False], (6, 1)),
        "flight_steps": np.array([TROT[0], [False] * 4, [True] * 4, [False] * 4, TROT[1]]),
        "horizon_one": np.ones((1, 4), dtype=bool),
        "all_flight": np.zeros((4, 4), dtype=bool),
    }

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("yaw", [0.0, 0.7, -2.9])
    @pytest.mark.parametrize("with_p_nom", [False, True])
    def test_matches_per_step_rollout(self, name, yaw, with_p_nom):
        # the closed-form prediction against mpc.rollout, which composes the
        # per-step linearize_srbd dynamics one step at a time, for a body
        # turned by yaw
        rng = np.random.default_rng(7)
        contact = self.SCHEDULES[name]
        k = contact.shape[0]
        for _ in range(3):
            cfg = random_cfg(rng, contact, yaw, with_p_nom)
            x0 = stand_x0() + rng.normal(scale=0.2, size=12)
            x0[5] += yaw
            plan = rng.normal(scale=80.0, size=(k, 12)) * np.repeat(contact, 3, axis=1)
            sx, su, sc = _condense(cfg)
            assert su.shape == (12 * k, 3 * int(contact.sum()))
            u = plan.reshape(k, 4, 3)[contact].reshape(-1)
            pred = (sx @ x0 + su @ u + sc).reshape(k, 12)
            oracle = rollout(cfg, x0, plan)
            assert np.max(np.abs(pred - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("dt", [1e-3, 0.03, 0.25])
    @pytest.mark.parametrize("yaw", [0.0, 0.4, np.pi / 2, -2.2])
    def test_state_matrix_is_identity_plus_nilpotent(self, dt, yaw):
        # for footholds turned by yaw as well: the state matrix does not
        # depend on the heading
        feet = FEET @ so3.rot_z(yaw).T
        a, _, _ = linearize_srbd(feet, MODEL, dt, np.ones(4, dtype=bool),
                                 np.array([0.0, 0.0, 0.45]))
        n = a - np.eye(12)
        assert np.any(n != 0.0)
        assert np.array_equal(n @ n, np.zeros((12, 12)))
        a0, _, _ = linearize_srbd(FEET, MODEL, dt, np.ones(4, dtype=bool),
                                  np.array([0.0, 0.0, 0.45]))
        assert np.array_equal(a, a0)

    def test_cached_tables_keep_the_bits_of_a_fresh_build(self, monkeypatch):
        # the horizon tables are cached per horizon, step and model: two
        # models and horizons 1 and 10, interleaved through solve_mpc, each
        # condense to the bits of a build without the cache, and each
        # prediction still matches the per-step rollout of its own model
        other = BodyModel(mass=30.0, inertia=[[0.3, 0.01, 0.0], [0.01, 1.8, 0.02],
                                              [0.0, 0.02, 1.9]])
        rng = np.random.default_rng(11)
        hits = mpc._horizon_tables.cache_info().hits
        for model, k in [(MODEL, 10), (other, 10), (MODEL, 1), (other, 1)] * 2:
            cfg = dataclasses.replace(random_cfg(rng, np.repeat(TROT, 5, axis=0)[:k]),
                                      model=model)
            x0 = stand_x0() + rng.normal(scale=0.05, size=12)
            plan = solve_mpc(cfg, x0, FrictionSpec())
            cached = _condense(cfg)
            with monkeypatch.context() as m:
                m.setattr(mpc, "_horizon_tables", mpc._horizon_tables.__wrapped__)
                fresh = _condense(cfg)
            for a, b in zip(cached, fresh):
                assert a.tobytes() == b.tobytes()
            sx, su, sc = cached
            u = plan.reshape(k, 4, 3)[cfg.contact].reshape(-1)
            pred = (sx @ x0 + su @ u + sc).reshape(k, 12)
            oracle = rollout(cfg, x0, plan)
            assert np.max(np.abs(pred - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        # every condense after solve_mpc's, and every one of the second round
        assert mpc._horizon_tables.cache_info().hits >= hits + 12

    def test_all_flight_plan_is_exact_zeros(self):
        cfg = random_cfg(np.random.default_rng(1), self.SCHEDULES["all_flight"])
        plan = solve_mpc(cfg, stand_x0(), FrictionSpec())
        assert plan.shape == (4, 12)
        assert not plan.any() and not np.signbit(plan).any()


class TestSolve:
    @pytest.fixture(autouse=True)
    def stand_weights(self, set_weights):
        set_weights()

    def test_static_stand_forces(self, set_weights):
        # velocity-weighted Q keeps the horizon tail from shedding force
        set_weights(q=np.diag([50.0, 50.0, 100.0, 80.0, 80.0, 40.0,
                               10.0, 10.0, 20.0, 4.0, 4.0, 2.0]))
        cfg = stand_cfg()
        plan = solve_mpc(cfg, stand_x0(), FrictionSpec())
        for i in range(cfg.horizon):
            for f in range(4):
                assert_allclose(plan[i, 3 * f + 2], MODEL.mass * G / 4.0, atol=0.5)
                assert np.all(np.abs(plan[i, 3 * f:3 * f + 2]) <= 0.5)

    def test_flight_step_zero_forces(self):
        cfg = stand_cfg(horizon=4)
        cfg.contact[2, :] = False
        plan = solve_mpc(cfg, stand_x0(), FrictionSpec())
        assert_allclose(plan[2], np.zeros(12), atol=0.0)

    def test_qp_takes_the_cached_row_norms(self, monkeypatch):
        # the friction rows come from a cache that holds their norms too;
        # the QP must not form them again
        def formed(qp):
            raise AssertionError("QpProblem.row_norms formed again")
        never = functools.cached_property(formed)
        never.__set_name__(QpProblem, "row_norms")
        monkeypatch.setattr(QpProblem, "row_norms", never)
        problems = []
        solve = ActiveSetSolver.solve

        def recording_solve(self, qp):
            problems.append(qp)
            return solve(self, qp)

        monkeypatch.setattr(ActiveSetSolver, "solve", recording_solve)
        friction = FrictionSpec(mu=0.5, f_min=1.0, f_max=350.0)
        for cfg in (stand_cfg(), random_cfg(np.random.default_rng(3), np.repeat(TROT, 5, axis=0))):
            solve_mpc(cfg, stand_x0(), friction)
        assert len(problems) == 2
        for qp in problems:
            _, _, norms = balance._friction_rows(qp.n // 3, 0.5, 1.0, 350.0)
            assert qp.row_norms is norms
        with pytest.raises(AssertionError, match="formed again"):
            _ = QpProblem(h=np.eye(1), g=np.zeros(1), c_ineq=np.ones((1, 1)),
                          d_ineq=np.zeros(1)).row_norms

    def test_friction_respected(self, monkeypatch):
        results = []
        solve = ActiveSetSolver.solve

        def recording_solve(self, *args, **kwargs):
            results.append(solve(self, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(ActiveSetSolver, "solve", recording_solve)
        cfg = stand_cfg()
        x0 = stand_x0()
        x0[6] = 1.5  # large forward velocity error
        friction = FrictionSpec(mu=0.4, f_min=0.0, f_max=300.0)
        plan = solve_mpc(cfg, x0, friction)
        # 34 working rows at the optimum; the dual method adds each once
        [res] = results
        assert res.status is QpStatus.OPTIMAL
        assert res.iterations <= 50
        for i in range(cfg.horizon):
            for f in range(4):
                fx, fy, fz = plan[i, 3 * f:3 * f + 3]
                assert abs(fx) <= 0.4 * fz + 1e-6
                assert abs(fy) <= 0.4 * fz + 1e-6
                assert -1e-9 <= fz <= 300.0 + 1e-9

    def test_cost_dominates_baselines(self):
        cfg = stand_cfg()
        x0 = stand_x0()
        x0[8] = -0.2  # sinking
        plan = solve_mpc(cfg, x0, FrictionSpec())
        j_star = plan_cost(cfg, x0, plan)
        zero = np.zeros((cfg.horizon, 12))
        grav = np.zeros((cfg.horizon, 12))
        grav[:, 2::3] = MODEL.mass * G / 4.0
        assert j_star <= plan_cost(cfg, x0, zero) + 1e-9
        assert j_star <= plan_cost(cfg, x0, grav) + 1e-9

    def test_horizon_one_reduces_to_balance_qp(self, set_weights, monkeypatch):
        # Q = M S M / dt^2 on the velocity rows and R = alpha I make the
        # one-step plan identical to the stance-force QP with beta = 0
        dt = 0.02
        s_w = np.diag([1.0, 1.0, 1.0, 15.0, 15.0, 8.0])
        alpha = 1e-5
        i_w = MODEL.inertia
        m_blk = np.zeros((6, 6))
        m_blk[0:3, 0:3] = MODEL.mass * np.eye(3)
        m_blk[3:6, 3:6] = i_w
        q = np.zeros((12, 12))
        q[6:12, 6:12] = m_blk @ s_w @ m_blk / dt**2

        x0 = stand_x0()
        x0[6:9] = [0.1, -0.05, 0.2]
        v_ref = np.array([0.0, 0.0, 0.0])
        w_ref = np.array([0.0, 0.0, 0.1])
        x_ref = stand_x0()
        x_ref[6:9] = v_ref
        x_ref[9:12] = w_ref

        set_weights(dt=dt, q=q, r=alpha)
        cfg = MpcConfig(x_ref=x_ref.reshape(1, 12), contact=np.ones((1, 4), dtype=bool),
                        feet=FEET.reshape(1, 4, 3), p_nom=x_ref[0:3].reshape(1, 3),
                        model=MODEL)
        friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=400.0)
        plan = solve_mpc(cfg, x0, friction)

        b_d = np.concatenate([
            MODEL.mass * ((v_ref - x0[6:9]) / dt - GRAVITY_W),
            i_w @ (w_ref - x0[9:12]) / dt,
        ])
        legs = (0, 1, 2, 3)
        a, _ = build_force_model(x_ref[0:3], FEET, MODEL, np.zeros(3), np.zeros(3), np.eye(3),
                                 legs)
        monkeypatch.setattr(balance, "_S_WEIGHT", s_w)
        monkeypatch.setattr(balance, "_ALPHA", alpha)
        monkeypatch.setattr(balance, "_BETA", 0.0)
        f_bal = balance_qp(a, b_d, np.zeros(12), friction, legs, ActiveSetSolver())
        assert_allclose(plan[0], f_bal, atol=1e-5)

    def test_rollout_tracks_reference_stand(self):
        cfg = stand_cfg(horizon=10)
        x0 = stand_x0()
        x0[2] -= 0.03  # start low
        plan = solve_mpc(cfg, x0, FrictionSpec())
        xs = rollout(cfg, x0, plan)
        assert abs(xs[-1][2] - 0.45) < 0.002
