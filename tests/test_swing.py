import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quadstack import swing
from quadstack.swing import (
    LegModel,
    SwingTrajectory,
    UnreachableError,
    grf_from_torque,
    jump_track_torque,
    leg_fk,
    leg_ik,
    leg_jacobian,
    stance_torque,
)

MODEL = LegModel()
RNG = np.random.default_rng(9)


def random_q(rng, n=1):
    qs = rng.uniform([-0.6, -1.2, 0.3], [0.6, 1.2, 2.2], size=(n, 3))
    return qs[0] if n == 1 else qs


class TestKinematics:
    def test_straight_leg(self):
        for leg in range(4):
            foot = leg_fk(np.zeros(3), leg, MODEL)
            assert_allclose(foot, MODEL.hip(leg) - [0.0, 0.0, 0.68], atol=1e-12)

    def test_abduction_rolls_leg_plane(self):
        foot = leg_fk([np.pi / 2, 0.0, 0.0], 0, MODEL)
        assert_allclose(foot, MODEL.hip(0) + [0.0, 0.68, 0.0], atol=1e-12)

    def test_fk_ik_roundtrip(self):
        for _ in range(100):
            q = random_q(RNG)
            leg = int(RNG.integers(4))
            p = leg_fk(q, leg, MODEL)
            q2 = leg_ik(p, leg, MODEL)
            assert_allclose(leg_fk(q2, leg, MODEL), p, atol=1e-9)

    def test_ik_unreachable(self):
        with pytest.raises(UnreachableError):
            leg_ik(MODEL.hip(0) - [0.0, 0.0, 1.01 * 0.68], 0, MODEL)

    def test_jacobian_matches_finite_differences(self):
        eps = 1e-7
        for _ in range(20):
            q = random_q(RNG)
            leg = int(RNG.integers(4))
            j = leg_jacobian(q, leg, MODEL)
            j_fd = np.zeros((3, 3))
            for k in range(3):
                dq = np.zeros(3)
                dq[k] = eps
                j_fd[:, k] = (leg_fk(q + dq, leg, MODEL) - leg_fk(q - dq, leg, MODEL)) / (2 * eps)
            assert_allclose(j, j_fd, atol=1e-6)

    def test_extended_leg_singular(self):
        j = leg_jacobian([0.2, 0.4, 0.0], 0, MODEL)
        assert abs(np.linalg.det(j)) <= 1e-12

    def test_velocity_map_along_path(self):
        q0 = np.array([0.1, -0.4, 1.2])
        qd = np.array([0.3, 0.5, -0.7])
        dt = 1e-6
        p_plus = leg_fk(q0 + dt * qd, 0, MODEL)
        p_minus = leg_fk(q0 - dt * qd, 0, MODEL)
        assert_allclose((p_plus - p_minus) / (2 * dt), leg_jacobian(q0, 0, MODEL) @ qd, atol=1e-7)


class TestJumpTracking:
    GAINS = {"kp_cart": np.full(3, 500.0), "kd_cart": np.full(3, 10.0),
             "kp_joint": np.full(3, 30.0), "kd_joint": np.full(3, 1.0)}

    def test_feedforward_passthrough(self):
        q = np.array([0.1, -0.6, 1.3])
        j = leg_jacobian(q, 0, MODEL)
        refs = {"q_d": q, "qd_d": np.zeros(3), "p_foot_d": leg_fk(q, 0, MODEL),
                "v_foot_d": j @ np.zeros(3), "tau_d": np.array([1.0, -2.0, 0.5])}
        tau = jump_track_torque(q, np.zeros(3), refs, self.GAINS, 0, MODEL)
        assert_allclose(tau, refs["tau_d"], atol=1e-12)

    def test_joint_only_error(self):
        q = np.array([0.0, -0.5, 1.0])
        dq = np.array([0.05, -0.02, 0.04])
        refs = {"q_d": q + dq, "qd_d": np.zeros(3), "p_foot_d": leg_fk(q, 0, MODEL),
                "v_foot_d": np.zeros(3), "tau_d": np.zeros(3)}
        tau = jump_track_torque(q, np.zeros(3), refs, self.GAINS, 0, MODEL)
        assert_allclose(tau, np.diag(self.GAINS["kp_joint"]) @ dq, atol=1e-12)

    def test_reference_interpolation_midpoint(self):
        # linear interpolation of knot references hits the midpoint average
        a = {"q_d": np.zeros(3), "tau_d": np.zeros(3)}
        b = {"q_d": np.ones(3), "tau_d": np.full(3, 2.0)}
        mid = {k: 0.5 * (a[k] + b[k]) for k in a}
        assert_allclose(mid["q_d"], np.full(3, 0.5))
        assert_allclose(mid["tau_d"], np.full(3, 1.0))


class TestStanceMapping:
    def test_grf_roundtrip(self):
        from quadstack import so3

        q = np.array([0.1, -0.5, 1.2])
        r = so3.exp_exact([0.05, -0.1, 0.3])
        f = np.array([5.0, -3.0, 80.0])
        tau = stance_torque(q, f, r, 0, MODEL)
        assert_allclose(grf_from_torque(q, tau, r, 0, MODEL), f, atol=1e-9)


def swing_sample_numpy(p_start, p_end, duration, t):
    """SwingTrajectory.sample's formula on 3-vectors."""
    p0, p1 = np.asarray(p_start, dtype=float), np.asarray(p_end, dtype=float)
    u = min(1.0, max(0.0, t / duration))
    s = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
    ds = 30.0 * u * u * (1.0 - u) ** 2
    dds = 60.0 * u * (1.0 - 3.0 * u + 2.0 * u * u)
    inv = 1.0 / duration
    bump = 16.0 * u * u * (1.0 - u) ** 2
    dbump = 32.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
    ddbump = 32.0 * (1.0 - 6.0 * u + 6.0 * u * u)
    pos = p0 + s * (p1 - p0) + np.array([0.0, 0.0, swing._APEX * bump])
    vel = ds * inv * (p1 - p0) + np.array([0.0, 0.0, swing._APEX * dbump * inv])
    acc = dds * inv * inv * (p1 - p0) + np.array([0.0, 0.0, swing._APEX * ddbump * inv * inv])
    return pos, vel, acc


class TestSwingTrajectory:
    def test_sample_matches_vector_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p0 = rng.normal(scale=0.5, size=3)
            p1 = p0 + rng.normal(scale=0.2, size=3)
            still = rng.integers(3)
            p1[still] = p0[still]  # one axis without travel
            duration = rng.uniform(0.05, 0.4)
            traj = SwingTrajectory(p0, p1, duration)
            for t in (-0.01, 0.0, 1e-3, rng.uniform(0.0, duration), 0.5 * duration,
                      duration, duration + 0.02):
                for got, want in zip(traj.sample(t), swing_sample_numpy(p0, p1, duration, t)):
                    got = np.asarray(got)
                    assert_array_equal(got, want)
                    assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 vs 0.0

    def test_endpoints_and_velocity(self):
        traj = SwingTrajectory(np.zeros(3), np.array([0.2, 0.0, 0.0]), 0.25)
        p0, v0, _ = traj.sample(0.0)
        p1, v1, _ = traj.sample(0.25)
        assert_allclose(p0, np.zeros(3), atol=1e-12)
        assert_allclose(p1, [0.2, 0.0, 0.0], atol=1e-12)
        assert_allclose(v0, np.zeros(3), atol=1e-12)
        assert_allclose(v1, np.zeros(3), atol=1e-12)

    def test_apex_clearance(self):
        traj = SwingTrajectory(np.zeros(3), np.array([0.2, 0.0, 0.0]), 0.25)
        p_mid, _, _ = traj.sample(0.125)
        assert_allclose(p_mid[2], 0.08, atol=1e-12)
