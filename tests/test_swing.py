import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quadstack import so3, swing
from quadstack.swing import (
    HIP_OFFSETS,
    L1,
    L2,
    SwingTrajectory,
    UnreachableError,
    grf_from_torque,
    jump_track_torque,
    leg_fk,
    leg_ik,
    leg_jacobian,
    stance_torque,
)

RNG = np.random.default_rng(9)


def random_q(rng, n=1):
    qs = rng.uniform([-0.6, -1.2, 0.3], [0.6, 1.2, 2.2], size=(n, 3))
    return qs[0] if n == 1 else qs


def leg_fk_numpy(q, leg):
    """leg_fk's formula: planar foot turned by rot_x about the hip."""
    q = np.asarray(q, dtype=float)
    l1, l2 = L1, L2
    s1, c1 = np.sin(q[1]), np.cos(q[1])
    s12, c12 = np.sin(q[1] + q[2]), np.cos(q[1] + q[2])
    foot = np.array([-l1 * s1, 0.0, -l1 * c1]) + np.array([-l2 * s12, 0.0, -l2 * c12])
    return HIP_OFFSETS[leg] + so3.rot_x(q[0]) @ foot


def leg_jacobian_numpy(q, leg):
    """leg_jacobian's formula: e_x x (turned foot), then the turned planar columns."""
    q = np.asarray(q, dtype=float)
    l1, l2 = L1, L2
    rx = so3.rot_x(q[0])
    s1, c1 = np.sin(q[1]), np.cos(q[1])
    s12, c12 = np.sin(q[1] + q[2]), np.cos(q[1] + q[2])
    _, py, pz = rx @ np.array([-l1 * s1 - l2 * s12, 0.0, -l1 * c1 - l2 * c12])
    return np.column_stack([np.array([0.0, -pz, py]),
                            rx @ np.array([-l1 * c1 - l2 * c12, 0.0, l1 * s1 + l2 * s12]),
                            rx @ np.array([-l2 * c12, 0.0, l2 * s12])])


def jump_track_torque_numpy(q, qd, refs, gains, leg):
    """jump_track_torque's formula with 3x3 diagonal gain matrices."""
    q, qd = np.asarray(q, dtype=float), np.asarray(qd, dtype=float)
    j = leg_jacobian_numpy(q, leg)
    kp_c, kd_c, kp_j, kd_j = (np.diag(np.asarray(gains[k], dtype=float))
                              for k in ("kp_cart", "kd_cart", "kp_joint", "kd_joint"))
    r = {k: np.asarray(v, dtype=float) for k, v in refs.items()}
    tau = j.T @ (kp_c @ (r["p_foot_d"] - leg_fk_numpy(q, leg))
                 + kd_c @ (r["v_foot_d"] - j @ qd))
    tau = tau + r["tau_d"]
    return tau + kp_j @ (r["q_d"] - q) + kd_j @ (np.zeros(3) - qd)


def stance_torque_numpy(q, grf_world, r_body, leg):
    return -leg_jacobian_numpy(q, leg).T @ (r_body.T @ grf_world)


def grf_from_torque_numpy(q, tau, r_body, leg):
    return r_body @ np.linalg.solve(leg_jacobian_numpy(q, leg).T, -tau)


def rows(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def mat_vec(m, v):
    """m @ v for 3x3 rows m, each row summed left to right in Python floats."""
    return [m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3)]


def transpose(m):
    return [[m[k][i] for k in range(3)] for i in range(3)]


def jump_track_torque_floats(q, qd, refs, gains, leg):
    """jump_track_torque's formula in Python floats: J qd and J^T w summed
    left to right per row, each diagonal gain one product per row."""
    q, qd = [float(x) for x in q], [float(x) for x in qd]
    r = {k: [float(x) for x in v] for k, v in refs.items()}
    g = {k: [float(x) for x in v] for k, v in gains.items()}
    j, p = rows(leg_jacobian(q, leg)), leg_fk(q, leg).tolist()
    v = mat_vec(j, qd)
    w = [g["kp_cart"][i] * (r["p_foot_d"][i] - p[i]) + g["kd_cart"][i] * (r["v_foot_d"][i] - v[i])
         for i in range(3)]
    t = mat_vec(transpose(j), w)
    return np.array([t[i] + r["tau_d"][i] + g["kp_joint"][i] * (r["q_d"][i] - q[i])
                     + g["kd_joint"][i] * (0.0 - qd[i]) for i in range(3)])


def stance_torque_floats(q, grf_world, r_body, leg):
    """-J^T (R^T F) in Python floats."""
    f_body = mat_vec(transpose(rows(r_body)), [float(x) for x in grf_world])
    return np.array([-t for t in mat_vec(transpose(rows(leg_jacobian(q, leg))), f_body)])


def grf_from_torque_floats(q, tau, r_body, leg):
    """R f with J^T f = -tau solved by the cofactors of J: row i of the
    cofactor matrix is the cross product of J's rows i + 1 and i + 2."""
    j = rows(leg_jacobian(q, leg))
    cof = [[u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
           for u, v in ((j[1], j[2]), (j[2], j[0]), (j[0], j[1]))]
    det = j[0][0] * cof[0][0] + j[0][1] * cof[0][1] + j[0][2] * cof[0][2]
    f_body = [-x / det for x in mat_vec(cof, [float(t) for t in tau])]
    return np.array(mat_vec(rows(r_body), f_body))


def assert_relative(got, want, rtol=1e-12):
    """Largest entry difference within rtol of the largest entry."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_same_bits(got, want):
    got = np.asarray(got)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 vs 0.0


def workspace_qs(rng, n):
    """Joint angles across the workspace: abduction of both signs, and every
    fourth knee within 1e-4 rad of straight."""
    qs = rng.uniform([-0.8, -1.5, 0.05], [0.8, 1.5, 2.6], size=(n, 3))
    qs[::4, 2] = rng.uniform(1e-6, 1e-4, size=len(qs[::4]))
    return np.vstack([np.zeros(3), [-0.3, 0.0, 0.0], qs])


class TestKinematics:
    def test_straight_leg(self):
        for leg in range(4):
            foot = leg_fk(np.zeros(3), leg)
            assert_allclose(foot, HIP_OFFSETS[leg] - [0.0, 0.0, 0.68], atol=1e-12)

    def test_abduction_rolls_leg_plane(self):
        foot = leg_fk([np.pi / 2, 0.0, 0.0], 0)
        assert_allclose(foot, HIP_OFFSETS[0] + [0.0, 0.68, 0.0], atol=1e-12)

    def test_fk_ik_roundtrip(self):
        for _ in range(100):
            q = random_q(RNG)
            leg = int(RNG.integers(4))
            p = leg_fk(q, leg)
            q2 = leg_ik(p, leg)
            assert_allclose(leg_fk(q2, leg), p, atol=1e-9)

    def test_ik_unreachable(self):
        with pytest.raises(UnreachableError):
            leg_ik(HIP_OFFSETS[0] - [0.0, 0.0, 1.01 * 0.68], 0)

    def test_jacobian_matches_finite_differences(self):
        eps = 1e-7
        for _ in range(20):
            q = random_q(RNG)
            leg = int(RNG.integers(4))
            j = leg_jacobian(q, leg)
            j_fd = np.zeros((3, 3))
            for k in range(3):
                dq = np.zeros(3)
                dq[k] = eps
                j_fd[:, k] = (leg_fk(q + dq, leg) - leg_fk(q - dq, leg)) / (2 * eps)
            assert_allclose(j, j_fd, atol=1e-6)

    def test_extended_leg_singular(self):
        j = leg_jacobian([0.2, 0.4, 0.0], 0)
        assert abs(np.linalg.det(j)) <= 1e-12

    def test_fk_and_jacobian_match_array_formulas(self):
        rng = np.random.default_rng(21)
        for i, q in enumerate(workspace_qs(rng, 400)):
            leg = i % 4
            assert_same_bits(leg_fk(q, leg), leg_fk_numpy(q, leg))
            assert_same_bits(leg_jacobian(q, leg), leg_jacobian_numpy(q, leg))

    def test_velocity_map_along_path(self):
        q0 = np.array([0.1, -0.4, 1.2])
        qd = np.array([0.3, 0.5, -0.7])
        dt = 1e-6
        p_plus = leg_fk(q0 + dt * qd, 0)
        p_minus = leg_fk(q0 - dt * qd, 0)
        assert_allclose((p_plus - p_minus) / (2 * dt), leg_jacobian(q0, 0) @ qd, atol=1e-7)


class TestJumpTracking:
    GAINS = {"kp_cart": (500.0,) * 3, "kd_cart": (10.0,) * 3,
             "kp_joint": (30.0,) * 3, "kd_joint": (1.0,) * 3}

    @pytest.fixture(autouse=True)
    def gains(self, monkeypatch):
        # gains other than the program's: each term must read its own constant
        for name, value in self.GAINS.items():
            monkeypatch.setattr(swing, f"_{name.upper()}", value)

    def test_feedforward_passthrough(self):
        q = np.array([0.1, -0.6, 1.3])
        j = leg_jacobian(q, 0)
        tau_d = np.array([1.0, -2.0, 0.5])
        tau = jump_track_torque(q, np.zeros(3), q, leg_fk(q, 0), j @ np.zeros(3), tau_d, 0)
        assert_allclose(tau, tau_d, atol=1e-12)

    def test_joint_only_error(self):
        q = np.array([0.0, -0.5, 1.0])
        dq = np.array([0.05, -0.02, 0.04])
        tau = jump_track_torque(q, np.zeros(3), q + dq, leg_fk(q, 0), np.zeros(3), np.zeros(3), 0)
        assert_allclose(tau, np.diag(self.GAINS["kp_joint"]) @ dq, atol=1e-12)

    def test_matches_array_formula(self):
        rng = np.random.default_rng(22)
        for i, q in enumerate(workspace_qs(rng, 200)):
            leg = i % 4
            qd = rng.normal(scale=2.0, size=3)
            refs = {"q_d": q + rng.normal(scale=0.1, size=3),
                    "p_foot_d": leg_fk(q, leg) + rng.normal(scale=0.02, size=3),
                    "v_foot_d": rng.normal(size=3), "tau_d": rng.normal(scale=20.0, size=3)}
            want = jump_track_torque_floats(q, qd, refs, self.GAINS, leg)
            assert_same_bits(jump_track_torque(q, qd, **refs, leg=leg), want)
            as_floats = {k: v.tolist() for k, v in refs.items()}
            assert_same_bits(jump_track_torque(q.tolist(), qd.tolist(), **as_floats, leg=leg),
                             want)
            assert_relative(want, jump_track_torque_numpy(q, qd, refs, self.GAINS, leg))


class TestStanceMapping:
    def test_matches_array_formulas(self):
        rng = np.random.default_rng(23)
        for i, q in enumerate(workspace_qs(rng, 200)):
            leg = i % 4
            r = so3.exp_exact(rng.normal(scale=0.5, size=3))
            f = rng.normal(scale=[20.0, 20.0, 100.0])
            tau = stance_torque(q, f, r, leg)
            assert_same_bits(tau, stance_torque_floats(q, f, r, leg))
            assert_same_bits(stance_torque(q.tolist(), f.tolist(), r.tolist(), leg), tau)
            assert_relative(tau, stance_torque_numpy(q, f, r, leg))
            if q[2] == 0.0:
                # a straight knee makes J singular: both solves raise
                for grf in (grf_from_torque, grf_from_torque_numpy):
                    with pytest.raises(np.linalg.LinAlgError):
                        grf(q, tau, r, leg)
                continue
            got = grf_from_torque(q, tau, r, leg)
            assert_same_bits(got, grf_from_torque_floats(q, tau, r, leg))
            assert_same_bits(grf_from_torque(q.tolist(), tau.tolist(), r.tolist(), leg), got)
            # any two solves differ by up to about eps * cond(J); within 1e-4
            # rad of a straight knee cond(J) reaches 1e7, and 1e-12 is out of
            # reach of LAPACK's own solve
            bent = q[2] > 1e-3
            rtol = 1e-12 if bent else 1e-15 * np.linalg.cond(leg_jacobian(q, leg))
            assert_relative(got, grf_from_torque_numpy(q, tau, r, leg), rtol)

    def test_singular_and_non_finite(self):
        r = so3.exp_exact([0.05, -0.1, 0.3])
        tau = np.array([1.0, -2.0, 3.0])
        # at q = 0 the leg hangs straight and J has rank 2
        assert np.linalg.matrix_rank(leg_jacobian(np.zeros(3), 0)) == 2
        for grf in (grf_from_torque, grf_from_torque_numpy):
            with pytest.raises(np.linalg.LinAlgError):
                grf(np.zeros(3), tau, r, 0)
        # a non-finite torque gives a non-finite force, without raising,
        # as np.linalg.solve does: the jump loop's clamps and the
        # simulator's finite check handle it
        q, bad = np.array([0.1, -0.5, 1.2]), np.array([np.nan, 0.0, 0.0])
        assert np.isnan(grf_from_torque(q, bad, r, 0)).all()
        assert np.isnan(grf_from_torque_numpy(q, bad, r, 0)).all()

    def test_no_linalg_solve(self, monkeypatch):
        def solve(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", solve)
        q = np.array([0.1, -0.5, 1.2])
        r = so3.exp_exact([0.05, -0.1, 0.3])
        f = np.array([5.0, -3.0, 80.0])
        assert_allclose(grf_from_torque(q, stance_torque(q, f, r, 0), r, 0), f, atol=1e-9)

    def test_grf_roundtrip(self):
        q = np.array([0.1, -0.5, 1.2])
        r = so3.exp_exact([0.05, -0.1, 0.3])
        f = np.array([5.0, -3.0, 80.0])
        tau = stance_torque(q, f, r, 0)
        assert_allclose(grf_from_torque(q, tau, r, 0), f, atol=1e-9)


def swing_sample_numpy(p_start, p_end, duration, t):
    """SwingTrajectory.sample's formula on 3-vectors."""
    p0, p1 = np.asarray(p_start, dtype=float), np.asarray(p_end, dtype=float)
    u = min(1.0, max(0.0, t / duration))
    s = u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
    bump = 16.0 * u * u * (1.0 - u) ** 2
    return p0 + s * (p1 - p0) + np.array([0.0, 0.0, swing._APEX * bump])


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
                got = np.asarray(traj.sample(t))
                want = swing_sample_numpy(p0, p1, duration, t)
                assert_array_equal(got, want)
                assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 vs 0.0

    def test_endpoints_and_velocity(self):
        # at rest at both ends: in h seconds the foot moves by O(h^2)
        traj = SwingTrajectory(np.zeros(3), np.array([0.2, 0.0, 0.0]), 0.25)
        p0, p1, h = traj.sample(0.0), traj.sample(0.25), 1e-7
        assert_allclose(p0, np.zeros(3), atol=1e-12)
        assert_allclose(p1, [0.2, 0.0, 0.0], atol=1e-12)
        assert_allclose(np.subtract(traj.sample(h), p0) / h, np.zeros(3), atol=1e-5)
        assert_allclose(np.subtract(p1, traj.sample(0.25 - h)) / h, np.zeros(3), atol=1e-5)

    def test_apex_clearance(self):
        traj = SwingTrajectory(np.zeros(3), np.array([0.2, 0.0, 0.0]), 0.25)
        p_mid = traj.sample(0.125)
        assert_allclose(p_mid[2], 0.08, atol=1e-12)
