import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cholesky, expm, solve_triangular

from quadstack import estimation, scenarios, so3
from quadstack.estimation import (
    ImuSample,
    KfState,
    Q_ACCEL_DEFAULT,
    Q_FOOT_STANCE_DEFAULT,
    R_HEIGHT_DEFAULT,
    R_POS_DEFAULT,
    R_VEL_DEFAULT,
    SWING_INFLATION_DEFAULT,
    SingularInnovationError,
    kf_default_state,
    kf_predict,
    kf_update,
    leg_measurement_from_kinematics,
    leg_measurements_batch,
    _kappa,
    _process_matrices,
)
from quadstack.swing import HIP_OFFSETS, leg_fk, leg_ik

G = 9.81
FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
ALL_STANCE = np.ones(4, dtype=bool)


def stance_measurements(p_b, v_b, feet=FEET, in_stance=(True,) * 4):
    """Leg measurements of pinned feet: (rel_pos, rel_vel, heights, in_stance)."""
    return (feet - p_b, np.tile(-np.asarray(v_b, dtype=float), (4, 1)),
            feet[:, 2].copy(), np.array(in_stance, dtype=bool))


@pytest.fixture(scope="module")
def trot_kf_calls():
    """The kf_predict and kf_update calls ``(arguments, output)`` of a 0.3 s
    balance trot on estimates with the CLI's default sensor noise."""
    calls = {"kf_predict": [], "kf_update": []}

    def recording(name):
        fn = getattr(scenarios, name)

        def call(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(scenarios, name, recording(name))
        scenarios.run_trot(noise=scenarios.sensor_noise(0.05, 0.005, 0.2, seed=1),
                           duration=0.3, v_des=(0.9, 0.05))
    assert [len(c) for c in calls.values()] == [300, 300]
    return calls


def kf_predict_dense(s, r_hat, accel, dt, in_stance):
    """kf_predict with its transition and process covariance formed per call."""
    q_p = np.where(in_stance, Q_FOOT_STANCE_DEFAULT,
                   Q_FOOT_STANCE_DEFAULT * SWING_INFLATION_DEFAULT)
    a = np.eye(18)
    a[0:3, 3:6] = dt * np.eye(3)
    q = np.zeros((18, 18))
    q[0:3, 0:3] = Q_ACCEL_DEFAULT * dt**3 / 3.0 * np.eye(3)
    q[0:3, 3:6] = q[3:6, 0:3] = Q_ACCEL_DEFAULT * dt**2 / 2.0 * np.eye(3)
    q[3:6, 3:6] = Q_ACCEL_DEFAULT * dt * np.eye(3)
    for i in range(4):
        q[6 + 3 * i:9 + 3 * i, 6 + 3 * i:9 + 3 * i] = q_p[i] * dt * np.eye(3)
    u = r_hat @ accel + np.array([0.0, 0.0, -G])
    mean = s.mean.copy()
    mean[0:3] = s.mean[0:3] + (dt * s.mean[3:6] + 0.5 * dt * dt * u)
    mean[3:6] = s.mean[3:6] + dt * u
    cov = a @ s.cov @ a.T + q
    return mean, 0.5 * (cov + cov.T)


def measurement_matrix():
    """The (28, 18) H: per foot, relative position, relative velocity, height."""
    h = np.zeros((28, 18))
    for i in range(4):
        h[7 * i:7 * i + 3, 0:3] = -np.eye(3)
        h[7 * i:7 * i + 3, 6 + 3 * i:9 + 3 * i] = np.eye(3)
        h[7 * i + 3:7 * i + 6, 3:6] = -np.eye(3)
        h[7 * i + 6, 8 + 3 * i] = 1.0
    return h


def measurement_terms(s, rel_pos, rel_vel, heights, in_stance):
    """H, the (28,) measurement variances and the innovation, formed per call."""
    h = measurement_matrix()
    r_foot = np.array([R_POS_DEFAULT] * 3 + [R_VEL_DEFAULT] * 3 + [R_HEIGHT_DEFAULT])
    r_diag = np.repeat(np.where(in_stance, 1.0, SWING_INFLATION_DEFAULT), 7) * np.tile(r_foot, 4)
    z = np.concatenate([rel_pos, rel_vel, np.reshape(heights, (4, 1))], axis=1).reshape(28)
    return h, r_diag, z - h @ s.mean


def kf_update_dense(s, rel_pos, rel_vel, heights, in_stance):
    """kf_update with H and the measurement variances formed per call, through
    scipy.linalg's wrappers of the same LAPACK kernels."""
    h, r_diag, innovation = measurement_terms(s, rel_pos, rel_vel, heights, in_stance)
    pht = s.cov @ h.T
    s_mat = h @ pht
    s_mat[np.diag_indices(28)] += r_diag
    w = solve_triangular(cholesky(s_mat, lower=True), np.column_stack([pht.T, innovation]),
                         lower=True)
    w_p = w[:, :18]
    return s.mean + w_p.T @ w[:, 18], s.cov - w_p.T @ w_p


def kf_update_joseph(s, rel_pos, rel_vel, heights, in_stance):
    """The textbook update: gain K = P H^T S^-1, Joseph-form covariance."""
    h, r_diag, innovation = measurement_terms(s, rel_pos, rel_vel, heights, in_stance)
    s_mat = h @ s.cov @ h.T + np.diag(r_diag)
    k = np.linalg.solve(s_mat, h @ s.cov).T
    ikh = np.eye(18) - k @ h
    return s.mean + k @ innovation, ikh @ s.cov @ ikh.T + k @ np.diag(r_diag) @ k.T


def all_stance_sets():
    return [tuple(bool((k >> leg) & 1) for leg in range(4)) for k in range(16)]


class TestRecordedTrotTicks:
    # the cached process matrices and variances against the formulas above

    def test_predict_bit_for_bit(self, trot_kf_calls):
        for i, (args, out) in enumerate(trot_kf_calls["kf_predict"]):
            mean, cov = kf_predict_dense(*args)
            assert out.mean.tobytes() == mean.tobytes(), i
            assert out.cov.tobytes() == cov.tobytes(), i

    def test_update_bit_for_bit(self, trot_kf_calls):
        stances = set()
        for i, (args, out) in enumerate(trot_kf_calls["kf_update"]):
            stances.add(args[-1])
            mean, cov = kf_update_dense(*args)
            assert out.mean.tobytes() == mean.tobytes(), i
            assert out.cov.tobytes() == cov.tobytes(), i
        assert len(stances) == 2  # each diagonal pair of the trot in swing

    def test_cache_follows_the_stance_flags(self):
        # the same call under each of the 16 stance sets, twice: the second
        # pass reads the caches the first one filled
        rng = np.random.default_rng(2)
        s = kf_default_state(np.array([0.0, 0.0, 0.45]), FEET)
        s = KfState(mean=s.mean + rng.normal(size=18) * 1e-3, cov=s.cov)
        meas = (FEET - s.pos + rng.normal(size=(4, 3)) * 1e-3, rng.normal(size=(4, 3)) * 0.01,
                np.zeros(4))
        for _ in range(2):
            for k in range(16):
                stance = np.array([(k >> leg) & 1 for leg in range(4)], dtype=bool)
                args = (s, so3.rot_z(0.1), np.array([0.1, 0.0, G]), 0.001, stance)
                out = kf_predict(*args)
                assert out.cov.tobytes() == kf_predict_dense(*args)[1].tobytes(), k
                out = kf_update(out, *meas, stance)
                mean, cov = kf_update_dense(kf_predict(*args), *meas, stance)
                assert out.mean.tobytes() == mean.tobytes(), k
                assert out.cov.tobytes() == cov.tobytes(), k


    def test_update_matches_the_joseph_form(self, trot_kf_calls):
        # an independent oracle: each recorded prior and measurement under
        # every stance set, against the textbook gain and Joseph form
        def rel_err(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        for i, (args, _) in enumerate(trot_kf_calls["kf_update"]):
            for stance in all_stance_sets():
                out = kf_update(*args[:-1], stance)
                mean, cov = kf_update_joseph(*args[:-1], stance)
                assert rel_err(out.mean, mean) <= 1e-12, (i, stance)
                assert rel_err(out.cov, cov) <= 1e-12, (i, stance)

class TestAdaptiveKappa:
    def test_at_rest(self):
        assert_allclose(_kappa(G), estimation._KAPPA_REF)

    def test_double_gravity(self):
        assert_allclose(_kappa(2 * G), 0.0)

    def test_zero_accel(self):
        assert_allclose(_kappa(0.0), 0.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = _kappa(float(np.linalg.norm(rng.normal(size=3) * 15.0)))
            assert 0.0 <= k <= estimation._KAPPA_REF


class TestOrientationFilter:
    def test_aligned_stationary_fixed_point(self):
        f = np.eye(3)
        imu = ImuSample(gyro=np.zeros(3), accel=[0.0, 0.0, G])
        out = orientation = orientation_step_n(f, imu, 0.001, 10)
        assert np.linalg.norm(out - np.eye(3)) <= 1e-12

    def test_pitch_error_decays_with_time_constant(self):
        # stationary truth at identity; estimate starts 10 deg off in pitch
        f = so3.rot_y(np.deg2rad(10.0))
        imu = ImuSample(gyro=np.zeros(3), accel=[0.0, 0.0, G])
        dt = 0.01
        errs, ts = [], []
        for k in range(int(30.0 / dt)):
            f = orientation_step(f, imu, dt)
            if k % 20 == 0:
                errs.append(np.linalg.norm(so3.log_map(f)))
                ts.append((k + 1) * dt)
        # fit log-linear decay: error ~ exp(-kappa t), kappa = 0.1
        coef = np.polyfit(ts, np.log(errs), 1)
        tau = -1.0 / coef[0]
        assert 8.0 <= tau <= 12.0

    def test_yaw_unobservable(self):
        # pure yaw error sees no correction from gravity
        f = so3.rot_z(0.4)
        imu = ImuSample(gyro=np.zeros(3), accel=[0.0, 0.0, G])
        for _ in range(1000):
            f = orientation_step(f, imu, 0.001)
        assert_allclose(f, so3.rot_z(0.4), atol=1e-9)

    def test_gyro_integration(self):
        # upright, yaw rate only: yaw advances at the gyro rate
        f = np.eye(3)
        imu = ImuSample(gyro=[0.0, 0.0, 0.5], accel=[0.0, 0.0, G])
        for _ in range(1000):
            f = orientation_step(f, imu, 0.001)
        rpy = so3.matrix_to_rpy(f)
        assert_allclose(rpy[2], 0.5, atol=1e-6)
        assert np.hypot(rpy[0], rpy[1]) <= 1e-9

    def test_renormalized(self):
        f = np.eye(3)
        rng = np.random.default_rng(1)
        for _ in range(500):
            imu = ImuSample(gyro=rng.normal(size=3), accel=[0.1, 0.0, G])
            f = orientation_step(f, imu, 0.002)
        assert so3.orthonormality_defect(f) <= 1e-9


def orientation_step_n(f, imu, dt, n):
    from quadstack.estimation import orientation_step

    for _ in range(n):
        f = orientation_step(f, imu, dt)
    return f


from quadstack.estimation import orientation_step  # noqa: E402


class TestKfPredict:
    def test_position_kinematics(self):
        s = kf_default_state(np.zeros(3), FEET)
        s.mean[3:6] = [1.0, 0.0, 0.0]
        # accel input balancing gravity: u = R a + a_g = 0
        out = kf_predict(s, np.eye(3), [0.0, 0.0, G], 0.001, ALL_STANCE)
        assert_allclose(out.pos, [0.001, 0.0, 0.0], atol=1e-12)
        assert_allclose(out.vel, [1.0, 0.0, 0.0], atol=1e-12)

    def test_free_fall(self):
        s = kf_default_state(np.zeros(3), FEET)
        out = kf_predict(s, np.eye(3), np.zeros(3), 0.001, ALL_STANCE)
        assert_allclose(out.vel, [0.0, 0.0, -G * 0.001], atol=1e-12)

    def test_cov_trace_increases(self):
        s = kf_default_state(np.zeros(3), FEET)
        out = kf_predict(s, np.eye(3), [0.0, 0.0, G], 0.001, ALL_STANCE)
        assert np.trace(out.cov) > np.trace(s.cov)

    def test_swing_feet_inflated(self, monkeypatch):
        # a swing foot drifts with the stance density scaled by
        # SWING_INFLATION_DEFAULT, read on every call
        s = kf_default_state(np.zeros(3), FEET)
        stance = np.array([True, False, True, True])
        for inflation in (1e6, 1e3):
            monkeypatch.setattr(estimation, "SWING_INFLATION_DEFAULT", inflation)
            out = kf_predict(s, np.eye(3), [0.0, 0.0, G], 0.001, stance)
            growth = np.diag(out.cov - s.cov)[6:18].reshape(4, 3)
            assert_allclose(growth[stance], Q_FOOT_STANCE_DEFAULT * 0.001, rtol=1e-6)
            assert_allclose(growth[1], Q_FOOT_STANCE_DEFAULT * inflation * 0.001, rtol=1e-6)

    def test_discretization_matches_van_loan(self):
        # brute-force oracle: Van Loan matrix-exponential discretization of
        # the continuous (p, v) + feet model
        dt, q_v = 0.004, Q_ACCEL_DEFAULT
        q_p = np.array([1e-6, 1e-6, 1.0, 1e-6])
        a_d, _, q_d = _process_matrices(dt, (True, True, False, True), 1e6)

        a_c = np.zeros((18, 18))
        a_c[0:3, 3:6] = np.eye(3)
        g_c = np.zeros((18, 18))
        g_c[3:6, 3:6] = q_v * np.eye(3)
        for i in range(4):
            s0 = 6 + 3 * i
            g_c[s0:s0 + 3, s0:s0 + 3] = q_p[i] * np.eye(3)
        m = np.block([[-a_c, g_c], [np.zeros((18, 18)), a_c.T]]) * dt
        em = expm(m)
        a_d_ref = em[18:, 18:].T
        q_d_ref = a_d_ref @ em[:18, 18:]
        assert_allclose(a_d, a_d_ref, atol=1e-12)
        assert_allclose(q_d, q_d_ref, atol=1e-12)


class TestKfUpdate:
    def test_consistent_measurements_no_change(self):
        p_b = np.array([0.0, 0.0, 0.45])
        s = kf_default_state(p_b, FEET)
        out = kf_update(s, *stance_measurements(p_b, np.zeros(3)))
        assert_allclose(out.mean, s.mean, atol=1e-12)

    def test_swing_rows_ignored(self, monkeypatch):
        p_b = np.array([0.0, 0.0, 0.45])
        s = kf_default_state(p_b, FEET)
        leg2_swings = (True, True, False, True)
        meas = stance_measurements(p_b, np.zeros(3), in_stance=leg2_swings)
        rel_pos, rel_vel, heights, _ = meas
        rel_pos[2], rel_vel[2], heights[2] = [5.0, 5.0, 5.0], [3.0, 0.0, 0.0], 2.0
        ref = stance_measurements(p_b, np.zeros(3), in_stance=leg2_swings)
        out_wild = kf_update(s, *meas)
        out_ref = kf_update(s, *ref)
        delta_wild = np.linalg.norm(out_wild.mean - s.mean)
        # same wild foot with no inflation moves the mean a lot
        monkeypatch.setattr(estimation, "SWING_INFLATION_DEFAULT", 1.0)
        out_trusted = kf_update(s, *meas)
        delta_trusted = np.linalg.norm(out_trusted.mean - s.mean)
        assert delta_wild <= 1e-4 * delta_trusted
        assert np.linalg.norm(out_wild.mean - out_ref.mean) <= 1e-4

    def test_all_rows_inflated_is_identity_on_mean(self, monkeypatch):
        p_b = np.array([0.0, 0.0, 0.45])
        s = kf_default_state(p_b, FEET)
        meas = stance_measurements(p_b + 0.3, np.ones(3), in_stance=(False,) * 4)
        monkeypatch.setattr(estimation, "SWING_INFLATION_DEFAULT", 1e12)
        out = kf_update(s, *meas)
        assert np.linalg.norm(out.mean - s.mean) <= 1e-6

    def test_cov_stays_symmetric_psd(self):
        # 2 s of diagonal pairs alternating every 0.15 s; the swing feet keep
        # their rows, with lifted and moving measurements
        rng = np.random.default_rng(4)
        p_b = np.array([0.0, 0.0, 0.45])
        s = kf_default_state(p_b, FEET)
        pairs = ((True, False, False, True), (False, True, True, False))
        for k in range(2000):
            stance = pairs[(k // 150) % 2]
            s = kf_predict(s, np.eye(3), [0.0, 0.0, G] + rng.normal(size=3) * 0.05, 0.001,
                           stance)
            feet = FEET.copy()
            feet[~np.array(stance), 2] = 0.08 * np.sin(np.pi * (k % 150) / 150)
            rel_pos, rel_vel, heights, _ = stance_measurements(
                p_b + rng.normal(size=3) * 0.001, rng.normal(size=3) * 0.01, feet)
            s = kf_update(s, rel_pos, rel_vel, heights, stance)
            assert np.array_equal(s.cov, s.cov.T), k
            assert np.min(np.linalg.eigvalsh(s.cov)) >= -1e-10, k

    def test_tuple_and_array_stance_agree(self):
        rng = np.random.default_rng(5)
        s = kf_default_state(np.array([0.0, 0.0, 0.45]), FEET)
        meas = (FEET - s.pos + rng.normal(size=(4, 3)) * 1e-3, rng.normal(size=(4, 3)) * 0.01,
                np.zeros(4))
        for stance in all_stance_sets():
            outs = []
            for flags in (stance, np.array(stance)):
                prior = kf_predict(s, so3.rot_z(0.1), np.array([0.1, 0.0, G]), 0.001, flags)
                outs.append(kf_update(prior, *meas, flags))
            assert outs[0].mean.tobytes() == outs[1].mean.tobytes(), stance
            assert outs[0].cov.tobytes() == outs[1].cov.tobytes(), stance

    def test_bias_rejection_closed_loop(self):
        # constant accelerometer bias: fused velocity stays bounded while
        # dead reckoning drifts linearly
        bias = np.array([0.2, 0.0, 0.0])
        p_b = np.array([0.0, 0.0, 0.45])
        dt = 0.001
        s = kf_default_state(p_b, FEET)
        s_dead = kf_default_state(p_b, FEET)
        for _ in range(4000):
            accel = np.array([0.0, 0.0, G]) + bias
            s = kf_predict(s, np.eye(3), accel, dt, ALL_STANCE)
            s = kf_update(s, *stance_measurements(p_b, np.zeros(3)))
            s_dead = kf_predict(s_dead, np.eye(3), accel, dt, ALL_STANCE)
        assert np.linalg.norm(s.vel) < 0.05
        assert np.linalg.norm(s.pos - p_b) < 0.01
        assert np.linalg.norm(s_dead.vel) > 0.5  # 0.2 m/s^2 * 4 s

    def test_singular_innovation_raises(self):
        # a negative-definite state covariance makes the innovation
        # covariance H P H^T + R indefinite
        s = KfState(mean=np.zeros(18), cov=-np.eye(18))
        meas = stance_measurements(np.zeros(3), np.zeros(3))
        with pytest.raises(SingularInnovationError):
            kf_update(s, *meas)

    def test_closed_loop_estimator_stable(self):
        # spectral radius of (I - K H) A below one at the steady-state gain
        from quadstack.estimation import _H, _process_matrices

        dt = 0.001
        a, _, q = _process_matrices(dt, (True,) * 4, 1e6)
        r = np.diag(np.tile([1e-4] * 3 + [1e-3] * 3 + [1e-4], 4))
        p = np.eye(18) * 1e-4
        for _ in range(3000):
            p = a @ p @ a.T + q
            s_mat = _H @ p @ _H.T + r
            k = p @ _H.T @ np.linalg.inv(s_mat)
            p = (np.eye(18) - k @ _H) @ p
            p = 0.5 * (p + p.T)
        rho = np.max(np.abs(np.linalg.eigvals((np.eye(18) - k @ _H) @ a)))
        assert rho < 1.0


class TestLegMeasurementHelper:
    def test_matches_direct_kinematics(self):
        leg = 1
        q = leg_ik(HIP_OFFSETS[leg] + np.array([0.02, 0.01, -0.4]), leg)
        qd = np.array([0.1, -0.2, 0.3])
        gyro = np.array([0.05, -0.1, 0.2])
        r_hat = so3.exp_exact([0.02, 0.05, -0.1])
        rel_pos, rel_vel = leg_measurement_from_kinematics(q, qd, r_hat, gyro, leg)
        assert_allclose(rel_pos, r_hat @ leg_fk(q, leg), atol=1e-12)
        # numerical check of the velocity: differentiate R(t) p(q(t))
        eps = 1e-7
        q2 = q + eps * qd
        r2 = r_hat @ so3.exp_exact(gyro * eps)
        v_fd = (r2 @ leg_fk(q2, leg) - r_hat @ leg_fk(q, leg)) / eps
        assert_allclose(rel_vel, v_fd, atol=1e-5)

    def test_batch_matches_per_leg(self):
        # the four-leg loop version against the per-leg reference
        rng = np.random.default_rng(12)
        for _ in range(20):
            qs = np.array([leg_ik(HIP_OFFSETS[leg] + rng.uniform([-0.1, -0.1, -0.5], [0.1, 0.1, -0.3]),
                                  leg) for leg in range(4)])
            qds = rng.normal(size=(4, 3))
            gyro = rng.normal(size=3) * 0.5
            r_hat = so3.exp_exact(rng.normal(size=3) * 0.3)
            rel_pos, rel_vel = leg_measurements_batch(qs, qds, r_hat, gyro)
            for leg in range(4):
                ref_pos, ref_vel = leg_measurement_from_kinematics(qs[leg], qds[leg], r_hat,
                                                                   gyro, leg)
                assert_allclose(rel_pos[leg], ref_pos, rtol=0.0, atol=1e-12)
                assert_allclose(rel_vel[leg], ref_vel, rtol=0.0, atol=1e-12)
