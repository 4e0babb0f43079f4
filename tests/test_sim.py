import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack.balance import BodyModel
from quadstack.sim import SensorNoise, SimWorld
from quadstack.state import RobotState
from quadstack.swing import UnreachableError, leg_fk
from quadstack import so3

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
G = 9.81


def stand_world(seed=0, noise=None, dt=1e-3, z=0.45):
    state = RobotState(pos=[0.0, 0.0, z], feet=FEET)
    return SimWorld(state, BodyModel(), dt=dt, noise=noise, seed=seed)


def hover_forces(model=BodyModel()):
    f = np.zeros(12)
    f[2::3] = model.mass * G / 4.0
    return f


class TestDynamics:
    def test_free_fall(self):
        w = stand_world(z=2.0)
        n = 500
        for _ in range(n):
            w.step(np.zeros(12), np.zeros(4, dtype=bool))
        t = n * w.dt
        assert_allclose(w.state.pos[2], 2.0 - 0.5 * G * t**2, atol=1e-9)
        assert_allclose(w.state.vel[2], -G * t, atol=1e-12)

    def test_hover_forces_balance(self):
        w = stand_world()
        for _ in range(1000):
            w.step(hover_forces(), np.ones(4, dtype=bool))
        assert np.linalg.norm(w.state.pos - [0.0, 0.0, 0.45]) <= 1e-9
        assert np.linalg.norm(w.state.vel) <= 1e-9

    def test_flight_energy_conserved(self):
        w = stand_world(z=1.0)
        w.state.vel = np.array([1.0, 0.5, 2.0])
        w.state.omega = np.array([1.0, 2.0, 0.5])
        m, inertia = w.model.mass, w.model.inertia

        def energy():
            ke = 0.5 * m * w.state.vel @ w.state.vel
            rot = 0.5 * w.state.omega @ inertia @ w.state.omega
            pe = m * G * w.state.pos[2]
            return ke + rot + pe

        e0 = energy()
        for _ in range(300):
            e_prev = energy()
            w.step(np.zeros(12), np.zeros(4, dtype=bool))
            assert abs(energy() - e_prev) / abs(e0) <= 1e-6

    def test_angular_momentum_conserved_in_flight(self):
        w = stand_world(z=1.0)
        w.state.omega = np.array([2.0, -1.0, 1.5])
        l0 = w.state.rot @ (w.model.inertia @ w.state.omega)
        for _ in range(1000):
            w.step(np.zeros(12), np.zeros(4, dtype=bool))
        l1 = w.state.rot @ (w.model.inertia @ w.state.omega)
        assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) <= 1e-6

    def test_torque_spins_body(self):
        # pure couple about z from two lateral forces
        w = stand_world()
        f = np.zeros(12)
        f[2::3] = w.model.mass * G / 4.0
        f[0 * 3 + 1] = 10.0   # FR pushes +y at x=+0.3
        f[2 * 3 + 1] = -10.0  # BR pushes -y at x=-0.3
        for _ in range(100):
            w.step(f, np.ones(4, dtype=bool))
        assert w.state.omega[2] > 0.0

    def test_swing_force_rejected(self):
        w = stand_world()
        f = hover_forces()
        with pytest.raises(ValueError):
            w.step(f, np.array([True, True, True, False]))

    def test_determinism(self):
        runs = []
        for _ in range(2):
            w = stand_world(seed=42, noise=SensorNoise(gyro_std=0.01, accel_std=0.05))
            log = []
            for _ in range(100):
                w.step(hover_forces(), np.ones(4, dtype=bool))
                imu = w.synth_imu()
                log.append(np.concatenate([w.state.pos, imu.gyro, imu.accel]))
            runs.append(np.array(log))
        assert np.array_equal(runs[0], runs[1])


class TestFeet:
    def test_stance_feet_pinned(self):
        w = stand_world()
        feet0 = w.state.feet.copy()
        for _ in range(100):
            w.step(hover_forces(), np.ones(4, dtype=bool))
        assert_allclose(w.state.feet, feet0, atol=1e-12)

    def test_swing_follows_target(self):
        w = stand_world()
        f = hover_forces()
        f[0:3] = 0.0
        target = FEET[0] + [0.05, 0.0, 0.04]
        w.step(f, np.array([False, True, True, True]), {0: target})
        assert_allclose(w.state.feet[0], target, atol=1e-12)

    def test_touchdown_clamps_and_spikes(self):
        w = stand_world()
        f = hover_forces()
        f[0:3] = 0.0
        below = FEET[0] + [0.0, 0.0, -0.02]
        w.step(f, np.array([False, True, True, True]), {0: below})
        assert w.touched_down[0]
        assert w.state.feet[0][2] == 0.0
        assert w.contact_forces[2] >= 20.0


class TestSensors:
    def test_stationary_accel_reads_gravity(self):
        w = stand_world()
        w.step(hover_forces(), np.ones(4, dtype=bool))
        imu = w.synth_imu()
        assert_allclose(imu.accel, [0.0, 0.0, G], atol=1e-9)
        assert_allclose(imu.gyro, np.zeros(3), atol=1e-12)

    def test_free_fall_weightless(self):
        w = stand_world(z=2.0)
        w.step(np.zeros(12), np.zeros(4, dtype=bool))
        imu = w.synth_imu()
        assert_allclose(imu.accel, np.zeros(3), atol=1e-12)

    def test_tilted_accel_direction(self):
        w = stand_world()
        w.state.rot = so3.rot_y(np.deg2rad(15.0))
        w.step(hover_forces(), np.ones(4, dtype=bool))
        # small transient from the torque the hover forces now exert
        imu = w.synth_imu()
        expected = w.state.rot.T @ np.array([0.0, 0.0, G])
        assert np.linalg.norm(imu.accel - expected) <= 0.2

    def test_encoders_roundtrip(self):
        w = stand_world()
        qs, _ = w.synth_encoders()
        for i, q in enumerate(qs):
            p_body = leg_fk(q, i, w.leg_model)
            expected = w.state.rot.T @ (w.state.feet[i] - w.state.pos)
            assert_allclose(p_body, expected, atol=1e-9)

    def test_encoder_velocity_finite_difference(self):
        w = stand_world()
        w.synth_encoders()
        w.state.pos[2] -= 0.001  # body drops 1 mm in one step
        _, qds = w.synth_encoders()
        assert any(np.max(np.abs(qd)) > 0.0 for qd in qds)

    def test_unreachable_raises(self):
        w = stand_world()
        w.state.pos[2] = 0.69  # beyond l1 + l2 = 0.68
        with pytest.raises(UnreachableError):
            w.synth_encoders()

    def test_noise_statistics(self):
        w = stand_world(noise=SensorNoise(accel_std=0.05), seed=3)
        samples = []
        for _ in range(2000):
            w.step(hover_forces(), np.ones(4, dtype=bool))
            samples.append(w.synth_imu().accel - [0.0, 0.0, G])
        std = np.array(samples).std(axis=0)
        assert_allclose(std, [0.05] * 3, rtol=0.1)
