import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import gait, scenarios, so3
from quadstack.balance import GRAVITY_W, BodyModel, FrictionSpec
from quadstack.estimation import ImuSample, kf_default_state, kf_predict, orientation_step
from quadstack.sim import BreachError, SensorNoise, SimWorld
from quadstack.state import RobotState
from quadstack.swing import SwingTrajectory, UnreachableError, leg_fk
from quadstack.terrain import PlaneCoeffs

FEET = np.array([[0.3, -0.128, 0.0], [0.3, 0.128, 0.0],
                 [-0.3, -0.128, 0.0], [-0.3, 0.128, 0.0]])
G = 9.81


def stand_world(noise=None, dt=1e-3, z=0.45):
    state = RobotState(pos=[0.0, 0.0, z], feet=FEET)
    return SimWorld(state, BodyModel(), dt=dt, noise=noise)


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
        # high enough that the 1 s fall stays above the ground
        w = stand_world(z=6.0)
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
            w = stand_world(noise=SensorNoise(gyro_std=0.01, accel_std=0.05, seed=42))
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
        # the force channel holds the commanded force: +0.0 on the landing leg
        w = stand_world()
        f = hover_forces()
        f[0:3] = 0.0
        swing = np.array([False, True, True, True])
        w.step(f, swing, {0: FEET[0] + [0.0, 0.0, 0.03]})
        assert not w.touched_down.any()
        w.step(f, swing, {0: FEET[0] + [0.0, 0.0, -0.02]})
        assert w.touched_down.tolist() == [True, False, False, False]
        assert w.state.feet[0][2] == 0.0
        assert w.contact_forces[0:3].tobytes() == np.zeros(3).tobytes()


class TestSupportCheck:
    def test_nominal_stand_passes(self):
        w = stand_world()
        for _ in range(100):
            w.step(hover_forces(), np.ones(4, dtype=bool))

    def test_stance_foot_beyond_reach_raises(self):
        # 0.75 m under its hip, each foot is out of the 0.68 m reach: a foot
        # the step holds in stance raises, a swing foot does not
        w = stand_world(z=0.75)
        w.step(np.zeros(12), np.zeros(4, dtype=bool))
        with pytest.raises(BreachError, match=r"stance foot of leg 2 is 0\.750 m from its hip "
                                              r"at t = 0\.002 s, beyond the leg's reach of 0\.68 m"):
            w.step(np.zeros(12), np.array([False, False, True, True]))
        # the step stored its state and advanced the clock before it raised
        assert w.t == 0.002
        assert_allclose(w.state.pos[2], 0.75 - 0.5 * G * 0.002**2, atol=1e-12)

    def test_reach_is_measured_from_the_rotated_hip(self):
        # 0.67 m under the hips every foot is in reach; rolled by 0.1 rad,
        # the body lifts its left hips (legs 1 and 3) by 0.128 sin(0.1) m,
        # 0.683 m from their feet
        w = stand_world(z=0.67)
        w.step(np.zeros(12), np.ones(4, dtype=bool))
        w.state.rot = so3.rot_x(0.1)
        w.step(np.zeros(12), np.array([True, False, True, False]))
        with pytest.raises(BreachError, match=r"leg 1 is 0\.683 m"):
            w.step(np.zeros(12), np.ones(4, dtype=bool))

    def test_com_below_the_ground_raises(self):
        # a world that starts under the ground raises on its first step
        w = SimWorld(RobotState(pos=[0.0, 0.0, 0.1], feet=FEET), BodyModel(),
                     ground=PlaneCoeffs(0.2, 0.0, 0.0))
        with pytest.raises(BreachError, match=r"body CoM 0\.1 m below the ground at t = 0\.001 s"):
            w.step(np.zeros(12), np.zeros(4, dtype=bool))


SLOPE = PlaneCoeffs(0.02, 0.17, -0.05)


def touchdown_flags(*swings, ground=SLOPE):
    """Leg 0's touched_down flags over each swing, whose targets lie the
    given heights above the ground at one point, and the stance step after it."""
    w = SimWorld(RobotState(pos=[0.0, 0.0, 0.45], feet=FEET), BodyModel(), ground=ground)
    f = hover_forces()
    f[0:3] = 0.0
    x, y = 0.31, -0.128
    ground_z = ground.height(x, y)
    flags = []
    for heights in swings:
        for dz in heights:
            w.step(f, np.array([False, True, True, True]), {0: (x, y, ground_z + dz)})
            assert w.state.feet[0][2] == max(ground_z + dz, ground_z)  # clamped
            flags.append(bool(w.touched_down[0]))
        w.step(hover_forces(), np.ones(4, dtype=bool))
        flags.append(bool(w.touched_down[0]))
    return flags


class TestTouchdown:
    def test_swing_starting_below_the_ground_reports_nothing(self):
        # an estimated foot below the ground starts the swing there
        assert touchdown_flags([-0.004, -0.001, 0.0]) == [False] * 4
        assert touchdown_flags([-0.004, 0.03, 0.01, 0.0]) == [False] * 3 + [True, False]

    def test_swing_ending_on_the_ground_reports_once(self):
        assert touchdown_flags([0.03, 0.01, 0.0, 0.0]) == [False, False, True, False, False]
        assert touchdown_flags([0.03, 0.0], ground=PlaneCoeffs()) == [False, True, False]

    def test_swing_ending_one_ulp_above_reports_at_the_stance_switch(self):
        ulp = np.spacing(SLOPE.height(0.31, -0.128))
        assert touchdown_flags([0.03, ulp]) == [False, False, True]

    def test_no_swing_reports_twice(self):
        # a foot that touches, rises and comes down again in one swing
        assert touchdown_flags([0.03, 0.0, 0.02, -0.01, 0.01]) == [False, True] + [False] * 4
        # and each later swing reports its own touchdown
        assert touchdown_flags(*[[0.03, 0.0, 0.02, 0.0]] * 3) == [False, True, False, False, False] * 3


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
            p_body = leg_fk(q, i)
            expected = w.state.rot.T @ (w.state.feet[i] - w.state.pos)
            assert_allclose(p_body, expected, atol=1e-9)

    def test_encoder_velocity_finite_difference(self):
        w = stand_world()
        w.synth_encoders()
        w.state.pos[2] -= 0.001  # body drops 1 mm in one step
        w.step(hover_forces(), np.ones(4, dtype=bool))
        _, qds = w.synth_encoders()
        assert any(np.max(np.abs(qd)) > 0.0 for qd in qds)

    def test_two_reads_in_one_tick_agree(self):
        # the rates difference against the previous tick's sample, not
        # against the previous read
        w = stand_world()
        w.synth_encoders()
        w.state.vel = np.array([0.3, 0.0, 0.0])
        w.step(hover_forces(), np.ones(4, dtype=bool))
        first, second = w.synth_encoders(), w.synth_encoders()
        assert np.max(np.abs(first[1])) > 0.5
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_unreachable_raises(self):
        w = stand_world()
        w.state.pos[2] = 0.69  # beyond l1 + l2 = 0.68
        with pytest.raises(UnreachableError):
            w.synth_encoders()

    def test_noise_statistics(self):
        w = stand_world(noise=SensorNoise(accel_std=0.05, seed=3))
        samples = []
        for _ in range(2000):
            w.step(hover_forces(), np.ones(4, dtype=bool))
            samples.append(w.synth_imu().accel - [0.0, 0.0, G])
        std = np.array(samples).std(axis=0)
        assert_allclose(std, [0.05] * 3, rtol=0.1)


    @pytest.mark.parametrize("std", [{"accel_std": -0.05}, {"gyro_std": -0.01},
                                     {"gyro_std": np.nan}, {"accel_std": np.inf}])
    def test_negative_or_non_finite_std_is_rejected(self, std):
        # synth_imu adds noise only for a positive std, so a negative one
        # would give a noise-free sensor
        with pytest.raises(ValueError, match=next(iter(std))):
            SensorNoise(**std)


# constructors and steps of the physics, each given a value that is NaN or
# not positive
BAD_PHYSICS = {
    "friction-mu-nan": lambda: FrictionSpec(mu=np.nan),
    "friction-f_max-nan": lambda: FrictionSpec(f_max=np.nan),
    "body-mass-negative": lambda: BodyModel(mass=-1.0),
    "body-mass-nan": lambda: BodyModel(mass=np.nan),
    "body-inertia-inf": lambda: BodyModel(inertia=np.diag([0.35, np.inf, 2.1])),
    "sim-dt-nan": lambda: SimWorld(RobotState(pos=[0.0, 0.0, 0.45], feet=FEET), BodyModel(),
                                   dt=np.nan),
    "gait-period-nan": lambda: gait.gait_preset("trot", period=np.nan),
    "swing-duration-nan": lambda: SwingTrajectory(FEET[0], FEET[0] + [0.1, 0.0, 0.0], np.nan),
    "orientation-dt-nan": lambda: orientation_step(
        np.eye(3), ImuSample(gyro=np.zeros(3), accel=[0.0, 0.0, G]), np.nan),
    "kf-dt-nan": lambda: kf_predict(kf_default_state(np.zeros(3), FEET), np.eye(3),
                                    np.array([0.0, 0.0, G]), np.nan, (True,) * 4),
}


@pytest.mark.parametrize("make", BAD_PHYSICS.values(), ids=BAD_PHYSICS.keys())
def test_nan_or_non_positive_physics_is_rejected(make):
    # each guard is written so that NaN fails it
    with pytest.raises(ValueError):
        make()


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stance_force_raises_before_the_state_moves(self, bad):
        w = stand_world()
        f = hover_forces()
        f[4] = bad
        before = world_bits(w)
        with pytest.raises(ValueError, match="non-finite stance force"):
            w.step(f, np.ones(4, dtype=bool))
        assert world_bits(w) == before

    def test_nan_force_on_a_swing_leg_is_named_non_finite(self):
        w = stand_world()
        f = hover_forces()
        f[0:3] = [0.0, np.nan, 0.0]
        with pytest.raises(ValueError, match="non-finite stance force"):
            w.step(f, np.array([False, True, True, True]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_swing_target_raises_before_the_state_moves(self, bad):
        w = stand_world()
        f = hover_forces()
        f[3:6] = 0.0
        target = FEET[1] + [0.05, 0.0, 0.04]
        target[2] = bad
        before = world_bits(w)
        with pytest.raises(ValueError, match="non-finite target commanded for swing leg 1"):
            w.step(f, np.array([True, False, True, True]), {1: target})
        assert world_bits(w) == before

    def test_diverged_state_raises_before_it_is_stored(self):
        # 1e9 N on every axis of every foot spins the body up until the
        # rate is NaN in the third step, which raises instead of storing it;
        # the two steps before store a body thrown beyond its legs' reach
        w = stand_world()
        f = np.full(12, 1e9)
        for _ in range(2):
            with pytest.raises(BreachError):
                w.step(f, np.ones(4, dtype=bool))
        assert np.all(np.isfinite(w.state.omega))
        before = world_bits(w)
        with pytest.raises(ValueError, match=r"diverged in the step to t = 0\.0030 s"):
            w.step(f, np.ones(4, dtype=bool))
        assert world_bits(w) == before

    def test_overflowing_rate_raises_before_the_rotation_update(self):
        # the rate overflows within the step; its rotation update used to
        # end in "math domain error" from the Rodrigues formula's sin(inf)
        w = SimWorld(RobotState(pos=[0.0, 0.0, 0.45], feet=FEET, omega=[1e36, 1.0, 0.0]),
                     BodyModel())
        before = world_bits(w)
        with pytest.raises(ValueError, match=r"diverged in the step to t = 0\.0010 s"):
            w.step(hover_forces(), np.ones(4, dtype=bool))
        assert world_bits(w) == before


# -- the step against its array formula ---------------------------------------


def _mv(m, v):
    x, y, z = v
    return (m[0][0] * x + m[0][1] * y + m[0][2] * z,
            m[1][0] * x + m[1][1] * y + m[1][2] * z,
            m[2][0] * x + m[2][1] * y + m[2][2] * z)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def step_reference(world, stance_forces, stance_mask, swing_targets=None):
    """SimWorld.step as its array formula: the mask and forces through
    numpy, the body constants read per call, both rotations from
    so3.exp_exact, the force channel from np.where, the swing feet written
    as arrays and their ground heights from numpy scalars, and the touchdown
    rule as one phase per leg."""
    stance_mask = np.asarray(stance_mask, dtype=bool).reshape(4)
    stance = stance_mask.tolist()
    f4 = np.asarray(stance_forces, dtype=float).reshape(4, 3)
    s, model, dt = world.state, world.model, world.dt
    fx = fy = fz = tx = ty = tz = 0.0
    for f, lever in zip(f4.tolist(), (s.feet - s.pos).tolist()):
        fx, fy, fz = fx + f[0], fy + f[1], fz + f[2]
        cx, cy, cz = _cross(lever, f)
        tx, ty, tz = tx + cx, ty + cy, tz + cz
    mass = model.mass
    gx, gy, gz = GRAVITY_W.tolist()
    acc = (fx / mass + gx, fy / mass + gy, fz / mass + gz)
    inertia, inv_inertia = model.inertia.tolist(), np.linalg.inv(model.inertia).tolist()

    def omega_dot(tau_b, om):
        cx, cy, cz = _cross(om, _mv(inertia, om))
        return _mv(inv_inertia, (tau_b[0] - cx, tau_b[1] - cy, tau_b[2] - cz))

    def ahead(h, k):
        return (om0[0] + h * k[0], om0[1] + h * k[1], om0[2] + h * k[2])

    om0 = s.omega.tolist()
    e_half_t = so3.exp_exact(s.omega * (dt / 2.0)).T.tolist()
    tau_0 = _mv(s.rot.T.tolist(), (tx, ty, tz))
    tau_half = _mv(e_half_t, tau_0)
    k1 = omega_dot(tau_0, om0)
    k2 = omega_dot(tau_half, ahead(0.5 * dt, k1))
    k3 = omega_dot(tau_half, ahead(0.5 * dt, k2))
    k4 = omega_dot(_mv(e_half_t, tau_half), ahead(dt, k3))
    new_pos = [p + dt * v + 0.5 * dt * dt * a
               for p, v, a in zip(s.pos.tolist(), s.vel.tolist(), acc)]
    new_vel = [v + dt * a for v, a in zip(s.vel.tolist(), acc)]
    new_omega = [o + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for o, a, b, c, d in zip(om0, k1, k2, k3, k4)]
    new_rot = s.rot @ so3.exp_exact([0.5 * (o + n) * dt for o, n in zip(om0, new_omega)])
    s.pos, s.vel, s.omega = np.array(new_pos), np.array(new_vel), np.array(new_omega)
    s.rot = new_rot
    world.last_accel = np.array(acc)

    sensor = np.where(stance_mask[:, None], f4, 0.0).reshape(12)
    # per leg: "ground" until a target of the swing rises above the ground,
    # "air" until the swing touches down, then "landed" until stance
    phase = ["air" if a else "landed" if d else "ground"
             for a, d in zip(world.airborne, world.landed)]
    world.touched_down = np.zeros(4, dtype=bool)
    for i in range(4):
        if stance[i]:
            world.touched_down[i] = phase[i] == "air"
            phase[i] = "ground"
            continue
        target = None if swing_targets is None else swing_targets.get(i)
        if target is not None:
            s.feet[i] = np.asarray(target, dtype=float).reshape(3)
            ground_z = world.ground.height(s.feet[i, 0], s.feet[i, 1])
            if s.feet[i, 2] > ground_z:
                if phase[i] == "ground":
                    phase[i] = "air"
            else:
                s.feet[i, 2] = ground_z
                if phase[i] == "air":
                    world.touched_down[i] = True
                    phase[i] = "landed"
    world.airborne = [p == "air" for p in phase]
    world.landed = [p == "landed" for p in phase]
    world.contact_forces = sensor
    world.t += dt


def world_bits(world):
    s = world.state
    arrays = (s.pos, s.vel, s.rot, s.omega, s.feet, world.last_accel,
              world.contact_forces, world.touched_down)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
            + [world.t, list(world.airborne), list(world.landed)])


def assert_step_matches_reference(world, args, case):
    """Step a copy of ``world`` and compare its stored state with the array
    formula's, whether or not the step raised ``BreachError`` after storing
    it; the stepped copy and whether it raised."""
    got, want = copy.deepcopy(world), copy.deepcopy(world)
    try:
        got.step(*args)
        breached = False
    except BreachError:
        breached = True
    step_reference(want, *args)
    assert world_bits(got) == world_bits(want), case
    return got, breached


@pytest.fixture(scope="module")
def recorded_ticks():
    """The world before each step, and the step's arguments, of an MPC trot,
    a balance trot on estimates with the CLI's default sensor noise, and a
    hop from its takeoff on."""
    ticks = {}
    step = SimWorld.step

    def recording(name):
        def record(world, *args):
            ticks.setdefault(name, []).append((copy.deepcopy(world), copy.deepcopy(args)))
            return step(world, *args)
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimWorld, "step", recording("mpc"))
        scenarios.run_trot(noise=None, duration=0.6, v_des=(0.8, 0.1), controller="mpc")
        mp.setattr(SimWorld, "step", recording("estimates"))
        scenarios.run_trot(noise=scenarios.sensor_noise(0.05, 0.005, 0.2, seed=1),
                           duration=0.3, v_des=(0.9, 0.05))
        spec = scenarios.hop_spec(n_knots=4)
        ref = scenarios.reference_from_log(scenarios.run_jump_opt(spec).log)
        mp.setattr(scenarios, "_RECOVER_TIME", 0.3)
        mp.setattr(SimWorld, "step", recording("hop"))
        scenarios.run_jump_sim(spec, ref)
    ticks["hop"] = [tick for tick in ticks["hop"] if tick[0].t >= ref.phase_times[0]]
    return ticks


class TestStepBitForBit:
    @pytest.mark.parametrize("loop", ["mpc", "estimates", "hop"])
    def test_recorded_ticks_match_array_formula(self, recorded_ticks, loop):
        ticks = recorded_ticks[loop]
        touchdowns = 0
        for k, (world, args) in enumerate(ticks):
            got, breached = assert_step_matches_reference(world, args, (loop, k))
            assert not breached, (loop, k)
            touchdowns += got.touched_down.sum()
        targets = [args[2] for _, args in ticks if len(args) > 2 and args[2]]
        assert len(ticks) >= 300 and targets
        if loop == "hop":
            # the airborne tail holds the legs and lands on them
            assert touchdowns >= 4
        # every loop passes its swing targets as float tuples
        assert all(isinstance(x, tuple) for tg in targets for x in tg.values())

    def test_random_states_match_array_formula(self):
        rng = np.random.default_rng(12)
        touchdowns = signed_zero_swings = breaches = 0
        for case in range(400):
            a = rng.normal(size=(3, 3))
            model = BodyModel(mass=rng.uniform(20.0, 60.0), inertia=a @ a.T + np.eye(3))
            rate = rng.normal(size=3) * (1e-7 if case % 5 == 0 else 3.0)  # series branch too
            state = RobotState(pos=[0.0, 0.0, 0.45] + rng.normal(size=3) * 0.05,
                               vel=rng.normal(size=3), rot=so3.exp_exact(rng.normal(size=3)),
                               omega=rate, feet=FEET + rng.normal(size=(4, 3)) * 0.03)
            ground = PlaneCoeffs(*(rng.normal(size=3) * [0.01, 0.2, 0.2]))
            world = SimWorld(state, model, ground=ground)
            # each leg on the ground, in the air, or landed in its swing
            airborne = rng.random(4) < 0.6
            world.airborne = airborne.tolist()
            world.landed = (~airborne & (rng.random(4) < 0.5)).tolist()
            mask = rng.random(4) < 0.6
            forces = rng.normal(size=12) * 100.0
            swing_zero = -0.0 if case % 2 else 0.0
            forces[np.repeat(~mask, 3)] = swing_zero
            signed_zero_swings += bool(case % 2 and not mask.all())
            targets = {}
            for leg in np.flatnonzero(~mask):
                if case % 7 == leg:
                    continue  # a swing leg with no target
                x, y = state.feet[leg, 0:2] + rng.normal(size=2) * 0.02
                z = ground.height(x, y) + rng.normal() * 0.02  # below it: clamped
                kind = (case + leg) % 3
                target = (x, y, z) if kind == 0 else [x, y, z] if kind == 1 else np.array([x, y, z])
                targets[int(leg)] = target
            args = (forces, mask, None if case % 11 == 0 else targets)
            got, breached = assert_step_matches_reference(world, args, case)
            touchdowns += got.touched_down.sum()
            breaches += breached
            for leg in np.flatnonzero(~mask):
                # the force channel reads +0.0 on a swing leg, as np.where
                # gives, touchdown or not
                assert got.contact_forces[3 * leg:3 * leg + 3].tobytes() == np.zeros(3).tobytes()
        assert touchdowns >= 50 and signed_zero_swings >= 50
        # the random rotations throw many stance feet out of reach
        assert 50 <= breaches <= 350
