import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quadstack import so3

RNG = np.random.default_rng(7)


def random_rotation(rng, max_angle=np.pi - 0.05):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3.exp_exact(axis * rng.uniform(0.0, max_angle))


vec3 = st.tuples(*[st.floats(-3.0, 3.0) for _ in range(3)]).map(np.array)


class TestHatVee:
    def test_zero(self):
        assert_allclose(so3.hat(np.zeros(3)), np.zeros((3, 3)))
        assert_allclose(so3.vee(np.zeros((3, 3))), np.zeros(3))

    def test_cross_product_identity(self):
        assert_allclose(so3.hat([0.0, 0.0, 1.0]) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])

    def test_roundtrip(self):
        v = np.array([1.0, 2.0, 3.0])
        assert_allclose(so3.vee(so3.hat(v)), v)

    def test_vee_rejects_non_skew(self):
        m = so3.hat([1.0, 2.0, 3.0])
        m[0, 1] += 0.1  # ||M + M^T|| = sqrt(2)*0.1 > tol
        with pytest.raises(so3.NonSkewError):
            so3.vee(m)

    @given(vec3, vec3)
    def test_hat_is_cross(self, v, w):
        assert_allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-12)

    @given(vec3, vec3)
    def test_antisymmetry(self, v, w):
        assert_allclose(so3.hat(v) @ w, -(so3.hat(w) @ v), atol=1e-12)


class TestExp:
    def test_zero_is_identity(self):
        assert_allclose(so3.exp_taylor4(np.zeros(3)), np.eye(3))
        assert_allclose(so3.exp_exact(np.zeros(3)), np.eye(3))

    def test_quarter_turn_rotates_x_to_y(self):
        r = so3.exp_exact([0.0, 0.0, np.pi / 2.0])
        assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_half_turn_about_x(self):
        r = so3.exp_exact([np.pi, 0.0, 0.0])
        assert_allclose(r @ [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)

    def test_taylor4_error_at_quarter_turn(self):
        # Truncation is dominated by theta^5/5! ~ 0.08 at theta = pi/2.
        w = np.array([0.0, 0.0, np.pi / 2.0])
        err = np.linalg.norm(so3.exp_taylor4(w) - so3.exp_exact(w))
        assert 0.02 < err < 0.2

    def test_taylor4_error_small_angle(self):
        # truncation term theta^5/5! ~ 6e-10 at theta = 0.0374
        w = np.array([0.01, 0.02, 0.03])
        err = np.linalg.norm(so3.exp_taylor4(w) - so3.exp_exact(w))
        assert err <= np.linalg.norm(w) ** 5 / 60.0
        assert err <= 1e-9

    def test_taylor4_error_bound_on_grid(self):
        # |exp_taylor4 - exp_exact|_F <= theta^5/60 for theta <= 1
        for theta in np.linspace(0.05, 1.0, 20):
            for _ in range(5):
                axis = RNG.normal(size=3)
                axis /= np.linalg.norm(axis)
                w = axis * theta
                err = np.linalg.norm(so3.exp_taylor4(w) - so3.exp_exact(w))
                assert err <= theta**5 / 60.0

    def test_taylor4_orthogonality_defect_bound(self):
        # measured defect is ~theta^5/58 at theta = 1; assert the documented /55
        for theta in np.linspace(0.05, 1.0, 10):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            defect = so3.orthonormality_defect(so3.exp_taylor4(axis * theta))
            assert defect <= theta**5 / 55.0

    def test_exact_is_orthonormal(self):
        for _ in range(50):
            w = RNG.normal(size=3) * 2.0
            assert so3.orthonormality_defect(so3.exp_exact(w)) <= 1e-12


def exp_exact_entrywise(w):
    """The Rodrigues formula I + a hat(w) + b (w w^T - theta^2 I), written
    out entry by entry."""
    x, y, z = np.asarray(w, dtype=float).tolist()
    t2 = x * x + y * y + z * z
    theta = math.sqrt(t2)
    if theta < 1e-8:
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / t2
    return np.array([[1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
                     [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
                     [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)]])


def test_exp_exact_keeps_the_entrywise_bits():
    # the simulator's step reads the same entries from so3._rodrigues
    rng = np.random.default_rng(3)
    for case in range(2000):
        w = rng.normal(size=3) * 10.0 ** rng.uniform(-12, 0.5)
        want = exp_exact_entrywise(w)
        for given_as in (w, w.tolist(), tuple(w.tolist())):
            assert so3.exp_exact(given_as).tobytes() == want.tobytes(), case
        assert np.array(so3._rodrigues(*w.tolist())).tobytes() == want.ravel().tobytes()


def log_map_array_formula(r):
    """log_map off the half-turn as array operations: np.trace, the skew
    part as an array, np.sin, and the scale times the array."""
    r = np.asarray(r, dtype=float).reshape(3, 3)
    theta = float(np.arccos(min(1.0, max(-1.0, (float(np.trace(r)) - 1.0) / 2.0))))
    s = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < so3._EPS_ANGLE:
        return 0.5 * s * (1.0 + theta * theta / 6.0)
    return (theta / (2.0 * np.sin(theta))) * s


class TestLog:
    def test_matches_the_array_formula_bit_for_bit(self):
        # off the half-turn log_map runs on floats; rotations of small,
        # medium and near-pi angles, and not exactly orthonormal matrices
        rng = np.random.default_rng(3)
        checked = 0
        for case in range(20_000):
            axis = rng.normal(size=3)
            angle = (1e-9, 1e-5, 0.3, 2.0, np.pi - 1e-3)[case % 5] * rng.random()
            r = so3.exp_exact(axis / np.linalg.norm(axis) * angle)
            if case % 3 == 0:
                r = r + rng.normal(size=(3, 3)) * 1e-9
            if np.trace(r) <= -1.0 + so3._NEAR_PI_TOL:
                continue
            want = log_map_array_formula(r)
            assert so3.log_map(r).tobytes() == want.tobytes(), case
            assert np.array(so3._log_rows(r.tolist())).tobytes() == want.tobytes(), case
            checked += 1
        assert checked >= 19_000
        assert so3._log_rows(so3.exp_exact([np.pi, 0.0, 0.0]).tolist()) is None

    def test_identity(self):
        assert_allclose(so3.log_map(np.eye(3)), np.zeros(3))

    def test_roundtrip_small(self):
        v = np.array([0.1, 0.2, 0.3])
        assert_allclose(so3.log_map(so3.exp_exact(v)), v, atol=1e-10)

    def test_roundtrip_grid(self):
        # log(exp(v)) = v to 1e-9 for angles up to pi - 0.01
        for theta in np.linspace(1e-3, np.pi - 0.01, 40):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = axis * theta
            assert_allclose(so3.log_map(so3.exp_exact(v)), v, atol=1e-9)

    def test_exp_of_log_reproduces_rotation(self):
        for _ in range(30):
            r = random_rotation(RNG, max_angle=np.pi - 1e-3)
            assert np.linalg.norm(so3.exp_exact(so3.log_map(r)) - r) <= 1e-9

    def test_inverse_symmetry(self):
        for _ in range(20):
            r = random_rotation(RNG)
            assert_allclose(so3.log_map(r.T), -so3.log_map(r), atol=1e-9)

    def test_near_pi_flagged_and_valid(self):
        r = so3.exp_exact([np.pi - 1e-9, 0.0, 0.0])
        with pytest.warns(so3.NearPiWarning):
            v = so3.log_map(r)
        assert np.linalg.norm(so3.exp_exact(v) - r) <= 1e-6

    def test_exact_pi_axes(self):
        for axis in np.eye(3):
            r = so3.exp_exact(np.pi * axis)
            with pytest.warns(so3.NearPiWarning):
                v = so3.log_map(r)
            assert np.linalg.norm(so3.exp_exact(v) - r) <= 1e-9


class TestRotationError:
    def test_zero_at_equality(self):
        r = random_rotation(RNG)
        assert_allclose(so3.rotation_error(r, r), np.zeros(3), atol=1e-12)

    def test_constructed_offset(self):
        r_ref = random_rotation(RNG)
        r = r_ref @ so3.exp_exact([0.0, 0.0, 0.2])
        assert_allclose(so3.rotation_error(r_ref, r), [0.0, 0.0, 0.2], atol=1e-10)

    def test_left_invariance(self):
        for _ in range(10):
            q = random_rotation(RNG)
            r_ref = random_rotation(RNG, max_angle=1.5)
            r = r_ref @ so3.exp_exact(RNG.normal(size=3) * 0.3)
            assert_allclose(
                so3.rotation_error(q @ r_ref, q @ r),
                so3.rotation_error(r_ref, r),
                atol=1e-9,
            )


class TestInterp:
    def test_endpoints(self):
        r0 = random_rotation(RNG)
        rg = random_rotation(RNG)
        assert_allclose(so3.interp_rotation(r0, rg, 0.0), r0)
        assert_allclose(so3.interp_rotation(r0, rg, 1.0), rg)

    def test_yaw_midpoint(self):
        rg = so3.rot_z(np.pi / 2.0)
        mid = so3.interp_rotation(np.eye(3), rg, 0.5)
        assert_allclose(mid, so3.rot_z(np.pi / 4.0), atol=1e-12)

    def test_monotone_angle(self):
        r0 = np.eye(3)
        rg = so3.exp_exact([0.5, -0.8, 0.3])
        angles = [
            np.linalg.norm(so3.log_map(so3.interp_rotation(r0, rg, s)))
            for s in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(angles, angles[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            so3.interp_rotation(np.eye(3), np.eye(3), 1.5)


class TestRpy:
    def test_roundtrip(self):
        for _ in range(20):
            rpy = RNG.uniform([-np.pi, -np.pi / 2 + 0.01, -np.pi], [np.pi, np.pi / 2 - 0.01, np.pi])
            assert_allclose(so3.matrix_to_rpy(so3.rpy_to_matrix(rpy)), rpy, atol=1e-9)

    def test_project_returns_rotation(self):
        m = np.eye(3) + RNG.normal(size=(3, 3)) * 0.05
        r = so3.project_so3(m)
        assert so3.orthonormality_defect(r) <= 1e-12
        assert np.linalg.det(r) > 0
