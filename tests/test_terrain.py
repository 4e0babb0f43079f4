from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import so3
from quadstack.terrain import PlaneCoeffs, SlopeTooSteepError, fit_plane, posture_from_plane

FEET_XY = np.array([[0.3, -0.2], [0.3, 0.2], [-0.3, -0.2], [-0.3, 0.2]])


class TestFitPlane:
    def test_constant_height(self):
        a = fit_plane(FEET_XY, np.full(4, 0.1))
        assert_allclose([a.a0, a.a1, a.a2], [0.1, 0.0, 0.0], atol=1e-12)

    def test_linear_in_x(self):
        z = 0.2 * FEET_XY[:, 0]
        a = fit_plane(FEET_XY, z)
        assert_allclose([a.a0, a.a1, a.a2], [0.0, 0.2, 0.0], atol=1e-12)

    def test_collinear_min_norm(self):
        # feet on the x-axis: a2 unobservable, pinv picks the zero component
        xy = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]])
        z = 0.1 * xy[:, 0]
        a = fit_plane(xy, z)
        assert abs(a.a2) <= 1e-12
        resid = z - np.array([a.height(x, y) for x, y in xy])
        assert np.max(np.abs(resid)) <= 1e-12

    def test_residual_is_minimal(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=4) * 0.05
        a = fit_plane(FEET_XY, z)
        w = np.column_stack([np.ones(4), FEET_XY[:, 0], FEET_XY[:, 1]])
        best = np.linalg.norm(w @ np.array(astuple(a)) - z)
        for k in range(3):
            for delta in (-1e-3, 1e-3):
                coeffs = np.array(astuple(a))
                coeffs[k] += delta
                assert np.linalg.norm(w @ coeffs - z) >= best - 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=4) * 0.1
        a = fit_plane(FEET_XY, z)
        shift = np.array([1.7, -0.4])
        b = fit_plane(FEET_XY + shift, z)
        # slopes unchanged; a0 absorbs the shift
        assert_allclose([b.a1, b.a2], [a.a1, a.a2], atol=1e-10)
        assert_allclose(b.a0, a.a0 - a.a1 * shift[0] - a.a2 * shift[1], atol=1e-10)

    def test_noise_recovery_within_ls_covariance(self):
        # slope errors consistent with the analytic LS covariance: the
        # 3-sigma band holds at the Gaussian rate and the empirical spread
        # matches the predicted one
        rng = np.random.default_rng(42)
        sigma = 0.005
        w = np.column_stack([np.ones(4), FEET_XY[:, 0], FEET_XY[:, 1]])
        cov = sigma**2 * np.linalg.inv(w.T @ w)
        bounds = 3.0 * np.sqrt(np.diag(cov))
        errors = []
        for _ in range(300):
            truth = rng.uniform([-0.1, -0.3, -0.3], [0.1, 0.3, 0.3])
            z = w @ truth + rng.normal(size=4) * sigma
            errors.append(np.array(astuple(fit_plane(FEET_XY, z))) - truth)
        errors = np.array(errors)
        within = np.abs(errors) <= bounds
        assert within.mean() >= 0.97  # Gaussian expectation 0.9973
        assert_allclose(errors.std(axis=0), np.sqrt(np.diag(cov)), rtol=0.25)


class TestPosture:
    def test_flat_ground(self):
        assert_allclose(posture_from_plane(PlaneCoeffs()), np.eye(3), atol=1e-12)

    def test_uphill_pitch(self):
        slope = np.tan(np.deg2rad(10.0))
        r = posture_from_plane(PlaneCoeffs(0.0, slope, 0.0))
        rpy = so3.matrix_to_rpy(r)
        assert_allclose(np.rad2deg(rpy[1]), -10.0, atol=1e-9)
        assert abs(rpy[0]) <= 1e-9

    def test_body_z_along_normal(self):
        a = PlaneCoeffs(0.1, 0.3, -0.2)
        r = posture_from_plane(a)
        assert_allclose(r @ [0.0, 0.0, 1.0], a.normal(), atol=1e-12)

    def test_tilt_axis_is_horizontal(self):
        # the minimal tilt turns about a horizontal axis: no yaw is added
        r = posture_from_plane(PlaneCoeffs(0.0, 0.2, 0.1))
        axis = so3.log_map(r)
        assert abs(axis[2]) <= 1e-12 and np.linalg.norm(axis) > 0.1

    def test_steep_slope_rejected(self):
        with pytest.raises(SlopeTooSteepError):
            posture_from_plane(PlaneCoeffs(0.0, 50.0, 0.0))

