import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from quadstack import gait

TROT = gait.gait_preset("trot", period=0.4)

NOMINAL_FEET = np.array([[0.3, -0.128], [0.3, 0.128], [-0.3, -0.128], [-0.3, 0.128]])
# ring neighbours of each leg, clockwise and counterclockwise viewed from above
RING_PREV = {0: 2, 1: 0, 2: 3, 3: 1}
RING_NEXT = {0: 1, 1: 3, 2: 0, 3: 2}


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert_array_equal(actual, expected)
    assert_array_equal(np.signbit(actual), np.signbit(expected))  # tells -0.0 from 0.0


def polygon_per_vertex(feet_xy, weights):
    """support_polygon as the numpy composition virtual_points -> polygon_vertex."""
    verts = np.zeros((4, 2))
    for i in range(4):
        i_prev, i_next = RING_PREV[i], RING_NEXT[i]
        xi_m, xi_p = gait.virtual_points(feet_xy[i], feet_xy[i_prev], feet_xy[i_next], weights[i])
        verts[i] = gait.polygon_vertex(feet_xy[i], xi_m, xi_p,
                                       weights[i], weights[i_prev], weights[i_next])
    return verts


def footstep_numpy(p_hip, t_stance, v_des, v, z0):
    """footstep's formula on 2-vectors."""
    p_hip, v_des, v = (np.asarray(x, dtype=float) for x in (p_hip, v_des, v))
    return p_hip + 0.5 * t_stance * v_des + np.sqrt(z0 / 9.81) * (v - v_des)


class TestSubphase:
    def test_trot_start(self):
        in_contact, phi = gait.subphase(0.0, TROT, leg=0)
        assert in_contact and phi == 0.0

    def test_quarter_period(self):
        in_contact, phi = gait.subphase(0.1, TROT, leg=0)
        assert in_contact
        assert_allclose(phi, 0.5)

    def test_offset_leg_starts_in_swing(self):
        in_contact, phi = gait.subphase(0.0, TROT, leg=1)
        assert not in_contact and phi == 0.0

    def test_piecewise_linear(self):
        ts = np.linspace(0.0, 0.199, 100)
        phis = [gait.subphase(t, TROT, 0)[1] for t in ts]
        assert_allclose(np.diff(phis), np.diff(phis)[0], atol=1e-9)


class TestPhaseGains:
    def test_contact_mid(self):
        assert_allclose(gait.phase_gain_contact(0.5), 0.9999994, atol=1e-6)

    def test_contact_edge(self):
        assert_allclose(gait.phase_gain_contact(0.0), 0.5, atol=1e-9)

    def test_contact_symmetry(self):
        for phi in (0.1, 0.3, 0.45):
            assert_allclose(gait.phase_gain_contact(phi),
                            gait.phase_gain_contact(1.0 - phi), atol=1e-12)

    def test_swing_edge(self):
        assert_allclose(gait.phase_gain_swing(0.0), 0.5, atol=1e-9)

    def test_swing_mid_near_zero(self):
        assert gait.phase_gain_swing(0.5) < 1e-5

    def test_swing_symmetry(self):
        for phi in (0.2, 0.35):
            assert_allclose(gait.phase_gain_swing(phi),
                            gait.phase_gain_swing(1.0 - phi), atol=1e-12)

    def test_transition_continuity(self):
        # end of contact vs start of swing differ by ~erf tail only
        assert abs(gait.total_weight(True, 1.0) - gait.total_weight(False, 0.0)) <= 1e-3

    @given(st.floats(0.0, 1.0), st.floats(0.02, 1.0), st.booleans())
    def test_weight_in_unit_interval(self, phi, sigma, contact):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gait, "_SIGMA", sigma)
            w = gait.total_weight(contact, phi)
        assert -1e-12 <= w <= 1.0 + 1e-12


class TestPolygon:
    def test_virtual_points_extremes(self):
        p = np.array([1.0, 0.0])
        prev, nxt = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        xm, xp = gait.virtual_points(p, prev, nxt, 1.0)
        assert_allclose(xm, p)
        assert_allclose(xp, p)
        xm, xp = gait.virtual_points(p, prev, nxt, 0.0)
        assert_allclose(xm, prev)
        assert_allclose(xp, nxt)
        xm, _ = gait.virtual_points(p, prev, nxt, 0.5)
        assert_allclose(xm, [0.5, 0.0])

    def test_vertex_all_weights_one(self):
        verts = gait.support_polygon(NOMINAL_FEET, np.ones(4))
        assert_allclose(verts, NOMINAL_FEET, atol=1e-12)

    def test_vertex_midpoint_case(self):
        p = np.array([1.0, 0.0])
        xm, xp = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        v = gait.polygon_vertex(p, xm, xp, 0.0, 1.0, 1.0)
        assert_allclose(v, [1.0, 0.0])

    def test_vertex_degenerate_raises(self):
        with pytest.raises(gait.DegenerateWeightsError):
            gait.polygon_vertex(np.zeros(2), np.zeros(2), np.zeros(2), 0.0, 0.0, 0.0)

    def test_vertices_inside_hull(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.uniform(0.01, 1.0, size=4)
            verts = gait.support_polygon(NOMINAL_FEET, w)
            lo, hi = NOMINAL_FEET.min(axis=0), NOMINAL_FEET.max(axis=0)
            assert np.all(verts >= lo - 1e-12) and np.all(verts <= hi + 1e-12)

    def test_desired_com_translation_equivariance(self):
        w = np.array([0.9, 0.3, 0.4, 0.8])
        d = np.array([0.7, -0.2])
        com0 = gait.desired_com(gait.support_polygon(NOMINAL_FEET, w))
        com1 = gait.desired_com(gait.support_polygon(NOMINAL_FEET + d, w))
        assert_allclose(com1, com0 + d, atol=1e-12)

    def test_trot_zero_velocity_com_at_centroid(self):
        # symmetric rectangle + diagonal-pair weights: the vertex set is
        # point-symmetric, so the mean sits at the centroid at every phase
        for t in np.linspace(0.0, TROT.period, 81):
            weights = np.array([
                gait.total_weight(*gait.subphase(t, TROT, leg)) for leg in range(4)
            ])
            com = gait.desired_com(gait.support_polygon(NOMINAL_FEET, weights))
            assert np.linalg.norm(com - NOMINAL_FEET.mean(axis=0)) <= 1e-9

    def test_com_continuity_across_switch(self):
        dt = 1e-3
        coms = []
        for t in np.arange(0.15, 0.25, dt):
            weights = np.array([
                gait.total_weight(*gait.subphase(t, TROT, leg)) for leg in range(4)
            ])
            coms.append(gait.desired_com(gait.support_polygon(NOMINAL_FEET, weights)))
        steps = np.linalg.norm(np.diff(np.array(coms), axis=0), axis=1)
        assert np.max(steps) <= 1e-3


class TestFloatArithmetic:
    """The per-tick helpers give the bits of the array formulas they replace."""

    coords = st.floats(-3.0, 3.0, allow_nan=False)
    weight = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-9), st.just(0.0))

    @given(st.lists(coords, min_size=8, max_size=8), st.lists(weight, min_size=4, max_size=4))
    def test_support_polygon_matches_per_vertex(self, xy, weights):
        feet_xy = np.array(xy).reshape(4, 2)
        try:
            expected = polygon_per_vertex(feet_xy, np.array(weights))
        except gait.DegenerateWeightsError:
            with pytest.raises(gait.DegenerateWeightsError):
                gait.support_polygon(feet_xy, weights)
            return
        assert_same_bits(gait.support_polygon(feet_xy, weights), expected)
        # nested (x, y, z) lists, as the trot driver passes them
        rows = [[x, y, 0.45] for x, y in feet_xy.tolist()]
        assert_same_bits(gait.support_polygon(rows, weights), expected)
        assert_same_bits(gait.desired_com(gait.support_polygon(rows, weights)),
                         np.mean(expected, axis=0))

    def test_gait_cycle_matches_per_vertex(self):
        rng = np.random.default_rng(4)
        for t in np.arange(0.0, 2.0 * TROT.period, 7e-3):
            feet_xy = NOMINAL_FEET + rng.normal(scale=0.05, size=(4, 2))
            weights = np.array([gait.total_weight(*gait.subphase(t, TROT, leg))
                                for leg in range(4)])
            expected = polygon_per_vertex(feet_xy, weights)
            verts = gait.support_polygon(feet_xy, weights.tolist())
            assert_same_bits(verts, expected)
            assert_same_bits(gait.desired_com(verts), np.mean(expected, axis=0))

    def test_degenerate_vertex_still_raises(self):
        # vertex 0 blends legs 0, 2 and 1, which are all (nearly) weightless
        weights = [0.0, 0.0, 1e-10, 1.0]
        with pytest.raises(gait.DegenerateWeightsError):
            polygon_per_vertex(NOMINAL_FEET, np.array(weights))
        with pytest.raises(gait.DegenerateWeightsError):
            gait.support_polygon(NOMINAL_FEET, weights)

    @given(st.lists(coords, min_size=6, max_size=6), st.floats(0.0, 0.5),
           st.floats(0.05, 1.0))
    def test_footstep_matches_vector_formula(self, xy, t_stance, z0):
        p_hip, v_des, v = xy[0:2], xy[2:4], xy[4:6]
        expected = footstep_numpy(p_hip, t_stance, v_des, v, z0)
        assert_same_bits(gait.footstep(p_hip, t_stance, v_des, v, z0), expected)
        assert_same_bits(gait.footstep(np.array(p_hip), t_stance, np.array(v_des),
                                       np.array(v), z0), expected)


class TestFootstep:
    def test_raibert_term(self):
        out = gait.footstep(np.zeros(2), 0.3, np.array([1.0, 0.0]), np.array([1.0, 0.0]), z0=0.45)
        assert_allclose(out, [0.15, 0.0], atol=1e-12)

    def test_capture_term_vanishes_on_track(self):
        v = np.array([0.4, -0.2])
        out = gait.footstep(np.array([0.1, 0.2]), 0.25, v, v, z0=0.3)
        assert_allclose(out, [0.1, 0.2] + 0.5 * 0.25 * v, atol=1e-12)

    def test_capture_term_magnitude(self):
        out = gait.footstep(np.zeros(2), 0.0, np.zeros(2), np.array([0.2, 0.0]), z0=0.3)
        assert_allclose(out, [np.sqrt(0.3 / 9.81) * 0.2, 0.0], atol=1e-6)
        assert_allclose(out[0], 0.0350, atol=2e-4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gait.footstep(np.zeros(2), 0.3, np.zeros(2), np.zeros(2), z0=-1.0)
