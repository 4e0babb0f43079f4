"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the same condition. Heavy trajectory solves
are shared through module fixtures.
"""

import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadstack import gait, so3
from quadstack.balance import BalanceGains, BodyModel, FrictionSpec, balance_qp, build_force_model
from quadstack.estimation import ImuSample, OrientationFilter, orientation_step
from quadstack.qpsolver import QpProblem, QpStatus, solve as qp_solve
from quadstack.scenarios import (hop_spec, nominal_feet, run_jump_opt, run_jump_sim,
                                 run_stand, run_trot, spin_spec,
                                 SPIN90_REFERENCE_TIMINGS_10MS)
from quadstack.swing import LegModel
from quadstack.terrain import fit_plane
from quadstack.trajopt import build_problem, check_constraints, solve_timing

G = 9.81
FEET = nominal_feet(LegModel())


def report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num}: {name} {detail}")
    return passed


@pytest.fixture(scope="module")
def hop_solution():
    spec = hop_spec(n_knots=30)
    t0 = time.perf_counter()
    sol = solve_timing(build_problem(spec))
    return spec, sol, time.perf_counter() - t0


class TestCriterion1:
    def test_orientation_filter_dedrift(self):
        dt = 0.01
        t0 = time.perf_counter()

        # stationary IMU, 10 degree initial pitch error
        f = OrientationFilter(r_hat=so3.rot_y(np.deg2rad(10.0)), kappa_ref=0.1)
        imu = ImuSample(gyro=np.zeros(3), accel=[0.0, 0.0, G])
        ts, errs = [], []
        for k in range(int(30.0 / dt)):
            f = orientation_step(f, imu, dt)
            if k % 10 == 0:
                ts.append((k + 1) * dt)
                errs.append(np.linalg.norm(so3.log_map(f.r_hat)))
        tau = -1.0 / np.polyfit(ts, np.log(errs), 1)[0]
        filter_final = errs[-1]

        # gyro-only baseline with a 0.01 rad/s pitch-rate bias
        g_only = OrientationFilter(kappa_ref=0.0)
        imu_bias = ImuSample(gyro=[0.0, 0.01, 0.0], accel=[0.0, 0.0, G])
        for _ in range(int(60.0 / dt)):
            g_only = orientation_step(g_only, imu_bias, dt)
        gyro_drift = np.linalg.norm(so3.log_map(g_only.r_hat))
        runtime = time.perf_counter() - t0

        ok = (8.0 <= tau <= 12.0) and gyro_drift >= 10.0 * filter_final and runtime < 1.0
        assert report(1, "orientation filter de-drift", ok,
                      f"(tau={tau:.2f}s, gyro drift {gyro_drift:.3f} rad vs "
                      f"filter {filter_final:.2e} rad, runtime {runtime:.2f}s)")


class TestCriterion2:
    def test_kf_dedrift_stand(self):
        res = run_stand(duration=10.0, accel_std=0.05, controller="hover")
        s = res.summary
        ok = (s["vel_rmse_mps"] <= 0.03 and s["pos_rmse_m"] <= 0.01
              and s["pred_only_vel_rmse_mps"] >= 5.0 * s["vel_rmse_mps"]
              and s["pred_only_pos_rmse_m"] >= 5.0 * s["pos_rmse_m"]
              and s["runtime_s"] < 5.0)
        assert report(2, "KF de-drift on stand", ok,
                      f"(vel rmse {s['vel_rmse_mps']:.4f}, pos rmse {s['pos_rmse_m']:.4f}, "
                      f"pred-only {s['pred_only_vel_rmse_mps']:.2f}/{s['pred_only_pos_rmse_m']:.2f}, "
                      f"runtime {s['runtime_s']:.1f}s)")


class TestCriterion3:
    def test_plane_fit(self):
        xy = FEET[:, 0:2]
        a = fit_plane(xy, 0.2 * xy[:, 0])
        exact = np.max(np.abs(a.as_array() - [0.0, 0.2, 0.0]))

        rng = np.random.default_rng(7)
        sigma = 0.005
        w = np.column_stack([np.ones(4), xy[:, 0], xy[:, 1]])
        cov = sigma**2 * np.linalg.inv(w.T @ w)
        bounds = 3.0 * np.sqrt(np.diag(cov))
        errors = []
        for _ in range(300):
            truth = rng.uniform([-0.1, -0.3, -0.3], [0.1, 0.3, 0.3])
            z = w @ truth + rng.normal(size=4) * sigma
            errors.append(fit_plane(xy, z).as_array() - truth)
        errors = np.array(errors)
        frac = float(np.mean(np.abs(errors) <= bounds))
        std_ratio = errors.std(axis=0) / np.sqrt(np.diag(cov))

        ok = exact <= 1e-12 and frac >= 0.97 and np.all(np.abs(std_ratio - 1.0) <= 0.25)
        assert report(3, "plane fit", ok,
                      f"(exact err {exact:.1e}, 3-sigma fraction {frac:.3f}, "
                      f"std ratio {std_ratio.round(2)})")


class TestCriterion4:
    @staticmethod
    def _brute_force_per_foot(h_blk, g_blk, mu, f_min, f_max):
        """Exhaustive active-set enumeration for one foot (6 constraints)."""
        rows = np.array([
            [1.0, 0.0, -mu], [-1.0, 0.0, -mu],
            [0.0, 1.0, -mu], [0.0, -1.0, -mu],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        ])
        rhs = np.array([0.0, 0.0, 0.0, 0.0, f_max, -f_min])
        best_x, best_f = None, np.inf
        for size in range(4):
            for subset in itertools.combinations(range(6), size):
                a = rows[list(subset)]
                k = a.shape[0]
                kkt = np.block([[h_blk, a.T], [a, np.zeros((k, k))]])
                b = np.concatenate([-g_blk, rhs[list(subset)]])
                sol, *_ = np.linalg.lstsq(kkt, b, rcond=None)
                if np.linalg.norm(kkt @ sol - b) > 1e-7:
                    continue
                x = sol[:3]
                if np.max(rows @ x - rhs) > 1e-8:
                    continue
                f = 0.5 * x @ h_blk @ x + g_blk @ x
                if f < best_f - 1e-12:
                    best_f, best_x = f, x
        return best_x, best_f

    def test_balance_qp(self):
        model = BodyModel()
        gains = BalanceGains(alpha=1e-9, beta=0.0)
        a, b_d = build_force_model([0.0, 0.0, 0.45], FEET, model,
                                   np.zeros(3), np.zeros(3))
        f = balance_qp(a, b_d, np.zeros(12), gains, FrictionSpec(), np.ones(4, dtype=bool))
        hover_err = np.max(np.abs(f[2::3] - model.mass * G / 4.0))
        hover_ok = hover_err <= 0.5 and abs(f[2::3].sum() * 4 / 4 - 441.45) < 2.0

        # random scenarios: pyramid respected, swing feet exactly zero
        rng = np.random.default_rng(3)
        friction = FrictionSpec(mu=0.6, f_min=0.0, f_max=300.0)
        constraint_ok = True
        for _ in range(40):
            mask = rng.uniform(size=4) < 0.75
            if not mask.any():
                mask[0] = True
            a_i, b_i = build_force_model([0.0, 0.0, 0.45], FEET + rng.normal(size=(4, 3)) * 0.04,
                                         model, rng.normal(size=3) * 2, rng.normal(size=3))
            fi = balance_qp(a_i, b_i, np.zeros(12), BalanceGains(), friction, mask, model=model)
            for leg in range(4):
                fx, fy, fz = fi[3 * leg:3 * leg + 3]
                if mask[leg]:
                    constraint_ok &= (abs(fx) <= 0.6 * fz + 1e-6 and abs(fy) <= 0.6 * fz + 1e-6
                                      and -1e-9 <= fz <= 300.0 + 1e-9)
                else:
                    constraint_ok &= (fx == 0.0 and fy == 0.0 and fz == 0.0)

        # 200 random 12-var QPs with per-foot friction pyramid + bounds vs
        # brute-force active-set enumeration (block-diagonal Hessians keep
        # the exhaustive enumeration sound per foot)
        mu, f_min, f_max = 0.7, 0.0, 200.0
        worst = 0.0
        for trial in range(200):
            rng_t = np.random.default_rng(1000 + trial)
            h_blocks, g_blocks = [], []
            for _ in range(4):
                m = rng_t.normal(size=(3, 3))
                h_blocks.append(m @ m.T + 0.5 * np.eye(3))
                g_blocks.append(rng_t.normal(size=3) * 60.0)
            h = np.zeros((12, 12))
            g = np.zeros(12)
            rows, rhs = [], []
            for i in range(4):
                h[3 * i:3 * i + 3, 3 * i:3 * i + 3] = h_blocks[i]
                g[3 * i:3 * i + 3] = g_blocks[i]
                for sgn in (1.0, -1.0):
                    for axis in (0, 1):
                        r = np.zeros(12)
                        r[3 * i + axis] = sgn
                        r[3 * i + 2] = -mu
                        rows.append(r)
                        rhs.append(0.0)
                r = np.zeros(12)
                r[3 * i + 2] = 1.0
                rows.append(r)
                rhs.append(f_max)
                r = np.zeros(12)
                r[3 * i + 2] = -1.0
                rows.append(r)
                rhs.append(-f_min)
            qp = QpProblem(h=h, g=g, c_ineq=np.array(rows), d_ineq=np.array(rhs))
            res = qp_solve(qp)
            assert res.status is QpStatus.OPTIMAL
            x_ref = np.concatenate([
                self._brute_force_per_foot(h_blocks[i], g_blocks[i], mu, f_min, f_max)[0]
                for i in range(4)
            ])
            worst = max(worst, float(np.max(np.abs(res.x - x_ref))))
        enum_ok = worst <= 1e-6

        ok = hover_ok and constraint_ok and enum_ok
        assert report(4, "balance QP", ok,
                      f"(hover Fz err {hover_err:.3f} N, enumeration match {worst:.2e})")


class TestCriterion5:
    def test_support_polygon(self):
        sched = gait.gait_preset("trot", period=0.4)
        params = gait.PhaseGainParams()
        feet_xy = FEET[:, 0:2]
        centroid = feet_xy.mean(axis=0)
        coms = []
        weights_ok = True
        for t in np.arange(0.0, sched.period + 1e-9, 1e-3):
            weights = []
            for leg in range(4):
                c, phi = gait.subphase(t, sched, leg)
                w = gait.total_weight(c, phi, params)
                weights_ok &= -1e-12 <= w <= 1.0 + 1e-12
                weights.append(w)
            verts = gait.support_polygon(feet_xy, np.array(weights))
            coms.append(gait.desired_com(verts))
        coms = np.array(coms)
        max_dev = float(np.max(np.linalg.norm(coms - centroid, axis=1)))
        max_step = float(np.max(np.linalg.norm(np.diff(coms, axis=0), axis=1)))
        ok = max_dev <= 0.01 and weights_ok and max_step <= 1e-3
        assert report(5, "support polygon", ok,
                      f"(centroid dev {max_dev:.2e} m, max step {max_step:.2e} m)")


class TestCriterion6:
    def test_closed_loop_trot(self):
        results = {}
        for ctrl in ("balance", "mpc"):
            res = run_trot(duration=5.0, v_des=(1.0, 0.0), controller=ctrl)
            results[ctrl] = res.summary
        ok = all(s["height_rms_m"] <= 0.02 and s["vel_rmse_mps"] <= 0.15
                 and s["runtime_s"] < 30.0 for s in results.values())
        detail = "; ".join(
            f"{c}: h={s['height_rms_m'] * 1000:.1f}mm v={s['vel_rmse_mps']:.3f} "
            f"rt={s['runtime_s']:.1f}s" for c, s in results.items())
        assert report(6, "closed-loop trot (balance and MPC)", ok, f"({detail})")


@pytest.mark.slow
class TestCriterion7:
    def test_vertical_hop_physics(self, hop_solution):
        spec, sol, runtime = hop_solution
        n = spec.phases[0].n_knots
        t_f = float(sol.durations[1])
        h = t_f / n
        ts = np.arange(n + 1) * h
        zs = np.array([sol.states[n + i].pos[2] for i in range(n + 1)])
        coef = np.polyfit(ts, zs, 2)
        parabola_resid = float(np.max(np.abs(zs - np.polyval(coef, ts))))
        v_takeoff = float(coef[1])  # continuous-equivalent takeoff velocity
        ballistic_rel = abs(v_takeoff - G * t_f / 2.0) / v_takeoff
        checker = check_constraints(spec, sol)
        total = float(sol.durations.sum())
        ok = (ballistic_rel <= 0.02 and parabola_resid <= 1e-3
              and checker["max"] <= 1e-4
              and spec.t_min - 1e-9 <= total <= spec.t_max + 1e-9
              and runtime < 60.0)
        assert report(7, "contact-timing optimizer physics (vertical hop)", ok,
                      f"(v_z={v_takeoff:.3f} vs gTf/2={G * t_f / 2:.3f} "
                      f"[{ballistic_rel * 100:.2f}%], parabola {parabola_resid:.1e} m, "
                      f"violations {checker['max']:.1e}, sumT={total:.2f}s, "
                      f"runtime {runtime:.0f}s)")


@pytest.mark.slow
class TestCriterion8:
    def test_spin_jump(self):
        spec = spin_spec(yaw_deg=90.0, n_knots=30)
        sol = solve_timing(build_problem(spec))
        checker = check_constraints(spec, sol)
        r_final = so3.project_so3(sol.states[-1].rot)
        rot_err = float(np.linalg.norm(so3.rotation_error(spec.r_goal, r_final)))
        total = float(sol.durations.sum())
        ours_10ms = tuple(round(float(d) * 100.0) for d in sol.durations)
        # interval membership holds to the solver's feasibility tolerance
        ok = (sol.converged and checker["max"] <= 1e-4 and rot_err <= 1e-3
              and 0.5 - 1e-4 <= total <= 1.5 + 1e-4)
        assert report(8, "90-degree spinning jump", ok,
                      f"(rot err {rot_err:.1e} rad, T={ours_10ms} x10ms vs "
                      f"published {SPIN90_REFERENCE_TIMINGS_10MS} x10ms [context only], "
                      f"violations {checker['max']:.1e})")


class TestCriterion9:
    def test_so3_kernel(self):
        rng = np.random.default_rng(5)
        worst_ratio = 0.0
        for theta in np.linspace(0.05, 1.0, 20):
            for _ in range(5):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                w = axis * theta
                err = np.linalg.norm(so3.exp_taylor4(w) - so3.exp_exact(w))
                worst_ratio = max(worst_ratio, err / (theta**5 / 60.0))
        taylor_ok = worst_ratio <= 1.0

        worst_rt = 0.0
        for theta in np.linspace(1e-4, np.pi - 0.01, 60):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = axis * theta
            worst_rt = max(worst_rt, float(np.max(np.abs(so3.log_map(so3.exp_exact(v)) - v))))
        rt_ok = worst_rt <= 1e-9
        ok = taylor_ok and rt_ok
        assert report(9, "SO(3) kernel", ok,
                      f"(taylor err / bound {worst_ratio:.2f}, roundtrip {worst_rt:.1e})")


class TestCriterion10:
    def test_jump_tracking_and_landing(self, hop_solution):
        spec, sol, _ = hop_solution
        t0 = time.perf_counter()
        from quadstack.trajopt import export_reference

        ref = export_reference(sol, spec, dt=0.01)
        res = run_jump_sim(spec, ref)
        runtime = time.perf_counter() - t0
        s = res.summary
        ok = (s["landed"] and s["final_orientation_error_deg"] <= 5.0
              and s["final_height_error_m"] <= 0.03 and runtime < 30.0)
        assert report(10, "jump tracking and landing recovery", ok,
                      f"(orient {s['final_orientation_error_deg']:.2f} deg, "
                      f"height err {s['final_height_error_m'] * 1000:.1f} mm, "
                      f"runtime {runtime:.1f}s)")
