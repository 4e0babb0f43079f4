"""Dense convex QP solver (dual active set).

Solves

    min  1/2 x^T H x + g^T x
    s.t. C x <= d

for the small, dense problems produced by the balance, landing, and MPC
modules (n up to ~150, a few hundred rows) by the dual method of Goldfarb &
Idnani (Math. Programming 27, 1983). It starts at the unconstrained minimum
-H^-1 g, which is dual feasible, so it needs no feasible start and no
phase 1. Each step takes the most violated row and raises its multiplier:
a full step satisfies the row, which joins the working set; a partial step
stops where the dual ratio test drives a working multiplier to zero, and that
row is dropped.

With H = L L^T the steps are taken in y = L^T x, where the Hessian is the
identity. The violations are measured in x, as C x - d, and only the row
that is picked has its normal L^-1 c_p formed in y: no solve transforms
every row, so a solve costs little more than its rows that bind. A QR
factorization of the working normals gives both step directions: the
primal step is the part of the new normal orthogonal to the working
normals, the dual step its coefficients on them. The factors are updated,
not recomputed (Golub & Van Loan, Matrix Computations, on updating QR
factorizations): a row that joins appends its primal step, normalized, as
the new column of Q, and a dropped row is removed by Givens rotations
(``scipy.linalg.qr_delete``). A row whose primal step vanishes is linearly
dependent on the working set (as a foot's four pyramid faces are at F = 0)
and takes only the dual step. A dependent row that no working multiplier can
make room for proves the problem infeasible. Once the working set is final,
one refinement step puts the working rows back on their bounds. Ties are
broken in a fixed order, so identical inputs produce bitwise-identical
outputs.

The length-n products, the factorizations and the triangular solves are
numpy and LAPACK calls, whose kernels set the bits. H is factored once by
SciPy's LAPACK ``dpotrf``, which reads only its lower triangle, the LAPACK
of the estimator's ``dpotrf``/``dpotrs``; each solve with the factor is one
``dtrtrs`` column. The bookkeeping on the working set (its multipliers, the
ratio test, the step lengths) runs on Python floats: at the sizes posed here
numpy's cost per call would exceed the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg import lapack, qr_delete

__all__ = ["QpProblem", "QpStatus", "QpResult", "ActiveSetSolver"]

_REG = 1e-9  # Hessian regularization added when the Cholesky factor fails
# a row whose primal step is below this fraction of its normal (both in y) is
# linearly dependent on the working set
_DEP_TOL = 1e-9
# a row within this fraction of its normal's length of its bound is satisfied
_TOL = 1e-9
_MAX_ITER = 200  # steps per solve, each a row joining or leaving the working set


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


@dataclass
class QpProblem:
    """Dense convex QP in standard form; an unconstrained one has zero rows."""

    h: np.ndarray
    g: np.ndarray
    c_ineq: np.ndarray
    d_ineq: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float).reshape(-1)
        n = self.g.shape[0]
        if self.h.shape != (n, n):
            raise ValueError(f"H must be {n}x{n}, got {self.h.shape}")
        self.c_ineq = np.asarray(self.c_ineq, dtype=float).reshape(-1, n)
        self.d_ineq = np.asarray(self.d_ineq, dtype=float).reshape(-1)
        if self.c_ineq.shape[0] != self.d_ineq.shape[0]:
            raise ValueError("c_ineq and d_ineq must have one row per bound")

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each row of ``c_ineq``, formed on first use; a
        caller that caches its rows may assign their cached norms instead."""
        return np.linalg.norm(self.c_ineq, axis=1)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.h @ x + self.g @ x)


@dataclass
class QpResult:
    x: np.ndarray
    status: QpStatus
    iterations: int = 0
    active_set: list[int] = field(default_factory=list)
    lam_ineq: np.ndarray | None = None  # multipliers on every row, on OPTIMAL


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous float vector, by that function's
    own formula (the square root of ``v.dot(v)``, same bits) without its
    dispatch."""
    return math.sqrt(v.dot(v))


def _solved(result: tuple[np.ndarray, int]) -> np.ndarray:
    """The solution of a LAPACK ``dtrtrs`` call, which must have succeeded.

    ``dtrtrs`` reads Fortran order. The Cholesky factor is passed as
    ``dpotrf`` returns it; the QR factor r is C-ordered, so each call passes
    its transpose with ``lower`` and ``trans`` flipped. Both are what
    ``scipy.linalg.solve_triangular`` does (same bits), without that
    wrapper's input checks and dispatch.
    """
    x, info = result
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    return x


class ActiveSetSolver:
    """Reusable dual active-set solver; one instance per thread."""

    def solve(self, qp: QpProblem) -> QpResult:
        n = qp.n
        # H = L L^T from H's lower triangle, as dpotrf returns it (Fortran
        # order, the strict upper triangle unread by the solves below)
        l, info = lapack.dpotrf(qp.h, lower=1, clean=0)
        if info > 0:
            l, info = lapack.dpotrf(qp.h + _REG * np.eye(n), lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"Hessian is not positive definite: dpotrf info {info}")
        c, d = qp.c_ineq, qp.d_ineq
        # a row within _TOL |row| of its bound, as a distance, is satisfied;
        # the working rows, never picked, have an infinite threshold
        thresh = _TOL * qp.row_norms
        # the unconstrained minimum, in y = L^T x and in x
        y = -_solved(lapack.dtrtrs(l, qp.g, lower=1))
        x = _solved(lapack.dtrtrs(l, y, lower=1, trans=1))

        work: list[int] = []  # working rows
        u: list[float] = []  # their multipliers
        # working normals = q r, in buffers that the factor updates fill,
        # allocated when the first row joins
        qf = rf = None
        q, r = np.zeros((n, 0)), np.zeros((0, 0))
        it = 0
        while d.size:  # with no rows the start is the optimum
            viol = c.dot(x) - d
            viol[viol <= thresh] = 0.0
            p = int(viol.argmax())
            if viol[p] == 0.0:  # every entry is 0.0 or above its threshold
                break
            # the picked row's normal in y
            n_p = _solved(lapack.dtrtrs(l, c[p], lower=1))
            d_p, u_p, full = float(d[p]), 0.0, False
            dep = (_DEP_TOL * _norm(n_p)) ** 2
            while not full:
                if it == _MAX_ITER:
                    return _stopped(l, y, QpStatus.MAX_ITER, it, work)
                it += 1
                proj = q.T.dot(n_p)
                z = n_p - q.dot(proj)  # primal step direction
                dual = (_solved(lapack.dtrtrs(r.T, proj, lower=1, trans=1)) if work
                        else proj).tolist()
                # dual ratio test over the working rows: the first smallest
                # u_i / dual_i with dual_i > 0, as np.argmin picks it
                t1, drop = math.inf, -1
                for i, (u_i, dual_i) in enumerate(zip(u, dual)):
                    if dual_i > 0.0 and (ratio := u_i / dual_i) < t1:
                        t1, drop = ratio, i
                zz = float(z.dot(z))
                t2 = (float(n_p.dot(y)) - d_p) / zz if zz > dep else math.inf
                if t1 == t2 == math.inf:
                    # a dependent row that no multiplier can make room for
                    return _stopped(l, y, QpStatus.INFEASIBLE, it, work)
                full = t2 <= t1
                t = min(t1, t2)
                if t2 < math.inf:
                    y = y - t * z
                u = [u_i - t * dual_i for u_i, dual_i in zip(u, dual)]
                u_p += t
                k = len(work)
                if full:
                    if qf is None:
                        qf, rf = np.zeros((n, n), order="F"), np.zeros((n, n))
                    # append n_p = q (proj + s) + |z| e_k to the factors,
                    # after one reorthogonalization pass s = q^T z; the row
                    # is cleared because qr_delete takes a triangular r
                    s = q.T.dot(z)
                    z = z - q.dot(s)
                    rf[k, :k] = 0.0
                    rf[:k, k] = proj + s
                    rf[k, k] = z_norm = _norm(z)
                    qf[:, k] = z / z_norm
                    work.append(p)
                    u.append(u_p)
                    thresh[p] = math.inf
                else:
                    # Givens rotations restore the triangle without the
                    # column; with k = n the factors come back full-sized
                    qd, rd = qr_delete(q, r, drop, which="col", check_finite=False)
                    qf[:, :k - 1], rf[:k - 1, :k - 1] = qd[:, :k - 1], rd[:k - 1]
                    thresh[work[drop]] = _TOL * qp.row_norms[work[drop]]
                    work.pop(drop)
                    u.pop(drop)
                q, r = qf[:, :len(work)], rf[:len(work), :len(work)]
            x = _solved(lapack.dtrtrs(l, y, lower=1, trans=1))

        lam = np.zeros(len(d))
        if work:
            # refinement: the smallest move in the H norm that puts the
            # working rows back on their bounds
            resid = d[work] - c[work].dot(x)
            v = q.dot(_solved(lapack.dtrtrs(r.T, resid, lower=1)))
            x = x + _solved(lapack.dtrtrs(l, v, lower=1, trans=1))
            lam[work] = np.maximum(u, 0.0)
        return QpResult(x=x, status=QpStatus.OPTIMAL, iterations=it,
                        active_set=sorted(work), lam_ineq=lam)


def _stopped(l, y, status, it, work) -> QpResult:
    x = _solved(lapack.dtrtrs(l, y, lower=1, trans=1))
    return QpResult(x=x, status=status, iterations=it, active_set=sorted(work))
