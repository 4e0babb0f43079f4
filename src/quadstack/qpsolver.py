"""Dense convex QP solver (dual active set).

Solves

    min  1/2 x^T H x + g^T x
    s.t. C_ineq x <= d_ineq
         C_eq   x  = d_eq

for the small, dense problems produced by the balance, landing, and MPC
modules (n up to ~150, a few hundred rows) by the dual method of Goldfarb &
Idnani (Math. Programming 27, 1983). It starts at the unconstrained minimum
-H^-1 g, which is dual feasible, so it needs no feasible start and no
phase 1. The equality rows enter the working set first and never leave it.
Each later step takes the most violated inequality and raises its multiplier:
a full step satisfies the row, which joins the working set; a partial step
stops where the dual ratio test drives a working multiplier to zero, and that
row is dropped.

With H = L L^T the steps are taken in y = L^T x, where the Hessian is the
identity. A QR factorization of the working normals L^-1 C^T gives both step
directions: the primal step is the part of the new normal orthogonal to the
working normals, the dual step its coefficients on them. The factors are
updated, not recomputed (Golub & Van Loan, Matrix Computations, on updating
QR factorizations): a row that joins appends its primal step, normalized, as
the new column of Q, and a dropped row is removed by Givens rotations
(``scipy.linalg.qr_delete``). A row whose primal step vanishes is linearly
dependent on the working set (as a foot's four pyramid faces are at F = 0)
and takes only the dual step. A dependent row that no working multiplier can
make room for proves the problem infeasible; an equality row dependent on the
ones before it ends the solve as INFEASIBLE if it contradicts them and as
SINGULAR if it is redundant. Once the working set is final, one refinement
step puts the working rows back on their bounds. Ties are broken in a fixed
order, so identical inputs produce bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack, qr_delete

__all__ = ["QpProblem", "QpStatus", "QpResult", "ActiveSetSolver"]

_REG = 1e-9  # Hessian regularization added when Cholesky fails
# a row whose primal step is below this fraction of its normal (both in y) is
# linearly dependent on the working set
_DEP_TOL = 1e-9


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"
    SINGULAR = "singular"  # a redundant equality row (dependent and consistent)


@dataclass
class QpProblem:
    """Dense convex QP in standard form. Missing constraint blocks may be None."""

    h: np.ndarray
    g: np.ndarray
    c_ineq: np.ndarray | None = None
    d_ineq: np.ndarray | None = None
    c_eq: np.ndarray | None = None
    d_eq: np.ndarray | None = None

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float).reshape(-1)
        n = self.g.shape[0]
        if self.h.shape != (n, n):
            raise ValueError(f"H must be {n}x{n}, got {self.h.shape}")
        for name in ("c_ineq", "c_eq"):
            c = getattr(self, name)
            if c is not None:
                c = np.asarray(c, dtype=float).reshape(-1, n)
                setattr(self, name, c)
        self.d_ineq = None if self.d_ineq is None else np.asarray(self.d_ineq, dtype=float).reshape(-1)
        self.d_eq = None if self.d_eq is None else np.asarray(self.d_eq, dtype=float).reshape(-1)
        if (self.c_ineq is None) != (self.d_ineq is None):
            raise ValueError("c_ineq and d_ineq must be given together")
        if (self.c_eq is None) != (self.d_eq is None):
            raise ValueError("c_eq and d_eq must be given together")

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def m_ineq(self) -> int:
        return 0 if self.c_ineq is None else self.c_ineq.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.h @ x + self.g @ x)

    def max_violation(self, x: np.ndarray) -> float:
        v = 0.0
        if self.c_ineq is not None:
            v = max(v, float(np.max(self.c_ineq @ x - self.d_ineq, initial=0.0)))
        if self.c_eq is not None:
            v = max(v, float(np.max(np.abs(self.c_eq @ x - self.d_eq), initial=0.0)))
        return v


@dataclass
class QpResult:
    x: np.ndarray
    status: QpStatus
    iterations: int = 0
    active_set: list[int] = field(default_factory=list)
    lam_ineq: np.ndarray | None = None  # multipliers on the full inequality block


def _solved(result: tuple[np.ndarray, int]) -> np.ndarray:
    """The solution of a LAPACK ``dtrtrs`` call, which must have succeeded.

    The factors here are C-ordered and ``dtrtrs`` reads Fortran order, so
    each call passes the transpose with ``lower`` and ``trans`` flipped, as
    ``scipy.linalg.solve_triangular`` does (same bits), without that
    wrapper's input checks and dispatch.
    """
    x, info = result
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    return x


class ActiveSetSolver:
    """Reusable dual active-set solver; one instance per thread."""

    def __init__(self, tol: float = 1e-9, max_iter: int = 200):
        self.tol = tol
        self.max_iter = max_iter

    def solve(self, qp: QpProblem) -> QpResult:
        n = qp.n
        h = 0.5 * (qp.h + qp.h.T)
        try:
            l = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            l = np.linalg.cholesky(h + _REG * np.eye(n))
        m_eq = 0 if qp.c_eq is None else qp.c_eq.shape[0]
        if not m_eq and qp.m_ineq:
            c, d = qp.c_ineq, qp.d_ineq  # inequality rows only: used as given
        else:
            c = np.vstack([qp.c_eq if m_eq else np.zeros((0, n)),
                           qp.c_ineq if qp.m_ineq else np.zeros((0, n))])
            d = np.concatenate([qp.d_eq if m_eq else [], qp.d_ineq if qp.m_ineq else []])
        norm = np.linalg.norm(c, axis=1)
        # the row normals and the unconstrained minimum in y = L^T x
        wg = _solved(lapack.dtrtrs(l.T, np.concatenate((c, qp.g[None])).T, lower=0, trans=1))
        w, y = wg[:, :-1], -wg[:, -1]

        work: list[int] = []  # working rows, the equality rows first
        u = np.zeros(0)  # their multipliers; free in sign on equality rows
        # working normals = q r, in buffers that the factor updates fill,
        # allocated when the first row joins
        qf = rf = None
        q, r = np.zeros((n, 0)), np.zeros((0, 0))
        it = 0
        while True:
            if len(work) < m_eq:
                p = len(work)  # the next equality row
            else:
                viol = w.T @ y - d
                # a row within tol of its bound, as a distance, is satisfied
                viol[viol <= self.tol * norm] = 0.0
                if work:  # it holds every equality row by now
                    viol[work] = 0.0
                if not viol.any():
                    break
                p = int(np.argmax(viol))
            n_p, u_p, full = w[:, p], 0.0, False
            while not full:
                if it == self.max_iter:
                    return self._stopped(l, y, QpStatus.MAX_ITER, it, work, m_eq)
                it += 1
                proj = q.T @ n_p
                z = n_p - q @ proj  # primal step direction
                dual = _solved(lapack.dtrtrs(r.T, proj, lower=1, trans=1)) if work else proj
                # dual ratio test over the working inequalities
                block = np.flatnonzero(dual[m_eq:] > 0.0) + m_eq
                ratio = u[block] / dual[block]
                drop = block[np.argmin(ratio)] if block.size else -1
                t1 = np.min(ratio, initial=np.inf)
                zz = z @ z
                resid = n_p @ y - d[p]  # below 0 only on an equality row
                t2 = resid / zz if zz > (_DEP_TOL * np.linalg.norm(n_p)) ** 2 else np.inf
                if t1 == t2 == np.inf:
                    # a dependent row that no multiplier can make room for;
                    # a dependent equality row it already satisfies is redundant
                    redundant = p < m_eq and abs(resid) <= self.tol * norm[p]
                    status = QpStatus.SINGULAR if redundant else QpStatus.INFEASIBLE
                    return self._stopped(l, y, status, it, work, m_eq)
                full = t2 <= t1
                t = min(t1, t2)
                if t2 < np.inf:
                    y = y - t * z
                u, u_p = u - t * dual, u_p + t
                k = len(work)
                if full:
                    if qf is None:
                        qf, rf = np.zeros((n, n), order="F"), np.zeros((n, n))
                    # append n_p = q (proj + s) + |z| e_k to the factors,
                    # after one reorthogonalization pass s = q^T z; the row
                    # is cleared because qr_delete takes a triangular r
                    s = q.T @ z
                    z = z - q @ s
                    rf[k, :k] = 0.0
                    rf[:k, k] = proj + s
                    rf[k, k] = np.linalg.norm(z)
                    qf[:, k] = z / rf[k, k]
                    work.append(p)
                    u = np.append(u, u_p)
                else:
                    # Givens rotations restore the triangle without the
                    # column; with k = n the factors come back full-sized
                    qd, rd = qr_delete(q, r, drop, which="col", check_finite=False)
                    qf[:, :k - 1], rf[:k - 1, :k - 1] = qd[:, :k - 1], rd[:k - 1]
                    work.pop(drop)
                    u = np.delete(u, drop)
                q, r = qf[:, :len(work)], rf[:len(work), :len(work)]

        x = _solved(lapack.dtrtrs(l.T, y, lower=0))
        lam = np.zeros(qp.m_ineq)
        if work:
            # refinement: the smallest move in the H norm that puts the
            # working rows back on their bounds
            resid = d[work] - c[work] @ x
            v = q @ _solved(lapack.dtrtrs(r.T, resid, lower=1))
            x = x + _solved(lapack.dtrtrs(l.T, v, lower=0))
            lam[np.array(work[m_eq:], dtype=int) - m_eq] = np.maximum(u[m_eq:], 0.0)
        return QpResult(x=x, status=QpStatus.OPTIMAL, iterations=it,
                        active_set=sorted(j - m_eq for j in work[m_eq:]), lam_ineq=lam)

    @staticmethod
    def _stopped(l, y, status, it, work, m_eq) -> QpResult:
        x = _solved(lapack.dtrtrs(l.T, y, lower=0))
        return QpResult(x=x, status=status, iterations=it,
                        active_set=sorted(j - m_eq for j in work[m_eq:]))
