"""Dense convex QP solver (primal active set).

Solves

    min  1/2 x^T H x + g^T x
    s.t. C_ineq x <= d_ineq
         C_eq   x  = d_eq

for the small, dense problems produced by the balance, landing, and MPC
modules (n up to ~150, a few hundred rows). The working-set subproblems are
solved by the range-space (Schur complement) method on a Cholesky factor of
the regularized Hessian, with one step of iterative refinement that keeps
the working rows exactly satisfied when H is ill-conditioned. Everything is
deterministic: ties in the blocking and dropping rules are broken by lowest
constraint index, so identical inputs produce bitwise-identical outputs.

Degenerate vertices (more active rows than the working set can hold
independently, as at F = 0 under friction pyramids) are handled as in dual
methods (Goldfarb & Idnani, Math. Programming 27, 1983): a blocking row that
is linearly dependent on the working set is passed over, since it cannot
block in exact arithmetic. Working rows that are dependent all the same
(redundant equality rows) end the solve with status SINGULAR.

If no feasible warm start is supplied, a phase-1 problem with a single
elastic variable is solved by the same active-set loop (its own start is
trivially feasible); a positive elastic optimum is an infeasibility
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["QpProblem", "QpStatus", "QpResult", "solve", "ActiveSetSolver"]

_REG = 1e-9  # Hessian regularization added when Cholesky fails
# a blocker with c p <= _DEP_GATE |c| |p| is tested for linear dependence on
# the working set; far above the roundoff of A_w p, far below real blocking
_DEP_GATE = 1e-6
_DEP_TOL = 1e-9  # relative residual of a row counted as in the span


def _in_span(a: np.ndarray, row: np.ndarray) -> bool:
    """True if ``row`` is a linear combination of the rows of ``a``."""
    if a.shape[0] == 0:
        return False
    y = np.linalg.lstsq(a.T, row, rcond=None)[0]
    return bool(np.linalg.norm(a.T @ y - row) <= _DEP_TOL * np.linalg.norm(row))


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"
    SINGULAR = "singular"  # the working rows became linearly dependent


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


class ActiveSetSolver:
    """Reusable primal active-set solver; one instance per thread."""

    def __init__(self, tol: float = 1e-9, max_iter: int = 200):
        self.tol = tol
        self.max_iter = max_iter

    # -- working-set subproblem -------------------------------------------

    @staticmethod
    def _chol_psd(h: np.ndarray) -> np.ndarray:
        eye = np.eye(h.shape[0])
        try:
            # prove lambda_min > _REG, otherwise regularize up to it
            np.linalg.cholesky(h - _REG * eye)
            return np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return np.linalg.cholesky(h + _REG * eye)

    @staticmethod
    def _chol_solve(l: np.ndarray, b: np.ndarray) -> np.ndarray:
        y = solve_triangular(l, b, lower=True, check_finite=False)
        return solve_triangular(l.T, y, lower=False, check_finite=False)

    def _eqp_step(self, l, grad, a_work):
        """Minimizer step of 1/2 p^T H p + grad^T p with a_work p = 0.

        Range-space method: p = -Hinv grad + Hinv A^T lam with
        (A Hinv A^T) lam = A Hinv grad. Returns (p, lam), or None when the
        working rows are linearly dependent, which leaves A Hinv A^T
        singular and lam not unique.
        """
        if a_work.shape[0] == 0:
            return -self._chol_solve(l, grad), np.zeros(0)
        # one pair of triangular solves for [grad, A^T]
        sol = self._chol_solve(l, np.concatenate([grad[None, :], a_work]).T)
        hg, ha = sol[:, 0], sol[:, 1:]
        s = a_work @ ha
        try:
            lam = np.linalg.solve(s, a_work @ hg)
        except np.linalg.LinAlgError:
            return None
        p = -hg + ha @ lam
        # -hg and ha lam nearly cancel when H is ill-conditioned; one step
        # of refinement restores a_work p = 0
        fix = np.linalg.solve(s, -(a_work @ p))
        return p + ha @ fix, lam + fix

    # -- main loop ---------------------------------------------------------

    def solve(self, qp: QpProblem, x0: np.ndarray | None = None,
              tol: float | None = None, max_iter: int | None = None) -> QpResult:
        tol = self.tol if tol is None else tol
        max_iter = self.max_iter if max_iter is None else max_iter
        n = qp.n

        x, status = self._feasible_start(qp, x0, tol)
        if x is None:
            return QpResult(x=np.full(n, np.nan), status=status)

        h = 0.5 * (qp.h + qp.h.T)
        l = self._chol_psd(h)
        m_eq = 0 if qp.c_eq is None else qp.c_eq.shape[0]
        c_eq = qp.c_eq if m_eq else np.zeros((0, n))
        c_in = qp.c_ineq if qp.m_ineq else np.zeros((0, n))
        d_in = qp.d_ineq if qp.m_ineq else np.zeros(0)

        # the working set is built up one blocking constraint at a time
        # (starting from the active rows at a degenerate vertex would seed a
        # dependent set and invite cycling)
        work: list[int] = []

        lam_work = np.zeros(0)
        for it in range(1, max_iter + 1):
            a_work = np.vstack([c_eq, c_in[work]]) if (m_eq or work) else np.zeros((0, n))
            grad = h @ x + qp.g
            step = self._eqp_step(l, grad, a_work)
            if step is None:
                return QpResult(x=x, status=QpStatus.SINGULAR, iterations=it,
                                active_set=sorted(work))
            p, lam = step
            lam_work = lam[m_eq:]

            # KKT at the subproblem optimum reads grad = A^T lam; for rows of
            # C x <= d the true multipliers are mu = -lam >= 0, so optimality
            # requires lam <= 0 on the working inequalities. A step is "zero"
            # when it is small or when it cannot decrease the objective
            # (near-singular Hessians leave noise in the flat directions).
            step_tol = tol * (1.0 + float(np.linalg.norm(x, ord=np.inf)))
            decrease = -(grad @ p + 0.5 * p @ h @ p)
            flat = decrease <= tol * tol * (1.0 + abs(qp.objective(x)))
            if np.linalg.norm(p, ord=np.inf) <= step_tol or flat:
                if lam_work.size == 0 or np.max(lam_work) <= tol:
                    return self._finish(qp, x, it, work, lam_work)
                # drop the most positive lam; lowest index on ties
                j = int(np.lexsort((work, -lam_work))[0])
                work.pop(j)
                continue

            # largest step along p that stays feasible. A row that is
            # linearly dependent on the working set has c p = 0 in exact
            # arithmetic, but the roundoff in A_w p grows with |p| and
            # cond(H) and can pass the blocking test; such a row would enter
            # with a zero step and make the working set dependent. So a
            # blocker whose c p is tiny next to |c| |p| is first tested for
            # dependence (as Goldfarb & Idnani test each added row) and
            # passed over if it is dependent.
            alpha, blocker = 1.0, -1
            if qp.m_ineq:
                mask = np.ones(qp.m_ineq, dtype=bool)
                mask[work] = False
                cand = np.flatnonzero(mask)
                if cand.size:
                    cp = c_in[cand] @ p
                    pos = cp > tol * (1.0 + np.abs(d_in[cand]))
                    cand, cp = cand[pos], cp[pos]
                    slack = d_in[cand] - c_in[cand] @ x
                    ratios = np.maximum(slack, 0.0) / cp
                    for k in np.lexsort((cand, ratios)):
                        if ratios[k] >= alpha:
                            break
                        j = int(cand[k])
                        scale = np.linalg.norm(c_in[j]) * np.linalg.norm(p)
                        if cp[k] > _DEP_GATE * scale or not _in_span(a_work, c_in[j]):
                            alpha, blocker = float(ratios[k]), j
                            break
            x = x + alpha * p
            if blocker >= 0 and alpha < 1.0:
                work.append(blocker)
                work.sort()

        return QpResult(x=x, status=QpStatus.MAX_ITER, iterations=max_iter,
                        active_set=sorted(work))

    def _finish(self, qp, x, it, work, lam_work) -> QpResult:
        lam_full = np.zeros(qp.m_ineq)
        for idx, j in enumerate(work):
            lam_full[j] = max(-lam_work[idx], 0.0)  # mu = -lam
        return QpResult(x=x, status=QpStatus.OPTIMAL, iterations=it,
                        active_set=sorted(work), lam_ineq=lam_full)

    # -- phase 1 -----------------------------------------------------------

    def _feasible_start(self, qp: QpProblem, x0, tol) -> tuple[np.ndarray | None, QpStatus]:
        """A feasible point and OPTIMAL, or None and the status that stopped phase 1."""
        n = qp.n
        infeasible = None, QpStatus.INFEASIBLE
        if qp.c_eq is not None:
            x_eq = np.linalg.lstsq(qp.c_eq, qp.d_eq, rcond=None)[0]
            if np.max(np.abs(qp.c_eq @ x_eq - qp.d_eq)) > 1e3 * tol:
                return infeasible  # inconsistent equalities
        else:
            x_eq = np.zeros(n)

        if x0 is not None:
            x0 = np.asarray(x0, dtype=float).reshape(n)
            if qp.max_violation(x0) <= 10 * tol:
                if qp.c_eq is not None and np.max(np.abs(qp.c_eq @ x0 - qp.d_eq)) > tol:
                    pass  # fall through to phase 1
                else:
                    return x0, QpStatus.OPTIMAL

        if qp.c_ineq is None or np.max(qp.c_ineq @ x_eq - qp.d_ineq) <= tol:
            return x_eq, QpStatus.OPTIMAL

        # phase 1: min gamma + eps/2 |x - x_eq|^2  s.t.  C x - d <= gamma, gamma >= 0
        m = qp.m_ineq
        eps = 1e-6
        h1 = np.zeros((n + 1, n + 1))
        h1[:n, :n] = eps * np.eye(n)
        h1[n, n] = eps
        g1 = np.zeros(n + 1)
        g1[:n] = -eps * x_eq
        g1[n] = 1.0
        c1 = np.zeros((m + 1, n + 1))
        c1[:m, :n] = qp.c_ineq
        c1[:m, n] = -1.0
        c1[m, n] = -1.0
        d1 = np.concatenate([qp.d_ineq, [0.0]])
        qp1 = QpProblem(h=h1, g=g1, c_ineq=c1, d_ineq=d1,
                        c_eq=None if qp.c_eq is None else np.hstack([qp.c_eq, np.zeros((qp.c_eq.shape[0], 1))]),
                        d_eq=qp.d_eq)
        gamma0 = float(np.max(qp.c_ineq @ x_eq - qp.d_ineq)) + 1.0
        z0 = np.concatenate([x_eq, [gamma0]])
        res = self.solve(qp1, x0=z0, tol=tol, max_iter=4 * self.max_iter)
        if res.status is not QpStatus.OPTIMAL:
            return None, res.status
        x = res.x[:n]
        # a positive elastic optimum, or residual violations left by the
        # elastic margin, certify infeasibility
        if res.x[n] > 1e3 * tol or qp.max_violation(x) > 10 * tol:
            return infeasible
        return x, QpStatus.OPTIMAL


def solve(qp: QpProblem, tol: float = 1e-9, max_iter: int = 200,
          x0: np.ndarray | None = None) -> QpResult:
    """One-shot solve with a fresh default solver (see :class:`ActiveSetSolver`)."""
    return ActiveSetSolver(tol=tol, max_iter=max_iter).solve(qp, x0=x0)
