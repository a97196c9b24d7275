"""Dense two-phase simplex with Bland's rule.

Deterministic and self-contained.  Minimizes c.x subject to A_eq x = b_eq,
A_ub x <= b_ub, x >= 0.  The anti-cycling pivot rule (smallest eligible
column index; ties in the ratio test broken by smallest basic variable
index) terminates in exact arithmetic.  In floating point it needs two
tolerances.  _TOL decides which reduced costs are negative, which ratios
tie, and which entries may drive an artificial out of the basis.
_PIVOT_TOL decides which rows take part in the ratio test: dividing by an
entering-column entry near rounding size amplifies the rounding in every
column the pivot updates.  On a 24-tetrahedron angle LP a pivot on an
entry of 1.3e-11 ruined the tableau, and the phase ran out of pivots.  A
phase that still runs after MAX_PIVOTS pivots raises ConvergenceError.

The tableau is stored column-major (258 x 644 for the angle LP of a
64-tetrahedron gluing), so the entering column, the rhs and every column a
pivot updates are contiguous.  A pivot updates only the columns where the
normalised pivot row is nonzero (a handful of them on the angle LPs), read
and written back whole as rows of the transpose.  A skipped column would
receive x - c * 0 = x, so every nonzero entry keeps the bits the full
rank-one update gives it.  At most the sign of a zero differs: no comparison
in the pivot rules can tell -0.0 from 0.0, and the solution is returned with
every zero positive, so the results are bit-identical to a full-width
update.

The ratio test is Bland's loop over the rows whose entering-column entry
exceeds _PIVOT_TOL: a ratio _TOL or more below the best so far replaces it,
one within _TOL of it replaces it only with a smaller basic index, and a
NaN ratio never wins.  The loop is the rule as stated, and it is enough: the
angle LPs take at most a few dozen pivots over a few hundred rows, so one
Python step per row costs little beside the pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError

_TOL = 1e-11
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
MAX_PIVOTS = 100000  # per phase; ConvergenceError beyond


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # phase 1 plus phase 2 pivots
    # Pivots of phase 1, of driving artificials out of the basis, of phase 2.
    phase_pivots: tuple[int, int, int]


def _pivot(T: np.ndarray, basis, row: int, col: int) -> None:
    T[row] /= T[row, col]
    nz = T[row].nonzero()[0]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    # T.T[nz] moves whole columns, each one contiguous.
    T.T[nz] -= np.outer(T[row, nz], colvals)
    basis[row] = col


def _iterate(T: np.ndarray, basis, allowed, max_iter: int) -> tuple:
    """Run pivots until optimal or unbounded; the objective row is T[-1]."""
    m = T.shape[0] - 1
    for it in range(max_iter):
        eligible = (allowed & (T[-1, :-1] < -_TOL)).nonzero()[0]
        if not eligible.size:
            return "optimal", it
        entering = int(eligible[0])
        # Rows with colv <= _PIVOT_TOL have an infinite ratio and are never
        # chosen.
        colv = T[:m, entering]
        rows = (colv > _PIVOT_TOL).nonzero()[0]
        ratios = T[rows, -1] / colv[rows]
        best = math.inf
        row = -1
        for i, r in zip(rows.tolist(), ratios.tolist()):
            if r < best - _TOL or (r < best + _TOL and row >= 0
                                   and basis[i] < basis[row]):
                best = min(best, r)
                row = i
        if row < 0:
            return "unbounded", it
        _pivot(T, basis, row, entering)
    raise ConvergenceError(f"simplex exceeded {max_iter} pivots")


def _block(A, b, kind: str, n: int) -> tuple:
    """One constraint block as an (m, n) matrix and its rhs; absent is empty.

    A matrix without its rhs, or a rhs without its matrix, is rejected."""
    if A is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or (A.shape[0] and A.shape[1] != n) \
            or b.shape != (A.shape[0],):
        raise ValueError(
            f"{kind} block must be (m, {n}) with a matching rhs, got "
            f"{A.shape} and {b.shape}")
    return A.reshape(A.shape[0], n), b


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_eq, b_eq = _block(A_eq, b_eq, "eq", n)
    A_ub, b_ub = _block(A_ub, b_ub, "ub", n)
    m_eq, m_ub = b_eq.size, b_ub.size
    m = m_eq + m_ub

    # Columns: structural | slacks | artificials | rhs.  A row with a
    # negative rhs is negated; it and every equality get an artificial.
    b = np.concatenate([b_eq, b_ub])
    flip = b < 0.0
    sign = np.where(flip, -1.0, 1.0)
    need = np.flatnonzero((np.arange(m) < m_eq) | flip)
    n_body = n + m_ub
    total = n_body + need.size
    T = np.zeros((m + 1, total + 1), order="F")
    np.multiply(A_eq, sign[:m_eq, None], out=T[:m_eq, :n])
    np.multiply(A_ub, sign[m_eq:, None], out=T[m_eq:m, :n])
    T[np.arange(m_eq, m), np.arange(n, n_body)] = sign[m_eq:]
    T[:m, -1] = b * sign
    basis = np.empty(m, dtype=np.intp)
    basis[m_eq:] = np.arange(n, n_body)
    basis[need] = np.arange(n_body, total)
    T[need, basis[need]] = 1.0

    its1 = drive_out = 0
    if need.size:
        # Phase 1: minimize the artificial sum.
        T[-1] = np.subtract.reduce(T[need], axis=0, initial=0.0)
        T[-1, n_body:total] = 0.0
        status, its1 = _iterate(T, basis, np.ones(total, dtype=bool), MAX_PIVOTS)
        if status != "optimal" or -T[-1, -1] > _FEAS_TOL:
            return SimplexResult(status="infeasible", x=None, objective=None,
                                 iterations=its1, phase_pivots=(its1, 0, 0))
        for i in np.flatnonzero(basis >= n_body).tolist():
            cands = np.flatnonzero(np.abs(T[i, :n_body]) > _TOL)
            if cands.size:
                _pivot(T, basis, i, int(cands[0]))
                drive_out += 1
            # else: redundant row, the artificial stays basic at zero

    # Phase 2 objective row from the real costs, reduced row by row in order.
    cost = np.zeros(total + 1)
    cost[:n] = c
    rows = np.flatnonzero(cost[basis] != 0.0)
    T[-1] = np.subtract.reduce(
        np.vstack([cost, cost[basis[rows], None] * T[rows]]), axis=0)
    status, its2 = _iterate(T, basis, np.arange(total) < n_body, MAX_PIVOTS)
    pivots = (its1, drive_out, its2)
    if status == "unbounded":
        return SimplexResult(status="unbounded", x=None, objective=None,
                             iterations=its1 + its2, phase_pivots=pivots)
    x = np.zeros(total)
    x[basis] = T[:m, -1]
    # A column the pivot skips keeps a -0.0 that the full update could have
    # turned into 0.0; adding 0.0 makes every zero in x positive.
    xs = x[:n] + 0.0
    return SimplexResult(status="optimal", x=xs, objective=float(c @ xs),
                         iterations=its1 + its2, phase_pivots=pivots)
