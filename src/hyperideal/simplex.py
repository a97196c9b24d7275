"""Dense two-phase simplex with Bland's rule.

Deterministic and self-contained.  The tableau is dense (642 x 1028 for the
angle LP of a 64-tetrahedron gluing) and the anti-cycling pivot rule
(smallest eligible column index; ties in the ratio test broken by smallest
basic variable index) terminates without degeneracy tricks.  Minimizes c.x
subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

The rank-one update of a pivot touches only the columns where the
normalised pivot row is nonzero: about 1% of them on the angle LPs, whose
pivot columns are nearly full.  A skipped column would receive
x - c * 0 = x, so every nonzero entry keeps the bits the full update gives
it.  At most the sign of a zero differs: no comparison in the pivot rules
can tell -0.0 from 0.0, and the solution is returned with every zero
positive, so the results are bit-identical to a full-width update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_TOL = 1e-11
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def _pivot(T: np.ndarray, basis, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    nz = np.flatnonzero(T[row])
    T[:, nz] -= np.outer(colvals, T[row, nz])
    basis[row] = col


def _iterate(T: np.ndarray, basis, allowed, max_iter: int) -> tuple:
    """Run pivots until optimal or unbounded; the objective row is T[-1]."""
    m = T.shape[0] - 1
    for it in range(max_iter):
        eligible = np.flatnonzero(allowed & (T[-1, :-1] < -_TOL))
        if not eligible.size:
            return "optimal", it
        entering = int(eligible[0])
        # Rows with colv <= _TOL have an infinite ratio and are never chosen.
        rows = np.flatnonzero(T[:m, entering] > _TOL)
        ratios = (T[rows, -1] / T[rows, entering]).tolist()
        best = math.inf
        row = -1
        for i, r in zip(rows.tolist(), ratios):
            if r < best - _TOL or (r < best + _TOL and row >= 0
                                   and basis[i] < basis[row]):
                best = min(best, r)
                row = i
        if row < 0:
            return "unbounded", it
        _pivot(T, basis, row, entering)
    raise RuntimeError(f"simplex exceeded {max_iter} pivots")


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None,
             max_iter: int = 100000) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    kinds = []  # "eq" or "ub"
    for A, bb, kind in ((A_eq, b_eq, "eq"), (A_ub, b_ub, "ub")):
        if A is None:
            continue
        A = np.asarray(A, dtype=float)
        bb = np.asarray(bb, dtype=float)
        if A.ndim != 2 or (A.shape[0] and A.shape[1] != n) \
                or bb.shape != (A.shape[0],):
            raise ValueError(
                f"{kind} block must be (m, {n}) with a matching rhs, got "
                f"{A.shape} and {bb.shape}")
        for a, b in zip(A, bb):
            rows.append(a)
            rhs.append(float(b))
            kinds.append(kind)
    m = len(rows)
    n_slack = sum(1 for k in kinds if k == "ub")

    # Columns: structural | slacks | artificials; rhs made non-negative.
    body = np.zeros((m, n + n_slack))
    b = np.zeros(m)
    slack_col = n
    need_artificial = []
    slack_of_row = [-1] * m
    for i, (a, bi, kind) in enumerate(zip(rows, rhs, kinds)):
        body[i, :n] = a
        b[i] = bi
        if kind == "ub":
            body[i, slack_col] = 1.0
            slack_of_row[i] = slack_col
            slack_col += 1
        if b[i] < 0.0:
            body[i] *= -1.0
            b[i] *= -1.0
        if kind == "eq" or body[i, slack_of_row[i]] < 0.0:
            need_artificial.append(i)

    n_art = len(need_artificial)
    total = n + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :n + n_slack] = body
    T[:m, -1] = b
    basis = [0] * m
    art_cols = set()
    for j, i in enumerate(need_artificial):
        col = n + n_slack + j
        T[i, col] = 1.0
        basis[i] = col
        art_cols.add(col)
    for i in range(m):
        if i not in need_artificial:
            basis[i] = slack_of_row[i]

    iterations = 0
    if n_art:
        # Phase 1: minimize the artificial sum.
        T[-1, :] = 0.0
        for i in need_artificial:
            T[-1, :] -= T[i, :]
        T[-1, list(art_cols)] = 0.0
        allowed = np.ones(total, dtype=bool)
        status, its = _iterate(T, basis, allowed, max_iter)
        iterations += its
        if status != "optimal" or -T[-1, -1] > _FEAS_TOL:
            return SimplexResult(status="infeasible", x=None, objective=None,
                                 iterations=iterations)
        for i in range(m):
            if basis[i] in art_cols:
                cands = np.flatnonzero(np.abs(T[i, :n + n_slack]) > _TOL)
                if cands.size:
                    _pivot(T, basis, i, int(cands[0]))
                # else: redundant row, the artificial stays basic at zero

    # Phase 2 objective row from the real costs.
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[-1, :] -= c[basis[i]] * T[i, :]
    allowed = np.ones(total, dtype=bool)
    for col in art_cols:
        allowed[col] = False
    status, its = _iterate(T, basis, allowed, max_iter)
    iterations += its
    if status == "unbounded":
        return SimplexResult(status="unbounded", x=None, objective=None,
                             iterations=iterations)
    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    # A column the pivot skips keeps a -0.0 that the full update could have
    # turned into 0.0; adding 0.0 makes every zero in x positive.
    xs = x[:n] + 0.0
    return SimplexResult(status="optimal", x=xs, objective=float(c @ xs),
                         iterations=iterations)
