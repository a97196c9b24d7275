"""Linear hyperbolic structures: angle assignments, LP feasibility, volume.

An angle assignment gives every tetrahedron corner (tet, local edge) a
dihedral angle subject to two linear conditions: the angles glued around
each edge class sum to 2*pi, and the three angles at each tetrahedron
vertex sum to strictly less than pi.  The assignments satisfying both form
an open convex polytope; whether it is non-empty is a pure linear program,
solved here by maximizing the margin epsilon by which both the vertex
inequalities and the positivity bounds hold.

On that polytope the total volume (sum of per-tetrahedron potentials) is
strictly concave with per-corner gradient -x/2, x the edge lengths
realizing the angles, so its maximum is the assignment whose realized
corner lengths agree across every edge class: the hyperbolic cone metric.
`maximize_volume` climbs it by constrained Newton ascent: the Hessian
-dx/da/2 is blockwise, and the multipliers of the edge equations solve the
length side's system -dK/dx, so the two sides share one Newton matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import simplex, tetgeom
from .errors import ConvergenceError
from .metric import NEWTON_MAX_ITER, Quotient, line_search, solve_definite
from .triangulation import Triangulation

TWO_PI = 2.0 * math.pi
EPSILON_FEASIBLE = 1e-9  # LP optimum must clear zero by this much
EDGE_SUM_TOL = 1e-9      # accepted defect in the 2*pi edge equations


@dataclass(frozen=True)
class AngleAssignment:
    """One dihedral angle per (tetrahedron, local edge) corner; validate_assignment
    checks them."""

    tri: Triangulation
    angles: np.ndarray

    def __post_init__(self):
        a = np.array(self.angles, dtype=float)
        if a.shape != (self.tri.tet_count, 6):
            raise ValueError(
                f"angles must have shape ({self.tri.tet_count}, 6), got {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    epsilon: Optional[float]
    witness: Optional[AngleAssignment]
    # Simplex pivots: phase 1, driving artificials out, phase 2.
    phase_pivots: tuple[int, int, int]


@dataclass(frozen=True)
class VolumeMaxReport:
    iterations: int
    objective: float
    grad_norm: float
    spreads: np.ndarray
    max_spread: float
    lengths: np.ndarray


def edge_sums(assign: AngleAssignment) -> np.ndarray:
    """Angle totals per edge class."""
    return assign.tri.quotient.scatter(assign.angles)


def validate_assignment(assign: AngleAssignment) -> None:
    """Check the defining conditions, with located errors: each tetrahedron's
    angles pass tetgeom.validate_angles (else InadmissibleShapeError), and
    every edge class sums to 2*pi within EDGE_SUM_TOL (else ValueError)."""
    tetgeom.validate_angles(assign.angles)
    defect = np.abs(edge_sums(assign) - TWO_PI)
    if np.any(defect > EDGE_SUM_TOL):
        i = int(np.argmax(defect))
        raise ValueError(
            f"edge class {i} has angle sum off 2*pi by {defect[i]:.3e}")


def lp_feasibility(tri: Triangulation) -> LPResult:
    """Maximize the feasibility margin of the angle polytope.

    The margin eps bounds every angle from below and every vertex triple
    from above by pi - eps; edge classes sum to 2*pi.  Feasible (an open
    interior point exists) iff the optimal eps is strictly positive; the
    optimizer's angles are the witness.  Over b, ep, em >= 0 with
    a = b + ep and eps = ep - em, a >= ep >= max(0, eps) needs no row per
    angle, and ep = max(eps, 0) reaches every (a, eps) of the rows
    a >= eps, a >= 0: same polytope, same optimum, same verdict.  Where
    the optimal face is not a point, Bland's rule picks the witness.
    """
    N = tri.tet_count
    nA = 6 * N
    ncols = nA + 2
    iep, iem = nA, nA + 1
    q = tri.quotient

    # One row per edge class: its corners' angles, then valence * ep.
    A_eq = np.zeros((tri.n_edges, ncols))
    A_eq[q.flat, np.arange(nA)] = 1.0
    A_eq[:, iep] = q.counts
    b_eq = np.full(tri.n_edges, TWO_PI)

    # One row per (tet, vertex): its three corners, then 4 ep - em.
    nV = 4 * N
    t, v = np.divmod(np.arange(nV), 4)
    A_ub = np.zeros((nV, ncols))
    A_ub[np.arange(nV)[:, None], 6 * t[:, None] + tetgeom._VERT_E[v]] = 1.0
    A_ub[:, iep], A_ub[:, iem] = 4.0, -1.0
    b_ub = np.full(nV, math.pi)

    c = np.zeros(ncols)
    c[iep], c[iem] = -1.0, 1.0  # maximize eps
    res = simplex.solve_lp(c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    if res.status != "optimal":
        return LPResult(feasible=False, epsilon=None, witness=None,
                        phase_pivots=res.phase_pivots)
    eps = float(res.x[iep] - res.x[iem])
    if eps <= EPSILON_FEASIBLE:
        return LPResult(feasible=False, epsilon=eps, witness=None,
                        phase_pivots=res.phase_pivots)
    a = (res.x[:nA] + res.x[iep]).reshape(N, 6)
    witness = AngleAssignment(tri=tri, angles=a)
    return LPResult(feasible=True, epsilon=eps, witness=witness,
                    phase_pivots=res.phase_pivots)


def _volume(A: np.ndarray) -> float:
    return float((tetgeom.volume(A) - tetgeom.V_REF).sum())


def total_volume(assign: AngleAssignment) -> float:
    """Sum of per-tetrahedron volume potentials of an assignment."""
    validate_assignment(assign)
    return _volume(assign.angles)


def _project_gradient(q: Quotient, G: np.ndarray) -> np.ndarray:
    """Remove per-edge-class means: the tangent projection of the polytope."""
    return G - q.gather(q.scatter(G) / q.counts)


def maximize_volume(tri: Triangulation, start, tol: float = 1e-8) -> tuple:
    """Constrained Newton ascent of the volume over the angle polytope.

    start, an AngleAssignment of tri (else ValueError), must pass
    validate_assignment, and still tetgeom.validate_angles once its edge
    sums are recentred onto 2*pi.  By Schlafli the Hessian is -J^-1/2,
    J = da/dx blockwise at the realized lengths X; with
    g = -X/2 the step d = 2J(g - Q^T lam) solves (QJQ^T) lam = QJg, the
    -dK/dx of `minimize_energy`, under its Cholesky certificate.  Iterates
    stay strictly feasible; a full step that leaves the polytope gives way
    to the projected gradient, so no face jams the ascent.  A step that
    leaves the angles as they were, bit for bit, would repeat to the end,
    so it raises the "did not reach" ConvergenceError at once.  Returns
    (assignment, report); the report's per-class length spread certifies it.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not (isinstance(start, AngleAssignment) and start.tri.spec == tri.spec):
        raise ValueError("start must be an AngleAssignment of the same gluing")
    validate_assignment(start)
    q, a = tri.quotient, start.angles
    a = tetgeom.validate_angles(a + q.gather((TWO_PI - q.scatter(a)) / q.counts))

    vol = _volume(a)
    for it in range(NEWTON_MAX_ITER):
        X = tetgeom._newton_lengths(a)
        g = -0.5 * X
        G = _project_gradient(q, g)
        gnorm = float(np.abs(G).max())
        if gnorm < tol:
            spreads = q.spread(X)
            return AngleAssignment(tri=tri, angles=a), VolumeMaxReport(
                iterations=it, objective=vol, grad_norm=gnorm,
                spreads=spreads, max_spread=float(spreads.max()), lengths=X)
        J = tetgeom._jacobian(tetgeom._pipeline(X))
        lam = solve_definite(q.assemble(J), q.scatter(np.einsum("tij,tj->ti", J, g)),
                             "volume Newton matrix QJQ^T")
        d = 2.0 * np.einsum("tij,tj->ti", J, g - q.gather(lam))
        slope = float((g * d).sum())
        if not tetgeom.angles_strictly_feasible(a + d).all():
            d, slope = G, float((G * G).sum())

        def trial(alpha):
            cand = a + alpha * d
            if tetgeom.angles_strictly_feasible(cand).all():
                return -_volume(cand), cand
            return None

        # Ascent on V is descent on -V; negation is exact, so every test
        # decides as it would on V itself.
        _, neg_vol, cand = line_search(-vol, -slope, trial,
                                       "volume ascent line search failed",
                                       last=a)
        if np.array_equal(cand, a):
            break  # a fixed point: every later step would repeat this one
        a, vol = cand, -neg_vol
    raise ConvergenceError(f"volume ascent did not reach gradient norm {tol} "
                           f"in {NEWTON_MAX_ITER} iterations", last=a)
