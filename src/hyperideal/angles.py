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
`maximize_volume` climbs it by projected gradient ascent; the projection
just recentres each edge class, since the equality constraints have
disjoint supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import simplex, tetgeom
from .errors import ConvergenceError
from .metric import Quotient
from .triangulation import Triangulation

TWO_PI = 2.0 * math.pi
EPSILON_FEASIBLE = 1e-9  # LP optimum must clear zero by this much
EDGE_SUM_TOL = 1e-9      # accepted defect in the 2*pi edge equations


@dataclass(frozen=True)
class AngleAssignment:
    """One dihedral angle per (tetrahedron, local edge) corner."""

    tri: Triangulation
    angles: np.ndarray

    def __post_init__(self):
        a = np.array(self.angles, dtype=float)
        if a.shape != (self.tri.tet_count, 6):
            raise ValueError(
                f"angles must have shape ({self.tri.tet_count}, 6), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("angles must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    epsilon: Optional[float]
    witness: Optional[AngleAssignment]


@dataclass(frozen=True)
class Realization:
    """Per-tetrahedron lengths realizing an assignment, with class spreads."""

    lengths: np.ndarray
    spreads: np.ndarray
    max_spread: float


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
    return Quotient(assign.tri).scatter(assign.angles)


def validate_assignment(assign: AngleAssignment, eq_tol: float = EDGE_SUM_TOL) -> None:
    """Check the defining conditions; raises ValueError with a located message."""
    a = assign.angles
    if np.any(a <= 0.0) or np.any(a >= math.pi):
        t, e = map(int, divmod(int(np.argmax((a <= 0.0) | (a >= math.pi))), 6))
        raise ValueError(
            f"corner ({t},{e}) carries angle {a[t, e]!r}, outside (0, pi)")
    defect = np.abs(edge_sums(assign) - TWO_PI)
    if np.any(defect > eq_tol):
        i = int(np.argmax(defect))
        raise ValueError(
            f"edge class {i} has angle sum off 2*pi by {defect[i]:.3e}")
    vs = tetgeom.vertex_angle_sums(a)
    if np.any(vs >= math.pi):
        t, v = map(int, divmod(int(np.argmax(vs >= math.pi)), 4))
        raise ValueError(
            f"vertex {v} of tetrahedron {t} has angle sum {vs[t, v]!r} >= pi")


def lp_feasibility(tri: Triangulation) -> LPResult:
    """Maximize the feasibility margin of the angle polytope.

    Variables: one angle per corner plus the split margin eps = ep - em.
    Constraints: edge-class sums equal 2*pi; each vertex triple at most
    pi - eps; each angle at least eps.  Feasible (an open interior point
    exists) iff the optimal margin is strictly positive; the optimizer's
    angles are returned as the witness.
    """
    N = tri.tet_count
    nA = 6 * N
    ncols = nA + 2
    iep, iem = nA, nA + 1

    A_eq = np.zeros((tri.n_edges, ncols))
    A_eq[:, :nA] = Quotient(tri).matrix()
    b_eq = np.full(tri.n_edges, TWO_PI)

    ub_rows, ub_rhs = [], []
    for t in range(N):
        for v in range(4):
            row = np.zeros(ncols)
            for e in tetgeom._VERT_E[v]:
                row[6 * t + e] = 1.0
            row[iep], row[iem] = 1.0, -1.0
            ub_rows.append(row)
            ub_rhs.append(math.pi)
    for j in range(nA):
        row = np.zeros(ncols)
        row[j] = -1.0
        row[iep], row[iem] = 1.0, -1.0
        ub_rows.append(row)
        ub_rhs.append(0.0)

    c = np.zeros(ncols)
    c[iep], c[iem] = -1.0, 1.0  # maximize eps
    res = simplex.solve_lp(c, A_eq=A_eq, b_eq=b_eq,
                           A_ub=np.array(ub_rows), b_ub=np.array(ub_rhs))
    if res.status != "optimal":
        return LPResult(feasible=False, epsilon=None, witness=None)
    eps = float(res.x[iep] - res.x[iem])
    if eps <= EPSILON_FEASIBLE:
        return LPResult(feasible=False, epsilon=eps, witness=None)
    witness = AngleAssignment(tri=tri, angles=res.x[:nA].reshape(N, 6))
    return LPResult(feasible=True, epsilon=eps, witness=witness)


def realize_structure(assign: AngleAssignment) -> Realization:
    """Invert the angle map of every tetrahedron separately.

    The vertex-sum condition makes each corner angle vector realizable in
    isolation; the realized lengths need not agree across an edge class,
    and the per-class spread (max minus min) measures the failure.  Spread
    zero is exactly the hyperbolic cone metric condition.
    """
    validate_assignment(assign)
    tri = assign.tri
    X = tetgeom._newton_lengths(assign.angles, np.ones((tri.tet_count, 6)))
    spreads = _class_spreads(tri, X)
    return Realization(lengths=X, spreads=spreads,
                       max_spread=float(spreads.max()))


def _class_spreads(tri: Triangulation, X: np.ndarray) -> np.ndarray:
    return Quotient(tri).spread(X)


def _volume(A: np.ndarray) -> float:
    return float(sum(tetgeom.schlafli_potential_of_angles(a) for a in A))


def total_volume(assign: AngleAssignment) -> float:
    """Sum of per-tetrahedron volume potentials of an assignment."""
    validate_assignment(assign)
    return _volume(assign.angles)


def _project_gradient(tri: Triangulation, G: np.ndarray) -> np.ndarray:
    """Remove per-edge-class means: the tangent projection of the polytope."""
    q = Quotient(tri)
    return G - q.gather(q.scatter(G) / q.counts)


def maximize_volume(tri: Triangulation, start, tol: float = 1e-8,
                    max_iter: int = 5000) -> tuple:
    """Projected gradient ascent of the volume over the angle polytope.

    start may be an AngleAssignment or a (tet_count, 6) array and must be
    strictly feasible; its edge sums are recentred onto 2*pi exactly before
    ascending, and every iterate stays strictly feasible (the line search
    rejects boundary crossings).  Returns (assignment, report); the
    vanishing per-class spread of the realized lengths is the optimality
    certificate.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if isinstance(start, AngleAssignment):
        if start.tri is not tri and start.tri.spec != tri.spec:
            raise ValueError("start assignment belongs to a different gluing")
        a = np.array(start.angles, dtype=float)
    else:
        a = np.array(start, dtype=float)
    assign = AngleAssignment(tri=tri, angles=a)
    validate_assignment(assign)
    q = Quotient(tri)
    a = a + q.gather((TWO_PI - q.scatter(a)) / q.counts)
    if not tetgeom.angles_strictly_feasible(a).all():
        raise ValueError("start assignment is not strictly feasible")

    X = np.ones((tri.tet_count, 6))
    vol = _volume(a)
    step = 1.0
    for it in range(max_iter):
        X = tetgeom._newton_lengths(a, X)
        G = _project_gradient(tri, -0.5 * X)
        gnorm = float(np.abs(G).max())
        if gnorm < tol:
            assign = AngleAssignment(tri=tri, angles=a)
            spreads = _class_spreads(tri, X)
            return assign, VolumeMaxReport(
                iterations=it, objective=vol, grad_norm=gnorm,
                spreads=spreads, max_spread=float(spreads.max()), lengths=X)
        advanced = False
        for _ in range(60):
            cand = a + step * G
            if tetgeom.angles_strictly_feasible(cand).all():
                cv = _volume(cand)
                if cv >= vol + 1e-4 * step * float((G * G).sum()):
                    a, vol = cand, cv
                    advanced = True
                    break
            step *= 0.5
        if not advanced:
            raise ConvergenceError(
                "volume ascent line search failed", last=a)
        step *= 1.6
    raise ConvergenceError(
        f"volume ascent did not reach gradient norm {tol} in {max_iter} iterations",
        last=a)
