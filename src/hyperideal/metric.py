"""Pseudo-hyperbolic cone metrics and their discrete curvature.

A cone metric assigns one positive length to every edge class of a
triangulation; each tetrahedron inherits six lengths through the quotient
map and must be an admissible hyperideal tetrahedron.  The metric is
hyperbolic along an edge class when the dihedral angles of all corners
glued around it sum to 2*pi; the curvature K_i = 2*pi - S_i measures the
failure.

The curvature Jacobian dK/dx assembles per-tetrahedron angle Jacobians
(symmetric positive definite) through the quotient map with a sign flip, so
it is symmetric negative definite on the admissible set.  Consequently

    H(x) = 2 * sum_t V_t(x_t) - sum_i K_i x_i

(V_t the closed-form volume of tetrahedron t, taken relative to the unit
regular shape) has gradient exactly -K and positive definite Hessian
-dK/dx: the curvature flow dx/dt = K is the negative gradient flow of the
locally convex energy H, whose critical points are exactly the hyperbolic
metrics (all angle sums 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tetgeom
from .errors import ConvergenceError, DefinitenessError
from .triangulation import EDGE_VERTEX_PAIRS, Triangulation

NEWTON_MAX_ITER = 100  # iteration budget of the energy and volume Newton solvers


@dataclass(frozen=True)
class ConeMetric:
    """Edge-class lengths on a triangulation, one per class, each passing
    tetgeom.validate_lengths."""

    tri: Triangulation
    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.shape != (self.tri.n_edges,):
            raise ValueError(
                f"metric needs {self.tri.n_edges} lengths, got shape {x.shape}")
        tetgeom.validate_lengths(x)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    def with_lengths(self, x) -> "ConeMetric":
        return ConeMetric(tri=self.tri, x=np.asarray(x, dtype=float))


def class_matrix(tri: Triangulation) -> np.ndarray:
    """Quotient map as an int array: entry (t, e) is the edge class of (t, e)."""
    return np.array(tri.edge_class_of, dtype=int).reshape(tri.tet_count, 6)


class Quotient:
    """The quotient map of a gluing, sending corner (t, e) to its edge class.

    Every per-class quantity is a pull-back (gather) or push-forward
    (scatter) through this one map.  Scatters accumulate corner by corner
    in (t, e) order, so their sums are reproducible to the last bit.  A
    triangulation keeps one as `Triangulation.quotient`, shared by every
    evaluation on it, so its arrays are read-only.
    """

    def __init__(self, tri: Triangulation):
        self.cm = class_matrix(tri)
        self.n = tri.n_edges
        self.flat = self.cm.ravel()  # the classes in (t, e) order
        self.cm_t = np.ascontiguousarray(self.cm.T)  # edge-major, (6, tet_count)
        self.counts = np.bincount(self.flat, minlength=self.n)  # valences
        # entry (t, e, g) of a block's place in the flattened (n, n) matrix
        self.block_flat = (self.cm[:, :, None] * self.n + self.cm[:, None, :]).ravel()
        for a in (self.cm, self.cm_t, self.counts, self.block_flat):
            a.flags.writeable = False

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Per-corner copies of per-class values, shape (tet_count, 6)."""
        return x[self.cm]

    def scatter(self, A: np.ndarray) -> np.ndarray:
        """Per-class sums of per-corner values."""
        return np.bincount(self.flat, weights=np.ravel(A), minlength=self.n)

    def spread(self, X: np.ndarray) -> np.ndarray:
        """Per-class max minus min of per-corner values."""
        lo = np.full(self.n, np.inf)
        hi = np.full(self.n, -np.inf)
        np.minimum.at(lo, self.flat, np.ravel(X))
        np.maximum.at(hi, self.flat, np.ravel(X))
        return hi - lo

    def assemble(self, B: np.ndarray) -> np.ndarray:
        """Sum of the per-tetrahedron 6x6 blocks B[t] into an (n, n) matrix."""
        return np.bincount(self.block_flat, weights=B.ravel(),
                           minlength=self.n * self.n).reshape(self.n, self.n)

    def matrix(self) -> np.ndarray:
        """The map as a 0/1 matrix of shape (n_edges, 6 * tet_count)."""
        Q = np.zeros((self.n, self.cm.size))
        Q[self.flat, np.arange(self.flat.size)] = 1.0
        return Q


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One run of the angle pipeline over every tetrahedron of a length vector.

    ok[t] says whether tetrahedron t is admissible; lengths that break
    tetgeom's length rule make it False.  The angle-derived fields (angles,
    S, K and everything computed from them) are meaningful only when every
    tetrahedron is ok.
    """

    quotient: Quotient
    x: np.ndarray         # lengths per edge class
    pipeline: tetgeom._Pipeline
    ok: np.ndarray        # (tet_count,) admissibility mask
    angles: np.ndarray    # (tet_count, 6) dihedral angles
    S: np.ndarray         # angle sums per edge class
    K: np.ndarray         # curvatures 2*pi - S

    @property
    def X(self) -> np.ndarray:
        """Lengths per corner, (tet_count, 6)."""
        return self.quotient.gather(self.x)

    @property
    def admissible(self) -> bool:
        return bool(np.logical_and.reduce(self.ok, axis=None))

    def raise_if_inadmissible(self) -> "Evaluation":
        """Raise for the first bad tetrahedron, as tetgeom names it.

        The length rule comes first, exactly as tetgeom applies it.
        Returns self, so the call chains after evaluate().
        """
        if not self.admissible:
            tetgeom.validate_lengths(self.X)
            tetgeom._raise_inadmissible(self.pipeline)
        return self

    def margin(self) -> tuple:
        """Smallest admissibility margin over all tetrahedra, with its witness.

        Returns (margin, witness) where the witness names the tetrahedron and
        the corner (edge + vertex) or vertex sum that attains the margin: the
        first minimum of the pipeline's slack in (tetrahedron, edges 0-5,
        vertices 0-3) order.  Lengths that fail the length rule come first:
        margin -inf, and a witness of kind "length" names the first such edge.
        """
        pl = self.pipeline
        if not pl.in_range.all():
            t, e = (int(i) for i in np.argwhere(~pl.in_range)[0])
            return -math.inf, {"tet": t, "kind": "length", "edge": e,
                               "value": float(self.X[t, e])}
        t, k = divmod(int(np.argmin(pl.slack)), 10)
        if k < 6:
            witness = {"tet": t, "kind": "corner_cosine", "edge": k,
                       "vertex": EDGE_VERTEX_PAIRS[k][0],
                       "value": float(pl.cosines[t, k])}
        else:
            witness = {"tet": t, "kind": "vertex_sum", "vertex": k - 6,
                       "value": float(pl.vsums[t, k - 6])}
        return float(pl.slack[t, k]), witness

    def jacobian(self) -> np.ndarray:
        """dK/dx: minus the per-tetrahedron angle Jacobians, assembled."""
        return self.quotient.assemble(-tetgeom._jacobian(self.pipeline))

    def potentials(self) -> np.ndarray:
        """Per-tetrahedron volume potentials, relative to the unit regular shape."""
        return tetgeom.volume(self.angles) - tetgeom.V_REF

    @cached_property
    def H(self) -> float:
        """The energy 2 * sum_t V_t - K . x."""
        return 2.0 * float(self.potentials().sum()) - float(self.K @ self.x)


def evaluate(tri: Triangulation, x) -> Evaluation:
    """Run the angle pipeline once over all tetrahedra.  x must hold one
    length per edge class, else ValueError; an inadmissible x is reported
    in the Evaluation, never raised."""
    q = tri.quotient
    x = np.asarray(x, dtype=float)
    if x.shape != (q.n,):
        raise ValueError(f"metric needs {q.n} lengths, got shape {x.shape}")
    # Gathered edge-major, handed over as a shape-major view, which the
    # pipeline reads in place.
    pl = tetgeom._pipeline(x[q.cm_t].T)
    S = q.scatter(pl.angles)
    return Evaluation(quotient=q, x=x, pipeline=pl, ok=pl.ok,
                      angles=pl.angles, S=S, K=2.0 * math.pi - S)


def solve_definite(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Solve A d = b; A's Cholesky factorization certifies it positive definite.

    A failure raises DefinitenessError naming `what`, never numpy's bare
    LinAlgError, which is a ValueError."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"{what}: {exc}") from None
    return np.linalg.solve(A, b)


def line_search(f0: float, slope: float, trial, failure: str, last) -> tuple:
    """Backtracking search for a descent step on f, both Newton solvers' one.

    slope is f's derivative along the direction at step 0.  trial(alpha)
    returns (f, candidate) at step alpha, or None where the candidate is
    infeasible.  Steps start at 1 and halve until a feasible candidate
    passes the sufficient-decrease test f <= f0 + 1e-4 alpha slope.  Once
    the predicted decrease -slope drops below the float resolution of f
    that test compares rounding noise; from there feasibility alone gates
    the (locally quadratic) Newton step.  Returns (alpha, f, candidate);
    after 60 halvings raises ConvergenceError(failure, last=last).
    """
    noise = 64.0 * np.finfo(float).eps * max(1.0, abs(f0))
    alpha = 1.0
    for _ in range(60):
        cand = trial(alpha)
        if cand is not None and (-slope <= noise
                                 or cand[0] <= f0 + 1e-4 * alpha * slope):
            return (alpha, *cand)
        alpha *= 0.5
    raise ConvergenceError(failure, last=last)


# perfbench/spans.py traces these four under their names; read a metric's
# state from evaluate() instead.
def curvature(m: ConeMetric) -> Evaluation:
    """The metric's Evaluation, which carries S and K; raises if inadmissible."""
    return evaluate(m.tri, m.x).raise_if_inadmissible()


def curvature_jacobian(m: ConeMetric) -> np.ndarray:
    """dK/dx, symmetric negative definite, assembled tetrahedron by tetrahedron."""
    return evaluate(m.tri, m.x).raise_if_inadmissible().jacobian()


def tet_potentials(m: ConeMetric) -> np.ndarray:
    """Per-tetrahedron volume potentials, relative to the unit regular shape."""
    return evaluate(m.tri, m.x).raise_if_inadmissible().potentials()


def metric_margin(m: ConeMetric) -> tuple:
    """The metric's (margin, witness), as Evaluation.margin gives them."""
    return evaluate(m.tri, m.x).margin()
