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
from .errors import DefinitenessError, InadmissibleShapeError
from .triangulation import EDGE_VERTEX_PAIRS, Triangulation

NEWTON_MAX_ITER = 100  # iteration budget of the energy and volume Newton solvers


@dataclass(frozen=True)
class ConeMetric:
    """Edge-class lengths on a triangulation, one positive float per class."""

    tri: Triangulation
    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.shape != (self.tri.n_edges,):
            raise ValueError(
                f"metric needs {self.tri.n_edges} lengths, got shape {x.shape}")
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            bad = int(np.argmin(np.where(np.isfinite(x), x, -np.inf)))
            raise InadmissibleShapeError(
                f"edge length {bad} is {float(x[bad])!r}, not positive and finite",
                reason="nonpositive_length", edge=bad, value=float(x[bad]))
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
    in (t, e) order, so their sums are reproducible to the last bit.
    """

    def __init__(self, tri: Triangulation):
        self.cm = class_matrix(tri)
        self.n = tri.n_edges
        self.counts = np.bincount(self.cm.ravel(), minlength=self.n)  # valences

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Per-corner copies of per-class values, shape (tet_count, 6)."""
        return x[self.cm]

    def scatter(self, A: np.ndarray) -> np.ndarray:
        """Per-class sums of per-corner values."""
        return np.bincount(self.cm.ravel(), weights=np.ravel(A),
                           minlength=self.n)

    def spread(self, X: np.ndarray) -> np.ndarray:
        """Per-class max minus min of per-corner values."""
        lo = np.full(self.n, np.inf)
        hi = np.full(self.n, -np.inf)
        np.minimum.at(lo, self.cm.ravel(), np.ravel(X))
        np.maximum.at(hi, self.cm.ravel(), np.ravel(X))
        return hi - lo

    def assemble(self, B: np.ndarray) -> np.ndarray:
        """Sum of the per-tetrahedron 6x6 blocks B[t] into an (n, n) matrix."""
        flat = self.cm[:, :, None] * self.n + self.cm[:, None, :]
        return np.bincount(flat.ravel(), weights=B.ravel(),
                           minlength=self.n * self.n).reshape(self.n, self.n)

    def matrix(self) -> np.ndarray:
        """The map as a 0/1 matrix of shape (n_edges, 6 * tet_count)."""
        Q = np.zeros((self.n, self.cm.size))
        Q[self.cm.ravel(), np.arange(self.cm.size)] = 1.0
        return Q


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One run of the angle pipeline over every tetrahedron of a length vector.

    ok[t] says whether tetrahedron t is admissible; lengths that are not
    positive, not finite or above tetgeom.MAX_LENGTH make it False.  The
    angle-derived fields (angles, S, K and everything computed from them)
    are meaningful only when every tetrahedron is ok.
    """

    quotient: Quotient
    x: np.ndarray         # lengths per edge class
    X: np.ndarray         # lengths per corner, (tet_count, 6)
    pipeline: tetgeom._Pipeline
    ok: np.ndarray        # (tet_count,) admissibility mask
    angles: np.ndarray    # (tet_count, 6) dihedral angles
    S: np.ndarray         # angle sums per edge class
    K: np.ndarray         # curvatures 2*pi - S

    @property
    def admissible(self) -> bool:
        return bool(self.ok.all())

    def raise_if_inadmissible(self) -> "Evaluation":
        """Raise InadmissibleShapeError naming the first bad tetrahedron.

        Out-of-range lengths raise first, exactly as tetgeom rejects them.
        Returns self, so the call chains after evaluate().
        """
        if self.admissible:
            return self
        tetgeom._as_lengths(self.X)
        t = int(np.argmax(~self.ok))
        try:
            tetgeom._raise_inadmissible(self.X, self.pipeline)
        except InadmissibleShapeError as exc:
            raise InadmissibleShapeError(
                f"tetrahedron {t}: {exc}", reason=exc.reason, edge=exc.edge,
                vertex=exc.vertex, value=exc.value, tet=t) from None

    def margin(self) -> tuple:
        """Smallest admissibility margin over all tetrahedra, with its witness.

        Returns (margin, witness) where the witness names the tetrahedron and
        the corner (edge + vertex) or vertex sum that attains the margin.
        """
        pl = self.pipeline
        t = int(np.argmin(pl.margin))
        cos, vs = pl.cosines[t], pl.vsums[t]
        corner = np.where(np.isfinite(cos), 1.0 - np.abs(cos), -np.inf)
        slack = np.where(np.isfinite(vs), math.pi - vs, -np.inf)
        if corner.min() <= slack.min():
            e = int(np.argmin(corner))
            witness = {"tet": t, "kind": "corner_cosine", "edge": e,
                       "vertex": EDGE_VERTEX_PAIRS[e][0],
                       "value": float(cos[e])}
        else:
            v = int(np.argmin(slack))
            witness = {"tet": t, "kind": "vertex_sum", "vertex": v,
                       "value": float(vs[v])}
        return float(pl.margin[t]), witness

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
    """Run the angle pipeline once over all tetrahedra; never raises."""
    q = Quotient(tri)
    x = np.asarray(x, dtype=float)
    X = q.gather(x)
    pl = tetgeom._pipeline(X)
    ok = pl.ok & ((X > 0.0) & (X <= tetgeom.MAX_LENGTH)).all(axis=-1)
    S = q.scatter(pl.angles)
    return Evaluation(quotient=q, x=x, X=X, pipeline=pl, ok=ok,
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
