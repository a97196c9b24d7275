"""Curvature flow and energy minimization.

The flow integrates dx/dt = K(x) on the space of admissible cone metrics
with fifth-order exponential Rosenbrock steps (exprb53s3, with exprb43 as
the embedded error estimate), which take the stiff linear part dK/dx
exactly.  Every right-hand-side evaluation revalidates admissibility
first; a stage or step that leaves the admissible set is rejected and
retried with half the step, never silently clamped.  A run ends in
exactly one of three states: ``converged`` (curvature below tolerance),
``degenerated`` (some tetrahedron's admissibility margin fell below the
configured floor, with a witness corner), or ``t_max_reached``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metric as metric_mod
from . import tetgeom
from .errors import ConvergenceError
from .metric import ConeMetric

MAX_STEPS = 200000  # accepted plus rejected steps before flow gives up
INITIAL_STEP = 0.01  # the first step flow tries
# why a step was rejected: its error ratio exceeded 1, or a stage or the
# new state left the admissible set
REJECT_REASONS = ("error_ratio", "inadmissible_stage", "inadmissible_endpoint")


@dataclass(frozen=True)
class FlowConfig:
    """The flow's settings, one `hyperideal flow` flag each."""

    t_max: float = 50.0
    curvature_tol: float = 1e-12
    degeneration_margin: float = 1e-7
    rtol: float = 1e-8
    atol: float = 1e-14

    def validate(self) -> None:
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be positive and finite")
        if not 1e-13 <= self.curvature_tol < math.inf:
            raise ValueError("curvature_tol must be finite; below 1e-13 it "
                             "is not resolvable")
        if not (0 < self.degeneration_margin < math.inf):
            raise ValueError("degeneration_margin must be positive and finite")
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")


@dataclass(frozen=True)
class FlowTrace:
    """Sampled trajectory: row k is the state after the k-th accepted step."""

    t: np.ndarray
    x: np.ndarray
    K: np.ndarray
    total_curv: np.ndarray  # sum of squared curvatures
    H: np.ndarray
    status: str
    witness: Optional[dict]
    steps_accepted: int
    steps_rejected: int
    rejections: dict  # rejected steps per reason in REJECT_REASONS
    config: FlowConfig


_PHI_SERIES = 16  # Taylor terms of phi_4 below |z| = 0.5; the 16th is < 1e-19
# 1 / (j + 4)! for j = _PHI_SERIES - 1 down to 0, in the order Horner reads them
_PHI_COEF = tuple(1.0 / math.factorial(j + 4)
                  for j in range(_PHI_SERIES - 1, -1, -1))


def _phi(z: np.ndarray) -> np.ndarray:
    """phi_1 .. phi_4 of z elementwise, stacked along a new first axis.

    phi_0(z) = e^z and phi_(k+1)(z) = (phi_k(z) - 1/k!) / z.  Above |z| = 0.5
    the recurrence runs upward from expm1; below it, where its subtractions
    cancel, phi_4 is summed as its series sum_j z^j / (j + 4)! and the lower
    ones follow downward, phi_k = 1/k! + z phi_(k+1).  Each entry takes one
    of the two, so the series is summed only when some |z| < 0.5 and the
    recurrence run only when some |z| is not; a branch that no entry takes
    is skipped.  Overflow for large positive z gives inf, never NaN.
    """
    small = np.abs(z) < 0.5
    some_small = np.logical_or.reduce(small, axis=None)
    out = np.empty((4, *z.shape))
    if some_small:
        zs = np.where(small, z, 0.0)
        p = _PHI_COEF[0]
        for c in _PHI_COEF[1:]:
            p = p * zs + c
        out[3] = p
        for k, c in ((2, 1.0 / 6.0), (1, 0.5), (0, 1.0)):
            p = out[k] = c + zs * p
    if not (some_small and np.logical_and.reduce(small, axis=None)):
        zl = np.where(small, 1.0, z)
        with np.errstate(over="ignore", invalid="ignore"):
            r = [np.expm1(zl) / zl]
            for c in (1.0, 0.5, 1.0 / 6.0):
                r.append((r[-1] - c) / zl)
        np.copyto(out, r, where=~small)
    return out


def _exprb53_step(tri, ev, J, lam, Q, h, cfg):
    """One exponential Rosenbrock step exprb53s3 of size h from the state ev.

    J = dK/dx at ev and J = Q diag(lam) Q^T; the phi-functions of hJ act
    exactly through that eigendecomposition.  The fifth-order scheme of Luan
    and Ostermann (J. Comput. Appl. Math. 255, 2014), with the nonlinear
    remainders D_i = K(U_i) - K(x) - J (U_i - x) and phi_k = phi_k(hJ):

        U_2 = x + h/2 phi_1(hJ/2) K
        U_3 = x + 9h/10 phi_1(9hJ/10) K
                + h (27/25 phi_3(hJ/2) + 729/125 phi_3(9hJ/10)) D_2
        U_4 = x + h phi_1 (K + D_2)
        x_new = x + h phi_1 K + h [(18 phi_3 - 60 phi_4) D_2
                                   + (-250/81 phi_3 + 500/27 phi_4) D_3]

    U_4 is the last stage of exprb43 (Hochbruck, Ostermann and Schweitzer,
    SIAM J. Numer. Anal. 47, 2009), whose fourth-order solution
    x + h phi_1 K + h [(16 phi_3 - 48 phi_4) D_2 + (-2 phi_3 + 12 phi_4) D_4]
    is embedded: the error estimate, O(h^5), is x_new minus it.  Returns
    (evaluation, error ratio, reason); the evaluation is None when the step
    fails, and reason, one of REJECT_REASONS, says why.
    """
    x, K = ev.x, ev.K
    n, z = lam.size, h * lam
    (half1, nine1, p1), _, (half3, nine3, p3), (_, _, p4) = _phi(
        np.concatenate((0.5 * z, 0.9 * z, z))).reshape(4, 3, n)
    kq = Q.T @ K

    def remainder(u):
        # Q^T D for the stage u, or None where u is inadmissible
        stage = metric_mod.evaluate(tri, u)
        if not stage.admissible:
            return None
        return Q.T @ (stage.K - K - J @ (u - x))

    d2 = remainder(x + 0.5 * h * (Q @ (half1 * kq)))
    if d2 is None:
        return None, 0.0, "inadmissible_stage"
    d3 = remainder(x + h * (Q @ (0.9 * nine1 * kq
                                 + (1.08 * half3 + 5.832 * nine3) * d2)))
    if d3 is None:
        return None, 0.0, "inadmissible_stage"
    d4 = remainder(x + h * (Q @ (p1 * (kq + d2))))
    if d4 is None:
        return None, 0.0, "inadmissible_stage"
    b3 = -3.0864197530864197 * p3 + 18.51851851851852 * p4
    x_new = x + h * (Q @ (p1 * kq + (18.0 * p3 - 60.0 * p4) * d2 + b3 * d3))
    err = h * (Q @ ((2.0 * p3 - 12.0 * p4) * (d2 + d4) + b3 * d3))
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
    err_ratio = float(np.maximum.reduce(np.abs(err / scale)))
    if err_ratio > 1.0:
        return None, err_ratio, "error_ratio"
    ev_new = metric_mod.evaluate(tri, x_new)
    if not ev_new.admissible:
        return None, err_ratio, "inadmissible_endpoint"
    return ev_new, err_ratio, None


def flow(m0: ConeMetric, cfg: FlowConfig = FlowConfig()) -> FlowTrace:
    """Integrate dx/dt = K from m0 until convergence, degeneration or t_max.

    Every step is an `_exprb53_step`, four evaluations (three stages and
    the new state) from the eigendecomposition of dK/dx, taken once per
    accepted state.  rtol and atol bound each step's local error, so they
    set the accuracy of the trace; curvature_tol decides where it ends.  A
    step whose error ratio r exceeds 1 is retried with h scaled by
    0.9 r^(-1/5), at least 0.2; one with an inadmissible stage or new
    state, with h halved.  `FlowTrace.rejections` counts each reason.
    The energy column H is computed after the loop, from the angles of
    every accepted step in one batched volume evaluation.
    """
    cfg.validate()
    tri = m0.tri
    ev = metric_mod.evaluate(tri, m0.x).raise_if_inadmissible()
    t, h = 0.0, INITIAL_STEP
    accepted = rejected = 0
    rejections = dict.fromkeys(REJECT_REASONS, 0)
    ts, xs, ks, angs = [], [], [], []
    while True:
        # ev is the state at t, the start or an accepted step: record it
        # and stop if it degenerated, converged or used up the time.  Every
        # state here is admissible, so the smallest per-tetrahedron margin
        # is the one ev.margin() names a witness for.  No array recorded
        # is ever written to.
        x, K = ev.x, ev.K
        ts.append(t)
        xs.append(x)
        ks.append(K)
        angs.append(ev.angles)
        if np.minimum.reduce(ev.pipeline.margin) < cfg.degeneration_margin:
            status = "degenerated"
            break
        if np.maximum.reduce(np.abs(K)) < cfg.curvature_tol:
            status = "converged"
            break
        if t >= cfg.t_max * (1.0 - 1e-14):
            status = "t_max_reached"
            break
        J = ev.jacobian()
        lam, Q = np.linalg.eigh(J)
        while True:
            if accepted + rejected >= MAX_STEPS:
                raise ConvergenceError(
                    f"flow exceeded {MAX_STEPS} steps (t = {t!r})", last=x)
            h = min(h, cfg.t_max - t)
            if h < 1e-14 * max(1.0, t):
                raise ConvergenceError(
                    f"flow step size underflowed at t = {t!r}", last=x)
            ev_new, err_ratio, reason = _exprb53_step(
                tri, ev, J, lam, Q, h, cfg)
            if ev_new is not None:
                break
            rejections[reason] += 1
            rejected += 1
            h *= max(0.2, 0.9 * err_ratio ** -0.2) if err_ratio > 1.0 else 0.5
        t += h
        ev = ev_new
        accepted += 1
        growth = 0.9 * err_ratio ** -0.2 if err_ratio > 0.0 else 5.0
        h *= min(5.0, max(0.2, growth))

    Xmat, Kmat = np.array(xs), np.array(ks)
    V = (tetgeom.volume(np.array(angs)) - tetgeom.V_REF).sum(axis=1)
    H = 2.0 * V - (Kmat * Xmat).sum(axis=1)
    return FlowTrace(t=np.array(ts), x=Xmat, K=Kmat,
                     total_curv=(Kmat ** 2).sum(axis=1), H=H,
                     status=status,
                     witness=ev.margin()[1] if status == "degenerated" else None,
                     steps_accepted=accepted, steps_rejected=rejected,
                     rejections=rejections, config=cfg)


@dataclass(frozen=True)
class MinimizeReport:
    iterations: int
    K_norm: float
    H_val: float
    step_sizes: tuple


def minimize_energy(m0: ConeMetric, tol: float = 1e-12) -> tuple:
    """Newton descent on the energy H; returns (metric, report).

    Each step solves (-J) d = K with `metric.solve_definite`, whose Cholesky
    factorization of -J certifies it positive definite (a failure raises
    DefinitenessError); `angles.maximize_volume` solves the same matrix.
    `metric.line_search` refuses candidates that leave the admissible set
    or whose admissibility margin falls below the flow's degeneration
    floor, so every iterate keeps the floor.  Where the floor holds the
    descent back, the last line search having refused a candidate for it,
    a failed line search or the end of the `metric.NEWTON_MAX_ITER` steps
    raises ConvergenceError "degenerated", naming the witness of the last
    candidate refused for the floor and carrying its lengths as `last`.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    floor = FlowConfig.degeneration_margin
    ev = metric_mod.evaluate(m0.tri, m0.x).raise_if_inadmissible()
    steps = []
    floored = []  # the current line search's candidates refused for the floor
    for it in range(metric_mod.NEWTON_MAX_ITER):
        x, K = ev.x, ev.K
        if float(np.abs(K).max()) < tol:
            return m0.with_lengths(x), MinimizeReport(
                iterations=it, K_norm=float(np.abs(K).max()),
                H_val=ev.H, step_sizes=tuple(steps))
        d = metric_mod.solve_definite(-ev.jacobian(), K,
                                      "negated curvature Jacobian -dK/dx")
        floored.clear()

        def trial(alpha):
            # as in flow, the smallest per-tetrahedron margin of an
            # admissible candidate is the one its margin() reports
            cand = metric_mod.evaluate(m0.tri, x + alpha * d)
            if not cand.admissible:
                return None
            if np.minimum.reduce(cand.pipeline.margin) < floor:
                floored.append(cand)
                return None
            return cand.H, cand

        # the gradient of H is -K
        try:
            alpha, _, ev = metric_mod.line_search(
                ev.H, -float(K @ d), trial,
                "energy line search failed: the Newton direction leaves the "
                "admissible set", last=x)
        except ConvergenceError:
            if not floored:
                raise
            break
        steps.append(alpha)
    if not floored:
        raise ConvergenceError(
            f"energy minimization did not reach {tol} in "
            f"{metric_mod.NEWTON_MAX_ITER} iterations", last=ev.x)
    margin, witness = floored[-1].margin()
    raise ConvergenceError(f"energy minimization degenerated: admissibility "
                           f"margin {margin:.3e} at {witness}",
                           last=floored[-1].x)
