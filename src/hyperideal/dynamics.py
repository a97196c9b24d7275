"""Curvature flow, energy minimization, and stability experiments.

The flow integrates dx/dt = K(x) on the space of admissible cone metrics.
Every right-hand-side evaluation revalidates admissibility first; a stage
or step that leaves the admissible set is rejected and retried with half
the step, never silently clamped.  A run ends in exactly one of three
states: ``converged`` (curvature below tolerance), ``degenerated`` (some
tetrahedron's admissibility margin fell below the configured floor, with a
witness corner), or ``t_max_reached``.
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

RECOVERY_TOL = 1e-6  # distance to the equilibrium that counts as recovered

# Fehlberg 4(5) tableau
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
MAX_STEPS = 200000  # accepted plus rejected steps before flow gives up


@dataclass(frozen=True)
class FlowConfig:
    t_max: float = 50.0
    initial_step: float = 0.01
    curvature_tol: float = 1e-12
    degeneration_margin: float = 1e-7
    rtol: float = 1e-12
    atol: float = 1e-14

    def validate(self) -> None:
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be positive and finite")
        if not (self.initial_step > 0):
            raise ValueError("initial_step must be positive")
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
    config: FlowConfig


def _rkf45_step(tri, x, K, h, cfg):
    """One Fehlberg 4(5) step of size h from (x, K).

    Returns (evaluation, error ratio).  The evaluation is None when the step
    fails: a stage or the new state leaves the admissible set, or the error
    ratio exceeds 1.
    """
    stages = [K]
    for coeff in _RKF_A[1:]:
        stage = metric_mod.evaluate(
            tri, x + h * sum(c * k for c, k in zip(coeff, stages)))
        if not stage.admissible:
            return None, 0.0
        stages.append(stage.K)
    x_new = x + h * sum(b * k for b, k in zip(_RKF_B5, stages))
    err = h * sum((b5 - b4) * k for b5, b4, k in zip(_RKF_B5, _RKF_B4, stages))
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
    err_ratio = float(np.abs(err / scale).max())
    if err_ratio > 1.0:
        return None, err_ratio
    ev_new = metric_mod.evaluate(tri, x_new)
    return (ev_new if ev_new.admissible else None), err_ratio


def flow(m0: ConeMetric, cfg: FlowConfig = FlowConfig()) -> FlowTrace:
    """Integrate dx/dt = K from m0 until convergence, degeneration or t_max.

    The energy column H is computed after the loop, from the angles of
    every accepted step in one batched volume evaluation.
    """
    cfg.validate()
    tri = m0.tri
    ev = metric_mod.evaluate(tri, m0.x).raise_if_inadmissible()
    t, h = 0.0, cfg.initial_step
    accepted = rejected = 0
    ts, xs, ks, angs = [], [], [], []
    while True:
        # ev is the state at t, the start or an accepted step: record it
        # and stop if it degenerated, converged or used up the time.
        x, K = ev.x, ev.K
        ts.append(t)
        xs.append(x.copy())
        ks.append(K.copy())
        angs.append(ev.angles)
        margin, witness = ev.margin()
        if margin < cfg.degeneration_margin:
            status = "degenerated"
            break
        if float(np.abs(K).max()) < cfg.curvature_tol:
            status = "converged"
            break
        if t >= cfg.t_max * (1.0 - 1e-14):
            status = "t_max_reached"
            break
        while True:
            if accepted + rejected >= MAX_STEPS:
                raise ConvergenceError(
                    f"flow exceeded {MAX_STEPS} steps (t = {t!r})", last=x)
            h = min(h, cfg.t_max - t)
            if h < 1e-14 * max(1.0, t):
                raise ConvergenceError(
                    f"flow step size underflowed at t = {t!r}", last=x)
            ev_new, err_ratio = _rkf45_step(tri, x, K, h, cfg)
            if ev_new is not None:
                break
            rejected += 1
            h *= max(0.2, 0.9 * err_ratio ** -0.2) if err_ratio > 1.0 else 0.5
        t += h
        ev = ev_new
        accepted += 1
        h *= 5.0 if err_ratio == 0.0 else min(5.0, max(0.2, 0.9 * err_ratio ** -0.2))

    Xmat, Kmat = np.array(xs), np.array(ks)
    V = (tetgeom.volume(np.array(angs)) - tetgeom.V_REF).sum(axis=1)
    H = 2.0 * V - (Kmat * Xmat).sum(axis=1)
    return FlowTrace(t=np.array(ts), x=Xmat, K=Kmat,
                     total_curv=(Kmat ** 2).sum(axis=1), H=H,
                     status=status,
                     witness=witness if status == "degenerated" else None,
                     steps_accepted=accepted, steps_rejected=rejected,
                     config=cfg)


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
    `metric.line_search` rejects iterates that leave the admissible set,
    and an accepted iterate whose admissibility margin falls below the
    flow's degeneration floor ends the descent with a ConvergenceError
    naming the witness.  At most `metric.NEWTON_MAX_ITER` steps are taken.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    ev = metric_mod.evaluate(m0.tri, m0.x).raise_if_inadmissible()
    steps = []
    for it in range(metric_mod.NEWTON_MAX_ITER):
        x, K = ev.x, ev.K
        if float(np.abs(K).max()) < tol:
            return m0.with_lengths(x), MinimizeReport(
                iterations=it, K_norm=float(np.abs(K).max()),
                H_val=ev.H, step_sizes=tuple(steps))
        d = metric_mod.solve_definite(-ev.jacobian(), K,
                                      "negated curvature Jacobian -dK/dx")

        def trial(alpha):
            cand = metric_mod.evaluate(m0.tri, x + alpha * d)
            return (cand.H, cand) if cand.admissible else None

        # the gradient of H is -K
        alpha, _, ev = metric_mod.line_search(
            ev.H, -float(K @ d), trial,
            "energy line search failed: the Newton direction leaves the "
            "admissible set", last=x)
        steps.append(alpha)
        margin, witness = ev.margin()
        if margin < FlowConfig.degeneration_margin:
            raise ConvergenceError(
                f"energy minimization degenerated: admissibility margin "
                f"{margin:.3e} at {witness}", last=ev.x)
    raise ConvergenceError(f"energy minimization did not reach {tol} in "
                           f"{metric_mod.NEWTON_MAX_ITER} iterations", last=ev.x)


@dataclass(frozen=True)
class AttractorReport:
    radius: float
    trials: int
    seed: int
    recovered: int
    fraction: float
    max_distance: float
    distances: tuple
    statuses: tuple


def attractor_experiment(m_eq: ConeMetric, radius: float, trials: int,
                         seed: int, cfg: FlowConfig = FlowConfig()) -> AttractorReport:
    """Flow from random perturbations of an equilibrium and report recovery.

    m_eq must satisfy |K| < 1e-10; perturbations are uniform in the infinity
    ball of the given radius, which must keep all lengths positive.
    """
    K = metric_mod.evaluate(m_eq.tri, m_eq.x).raise_if_inadmissible().K
    if float(np.abs(K).max()) >= 1e-10:
        raise ValueError("attractor experiment needs an equilibrium metric")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not (0 <= radius < float(m_eq.x.min())):
        raise ValueError("radius must be non-negative and below the smallest length")
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-radius, radius, size=(trials, m_eq.x.size))
    distances, statuses = [], []
    recovered = 0
    for i in range(trials):
        trace = flow(m_eq.with_lengths(m_eq.x + deltas[i]), cfg)
        dist = float(np.abs(trace.x[-1] - m_eq.x).max())
        distances.append(dist)
        statuses.append(trace.status)
        if trace.status == "converged" and dist <= RECOVERY_TOL:
            recovered += 1
    return AttractorReport(
        radius=radius, trials=trials, seed=seed, recovered=recovered,
        fraction=(recovered / trials) if trials else 1.0,
        max_distance=max(distances) if distances else 0.0,
        distances=tuple(distances), statuses=tuple(statuses))


@dataclass(frozen=True)
class RigidityReport:
    singular_values: tuple
    sigma_min: float
    sigma_max: float
    nonsingular: bool


def rigidity_probe(m: ConeMetric) -> RigidityReport:
    """Singular values of dK/dx; a nonsingular Jacobian means the curvature
    map is a local diffeomorphism, i.e. the metric is locally rigid."""
    J = metric_mod.evaluate(m.tri, m.x).raise_if_inadmissible().jacobian()
    sv = np.linalg.svd(J, compute_uv=False)
    smin, smax = float(sv[-1]), float(sv[0])
    return RigidityReport(singular_values=tuple(float(s) for s in sv),
                          sigma_min=smin, sigma_max=smax,
                          nonsingular=smin > 1e-12 * max(1.0, smax))
