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
_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))

_METHODS = ("rkf45_adaptive", "rk4_fixed")


@dataclass(frozen=True)
class FlowConfig:
    t_max: float = 50.0
    initial_step: float = 0.01
    curvature_tol: float = 1e-12
    degeneration_margin: float = 1e-7
    method: str = "rkf45_adaptive"
    rtol: float = 1e-12
    atol: float = 1e-14
    max_steps: int = 200000

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
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


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


def flow(m0: ConeMetric, cfg: FlowConfig = FlowConfig()) -> FlowTrace:
    """Integrate dx/dt = K from m0 until convergence, degeneration or t_max.

    The energy column H is computed after the loop, from the angles of
    every accepted step in one batched volume evaluation.
    """
    cfg.validate()
    tri = m0.tri
    ev = metric_mod.evaluate(tri, m0.x).raise_if_inadmissible()
    x, K = ev.x, ev.K
    margin, witness = ev.margin()

    ts, xs, ks, angs = [0.0], [x.copy()], [K.copy()], [ev.angles]
    status, final_witness = None, None
    if margin < cfg.degeneration_margin:
        status, final_witness = "degenerated", witness
    elif float(np.abs(K).max()) < cfg.curvature_tol:
        status = "converged"

    t = 0.0
    h = cfg.initial_step
    accepted = rejected = 0
    adaptive = cfg.method == "rkf45_adaptive"
    tableau = _RKF_A if adaptive else _RK4_A

    while status is None:
        if t >= cfg.t_max * (1.0 - 1e-14):
            status = "t_max_reached"
            break
        if accepted + rejected >= cfg.max_steps:
            raise ConvergenceError(
                f"flow exceeded {cfg.max_steps} steps (t = {t!r})", last=x)
        h = min(h, cfg.t_max - t)
        if h < 1e-14 * max(1.0, t):
            raise ConvergenceError(
                f"flow step size underflowed at t = {t!r}", last=x)

        stages = [K]
        ev_new, err_ratio = None, 0.0
        for coeff in tableau[1:]:
            stage = metric_mod.evaluate(
                tri, x + h * sum(c * k for c, k in zip(coeff, stages)))
            if not stage.admissible:
                break
            stages.append(stage.K)
        else:  # every stage admissible
            if adaptive:
                x_new = x + h * sum(b * k for b, k in zip(_RKF_B5, stages))
                err = h * sum((b5 - b4) * k
                              for b5, b4, k in zip(_RKF_B5, _RKF_B4, stages))
                scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
                err_ratio = float(np.abs(err / scale).max())
            else:
                x_new = x + (h / 6.0) * (stages[0] + 2 * stages[1]
                                         + 2 * stages[2] + stages[3])
            if err_ratio <= 1.0:
                ev_new = metric_mod.evaluate(tri, x_new)

        if ev_new is None or not ev_new.admissible:
            rejected += 1
            h *= max(0.2, 0.9 * err_ratio ** -0.2) if err_ratio > 1.0 else 0.5
            continue

        t += h
        ev = ev_new
        x, K = ev.x, ev.K
        accepted += 1
        ts.append(t)
        xs.append(x.copy())
        ks.append(K.copy())
        angs.append(ev.angles)

        margin, witness = ev.margin()
        if margin < cfg.degeneration_margin:
            status, final_witness = "degenerated", witness
        elif float(np.abs(K).max()) < cfg.curvature_tol:
            status = "converged"
        elif adaptive:
            grow = 5.0 if err_ratio == 0.0 else min(5.0, max(0.2, 0.9 * err_ratio ** -0.2))
            h *= grow

    Xmat, Kmat = np.array(xs), np.array(ks)
    V = (tetgeom.volume(np.array(angs)) - tetgeom.V_REF).sum(axis=1)
    H = 2.0 * V - (Kmat * Xmat).sum(axis=1)
    return FlowTrace(t=np.array(ts), x=Xmat, K=Kmat,
                     total_curv=(Kmat ** 2).sum(axis=1), H=H,
                     status=status, witness=final_witness,
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
    The backtracking line search rejects iterates that leave the admissible
    set, and an accepted iterate whose admissibility margin falls below the
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
        H0 = ev.H
        slope = -float(K @ d)  # gradient of H is -K
        # Once the predicted decrease drops below the float resolution of H
        # the sufficient-decrease test compares pure rounding noise; from
        # there only admissibility gates the (locally quadratic) Newton step.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(H0))
        alpha = 1.0
        for _ in range(60):
            cand = metric_mod.evaluate(m0.tri, x + alpha * d)
            if cand.admissible and (-slope <= noise
                                    or cand.H <= H0 + 1e-4 * alpha * slope):
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "energy line search failed: the Newton direction leaves the "
                "admissible set", last=x)
        ev = cand
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
    state = metric_mod.curvature(m_eq)
    if float(np.abs(state.K).max()) >= 1e-10:
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
    J = metric_mod.curvature_jacobian(m)
    sv = np.linalg.svd(J, compute_uv=False)
    smin, smax = float(sv[-1]), float(sv[0])
    return RigidityReport(singular_values=tuple(float(s) for s in sv),
                          sigma_min=smin, sigma_max=smax,
                          nonsingular=smin > 1e-12 * max(1.0, smax))
