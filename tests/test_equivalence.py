"""Luo's equivalence on sampled gluings: the length and angle sides agree.

An angle structure exists exactly when the energy H has a critical point,
and then the volume maximum over the angle polytope, the energy minimum and
the limit of Luo's curvature flow are the same metric.  The draws are the
inputs of the benchmark's ntet workload: sampler.sample(n, rng) for n in
SIZES, from one random.Random(seed) per seed, feasible and infeasible alike.
"""

import random

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal.errors import ConvergenceError

SEEDS = (1, 2, 3, 10)
SIZES = (8, 12, 8, 12, 8, 12, 8, 12)
# (seed, draw index) of the LP-feasible draws; the other 16 are infeasible.
FEASIBLE = {(1, 1), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (2, 7),
            (3, 1), (3, 2), (3, 5), (3, 6), (3, 7), (10, 1), (10, 2), (10, 7)}


@pytest.fixture(scope="module")
def draws(sampler):
    out = {}
    for seed in SEEDS:
        rng = random.Random(seed)
        for k, n in enumerate(SIZES):
            out[seed, k] = sampler.sample(n, rng)[0]
    return out


@pytest.mark.parametrize("k", range(len(SIZES)))
@pytest.mark.parametrize("seed", SEEDS)
def test_energy_minimum_is_volume_maximum(draws, seed, k):
    tri = draws[seed, k]
    lp = A.lp_feasibility(tri)
    assert lp.feasible == ((seed, k) in FEASIBLE)
    m0 = M.ConeMetric(tri=tri, x=np.ones(tri.n_edges))
    if not lp.feasible:
        # no critical point of H: the minimizer must say so, and only as a
        # ConvergenceError (a DefinitenessError would propagate and fail)
        with pytest.raises(ConvergenceError):
            D.minimize_energy(m0)
        return
    m, _ = D.minimize_energy(m0)
    _, rep = A.maximize_volume(tri, lp.witness)
    assert rep.iterations <= 10
    corner = m.x[M.class_matrix(tri)]
    assert np.abs(corner - rep.lengths).max() <= 1e-6


@pytest.mark.parametrize("k", range(len(SIZES)))
@pytest.mark.parametrize("seed", SEEDS)
def test_flow_ends_as_the_lp_says(draws, seed, k):
    # Luo's flow from x = 1, with time to spare: on a feasible draw it must
    # converge before t_max, on a step not clipped to it, to the energy
    # minimum; on an infeasible one it has no equilibrium to reach and must
    # leave the admissible set (with a witness) or run out of time, never
    # raise.
    tri = draws[seed, k]
    m0 = M.ConeMetric(tri=tri, x=np.ones(tri.n_edges))
    cfg = D.FlowConfig(t_max=100.0)
    trace = D.flow(m0, cfg)
    if (seed, k) in FEASIBLE:
        assert trace.status == "converged"
        assert trace.t[-1] < cfg.t_max
        m, _ = D.minimize_energy(m0)
        assert np.abs(trace.x[-1] - m.x).max() <= 1e-9
    else:
        assert trace.status in ("degenerated", "t_max_reached")
        assert (trace.witness is not None) == (trace.status == "degenerated")
