"""Flow integration, energy minimization, attractor and rigidity probes."""

import numpy as np
import pytest

from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal.errors import (ConvergenceError, DefinitenessError,
                               InadmissibleShapeError)

from conftest import XSTAR, census_metric, state


def test_flow_config_validation():
    D.FlowConfig().validate()
    with pytest.raises(ValueError):
        D.FlowConfig(t_max=-1.0).validate()
    with pytest.raises(ValueError):
        D.FlowConfig(curvature_tol=1e-14).validate()
    with pytest.raises(ValueError):
        D.FlowConfig(method="euler").validate()


@pytest.mark.parametrize("field", ["curvature_tol", "degeneration_margin",
                                   "rtol", "atol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_flow_config_rejects_non_finite_tolerances(field, value):
    with pytest.raises(ValueError):
        D.FlowConfig(**{field: value}).validate()


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_minimize_rejects_bad_tolerance(census_tri, tol):
    with pytest.raises(ValueError):
        D.minimize_energy(census_metric(census_tri), tol=tol)


def test_flow_converges_to_equilibrium(census_tri):
    trace = D.flow(census_metric(census_tri), D.FlowConfig())
    assert trace.status == "converged"
    assert abs(trace.x[-1][0] - XSTAR) < 1e-8
    assert np.abs(trace.K[-1]).max() < 1e-12
    assert (np.diff(trace.t) > 0).all()
    assert trace.witness is None


def test_flow_trace_shapes(census_tri):
    trace = D.flow(census_metric(census_tri), D.FlowConfig())
    n = trace.t.size
    assert trace.x.shape == (n, 1) and trace.K.shape == (n, 1)
    assert trace.total_curv.shape == (n,) and trace.H.shape == (n,)
    assert np.allclose(trace.total_curv, (trace.K ** 2).sum(axis=1))


def test_flow_energy_column_is_the_energy(census_tri):
    # potentials are relative to the unit regular shape, so they vanish at
    # x = 1 on the census gluing; each row of H is the energy of its x
    assert np.array_equal(state(census_metric(census_tri)).potentials(),
                          np.zeros(2))
    trace = D.flow(census_metric(census_tri, 2.0), D.FlowConfig())
    m = census_metric(census_tri)
    for k in (0, trace.t.size // 2, -1):
        H = state(m.with_lengths(trace.x[k])).H
        assert abs(trace.H[k] - H) <= 1e-12


def test_flow_immediate_convergence_at_equilibrium(census_tri):
    trace = D.flow(census_metric(census_tri, XSTAR), D.FlowConfig())
    assert trace.status == "converged"
    assert trace.steps_accepted == 0
    assert trace.t.size == 1 and trace.t[0] == 0.0
    assert trace.total_curv[0] <= 1e-12 ** 2 * census_tri.n_edges


def test_flow_monotonicity(census_tri, rng):
    cfg = D.FlowConfig()
    bound = 10.0 * (cfg.atol + cfg.rtol)
    for _ in range(4):
        x0 = np.exp(rng.uniform(-0.8, 0.8, size=1))
        trace = D.flow(census_metric(census_tri).with_lengths(x0), cfg)
        assert (np.diff(trace.total_curv) <= bound).all()
        assert (np.diff(trace.H) <= bound).all()


def test_flow_near_degenerate_start(census_tri):
    # x0 = 0.05: either converges or degenerates with a witness; all
    # samples stay finite either way
    trace = D.flow(census_metric(census_tri, 0.05), D.FlowConfig())
    assert trace.status in ("converged", "degenerated")
    assert np.isfinite(trace.x).all() and np.isfinite(trace.K).all()
    if trace.status == "degenerated":
        assert trace.witness is not None
    else:
        assert abs(trace.x[-1][0] - XSTAR) < 1e-8


def test_flow_degenerates_on_torus_instance(torus_tri):
    # no admissible equilibrium exists for a torus link, so the flow must
    # leave the admissible set in finite time
    m = M.ConeMetric(tri=torus_tri, x=np.ones(2))
    trace = D.flow(m, D.FlowConfig(t_max=100.0))
    assert trace.status == "degenerated"
    wit = trace.witness
    assert wit["kind"] in ("corner_cosine", "vertex_sum")
    assert (np.diff(trace.H) <= 1e-9).all()


def test_flow_degenerates_on_sampled_six_tet_gluing(sampled6_tri):
    # valences 5, 1, 30: the flow from x = 1 ends in one of its three states
    # (here degenerated, with a witness), never in a solver error
    m = M.ConeMetric(tri=sampled6_tri, x=np.ones(sampled6_tri.n_edges))
    trace = D.flow(m, D.FlowConfig())
    assert trace.status == "degenerated"
    wit = trace.witness
    assert wit["kind"] in ("corner_cosine", "vertex_sum")
    assert 0 <= wit["tet"] < sampled6_tri.tet_count
    assert (np.diff(trace.H) <= 1e-9).all()


@pytest.mark.parametrize("tri_fixture", ["torus_tri", "multi_tri"])
def test_minimize_without_equilibrium_fails_in_the_minimizer(tri_fixture, request):
    # neither gluing has an equilibrium; the failure must come from the
    # Newton descent itself, not from a length solve below it
    tri = request.getfixturevalue(tri_fixture)
    with pytest.raises((ConvergenceError, DefinitenessError)) as info:
        D.minimize_energy(M.ConeMetric(tri=tri, x=np.ones(tri.n_edges)))
    assert "length solve" not in str(info.value)


def test_minimize_stops_at_degeneration_with_witness(multi_tri):
    # from x = 1 the descent walks towards the boundary of the admissible
    # set; it must stop at the flow's degeneration floor and name the corner
    m = M.ConeMetric(tri=multi_tri, x=np.ones(multi_tri.n_edges))
    with pytest.raises(ConvergenceError) as info:
        D.minimize_energy(m)
    margin, witness = M.evaluate(multi_tri, info.value.last).margin()
    assert 0 < margin < D.FlowConfig().degeneration_margin
    assert str(witness) in str(info.value)


def test_flow_rk4_matches_adaptive(census_tri):
    m = census_metric(census_tri)
    a = D.flow(m, D.FlowConfig())
    b = D.flow(m, D.FlowConfig(method="rk4_fixed", initial_step=0.005, t_max=8.0))
    assert b.status == "converged"
    assert abs(a.x[-1][0] - b.x[-1][0]) < 1e-10


def test_flow_heat_equation_consistency(census_tri):
    # dK/dt along the flow equals J K (chain rule through dx/dt = K)
    trace = D.flow(census_metric(census_tri), D.FlowConfig())
    m = census_metric(census_tri)
    delta = 1e-5
    for idx in (1, len(trace.t) // 3, len(trace.t) // 2):
        x = trace.x[idx]
        K = trace.K[idx]
        J = state(m.with_lengths(x)).jacobian()
        kp = state(m.with_lengths(x + delta * K)).K
        km = state(m.with_lengths(x - delta * K)).K
        fd = (kp - km) / (2 * delta)
        assert np.abs(fd - J @ K).max() < 1e-6 * max(1.0, np.abs(K).max())


def test_flow_determinism(census_tri):
    m = census_metric(census_tri, 1.3)
    a = D.flow(m, D.FlowConfig())
    b = D.flow(m, D.FlowConfig())
    assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)
    assert a.status == b.status


def test_flow_rejects_inadmissible_start(census_tri):
    with pytest.raises(InadmissibleShapeError):
        D.flow(census_metric(census_tri, 40.0), D.FlowConfig())


def test_minimize_energy(census_tri):
    m_opt, rep = D.minimize_energy(census_metric(census_tri), tol=1e-12)
    assert abs(m_opt.x[0] - XSTAR) < 1e-10
    assert rep.iterations <= 20
    assert rep.K_norm < 1e-12


def test_minimize_then_flow_converges_at_once(census_tri):
    m_opt, _ = D.minimize_energy(census_metric(census_tri))
    trace = D.flow(m_opt, D.FlowConfig())
    assert trace.status == "converged"
    assert trace.steps_accepted == 0


def test_flow_newton_agreement(census_tri):
    m = census_metric(census_tri, 1.6)
    trace = D.flow(m, D.FlowConfig())
    m_opt, _ = D.minimize_energy(m)
    assert trace.status == "converged"
    assert abs(trace.x[-1][0] - m_opt.x[0]) < 1e-7


def test_attractor_experiment(census_tri):
    m_eq, _ = D.minimize_energy(census_metric(census_tri))
    rep = D.attractor_experiment(m_eq, radius=0.01, trials=12, seed=4,
                                 cfg=D.FlowConfig())
    assert rep.recovered == 12 and rep.fraction == 1.0
    assert rep.max_distance < D.RECOVERY_TOL
    rep2 = D.attractor_experiment(m_eq, radius=0.01, trials=12, seed=4,
                                  cfg=D.FlowConfig())
    assert rep.distances == rep2.distances


def test_attractor_zero_radius(census_tri):
    m_eq, _ = D.minimize_energy(census_metric(census_tri))
    rep = D.attractor_experiment(m_eq, radius=0.0, trials=3, seed=0,
                                 cfg=D.FlowConfig())
    assert rep.fraction == 1.0


def test_attractor_requires_equilibrium(census_tri):
    with pytest.raises(ValueError):
        D.attractor_experiment(census_metric(census_tri), radius=0.01,
                               trials=2, seed=0, cfg=D.FlowConfig())


def test_rigidity_probe(census_tri):
    for val in (1.0, XSTAR):
        rep = D.rigidity_probe(census_metric(census_tri, val))
        assert rep.nonsingular
        assert rep.sigma_min > 0
        # J symmetric: singular values are absolute eigenvalues
        J = state(census_metric(census_tri, val)).jacobian()
        eigs = np.sort(np.abs(np.linalg.eigvalsh(J)))
        assert np.abs(np.sort(rep.singular_values) - eigs).max() < 1e-10


def test_minimize_one_edge_128_reaches_regular_length(one_edge128_tri):
    # The regular structure: every angle pi/384, so cosh x = c / (2c - 1)
    # with c = cos(pi/384).  Angles near 0 must keep their digits for K to
    # reach 1e-12.
    c = np.cos(np.pi / 384)
    m, rep = D.minimize_energy(M.ConeMetric(tri=one_edge128_tri, x=np.ones(1)),
                               tol=1e-12)
    assert rep.K_norm < 1e-12
    assert abs(m.x[0] - np.arccosh(c / (2 * c - 1))) <= 1e-12
