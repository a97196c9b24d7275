"""Flow integration and energy minimization."""

import dataclasses

import mpmath
import numpy as np
import pytest

from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal.errors import (ConvergenceError, DefinitenessError,
                               InadmissibleShapeError)

from conftest import XSTAR, census_metric, state


def test_flow_config_validation():
    D.FlowConfig().validate()
    assert [f.name for f in dataclasses.fields(D.FlowConfig)] == [
        "t_max", "curvature_tol", "degeneration_margin", "rtol", "atol"]
    with pytest.raises(ValueError):
        D.FlowConfig(t_max=-1.0).validate()
    with pytest.raises(ValueError):
        D.FlowConfig(curvature_tol=1e-14).validate()


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
    bound = 10.0 * (1e-14 + 1e-12)  # fixed, not read from cfg
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


def test_minimize_stops_at_degeneration_with_witness(multi_tri, monkeypatch):
    # from x = 1 the descent walks towards the boundary of the admissible
    # set; its line search refuses every candidate below the flow's
    # degeneration floor, and the descent stops naming the corner of the
    # last one refused
    iterates, refused = [], []
    search, evaluate = M.line_search, M.evaluate
    floor = D.FlowConfig().degeneration_margin

    def recording(*args, **kwargs):
        out = search(*args, **kwargs)
        iterates.append(out[2].x)
        return out

    def evaluating(*args):
        ev = evaluate(*args)
        if ev.admissible and ev.margin()[0] < floor:
            refused.append(ev.x)
        return ev

    monkeypatch.setattr(M, "line_search", recording)
    monkeypatch.setattr(M, "evaluate", evaluating)
    m = M.ConeMetric(tri=multi_tri, x=np.ones(multi_tri.n_edges))
    with pytest.raises(ConvergenceError) as info:
        D.minimize_energy(m)
    assert iterates and all(evaluate(multi_tri, x).margin()[0] >= floor
                            for x in iterates)
    assert info.value.last is refused[-1]
    margin, witness = evaluate(multi_tri, info.value.last).margin()
    assert 0 < margin < floor
    assert str(witness) in str(info.value)


def test_minimize_stops_at_a_fixed_point(multi_tri, monkeypatch):
    # From x = 0.3 the descent creeps along the degeneration floor until a
    # step no longer moves x, which every later step would repeat: it stops
    # at the first such step, raising the error and `last` the full 100
    # steps raised, after 42 line searches instead of 100.
    iterates = []
    search = M.line_search

    def recording(*args, **kwargs):
        out = search(*args, **kwargs)
        iterates.append(out[2].x)
        return out

    monkeypatch.setattr(M, "line_search", recording)
    x0 = np.full(multi_tri.n_edges, 0.3)
    with pytest.raises(ConvergenceError) as info:
        D.minimize_energy(M.ConeMetric(tri=multi_tri, x=x0))
    moved = [not np.array_equal(a, b)
             for a, b in zip([x0] + iterates[:-1], iterates)]
    assert moved == [True] * 41 + [False]
    assert str(info.value) == (
        "energy minimization degenerated: admissibility margin 1.000e-07 at "
        "{'tet': 0, 'kind': 'corner_cosine', 'edge': 1, 'vertex': 0, "
        "'value': 0.9999999000000002}")
    assert [v.hex() for v in info.value.last] == [
        "0x1.022413fb97ac6p-6", "0x1.0df059b6439d4p+3", "0x1.0df059b6439dep+3"]


@pytest.mark.parametrize("x0, accepted, rejected", [(2.0, 49, 0), (0.3, 26, 1)],
                         ids=("2.0", "0.3"))
def test_flow_step_counts_pinned(census_tri, x0, accepted, rejected):
    # the exprb53s3 step controller's accepted/rejected counts on the census
    trace = D.flow(census_metric(census_tri, x0), D.FlowConfig())
    assert trace.status == "converged"
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)


@pytest.mark.parametrize("tri_fixture, x0, t_max, rejections", [
    ("census_tri", 2.0, 50.0, (0, 0, 0)),
    ("torus_tri", 1.0, 100.0, (20, 7, 0)),
], ids=("census", "torus"))
def test_flow_rejections_by_reason_pinned(tri_fixture, x0, t_max, rejections,
                                          request):
    tri = request.getfixturevalue(tri_fixture)
    trace = D.flow(census_metric(tri, x0), D.FlowConfig(t_max=t_max))
    assert trace.rejections == dict(zip(D.REJECT_REASONS, rejections))
    assert sum(trace.rejections.values()) == trace.steps_rejected


def _phi_reference(k, z):
    # (e^z - sum_{j<k} z^j / j!) / z^k at 80 digits, by its series near 0
    z = mpmath.mpf(z)
    if abs(z) < 1e-3:
        return mpmath.nsum(lambda j: z ** j / mpmath.factorial(j + k),
                           [0, mpmath.inf])
    head = sum(z ** j / mpmath.factorial(j) for j in range(k))
    return (mpmath.exp(z) - head) / z ** k


def test_phi_functions_match_mpmath():
    # both sides of the switch from series to recurrence at |z| = 0.5, and
    # every positive z whose phi_k is a finite float (e^z overflows past 709)
    mags = np.concatenate((np.logspace(-10, 3, 131),
                           [0.5 - 1e-9, 0.5, 0.5 + 1e-9]))
    z = np.concatenate((-mags, mags[mags < 700.0]))
    got = D._phi(z)
    worst = 0.0
    with mpmath.workdps(80):
        for i, zi in enumerate(z):
            for k in range(1, 5):
                ref = _phi_reference(k, float(zi))
                worst = max(worst, float(abs((got[k - 1, i] - ref) / ref)))
    assert worst <= 1e-13
    assert np.isposinf(D._phi(np.array([1e3]))).all()


def _census_curvature(y):
    # K on the census gluing: both tetrahedra are regular, and the regular
    # shape of edge length y has every dihedral angle arccos(c / (2c - 1)),
    # c = cosh y; the one edge class has valence 12.
    c = mpmath.cosh(y)
    return 2 * mpmath.pi - 12 * mpmath.acos(c / (2 * c - 1))


@pytest.mark.parametrize("x0", [0.3, 1.0, 3.0])
def test_flow_follows_trajectory_oracle(census_tri, x0):
    # On one edge class dx/dt = K(x) separates: the time to reach x_k is the
    # integral of dy / K(y) from x0, independent of the code under test.
    # Rows with |K| > 1e-3 must sit on the exact trajectory to 5e-8 in x.
    trace = D.flow(census_metric(census_tri, x0), D.FlowConfig())
    assert trace.status == "converged"
    assert abs(trace.x[-1][0] - XSTAR) <= 1e-13
    with mpmath.workdps(25):
        assert abs(_census_curvature(mpmath.mpf(XSTAR))) < 1e-14
        t_exact, prev = mpmath.mpf(0), mpmath.mpf(x0)
        for k in range(1, trace.t.size):
            xk = mpmath.mpf(float(trace.x[k][0]))
            t_exact += mpmath.quad(lambda y: 1 / _census_curvature(y),
                                   [prev, xk])
            prev = xk
            K = float(trace.K[k][0])
            assert abs(K - float(_census_curvature(xk))) <= 1e-13
            if abs(K) > 1e-3:
                assert abs(float(t_exact) - trace.t[k]) * abs(K) <= 5e-8


@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
@pytest.mark.parametrize("x0", [0.3, 1.0, 3.0])
def test_flow_trace_accuracy_follows_rtol(census_tri, x0, rtol):
    # The same oracle at a loose and a tight tolerance: wherever |K| > 1e-3
    # the time gap to the exact trajectory, as a gap in x, stays below rtol.
    trace = D.flow(census_metric(census_tri, x0), D.FlowConfig(rtol=rtol))
    assert trace.status == "converged"
    with mpmath.workdps(25):
        t_exact, prev = mpmath.mpf(0), mpmath.mpf(x0)
        for k in range(1, trace.t.size):
            xk = mpmath.mpf(float(trace.x[k][0]))
            t_exact += mpmath.quad(lambda y: 1 / _census_curvature(y),
                                   [prev, xk])
            prev = xk
            K = abs(float(trace.K[k][0]))
            if K > 1e-3:
                assert abs(float(t_exact) - trace.t[k]) * K <= rtol


@pytest.mark.parametrize("x0", [0.3, 1.0, 3.0])
def test_step_is_fifth_order_against_exact_flow(census_tri, x0):
    # One step of size h lands at x(h), where the integral of dy / K(y) from
    # x0 is h.  Halving h must divide the step's error by at least 2^5.5 and
    # its error estimate by at least 2^4.5 (orders 6 and 5 locally).  With
    # atol = 1 and a vanishing rtol the error ratio is the estimate itself.
    # From h = 0.04 down, h |dK/dx| <= 0.43 at every start: at h = 0.08
    # from x0 = 0.3 the ratios are not yet asymptotic.
    ev = state(census_metric(census_tri, x0))
    J = ev.jacobian()
    lam, Q = np.linalg.eigh(J)
    cfg = D.FlowConfig(rtol=1e-300, atol=1.0)
    errors, estimates = [], []
    for h in (0.04, 0.02, 0.01):
        ev_new, estimate, _ = D._exprb53_step(census_tri, ev, J, lam, Q, h,
                                              cfg)
        with mpmath.workdps(30):
            exact = mpmath.findroot(
                lambda x: mpmath.quad(lambda y: 1 / _census_curvature(y),
                                      [x0, x]) - h,
                mpmath.mpf(float(ev_new.x[0])))
            errors.append(abs(float(ev_new.x[0] - exact)))
        estimates.append(estimate)
    for big, small in zip(errors, errors[1:]):
        assert big >= 2 ** 5.5 * small
    for big, small in zip(estimates, estimates[1:]):
        assert big >= 2 ** 4.5 * small


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


def test_minimize_refuses_a_step_below_the_floor(census_tri, monkeypatch):
    # From this start the first halving of the Newton step lands at a length
    # near 2.7e-4, admissible but below the degeneration floor: the line
    # search refuses it, halves again, and the descent reaches the
    # equilibrium the flow reaches.
    floor = D.FlowConfig().degeneration_margin
    evaluate, below = M.evaluate, []

    def evaluating(*args):
        ev = evaluate(*args)
        if ev.admissible and ev.margin()[0] < floor:
            below.append(ev.x[0])
        return ev

    m = census_metric(census_tri, 1.9637450605487472)
    monkeypatch.setattr(M, "evaluate", evaluating)
    m_opt, rep = D.minimize_energy(m)
    assert len(below) == 1 and 0 < below[0] < 1e-3
    assert rep.K_norm < 1e-12 and rep.step_sizes[0] == 0.25
    assert abs(m_opt.x[0] - XSTAR) < 1e-10
    monkeypatch.undo()
    trace = D.flow(m, D.FlowConfig())
    assert trace.status == "converged"
    assert abs(trace.x[-1][0] - m_opt.x[0]) < 1e-7


def test_minimize_one_edge_128_reaches_regular_length(one_edge128_tri):
    # The regular structure: every angle pi/384, so cosh x = c / (2c - 1)
    # with c = cos(pi/384).  Angles near 0 must keep their digits for K to
    # reach 1e-12.
    c = np.cos(np.pi / 384)
    m, rep = D.minimize_energy(M.ConeMetric(tri=one_edge128_tri, x=np.ones(1)),
                               tol=1e-12)
    assert rep.K_norm < 1e-12
    assert abs(m.x[0] - np.arccosh(c / (2 * c - 1))) <= 1e-12
