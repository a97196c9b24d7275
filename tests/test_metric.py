"""Curvature map, assembled Jacobian, and the energy on triangulations."""

import math

import numpy as np
import pytest

from hyperideal import metric as M
from hyperideal import tetgeom
from hyperideal.errors import (ConvergenceError, DefinitenessError,
                               InadmissibleShapeError)
from hyperideal.triangulation import EDGE_VERTEX_PAIRS

from conftest import XSTAR, census_metric, state

TWO_PI = 2.0 * math.pi


def test_cone_metric_validation(census_tri):
    with pytest.raises(InadmissibleShapeError) as exc:
        M.ConeMetric(tri=census_tri, x=np.array([-1.0]))
    assert exc.value.reason == "nonpositive_length"
    with pytest.raises(ValueError):
        M.ConeMetric(tri=census_tri, x=np.array([1.0, 2.0]))
    m = census_metric(census_tri)
    with pytest.raises(ValueError):
        m.x[0] = 2.0  # read-only


@pytest.mark.parametrize("x", [[1.0, 5.0], [], [[1.0]]],
                         ids=("too_long", "empty", "nested"))
def test_evaluate_rejects_wrong_shape(census_tri, x):
    # one edge class: anything but shape (1,) is refused, never read in part
    with pytest.raises(ValueError, match=r"metric needs 1 lengths, got shape"):
        M.evaluate(census_tri, x)


def test_curvature_at_equilibrium(census_tri):
    st = state(census_metric(census_tri, XSTAR))
    assert abs(st.S[0] - TWO_PI) < 1e-10
    assert abs(st.K[0]) < 1e-10


def test_curvature_at_ones(census_tri):
    st = state(census_metric(census_tri))
    a = math.acos(math.cosh(1.0) / (2.0 * math.cosh(1.0) - 1.0))
    assert abs(st.S[0] - 12 * a) < 1e-12
    assert abs(st.K[0] - (TWO_PI - 12 * a)) < 1e-12
    assert st.K[0] < 0


def test_angle_sum_double_counting(census_tri, torus_tri, rng):
    for tri in (census_tri, torus_tri):
        x = np.exp(rng.uniform(-0.5, 0.3, size=tri.n_edges))
        m = M.ConeMetric(tri=tri, x=x)
        st = state(m)
        assert abs(st.S.sum() - st.angles.sum()) < 1e-12


def test_inadmissible_metric_locates_tet(torus_tri):
    # lengths that break some tetrahedron: the error names the tet
    m = M.ConeMetric(tri=torus_tri, x=np.array([0.01, 12.0]))
    with pytest.raises(InadmissibleShapeError) as exc:
        state(m)
    assert exc.value.tet in (0, 1)


def test_solve_definite_certifies_or_raises_definiteness_error():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -1.0])
    assert np.array_equal(M.solve_definite(A, b, "A"), np.linalg.solve(A, b))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(DefinitenessError) as info:
        M.solve_definite(indefinite, b, "test matrix")
    # numpy's LinAlgError is a ValueError, which the CLI reads as bad input
    assert not isinstance(info.value, (ValueError, np.linalg.LinAlgError))
    assert "test matrix" in str(info.value)


def test_line_search_halves_past_infeasible_candidates():
    tried = []

    def trial(alpha):
        tried.append(alpha)
        return (0.0, "cand") if alpha <= 0.25 else None

    assert M.line_search(1.0, -1.0, trial, "unused", last=None) == (0.25, 0.0, "cand")
    assert tried == [1.0, 0.5, 0.25]


def test_line_search_noise_floor_accepts_first_feasible():
    # below the float resolution of f the decrease test is not applied:
    # the first feasible candidate wins even though f went up
    def trial(alpha):
        return (2.0, alpha) if alpha <= 0.5 else None

    assert M.line_search(1.0, -1e-20, trial, "unused", last=None)[0] == 0.5
    # with a resolvable slope the same candidates never pass
    with pytest.raises(ConvergenceError):
        M.line_search(1.0, -1.0, trial, "no decrease", last=None)


def test_line_search_failure_names_caller():
    calls = []
    last = np.array([1.0, 2.0])

    def trial(alpha):
        calls.append(alpha)

    with pytest.raises(ConvergenceError) as info:
        M.line_search(0.0, -1.0, trial, "caller's message", last=last)
    assert str(info.value) == "caller's message"
    assert info.value.last is last
    assert len(calls) == 60 and calls[-1] == 0.5 ** 59


def test_line_search_ascent_and_descent_agree_on_the_bound(rng):
    # maximize_volume tests v >= v0 + 1e-4 alpha s as descent on -v; a
    # candidate exactly on the bound, or one ulp either side of it, gets
    # the same verdict both ways
    for v0, s in zip(rng.uniform(-5.0, 5.0, 200), rng.uniform(1e-3, 10.0, 200)):
        bound = v0 + 1e-4 * 1.0 * s
        for v in (bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)):
            def trial(alpha, v=v):
                return (-v, "first") if alpha == 1.0 else (-np.inf, "later")

            _, _, which = M.line_search(-v0, -s, trial, "unused", last=None)
            assert (which == "first") == (v >= bound)


def test_jacobian_fd_and_definiteness(census_tri, torus_tri, rng):
    h = 1e-5
    for tri in (census_tri, torus_tri):
        for _ in range(8):
            x = np.exp(rng.uniform(-0.4, 0.4, size=tri.n_edges))
            m = M.ConeMetric(tri=tri, x=x)
            try:
                J = state(m).jacobian()
            except InadmissibleShapeError:
                continue
            fd = np.zeros_like(J)
            for j in range(tri.n_edges):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (state(m.with_lengths(xp)).K
                            - state(m.with_lengths(xm)).K) / (2 * h)
            assert np.abs(J - fd).max() < 1e-6
            assert np.abs(J - J.T).max() < 1e-8
            assert np.linalg.eigvalsh(0.5 * (J + J.T)).max() < 0


def test_energy_gradient_identity_and_fd(census_tri, rng):
    h = 1e-6
    for _ in range(10):
        x = np.exp(rng.uniform(-0.6, 0.6, size=1))
        m = M.ConeMetric(tri=census_tri, x=x)
        st = state(m)
        hp = state(m.with_lengths(x + h)).H
        hm = state(m.with_lengths(x - h)).H
        assert abs((hp - hm) / (2 * h) + st.K[0]) < 1e-6  # grad H = -K


def test_energy_hessian_is_minus_jacobian(census_tri):
    h = 1e-5
    x = np.array([0.9])
    m = M.ConeMetric(tri=census_tri, x=x)
    J = state(m).jacobian()
    gp = -state(m.with_lengths(x + h)).K
    gm = -state(m.with_lengths(x - h)).K
    hess = (gp - gm) / (2 * h)
    assert abs(hess[0] - (-J[0, 0])) < 1e-5
    assert hess[0] > 0


def test_energy_gradient_zero_at_equilibrium(census_tri):
    st = state(census_metric(census_tri, XSTAR))
    assert np.abs(st.K).max() < 1e-10  # grad H = -K


def test_assembly_block_ordering(census_tri):
    # dropping one tetrahedron's block (here: halving the two identical
    # blocks) strictly raises the top eigenvalue of the assembled J
    m = census_metric(census_tri, 0.8)
    st = state(m)
    J, X = st.jacobian(), st.X
    block = np.zeros_like(J)
    cm = M.class_matrix(census_tri)
    Jt = tetgeom.jacobian_angles_lengths(X[0])
    for i in range(6):
        for j in range(6):
            block[cm[0, i], cm[0, j]] -= Jt[i, j]
    partial = J - block
    assert (np.linalg.eigvalsh(0.5 * (partial + partial.T)).max()
            > np.linalg.eigvalsh(0.5 * (J + J.T)).max())


def test_curvature_not_scale_invariant(census_tri):
    m = census_metric(census_tri)
    k1 = state(m).K
    k2 = state(m.with_lengths(1.7 * m.x)).K
    assert np.abs(k1 - k2).max() > 1e-3


def test_metric_margin_witness(census_tri):
    margin, wit = M.evaluate(census_tri, np.ones(1)).margin()
    assert margin > 0
    assert wit["kind"] in ("corner_cosine", "vertex_sum")
    assert 0 <= wit["tet"] < 2
    # margin matches the per-tet computation
    assert abs(margin - tetgeom._pipeline(np.ones(6)).margin) < 1e-15


@pytest.mark.parametrize("x, witness", [
    ([-1.0], (0, 0, -1.0)),
    ([0.0], (0, 0, 0.0)),
    ([400.0], (0, 0, 400.0)),
], ids=["negative", "zero", "above_max"])
def test_margin_of_rejected_lengths(census_tri, x, witness):
    # The mirrored shape of x = -1 has a healthy corner; the length rule
    # still decides first.
    ev = M.evaluate(census_tri, x)
    assert not ev.ok.any()
    t, e, value = witness
    assert ev.margin() == (-math.inf, {"tet": t, "kind": "length",
                                       "edge": e, "value": value})


def test_margin_names_the_rejected_tetrahedron(multi_tri):
    # Edge class 2 is corner (1, 0) alone, class 1 is corner (0, 5).
    ev = M.evaluate(multi_tri, [1.0, 1.0, -0.5])
    assert list(ev.ok) == [True, False]
    assert ev.margin() == (-math.inf, {"tet": 1, "kind": "length",
                                       "edge": 0, "value": -0.5})
    ev = M.evaluate(multi_tri, [1.0, 400.0, 0.0])
    assert ev.margin()[1] == {"tet": 0, "kind": "length", "edge": 5,
                              "value": 400.0}


def _ref_margin(ev):
    """Evaluation.margin() by brute force: the first length outside
    (0, MAX_LENGTH] in (tet, edge) order, else the first smallest slack in
    (tet, edges 0-5, vertices 0-3) order, a NaN slack counting as -inf."""
    X, cos, vs = ev.X, ev.pipeline.cosines, ev.pipeline.vsums
    for t in range(len(X)):
        for e in range(6):
            if not 0.0 < X[t, e] <= tetgeom.MAX_LENGTH:
                return -math.inf, {"tet": t, "kind": "length", "edge": e,
                                   "value": float(X[t, e])}
    best = None
    for t in range(len(X)):
        slots = [(1.0 - abs(float(cos[t, e])),
                  {"tet": t, "kind": "corner_cosine", "edge": e,
                   "vertex": EDGE_VERTEX_PAIRS[e][0], "value": float(cos[t, e])})
                 for e in range(6)]
        slots += [(math.pi - float(vs[t, v]),
                   {"tet": t, "kind": "vertex_sum", "vertex": v,
                    "value": float(vs[t, v])}) for v in range(4)]
        for slack, witness in slots:
            slack = -math.inf if math.isnan(slack) else slack
            if best is None or slack < best[0]:
                best = (slack, witness)
    return best


@pytest.mark.parametrize("tri_fixture", ["multi_tri", "sampled6_tri", "ntet12_tri"])
def test_margin_matches_brute_force_reference(tri_fixture, request):
    tri = request.getfixturevalue(tri_fixture)
    rng = np.random.default_rng(19)
    n = tri.n_edges
    xs = [np.ones(n), np.full(n, 2.0), np.full(n, 45.0)]
    for _ in range(40):
        xs.append(np.exp(rng.uniform(math.log(0.01), math.log(20.0), n)))
        xs.append(rng.uniform(130.0, 300.0, n))
        x = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
        x[rng.integers(n)] = rng.uniform(130.0, 300.0)
        xs.append(x)
        for bad in (-1.0, 0.0, 400.0, math.nan):
            x = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
            x[rng.integers(n)] = bad
            xs.append(x)
    kinds = set()
    for x in xs:
        ev = M.evaluate(tri, x)
        got, ref = ev.margin(), _ref_margin(ev)
        # repr tells NaN values apart from mismatches and pins every bit
        assert repr(got) == repr(ref), x
        kinds.add((got[1]["kind"], ev.admissible, got[0] == -math.inf))
    assert kinds >= {("corner_cosine", True, False), ("vertex_sum", True, False),
                     ("corner_cosine", False, False), ("vertex_sum", False, False),
                     ("corner_cosine", False, True), ("length", False, True)}


def test_quotient_built_once_per_triangulation(census_spec, monkeypatch):
    # A whole flow on a fresh triangulation builds its Quotient once, and
    # evaluations through the kept one match those through a new one bit
    # for bit.
    from hyperideal import dynamics
    from hyperideal import triangulation as tri_mod
    built = []
    init = M.Quotient.__init__

    def counting_init(self, tri):
        built.append(tri)
        init(self, tri)

    monkeypatch.setattr(M.Quotient, "__init__", counting_init)
    tri = tri_mod.build(census_spec)
    trace = dynamics.flow(M.ConeMetric(tri=tri, x=np.full(1, 2.0)))
    assert trace.status == "converged" and len(built) == 1
    assert tri.quotient is M.evaluate(tri, trace.x[0]).quotient
    for x in trace.x[::10]:
        kept = M.evaluate(tri, x)
        new = M.evaluate(tri_mod.build(census_spec), x)
        for name in ("X", "angles", "S", "K"):
            assert np.array_equal(getattr(kept, name), getattr(new, name))
        assert np.array_equal(kept.jacobian(), new.jacobian())
        assert kept.H == new.H
