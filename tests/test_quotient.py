"""The quotient operator against per-tetrahedron loop references.

Each reference below is a plain accumulation loop over corners in (t, e)
order, the way the package scattered before every per-class quantity went
through metric.Quotient.  The operator must reproduce the loops bit for
bit: CLI outputs are compared byte for byte across versions.
"""

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal import propsuite, tetgeom

from conftest import MULTI_JSON


def ref_sums(tri, V):
    S = np.zeros(tri.n_edges)
    np.add.at(S, M.class_matrix(tri).ravel(), V.ravel())
    return S


def ref_jacobian(tri, X):
    Jt = tetgeom.jacobian_angles_lengths(X)
    cm = M.class_matrix(tri)
    J = np.zeros((tri.n_edges, tri.n_edges))
    for t in range(tri.tet_count):
        np.add.at(J, (cm[t][:, None], cm[t][None, :]), -Jt[t])
    return J


def ref_project(tri, G):
    cm = M.class_matrix(tri)
    sums = np.zeros(tri.n_edges)
    np.add.at(sums, cm.ravel(), G.ravel())
    counts = np.zeros(tri.n_edges)
    np.add.at(counts, cm.ravel(), 1.0)
    return G - (sums / counts)[cm]


def ref_spreads(tri, X):
    cm = M.class_matrix(tri).ravel()
    lo = np.full(tri.n_edges, np.inf)
    hi = np.full(tri.n_edges, -np.inf)
    np.minimum.at(lo, cm, X.ravel())
    np.maximum.at(hi, cm, X.ravel())
    return hi - lo


@pytest.fixture(params=["census", "torus", "multi"])
def tri(request, census_tri, torus_tri, multi_tri):
    return {"census": census_tri, "torus": torus_tri,
            "multi": multi_tri}[request.param]


def test_quotient_matches_loop_reference(tri, rng):
    used = 0
    for _ in range(8):
        ev = M.evaluate(tri, np.exp(rng.uniform(-0.4, 0.4, tri.n_edges)))
        X = ev.X
        if not tetgeom.is_admissible(X).all():
            continue
        used += 1
        assert np.array_equal(ev.jacobian(), ref_jacobian(tri, X))
        assert np.array_equal(ev.S, ref_sums(tri, tetgeom.angles_from_lengths(X)))
        G = rng.normal(size=(tri.tet_count, 6))
        assign = A.AngleAssignment(tri=tri, angles=G)
        assert np.array_equal(A.edge_sums(assign), ref_sums(tri, G))
        assert np.array_equal(A._project_gradient(M.Quotient(tri), G),
                              ref_project(tri, G))
        assert np.array_equal(M.Quotient(tri).spread(G), ref_spreads(tri, G))
    assert used >= 4


def test_realize_structure_matches_per_tet_inversion(census_tri, rng):
    w = A.lp_feasibility(census_tri).witness.angles
    q = M.Quotient(census_tri)
    for scale in (0.0, 0.02, 0.05):
        a = w + scale * A._project_gradient(q, rng.normal(size=w.shape))
        real = A.realize_structure(A.AngleAssignment(tri=census_tri, angles=a))
        per_tet = np.array([tetgeom.lengths_from_angles(row) for row in a])
        assert np.array_equal(real.lengths, per_tet)


def test_margin_witness_is_flow_degeneration_witness(torus_tri):
    m = M.ConeMetric(tri=torus_tri, x=np.ones(2))
    cfg = D.FlowConfig(t_max=100.0)
    trace = D.flow(m, cfg)
    assert trace.status == "degenerated"
    margin, witness = M.evaluate(torus_tri, trace.x[-1]).margin()
    assert margin < cfg.degeneration_margin
    assert witness == trace.witness


def test_frozen_multiclass_gluing_is_propsuite_instance():
    tri = propsuite._search_instances()[2]
    assert tri.spec.to_json_obj() == MULTI_JSON
    assert tri.n_edges >= 3
