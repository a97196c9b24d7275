"""The cross-module invariant battery and its check functions."""

import numpy as np
import pytest

from hyperideal import dynamics as D
from hyperideal import propsuite, triangulation

from conftest import XSTAR, census_metric

# The battery's checks, in the order `run` makes them.
CHECK_NAMES = [
    "triangulation.rebuild_idempotent", "triangulation.census_accounting",
    "triangulation.pairing_involution", "triangulation.census_classes",
    "tetgeom.sine_cosine_identity", "tetgeom.jacobian_spd",
    "tetgeom.inversion_roundtrip", "tetgeom.schlafli_exact",
    "tetgeom.oracle_agreement", "tetgeom.regular_family_monotone",
    "tetgeom.convexity_probe", "metric.gradient_and_jacobian",
    "metric.scale_dependence", "metric.assembly_ordering", "dynamics.lyapunov",
    "dynamics.heat_equation", "dynamics.solver_agreement",
    "dynamics.determinism", "dynamics.rigidity", "angles.lp_witness",
    "angles.volmax_kkt", "angles.concavity", "dynamics.attractor",
]


def test_battery_clean_and_deterministic(census_tri, torus_tri):
    rep = propsuite.run(seed=7, probe_trials=800, census=census_tri,
                        multi=torus_tri, oracle_samples=120)
    assert rep.violations == 0
    failed = [c.name for c in rep.checks if not c.ok]
    assert failed == []
    names = [c.name for c in rep.checks]
    assert names == CHECK_NAMES
    assert len(names) == len(set(names))
    rep2 = propsuite.run(seed=7, probe_trials=800, census=census_tri,
                         multi=torus_tri, oracle_samples=120)
    assert rep.to_json_obj() == rep2.to_json_obj()


def test_report_json_shape(census_tri, torus_tri):
    rep = propsuite.run(seed=1, probe_trials=300, census=census_tri,
                        multi=torus_tri, oracle_samples=60)
    obj = rep.to_json_obj()
    assert obj["seed"] == 1
    assert obj["violations"] == 0
    assert all(set(c) == {"name", "ok", "detail"} for c in obj["checks"])
    assert obj["convexity_probe"]["trials"] == 300


def test_one_search_matches_two_searches():
    # References: the two full searches propsuite used to run.
    specs = triangulation.search_gluings(2, triangulation.single_hyperbolic_class)
    ref_census, ref_count = triangulation.build(specs[0]), len(specs)
    ref_multi = next(
        tri for tri in (triangulation.build(s, enforce_link_hypothesis=False)
                        for s in triangulation.search_gluings(
                            2, triangulation.any_gluing)[:200])
        if tri.n_edges >= 3)

    census, count, multi = propsuite._search_instances()
    assert census == ref_census
    assert count == ref_count == 4416
    assert multi == ref_multi


def test_attractor_experiment(census_tri, monkeypatch):
    m_eq, _ = D.minimize_energy(census_metric(census_tri))
    flow, ends = D.flow, []

    def recording_flow(m0, cfg=D.FlowConfig()):
        trace = flow(m0, cfg)
        ends.append(trace.x[-1])
        return trace

    monkeypatch.setattr(D, "flow", recording_flow)
    distances = []
    for _ in range(2):
        ends.clear()
        check = propsuite.attractor(m_eq, np.random.default_rng(4), 12)
        assert check.ok and check.detail.startswith("12/12 recovered")
        distances.append([float(np.abs(x - m_eq.x).max()) for x in ends])
        assert len(ends) == 12 and max(distances[-1]) < propsuite.RECOVERY_TOL
    assert distances[0] == distances[1]


def test_attractor_zero_radius(census_tri):
    m_eq, _ = D.minimize_energy(census_metric(census_tri))
    check = propsuite.attractor(m_eq, np.random.default_rng(0), 3, radius=0.0)
    assert check.ok and check.detail.startswith("3/3 recovered")


def test_attractor_requires_equilibrium(census_tri):
    with pytest.raises(ValueError):
        propsuite.attractor(census_metric(census_tri),
                            np.random.default_rng(0), 2)


def test_rigidity_probe(census_tri):
    # nonsingular, and (dK/dx being symmetric) the singular values are the
    # absolute eigenvalues
    for val in (1.0, XSTAR):
        check = propsuite.rigidity([census_metric(census_tri, val)])
        assert check.ok, check.detail
