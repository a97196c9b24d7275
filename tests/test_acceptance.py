"""Acceptance run: one test per numbered criterion, at the stated tolerances.

Every test prints a single `criterion NN: PASS/FAIL` line directly to the
terminal (bypassing capture) and then asserts, so a bare `pytest -v` shows
both the verdict lines and the usual pass/fail roll-up.  Criteria 1 to 9
run the invariant battery's own check functions (`propsuite`) at their own
seeds and sample sizes and print each check's detail; a property has one
implementation, which the battery and the criterion share.  The oracles
that only the criteria call for, bisection for the regular equilibrium and
the symmetric census assignment, stay here.
"""

import json
import math

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import cli
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal import propsuite, serialize
from hyperideal import tetgeom
from hyperideal import triangulation as tri_mod

from conftest import CENSUS_JSON, census_metric, sample_admissible, spec_json


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bisect_regular_equilibrium(angle, lo=1e-3, hi=5.0, tol=1e-14):
    """Solve cos(angle) = cosh x / (2 cosh x - 1) by bisection."""
    def f(x):
        return math.cos(angle) - math.cosh(x) / (2.0 * math.cosh(x) - 1.0)
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def census_equilibrium(census_tri):
    """Converged flow from the unit metric, shared by criteria 5 and 8."""
    trace = D.flow(census_metric(census_tri), D.FlowConfig())
    assert trace.status == "converged"
    return trace


def test_criterion_01_pipeline_oracle_equivalence(capsys):
    c = propsuite.oracle_agreement(np.random.default_rng(101), 1000)
    _verdict(capsys, 1, c.ok, c.detail)


def test_criterion_02_angle_length_jacobian(capsys):
    c = propsuite.jacobian_spd(
        sample_admissible(np.random.default_rng(102), 500))
    _verdict(capsys, 2, c.ok, c.detail)


def test_criterion_03_schlafli_formula(capsys):
    rng = np.random.default_rng(103)
    shapes = sample_admissible(rng, 100)
    ends = tetgeom.angles_from_lengths(sample_admissible(rng, 20))
    lams = 0.3 + 0.4 * rng.random(20)
    ref = tetgeom.REF_ANGLES
    paths = [(ref, (1 - lam) * ref + lam * a, a) for a, lam in zip(ends, lams)]
    c = propsuite.schlafli_exact(shapes, paths)
    _verdict(capsys, 3, c.ok, c.detail)


def test_criterion_04_assembled_jacobian_and_flow_monotonicity(capsys):
    spec = tri_mod.search_gluings(2, tri_mod.single_hyperbolic_class)[0]
    assert spec_json(spec) == CENSUS_JSON
    tri = tri_mod.build(spec)
    rng = np.random.default_rng(104)
    metrics = [census_metric(tri, float(v))
               for v in rng.uniform(0.1, 5.0, size=100)]
    traces = [D.flow(census_metric(tri, float(v)))
              for v in rng.uniform(0.3, 2.5, size=10)]
    checks = [propsuite.gradient_and_jacobian(metrics),
              propsuite.lyapunov(traces),
              propsuite.heat_equation(tri, traces)]
    _verdict(capsys, 4, all(c.ok for c in checks),
             "; ".join(c.detail for c in checks))


def test_criterion_05_flow_equilibrium_attractor_newton(capsys, census_tri,
                                                        census_equilibrium):
    trace = census_equilibrium
    x_star = _bisect_regular_equilibrium(math.pi / 6)
    gap = abs(float(trace.x[-1][0]) - x_star)
    m_eq = census_metric(census_tri).with_lengths(trace.x[-1])
    m_opt, rep = D.minimize_energy(census_metric(census_tri))
    newton_gap = abs(float(m_opt.x[0]) - x_star)
    checks = [propsuite.solver_agreement(trace, m_opt, rep),
              propsuite.attractor(m_eq, np.random.default_rng(105), 50)]
    ok = all(c.ok for c in checks) and gap < 1e-8 and newton_gap < 1e-10
    _verdict(capsys, 5, ok,
             "; ".join(c.detail for c in checks) + f"; flow vs bisection "
             f"{gap:.1e} (< 1e-8), Newton vs bisection {newton_gap:.1e} "
             f"(< 1e-10)")


def test_criterion_06_rigidity_singular_values(capsys, census_tri, torus_tri):
    rng = np.random.default_rng(106)
    metrics = [census_metric(census_tri, float(v))
               for v in rng.uniform(0.1, 5.0, size=100)]
    kept = 0
    while kept < 40:
        x = rng.uniform(0.4, 2.0, size=2)
        m = M.ConeMetric(tri=torus_tri, x=x)
        if M.evaluate(torus_tri, x).margin()[0] > 0:
            metrics.append(m)
            kept += 1
    c = propsuite.rigidity(metrics)
    _verdict(capsys, 6, c.ok, c.detail)


def test_criterion_07_lp_feasibility_witness(capsys, census_tri):
    c = propsuite.lp_witness(census_tri, A.lp_feasibility(census_tri))
    # the census oracle: the symmetric pi/6 assignment is feasible
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    A.validate_assignment(sym)
    sym_ok = float(np.abs(A.edge_sums(sym) - 2 * math.pi).max()) < 1e-12 \
        and float(tetgeom.vertex_angle_sums(sym.angles).max()) < math.pi
    _verdict(capsys, 7, c.ok and sym_ok,
             f"{c.detail} (pi/6 = {math.pi / 6!r}); symmetric pi/6 "
             f"assignment feasible")


def test_criterion_08_volume_maximization(capsys, census_tri,
                                          census_equilibrium):
    rng = np.random.default_rng(108)
    base = np.full((2, 6), math.pi / 6)
    d = A._project_gradient(census_tri.quotient, rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    checks = [propsuite.volmax_kkt(census_tri, start, census_equilibrium.x[-1]),
              propsuite.concavity(census_tri, base, rng, 400)]
    _verdict(capsys, 8, all(c.ok for c in checks),
             "; ".join(c.detail for c in checks))


def test_criterion_09_nonconvexity_witness_persisted(capsys, tmp_path):
    probe = propsuite.probe_length_space_convexity(1500, seed=0)
    path = tmp_path / "witnesses.json"
    serialize.write_json(path, probe.to_json_obj())
    c = propsuite.convexity_probe(probe, serialize.load_json(path))
    _verdict(capsys, 9, c.ok, f"{c.detail}, persisted to JSON and reloaded")


def test_criterion_10_determinism_byte_identical(capsys, tmp_path):
    tri = tmp_path / "census.json"
    tri.write_text(json.dumps(CENSUS_JSON))
    met = tmp_path / "m.json"
    met.write_text(json.dumps({"lengths": [1.0]}))
    commands = {
        "validate": ["validate", "--tri", str(tri)],
        "search": ["search", "--tets", "2", "--filter", "census", "--first"],
        "shapes": ["shapes", "--tri", str(tri), "--metric", str(met)],
        "flow": ["flow", "--tri", str(tri), "--metric", str(met)],
        "minimize": ["minimize", "--tri", str(tri), "--metric", str(met)],
        "lp": ["lp", "--tri", str(tri)],
        "volmax": ["volmax", "--tri", str(tri)],
        "propsuite": ["propsuite", "--seed", "3", "--probe-trials", "800"],
    }
    runs = []
    for tag in ("a", "b"):
        outputs = {}
        for name, argv in commands.items():
            ext = ".csv" if name == "flow" else ".json"
            out = str(tmp_path / f"{name}_{tag}{ext}")
            assert cli.main(argv + ["--out", out]) == 0, name
            outputs[name] = open(out, "rb").read()
            if name == "flow":
                outputs["flow_status"] = open(out + ".status.json",
                                              "rb").read()
            man = json.loads(open(out + ".manifest.json").read())
            man.pop("started"), man.pop("finished")
            outputs[name + "_manifest"] = json.dumps(man)
        runs.append(outputs)
    mismatched = [k for k in runs[0] if runs[0][k] != runs[1][k]]
    _verdict(capsys, 10, not mismatched,
             f"{len(commands)} commands rerun byte-identical "
             f"(mismatches: {mismatched or 'none'})")
