"""The cross-module invariant battery itself."""

from hyperideal import propsuite, triangulation


def test_battery_clean_and_deterministic(census_tri, torus_tri):
    rep = propsuite.run(seed=7, probe_trials=800, census=census_tri,
                        multi=torus_tri, oracle_samples=120)
    assert rep.violations == 0
    failed = [c.name for c in rep.checks if not c.ok]
    assert failed == []
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    # every module contributes checks
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"triangulation", "tetgeom", "metric", "dynamics",
                        "angles"}
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
