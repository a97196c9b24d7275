"""The benchmark's workloads: seeded inputs, operations and output oracles.

A workload has a `setup(seed, workdir)` that makes its inputs from the seed
alone and warms the code up, and a `pass_ops(instance)` generator that
yields the operations of one pass in order.  The generator receives each
operation's result, or None when the operation failed, so later operations
can use earlier results.  An operation is (route, fn, check): `fn` calls
into the package, through the in-process CLI or the library, and `check`
raises WrongOutput when the result disagrees with the workload's oracle.
Every pass of a run repeats the same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import sampler
from hyperideal import angles, cli, dynamics, metric, serialize, triangulation

# `hyperideal search --tets 2 --filter census --first`: the 2-tet gluing with
# one edge class and every boundary link of Euler characteristic -1.
CENSUS_SPEC = {
    "tet_count": 2,
    "pairings": [[0, 0, 0, 1, [1, 2, 3, 0]], [0, 1, 0, 0, [3, 0, 1, 2]],
                 [0, 2, 1, 0, [1, 2, 0, 3]], [0, 3, 1, 1, [0, 2, 3, 1]],
                 [1, 0, 0, 2, [2, 0, 1, 3]], [1, 1, 0, 3, [0, 3, 1, 2]],
                 [1, 2, 1, 3, [1, 2, 3, 0]], [1, 3, 1, 2, [3, 0, 1, 2]]],
}
CENSUS_MATCHES = 4416      # 2-tet gluings passing the census filter
ALL_GLUINGS = 15552        # connected orientable 2-tet gluings
CENSUS_STARTS = 6          # flow/minimize starting lengths per pass
START_RANGE = (0.3, 3.0)   # log-uniform range of the starting lengths
SCALE_SIZES = (32, 64)
FLOOR_SIZES = (96,)
NTET_SIZES = (8, 12, 8, 12, 8, 12, 8, 12)

LENGTH_TOL = 1e-8          # flow and minimize against the analytic length
SPREAD_TOL = 1e-6          # volmax per-class spread, and volmax vs x*
EPS_TOL = 1e-9             # LP margin against pi / (3n)


class WrongOutput(Exception):
    """An operation finished but its output fails the workload's oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def regular_length(n: int) -> float:
    """Equilibrium length of a one-edge n-tet gluing.

    Its angle structure is regular with every angle pi/(3n), and a regular
    hyperideal tetrahedron with length x has cos(angle) = cosh x / (2 cosh x
    - 1).  For the 2-tet census this is x* = 0.59613389489083...
    """
    c = math.cos(math.pi / (3 * n))
    return math.acosh(c / (2.0 * c - 1.0))


@dataclass(frozen=True)
class Op:
    route: str
    fn: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float   # per operation; a miss is stopped and counted
    setup: Callable[[int, str], Any]
    pass_ops: Callable[[Any], Any]


def cli_call(argv: list) -> tuple:
    """Run `hyperideal <argv>` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _load(path):
    with open(path) as f:
        return json.load(f)


def _exit_ok(res) -> None:
    rc, _out, err = res
    expect(rc == 0, f"exit code {rc}: {err.strip()}")


# -- census: the documented CLI session on the 2-tet census gluing ----------

def census_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    tri = os.path.join(workdir, "census.json")
    serialize.write_json(tri, CENSUS_SPEC)
    # One draw per equal slice of [log 0.3, log 3]: log-uniform starts whose
    # spread over the range does not depend on the seed.
    lo, hi = map(math.log, START_RANGE)
    metrics = []
    for k in range(CENSUS_STARTS):
        x0 = math.exp(lo + (hi - lo) * (k + rng.random()) / CENSUS_STARTS)
        path = os.path.join(workdir, f"start{k}.json")
        serialize.write_json(path, {"lengths": [x0]})
        metrics.append(path)
    inst = {"dir": workdir, "tri": tri, "metrics": metrics}
    # Warm up every command but the second-long flow, each once.
    warmed = {"flow"}
    for op in census_ops(inst):
        if op.route not in warmed:
            warmed.add(op.route)
            op.check(op.fn())
    return inst


def census_ops(inst: dict):
    d, tri = inst["dir"], inst["tri"]
    x_star = regular_length(2)

    def out(name):
        return os.path.join(d, name)

    def check_validate(res):
        _exit_ok(res)
        rep = _load(out("validate.json"))
        expect(len(rep["edges"]) == 1, f"{len(rep['edges'])} edge classes")
        expect(all(l["chi"] < 0 for l in rep["links"]), "a link has chi >= 0")

    def check_shapes(res):
        _exit_ok(res)
        rep = _load(out("shapes.json"))
        expect(all(t["margin"] > 0 for t in rep["tets"]), "inadmissible tet")

    def check_flow(res):
        _exit_ok(res)
        st = _load(out("flow.csv") + ".status.json")
        expect(st["status"] == "converged", f"flow {st['status']}")
        err = abs(st["x_end"][0] - x_star)
        expect(err <= LENGTH_TOL, f"flow ends {err:.3e} from x*")

    def check_minimize(res):
        _exit_ok(res)
        err = abs(_load(out("minimize.json"))["lengths"][0] - x_star)
        expect(err <= LENGTH_TOL, f"minimize ends {err:.3e} from x*")

    def check_lp(res):
        _exit_ok(res)
        rep = _load(out("lp.json"))
        expect(rep["feasible"], "LP infeasible")
        err = abs(rep["epsilon"] - math.pi / 6)
        expect(err <= EPS_TOL, f"LP margin {err:.3e} from pi/6")

    def check_volmax(res):
        _exit_ok(res)
        rep = _load(out("volmax.json"))
        expect(rep["max_spread"] <= SPREAD_TOL,
               f"volmax spread {rep['max_spread']:.3e}")
        err = float(np.abs(np.array(rep["lengths"]) - x_star).max())
        expect(err <= SPREAD_TOL, f"volmax lengths {err:.3e} from x*")

    yield Op("validate", lambda: cli_call(
        ["validate", "--tri", tri, "--out", out("validate.json")]),
        check_validate)
    for m in inst["metrics"]:
        for route, name, check in (("shapes", "shapes.json", check_shapes),
                                   ("flow", "flow.csv", check_flow),
                                   ("minimize", "minimize.json",
                                    check_minimize)):
            yield Op(route, lambda route=route, m=m, name=name: cli_call(
                [route, "--tri", tri, "--metric", m, "--out", out(name)]),
                check)
    yield Op("lp", lambda: cli_call(["lp", "--tri", tri, "--out",
                                     out("lp.json")]), check_lp)
    yield Op("volmax", lambda: cli_call(["volmax", "--tri", tri, "--out",
                                         out("volmax.json")]), check_volmax)


# -- search: the two exhaustive 2-tet searches of the CLI --------------------

def search_setup(seed: int, workdir: str) -> dict:
    # The searches take no random input; the seed only orders them.
    order = ["search_first", "search_all"]
    random.Random(seed).shuffle(order)
    _exit_ok(cli_call(["search", "--tets", "1", "--filter", "any", "--out",
                       os.path.join(workdir, "warmup.json")]))
    return {"dir": workdir, "order": order}


def search_ops(inst: dict):
    first = os.path.join(inst["dir"], "first.json")
    every = os.path.join(inst["dir"], "all.json")

    def check_first(res):
        _exit_ok(res)
        expect(res[1].startswith(f"{CENSUS_MATCHES} match(es)"),
               f"unexpected summary {res[1].strip()!r}")
        expect(_load(first) == CENSUS_SPEC, "first match is not the census")

    def check_all(res):
        _exit_ok(res)
        rep = _load(every)
        expect(rep["count"] == ALL_GLUINGS == len(rep["gluings"]),
               f"{rep['count']} gluings, {len(rep['gluings'])} written")

    ops = {
        "search_first": Op("search_first", lambda: cli_call(
            ["search", "--tets", "2", "--filter", "census", "--first",
             "--out", first]), check_first),
        "search_all": Op("search_all", lambda: cli_call(
            ["search", "--tets", "2", "--filter", "any", "--out", every]),
            check_all),
    }
    for route in inst["order"]:
        yield ops[route]


# -- library workloads: LP, volume maximisation and Newton on sampled gluings

def _warm_library() -> None:
    tri = triangulation.build(
        triangulation.GluingSpec.from_json_obj(CENSUS_SPEC))
    lp = angles.lp_feasibility(tri)
    angles.maximize_volume(tri, lp.witness)
    dynamics.minimize_energy(metric.ConeMetric(tri=tri, x=np.ones(1)))


def _witness(lp):
    if lp is None or not lp.feasible:
        raise RuntimeError("no LP witness to start volume maximisation from")
    return lp.witness


def _check_witness(lp) -> None:
    if lp.feasible:
        try:
            angles.validate_assignment(lp.witness)
        except ValueError as exc:
            raise WrongOutput(f"LP witness: {exc}") from None


def _check_volmax(res) -> None:
    expect(res[1].max_spread <= SPREAD_TOL,
           f"volmax spread {res[1].max_spread:.3e}")


def _one_edge_ops(n: int, tri):
    """LP, volmax and minimize on a one-edge gluing, against x* and pi/(3n)."""
    x_star = regular_length(n)

    def check_lp(lp):
        expect(lp.feasible, "LP infeasible")
        err = abs(lp.epsilon - math.pi / (3 * n))
        expect(err <= EPS_TOL, f"LP margin {err:.3e} from pi/(3n)")
        _check_witness(lp)

    def check_volmax(res):
        _check_volmax(res)
        err = float(np.abs(res[1].lengths - x_star).max())
        expect(err <= SPREAD_TOL, f"volmax lengths {err:.3e} from x*")

    def check_minimize(res):
        err = abs(float(res[0].x[0]) - x_star)
        expect(err <= LENGTH_TOL, f"minimize ends {err:.3e} from x*")

    lp = yield Op("lp", lambda: angles.lp_feasibility(tri), check_lp)
    yield Op("volmax", lambda: angles.maximize_volume(tri, _witness(lp)),
             check_volmax)
    yield Op("minimize", lambda: dynamics.minimize_energy(
        metric.ConeMetric(tri=tri, x=np.ones(1))), check_minimize)


def _sized_setup(sizes, one_edge):
    def setup(seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        tris = [(n, sampler.sample(n, rng, one_edge=one_edge)[0])
                for n in sizes]
        _warm_library()
        return {"tris": tris}
    return setup


def one_edge_pass(inst: dict):
    for n, tri in inst["tris"]:
        yield from _one_edge_ops(n, tri)


def ntet_pass(inst: dict):
    """Every draw runs the LP; feasible ones also run volmax from the LP
    witness and minimize from x = 1, which must agree on every corner."""
    for _n, tri in inst["tris"]:
        lp = yield Op("lp", lambda: angles.lp_feasibility(tri), _check_witness)
        if lp is None or not lp.feasible:
            continue
        vm = yield Op("volmax", lambda: angles.maximize_volume(tri, lp.witness),
                      _check_volmax)

        def check_minimize(res):
            if vm is None:
                return
            corner = res[0].x[metric.class_matrix(tri)]
            err = float(np.abs(corner - vm[1].lengths).max())
            expect(err <= SPREAD_TOL, f"minimize and volmax differ by {err:.3e}")

        yield Op("minimize", lambda: dynamics.minimize_energy(
            metric.ConeMetric(tri=tri, x=np.ones(tri.n_edges))), check_minimize)


WORKLOADS = {w.name: w for w in (
    Workload("census", 30.0, census_setup, census_ops),
    Workload("search", 120.0, search_setup, search_ops),
    Workload("scale", 30.0, _sized_setup(SCALE_SIZES, True), one_edge_pass),
    Workload("floor", 60.0, _sized_setup(FLOOR_SIZES, True), one_edge_pass),
    Workload("ntet", 20.0, _sized_setup(NTET_SIZES, False), ntet_pass),
)}
