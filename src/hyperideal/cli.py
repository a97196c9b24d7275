"""Command-line front end.

Every command reads its inputs from explicit flags, writes machine output
to --out (JSON, or CSV for flow traces) and prints a short human summary to
stdout.  `main` then drops a `<out>.manifest.json` sidecar recording the
command, the file flags as `inputs`, every other flag as `config`, the
version and wall-clock times.  A command refuses by raising; `main` maps
the error to an exit code and writes no manifest.  Data files never contain
timestamps, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import __version__
from . import angles as angles_mod
from . import dynamics, metric as metric_mod, propsuite, serialize, tetgeom
from . import triangulation as tri_mod
from .errors import (BoundaryHypothesisError, ConvergenceError,
                     DefinitenessError, GluingError, HyperidealError,
                     InadmissibleShapeError)

EXIT_OK = 0
EXIT_INPUT = 2         # unreadable, ill-formed or invalid input, NaN included
EXIT_HYPOTHESIS = 3    # a boundary link has non-negative Euler characteristic
EXIT_DEGENERATED = 4   # the flow stopped at a degenerating tetrahedron
EXIT_TMAX = 5          # the flow ran out of time before converging
EXIT_INADMISSIBLE = 6  # a well-formed length or angle is not admissible
EXIT_NOCONVERGE = 7    # an iterative solver exhausted its budget
EXIT_VIOLATIONS = 8    # the invariant battery reported violations

_EPILOG = """\
exit codes:
  0  success (for `flow`: converged)
  2  unreadable or invalid input (NaN, Infinity, out-of-range numbers)
  3  boundary hypothesis violated (some link has chi >= 0)
  4  flow stopped: a tetrahedron degenerated (witness in the status file)
  5  flow stopped: t_max reached before convergence
  6  a well-formed length or angle outside the admissible set
  7  iterative solver failed to converge
  8  invariant battery found violations
"""

_INPUTS = ("tri", "metric", "start")

# Exit codes of the errors a command may raise; any other one exits 2.
_ERROR_EXITS = (
    (BoundaryHypothesisError, EXIT_HYPOTHESIS),
    (InadmissibleShapeError, EXIT_INADMISSIBLE),
    ((ConvergenceError, DefinitenessError), EXIT_NOCONVERGE),
)

_FILTERS = {
    "census": tri_mod.single_hyperbolic_class,
    "any": tri_mod.any_gluing,
    "torus": tri_mod.all_torus_links,
}


def _load_tri(path) -> tri_mod.Triangulation:
    return tri_mod.build(tri_mod.GluingSpec.from_json_obj(serialize.load_json(path)))


def _numbers(v) -> bool:
    """Whether v is a JSON array of numbers a float holds finitely (bools
    are not numbers here, nor are NaN, the infinities, or numbers beyond
    the float range, which parse as infinities or big integers)."""
    return isinstance(v, list) and all(
        (type(a) is float and math.isfinite(a))
        or (type(a) is int and abs(a) <= sys.float_info.max) for a in v)


def _load_metric(path, tri) -> metric_mod.ConeMetric:
    obj = serialize.load_json(path)
    if not isinstance(obj, dict) or "lengths" not in obj:
        raise GluingError("metric JSON must be an object with a 'lengths' array")
    if not _numbers(obj["lengths"]):
        raise GluingError("metric 'lengths' must be an array of numbers")
    return metric_mod.ConeMetric(tri=tri, x=np.array(obj["lengths"], dtype=float))


def _load_assignment(path, tri) -> angles_mod.AngleAssignment:
    obj = serialize.load_json(path)
    if not isinstance(obj, dict) or "angles" not in obj:
        raise GluingError("assignment JSON must be an object with an 'angles' array")
    rows = obj["angles"]
    if not (isinstance(rows, list) and all(_numbers(r) for r in rows)):
        raise GluingError("assignment 'angles' must be an array of arrays of numbers")
    for t, row in enumerate(rows):
        if len(row) != 6:
            raise GluingError(
                f"assignment row {t} has {len(row)} angles, expected 6")
    return angles_mod.AngleAssignment(tri=tri, angles=np.array(rows, dtype=float))


def _curvature_obj(ev: metric_mod.Evaluation) -> dict:
    return {
        "K": list(ev.K),
        "S": list(ev.S),
        "H": ev.H,
        "J_eigs": list(np.linalg.eigvalsh(ev.jacobian())),
    }


def cmd_validate(args) -> int:
    tri = _load_tri(args.tri)
    serialize.write_json(args.out, {
        "tet_count": tri.tet_count,
        "orientable": True,
        "edges": [{"id": ec.index, "valence": ec.valence,
                   "corners": [list(c) for c in ec.corners]}
                  for ec in tri.edge_classes],
        "vertex_classes": [[list(c) for c in vc] for vc in tri.vertex_classes],
        "links": [{"vertex_class": l.vertex_class, "chi": l.chi,
                   "triangles": l.triangles, "sides": l.sides,
                   "corners": l.corners}
                  for l in tri.boundary_links],
    })
    chis = ", ".join(str(l.chi) for l in tri.boundary_links)
    print(f"valid gluing: {tri.tet_count} tets, {tri.n_edges} edge class(es), "
          f"{len(tri.boundary_links)} boundary link(s) with chi = {chis}")
    return EXIT_OK


def cmd_search(args) -> int:
    if args.limit < 0:
        raise ValueError("--limit must be non-negative")
    specs = tri_mod.search_gluings(args.tets, _FILTERS[args.filter])
    if args.first:
        if not specs:
            raise ValueError(
                f"no {args.tets}-tet gluing matched filter '{args.filter}'")
        serialize.write_json(args.out, specs[0])
        print(f"{len(specs)} match(es); wrote the first to {args.out}")
        return EXIT_OK
    kept = specs if args.limit == 0 else specs[:args.limit]
    serialize.write_json(args.out, {
        "tet_count": args.tets,
        "filter": args.filter,
        "count": len(specs),
        "gluings": kept,
    })
    print(f"{len(specs)} gluing(s) matched filter '{args.filter}'"
          + (f", wrote first {len(kept)}" if len(kept) < len(specs) else ""))
    return EXIT_OK


def cmd_shapes(args) -> int:
    tri = _load_tri(args.tri)
    m = _load_metric(args.metric, tri)
    ev = metric_mod.evaluate(tri, m.x).raise_if_inadmissible()
    pl, X = ev.pipeline, ev.X
    arcs = tetgeom.arcs_from_lengths(X)
    tets = [{
        "index": t,
        "lengths": list(X[t]),
        "arcs": list(arcs[t]),
        "angles": list(pl.angles[t]),
        "vertex_sums": list(pl.vsums[t]),
        "margin": float(pl.margin[t]),
    } for t in range(tri.tet_count)]
    report = {"tets": tets, "curvature": _curvature_obj(ev)}
    serialize.write_json(args.out, report)
    kmax = max(abs(v) for v in report["curvature"]["K"])
    print(f"{tri.tet_count} admissible tet(s); max |K| = {kmax:.6g}")
    return EXIT_OK


def cmd_flow(args) -> int:
    tri = _load_tri(args.tri)
    m = _load_metric(args.metric, tri)
    fields = dataclasses.fields(dynamics.FlowConfig)
    cfg = dynamics.FlowConfig(**{f.name: getattr(args, f.name) for f in fields})
    trace = dynamics.flow(m, cfg)
    with open(args.out, "w") as f:
        f.write(serialize.trace_csv(trace))
    serialize.write_json(str(args.out) + ".status.json", {
        "status": trace.status,
        "t_end": float(trace.t[-1]),
        "steps_accepted": trace.steps_accepted,
        "steps_rejected": trace.steps_rejected,
        "rejections": trace.rejections,
        "x_end": list(trace.x[-1]),
        "K_end": list(trace.K[-1]),
        "witness": trace.witness,
    })
    print(f"flow {trace.status} at t = {trace.t[-1]:.6g} after "
          f"{trace.steps_accepted} steps; max |K| = "
          f"{float(np.abs(trace.K[-1]).max()):.3e}")
    if trace.status == "degenerated":
        print(f"degeneration witness: {trace.witness}")
        return EXIT_DEGENERATED
    if trace.status == "t_max_reached":
        return EXIT_TMAX
    return EXIT_OK


def cmd_minimize(args) -> int:
    tri = _load_tri(args.tri)
    m = _load_metric(args.metric, tri)
    m_opt, rep = dynamics.minimize_energy(m, tol=args.tol)
    serialize.write_json(args.out, {
        "lengths": list(m_opt.x),
        "iterations": rep.iterations,
        "K_norm": rep.K_norm,
        "H": rep.H_val,
        "step_sizes": list(rep.step_sizes),
        "curvature": _curvature_obj(metric_mod.evaluate(tri, m_opt.x)),
    })
    print(f"minimized in {rep.iterations} Newton step(s); "
          f"max |K| = {rep.K_norm:.3e}")
    return EXIT_OK


def cmd_lp(args) -> int:
    tri = _load_tri(args.tri)
    res = angles_mod.lp_feasibility(tri)
    serialize.write_json(args.out, {
        "feasible": res.feasible,
        "epsilon": res.epsilon,
        "witness": ({"angles": [list(r) for r in res.witness.angles]}
                    if res.witness is not None else None),
        "pivots": dict(zip(("phase1", "drive_out", "phase2"),
                           res.phase_pivots)),
    })
    if res.feasible:
        print(f"feasible: margin epsilon = {res.epsilon!r}")
    else:
        print("infeasible: the angle polytope has no interior point")
    return EXIT_OK


def cmd_volmax(args) -> int:
    tri = _load_tri(args.tri)
    if args.start is not None:
        start = _load_assignment(args.start, tri)
    else:
        lp = angles_mod.lp_feasibility(tri)
        if not lp.feasible:
            raise ValueError("the angle polytope is infeasible and --start "
                             "was not given")
        start = lp.witness
    assign, rep = angles_mod.maximize_volume(tri, start, tol=args.tol)
    serialize.write_json(args.out, {
        "angles": [list(r) for r in assign.angles],
        "objective": rep.objective,
        "iterations": rep.iterations,
        "grad_norm": rep.grad_norm,
        "spreads": list(rep.spreads),
        "max_spread": rep.max_spread,
        "lengths": [list(r) for r in rep.lengths],
    })
    print(f"volume maximized in {rep.iterations} step(s); "
          f"max per-class length spread = {rep.max_spread:.3e}")
    return EXIT_OK


def cmd_propsuite(args) -> int:
    report = propsuite.run(seed=args.seed, probe_trials=args.probe_trials)
    serialize.write_json(args.out, report.to_json_obj())
    for c in report.checks:
        mark = "ok " if c.ok else "FAIL"
        print(f"  [{mark}] {c.name}" + (f" ({c.detail})" if c.detail else ""))
    print(f"{len(report.checks)} checks, {report.violations} violation(s), "
          f"{len(report.probe.witnesses)} convexity witness(es)")
    return EXIT_OK if report.violations == 0 else EXIT_VIOLATIONS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every `main` call can share it."""
    p = argparse.ArgumentParser(
        prog="hyperideal",
        description="Curvature flow and angle structures on ideally "
                    "triangulated compact 3-manifolds with geodesic boundary.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a gluing file and report its "
                                        "edge/vertex classes and boundary links")
    q.add_argument("--tri", required=True, help="triangulation JSON")
    q.add_argument("--out", required=True, help="report JSON to write")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("search", help="enumerate closed orientable gluings")
    q.add_argument("--tets", type=int, choices=(1, 2), required=True)
    q.add_argument("--filter", choices=sorted(_FILTERS), default="census",
                   help="census: one edge class, all links chi < 0; "
                        "torus: all links chi = 0; any: no filter")
    q.add_argument("--limit", type=int, default=0,
                   help="cap the number of gluings written (0 = all)")
    q.add_argument("--first", action="store_true",
                   help="write only the first match, as a standalone gluing file")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("shapes", help="per-tetrahedron geometry and curvature "
                                      "of a metric")
    q.add_argument("--tri", required=True)
    q.add_argument("--metric", required=True, help="metric JSON with 'lengths'")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_shapes)

    q = sub.add_parser("flow", help="integrate the curvature flow dx/dt = K")
    q.add_argument("--tri", required=True)
    q.add_argument("--metric", required=True)
    q.add_argument("--out", required=True,
                   help="trace CSV; status lands in <out>.status.json")
    flow_cfg = dynamics.FlowConfig
    q.add_argument("--t-max", type=float, default=flow_cfg.t_max)
    q.add_argument("--tol", dest="curvature_tol", type=float,
                   default=flow_cfg.curvature_tol,
                   help="curvature norm that counts as converged")
    q.add_argument("--margin", dest="degeneration_margin", type=float,
                   default=flow_cfg.degeneration_margin,
                   help="admissibility margin that counts as degenerated")
    q.add_argument("--rtol", type=float, default=flow_cfg.rtol)
    q.add_argument("--atol", type=float, default=flow_cfg.atol)
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("minimize", help="Newton descent on the energy H")
    q.add_argument("--tri", required=True)
    q.add_argument("--metric", required=True)
    q.add_argument("--tol", type=float, default=1e-12)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_minimize)

    q = sub.add_parser("lp", help="feasibility of the linear angle structure")
    q.add_argument("--tri", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_lp)

    q = sub.add_parser("volmax", help="maximize total volume over the angle "
                                      "polytope")
    q.add_argument("--tri", required=True)
    q.add_argument("--start", default=None,
                   help="assignment JSON; defaults to the LP witness")
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_volmax)

    q = sub.add_parser("propsuite", help="run the cross-module invariant "
                                         "battery")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--probe-trials", type=int, default=2000)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_propsuite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = serialize.now_iso()
    try:
        status = args.func(args)
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("command", "func", "out")}
        inputs = {k: v for k, v in flags.items() if k in _INPUTS}
        config = {k: v for k, v in flags.items() if k not in _INPUTS}
        serialize.write_manifest(args.out, args.command, inputs, config,
                                 __version__, started)
        return status
    except (HyperidealError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXITS
                     if isinstance(exc, kind)), EXIT_INPUT)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
