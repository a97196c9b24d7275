"""Seeded benchmark of the hyperideal package.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* census: the documented CLI session on the 2-tet census gluing, through
  the in-process `cli.main`, one command at a time;
* search: `hyperideal search --tets 2` with `--filter census --first` and
  with `--filter any`;
* scale: LP, volume maximisation and Newton descent on the first sampled
  one-edge gluing at n = 32 and 64;
* floor: the same at n = 96, where Newton descent cannot reach its
  tolerance (a known failure);
* ntet: sampled n = 8 and 12 gluings with a heavy-tailed volmax time.

A run sets the workload up three times from the seed (instance generation
and warm-up; `setup_s` is the import time plus the median), then repeats
passes over the workload's fixed operation list, as many whole passes as
fit in --seconds (at least one).  `run_s` is the time of one pass spent in
the package's calls, taken as the sum over the pass's operations of each
one's median over the passes, which keeps short bursts of a faster or
slower machine out of it; route totals such as `flow_s` are printed the
same way.  `run_ref` is the same sum over operation times in units of a
fixed reference computation sampled during each operation (see speed.py),
which takes out the drift of a shared machine's speed; the probe's own
time is taken out of `run_s` and the route totals.  Every operation has a
deadline; a miss is stopped by an alarm signal and counted as failed, like
an exception, a wrong exit code or an output that fails its oracle.  With
--trace 1 passes alternate untraced and traced, there is no speed probe,
and the per-layer metrics come from the traced passes (see spans.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A results file with the machine and
version details, every route total and every failure goes to perfbench/out/.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import signal
import statistics
import sys
import time
import traceback

SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "run_ref": "ref", "ok_frac": "ratio"}


class DeadlineMiss(BaseException):
    """Raised from the alarm handler.  It derives from BaseException so that
    no error handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def timed_call(fn, deadline: float) -> tuple:
    """(seconds, result or None, error message or None)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMiss:
        return time.perf_counter() - t0, None, f"missed the {deadline:g} s deadline"
    except Exception as exc:
        dt = time.perf_counter() - t0
        tb = traceback.extract_tb(exc.__traceback__)[-1]
        return dt, None, (f"{type(exc).__name__}: {exc} "
                          f"({os.path.basename(tb.filename)}:{tb.lineno})")
    return time.perf_counter() - t0, value, None


def run_pass(workload, inst, tracer, first_op: int) -> list:
    """One pass over the workload's operations; one record per operation."""
    from workloads import WrongOutput

    records = []
    gen = workload.pass_ops(inst)
    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            break
        op_id = first_op + len(records)
        start = time.perf_counter()
        if tracer is None:
            dt, value, err = timed_call(op.fn, workload.deadline_s)
        else:
            with tracer.span(f"op.{op.route}", op_id):
                dt, value, err = timed_call(op.fn, workload.deadline_s)
        wrong = False
        if err is None:
            try:
                op.check(value)
            except WrongOutput as exc:
                err, wrong, value = f"wrong output: {exc}", True, None
        records.append({"op": op_id, "route": op.route, "start": start,
                        "s": dt, "error": err, "wrong": wrong})
    return records


def median_pass(passes: list, key: str = "s") -> tuple:
    """Time of one pass at the run's median speed: each operation's median
    over the passes, summed in total and per route."""
    samples = {}
    for ps in passes:
        for i, r in enumerate(ps["records"]):
            samples.setdefault((i, r["route"]), []).append(r[key])
    routes = {}
    for (_i, route), times in samples.items():
        routes[f"{route}_s"] = (routes.get(f"{route}_s", 0.0)
                                + statistics.median(times))
    return sum(routes.values()), routes


def read_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hyperideal", "__init__.py")):
        print("error: src/hyperideal not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy
    import hyperideal
    import spans
    import speed
    import workloads
    import_s = time.perf_counter() - t0
    if not hyperideal.__file__.startswith(src + os.sep):
        print(f"error: imported hyperideal from {hyperideal.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    outdir = os.path.join(root, "perfbench", "out")
    workdir = os.path.join(outdir, f"work-{wl.name}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inst = wl.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t)

    tracer = spans.Tracer() if args.trace else None
    # The speed probe runs only in untraced runs, so that it adds nothing
    # to the spans and the traced and untraced passes compare like for like.
    probe = None if tracer else speed.SpeedProbe()
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        lo = len(tracer) if traced else 0
        first_op = sum(len(ps["records"]) for ps in passes)
        if traced:
            tracer.install()
            try:
                records = run_pass(wl, inst, tracer, first_op)
            finally:
                tracer.uninstall()
        elif probe is None:
            records = run_pass(wl, inst, None, first_op)
        else:
            with probe:
                records = run_pass(wl, inst, None, first_op)
        passes.append({"traced": traced, "records": records,
                       "spans": (lo, len(tracer)) if traced else None})
        # Stop before a pass that would end after --seconds, on the
        # evidence of the passes so far; a traced run needs one of each.
        elapsed = time.perf_counter() - t_start
        if (elapsed * (len(passes) + 1) / len(passes) > args.seconds
                and (tracer is None or len(passes) >= 2)):
            break

    ops = [r for ps in passes for r in ps["records"]]
    failures = [r for r in ops if r["error"]]
    plain = [ps for ps in passes if not ps["traced"]]
    if probe is not None:
        for ps in plain:
            probe.normalise(ps["records"])
    run_s, routes = median_pass(plain)
    e2e = {"setup_s": import_s + statistics.median(setups),
           "ok_frac": (len(ops) - len(failures)) / len(ops)}
    if probe is not None:
        e2e["run_ref"] = median_pass(plain, "ref")[0]

    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": read_commit(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "hyperideal": hyperideal.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "passes": len(passes), "import_s": import_s, "setup_runs_s": setups,
        "reference_s": probe.median() if probe else None,
        "reference_samples": len(probe.samples) if probe else 0,
        "deadline_s": wl.deadline_s,
        "pass_run_s": [sum(r["s"] for r in ps["records"]) for ps in passes],
    }
    if tracer is not None:
        traced = [ps for ps in passes if ps["traced"]]
        per_pass = [spans.layer_metrics(tracer.layer_totals(*ps["spans"]))
                    for ps in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in spans.PER_LAYER}
        metrics["trace.overhead_s"] = median_pass(traced)[0] - run_s
        metrics["trace.spans"] = statistics.median(
            ps["spans"][1] - ps["spans"][0] for ps in traced)
        units = {name: u for name, (u, _b) in spans.PER_LAYER.items()}
        units.update({"trace.overhead_s": "s", "trace.spans": "count"})
        tracer.write(os.path.join(
            outdir, f"{wl.name}-seed{args.seed}.spans.csv.gz"))
    else:
        metrics, units = e2e, END_TO_END

    attempted, failed = len(ops), len(failures)
    results = {"meta": meta, "end_to_end": e2e, "run_s": run_s,
               "routes": routes, "failed_frac": failed / attempted,
               "failures": failures, "metrics": metrics}
    with open(os.path.join(outdir, f"{wl.name}-seed{args.seed}"
                                   f"-trace{args.trace}.json"), "w") as f:
        json.dump(results, f, indent=1)

    print("meta " + json.dumps(meta))
    shown = {**e2e, "run_s": run_s, **routes, "failed_frac": failed / attempted}
    print(f"{wl.name} seed {args.seed}: " + ", ".join(
        f"{k} {v:.6g} {END_TO_END.get(k, 's' if k.endswith('_s') else 'ratio')}"
        for k, v in shown.items()) + f" ({failed}/{attempted} failed, "
        f"{len(plain)} untraced pass(es))")
    for r in failures:
        print(f"failed op {r['op']} ({r['route']}, {r['s']:.3f} s): {r['error']}")
    print(json.dumps({
        "correct": not any(r["wrong"] for r in ops),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
