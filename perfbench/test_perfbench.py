"""Tests of the benchmark's own parts: sampler, spans and deadline.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import os
import random
import signal
import sys
import time
from array import array

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np
import pytest

import run
import sampler
import spans
import speed
from hyperideal import tetgeom, triangulation


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_every_draw_passes_build(n):
    rng = random.Random(n)
    for _ in range(40):
        spec = sampler.draw_spec(n, rng)
        tri = triangulation.build(spec, enforce_link_hypothesis=False)
        assert tri.tet_count == n


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_sample_meets_the_link_hypothesis(n):
    tri, tries = sampler.sample(n, random.Random(n))
    assert tries >= 1 and sampler.is_connected(tri.spec)
    assert all(link.chi < 0 for link in tri.boundary_links)


def test_same_seed_same_specs():
    def specs(seed):
        rng = random.Random(seed)
        return [sampler.sample(n, rng)[0].spec for n in (8, 12, 8)]

    assert specs(3) == specs(3)
    assert specs(3) != specs(4)


def test_one_edge_draw():
    tri, _ = sampler.sample(4, random.Random(0), one_edge=True)
    assert tri.n_edges == 1


def test_self_time_is_duration_minus_children():
    tr = spans.Tracer()
    outer = tr.open(tr._intern("a"))
    inner = tr.open(tr._intern("b"))
    tr.close(inner)
    tr.close(outer)
    tr.start[:] = array("d", [0.0, 1.0])
    tr.end[:] = array("d", [4.0, 2.5])
    assert list(tr.self_times(0, 2)) == [2.5, 1.5]


def test_root_span_repairs_an_interrupted_trace():
    tr = spans.Tracer()
    with tr.span("op.test", 0):
        tr.open(tr._intern("never_closed"))
        tr.name.append(0)  # an open() cut short after its first store
    assert len({len(a) for a in (tr.name, tr.start, tr.end, tr.parent,
                                 tr.op)}) == 1
    assert len(tr) == 2 and tr.end[1] == tr.end[0]
    with tr.span("op.next", 1):
        pass
    assert tr.parent[2] == -1


def test_install_records_module_calls_and_uninstall_restores():
    original = tetgeom._pipeline
    tr = spans.Tracer()
    tr.install()
    try:
        with tr.span("op.test", 7):
            tetgeom.is_admissible(np.ones((3, 6)))
    finally:
        tr.uninstall()
    assert tetgeom._pipeline is original
    totals = tr.layer_totals(0, len(tr))
    assert totals["tetgeom._pipeline"]["calls"] == 1
    assert totals["tetgeom._pipeline"]["shapes"] == 3
    assert set(tr.op) == {7}


def test_deadline_miss_is_stopped_and_reported():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        t0 = time.perf_counter()
        dt, value, err = run.timed_call(lambda: time.sleep(5), 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert value is None and "deadline" in err
    assert dt < 1.0 and time.perf_counter() - t0 < 1.0


def test_speed_probe_samples_on_cpu_time_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGVTALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        t_end = time.process_time() + 0.2
        while time.process_time() < t_end:
            pass
    assert len(probe.samples) >= 3 and probe.median() > 0
    assert signal.getsignal(signal.SIGVTALRM) is previous


def test_normalise_takes_probe_time_out_and_scales_by_its_speed():
    probe = speed.SpeedProbe()
    probe.samples = [(0.0, 0.5), (10.0, 0.25), (11.0, 0.5)]
    records = [{"start": 1.0, "s": 3.0}, {"start": 9.5, "s": 2.0}]
    probe.normalise(records)
    assert records[0] == {"start": 1.0, "s": 3.0, "ref": 6.0}
    assert records[1]["s"] == 1.25
    assert records[1]["ref"] == 1.25 * (4.0 + 2.0) / 2
