"""Quiet stretches go from event to event, against stepping every cycle.

An event is an interference hit or a revert. A stretch draws its
interference events in one loop up to the next one, and charges the data
total and the node accounts lazily, up to the events that re-price them and
the stretch's end; the data totals of its metric rows are built in bulk,
from arithmetic progressions over the stride grid. The energy audit writes
its per-cycle entries as each account is brought up to date, and does not
change which cycles a stretch visits, so every case runs with the audit on
and off; the outputs compared include the energy log.

Against ``SteppedSimulation`` (``oracles.py``), outputs and state must be
identical after every ``run()`` call, at metrics strides 1, 7 and 72, with
``run(n)`` chunks that pass the horizon (the horizon's last row, off the
grid, then falls inside a range), hits on a run's first cycle and on a
revert cycle, interference lasting two or three cycles, and data totals that
cross binades. A long stretch at a thinned stride must hold memory for its
rows, not for its cycles, and a quiet run at stride 1 must hold under 64
bytes a row: its data totals and served latencies, not nine values a row.
"""

import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import STRATEGIES, InterferenceConfig, Simulation

from conftest import make_net, mini_sim
from oracles import SteppedSimulation
from test_quiet_stretches import (interference_events, outputs, random_case,
                                  run_in_step)


def shared_relay(engine, **overrides):
    # Two pieces share relay 1 at a cost that is not a power of two, so its
    # account and the data total round on every addition. A 2.5x event
    # fires nothing at threshold 0.9, so no strategy steps a cycle.
    net = make_net([(0, 1), (1, 2), (2, 3), (1, 4)],
                   {u: 100.0 for u in range(5)}, proxies={2}, eps=3e-5)
    cfg = dict(horizon=3000, request_prob=0.5, seed=5, trigger_threshold=0.9)
    cfg.update(overrides)
    return mini_sim(net, [(0, 3, 2, 3, [0, 1, 2, 3]),
                          (4, 3, 2, 1, [4, 1, 2, 3])], engine=engine, **cfg)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("stride", [1, 7, 72])
@pytest.mark.parametrize("p_hit, duration", [(0.01, 2), (0.3, 2), (0.3, 3)])
def test_runs_match_stepping_every_cycle(monkeypatch, strategy, stride, p_hit,
                                         duration):
    for audit in (False, True):
        check_runs(monkeypatch, strategy, stride, p_hit, duration, audit)


def check_runs(monkeypatch, strategy, stride, p_hit, duration, audit):
    def build(engine):
        return shared_relay(engine, strategy=strategy, metrics_stride=stride,
                            audit_energy=audit,
                            interference=InterferenceConfig(
                                prob_per_cycle=p_hit, multiplier=2.5,
                                affected_links=2, duration_cycles=duration))

    steps = []
    real_step = Simulation._step

    def step(self, *args):
        steps.append(self.cycle)
        real_step(self, *args)

    monkeypatch.setattr(Simulation, "_step", step)
    events = interference_events(monkeypatch)
    fast = build(Simulation)
    # The last chunk runs from cycle 2500 to 3500, past the horizon's last
    # cycle 2999, which is off the grid at strides 7 and 72.
    chunks = [(1000, "none", 0, 0), (1500, "none", 0, 0), (1000, "none", 0, 0)]
    for n, *_ in chunks:
        fast.run(n)
    monkeypatch.undo()
    assert steps == [] and fast.cycle == 3500   # every chunk one stretch
    off_grid = 2999 % stride > 0
    assert len(fast.metrics.series()["cycles"]) == (len(range(0, 3500, stride))
                                                   + off_grid)
    assert bool(fast.energy_log) == audit

    if p_hit > 0.1:
        # A hit on the cycle right after another event, and a hit on the
        # cycle that reverts an earlier one.
        reverts = {cyc + duration for cyc in events}
        assert any(cyc - 1 in events or cyc - 1 in reverts for cyc in events)
        assert any(cyc in reverts for cyc in events)

    fresh, stepped = build(Simulation), build(SteppedSimulation)
    run_in_step(fresh, stepped, chunks)
    assert outputs(fresh) == outputs(fast)

    def binades(before, after):
        return math.frexp(after)[1] - math.frexp(before)[1]

    assert binades(fast.metrics.series()["energy_data_j"][0],
                   fast._data_energy) >= 2


@settings(deadline=None)   # 100 examples, 1,000 under the ci profile
@given(data=st.data())
def test_random_runs_match_stepping_every_cycle(data):
    # The random scenarios of test_quiet_stretches.py, the audit on or off,
    # interference lasting two or three cycles, the strides above, and a
    # last chunk that passes the horizon.
    cfg, chunks = random_case(data.draw, STRATEGIES)
    duration = data.draw(st.integers(2, 3), label="duration")
    cfg = replace(cfg, metrics_stride=data.draw(st.sampled_from([1, 7, 72])),
                  interference=replace(cfg.interference,
                                       duration_cycles=duration))
    past = data.draw(st.integers(1, 100), label="past the horizon")
    chunks = [*chunks, (cfg.horizon + past, "none", 0, 0)]
    run_in_step(Simulation(cfg), SteppedSimulation(cfg), chunks)


def quiet_pdd(horizon, stride):
    """A PDD run of one piece over three hops, whose only events are rare
    interference hits that fire nothing: one quiet stretch per run."""
    net = make_net([(0, 1), (1, 2), (2, 3)], {u: 1e6 for u in range(4)},
                   proxies={2}, eps=3e-5)
    return mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], horizon=horizon,
                    strategy="PDD", request_prob=0.05, metrics_stride=stride,
                    interference=InterferenceConfig(
                        prob_per_cycle=0.001, multiplier=2.5,
                        affected_links=1, duration_cycles=2))


def test_long_thinned_stretch_holds_its_rows_not_its_cycles():
    # 300,000 quiet cycles at stride 1,000 and 30,000 at stride 100 both
    # write 300 rows on the grid and the horizon's last. A value kept per
    # cycle would cost at least 8 bytes a cycle, 2.4 MB for the long run.
    def peak(horizon, stride):
        sim = quiet_pdd(horizon, stride)
        tracemalloc.start()
        try:
            sim.run()
            return (tracemalloc.get_traced_memory()[1],
                    len(sim.metrics.series()["cycles"]))
        finally:
            tracemalloc.stop()

    long_peak, long_rows = peak(300_000, 1000)
    short_peak, short_rows = peak(30_000, 100)
    assert long_rows == short_rows == 301
    assert long_peak < 2 * short_peak + 50_000
    assert long_peak < 300_000   # under one byte a cycle


def test_quiet_rows_hold_their_data_totals_and_latencies_only():
    # A quiet PDD run of 20,000 cycles at stride 1 keeps, per row, the data
    # total and the worst latency served, in blocks; its counter, energy
    # and count columns are progressions and constants. Nine values kept
    # per row would cost far more than 64 bytes a row.
    def held(stride):
        sim = quiet_pdd(20_000, stride)
        tracemalloc.start()
        try:
            sim.run()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return kept, sim.metrics.csv_text().count("\n") - 1

    full, full_rows = held(1)
    thin, thin_rows = held(1000)
    assert (full_rows, thin_rows) == (20_000, 21)   # the horizon's last too
    assert (full - thin) / (full_rows - thin_rows) < 64
