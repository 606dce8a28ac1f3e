"""A run cut at some cycle and copied carries on exactly as one unbroken run.

Each case runs the benchmark's churn set-up (forced deaths at cycle 3000,
interference on one cycle in ten) to a cut at cycle 1700, copies the
simulation, runs both on to the horizon, and compares the CSV, summary and
diagnostics of each with those of one unbroken ``run()``. The copy is a
``copy.deepcopy``, after which the original also runs on, or a pickle round
trip. Either way no state may stay shared between the two objects, and none
may live outside them. A Hypothesis property does the same over small
random configurations, each cut at a random cycle. One more case cuts a
DistrDataFwd run while messages are in flight and a repair is underway. A
copy of the poll-every-node reference, ``PolledSimulation``, must stay one:
its node contexts keep scanning every out-link.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import STRATEGIES, InterferenceConfig, ScenarioConfig, Simulation

from conftest import churn_config
from oracles import PolledSimulation, ScanEveryLinkCtx

CUT = 1700


def result(sim):
    m = sim.metrics
    return m.csv_text(), m.summary_text(), sim.diagnostics


@pytest.fixture(scope="module", params=STRATEGIES)
def case(request):
    cfg = churn_config(3, horizon=3500, strategy=request.param)
    whole = Simulation(cfg)
    whole.run()
    return cfg, result(whole)


def test_deep_copy_and_original_both_run_on_unbroken(case):
    cfg, want = case
    sim = Simulation(cfg)
    sim.run(CUT)
    twin = copy.deepcopy(sim)
    sim.run()
    twin.run()
    assert result(sim) == want
    assert result(twin) == want


def test_pickle_round_trip_runs_on_unbroken(case):
    cfg, want = case
    sim = Simulation(cfg)
    sim.run(CUT)
    restored = pickle.loads(pickle.dumps(sim))
    restored.run()
    assert result(restored) == want


def test_copies_cut_with_mail_in_flight_run_on_unbroken():
    cfg = churn_config(3, horizon=3500, strategy="DistrDataFwd")
    whole = Simulation(cfg)
    whole.run()
    sim = Simulation(cfg)
    sim.run(1)
    while not (sim.pending_message_count() and any(
            state.has_pending_work() for state in sim._states.values())):
        assert sim.cycle < cfg.horizon
        sim.run(1)
    in_flight = sim.pending_message_count()
    twins = [copy.deepcopy(sim), pickle.loads(pickle.dumps(sim))]
    for twin in twins:
        assert twin.cycle == sim.cycle
        assert twin.pending_message_count() == in_flight
    for run in (sim, *twins):
        run.run()
        assert result(run) == result(whole)


def test_polled_copies_keep_scanning_every_link():
    cfg = churn_config(3, horizon=400, strategy="DistrDataFwd")
    whole = PolledSimulation(cfg)
    whole.run()
    sim = PolledSimulation(cfg)
    sim.run(50)
    for twin in (copy.deepcopy(sim), pickle.loads(pickle.dumps(sim))):
        assert {type(twin._ctx(u)) for u in twin._node_ids} == {ScanEveryLinkCtx}
        twin.run()
        assert result(twin) == result(whole)


@st.composite
def cut_configs(draw):
    """A small configuration on the default grid, and a cycle to cut it
    at. Metrics strides of 7 thin the rows and add the horizon's last."""
    horizon = draw(st.integers(10, 250))
    cfg = ScenarioConfig(
        horizon=horizon,
        strategy=draw(st.sampled_from(STRATEGIES)),
        seed=draw(st.integers(0, 2 ** 16)),
        request_prob=draw(st.sampled_from([0.0, 0.05, 0.5])),
        metrics_stride=draw(st.sampled_from([0, 7])),
        interference=InterferenceConfig(
            prob_per_cycle=draw(st.sampled_from([0.0, 0.05, 0.2])),
            multiplier=3.0, affected_links=draw(st.integers(1, 2)),
            duration_cycles=draw(st.integers(1, 3))),
        forced_deaths=tuple(draw(st.lists(
            st.tuples(st.integers(0, horizon - 1), st.integers(0, 17)),
            max_size=2))))
    return cfg, draw(st.integers(0, horizon))


@settings(deadline=None)
@given(cut_configs())
def test_any_cut_copied_or_pickled_runs_on_unbroken(case):
    cfg, cut = case
    whole = Simulation(cfg)
    whole.run()
    sim = Simulation(cfg)
    sim.run(cut)
    restored = pickle.loads(pickle.dumps(sim))
    twin = copy.deepcopy(sim)
    sim.run()
    twin.run()
    restored.run()
    want = result(whole)
    assert result(sim) == want
    assert result(twin) == want
    assert result(restored) == want
