"""A run cut at some cycle and copied carries on exactly as one unbroken run.

Each case runs the benchmark's churn set-up (forced deaths at cycle 3000,
interference on one cycle in ten) to a cut at cycle 1700, copies the
simulation, runs both on to the horizon, and compares the CSV, summary and
diagnostics of each with those of one unbroken ``run()``. The copy is a
``copy.deepcopy``, after which the original also runs on, or a pickle round
trip. Either way no state may stay shared between the two objects, and none
may live outside them.
"""

import copy
import pickle

import pytest

from fwdsim import STRATEGIES, Simulation

from conftest import churn_config

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
