"""Exact metamorphic relations over small random configurations.

Doubling the link latencies and the latency budget doubles the latencies a
run reports and changes nothing else: every latency the planner, the
protocol and the requests compare is doubled on both sides, and doubling a
float is exact. Scaling the four energy parameters (the per-hop cost, the
controller exchange, the configuration-phase reserve and the endowment
scale) by four scales both energy totals by four and changes nothing else:
every lifetime is a ratio of two scaled amounts. Both relations are
checked bit for bit, so a hard-coded millisecond or joule constant
anywhere in a run breaks them.
"""

from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import STRATEGIES, InterferenceConfig, ScenarioConfig, Simulation


@st.composite
def configs(draw):
    """A small run of any strategy on the default grid, with interference
    hits that fire the trigger and up to two forced deaths."""
    horizon = draw(st.integers(20, 200))
    return ScenarioConfig(
        horizon=horizon,
        strategy=draw(st.sampled_from(STRATEGIES)),
        seed=draw(st.integers(0, 2 ** 16)),
        request_prob=draw(st.sampled_from([0.05, 0.5])),
        interference=InterferenceConfig(
            prob_per_cycle=draw(st.sampled_from([0.0, 0.05, 0.2])),
            multiplier=3.0, affected_links=draw(st.integers(1, 2))),
        forced_deaths=tuple(draw(st.lists(
            st.tuples(st.integers(0, horizon - 1), st.integers(0, 17)),
            max_size=2))))


def outputs(cfg):
    """Every output of one run: the metrics' fields, diagnostics and trace."""
    sim = Simulation(replace(cfg, trace=True))
    sim.run()
    return asdict(sim.metrics), sim.diagnostics, sim.trace_lines


def scaled(out, factor, series, scalars):
    """``out`` with the named per-cycle series and scalar fields of its
    metrics multiplied by ``factor``."""
    metrics, diagnostics, trace = out
    metrics = dict(metrics)
    for name in series:
        metrics[name] = [factor * x for x in metrics[name]]
    for name in scalars:
        metrics[name] = factor * metrics[name]
    return metrics, diagnostics, trace


@settings(deadline=None)
@given(configs())
def test_doubled_latencies_double_only_the_latency_outputs(cfg):
    doubled = replace(cfg, latency_ms_min=2 * cfg.latency_ms_min,
                      latency_ms_max=2 * cfg.latency_ms_max,
                      latency_budget_ms=2 * cfg.latency_budget_ms)
    assert outputs(doubled) == scaled(outputs(cfg), 2, ["max_latency_ms"],
                                      ["max_access_latency_ms"])


@settings(deadline=None)
@given(configs())
def test_quadrupled_energies_quadruple_only_the_energy_outputs(cfg):
    quadrupled = replace(cfg, tx_energy_j=4 * cfg.tx_energy_j,
                         controller_energy_j=4 * cfg.controller_energy_j,
                         config_phase_energy_j=4 * cfg.config_phase_energy_j,
                         energy_scale=4 * cfg.energy_scale)
    assert outputs(quadrupled) == scaled(outputs(cfg), 4,
                                         ["energy_data_j", "energy_cfg_j"], [])
