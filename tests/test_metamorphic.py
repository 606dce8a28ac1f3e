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

When nothing fires the trigger and no node dies, the strategies agree: no
strategy has cause to reconfigure, so PDD, PDD-CR and DistrDataFwd forward
and serve the same pieces over the same start-up plan, and their data
planes are byte-identical. A data plane is the CSV and the summary without
the strategy and the configuration-energy and reconfiguration columns and
lines.
"""

from dataclasses import asdict, replace

from hypothesis import assume, given, settings
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


# The CSV columns and summary lines of the control plane and the strategy.
CONTROL = {"energy_cfg_J", "reconfigs", "strategy", "energy_total_J",
           "reconfigurations", "epoch_boundaries"}


def data_plane(metrics):
    """The CSV and summary of a run without their ``CONTROL`` parts."""
    rows = [line.split(",") for line in metrics.csv_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in CONTROL]
    csv = [[row[i] for i in keep] for row in rows]
    summary = [line for line in metrics.summary_text().splitlines()
               if line.split(":")[0] not in CONTROL]
    return csv, summary


@settings(deadline=None)
@given(configs(), st.sampled_from([1.0, 1.5, 2.0]))
def test_strategies_agree_on_the_data_plane_when_nothing_fires(cfg, multiplier):
    cfg = replace(cfg, forced_deaths=(), interference=replace(
        cfg.interference, multiplier=multiplier))
    # A hit raises a cost by the multiplier at most, too little to fire.
    assert multiplier <= 1.0 / (1.0 - cfg.trigger_threshold)
    planes = []
    for strategy in STRATEGIES:
        metrics = Simulation(replace(cfg, strategy=strategy)).run()
        assume(not metrics.death_times)
        planes.append(data_plane(metrics))
    assert planes[0] == planes[1] == planes[2]
