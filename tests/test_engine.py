import math
import random
import re
from dataclasses import replace

import pytest

from fwdsim import (STRATEGIES, InterferenceConfig, ScenarioConfig, Simulation,
                    inject_interference, run_simulation,
                    sample_access_latency, walk_chain)

from conftest import make_net, mini_sim, quiet_config


def calm_scenario(**overrides) -> ScenarioConfig:
    """Default grid with ample energy and no stochastic events."""
    base = dict(
        horizon=400,
        node_energy_wh_min=0.8, node_energy_wh_max=1.0,
        interference=InterferenceConfig(prob_per_cycle=0.0),
        seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestStaticBehavior:
    def test_unknown_strategy_is_rejected(self):
        # A misspelled strategy used to run as PDD under its own label.
        with pytest.raises(ValueError, match=r"^run\.strategy: unknown strategy") as err:
            Simulation(calm_scenario(strategy="DistrDataFWD"))
        assert all(name in str(err.value) for name in STRATEGIES)

    @pytest.mark.parametrize("key, overrides", [
        ("protocol.trigger_threshold", dict(trigger_threshold=1.5)),
        ("protocol.trigger_threshold", dict(trigger_threshold=0.0)),
        ("data.request_prob", dict(request_prob=1.5)),
        ("data.request_prob", dict(request_prob=-0.1)),
        ("protocol.route_ttl", dict(route_ttl=0)),
        ("run.horizon", dict(horizon=0))])
    def test_config_outside_its_range_is_rejected_before_building(
            self, monkeypatch, key, overrides):
        # These used to run: every draw a request, no repair flood, or
        # empty series. The check comes before the network and the plan.
        def unbuilt(cfg):
            raise AssertionError("network built")

        monkeypatch.setattr(ScenarioConfig, "network", unbuilt)
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}: must "):
            Simulation(calm_scenario(**overrides))

    def test_calm_network_loses_nothing_and_never_reconfigures(self):
        for strategy in ("PDD", "PDD-CR", "DistrDataFwd"):
            m = run_simulation(calm_scenario(strategy=strategy))
            t = m.totals()
            assert t["lost"] == 0
            assert t["reconfigurations"] == 0
            assert t["generated"] == t["delivered"] > 0

    def test_strategies_identical_without_events(self):
        runs = [run_simulation(calm_scenario(strategy=s)).csv_text()
                for s in ("PDD", "PDD-CR", "DistrDataFwd")]
        assert runs[0] == runs[1] == runs[2]

    def test_same_config_is_bit_identical(self):
        cfg = calm_scenario(strategy="DistrDataFwd",
                            interference=InterferenceConfig(prob_per_cycle=0.02))
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.csv_text() == b.csv_text()
        assert a.summary_text() == b.summary_text()

    def test_conservation_holds_every_cycle(self):
        cfg = calm_scenario(strategy="DistrDataFwd", horizon=300,
                            interference=InterferenceConfig(prob_per_cycle=0.05),
                            node_energy_wh_min=0.0)
        m = run_simulation(cfg)
        prev_g = prev_d = prev_l = 0
        s = m.series()
        for k in range(len(s["cycles"])):
            g, d, l = s["generated"][k], s["delivered"][k], s["lost"][k]
            assert g - prev_g == (d - prev_d) + (l - prev_l)
            assert g >= prev_g and d >= prev_d and l >= prev_l
            prev_g, prev_d, prev_l = g, d, l

    def test_energy_series_monotone(self):
        s = run_simulation(calm_scenario(strategy="PDD-CR", horizon=200)).series()
        for series in (s["energy_data_j"], s["energy_cfg_j"]):
            assert all(b >= a for a, b in zip(series, series[1:]))


class TestDeaths:
    def test_pdd_loses_everything_through_a_dead_node(self):
        cfg = calm_scenario(strategy="PDD", horizon=300)
        probe = Simulation(cfg)
        victim = None
        victim_pieces = []
        for p in probe.pieces:
            chain = walk_chain(probe.table, p.id, p.source)
            interior = [n for n in chain[1:-1] if n != p.proxy]
            if interior:
                victim = interior[0]
                break
        assert victim is not None
        for p in probe.pieces:
            if victim in walk_chain(probe.table, p.id, p.source):
                victim_pieces.append(p)
        cfg = replace(cfg, forced_deaths=((100, victim),))
        m = run_simulation(cfg)
        expected = sum(p.rate for p in victim_pieces) * (300 - 100)
        assert m.totals()["lost"] == expected

    def test_local_repair_beats_static_plan_on_losses(self):
        cfg = calm_scenario(horizon=300)
        probe = Simulation(cfg)
        victim = next(n for p in probe.pieces
                      for n in walk_chain(probe.table, p.id, p.source)[1:-1]
                      if n != p.proxy)
        dead_cfg = replace(cfg, forced_deaths=((100, victim),))
        pdd = run_simulation(replace(dead_cfg, strategy="PDD"))
        distr = run_simulation(replace(dead_cfg, strategy="DistrDataFwd"))
        assert 0 < distr.totals()["lost"] < pdd.totals()["lost"]

    def test_per_trigger_configuration_energy_is_cheaper_locally(self):
        cfg = calm_scenario(horizon=400,
                            interference=InterferenceConfig(prob_per_cycle=0.02))
        cr = run_simulation(replace(cfg, strategy="PDD-CR"))
        distr = run_simulation(replace(cfg, strategy="DistrDataFwd"))
        initial = cr.series()["energy_cfg_j"][0]
        cr_reconf = cr.totals()["reconfigurations"]
        distr_reconf = distr.totals()["reconfigurations"]
        assert cr_reconf > 0 and distr_reconf > 0
        per_trigger_cr = (cr.totals()["energy_cfg_j"] - initial) / cr_reconf
        per_trigger_distr = (distr.totals()["energy_cfg_j"]
                             - distr.series()["energy_cfg_j"][0]) / distr_reconf
        assert per_trigger_distr < per_trigger_cr

    def test_forced_death_records_time_and_counts_alive(self):
        cfg = calm_scenario(strategy="DistrDataFwd", forced_deaths=((50, 0),),
                            horizon=100)
        m = run_simulation(cfg)
        assert m.death_times[0] == 50
        alive = m.series()["alive_nodes"]
        assert alive[49] == 18 and alive[51] == 17


class TestInterference:
    def test_multiplier_above_ratio_threshold_fires(self):
        # (2.5x - x) / 2.5x = 0.6 > 0.5: the central strategy must react
        cfg = calm_scenario(strategy="PDD-CR", horizon=400,
                            interference=InterferenceConfig(prob_per_cycle=0.05,
                                                            multiplier=2.5))
        m = run_simulation(cfg)
        assert m.totals()["reconfigurations"] > 0

    def test_unit_multiplier_never_fires(self):
        cfg = calm_scenario(strategy="PDD-CR", horizon=400,
                            interference=InterferenceConfig(prob_per_cycle=0.5,
                                                            multiplier=1.0))
        m = run_simulation(cfg)
        assert m.totals()["reconfigurations"] == 0
        assert m.totals()["lost"] == 0

    def test_inject_op_reports_fired_active_edges(self):
        net = make_net([(0, 1)], {0: 5.0, 1: 5.0}, eps=50e-6)
        net.activate(0, 0, 1)
        params = InterferenceConfig(prob_per_cycle=1.0, multiplier=2.5,
                                    affected_links=2)
        affected = inject_interference(net, random.Random(3), params, 0.5)
        assert len(affected) == 2
        for (u, v), fired in affected:
            link = net.links[(u, v)]
            assert link.eps_j == pytest.approx(2.5 * link.eps_baseline_j)
            # only the actively used direction counts as a trigger event
            assert fired == ((u, v) == (0, 1))

    def test_inject_op_boundary_multiplier_never_fires(self):
        # at multiplier 2 the jump ratio is exactly the 0.5 threshold
        net = make_net([(0, 1)], {0: 5.0, 1: 5.0})
        net.activate(0, 0, 1)
        params = InterferenceConfig(prob_per_cycle=1.0, multiplier=2.0)
        affected = inject_interference(net, random.Random(3), params, 0.5)
        assert affected and not any(fired for _, fired in affected)

    def test_spike_without_a_revert_cycle_is_rejected(self):
        # A zero-cycle spike would schedule its revert in a cycle already
        # past: the link would stay spiked for good.
        cfg = calm_scenario(interference=InterferenceConfig(
            prob_per_cycle=0.05, multiplier=3.0, duration_cycles=0))
        with pytest.raises(ValueError, match=r"^interference\.duration_cycles"):
            Simulation(cfg)

    def test_transient_spike_reverts_to_baseline(self):
        cfg = calm_scenario(strategy="PDD", horizon=50,
                            interference=InterferenceConfig(prob_per_cycle=1.0,
                                                            multiplier=2.5,
                                                            duration_cycles=1))
        sim = Simulation(cfg)
        baseline = {k: sim.net.links[k].eps_j for k in sim.net.links}
        sim.run()
        sim.cfg.interference.prob_per_cycle = 0.0
        sim.run(2)
        for k, link in sim.net.links.items():
            assert link.eps_j == baseline[k]


class TestAccessLatency:
    def latency_fixture(self, consumer_hops):
        nodes = consumer_hops + 2
        edges = [(i, i + 1) for i in range(nodes - 1)]
        net = make_net(edges, {u: 50.0 for u in range(nodes)}, latency=10.0,
                       proxies={1})
        chain = list(range(nodes))
        return mini_sim(net, [(0, nodes - 1, 1, 1, chain)],
                        horizon=10, request_prob=1.0)

    def test_two_hop_round_trip(self):
        sim = self.latency_fixture(consumer_hops=2)
        latency, miss = sample_access_latency(sim.pieces[0], sim.table, sim.net)
        assert miss is None and latency == 40.0
        sim.run(5)
        assert sim.metrics.max_access_latency_ms == 40.0
        assert sim.metrics.latency_violations == 0

    def test_six_hop_round_trip_is_late_but_not_lost(self):
        sim = self.latency_fixture(consumer_hops=6)
        latency, miss = sample_access_latency(sim.pieces[0], sim.table, sim.net)
        assert miss is None and latency == 120.0
        sim.run(10)
        assert sim.metrics.latency_violations > 0
        assert sim.metrics.totals()["lost"] == 0          # late is not lost

    def test_adjacent_consumer_is_minimal(self):
        sim = self.latency_fixture(consumer_hops=1)
        latency, miss = sample_access_latency(sim.pieces[0], sim.table, sim.net)
        assert miss is None and latency == 20.0

    def test_broken_consumer_segment_is_a_miss(self):
        sim = self.latency_fixture(consumer_hops=2)
        sim.clear_row(0, 2)
        latency, miss = sample_access_latency(sim.pieces[0], sim.table, sim.net)
        assert latency is None and miss == "consumer-segment-broken"

    def test_dead_consumer_is_a_miss(self):
        sim = self.latency_fixture(consumer_hops=2)
        sim.net.nodes[3].alive = False
        latency, miss = sample_access_latency(sim.pieces[0], sim.table, sim.net)
        assert miss == "consumer-dead"


class TestEpochAccounting:
    def test_first_event_respects_initial_epoch_bound(self):
        # tight energies so deaths happen within the horizon, no interference
        cfg = calm_scenario(strategy="DistrDataFwd", horizon=4000,
                            node_energy_wh_min=0.002, node_energy_wh_max=0.01,
                            energy_scale=1.0 / 360.0, seed=2)
        sim = Simulation(cfg)
        bound = sim.metrics.initial_epoch_bound
        m = sim.run()
        assert not math.isinf(bound)
        events = list(m.death_times.values()) + m.epoch_boundaries
        assert events, "expected at least one death within the horizon"
        assert min(events) <= math.ceil(bound) + 1

    def test_epoch_boundaries_match_reconfigurations(self):
        cfg = calm_scenario(strategy="PDD-CR", horizon=400,
                            interference=InterferenceConfig(prob_per_cycle=0.05))
        m = run_simulation(cfg)
        assert len(m.epoch_boundaries) == m.totals()["reconfigurations"]


class TestEnergyAudit:
    def test_logged_transmissions_equal_spend_exactly(self):
        cfg = calm_scenario(strategy="DistrDataFwd", horizon=250,
                            audit_energy=True, node_energy_wh_min=0.0,
                            interference=InterferenceConfig(prob_per_cycle=0.05))
        sim = Simulation(cfg)
        sim.run()
        for u, node in sim.net.nodes.items():
            logged = math.fsum(amount for _, _, amount in
                               sim.energy_log.get(u, []))
            # identical accumulation order makes this exact, not approximate
            total = 0.0
            for _, _, amount in sim.energy_log.get(u, []):
                total += amount
            assert total == node.spent_j
            assert logged == pytest.approx(node.spent_j, abs=1e-12)

    def test_energy_never_increases(self):
        cfg = calm_scenario(strategy="DistrDataFwd", horizon=150,
                            interference=InterferenceConfig(prob_per_cycle=0.1))
        sim = Simulation(cfg)
        last = {u: n.energy_j for u, n in sim.net.nodes.items()}
        for _ in range(150):
            sim.run(1)
            for u, n in sim.net.nodes.items():
                assert n.energy_j <= last[u]
                last[u] = n.energy_j
