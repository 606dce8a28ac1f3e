"""Event-driven cycle loop and bounded protocol state.

The engine steps a node's protocol only when it has work: a message, a
pending repair, an out-link that fires the trigger this cycle, or no energy
left.
These tests count ``protocol.node_cycle`` calls, check that state edits made
between ``run()`` calls still take effect, and check that the per-node
request-id memory stays bounded on a long, busy run.
"""

import hashlib

import pytest

from fwdsim import InterferenceConfig, ScenarioConfig, Simulation, protocol

from conftest import make_net, mini_sim, spike_link


@pytest.fixture
def stepped(monkeypatch):
    """(node, cycle) of every protocol step the engine makes."""
    calls = []
    original = protocol.node_cycle

    def counting(ctx, cycle):
        calls.append((ctx.node, cycle))
        return original(ctx, cycle)

    monkeypatch.setattr(protocol, "node_cycle", counting)
    return calls


def two_edge_node(**overrides):
    # node 1 forwards piece 0 to node 2 and piece 1 to node 3
    net = make_net([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (0, 2), (0, 3)],
                   {u: 50.0 for u in range(5)}, proxies={2, 3})
    return mini_sim(net, [(0, 4, 2, 1, [0, 1, 2, 4]),
                          (0, 4, 3, 1, [0, 1, 3, 4])], **overrides)


def test_quiet_network_steps_no_node(stepped):
    sim = two_edge_node(horizon=50)
    sim.run()
    assert stepped == []
    assert sim.metrics.totals()["delivered"] == 50 * 2


def test_spiked_link_steps_exactly_its_tail(stepped):
    sim = two_edge_node(horizon=20)
    sim.run(5)
    spike_link(sim, 1, 2)
    sim.run(1)
    assert stepped == [(1, 5)]
    assert 0 not in sim.net.links[(1, 2)].active_pieces


def test_spike_counts_as_a_change_for_one_cycle_only(stepped):
    sim = two_edge_node(horizon=20)
    spike_link(sim, 0, 2)      # idle link: it fires nothing, so its tail never steps
    sim.run(3)
    assert stepped == []
    link = sim.net.links[(0, 2)]
    assert link.eps_prev_j == link.eps_j


def relay_chain(strategy):
    net = make_net([(0, 1), (1, 2), (2, 3), (0, 4), (4, 2)],
                   {u: 50.0 for u in range(5)}, proxies={2})
    return mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], horizon=20,
                    strategy=strategy)


@pytest.mark.parametrize("strategy", ["PDD", "PDD-CR"])
@pytest.mark.parametrize("victim", [1, 3])   # a relay, the consumer
def test_energy_drained_between_runs_is_a_death(strategy, victim):
    sim = relay_chain(strategy)
    sim.run(4)
    node = sim.net.nodes[victim]
    node.spent_j = node.initial_energy_j
    sim.run(1)
    m = sim.metrics
    assert m.death_times == {victim: 4}
    assert m.series()["alive_nodes"][-2:] == [5, 4]
    sim.run()
    assert m.series()["alive_nodes"][-1] == 4


def test_same_cycle_deaths_are_swept_in_id_order():
    # source 0 and consumer 3 die together: the lower id names the cause
    sim = relay_chain("PDD")
    for u in (3, 0):
        node = sim.net.nodes[u]
        node.spent_j = node.initial_energy_j
    sim.run(1)
    assert sim.metrics.death_times == {0: 0, 3: 0}
    assert sim.piece_status[0].cause == "source-dead"


def test_request_memory_stays_bounded_and_outputs_unchanged():
    # 2 links x3.0 at p=0.1: thousands of route requests over 20k cycles.
    # Unpruned, the seen maps held 2,918 ids at the end (2,660 relayed and
    # 258 answered).
    cfg = ScenarioConfig(seed=1, strategy="DistrDataFwd",
                         interference=InterferenceConfig(
                             prob_per_cycle=0.1, multiplier=3.0,
                             affected_links=2, duration_cycles=1))
    sim = Simulation(cfg)
    largest = 0
    while sim.cycle < cfg.horizon:
        sim.run(1000)
        held = sum(len(state.seen) for state in sim._states.values())
        largest = max(largest, held)
    assert largest <= 50
    m = sim.metrics
    digest = hashlib.sha256((m.csv_text() + m.summary_text()).encode())
    assert digest.hexdigest() == \
        "bbe8d3865d256abdf249da3140659471dbe3520dbac8a230963835cc3daf71e6"
