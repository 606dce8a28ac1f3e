"""Quiet stretches against stepping every cycle, and data-plane learning.

``SteppedSimulation`` (``oracles.py``) runs every cycle through ``_step()``
and forwards hop by hop, as the engine did before quiet stretches. On small
random scenarios, split into random ``run(n)`` calls with state edits
between them, both must give identical CSV, summary, death times, energy
log, trace and diagnostics, and leave identical node, pointer-row, piece and
protocol state, after every call.

Link costs and the controller cost are powers of two, so every energy sum is
exact; a drain edit leaves a node an exact number of hops of energy, which
puts its clamp on a cycle boundary, where a stretch that runs one cycle too
long would miss it.
"""

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import (STRATEGIES, EngineError, InterferenceConfig, PathRow,
                    ScenarioConfig, Simulation)

from conftest import make_net, mini_sim, spike_link
from oracles import SteppedSimulation

TX_J = 2.0 ** -14


def outputs(sim):
    m = sim.metrics
    nodes = [(st.spent_j, st.alive) for _, st in sorted(sim.net.nodes.items())]
    rows = {pid: sorted(sim.table.rows_for_piece(pid).items())
            for pid in sim.pieces_by_id}
    protocol = [ctx.state for _, ctx in sorted(sim._ctx.items())]
    return (sim.cycle, m.csv_text(), m.summary_text(), dict(m.death_times),
            sim.energy_log, sim.trace_lines, sim.diagnostics, nodes, rows,
            sim.piece_status, protocol)


def edit(sim, kind, a, b):
    """The same state edit on either engine: drain node a to b hops of
    energy, spike the a-th link, toggle whether the next link of the a-th
    piece's b-th row carries it (no alert is sent), or clear that row's
    previous pointer (data-plane learning mends it)."""
    if kind == "drain":
        node = sim.net.nodes[a % len(sim.net.nodes)]
        if node.alive:
            node.initial_energy_j = node.spent_j + b * TX_J
        return
    if kind == "spike":
        u, v = sorted(sim.net.links)[a % len(sim.net.links)]
        spike_link(sim, u, v, 2.0 + b)
        return
    pid = sorted(sim.pieces_by_id)[a % len(sim.pieces_by_id)]
    rows = sorted(sim.table.rows_for_piece(pid).items())
    if not rows:
        return
    u, row = rows[b % len(rows)]
    if kind == "stale":
        sim.table.set_row(pid, u, PathRow(None, row.next, row.order_key))
    elif kind == "toggle" and row.next is not None:
        if pid in sim.net.links[(u, row.next)].active_pieces:
            sim.net.deactivate(pid, u, row.next)
        else:
            sim.net.activate(pid, u, row.next)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quiet_stretches_match_stepping_every_cycle(data):
    draw = data.draw
    horizon = draw(st.integers(10, 300), label="horizon")
    cfg = ScenarioConfig(
        rows=3, cols=4, proxies=(5, 6),
        tx_energy_j=TX_J, controller_energy_j=2.0 ** -10,
        node_energy_wh_min=0.0,
        node_energy_wh_max=draw(st.sampled_from([5e-6, 2e-5, 1e-3])),
        proxy_energy_wh=draw(st.sampled_from([2e-5, 1e-3])),
        energy_scale=1.0,
        request_prob=draw(st.sampled_from([0.0, 0.05, 0.5])),
        interference=InterferenceConfig(
            prob_per_cycle=draw(st.sampled_from([0.0, 0.005, 0.05, 0.2])),
            multiplier=draw(st.sampled_from([1.0, 2.5, 3.0])),
            affected_links=draw(st.integers(1, 2)),
            duration_cycles=draw(st.integers(1, 3))),
        horizon=horizon,
        strategy=draw(st.sampled_from(STRATEGIES)),
        seed=draw(st.integers(0, 10_000)),
        forced_deaths=tuple(draw(st.lists(
            st.tuples(st.integers(0, horizon - 1), st.integers(0, 11)),
            max_size=3))),
        trace=True,
        audit_energy=draw(st.booleans()),
        metrics_stride=draw(st.sampled_from([0, 1, 3, 7])),
    )
    chunks = draw(st.lists(st.tuples(
        st.integers(1, 80),
        st.sampled_from(["none", "drain", "spike", "toggle", "stale"]),
        st.integers(0, 200), st.integers(0, 6)), max_size=6), label="chunks")
    run_in_step(Simulation(cfg), SteppedSimulation(cfg), chunks)


def run_in_step(fast, stepped, chunks):
    """Run both engines through the same chunks and edits, then to the
    horizon, comparing them after every call."""
    for n, kind, a, b in [*chunks, (None, "none", 0, 0)]:
        fast.run(n)
        stepped.run(n)
        assert outputs(fast) == outputs(stepped)
        edit(fast, kind, a, b)
        edit(stepped, kind, a, b)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scripted_edits_match_stepping_every_cycle(strategy):
    # Stale previous pointers on every row of piece 0, a hop of piece 1 cut
    # for 4 cycles and restored, then a relay drained to 3 hops of energy.
    cfg = ScenarioConfig(rows=3, cols=4, proxies=(5, 6), tx_energy_j=TX_J,
                         controller_energy_j=2.0 ** -10,
                         node_energy_wh_max=1e-3, proxy_energy_wh=1e-3,
                         energy_scale=1.0, request_prob=0.2, horizon=120,
                         strategy=strategy,
                         interference=InterferenceConfig(prob_per_cycle=0.0))
    script = [(10, "stale", 0, b) for b in range(4)]
    script += [(10, "toggle", 1, 0), (4, "toggle", 1, 0), (20, "drain", 5, 3)]
    run_in_step(Simulation(cfg), SteppedSimulation(cfg), script)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("hops_left", [1, 2, 5])
def test_clamp_on_a_cycle_boundary_matches_stepping_every_cycle(strategy,
                                                                hops_left):
    # Relay 1 holds exactly hops_left cycles of spend: its last charge
    # clamps, and it dies in that cycle's sweep.
    def build(engine):
        energies = {0: 1.0, 1: hops_left * TX_J, 2: 1.0, 3: 1.0}
        net = make_net([(0, 1), (1, 2), (2, 3)], energies, proxies={2},
                       eps=TX_J)
        return mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], engine=engine,
                        horizon=12, strategy=strategy, request_prob=0.5)

    fast = build(Simulation)
    run_in_step(fast, build(SteppedSimulation), [])
    assert fast.metrics.death_times == {1: hops_left - 1}


def test_default_scenario_matches_stepping_every_cycle():
    cfg = replace(ScenarioConfig(), horizon=3000,
                  interference=InterferenceConfig(prob_per_cycle=0.01))
    for strategy in STRATEGIES:
        run_cfg = replace(cfg, strategy=strategy)
        fast, stepped = Simulation(run_cfg), SteppedSimulation(run_cfg)
        fast.run(1234)
        stepped.run(1234)
        fast.run()
        stepped.run()
        assert outputs(fast) == outputs(stepped)


def test_looped_chain_learns_each_hop_in_turn():
    # Chain 0 -> 1 -> 2 -> 1 loops back into 1. Hop 0-1 writes prev(1) = 0;
    # hop 2-1 then sees that write and sets prev(1) = 2 again.
    net = make_net([(0, 1), (1, 2), (2, 3)], {u: 50.0 for u in range(4)},
                   proxies={2})
    sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], horizon=5)
    sim.write_row(0, 2, 1, 1, 2.0)
    sim.table.set_row(0, 1, PathRow(prev=2, next=2, order_key=1.0))
    version = sim.table.version[0]
    sim.run(1)
    assert sim.table.row(0, 1).prev == 2
    assert sim.table.version[0] == version + 2
    assert sim.metrics.loss_causes == {"path-broken": 1}


def test_learning_write_reactivates_the_next_hop_before_it_is_checked():
    # Row 1 has lost its previous pointer and link 1-2 no longer carries
    # piece 0. Hop 0-1's learning write sets prev(1) = 0 and, rewriting row
    # 1, activates 1-2 again before hop 1-2 is checked, so the piece
    # arrives. A walk made ahead of the writes must model that.
    net = make_net([(0, 1), (1, 2), (2, 3)], {u: 50.0 for u in range(4)},
                   proxies={2})
    sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], horizon=5,
                   strategy="DistrDataFwd")
    row = sim.table.row(0, 1)
    sim.table.set_row(0, 1, PathRow(prev=None, next=row.next,
                                    order_key=row.order_key))
    sim.net.deactivate(0, 1, 2)
    sim.run(1)
    assert sim.table.row(0, 1).prev == 0
    assert 0 in sim.net.links[(1, 2)].active_pieces
    assert sim.metrics.delivered == [1] and sim.metrics.lost == [0]
    assert not sim.metrics.loss_causes


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("extra_generated, extra_delivered, offset",
                         [(1, 0, 0), (0, 1, 1)])
def test_unbalanced_quiet_counts_raise_from_the_stretch(
        monkeypatch, strategy, extra_generated, extra_delivered, offset):
    # In the first case each quiet cycle generates one piece more than it
    # accounts for. In the second each accounts for one piece too many, and
    # the totals are one generated piece ahead when the stretch starts, so
    # the first quiet cycle balances and only the second does not.
    # A stretch takes its counts from the quiet walk it makes. A step keeps
    # its own counts, so the walks a step makes for itself and the walks
    # that end a stretch before it runs are left as they are.
    real = Simulation._walk
    offsets = [offset]

    def unbalanced(self):
        entries, gen, dlv, lost, quiet = real(self)
        if not quiet or sys._getframe(1).f_code.co_name != "_run_quiet":
            return entries, gen, dlv, lost, quiet
        self._generated += offsets.pop() if offsets else 0
        return entries, gen + extra_generated, dlv + extra_delivered, lost, quiet

    monkeypatch.setattr(Simulation, "_walk", unbalanced)
    sim = Simulation(replace(ScenarioConfig(), horizon=50, strategy=strategy,
                             interference=InterferenceConfig(prob_per_cycle=0.0)))
    with pytest.raises(EngineError, match="piece conservation violated cumulatively"
                       ) as raised:
        sim.run()
    assert raised.traceback[-1].name == "_run_quiet"
