"""Quiet stretches against stepping every cycle, and data-plane learning.

``SteppedSimulation`` (``oracles.py``) runs every cycle through ``_step()``
and forwards hop by hop, as the engine did before quiet stretches. On small
random scenarios, split into random ``run(n)`` calls with state edits
between them, both must give identical CSV, summary, death times, energy
log, trace and diagnostics, and leave identical node, link-cost,
pointer-row, piece and protocol state, after every call.
``PolledSimulation`` steps, in addition, every alive node's protocol every
cycle; local repair must match it the same way, on the random scenarios
and on the benchmark's churn set-up.

The controller cost and, in the scripted tests, the link costs are powers
of two, so every energy sum is exact; a drain edit leaves a node an exact
number of hops of energy, which puts its clamp on a cycle boundary, where a
stretch that runs one cycle too long would miss it. The random test also
draws a link cost that is not a power of two, so its sums round, and a
stretch that added a node's charges in another order would drift from the
stepped run. A stretch charges in closed form, a binade at a time, so one
long stretch at such a cost takes a relay's account and the data total
across several binades and must still match the stepped run bit for bit.
Turning the energy audit on or off must change no output.
"""

import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import (STRATEGIES, EngineError, InterferenceConfig, PathRow,
                    ScenarioConfig, Simulation, engine, parse_scenario)

from conftest import SCENARIOS, churn_config, make_net, mini_sim, spike_link
from oracles import PolledSimulation, SteppedSimulation

TX_J = 2.0 ** -14


def outputs(sim):
    m = sim.metrics
    nodes = [(st.spent_j, st.alive) for _, st in sorted(sim.net.nodes.items())]
    links = [(link.eps_j, link.eps_prev_j)
             for _, link in sorted(sim.net.links.items())]
    rows = {pid: sorted(sim.table.rows_for_piece(pid).items())
            for pid in sim.pieces_by_id}
    protocol = [state for _, state in sorted(sim._states.items())]
    return (sim.cycle, m.csv_text(), m.summary_text(), dict(m.death_times),
            sim.energy_log, sim.trace_lines, sim.diagnostics, nodes, links,
            rows, sim.piece_status, protocol)


def edit(sim, kind, a, b):
    """The same state edit on either engine: drain node a to b hops of
    energy, spike the a-th link, toggle whether the next link of the a-th
    piece's b-th row carries it (no alert is sent), or clear that row's
    previous pointer (data-plane learning mends it)."""
    if kind == "drain":
        node = sim.net.nodes[a % len(sim.net.nodes)]
        if node.alive:
            node.initial_energy_j = node.spent_j + b * sim.cfg.tx_energy_j
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


def random_case(draw, strategies):
    """A small random scenario of one of ``strategies``, and the chunks and
    edits to run it through."""
    horizon = draw(st.integers(10, 300), label="horizon")
    cfg = ScenarioConfig(
        rows=3, cols=4, proxies=(5, 6),
        tx_energy_j=draw(st.sampled_from([TX_J, 5e-05])),
        controller_energy_j=2.0 ** -10,
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
        strategy=draw(st.sampled_from(strategies)),
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
    return cfg, chunks


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quiet_stretches_match_stepping_every_cycle(data):
    cfg, chunks = random_case(data.draw, STRATEGIES)
    run_in_step(Simulation(cfg), SteppedSimulation(cfg), chunks)


# Local repair against stepping every alive node's protocol every cycle:
# both the engine's wake set and its quiet stretches rest on
# ``protocol.node_cycle``'s no-op contract, and this is its check. A change
# to the contract, or to what the engine skips by it, must keep these green.
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_local_repair_matches_polling_every_node(data):
    cfg, chunks = random_case(data.draw, ["DistrDataFwd"])
    run_in_step(Simulation(cfg), PolledSimulation(cfg), chunks)


@pytest.mark.parametrize("seed", [8, 18, 24, 30])
def test_churn_local_repair_matches_polling_every_node(seed):
    cfg = churn_config(seed, horizon=3500, strategy="DistrDataFwd")
    run_in_step(Simulation(cfg), PolledSimulation(cfg), [(1700, "none", 0, 0)])


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


@pytest.mark.parametrize("strategy", ["PDD", "PDD-CR"])
@pytest.mark.parametrize("duration", [1, 3])
@pytest.mark.parametrize("hops_left", [3, 4, 5])
def test_clamp_under_a_spike_matches_stepping_every_cycle(strategy, duration,
                                                          hops_left):
    # Every interference event multiplies every link's cost by 4, below the
    # PDD-CR trigger, for `duration` cycles. Relay 1 holds hops_left cycles
    # of baseline spend when the first event lands: enough for the stretch
    # from cycle 0 to reach it, too little to outlast it. Its clamp falls in
    # the spiked cycle (3 or 4 hops left) or the next one (5).
    def build(engine, relay_j, horizon):
        net = make_net([(0, 1), (1, 2), (2, 3)],
                       {0: 1.0, 1: relay_j, 2: 1.0, 3: 1.0}, proxies={2},
                       eps=TX_J)
        return mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], engine=engine,
                        horizon=horizon, strategy=strategy, request_prob=0.5,
                        trigger_threshold=0.9, seed=3,
                        interference=InterferenceConfig(
                            prob_per_cycle=0.1, multiplier=4.0,
                            affected_links=6, duration_cycles=duration))

    probe = build(Simulation, 1.0, 100)
    while probe.net.links[(1, 2)].eps_j == TX_J:
        probe.run(1)
    hit = probe.cycle - 1
    assert hit > 0

    def sim(engine):
        return build(engine, (hit + hops_left) * TX_J, hit + 12)

    fast = sim(Simulation)
    run_in_step(fast, sim(SteppedSimulation), [(hit + 3, "none", 0, 0)])
    assert fast.metrics.death_times[1] == (hit if hops_left < 5 else hit + 1)


def interference_events(monkeypatch):
    """Record, for every interference event a simulation applies, its cycle
    and whether it fired the trigger on a link in use."""
    events = {}
    cycle = []
    real_inject = engine.inject_interference
    real_method = Simulation._inject_interference

    def inject(*args, **kwargs):
        affected = real_inject(*args, **kwargs)
        if affected:
            events[cycle[0]] = any(fired for _, fired in affected)
        return affected

    def method(self, cyc, *args):
        cycle[:] = [cyc]
        real_method(self, cyc, *args)

    monkeypatch.setattr(engine, "inject_interference", inject)
    monkeypatch.setattr(Simulation, "_inject_interference", method)
    return events


@pytest.mark.parametrize("seed", [8, 18])
def test_churn_steps_only_where_a_plan_or_a_liveness_can_change(monkeypatch,
                                                                 seed):
    # The benchmark's churn set-up: two forced deaths at cycle 3000, and on
    # one cycle in ten an event that triples two links' cost for a cycle.
    # Under the static plan only the deaths are stepped. Under central
    # recomputation so are the events that fire the trigger and the replan
    # in the cycle after each death (a controller round's own charges can
    # empty a node). Local repair steps the deaths and the events that fire
    # the trigger too. An event that fires nothing, or a revert, wakes no
    # protocol work, so a quiet stretch runs on through it; only the few
    # that fall in a cycle stepped for other work (a message, a repair) are
    # stepped.
    cfg = churn_config(seed, horizon=3500)
    deaths = {cyc for cyc, _ in cfg.forced_deaths}
    real_step = Simulation._step
    for strategy in STRATEGIES:
        steps = []

        def step(self, *args):
            steps.append(self.cycle)
            real_step(self, *args)

        monkeypatch.setattr(Simulation, "_step", step)
        events = interference_events(monkeypatch)
        died = Simulation(replace(cfg, strategy=strategy)).run().death_times
        fired = {cyc for cyc, fires in events.items() if fires}
        assert len(events) > 300 and steps == sorted(set(steps))
        if strategy == "PDD":
            assert steps == sorted(deaths)
        elif strategy == "PDD-CR":
            assert fired and len(fired) < len(events) / 2
            assert set(steps) == deaths | fired | {cyc + 1 for cyc in died.values()}
        else:
            assert deaths | fired <= set(steps)
            reverts = {cyc + 1 for cyc in events if cyc + 1 < cfg.horizon}
            no_fire = (set(events) - fired) | (reverts - set(events))
            assert len(no_fire & set(steps)) < len(no_fire) / 3


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


class CountedSimulation(Simulation):
    """The engine, recording the cycle of every ``_step()``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = []

    def _step(self, *args):
        self.steps.append(self.cycle)
        super()._step(*args)


def looped_broken_piece(engine, shape, audit, seed, horizon):
    """Piece 0 of 0 -> 1 -> 2 -> 3, marked repair-failed, with its rows
    looped 0 -> 1 -> 2 -> 1: the shape of the default scenario's
    full-horizon DistrDataFwd seed 2 (6 -> 13 -> 7 -> 13). Each cycle hop
    0-1 writes prev(1) = 0 and hop 2-1 writes it back to 2. ``shape``
    varies it: "loop" as it is; "cut", link 1-2 no longer carries the
    piece, so the first cycle's write re-activates it; "moved", prev(1)
    starts at 0, so the first cycle's write really changes it. Piece 1,
    4 -> 2 -> 3, is delivered throughout, and interference hits below the
    trigger re-price hops but fire nothing."""
    net = make_net([(0, 1), (1, 2), (2, 3), (2, 4)],
                   {u: 1.0 for u in range(5)}, proxies={2}, eps=3e-5)
    sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3]), (4, 3, 2, 2, [4, 2, 3])],
                   engine=engine, horizon=horizon, request_prob=0.5, seed=seed,
                   audit_energy=audit,
                   interference=InterferenceConfig(
                       prob_per_cycle=0.05, multiplier=1.5, affected_links=2,
                       duration_cycles=2))
    sim.write_row(0, 2, 1, 1, 2.0)
    sim.table.set_row(0, 1, PathRow(prev=0 if shape == "moved" else 2, next=2,
                                    order_key=1.0))
    if shape == "cut":
        sim.net.deactivate(0, 1, 2)
    sim.mark_broken(0, "repair-failed")
    return sim


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(["loop", "cut", "moved"]), audit=st.booleans(),
       seed=st.integers(0, 10_000),
       splits=st.lists(st.integers(1, 120), max_size=5))
def test_looped_broken_piece_matches_stepping_and_polling(shape, audit, seed,
                                                          splits):
    # A cycle whose learning writes leave every row and activation as they
    # were is quiet; one whose writes change a row or an activation steps.
    chunks = [(n, "none", 0, 0) for n in splits]
    for oracle in (SteppedSimulation, PolledSimulation):
        fast = looped_broken_piece(CountedSimulation, shape, audit, seed, 300)
        run_in_step(fast, looped_broken_piece(oracle, shape, audit, seed, 300),
                    chunks)
        assert fast.steps == ([] if shape == "loop" else [0])


@pytest.mark.parametrize("shape, writes", [("loop", 0), ("cut", 2),
                                           ("moved", 1)])
def test_looped_broken_piece_steps_only_where_a_write_changes_state(shape,
                                                                   writes):
    # 5,000 cycles with about 250 interference hits, none of which fires.
    # The oracle writes prev(1) in every cycle; the engine steps only the
    # first cycle of a shape whose writes change state, and writes there
    # only. The rows, the activations and every output still match.
    fast = looped_broken_piece(CountedSimulation, shape, False, 7, 5000)
    stepped = looped_broken_piece(SteppedSimulation, shape, False, 7, 5000)
    version = fast.table.version[0]
    fast.run()
    stepped.run()
    assert outputs(fast) == outputs(stepped)
    assert fast.steps == ([0] if writes else [])
    assert fast.table.version[0] == version + writes
    assert stepped.table.version[0] > version + 2 * 4999
    assert fast.table.row(0, 1).prev == 2
    assert 0 in fast.net.links[(1, 2)].active_pieces


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
    assert [entry.name for entry in raised.traceback[-2:]] == ["_run_quiet", "_close"]


@pytest.mark.parametrize("strategy, p_hit", [
    ("PDD", 0.0), ("PDD-CR", 0.0), ("DistrDataFwd", 0.0), ("PDD", 0.05)])
def test_one_long_stretch_crosses_binades_like_stepping(monkeypatch, strategy,
                                                        p_hit):
    # Two pieces share relay 1 at a cost that is not a power of two, so its
    # account and the data total round on every addition. From zero spend,
    # 6,000 cycles take both across many binades in closed form. Under PDD
    # with interference the stretch runs on through hits and reverts, each
    # of which brings the nodes whose hops it re-prices up to date.
    def build(engine):
        net = make_net([(0, 1), (1, 2), (2, 3), (1, 4)],
                       {u: 100.0 for u in range(5)}, proxies={2}, eps=3e-5)
        return mini_sim(net, [(0, 3, 2, 3, [0, 1, 2, 3]),
                              (4, 3, 2, 1, [4, 1, 2, 3])],
                        engine=engine, horizon=6000, strategy=strategy,
                        request_prob=0.5, seed=5,
                        interference=InterferenceConfig(
                            prob_per_cycle=p_hit, multiplier=2.5,
                            affected_links=2, duration_cycles=2))

    steps = []
    real_step = Simulation._step

    def step(self, *args):
        steps.append(self.cycle)
        real_step(self, *args)

    monkeypatch.setattr(Simulation, "_step", step)
    fast = build(Simulation)
    fast.run()
    assert steps == [] and fast.cycle == 6000   # one stretch, start to end
    monkeypatch.undo()
    stepped = build(SteppedSimulation)
    stepped.run()
    assert outputs(fast) == outputs(stepped)

    def binades(before, after):
        return math.frexp(after)[1] - math.frexp(before)[1]

    # The relay pays 4 pieces' hops a cycle; the data total is row 0.
    assert binades(4 * 3e-5, fast.net.nodes[1].spent_j) >= 2
    assert binades(fast.metrics.energy_data_j[0], fast._data_energy) >= 2


@pytest.mark.parametrize("workload, seed", [
    ("churn", 1), ("churn", 2), ("churn", 3), ("churn", 4), ("desk", 1)])
def test_energy_audit_changes_no_output(workload, seed):
    # The audit only logs what the charging path spends; it drives none of
    # it, so every output is the same with it on and off.
    if workload == "churn":
        base = churn_config(seed, horizon=3500)
    else:
        base = replace(parse_scenario(
            (SCENARIOS / "default.scenario").read_text()), seed=seed)

    def run(strategy, audit):
        sim = Simulation(replace(base, strategy=strategy, audit_energy=audit))
        m = sim.run()
        assert bool(sim.energy_log) == audit
        spent = [st.spent_j.hex() for _, st in sorted(sim.net.nodes.items())]
        return m.csv_text(), m.summary_text(), dict(m.death_times), spent

    for strategy in STRATEGIES:
        assert run(strategy, True) == run(strategy, False)
