"""One spend model against the code it replaced, and the activation invariant.

``node_spend`` is the only sum of a node's activated load, and the piece
clear walks the piece's own rows. On random networks whose links carry one
to four pieces each, driven only through the engine's row writers and
deactivations, the frozen references in ``oracles.py`` must agree: the epoch
bound exactly, the projected lifetime exactly where no link of the node
carries two pieces (to 1e-12 relative elsewhere, since the rate sum is now
multiplied once per link), and the active sets after a piece clear exactly.
The schema-driven ``render_scenario`` must match the old template byte for
byte. Full runs of every strategy must keep each activated link under a row
that points along it. A route-request fan-out sums its sender's load once,
but reads the sender's energy for every copy, since each send charges it.
"""

import copy
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import (STRATEGIES, DataPiece, InterferenceConfig, PathTable,
                    RouteRequest, ScenarioConfig, Simulation, engine,
                    install_path, max_epoch_duration, parse_scenario,
                    protocol, render_scenario)
from fwdsim.netmodel import clear_piece_paths
from fwdsim.scenario import _SCHEMA

from conftest import churn_config, make_net, mini_sim, quiet_config
from oracles import (EdgeIndexedNetwork, reference_clear_piece_paths,
                     reference_max_epoch_duration,
                     reference_projected_lifetime, reference_render_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EPS = st.one_of(st.sampled_from((25e-6, 50e-6, 100e-6)),
                st.floats(1e-6, 1e-3))        # the last is "uniform"
ENERGIES = (0.0, 0.002, 0.005, 0.5, 2.0, 10.0)


def unwired_rows(sim):
    """Activated (piece, link) pairs with no row pointing along the link."""
    return [(pid, lk) for lk, link in sorted(sim.net.links.items())
            for pid in sorted(link.active_pieces)
            if (row := sim.table.row(pid, lk[0])) is None or row.next != lk[1]]


@st.composite
def simple_path(draw, neighbors, start):
    path = [start]
    while len(path) < 6:
        options = [v for v in neighbors[path[-1]] if v not in path]
        if not options or (len(path) > 1 and draw(st.booleans())):
            break
        path.append(draw(st.sampled_from(options)))
    return path


@st.composite
def spend_cases(draw):
    """A simulation over a random network, its pieces installed on chains
    that share a trunk, then edited through the engine's writers."""
    n = draw(st.integers(3, 7), label="nodes")
    edges = {(draw(st.integers(0, u - 1)), u) for u in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]), max_size=n)))
    links = {}
    for u, v in sorted(edges):
        for lk in ((u, v), (v, u)):
            links[lk] = (draw(EPS), 10.0)
    energies = {u: draw(st.sampled_from(ENERGIES)) for u in range(n)}
    net = EdgeIndexedNetwork.of(make_net(links, energies))
    trunk = draw(simple_path(net.neighbors, draw(st.integers(0, n - 1))))
    table = PathTable()
    pieces = []
    for pid in range(draw(st.integers(1, 4), label="pieces")):
        kind = draw(st.sampled_from(("trunk", "part", "own")))
        if kind == "trunk" or len(trunk) < 3:
            chain = list(trunk)
        elif kind == "part":
            i = draw(st.integers(0, len(trunk) - 2))
            chain = trunk[i:draw(st.integers(i + 2, len(trunk)))]
        else:
            chain = draw(simple_path(net.neighbors, draw(st.integers(0, n - 1))))
        if len(chain) < 2:
            continue
        piece = DataPiece(id=pid, source=chain[0], consumer=chain[-1],
                          rate=draw(st.integers(0, 8)), proxy=chain[-1])
        pieces.append(piece)
        install_path(net, table, piece, chain)
    sim = Simulation(quiet_config(), net=net, table=table, pieces=pieces)
    nodes = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 8), label="edits")):
        if not pieces:
            break
        pid = draw(st.sampled_from(pieces)).id
        u = draw(nodes)
        kind = draw(st.sampled_from(("write", "clear_row", "off", "off_link",
                                     "off_node", "install", "clear")))
        if kind == "write":
            nxt = draw(st.sampled_from((None,) + net.neighbors[u]))
            sim.write_row(pid, u, draw(st.one_of(st.none(), nodes)), nxt, 0.5)
        elif kind == "clear_row":
            sim.clear_row(pid, u)
        elif kind == "off" and net.neighbors[u]:
            sim._ctx(u).deactivate_edge(pid, draw(st.sampled_from(net.neighbors[u])))
        elif kind == "off_link" and net.neighbors[u]:
            sim._ctx(u).deactivate_edge_all_pieces(
                draw(st.sampled_from(net.neighbors[u])))
        elif kind == "off_node":
            sim._ctx(u).deactivate_all_edges()
        elif kind == "install":
            chain = draw(simple_path(net.neighbors, u))
            if len(chain) > 1:
                install_path(net, table, sim.pieces_by_id[pid], chain)
        elif kind == "clear":
            clear_piece_paths(net, table, pid)
    return sim


@settings(max_examples=200, deadline=None)
@given(sim=spend_cases(), rate=st.integers(0, 8))
def test_spend_model_matches_the_replaced_sums(sim, rate):
    net, table, pieces = sim.net, sim.table, sim.pieces
    assert unwired_rows(sim) == []

    phase_j = sim.cfg.config_phase_energy_j
    got = max_epoch_duration(net, pieces, phase_j)
    want = reference_max_epoch_duration(net, table, pieces, phase_j)
    assert got == want

    for u in sorted(net.nodes):
        shared = any(len(net.links[(u, v)].active_pieces) > 1
                     for v in net.neighbors[u])
        for v in net.neighbors[u] + (u,):          # (u, u) is no link
            ctx = sim._ctx(u)
            got = ctx.projected_lifetime_of(u, v, rate, ctx.load_of(u))
            want = reference_projected_lifetime(sim, u, v, rate)
            if not shared or math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    for piece in pieces:
        new_net, new_table = copy.deepcopy((net, table))
        old_net, old_table = copy.deepcopy((net, table))
        clear_piece_paths(new_net, new_table, piece.id)
        reference_clear_piece_paths(old_net, old_table, piece.id)
        assert ({lk: link.active_pieces for lk, link in new_net.links.items()}
                == {lk: link.active_pieces for lk, link in old_net.links.items()})
        assert not new_table.rows_for_piece(piece.id)


def _value(conv):
    """Values the key's converter can produce."""
    return {
        "_float": st.floats(allow_nan=False),
        "_int": st.integers(-10**6, 10**6),
        "str": st.text("ABCDPR-abcdfrw", min_size=1),
        "_bool": st.booleans(),
        "_id_list": st.lists(st.integers(0, 999), max_size=5).map(tuple),
        "_death_list": st.lists(st.tuples(st.integers(0, 10**6),
                                          st.integers(0, 999)),
                                max_size=4).map(tuple),
    }[conv.__name__]


@st.composite
def non_default_configs(draw):
    """A config with every scenario key set away from its default."""
    cfg, inter = ScenarioConfig(), InterferenceConfig()
    for keys in _SCHEMA.values():
        for attr, conv in keys.values():
            owner = cfg
            if attr.startswith("interference."):
                owner, attr = inter, attr.split(".", 1)[1]
            default = getattr(owner, attr)
            setattr(owner, attr, draw(_value(conv).filter(lambda x: x != default),
                                      label=attr))
    return replace(cfg, interference=inter)


@settings(max_examples=50, deadline=None)
@given(cfg=non_default_configs())
def test_render_scenario_matches_the_old_template(cfg):
    assert render_scenario(cfg) == reference_render_scenario(cfg)


def test_render_scenario_matches_the_old_template_on_shipped_scenarios():
    for path in sorted(SCENARIOS.glob("*.scenario")):
        cfg = parse_scenario(path.read_text())
        assert render_scenario(cfg) == reference_render_scenario(cfg)


CHURN_HORIZON = 3_500


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(1, 30),
       cuts=st.lists(st.integers(1, CHURN_HORIZON - 1), max_size=40))
def test_active_links_stay_under_their_rows(strategy, seed, cuts):
    """Forced deaths plus frequent interference, run in chunks that end at
    random cycles: after each chunk, every piece active on (u, v) has u's row
    point to v."""
    sim = Simulation(churn_config(seed, horizon=CHURN_HORIZON, strategy=strategy))
    for end in sorted(set(cuts)) + [CHURN_HORIZON]:
        sim.run(end - sim.cycle)
        assert unwired_rows(sim) == []
    assert sim.metrics.death_times


def fan_out_copies(monkeypatch, fan_out):
    """Run ``fan_out(sim)`` from relay 1 of the chain 0-1-2-3, which also
    neighbors 4 and 5; return the senders whose load ``node_spend`` summed,
    and per copy sent its lifetime next to the reference lifetime at the
    moment it was sent."""
    net = make_net([(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (4, 3), (5, 3)],
                   {u: 0.5 for u in range(6)}, proxies={2})
    sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])])
    summed, copies = [], []
    real_spend, real_send = engine.node_spend, Simulation.send_message

    def counted_spend(net, u, pieces_by_id):
        summed.append(u)
        return real_spend(net, u, pieces_by_id)

    def send(self, src, dst, msg):
        copies.append((msg.min_lifetime,
                       reference_projected_lifetime(self, src, dst, 1)))
        real_send(self, src, dst, msg)

    monkeypatch.setattr(engine, "node_spend", counted_spend)
    monkeypatch.setattr(Simulation, "send_message", send)
    fan_out(sim)
    return summed, copies


def test_route_request_flood_sums_the_load_once(monkeypatch):
    summed, copies = fan_out_copies(
        monkeypatch, lambda sim: protocol.local_aodv_plus(sim._ctx(1), 0, 3, 2))
    assert summed == [1]
    assert len(copies) == 4 and len({got for got, _ in copies}) == 4
    assert all(got == want for got, want in copies)


def test_route_request_relay_sums_the_load_once(monkeypatch):
    msg = RouteRequest(piece=0, origin=0, target=3, req_id=7, ttl=2,
                       min_lifetime=float("inf"), hops=(0,), origin_key=0.0)
    summed, copies = fan_out_copies(
        monkeypatch, lambda sim: protocol._handle_route_request(sim._ctx(1), msg))
    assert summed == [1]
    assert len(copies) == 3 and len({got for got, _ in copies}) == 3
    assert all(got == want for got, want in copies)
