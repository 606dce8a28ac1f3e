import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import (DataPiece, LinkState, NetworkState, NodeState, PathRow,
                    PathTable, Simulation, TopologyError, install_path,
                    sample_access_latency, validate_paths, walk_chain)
from fwdsim.netmodel import PathViolation, path_installed

from conftest import grid, make_net, quiet_config
from oracles import (reference_chain, reference_sample_access_latency,
                     reference_validate_paths, reference_walk_chain)

PROXIES = {4, 7, 10, 13}


def undirected(net):
    return {tuple(sorted(k)) for k in net.links}


class TestGridConstruction:
    def test_paper_scale_grid_is_four_neighbor_at_3m(self):
        net = grid(3, 6, 3.0, PROXIES, 1)
        assert len(net.nodes) == 18
        assert len(undirected(net)) == 27          # no diagonals at 3 m
        # corner degree 2, edge degree 3, interior degree 4
        degrees = {u: len(net.neighbors[u]) for u in net.nodes}
        assert degrees[0] == 2 and degrees[17] == 2
        assert degrees[1] == 3 and degrees[6] == 3
        assert degrees[7] == 4 and degrees[10] == 4
        # the 3.54 m diagonal is excluded
        assert (0, 7) not in net.links

    def test_operating_grid_matches_published_edge_count(self):
        net = grid(3, 6, 3.6, PROXIES, 1)
        assert len(net.nodes) == 18
        assert len(undirected(net)) == 47          # diagonals included

    def test_minimal_two_node_grid(self):
        net = grid(1, 2, 3.0, {0}, 1)
        assert set(net.links) == {(0, 1), (1, 0)}

    def test_two_by_two_grid_has_four_link_pairs(self):
        # horizontal 2.5 x2, vertical 2.5 x2, diagonal 3.54 excluded
        net = grid(2, 2, 3.0, {0}, 1)
        assert len(net.nodes) == 4
        assert len(undirected(net)) == 4
        assert (0, 3) not in net.links and (1, 2) not in net.links

    def test_disconnected_grid_rejected(self):
        with pytest.raises(TopologyError):
            grid(1, 3, 2.0, {0}, 1)

    def test_bad_proxy_ids_rejected(self):
        with pytest.raises(TopologyError):
            grid(2, 2, 3.0, {9}, 1)

    def test_construction_is_deterministic(self):
        a = grid(3, 6, 3.6, PROXIES, 42)
        b = grid(3, 6, 3.6, PROXIES, 42)
        assert a.nodes == b.nodes and a.links == b.links
        c = grid(3, 6, 3.6, PROXIES, 43)
        assert a.nodes != c.nodes and a.links != c.links

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_link_existence_symmetric_and_range_consistent(self, seed):
        net = grid(3, 5, 3.6, {2}, seed)
        for (u, v) in net.links:
            assert (v, u) in net.links
        for u in net.nodes:
            for v in net.nodes:
                if u == v:
                    continue
                within = math.dist(net.nodes[u].pos, net.nodes[v].pos) <= 3.6
                assert ((u, v) in net.links) == within
                assert (v in net.neighbors[u]) == within

    def test_proxies_start_richer(self):
        net = grid(3, 6, 3.6, PROXIES, 1)
        proxy_floor = min(net.nodes[p].initial_energy_j for p in PROXIES)
        normal_ceiling = max(net.nodes[u].initial_energy_j
                             for u in net.nodes if u not in PROXIES)
        assert proxy_floor > normal_ceiling


class TestPathLatency:
    """Round-trip latency of an installed segment, as a consumer request
    measures it (``sample_access_latency``)."""

    def net3(self):
        return make_net({(0, 1): (50e-6, 10.0), (1, 0): (50e-6, 10.0),
                         (1, 2): (50e-6, 12.0), (2, 1): (50e-6, 12.0),
                         (2, 3): (50e-6, 8.0), (3, 2): (50e-6, 8.0)},
                        {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})

    def round_trip(self, net, segment):
        piece = DataPiece(id=0, source=segment[0], consumer=segment[-1],
                          rate=1, proxy=segment[0])
        table = PathTable()
        install_path(net, table, piece, segment)
        latency, miss = sample_access_latency(piece, table, net)
        assert miss is None
        return latency

    def test_single_hop(self):
        assert self.round_trip(self.net3(), [0, 1]) == 20.0

    def test_three_hop_sum(self):
        assert self.round_trip(self.net3(), [0, 1, 2, 3]) == 60.0

    def test_round_trip_symmetric_two_hops(self):
        net = make_net([(0, 1), (1, 2)], {0: 1.0, 1: 1.0, 2: 1.0}, latency=10.0)
        assert self.round_trip(net, [0, 1, 2]) == 40.0

    def test_latency_is_additive_over_concatenation(self):
        whole = self.round_trip(self.net3(), [0, 1, 2, 3])
        assert whole == (self.round_trip(self.net3(), [0, 1])
                         + self.round_trip(self.net3(), [1, 2, 3]))


def line_fixture():
    net = make_net([(0, 1), (1, 2), (2, 3)],
                   {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
    piece = DataPiece(id=0, source=0, consumer=3, rate=1, proxy=2)
    table = PathTable()
    install_path(net, table, piece, [0, 1, 2, 3])
    return net, table, piece


class TestValidatePaths:
    def test_intact_path_reports_nothing(self):
        net, table, piece = line_fixture()
        assert validate_paths(net, table, [piece]).ok()

    def test_pointer_asymmetry_flagged(self):
        net, table, piece = line_fixture()
        row = table.row(0, 2)
        table.set_row(0, 2, PathRow(prev=0, next=row.next, order_key=row.order_key))
        report = validate_paths(net, table, [piece])
        kinds = [v.kind for v in report.violations]
        assert "pointer-asymmetry" in kinds

    def test_loop_flagged_with_node_name(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (1, 3)],
                       {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        piece = DataPiece(id=0, source=0, consumer=3, rate=1, proxy=2)
        table = PathTable()
        install_path(net, table, piece, [0, 1, 2, 3])
        row = table.row(0, 3)
        table.set_row(0, 3, PathRow(prev=2, next=1, order_key=row.order_key))
        net.activate(0, 3, 1)
        report = validate_paths(net, table, [piece])
        loops = report.of_kind("loop")
        assert loops and "node 1 visited twice" in loops[0].detail

    def test_inactive_link_flagged(self):
        net, table, piece = line_fixture()
        net.deactivate(0, 1, 2)
        report = validate_paths(net, table, [piece])
        assert report.of_kind("inactive-link")

    def test_missing_link_stops_the_walk_where_the_link_is_missing(self):
        net, table, piece = line_fixture()
        table.set_row(0, 1, PathRow(prev=0, next=3, order_key=1.0))
        report = validate_paths(net, table, [piece])
        assert report.violations == [
            PathViolation(0, "missing-link", "no link 1->3"),
            PathViolation(0, "endpoint", "chain ends at 1, not consumer"),
        ]

    def test_chain_ending_short_of_consumer_is_an_endpoint_violation(self):
        net, table, piece = line_fixture()
        table.set_row(0, 2, PathRow(prev=1, next=None, order_key=2.0))
        report = validate_paths(net, table, [piece])
        assert report.violations == [
            PathViolation(0, "endpoint", "chain ends at 2, not consumer")]

    def test_proxy_off_the_chain_is_an_endpoint_violation(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (1, 3)],
                       {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        piece = DataPiece(id=0, source=0, consumer=3, rate=1, proxy=2)
        table = PathTable()
        install_path(net, table, piece, [0, 1, 3])
        report = validate_paths(net, table, [piece])
        assert report.violations == [
            PathViolation(0, "endpoint", "proxy 2 not on chain")]

    def test_walk_chain_stops_at_gap(self):
        net, table, piece = line_fixture()
        table.drop_row(0, 2)
        assert walk_chain(table, 0, 0) == [0, 1, 2]


class TestPathInstalled:
    """``path_installed`` holds exactly when the rows are the chain's, with
    the chain's order keys, and every traversed link is active."""

    def test_holds_after_install(self):
        net, table, _ = line_fixture()
        assert path_installed(net, table, 0, [0, 1, 2, 3])

    @pytest.mark.parametrize("chain", [[0, 1, 2], [0, 1, 2, 3, 2], [3, 2, 1, 0]])
    def test_another_chain_is_not_installed(self, chain):
        net, table, _ = line_fixture()
        assert not path_installed(net, table, 0, chain)

    @pytest.mark.parametrize("row", [PathRow(prev=0, next=2, order_key=1.5),
                                     PathRow(prev=None, next=2, order_key=1.0),
                                     PathRow(prev=0, next=None, order_key=1.0)])
    def test_a_changed_row_is_not_installed(self, row):
        net, table, _ = line_fixture()
        table.set_row(0, 1, row)
        assert not path_installed(net, table, 0, [0, 1, 2, 3])

    def test_an_extra_row_is_not_installed(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (1, 4)],
                       {u: 1.0 for u in range(5)})
        table = PathTable()
        install_path(net, table, DataPiece(id=0, source=0, consumer=3, rate=1),
                     [0, 1, 2, 3])
        table.set_row(0, 4, PathRow(prev=1, next=None, order_key=5.0))
        assert not path_installed(net, table, 0, [0, 1, 2, 3])

    def test_an_inactive_link_is_not_installed(self):
        net, table, _ = line_fixture()
        net.deactivate(0, 1, 2)
        assert not path_installed(net, table, 0, [0, 1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(2, 5), seed=st.integers(0, 10))
def test_grid_chain_reconstruction_roundtrip(rows, cols, seed):
    net = grid(rows, cols, 3.6, {0}, seed)
    ids = sorted(net.nodes)
    chain = [ids[0]]
    for v in ids[1:]:
        if v in net.neighbors[chain[-1]]:
            chain.append(v)
    if len(chain) < 2:
        return
    piece = DataPiece(id=0, source=chain[0], consumer=chain[-1], rate=1,
                      proxy=chain[len(chain) // 2])
    table = PathTable()
    install_path(net, table, piece, chain)
    assert walk_chain(table, 0, chain[0]) == chain
    assert validate_paths(net, table, [piece]).ok()


LATENCIES = (5.0, 7.5, 10.0, 12.25)
MUTATIONS = ("next", "gap", "end", "prev", "splice", "off", "toggle", "kill")


@st.composite
def pointer_tables(draw):
    """A small network with one piece whose pointer rows start as an
    installed chain, perhaps with its tail pointing back into it, and are
    then damaged: gaps, None pointers, pointers over links that do not
    exist, stale previous pointers, symmetric rewrites as a splice makes
    them, inactive links and dead relays. Links may be one-way."""
    n = draw(st.integers(2, 6))
    nodes = range(n)
    chain = draw(st.permutations(nodes))[:draw(st.integers(1, n))]
    loop_to = draw(st.one_of(st.none(), st.sampled_from(chain)))
    likely = set(zip(chain, chain[1:])) | set(zip(chain[1:], chain))
    likely.add((chain[-1], loop_to))
    links = {}
    for lk in ((u, v) for u in nodes for v in nodes if u != v):
        lat = draw(st.sampled_from(LATENCIES + LATENCIES + (None,)) if lk in likely
                   else st.sampled_from((None, None) + LATENCIES))
        if lat is not None:
            links[lk] = LinkState(eps_j=50e-6, eps_prev_j=50e-6, latency_ms=lat)
    net = NetworkState(
        nodes={u: NodeState(node=u, pos=(float(u), 0.0), initial_energy_j=1.0)
               for u in nodes},
        links=links,
        proxies=set(),
        neighbors={u: tuple(v for v in nodes if (u, v) in links) for u in nodes},
    )
    consumer = draw(st.one_of(st.just(chain[-1]), st.sampled_from(nodes)))
    proxy = draw(st.one_of(st.sampled_from(chain), st.sampled_from(nodes), st.none()))
    piece = DataPiece(id=0, source=chain[0], consumer=consumer, rate=1, proxy=proxy)
    table = PathTable()
    install_path(net, table, piece, list(chain))
    blank = PathRow(prev=None, next=None, order_key=9.0)

    def splice(u, v):
        row, back = table.row(0, u) or blank, table.row(0, v) or blank
        table.set_row(0, u, PathRow(row.prev, v, row.order_key))
        table.set_row(0, v, PathRow(u, back.next, back.order_key))
        net.activate(0, u, v)

    if loop_to is not None:
        splice(chain[-1], loop_to)
    on_or_off = st.one_of(st.sampled_from(chain), st.sampled_from(nodes))
    for kind, u, v in draw(st.lists(st.tuples(st.sampled_from(MUTATIONS),
                                              on_or_off, on_or_off),
                                    max_size=5)):
        row = table.row(0, u) or blank
        if kind == "gap":
            table.drop_row(0, u)
        elif kind == "end":
            table.set_row(0, u, PathRow(row.prev, None, row.order_key))
        elif kind == "next":
            table.set_row(0, u, PathRow(row.prev, v, row.order_key))
            net.activate(0, u, v)
        elif kind == "prev":
            table.set_row(0, u, PathRow(v, row.next, row.order_key))
        elif kind == "splice":
            splice(u, v)
        elif kind == "off" and row.next is not None:
            net.deactivate(0, u, row.next)
        elif kind == "toggle" and (u, v) in links:
            if 0 in links[(u, v)].active_pieces:
                net.deactivate(0, u, v)
            else:
                net.activate(0, u, v)
        elif kind == "kill":
            net.nodes[u].alive = False
    return net, table, piece


def hop_ids(hops):
    return [(tx.node, id(link), rx.node, learn) for tx, link, rx, learn in hops]


@settings(max_examples=400, deadline=None)
@given(case=pointer_tables(), strategy=st.sampled_from(["PDD", "DistrDataFwd"]))
def test_chain_walkers_match_their_own_walks(case, strategy):
    """Every walk over one shared ``walk_chain`` returns what the same walk
    did with its own loop and cap, on damaged pointer tables."""
    net, table, piece = case
    for start in net.nodes:
        assert walk_chain(table, 0, start) == reference_walk_chain(table, 0, start)
    sim = Simulation(quiet_config(strategy=strategy), net=net, table=table,
                     pieces=[piece])
    hops, complete = sim._chain(piece)
    want_hops, want_complete = reference_chain(sim, piece)
    assert (hop_ids(hops), complete) == (hop_ids(want_hops), want_complete)
    assert (sample_access_latency(piece, table, net)
            == reference_sample_access_latency(piece, table, net))
    assert validate_paths(net, table, [piece]) == reference_validate_paths(
        net, table, [piece])
