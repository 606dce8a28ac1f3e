import copy
import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdsim import netmodel, planner
from fwdsim import (DataPiece, InterferenceConfig, PlannerView, PlanningError,
                    ScenarioConfig, Simulation, bottleneck_path,
                    compute_plan, install_path, path_bottleneck,
                    sample_access_latency, validate_paths, walk_chain, PathTable)

from conftest import grid, make_net, mini_sim, quiet_config, status_net
from oracles import (enumerate_best_bottleneck, enumerate_single_piece_plan,
                     random_planner_graph, reference_bottleneck_path,
                     reference_compute_plan)
from test_golden import plan_instance

PARAMS = 5e-3   # config_phase_energy_j


def view_from(links, energies, spend=None):
    view = PlannerView.from_network(status_net(links, energies), PARAMS)
    if spend:
        view.spend.update(spend)
    return view


def sym(links):
    out = {}
    for (u, v), attrs in links.items():
        out[(u, v)] = attrs
        out.setdefault((v, u), attrs)
    return out


class TestBottleneckPath:
    def test_avoids_low_energy_node_even_if_slower(self):
        # two disjoint routes 0-1-3 and 0-2-3; node 1 is nearly dead
        links = sym({(0, 1): (50e-6, 5.0), (1, 3): (50e-6, 5.0),
                     (0, 2): (50e-6, 20.0), (2, 3): (50e-6, 20.0)})
        view = view_from(links, {0: 5.0, 1: 0.01, 2: 5.0, 3: 5.0})
        path = bottleneck_path(view, 0, 3, 100.0, rate=2.0)
        assert path == [0, 2, 3]

    def test_budget_is_inclusive(self):
        links = sym({(0, 1): (50e-6, 10.0), (1, 2): (50e-6, 10.0)})
        view = view_from(links, {0: 5.0, 1: 5.0, 2: 5.0})
        assert bottleneck_path(view, 0, 2, 20.0, rate=1.0) == [0, 1, 2]
        assert bottleneck_path(view, 0, 2, 19.999, rate=1.0) is None

    def test_unreachable_target(self):
        links = sym({(0, 1): (50e-6, 10.0), (2, 3): (50e-6, 10.0)})
        view = view_from(links, {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0})
        assert bottleneck_path(view, 0, 3, None, rate=1.0) is None

    def test_same_endpoints_rejected(self):
        links = sym({(0, 1): (50e-6, 10.0)})
        view = view_from(links, {0: 5.0, 1: 5.0})
        with pytest.raises(PlanningError):
            bottleneck_path(view, 0, 0, None, rate=1.0)

    def test_excluded_nodes_respected(self):
        links = sym({(0, 1): (50e-6, 5.0), (1, 3): (50e-6, 5.0),
                     (0, 2): (50e-6, 5.0), (2, 3): (50e-6, 5.0)})
        view = view_from(links, {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0})
        path = bottleneck_path(view, 0, 3, None, rate=1.0, excluded={1})
        assert path == [0, 2, 3]

    def test_round_trip_without_budget_crosses_a_one_way_edge(self):
        # 2 -> 3 has no way back, so its round-trip latency is infinite. No
        # budget admits it; the detour through the weak node 4 is taken
        # only under a finite budget.
        links = sym({(0, 1): (50e-6, 5.0), (1, 2): (50e-6, 7.0),
                     (0, 4): (50e-6, 5.0), (4, 3): (50e-6, 5.0)})
        links[(2, 3)] = (50e-6, 4.0)
        view = view_from(links, {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0, 4: 0.5})
        assert bottleneck_path(view, 0, 3, None, 1, round_trip=True) == [0, 1, 2, 3]
        assert bottleneck_path(view, 0, 3, 1000.0, 1, round_trip=True) == [0, 4, 3]

    @pytest.mark.parametrize("round_trip", [False, True])
    def test_matches_exhaustive_enumeration(self, round_trip):
        rng = random.Random(99)
        checked = 0
        for _ in range(80):
            view, nodes = random_planner_graph(rng)
            src, dst = rng.sample(nodes, 2)
            budget = rng.choice([None, 20.0, 60.0, 200.0])
            rate = rng.randint(1, 8)
            got = bottleneck_path(view, src, dst, budget, rate,
                                  round_trip=round_trip)
            want = enumerate_best_bottleneck(view, src, dst, budget, rate,
                                             round_trip=round_trip)
            if want is None:
                assert got is None
                continue
            checked += 1
            assert got is not None
            got_bot = path_bottleneck(view, got, rate)
            assert got_bot == want[0]
            if budget is not None:
                lat = sum(view.edges[(u, v)][1]
                          + (view.edges[(v, u)][1] if round_trip else 0.0)
                          for u, v in zip(got, got[1:]))
                assert lat <= budget
        assert checked > 20


class TestMatchesReferenceSearch:
    """The indexed search returns exactly what the plain label search
    returned, ties included, also after the view's spend changes."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_same_path_as_reference(self, seed, data):
        rng = random.Random(seed)
        view, nodes = random_planner_graph(rng, max_nodes=9,
                                           latencies=(5.0, 10.0, 20.0))
        src, dst = data.draw(st.permutations(nodes))[:2]
        kwargs = dict(
            latency_budget_ms=data.draw(st.sampled_from([None, 10.0, 20.0, 40.0, 80.0])),
            rate=data.draw(st.sampled_from([0, 1, 2, 8])),
            round_trip=data.draw(st.booleans()),
            excluded=frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=3))),
            hop_only=data.draw(st.booleans()),
        )

        def check():
            want = reference_bottleneck_path(view, src, dst, **kwargs)
            assert bottleneck_path(view, src, dst, **kwargs) == want
            return want

        path = check()
        if path is not None:
            view.commit(path, data.draw(st.sampled_from([1, 4])))
            check()
        view.spend[src] = data.draw(st.sampled_from([0.0, 1e-4, 1e-2]))
        check()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_same_consumer_twice_across_a_commit(self, seed, data):
        # The second search reuses the view's latency caps toward dst.
        rng = random.Random(seed)
        view, nodes = random_planner_graph(rng, max_nodes=9,
                                           latencies=(5.0, 10.0, 20.0))
        first, second, dst = data.draw(st.permutations(nodes))[:3]
        kwargs = dict(latency_budget_ms=data.draw(st.sampled_from([20.0, 40.0, 80.0])),
                      rate=data.draw(st.sampled_from([1, 2, 8])), round_trip=True)
        path = bottleneck_path(view, first, dst, **kwargs)
        assert path == reference_bottleneck_path(view, first, dst, **kwargs)
        if path is not None:
            view.commit(path, kwargs["rate"])
        for src in (first, second):
            want = reference_bottleneck_path(view, src, dst, **kwargs)
            assert bottleneck_path(view, src, dst, **kwargs) == want
        assert len(view.topology._caps) == 1

    def test_topology_builds_the_index(self):
        links = sym({(0, 1): (50e-6, 5.0), (1, 2): (50e-6, 7.0)})
        links[(2, 3)] = (40e-6, 4.0)                 # no way back from 3
        view = view_from(links, {u: 5.0 for u in range(4)})
        topology = view.topology
        ids = topology.edge_ids
        assert list(ids) == sorted(links)
        assert sorted(ids.values()) == list(range(len(links)))
        assert topology.tails == [u for u, _ in sorted(links)]
        assert view.out_neighbors(1) == [0, 2]
        assert topology.out_edges[2] == ((1, ids[(2, 1)], 1 << 1, 7.0),
                                         (3, ids[(2, 3)], 1 << 3, 4.0))
        # (2, 3) stays in the round-trip index, at an infinite latency.
        assert topology.round_trips[2] == ((1, ids[(2, 1)], 1 << 1, 14.0),
                                           (3, ids[(2, 3)], 1 << 3, float("inf")))
        assert topology.out_edges[3] == topology.round_trips[3] == ()
        # (2, 3) has no reverse edge, so it is in no in-edge list.
        assert topology.in_edges[2] == ((1, ids[(1, 2)]),)
        assert topology.in_edges[3] == ()
        assert view.eps == [links[key][0] for key in sorted(links)]
        assert view.edges == links

    def test_views_that_fit_share_the_index(self):
        # Other energies and costs, and a link to a dead node: the same node
        # set and latencies, so the same index objects.
        links = sym({(0, 1): (50e-6, 5.0), (1, 2): (50e-6, 7.0), (0, 2): (50e-6, 9.0)})
        first = view_from(links, {u: 5.0 for u in range(3)})
        costlier = {key: (eps * 3.0, lat) for key, (eps, lat) in links.items()}
        net = status_net({**costlier, **{(u, 7): (50e-6, 1.0) for u in range(3)}},
                         dict.fromkeys(range(3), 2.0))
        second = PlannerView.from_network(net, PARAMS, first.topology)
        assert second.topology is first.topology
        assert second.edges == costlier
        assert first.edges == links


class TestFloor:
    """A search started from a floor returns the unfloored path whenever
    that path is not strictly worse than the floor, and otherwise None or a
    path strictly worse than the floor; a filled lifetime table shared with
    an earlier search changes nothing."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_floor_keeps_every_path_that_reaches_it(self, seed, data):
        rng = random.Random(seed)
        view, nodes = random_planner_graph(rng, max_nodes=9,
                                           latencies=(5.0, 10.0, 20.0))
        src, dst = data.draw(st.permutations(nodes))[:2]
        rate = data.draw(st.sampled_from([0, 1, 2, 8]))
        kwargs = dict(
            latency_budget_ms=data.draw(st.sampled_from([None, 10.0, 20.0, 40.0, 80.0])),
            rate=rate,
            round_trip=data.draw(st.booleans()),
            excluded=frozenset(data.draw(st.sets(st.sampled_from(nodes), max_size=3))),
        )
        want = reference_bottleneck_path(view, src, dst, **kwargs)
        # Every bottleneck is some edge's lifetime, so floors drawn from
        # them tie the answer now and then.
        lives = sorted({view.edge_lifetime(u, v, rate) for u, v in view.edges})
        floor = (data.draw(st.sampled_from(lives + [0.0, math.inf])),
                 data.draw(st.integers(-1, len(nodes))))
        table = view.lifetimes(rate)
        assert bottleneck_path(view, src, dst, lifetimes=table, **kwargs) == want
        got = bottleneck_path(view, src, dst, floor=floor, lifetimes=table, **kwargs)

        def key(path):
            return -path_bottleneck(view, path, rate), len(path) - 1

        target = (-floor[0], floor[1])
        if want is not None and key(want) <= target:
            assert got == want
        else:
            assert got is None or key(got) > target


class TestLifetimeTable:
    """A filled lifetime table holds every edge's ``edge_lifetime`` at its
    edge id, the special cases of ``lifetime_from_spend`` included: an
    empty node, one at or under the configuration-phase energy, zero
    spend."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_slot_is_the_edge_lifetime(self, seed, data):
        rng = random.Random(seed)
        view, nodes = random_planner_graph(rng, max_nodes=7, one_way=0.3)
        levels = [0.0, PARAMS / 2, PARAMS, 2 * PARAMS, 5.0]
        for u in nodes:
            view.energy[u] = data.draw(st.sampled_from(levels))
            view.spend[u] = data.draw(st.sampled_from([0.0, 1e-4]))
        rate = data.draw(st.sampled_from([0, 1, 8]))
        table = view.lifetimes(rate)
        ids = view.topology.edge_ids
        assert len(table) == len(ids)
        for (u, v), eid in ids.items():
            assert table[eid] == view.edge_lifetime(u, v, rate)


class TestWidest:
    """The widest-path bound against brute force: from the root, and toward
    it over edges that have a reverse edge, every target's width is the
    best bottleneck over simple paths, and a target left out has none."""

    @staticmethod
    def best_widths(view, root, rate, toward):
        """Max-min lifetime over the simple paths from root (toward: to
        root, over edges that have a reverse edge) to every node."""
        edges = view.edges
        best = {}

        def visit(x, width, seen):
            if x != root and width > best.get(x, -math.inf):
                best[x] = width
            for (a, b) in edges:
                if toward and b == x and (x, a) in edges and a not in seen:
                    life = view.edge_lifetime(a, x, rate)
                    visit(a, min(width, life), seen | {a})
                elif not toward and a == x and b not in seen:
                    life = view.edge_lifetime(x, b, rate)
                    visit(b, min(width, life), seen | {b})

        visit(root, math.inf, {root})
        return best

    def test_in_edge_index_lists_the_edges_with_a_reverse_edge(self):
        rng = random.Random(5)
        for _ in range(40):
            view, nodes = random_planner_graph(rng, one_way=0.3)
            for u in nodes:
                want = tuple((v, view.topology.edge_ids[(v, u)])
                             for v in sorted(nodes)
                             if (v, u) in view.edges and (u, v) in view.edges)
                assert view.topology.in_edges[u] == want

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_widths_match_brute_force(self, seed, data):
        rng = random.Random(seed)
        view, nodes = random_planner_graph(rng, max_nodes=7,
                                           latencies=(5.0, 10.0), one_way=0.3)
        root = data.draw(st.sampled_from(nodes))
        others = [u for u in nodes if u != root]
        targets = data.draw(st.lists(st.sampled_from(others), unique=True))
        rate = data.draw(st.sampled_from([0, 1, 2, 8]))
        table = view.lifetimes(rate)          # shared, as compute_plan does
        for toward in data.draw(st.permutations([False, True])):
            width = planner._widest(view, root, table, targets, toward)
            want = self.best_widths(view, root, rate, toward)
            assert width[root] == math.inf
            for t in targets:
                assert width[t] == want.get(t, -math.inf)
            for u, w in enumerate(width):     # settled or not, a real path's
                assert u == root or w == -math.inf or w <= want[u]


def five_node_net(dying=1):
    """Proxies 1 and 2; the route to proxy `dying` passes a nearly-dead relay."""
    links = sym({(0, 3): (50e-6, 10.0), (3, 1): (50e-6, 10.0),
                 (0, 4): (50e-6, 10.0), (4, 2): (50e-6, 10.0),
                 (1, 5): (50e-6, 10.0), (2, 5): (50e-6, 10.0)})
    energies = {0: 5.0, 1: 50.0, 2: 50.0, 3: 5.0, 4: 5.0, 5: 5.0}
    energies[3 if dying == 1 else 4] = 0.02
    return status_net(links, energies), links, energies


class TestComputePlan:
    def test_avoids_proxy_behind_nearly_dead_relay(self):
        net, links, energies = five_node_net(dying=1)
        piece = DataPiece(id=0, source=0, consumer=5, rate=4)
        plan = compute_plan(net, [piece], {1, 2}, 100.0, PARAMS)
        assert plan.pieces[0].proxy == 2
        # brute force agrees on the winning bottleneck
        view = view_from(links, energies)
        best = enumerate_single_piece_plan(view, piece, {1, 2}, 100.0)
        assert best[1] == 2

    def test_adjacent_source_proxy_consumer_two_hop_plan(self):
        links = sym({(0, 1): (50e-6, 10.0), (1, 2): (50e-6, 10.0)})
        net = status_net(links, dict.fromkeys((0, 1, 2), 5.0))
        piece = DataPiece(id=0, source=0, consumer=2, rate=1)
        plan = compute_plan(net, [piece], {1}, 100.0, PARAMS)
        assert plan.pieces[0].source_segment == [0, 1]
        assert plan.pieces[0].consumer_segment == [1, 2]

    def test_unattainable_budget_reported_infeasible(self):
        net, _, _ = five_node_net()
        piece = DataPiece(id=0, source=0, consumer=5, rate=4)
        plan = compute_plan(net, [piece], {1, 2}, 1.0, PARAMS)
        assert plan.pieces == {}
        assert "no latency-feasible path" in plan.infeasible[0]

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf, math.nan])
    def test_budget_must_be_positive_and_finite(self, budget):
        net, _, _ = five_node_net()
        piece = DataPiece(id=0, source=0, consumer=5, rate=4)
        with pytest.raises(PlanningError):
            compute_plan(net, [piece], {1, 2}, budget, PARAMS)

    def test_matches_single_piece_enumeration(self):
        rng = random.Random(4242)
        for _ in range(40):
            view, nodes = random_planner_graph(rng)
            if len(nodes) < 4:
                continue
            src, cons, proxy_a, proxy_b = rng.sample(nodes, 4)
            piece = DataPiece(id=0, source=src, consumer=cons, rate=rng.randint(1, 8))
            net = status_net(view.edges, view.energy)
            fresh = PlannerView.from_network(net, PARAMS)
            plan = compute_plan(net, [piece], {proxy_a, proxy_b}, 150.0, PARAMS)
            best = enumerate_single_piece_plan(fresh, piece, {proxy_a, proxy_b}, 150.0)
            if best is None:
                assert 0 in plan.infeasible
                continue
            assert 0 in plan.pieces
            chain = plan.pieces[0].chain
            got_bot = path_bottleneck(fresh, chain, piece.rate)
            assert got_bot == best[4]

    def test_planning_is_deterministic(self):
        net, _, _ = five_node_net()
        pieces = [DataPiece(id=0, source=0, consumer=5, rate=4),
                  DataPiece(id=1, source=5, consumer=0, rate=4)]
        a = compute_plan(net, pieces, {1, 2}, 100.0, PARAMS)
        b = compute_plan(net, pieces, {1, 2}, 100.0, PARAMS)
        assert a.to_text() == b.to_text()

    def test_emitted_plans_validate_and_respect_budget(self):
        rng = random.Random(777)
        for seed in range(6):
            net = grid(3, 4, 3.6, {5, 6}, seed)
            for u in net.nodes.values():
                u.initial_energy_j = rng.uniform(1.0, 30.0)
            net.nodes[5].initial_energy_j = 100.0
            net.nodes[6].initial_energy_j = 100.0
            pieces = [DataPiece(id=0, source=0, consumer=11, rate=3),
                      DataPiece(id=1, source=4, consumer=1, rate=6)]
            plan = compute_plan(net, pieces, net.proxies, 100.0, PARAMS)
            table = PathTable()
            for pid, pp in plan.pieces.items():
                piece = pieces[pid]
                piece.proxy = pp.proxy
                install_path(net, table, piece, pp.chain)
                latency, miss = sample_access_latency(piece, table, net)
                assert miss is None and latency <= 100.0
            planned = [p for p in pieces if p.id in plan.pieces]
            assert validate_paths(net, table, planned).ok()


@st.composite
def tie_heavy_plans(draw):
    """A small planning problem where ties are the rule: latencies of 5, 10
    or 20 ms, energies at or below the configuration-phase energy (lifetime
    1.0) or empty, pieces of rate 0, proxies on sources, consumers or
    cut-off nodes, some one-way links and some dead nodes. An empty node
    drops out of the view, as it does in every controller round."""
    n = draw(st.integers(4, 10))
    node = st.integers(0, n - 1)
    pairs = [(u, draw(st.integers(0, u - 1))) for u in range(1, n)
             if draw(st.integers(0, 7))]            # a tree, now and then cut
    pairs += draw(st.lists(st.tuples(node, node), max_size=3 * n))
    link = st.tuples(st.sampled_from([25e-6, 50e-6]),
                     st.sampled_from([5.0, 10.0, 20.0]))
    links = {}
    for u, v in pairs:
        if u != v:
            links[(u, v)] = draw(link)
            if draw(st.integers(0, 7)):
                links[(v, u)] = draw(link)
    energy = st.sampled_from([0.0, 1e-3, PARAMS,
                              0.05, 0.2, 0.5, 2.0, 8.0])
    alive = [u for u in range(n) if draw(st.integers(0, 9))]
    net = status_net(links, {u: draw(energy) for u in alive})
    pieces = [DataPiece(id=pid, source=source,
                        consumer=(source + draw(st.integers(1, n - 1))) % n,
                        rate=draw(st.sampled_from([0, 1, 2, 4])))
              for pid, source in enumerate(draw(st.lists(node, min_size=1,
                                                         max_size=6)))]
    proxies = draw(st.sets(node, min_size=2, max_size=n))
    budget = draw(st.sampled_from([20.0, 40.0, 60.0, 100.0, 1000.0]))
    return net, pieces, proxies, budget


@st.composite
def next_round(draw, net):
    """Edits ``net`` into what a later controller round sees: every alive
    node's energy and every link's cost drawn again, and now and then one
    node dead or one latency changed."""
    energy = st.sampled_from([0.0, 1e-3, PARAMS,
                              0.05, 0.2, 0.5, 2.0, 8.0])
    eps = st.sampled_from([25e-6, 50e-6, 150e-6])
    alive = [u for u in sorted(net.nodes) if net.nodes[u].alive]
    for u in alive:
        net.nodes[u].initial_energy_j, net.nodes[u].spent_j = draw(energy), 0.0
    for key in sorted(net.links):
        net.links[key].eps_j = draw(eps)
    change = draw(st.sampled_from(["none", "drop", "latency"]))
    if change == "drop" and alive:
        net.nodes[draw(st.sampled_from(alive))].alive = False
    if change == "latency" and net.links:
        link = net.links[draw(st.sampled_from(sorted(net.links)))]
        link.latency_ms += draw(st.sampled_from([-2.5, 5.0]))


class TestBranchAndBound:
    """Skipping proxies by their widest-path bound changes no plan, and
    stays switched on."""

    @settings(max_examples=600, deadline=None)
    @given(instance=tie_heavy_plans())
    def test_same_plan_as_trying_every_proxy(self, instance):
        net, pieces, proxies, budget = instance
        want = reference_compute_plan(net, pieces, proxies, budget, PARAMS)
        got = compute_plan(net, pieces, proxies, budget, PARAMS)
        assert got.to_text() == want.to_text()

    @pytest.mark.parametrize("case", ["source first", "consumer first"])
    def test_segment_exactly_at_its_floor_is_kept(self, case):
        # Source 0, consumer 8 or 9; node 2 or 3 is a weak relay. Each case
        # has a first candidate and a tied, smaller chain that only one
        # lifetime search can find, with (bottleneck, hops) exactly on its
        # floor: the hop-only search returns a path through the weak relay.
        # "source first": proxy 1 alone; the tie needs the source segment
        # 0-4-1. "consumer first": proxy 1 gives 0-6-1-7-9, and proxy 2's
        # tie needs the consumer segment 2-4-9.
        if case == "source first":
            pairs = ((0, 2), (0, 4), (0, 6), (1, 2), (1, 4), (1, 6), (4, 8), (6, 8))
            energies = {0: 0.05, 1: 0.05, 2: 0.02, 4: 0.05, 6: 0.05, 8: 0.02}
            consumer, proxies, chain = 8, {1, 2}, [0, 4, 1, 6, 8]
        else:
            pairs = ((0, 6), (6, 1), (1, 7), (7, 9), (0, 5), (5, 2), (0, 4),
                     (4, 2), (4, 9), (2, 3), (3, 9))
            energies = {u: 0.05 for u in range(10) if u != 8}
            energies[3] = 0.02
            consumer, proxies, chain = 9, {1, 2}, [0, 5, 2, 4, 9]
        net = status_net(sym({pair: (50e-6, 10.0) for pair in pairs}), energies)
        piece = DataPiece(id=0, source=0, consumer=consumer, rate=1)
        plan = compute_plan(net, [piece], proxies, 40.0, PARAMS)
        assert plan.pieces[0].chain == chain
        assert plan.to_text() == reference_compute_plan(
            net, [piece], proxies, 40.0, PARAMS).to_text()

    def test_replan_grid_skips_proxies(self, monkeypatch):
        # The replan benchmark's 8x8 grid at seed 1, initial plan: 15 pieces,
        # 4 proxies. Branch and bound makes 133 label searches; trying every
        # proxy made 411.
        cfg, net, pieces = plan_instance(8, 8, 1)
        calls = 0
        search = planner.bottleneck_path

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(planner, "bottleneck_path", counting)
        compute_plan(net, pieces, net.proxies,
                     cfg.latency_budget_ms, cfg.config_phase_energy_j)
        assert calls <= 133

    @settings(deadline=None)
    @given(instance=tie_heavy_plans())
    def test_carried_tables_equal_fresh_fills(self, instance):
        # Every piece that gets as far as its widest-path bounds is handed a
        # lifetime table equal to a fresh fill under the spend of the
        # moment, whether it was filled for its rate or carried on from the
        # piece before it. Only a change of rate fills a table afresh, and
        # no table changes after its piece is planned.
        net, pieces, proxies, budget = instance
        viewed = PlannerView.from_network(net, PARAMS).energy
        planned = [p for p in sorted(pieces, key=lambda p: (-p.rate, p.id))
                   if p.source in viewed and p.consumer in viewed]
        fill, widest = PlannerView.lifetimes, planner._widest
        fills, tables = [], []

        def counting(view, rate, carried=None, changed=()):
            if carried is None:
                fills.append(rate)
            return fill(view, rate, carried, changed)

        def checking(view, root, lifetimes, targets, toward):
            if not toward:
                assert lifetimes == fill(view, planned[len(tables)].rate)
                tables.append((lifetimes, list(lifetimes)))
            return widest(view, root, lifetimes, targets, toward)

        with mock.patch.object(PlannerView, "lifetimes", counting), \
                mock.patch.object(planner, "_widest", checking):
            got = compute_plan(net, pieces, proxies, budget, PARAMS)
        assert len(tables) == len(planned)
        assert fills == sorted({p.rate for p in planned}, reverse=True)
        assert all(table == snapshot for table, snapshot in tables)
        want = reference_compute_plan(net, pieces, proxies, budget, PARAMS)
        assert got.to_text() == want.to_text()

    @settings(max_examples=100, deadline=None)
    @given(instance=tie_heavy_plans(), data=st.data())
    def test_plan_sequence_sharing_a_topology(self, instance, data):
        # Each plan hands its topology to the next, as controller rounds do,
        # on the one network that changes between them.
        net, pieces, proxies, budget = instance
        topology = None
        for round_ in range(data.draw(st.integers(2, 4))):
            if round_:
                data.draw(next_round(net))
            want = reference_compute_plan(net, pieces, proxies, budget, PARAMS)
            got = compute_plan(net, pieces, proxies, budget, PARAMS, topology)
            assert got.to_text() == want.to_text()
            topology = got.topology

    def test_topology_reused_only_for_same_nodes_and_latencies(self):
        cfg, net, pieces = plan_instance(6, 6, 1)

        def plan(state, topology):
            return compute_plan(state, pieces, net.proxies,
                                cfg.latency_budget_ms, cfg.config_phase_energy_j,
                                topology)

        topology = plan(net, None).topology
        drained = copy.deepcopy(net)
        for node in drained.nodes.values():
            node.spent_j = node.initial_energy_j / 2
        for link in drained.links.values():
            link.eps_j *= 3.0
        again = plan(drained, topology)
        assert again.topology is topology
        assert again.to_text() == plan(drained, None).to_text()
        dead = copy.deepcopy(drained)
        dead.nodes[0].alive = False
        assert plan(dead, topology).topology is not topology
        slower = copy.deepcopy(drained)
        slower.links[min(slower.links)].latency_ms += 1.0
        assert plan(slower, topology).topology is not topology


class TestNetworkView:
    """``PlannerView.from_network`` reuses a given topology exactly when the
    network's alive nodes with energy left and its link latencies still
    match it, and a view read through a reused topology is the view read
    fresh."""

    @settings(deadline=None)
    @given(seed=st.integers(1, 4), data=st.data())
    def test_reused_topology_reads_the_fresh_view(self, seed, data):
        # A chain of rounds on one network, each handed the topology of the
        # one before. Drains and cost edits leave every node some energy;
        # at most one change per round drains a node to exactly 0 J, kills
        # one, or slows one of the topology's edges.
        _, net, _ = plan_instance(5, 5, seed)
        topology = PlannerView.from_network(net, PARAMS).topology
        nodes, links = sorted(net.nodes), sorted(net.links)
        for _ in range(data.draw(st.integers(1, 3))):
            for u in data.draw(st.sets(st.sampled_from(nodes), max_size=8)):
                node = net.nodes[u]
                node.spent_j = max(node.spent_j, node.initial_energy_j * data.draw(
                    st.sampled_from([0.5, 1 - 1e-3, 1 - 1e-6])))
            for key in data.draw(st.sets(st.sampled_from(links), max_size=8)):
                net.links[key].eps_j *= 3.0
            change = data.draw(st.sampled_from(["none", "death", "drained", "latency"]))
            u = data.draw(st.sampled_from(sorted(topology.nodes)))
            if change == "death":
                net.nodes[u].alive = False
            elif change == "drained":                  # alive, exactly empty
                net.nodes[u].spent_j = net.nodes[u].initial_energy_j
            elif change == "latency":
                key = data.draw(st.sampled_from(sorted(topology.edge_ids)))
                net.links[key].latency_ms += 2.5
            got = PlannerView.from_network(net, PARAMS, topology)
            want = PlannerView.from_network(net, PARAMS)
            assert got.energy == want.energy
            assert got.spend == want.spend
            assert got.eps == want.eps
            assert (got.topology is topology) == (change == "none")
            assert want.topology is not topology
            made = got.topology
            assert made.nodes == want.topology.nodes
            assert made.edge_ids == want.topology.edge_ids
            assert made.latency == want.topology.latency
            topology = made
        assert PlannerView.from_network(net, PARAMS, topology).topology is topology

    def test_rounds_rebuild_after_a_latency_edit_between_runs(self, monkeypatch):
        # Interference hits a link every cycle, and a hit that fires the
        # trigger calls for a replan. Each round plans what a plan on a
        # topology built afresh plans; the first round after a caller slows a
        # link builds a topology with the new latency, and the rounds after
        # it reuse that one.
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4)]
        net = make_net(edges, {0: 5.0, 1: 50.0, 2: 5.0, 3: 5.0, 4: 50.0},
                       proxies={1, 4})
        pieces = [DataPiece(id=0, source=0, consumer=3, rate=2)]
        cfg = quiet_config(strategy="PDD-CR",
                           interference=InterferenceConfig(1.0, 3.0, 1, 1))
        sim = Simulation(cfg, net=net, table=PathTable(), pieces=pieces)
        plan = planner.compute_plan
        rounds = []

        def checking(net, pieces, proxies, budget, phase_j, topology):
            got = plan(net, pieces, proxies, budget, phase_j, topology)
            fresh = plan(net, pieces, proxies, budget, phase_j)
            assert got.to_text() == fresh.to_text()
            rounds.append((topology, got.topology))
            return got

        monkeypatch.setattr(planner, "compute_plan", checking)
        sim._controller_round()
        sim.run(8)
        before = len(rounds)
        sim.net.links[(1, 2)].latency_ms += 2.5
        sim.run(8)
        assert before >= 3 and len(rounds) >= before + 2
        for i, (given_, made) in enumerate(rounds[1:], start=1):
            assert given_ is rounds[i - 1][1]
            assert (made is given_) == (i != before)
        made = rounds[before][1]
        assert made.latency[made.edge_ids[(1, 2)]] == 12.5


class TestRecompute:
    """The controller round (``Simulation._controller_round``): the status
    upload and plan download that feed the planner at start-up and at every
    PDD-CR replan."""

    def make_sim(self, **overrides):
        net = make_net([(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4)],
                       {0: 5.0, 1: 50.0, 2: 5.0, 3: 5.0, 4: 50.0},
                       proxies={1, 4})
        pieces = [DataPiece(id=0, source=0, consumer=3, rate=2)]
        cfg = quiet_config(strategy="PDD-CR", **overrides)
        return Simulation(cfg, net=net, table=PathTable(), pieces=pieces)

    def chain_nodes(self, sim):
        """Every node holding a pointer row of some piece."""
        return {u for p in sim.pieces for u in sim.table.rows_for_piece(p.id)}

    def test_charges_every_alive_node_one_exchange(self):
        sim = self.make_sim()
        cost = sim.cfg.controller_energy_j
        before = {u: sim.net.nodes[u].energy_j for u in sim.net.nodes}
        sim._controller_round()
        assert sim._cfg_energy == pytest.approx(len(sim.net.nodes) * cost)
        for u in sim.net.nodes:
            assert sim.net.nodes[u].energy_j == pytest.approx(before[u] - cost)
        assert not sim.piece_status[0].broken and sim.pieces[0].proxy in (1, 4)
        assert validate_paths(sim.net, sim.table, sim.pieces).ok()

    def test_charges_the_configured_exchange_cost(self):
        # A prebuilt network carries no price of its own: the round charges
        # the scenario's controller_energy_j.
        sim = self.make_sim(controller_energy_j=0.05)
        before = {u: sim.net.nodes[u].spent_j for u in sim.net.nodes}
        sim._controller_round()
        for u in sim.net.nodes:
            assert sim.net.nodes[u].spent_j - before[u] == 0.05

    def test_dead_nodes_neither_pay_nor_appear_in_paths(self):
        sim = self.make_sim()
        sim.net.nodes[2].alive = False
        before = sim.net.nodes[2].energy_j
        sim._controller_round()
        assert sim._cfg_energy == pytest.approx(
            4 * sim.cfg.controller_energy_j)
        assert sim.net.nodes[2].energy_j == before
        assert 2 not in self.chain_nodes(sim)
        assert not sim.piece_status[0].broken
        assert validate_paths(sim.net, sim.table, sim.pieces).ok()

    def test_everyone_dead_is_a_noop(self):
        """Nothing is charged and no chain is installed: every piece is
        unplanned."""
        sim = self.make_sim()
        for node in sim.net.nodes.values():
            node.alive = False
        sim._controller_round()
        assert sim._cfg_energy == 0.0
        assert all(n.spent_j == 0.0 for n in sim.net.nodes.values())
        assert sim.table.rows_for_piece(0) == {}
        assert sim.pieces[0].proxy is None
        assert sim.piece_status[0].broken and sim.piece_status[0].cause == "unplanned"

    def test_node_emptied_at_start_up_dies_off_every_chain(self):
        cfg = ScenarioConfig(seed=1, strategy="PDD", horizon=10)
        net = cfg.network()
        cost = sorted(n.initial_energy_j for n in net.nodes.values())[3]
        sim = Simulation(replace(cfg, controller_energy_j=cost))
        emptied = {u for u, n in net.nodes.items() if n.initial_energy_j <= cost}
        assert len(emptied) >= 4
        assert sim.metrics.death_times == {u: 0 for u in sorted(emptied)}
        assert not emptied & self.chain_nodes(sim)
        assert any(not st.broken for st in sim.piece_status.values())

    def test_node_emptied_at_a_replan_dies_that_cycle_off_every_chain(self):
        # Relay 2 carries the piece and can pay for the data but not for the
        # exchange; killing the proxy 1 at cycle 1 forces a replan at cycle 2.
        sim = self.make_sim(forced_deaths=((1, 1),))
        sim.net.nodes[2].initial_energy_j = 3e-3
        install_path(sim.net, sim.table, sim.pieces[0], [0, 1, 2, 3])
        sim.pieces[0].proxy = 1
        sim.run(4)
        assert sim.metrics.death_times == {1: 1, 2: 2}
        # Relay 2's death prompts one more replan, at cycle 3.
        s = sim.metrics.series()
        assert s["reconfigurations"] == [0, 0, 1, 2]
        assert walk_chain(sim.table, 0, 0) == [0, 4, 3]
        assert not sim.piece_status[0].broken
        assert s["delivered"] == [2, 2, 2, 4]   # restored at cycle 3

    def test_round_rewrites_only_the_chains_it_changes(self, monkeypatch):
        """Piece 0 is installed on the chain the round plans for it and
        piece 1 on another one. The round leaves piece 0's rows, links,
        table version and cached hops alone and rewrites piece 1's; both end
        as a full install of the planned chain leaves them."""
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4)]
        energies = {0: 5.0, 1: 50.0, 2: 5.0, 3: 5.0, 4: 50.0}
        pieces = [DataPiece(id=0, source=0, consumer=3, rate=2),
                  DataPiece(id=1, source=2, consumer=0, rate=1)]
        cfg = quiet_config(strategy="PDD-CR")
        net = make_net(edges, energies, proxies={1, 4})
        want = compute_plan(net, pieces, net.proxies,
                            cfg.latency_budget_ms, cfg.config_phase_energy_j)
        kept = want.pieces[0]
        moved = next(chain for chain in ([2, 1, 0], [2, 3, 4, 0], [2, 1, 4, 0])
                     if chain != want.pieces[1].chain)
        sim = mini_sim(net, [(0, 3, kept.proxy, 2, kept.chain),
                             (2, 0, 1 if 1 in moved else 4, 1, moved)],
                       strategy="PDD-CR")
        sim.run(1)                                   # caches both pieces' hops
        rows = dict(sim.table.rows_for_piece(0))
        versions = dict(sim.table.version)
        hops = sim._chains[0][1]
        plans = []
        plan = planner.compute_plan

        def recording(*args, **kwargs):
            plans.append(plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(planner, "compute_plan", recording)
        sim._controller_round()
        assert plans[0].to_text() == want.to_text()
        assert sim.table.version[0] == versions[0]
        assert all(sim.table.rows_for_piece(0)[u] is row for u, row in rows.items())
        assert sim._chain(sim.pieces[0])[0] is hops
        assert sim.table.version[1] > versions[1]
        fresh, table = make_net(edges, energies, proxies={1, 4}), PathTable()
        for piece in pieces:
            install_path(fresh, table, piece, want.pieces[piece.id].chain)
        for piece in pieces:
            assert sim.table.rows_for_piece(piece.id) == table.rows_for_piece(piece.id)
            assert netmodel.path_installed(sim.net, sim.table, piece.id,
                                           want.pieces[piece.id].chain)
        assert ({key: link.active_pieces for key, link in sim.net.links.items()}
                == {key: link.active_pieces for key, link in fresh.links.items()})

    def test_traced_rounds_match_charges_and_survivors(self):
        """One ``StatusMsg`` per charged node and one ``PlanMsg`` per
        survivor at every round's cycle, and 1 + reconfigurations rounds."""
        cfg = ScenarioConfig(seed=1, strategy="PDD-CR", horizon=3100,
                             forced_deaths=((3000, 2), (3000, 15)),
                             trace=True, audit_energy=True)
        sim = Simulation(cfg)
        seen, logged, rounds = 0, {}, 0
        while True:
            rows = [line.split(",") for line in sim.trace_lines[seen:]]
            seen = len(sim.trace_lines)
            charged = []
            for u, log in sorted(sim.energy_log.items()):
                charged += [u for _, kind, _ in log[logged.get(u, 0):] if kind == "cfg"]
                logged[u] = len(log)
            if rows:
                rounds += 1
                assert {row[0] for row in rows} == {str(sim.cycle - (sim.cycle > 0))}
                assert [int(r[2]) for r in rows if r[1] == "StatusMsg"] == charged
                assert [int(r[3]) for r in rows if r[1] == "PlanMsg"] == [
                    u for u in sorted(sim.net.nodes) if sim.net.nodes[u].alive]
            else:
                assert charged == []
            if sim.cycle == cfg.horizon:
                break
            sim.run(1)
        assert rounds == 1 + sim.metrics.series()["reconfigurations"][-1]
        assert rounds >= 3
