"""Protocol behavior on hand-built fixtures.

Fixtures drive the real engine over custom topologies: failures come from
forced energy exhaustion or manual cost spikes, and assertions inspect the
pointer table, link activations, message traces and loss accounting.
"""

import random

import pytest

from fwdsim import (ModifyPath, RouteRequest, Simulation, validate_paths,
                    walk_chain)
from fwdsim import protocol

from conftest import make_net, mini_sim, spike_link, surviving_violations


def trace_types(sim, name):
    return [line for line in sim.trace_lines if line.split(",")[1] == name]


class TestTriggerScanAndGuard:
    def two_edge_node(self):
        # node 1 forwards piece 0 to node 2 and piece 1 to node 3
        net = make_net([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (0, 2), (0, 3)],
                       {u: 50.0 for u in range(5)}, proxies={2, 3})
        return mini_sim(net,
                        [(0, 4, 2, 1, [0, 1, 2, 4]),
                         (0, 4, 3, 1, [0, 1, 3, 4])],
                        horizon=30, trace=True)

    def test_one_of_two_triggered_edges_keeps_node_alive(self):
        sim = self.two_edge_node()
        spike_link(sim, 1, 2, 2.5)           # ratio 0.6 > 0.5 fires
        sim.run(1)
        assert sim.net.nodes[1].alive        # 50% of active edges is not > 50%
        assert 0 not in sim.net.links[(1, 2)].active_pieces
        assert 1 in sim.net.links[(1, 3)].active_pieces
        assert len(trace_types(sim, "Alert")) == 1

    def test_both_edges_triggered_disconnects_with_alerts(self):
        sim = self.two_edge_node()
        spike_link(sim, 1, 2, 2.5)
        spike_link(sim, 1, 3, 2.5)
        sim.run(1)
        assert not sim.net.nodes[1].alive
        # one alert per triggered edge's piece plus the deathbed alerts for
        # anything still held; here the scan already cleared both rows
        assert len(trace_types(sim, "Alert")) == 2

    def test_exhausted_node_disconnects_and_alerts_predecessors(self):
        sim = self.two_edge_node()
        node = sim.net.nodes[1]
        node.spent_j = node.initial_energy_j
        sim.run(1)
        assert not sim.net.nodes[1].alive
        assert len(trace_types(sim, "Alert")) == 2
        assert sim.metrics.death_times[1] == 0

    def four_neighbor_hub(self):
        # hub 1 has alive neighbors 0, 2, 3 and 4, and forwards piece k - 2
        # from 0 to k for k = 2, 3, 4, each on to consumer 5
        net = make_net([(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
                       {u: 50.0 for u in range(6)}, proxies={2, 3, 4})
        return mini_sim(net, [(0, 5, k, 1, [0, 1, k, 5]) for k in (2, 3, 4)],
                        horizon=30, trace=True)

    @pytest.mark.parametrize("fired, alive", [(0, True), (1, True), (2, True),
                                              (3, False)])
    def test_exit_guard_needs_more_than_half_the_alive_neighbors(self, fired,
                                                                 alive):
        sim = self.four_neighbor_hub()
        for k in range(2, 2 + fired):
            spike_link(sim, 1, k, 2.5)
        sim.run(1)
        assert sim.net.nodes[1].alive == alive
        assert len(sim.diagnostics) == 0

    def test_exit_guard_disconnects_an_empty_node_with_none_fired(self):
        sim = self.four_neighbor_hub()
        node = sim.net.nodes[1]
        node.spent_j = node.initial_energy_j
        sim.run(1)
        assert not node.alive and sim.metrics.death_times[1] == 0
        # disconnected, not just swept: each piece's predecessor is alerted
        assert len(trace_types(sim, "Alert")) == 3
        assert sim.table.pieces_at(1) == []

    def test_exit_guard_keeps_a_node_with_fired_links_and_no_alive_neighbor(self):
        # Every neighbor of the hub is dead when its link to 2 fires: one
        # fired link, no alive neighbor to count it against.
        sim = self.four_neighbor_hub()
        for u in (0, 2, 3, 4):
            sim.net.nodes[u].alive = False
        spike_link(sim, 1, 2, 2.5)
        sim.run(1)
        assert sim.net.nodes[1].alive
        assert 0 not in sim.net.links[(1, 2)].active_pieces

    def test_idle_node_spends_nothing(self):
        net = make_net([(0, 1), (1, 2)], {0: 5.0, 1: 5.0, 2: 5.0})
        sim = mini_sim(net, [(0, 1, None, 0, [0, 1])], horizon=20)
        sim.pieces[0].proxy = 1
        before = net.nodes[2].energy_j
        sim.run()
        assert net.nodes[2].energy_j == before

    def test_trigger_on_idle_link_changes_nothing(self):
        sim = self.two_edge_node()
        spike_link(sim, 0, 2, 2.5)           # link exists but carries nothing
        sim.run(2)
        assert sim.metrics.totals()["lost"] == 0
        assert sim.metrics.totals()["reconfigurations"] == 0


class TestAlertAndSplice:
    def splice_fixture(self, energy_a=40.0, energy_b=40.0):
        """Path 0-1-2-3-4; candidates 5 and 6 both bridge 1->3 when 2 fails."""
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4),
                        (1, 5), (5, 3), (1, 6), (6, 3)],
                       {0: 50.0, 1: 50.0, 2: 50.0, 3: 50.0, 4: 50.0,
                        5: energy_a, 6: energy_b},
                       proxies={3})
        return mini_sim(net, [(0, 4, 3, 2, [0, 1, 2, 3, 4])],
                        horizon=40, trace=True,
                        forced_deaths=((2, 2),))

    def test_mid_path_failure_is_spliced_and_validates(self):
        sim = self.splice_fixture()
        sim.run(10)
        chain = walk_chain(sim.table, 0, 0)
        assert chain in ([0, 1, 5, 3, 4], [0, 1, 6, 3, 4])
        assert not surviving_violations(sim)
        assert sim.pending_message_count() == 0

    def test_higher_lifetime_candidate_wins(self):
        sim = self.splice_fixture(energy_a=40.0, energy_b=2.0)
        sim.run(10)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 5, 3, 4]

    def test_equal_lifetimes_tie_break_to_lower_id(self):
        sim = self.splice_fixture(energy_a=40.0, energy_b=40.0)
        sim.run(10)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 5, 3, 4]

    def test_losses_counted_only_while_broken(self):
        sim = self.splice_fixture()
        sim.run(40)
        lost = sim.metrics.totals()["lost"]
        # death at cycle 2; alert arrives 3; join 4; stitch lands 5
        assert 0 < lost <= 4 * sim.pieces[0].rate
        assert sim.metrics.totals()["generated"] == \
            sim.metrics.totals()["delivered"] + lost

    def test_stale_alert_is_ignored(self):
        sim = self.splice_fixture()
        sim.run(10)
        chain_before = walk_chain(sim.table, 0, 0)
        # replay the original alert: node 1 no longer points at node 2
        sim.send_message(2, 1, protocol.Alert(piece=0, failed=2, target=3))
        sim.run(3)
        assert walk_chain(sim.table, 0, 0) == chain_before
        assert any("stale alert" in d for d in sim.diagnostics)

    def test_repair_counts_as_reconfiguration(self):
        sim = self.splice_fixture()
        sim.run(10)
        assert sim.metrics.totals()["reconfigurations"] == 1
        assert sim.metrics.epoch_boundaries == [3]


class TestJoinPathCases:
    def test_fresh_join_extends_path_without_deletions(self):
        sim = self.splice_ready()
        sim.run(10)
        # splice node 5 entered between 1 and 3: length went from 5 to 5
        chain = walk_chain(sim.table, 0, 0)
        assert chain == [0, 1, 5, 3, 4]
        deletes = [m for m in trace_types(sim, "ModifyPath")]
        # one stitch message only (no deletion wave for a fresh joiner)
        assert len(deletes) == 1

    def splice_ready(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 3)],
                       {u: 50.0 for u in range(6)}, proxies={3})
        return mini_sim(net, [(0, 4, 3, 2, [0, 1, 2, 3, 4])],
                        horizon=40, trace=True, forced_deaths=((2, 2),))

    def forward_loop_fixture(self):
        """Chain 0-1-2-3-4-5-6-7; node 2 fails; candidate joiner is node 5,
        which already sits downstream. The stretch 3-4 becomes obsolete."""
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                        (1, 5), (5, 3)],
                       {u: 50.0 for u in range(8)}, proxies={6})
        return mini_sim(net, [(0, 7, 6, 2, [0, 1, 2, 3, 4, 5, 6, 7])],
                        horizon=40, trace=True, forced_deaths=((2, 2),))

    def test_forward_loop_elimination(self):
        sim = self.forward_loop_fixture()
        sim.run(12)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 5, 6, 7]
        # obsolete rows dissolved, their edges deactivated
        for node in (3, 4):
            assert sim.table.row(0, node) is None
        assert 0 not in sim.net.links[(3, 4)].active_pieces
        assert 0 not in sim.net.links[(4, 5)].active_pieces
        assert not surviving_violations(sim)
        assert sim.pending_message_count() == 0

    def test_forward_loop_wave_counts(self):
        sim = self.forward_loop_fixture()
        sim.run(12)
        modify = trace_types(sim, "ModifyPath")
        # deleteYES wave: joiner->3 then 3->4; node 4 stops (its next is the
        # joiner). No stitch message in this case.
        assert len(modify) == 2

    def backward_loop_fixture(self):
        """Chain 0-1-2-3-4-5-6; node 4 fails; node 3 repairs toward 5 and the
        only candidate is node 1, already upstream. The stretch 2-3 becomes
        obsolete and is dissolved backward from node 3."""
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                        (3, 1), (1, 5)],
                       {u: 50.0 for u in range(7)}, proxies={5})
        return mini_sim(net, [(0, 6, 5, 2, [0, 1, 2, 3, 4, 5, 6])],
                        horizon=40, trace=True, forced_deaths=((2, 4),))

    def test_backward_loop_elimination(self):
        sim = self.backward_loop_fixture()
        sim.run(12)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 5, 6]
        for node in (2, 3):
            assert sim.table.row(0, node) is None
        assert 0 not in sim.net.links[(1, 2)].active_pieces
        assert 0 not in sim.net.links[(2, 3)].active_pieces
        assert not surviving_violations(sim)
        assert sim.pending_message_count() == 0

    def test_backward_loop_messages(self):
        sim = self.backward_loop_fixture()
        sim.run(12)
        modify = trace_types(sim, "ModifyPath")
        # one stitch to the new downstream + deleteYES backward: joiner->3,
        # 3->2; node 2 stops because its previous is the joiner
        assert len(modify) == 3


class TestRouteReplyCases:
    """A route-reply relay that is already on the path, scripted from the
    moment the target answers: the origin's pending route and the target's
    new upstream are set by hand, and the reply is injected at the target's
    route predecessor. Rate 0 keeps the data plane quiet, so no learning
    write moves a pointer."""

    def reply_fixture(self, edges, chain, origin, target, hops, dead=()):
        net = make_net(edges, {u: 50.0 for u in range(8)})
        sim = mini_sim(net, [(0, 5, 1, 0, chain)], horizon=20, trace=True)
        for node in dead:
            sim.mark_dead(node)
        sim._ctx(origin).state.pending_route[0] = protocol.PendingRoute(
            req_id=0, target=target, deadline=15)
        target_row = sim.table.row(0, target)
        sim.write_row(0, target, hops[-2], target_row.next, target_row.order_key)
        sim.send_message(target, hops[-2], protocol.RouteReply(
            piece=0, origin=origin, req_id=0, hops=hops,
            origin_key=sim.table.row(0, origin).order_key,
            target_key=target_row.order_key))
        return sim

    def test_relay_already_downstream_adopts_predecessor_and_deletes_forward(self):
        # Node 1 repairs toward 2 over 1-6-3-7-2; relay 3 already sits
        # downstream of 2, so it keeps its continuation and the stretch
        # 7-2 dissolves forward, up to itself.
        sim = self.reply_fixture(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 3), (3, 7), (7, 2)],
            [0, 1, 2, 3, 4, 5], origin=1, target=2, hops=(1, 6, 3, 7, 2))
        sim.run(6)
        assert [line for line in sim.trace_lines
                if line.split(",")[1] in ("ModifyPath", "RouteReply")] == [
            "0,RouteReply,2,7,0",
            "0,ModifyPath,7,2,0", "0,RouteReply,7,3,0",
            "1,ModifyPath,3,7,0", "1,RouteReply,3,6,0",
            "2,ModifyPath,6,3,0", "2,RouteReply,6,1,0", "2,ModifyPath,7,2,0",
        ]
        assert walk_chain(sim.table, 0, 0) == [0, 1, 6, 3, 4, 5]
        assert sim.table.row(0, 2) is None and sim.table.row(0, 7) is None
        assert not surviving_violations(sim)
        assert not sim.diagnostics

    def test_relay_already_upstream_shortcuts_and_dissolves_its_old_next(self):
        # Node 4 died; node 3 repairs toward 5 over 3-1-6-5. Relay 1 already
        # sits upstream of 3: it shortcuts to 6, stops the reply, and its
        # stale old continuation 2-3 dissolves up to the failed hop.
        sim = self.reply_fixture(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 1), (1, 6), (6, 5)],
            [0, 1, 2, 3, 4, 5], origin=3, target=5, hops=(3, 1, 6, 5), dead=(4,))
        sim.run(6)
        assert [line for line in sim.trace_lines
                if line.split(",")[1] in ("ModifyPath", "RouteReply")] == [
            "0,RouteReply,5,6,0",
            "0,ModifyPath,6,5,0", "0,RouteReply,6,1,0",
            "1,ModifyPath,1,6,0", "1,ModifyPath,1,2,0",
            "2,ModifyPath,2,3,0",
            "3,ModifyPath,3,4,0",
        ]
        assert walk_chain(sim.table, 0, 0) == [0, 1, 6, 5]
        assert sim.table.row(0, 2) is None and sim.table.row(0, 3) is None
        assert not surviving_violations(sim)
        assert not sim.diagnostics


class TestModifyPath:
    def test_delete_no_is_a_single_pointer_write(self):
        # rate 0 keeps the data plane quiet so the stitch alone is observable
        net = make_net([(0, 1), (1, 2), (0, 2)], {0: 5.0, 1: 5.0, 2: 5.0})
        sim = mini_sim(net, [(0, 2, 1, 0, [0, 1, 2])], horizon=10, trace=True)
        sim.send_message(0, 2, ModifyPath(piece=0, joiner=0, delete=False,
                                          direction=protocol.FWD))
        sim.run(2)
        assert sim.table.row(0, 2).prev == 0
        assert len(trace_types(sim, "ModifyPath")) == 1   # nothing propagated

    def test_delete_yes_arriving_at_joiner_is_noop(self):
        net = make_net([(0, 1), (1, 2)], {0: 5.0, 1: 5.0, 2: 5.0})
        sim = mini_sim(net, [(0, 2, 1, 1, [0, 1, 2])], horizon=10, trace=True)
        sim.send_message(2, 1, ModifyPath(piece=0, joiner=1, delete=True,
                                          direction=protocol.FWD))
        sim.run(2)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 2]
        assert len(trace_types(sim, "ModifyPath")) == 1

    def test_deletion_wave_gap_aborts_with_diagnostic(self):
        net = make_net([(0, 1), (1, 2), (2, 3)], {u: 5.0 for u in range(4)})
        sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], horizon=10)
        sim.clear_row(0, 2)                    # create the gap
        sim.send_message(0, 1, ModifyPath(piece=0, joiner=0, delete=True,
                                          direction=protocol.FWD))
        sim.run(3)
        assert any("pointer gap" in d for d in sim.diagnostics)


class TestRouteDiscovery:
    def aodv_fixture(self, healthy=30.0, weak=1.0):
        """0-2-4 with failed relay 2; candidates 1 (weak) and 3 (healthy)
        bridge 0->4, but their two-hop latency fails the splice gate, so the
        repair must go through route discovery."""
        net = make_net({
            (0, 2): (50e-6, 10.0), (2, 0): (50e-6, 10.0),
            (2, 4): (50e-6, 10.0), (4, 2): (50e-6, 10.0),
            (0, 1): (50e-6, 30.0), (1, 0): (50e-6, 30.0),
            (1, 4): (50e-6, 30.0), (4, 1): (50e-6, 30.0),
            (0, 3): (50e-6, 30.0), (3, 0): (50e-6, 30.0),
            (3, 4): (50e-6, 30.0), (4, 3): (50e-6, 30.0),
            (4, 5): (50e-6, 10.0), (5, 4): (50e-6, 10.0),
        }, {0: 50.0, 1: weak, 2: 50.0, 3: healthy, 4: 50.0, 5: 50.0},
           proxies={4})
        return mini_sim(net, [(0, 5, 4, 2, [0, 2, 4, 5])],
                        horizon=40, trace=True, forced_deaths=((2, 2),))

    def test_route_discovery_prefers_longer_lifetime(self):
        sim = self.aodv_fixture(healthy=30.0, weak=1.0)
        sim.run(15)
        assert trace_types(sim, "RouteRequest")           # gate failed, flood ran
        assert walk_chain(sim.table, 0, 0) == [0, 3, 4, 5]
        assert not surviving_violations(sim)

    def test_route_discovery_tie_breaks_to_smaller_ids(self):
        sim = self.aodv_fixture(healthy=30.0, weak=30.0)
        sim.run(15)
        assert walk_chain(sim.table, 0, 0) == [0, 1, 4, 5]

    def test_ttl_bounds_the_search(self):
        # target three hops away and TTL=1: repair must fail
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4)],
                       {u: 20.0 for u in range(5)}, proxies={3})
        sim = mini_sim(net, [(0, 4, 3, 2, [0, 1, 2, 3, 4])],
                       horizon=40, route_ttl=1, trace=True,
                       forced_deaths=((2, 1),))
        sim.run(30)
        status = sim.piece_status[0]
        assert status.broken and status.cause == "repair-failed"
        assert sim.metrics.loss_causes["repair-failed"] > 0

    def test_duplicate_requests_relayed_once(self):
        # diamond 0-(1|2)-3, plus 3-4: relay 3... node 5 observes: count each
        # relay's request bursts in the trace
        sim = self.aodv_fixture()
        sim.run(15)
        sends_by_node = {}
        for line in trace_types(sim, "RouteRequest"):
            _, _, src, _, _ = line.split(",")
            sends_by_node.setdefault(src, set()).add(line.split(",")[0])
        # a relay broadcasts in exactly one cycle per request id
        for node, cycles in sends_by_node.items():
            assert len(cycles) == 1

    def test_repair_failure_traffic_counts_lost_thereafter(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (3, 4)],
                       {u: 20.0 for u in range(5)}, proxies={3})
        sim = mini_sim(net, [(0, 4, 3, 2, [0, 1, 2, 3, 4])],
                       horizon=60, route_ttl=1, forced_deaths=((2, 1),))
        sim.run()
        lost = sim.metrics.totals()["lost"]
        assert lost >= (60 - 3) * 2            # everything after the death


class TestRequestMemory:
    @pytest.mark.parametrize("ttl", [1, 2])
    def test_ids_expire_at_the_first_store_past_their_window(self, ttl):
        # Relay 1 of 0-1-2-3 relays request (0, 0) at cycle 10. Every copy
        # arrives within ttl + 1 cycles of the origin's send, so the id is
        # held through cycle 11 + ttl; the first store after that drops it,
        # and nothing else does.
        net = make_net([(0, 1), (1, 2), (2, 3)], {u: 50.0 for u in range(4)},
                       proxies={2})
        sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3])], route_ttl=ttl)
        ctx = sim._ctx(1)
        seen = ctx.state.seen

        def copies_relayed(req_id, cycle):
            sim.cycle = cycle
            before = sim.pending_message_count()
            protocol._handle_route_request(ctx, RouteRequest(
                piece=0, origin=0, target=3, req_id=req_id, ttl=ttl,
                min_lifetime=1.0, hops=(0,), origin_key=0.0))
            return sim.pending_message_count() - before

        assert copies_relayed(0, 10) == 1
        assert copies_relayed(0, 11 + ttl) == 0      # a straggler is dropped
        assert copies_relayed(1, 11 + ttl) == 1
        assert seen == {(0, 0): 10, (0, 1): 11 + ttl}
        assert copies_relayed(2, 12 + ttl) == 1
        assert seen == {(0, 1): 11 + ttl, (0, 2): 12 + ttl}
        sim.cycle = 1000
        protocol.node_cycle(ctx, 1000)               # stores nothing
        assert seen == {(0, 1): 11 + ttl, (0, 2): 12 + ttl}


class TestDisconnect:
    def test_mid_path_disconnect_alerts_every_predecessor(self):
        net = make_net([(0, 1), (1, 2), (2, 3), (4, 1), (0, 4), (4, 2), (0, 2)],
                       {u: 30.0 for u in range(5)}, proxies={2})
        sim = mini_sim(net, [(0, 3, 2, 1, [0, 1, 2, 3]),
                             (4, 3, 2, 1, [4, 1, 2, 3])],
                       horizon=30, trace=True, forced_deaths=((2, 1),))
        sim.run(4)
        alerts = trace_types(sim, "Alert")
        assert len(alerts) == 2                # one per piece through node 1
        assert not sim.net.nodes[1].alive

    def test_leaf_disconnect_is_silent(self):
        net = make_net([(0, 1), (1, 2)], {0: 5.0, 1: 5.0, 2: 5.0})
        sim = mini_sim(net, [(0, 1, None, 0, [0, 1])], horizon=10, trace=True,
                       forced_deaths=((1, 2),))
        sim.pieces[0].proxy = 1
        sim.run(5)
        assert not sim.net.nodes[2].alive
        assert trace_types(sim, "Alert") == []

    def test_double_disconnect_is_idempotent(self):
        net = make_net([(0, 1), (1, 2)], {u: 5.0 for u in range(3)})
        sim = mini_sim(net, [(0, 2, 1, 1, [0, 1, 2])], horizon=10, trace=True)
        protocol.disconnect(sim._ctx(1))
        first = len(sim.trace_lines)
        protocol.disconnect(sim._ctx(1))
        assert len(sim.trace_lines) == first


class TestRandomizedLoopFreedom:
    def test_random_failure_sequences_stay_loop_free(self):
        failures = 0
        for seq in range(100):
            sim = run_random_sequence(seq)
            bad = surviving_violations(sim)
            assert not bad, f"sequence {seq}: {bad}"
            assert sim.pending_message_count() == 0
            failures += sum(1 for d in sim.metrics.death_times)
        assert failures > 50                   # the sequences actually bite


def run_random_sequence(seq: int) -> Simulation:
    """One randomized failure/repair run on a small dense grid: a few forced
    deaths plus interference events, then a quiet tail to quiesce."""
    from fwdsim import ScenarioConfig, InterferenceConfig

    rng = random.Random(f"loopfree:{seq}")
    rows, cols = rng.choice([(3, 4), (3, 5), (4, 4)])
    n = rows * cols
    proxies = tuple(sorted(rng.sample(range(n), 2)))
    deaths = []
    for _ in range(rng.randint(1, 4)):
        deaths.append((rng.randint(2, 40), rng.randrange(n)))
    cfg = ScenarioConfig(
        rows=rows, cols=cols, spacing_m=2.5, range_m=3.6, proxies=proxies,
        consumer_fraction=rng.choice([0.2, 0.4]), seed=seq,
        horizon=80, strategy="DistrDataFwd", request_prob=0.0,
        node_energy_wh_min=0.5, node_energy_wh_max=1.0, energy_scale=1.0,
        interference=InterferenceConfig(prob_per_cycle=0.15, multiplier=2.5),
        forced_deaths=tuple(deaths),
    )
    sim = Simulation(cfg)
    sim.run(55)
    sim.cfg.interference.prob_per_cycle = 0.0   # quiet tail
    sim.run(25)
    return sim
