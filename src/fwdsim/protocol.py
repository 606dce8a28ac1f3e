"""Per-node distributed forwarding logic.

Every handler in this module sees the network through a node-local view
(``ctx``) that the engine builds for each protocol step. The surface is
deliberately narrow: a node reads only its own pointer rows, its own links,
what its neighbors advertise (adjacency, link metrics, projected lifetime,
liveness), and its inbox. Messages queued with ``ctx.send`` are delivered
one hop per cycle.

Path repair happens in two tiers. When an upstream node learns that its next
hop failed (or that a link's energy cost spiked), it first tries a one-node
splice: a neighbor that also neighbors the reconnection target and whose
two-hop latency is no worse than the failed stretch, choosing the candidate
with the longest projected lifetime. Failing that, it floods a TTL-bounded
route request; relays piggyback the minimum projected lifetime seen so far,
the target collects arrivals for one cycle and answers along the route that
maximizes that minimum.

A node joining a path, by a splice join or a route reply, may already be on
it. One routine (``_enter_path``) tells the fresh, already-downstream and
already-upstream cases apart by per-row order keys (monotone along a chain,
carried in join and route-reply messages); a directional deletion wave
dissolves the superseded stretch, so the surviving path is always simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lifetime import INFINITE_LIFETIME, link_fires
from .netmodel import ORDER_KEY_GAP, NodeId, PathRow

FWD = "fwd"
BWD = "bwd"

# Order-key increment for a splice join; small enough that repeated repairs
# between two originally-adjacent rows stay ordered.
JOIN_KEY_STEP = ORDER_KEY_GAP * 1e-6


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatusMsg:
    """Node -> controller status upload (traced only; the planner reads
    each node's status from the network)."""
    node: NodeId
    energy_j: float


@dataclass(frozen=True)
class PlanMsg:
    """Controller -> node plan download (traced only)."""
    pieces: int


@dataclass(frozen=True)
class Alert:
    """'My next hop toward you failed': sent to previous(piece, failed).

    ``failed`` is the node being routed around; ``target`` is that node's old
    next hop, i.e. where the repaired path must reconnect. ``target`` is None
    when the failed node was the chain tail.
    """
    piece: int
    failed: NodeId
    target: NodeId | None


@dataclass(frozen=True)
class Join:
    """Ask the recipient to enter the path between upstream and downstream."""
    piece: int
    upstream: NodeId
    downstream: NodeId
    upstream_key: float


@dataclass(frozen=True)
class ModifyPath:
    """Pointer stitch (delete=False) or directional deletion wave (delete=True)."""
    piece: int
    joiner: NodeId
    delete: bool
    direction: str   # FWD follows next pointers, BWD follows previous pointers


@dataclass(frozen=True)
class RouteRequest:
    piece: int
    origin: NodeId
    target: NodeId
    req_id: int
    ttl: int                  # remaining relay budget
    min_lifetime: float       # smallest projected lifetime piggybacked so far
    hops: tuple[NodeId, ...]  # simple by construction
    origin_key: float


@dataclass(frozen=True)
class RouteReply:
    piece: int
    origin: NodeId
    req_id: int
    hops: tuple[NodeId, ...]
    origin_key: float
    target_key: float


# ---------------------------------------------------------------------------
# Per-node protocol state
# ---------------------------------------------------------------------------

@dataclass
class PendingRoute:
    req_id: int
    target: NodeId
    deadline: int


@dataclass
class RouteCollector:
    piece: int
    deadline: int
    target_key: float
    candidates: list = field(default_factory=list)  # (min_lifetime, hops, origin_key)


@dataclass
class PendingSplice:
    joiner: NodeId
    target: NodeId
    deadline: int


@dataclass
class ProtocolState:
    # seen maps the (origin, req_id) of each request I relayed or answered
    # (never both: a target does not relay) to the cycle the key was added,
    # in insertion (so cycle) order; old keys are forgotten at the next add
    # (``_remember``).
    seen: dict = field(default_factory=dict)
    collectors: dict = field(default_factory=dict)     # (origin, req_id) -> RouteCollector
    pending_route: dict = field(default_factory=dict)  # piece -> PendingRoute
    pending_splice: dict = field(default_factory=dict) # piece -> PendingSplice
    next_request_id: int = 0

    def has_pending_work(self) -> bool:
        return bool(self.collectors or self.pending_route or self.pending_splice)

    def repairing(self, piece: int) -> bool:
        """Whether a repair of mine for ``piece`` is underway: a route
        discovery or a splice waiting for its stitch."""
        return piece in self.pending_route or piece in self.pending_splice


# ---------------------------------------------------------------------------
# Main loop body (one node, one cycle)
# ---------------------------------------------------------------------------

def node_cycle(ctx, cycle: int) -> None:
    """One protocol step for one node.

    Data forwarding itself is driven by the engine (a generated piece crosses
    its whole chain within the generating cycle), so this step covers: the
    per-edge trigger scan with deactivation and alerts, the inbox handlers,
    route-discovery timeouts, and the exit guard that disconnects a node that
    ran out of energy or saw most of its links spike at once.

    No-op contract: the step changes nothing for a node with no mail
    delivered this cycle, no collector, pending route or pending splice, no
    out-link that fires the trigger (``lifetime.link_fires``), and energy
    left. The engine steps
    only nodes outside that case, so a change here that adds per-cycle work
    under other conditions must extend the engine's wake set
    (``Simulation._protocol_phase``) to match. It must also end a quiet
    stretch under the same conditions, since a stretch steps no node at all:
    the early returns of ``Simulation._run_quiet`` and the quiet flag of
    ``Simulation._walk`` cover the mail, repair and energy cases, and a
    stretch ends in any cycle in which a changed link fires the trigger.

    A deadline table that is empty is not scanned, and alive neighbors are
    counted for the exit guard only when a link fired: with none fired,
    the spike clause is false whatever the count.
    """
    if not ctx.alive():
        return
    triggered = _trigger_scan(ctx)
    for src, msg in ctx.take_inbox():
        _dispatch(ctx, src, msg)
    state = ctx.state
    if state.collectors:
        _expire_collectors(ctx)
    if state.pending_route:
        _expire_pending_routes(ctx)
    if state.pending_splice:
        _check_pending_splices(ctx)
    operational = len(ctx.alive_neighbor_ids()) if triggered else 0
    if ctx.energy_j() <= 0.0 or (operational and triggered > 0.5 * operational):
        disconnect(ctx)


def _trigger_scan(ctx) -> int:
    """Deactivate every outgoing edge whose cost ratio fired this cycle and
    alert the upstream node of each affected piece. Returns the number of
    edges that triggered (for the exit guard). Only an edge whose cost
    changed this cycle can fire, so only those are scanned."""
    fired = 0
    for v in ctx.changed_out_neighbor_ids():
        link = ctx.out_link(v)
        if not link_fires(link, ctx.trigger_threshold):
            continue
        fired += 1
        affected = sorted(link.active_pieces)
        ctx.deactivate_edge_all_pieces(v)
        for piece in affected:
            row = ctx.row(piece)
            if row is None or row.next != v:
                continue
            if ctx.is_source(piece) or ctx.piece_proxy(piece) == ctx.node:
                # A chain head or the cache itself cannot be routed around;
                # repair my own outgoing edge instead.
                if piece not in ctx.state.pending_route:
                    local_path_config(ctx, piece, v, failed=None)
            elif row.prev is not None:
                # Hand the repair to my predecessor; it will route around me.
                ctx.send(row.prev, Alert(piece=piece, failed=ctx.node, target=v))
                ctx.clear_row(piece)
            else:
                ctx.diagnostic(f"triggered edge on detached row, piece {piece}")
    return fired


def _dispatch(ctx, src: NodeId, msg) -> None:
    if isinstance(msg, Alert):
        handle_alert(ctx, msg)
    elif isinstance(msg, Join):
        join_path(ctx, msg)
    elif isinstance(msg, ModifyPath):
        modify_path(ctx, src, msg)
    elif isinstance(msg, RouteRequest):
        _handle_route_request(ctx, msg)
    elif isinstance(msg, RouteReply):
        _handle_route_reply(ctx, msg)
    else:
        ctx.diagnostic(f"unhandled message {type(msg).__name__}")


# ---------------------------------------------------------------------------
# Repair initiation
# ---------------------------------------------------------------------------

def handle_alert(ctx, alert: Alert) -> None:
    """React to a downstream failure: deactivate my edge into the failed node
    and reconfigure locally toward its old next hop."""
    row = ctx.row(alert.piece)
    if row is None or row.next != alert.failed:
        ctx.diagnostic(f"stale alert for piece {alert.piece}")
        return
    if alert.piece in ctx.state.pending_route:
        return
    pending = ctx.state.pending_splice.get(alert.piece)
    if pending is not None:
        if pending.joiner != alert.failed:
            return
        # the freshly spliced node itself failed; repair again
        del ctx.state.pending_splice[alert.piece]
    ctx.deactivate_edge(alert.piece, alert.failed)
    if alert.target is None:
        ctx.set_next(alert.piece, None)   # the chain now ends here
        ctx.report_broken(alert.piece, "endpoint-dead")
        return
    if alert.failed == ctx.piece_proxy(alert.piece):
        # Routing around the cache would leave consumers nothing to fetch.
        ctx.set_next(alert.piece, None)
        ctx.report_broken(alert.piece, "proxy-dead")
        return
    local_path_config(ctx, alert.piece, alert.target, failed=alert.failed)


def local_path_config(ctx, piece: int, target: NodeId,
                      failed: NodeId | None) -> None:
    """Restore connectivity from me to ``target``.

    Prefer a one-node splice: an alive neighbor that also neighbors the
    target and whose two-hop latency is no worse than the failed stretch
    (the failed node's two hops, or my direct edge when I am repairing my own
    outgoing link). Among gate-passing candidates the one with the longest
    projected lifetime wins, smaller id breaking ties. Otherwise fall back to
    TTL-bounded route discovery.
    """
    ctx.repair_started()
    row = ctx.row(piece)
    if row is None:
        ctx.diagnostic(f"repair for piece {piece} without a row")
        return
    if not ctx.node_alive(target):
        ctx.report_broken(piece, "repair-failed")
        return
    rate = ctx.piece_rate(piece)
    if failed is None:
        old_cost = ctx.link_latency(target)
    else:
        old_cost = ctx.link_latency(failed) + ctx.two_hop_latency(failed, target)
    best: tuple[float, NodeId] | None = None
    for nb in ctx.alive_neighbor_ids():
        if nb == target:
            continue
        if target not in ctx.neighbor_neighbors(nb):
            continue
        gate = ctx.link_latency(nb) + ctx.two_hop_latency(nb, target)
        if gate > old_cost:
            continue
        life = ctx.projected_lifetime_of(nb, target, rate, ctx.load_of(nb))
        cand = (-life, nb)
        if best is None or cand < best:
            best = cand
    if best is not None:
        w = best[1]
        ctx.set_next(piece, w)
        ctx.send(w, Join(piece=piece, upstream=ctx.node, downstream=target,
                         upstream_key=row.order_key))
        # Watch the splice: if the joiner or the target dies before the
        # stitch lands, nobody alerts me, so I re-check once it had time to
        # complete (join out, stitch out, one cycle of slack).
        ctx.state.pending_splice[piece] = PendingSplice(
            joiner=w, target=target, deadline=ctx.cycle() + 3)
    else:
        local_aodv_plus(ctx, piece, target, ctx.route_ttl)


def local_aodv_plus(ctx, piece: int, target: NodeId, ttl: int) -> None:
    """Flood a TTL-bounded route request toward ``target``.

    Each copy carries the minimum projected lifetime of the transmitters met
    so far; the per-neighbor copies start from my own lifetime over that
    first edge. The target collects arrivals for one cycle and replies along
    the lifetime-maximizing route. If nothing comes back before the deadline
    the piece is marked path-broken and its subsequent traffic counts lost.
    """
    if ttl < 1:
        ctx.report_broken(piece, "repair-failed")
        return
    state = ctx.state
    req_id = state.next_request_id
    state.next_request_id += 1
    row = ctx.row(piece)
    # Flood out, collect, reply back, plus one cycle of slack.
    deadline = ctx.cycle() + 2 * (ttl + 1) + 2
    state.pending_route[piece] = PendingRoute(req_id=req_id, target=target,
                                              deadline=deadline)
    _flood(ctx, piece, ctx.node, target, req_id, ttl, INFINITE_LIFETIME, (),
           row.order_key)


def _flood(ctx, piece: int, origin: NodeId, target: NodeId, req_id: int,
           ttl: int, min_lifetime: float, hops: tuple[NodeId, ...],
           origin_key: float) -> None:
    """Broadcast one copy of a route request to every alive neighbor not on
    ``hops``, with me appended to the hops and the minimum lifetime lowered
    to my own over the edge to that neighbor. The origin and every relay
    send through here (RFC 3561 6.3-6.5)."""
    me = ctx.node
    rate = ctx.piece_rate(piece)
    load = ctx.load_of(me)
    hops_out = hops + (me,)
    for nb in ctx.alive_neighbor_ids():
        if nb in hops:
            continue
        life = ctx.projected_lifetime_of(me, nb, rate, load)
        ctx.send(nb, RouteRequest(piece=piece, origin=origin, target=target,
                                  req_id=req_id, ttl=ttl,
                                  min_lifetime=min(min_lifetime, life),
                                  hops=hops_out, origin_key=origin_key))


def _handle_route_request(ctx, msg: RouteRequest) -> None:
    me = ctx.node
    key = (msg.origin, msg.req_id)
    if me == msg.target:
        if key in ctx.state.seen:
            return   # stragglers after the reply went out
        col = ctx.state.collectors.get(key)
        if col is None:
            row = ctx.row(msg.piece)
            if row is None:
                ctx.diagnostic(f"route request for piece {msg.piece} I no longer serve")
                return
            col = RouteCollector(piece=msg.piece, deadline=ctx.cycle() + 1,
                                 target_key=row.order_key)
            ctx.state.collectors[key] = col
        col.candidates.append((msg.min_lifetime, msg.hops + (me,), msg.origin_key))
        return
    if me in msg.hops:
        return
    if key in ctx.state.seen:
        return
    if msg.ttl < 1:
        return
    _remember(ctx, key)
    _flood(ctx, msg.piece, msg.origin, msg.target, msg.req_id, msg.ttl - 1,
           msg.min_lifetime, msg.hops, msg.origin_key)


def _remember(ctx, key: tuple[NodeId, int]) -> None:
    """Store request id ``key`` as seen this cycle, after dropping the ids
    stored more than ``route_ttl + 1`` cycles ago. Every copy of a request
    arrives within ``route_ttl + 1`` cycles of the origin's send and request
    ids never recur, so an older id can never be looked up again (AODV's
    PATH_DISCOVERY_TIME, RFC 3561 6.3).

    Pruning happens only here, where ids are added, so a protocol step that
    stores nothing changes nothing. Memory stays bounded all the same: after
    any store a node holds only the ids it stored in the last
    ``route_ttl + 2`` cycles, and between stores it grows not at all."""
    now = ctx.cycle()
    oldest = now - (ctx.route_ttl + 1)
    seen = ctx.state.seen
    while seen:
        first = next(iter(seen))
        if seen[first] >= oldest:
            break
        del seen[first]
    seen[key] = now


def _due(ctx, entries: dict):
    """Remove and yield, in key order, the (key, entry) pairs of ``entries``
    whose deadline has come. The keys are sorted before the first entry is
    yielded, so a caller may add entries as it goes."""
    now = ctx.cycle()
    for key in sorted(entries):
        entry = entries[key]
        if entry.deadline <= now:
            del entries[key]
            yield key, entry


def _expire_collectors(ctx) -> None:
    for key, col in _due(ctx, ctx.state.collectors):
        _remember(ctx, key)
        row = ctx.row(col.piece)
        if row is None:
            ctx.diagnostic(f"route collected for piece {col.piece} I no longer serve")
            continue
        best = min(col.candidates, key=lambda c: (-c[0], len(c[1]), c[1]))
        _, hops, origin_key = best
        if len(hops) < 2:
            continue
        # Adopt the route's last transmitter as my new upstream now; the
        # intermediates confirm the same pointer as the reply walks back.
        ctx.set_prev(col.piece, hops[-2])
        ctx.send(hops[-2], RouteReply(piece=col.piece, origin=key[0],
                                      req_id=key[1], hops=hops,
                                      origin_key=origin_key,
                                      target_key=row.order_key))


def _expire_pending_routes(ctx) -> None:
    for piece, _ in _due(ctx, ctx.state.pending_route):
        if ctx.row(piece) is None:
            continue   # the path restructured around me meanwhile
        ctx.report_broken(piece, "repair-failed")


def _check_pending_splices(ctx) -> None:
    for piece, ps in _due(ctx, ctx.state.pending_splice):
        if piece in ctx.state.pending_route:
            continue   # a newer repair superseded the splice
        row = ctx.row(piece)
        if row is None or row.next != ps.joiner:
            continue   # the path moved on; nothing to confirm
        if ctx.node_alive(ps.joiner) and ctx.node_alive(ps.target):
            continue   # both ends outlived the stitch window: installed
        failed = ps.joiner if not ctx.node_alive(ps.joiner) else ps.target
        ctx.deactivate_edge(piece, ps.joiner)
        local_path_config(ctx, piece, ps.target, failed=failed)


def _route_key(origin_key: float, target_key: float, idx: int, span: int) -> float:
    return origin_key + (target_key - origin_key) * (idx / span)


def _handle_route_reply(ctx, msg: RouteReply) -> None:
    """Install my slice of the chosen route and pass the reply upstream.

    A fresh relay adopts both route neighbors. A relay that is already on
    the path runs loop elimination instead: already downstream of the joint,
    it keeps its continuation, adopts the route predecessor and dissolves the
    superseded stretch forward through its route successor; already upstream,
    it shortcuts to the route successor, dissolves its stale old continuation
    forward (the route origin sits on that stretch), and stops the reply so
    the now-redundant route prefix is never installed.
    """
    me = ctx.node
    if me not in msg.hops:
        ctx.diagnostic("route reply strayed off its route")
        return
    k = msg.hops.index(me)
    piece = msg.piece
    if k == 0:
        pending = ctx.state.pending_route.get(piece)
        if pending is None or pending.req_id != msg.req_id:
            ctx.diagnostic(f"late route reply for piece {piece}")
            return
        del ctx.state.pending_route[piece]
        if ctx.row(piece) is None:
            ctx.diagnostic(f"route reply for piece {piece} without a row")
            return
        ctx.set_next(piece, msg.hops[1])
        return
    if not ctx.piece_known(piece):
        ctx.diagnostic(f"route reply for unknown piece {piece}")
        return
    span = len(msg.hops) - 1
    upstream = msg.hops[k - 1]
    downstream = msg.hops[k + 1]
    up_key = _route_key(msg.origin_key, msg.target_key, k - 1, span)
    my_key = _route_key(msg.origin_key, msg.target_key, k, span)
    stale = _enter_path(ctx, piece, upstream, downstream, my_key, up_key)
    if stale is None:
        ctx.send(upstream, msg)
    elif stale.next is not None and stale.next != downstream:
        # Dissolve my stale old continuation. It either dead-ends at the
        # failed hop or rejoins the path at my new downstream, so that is
        # the wave's terminator.
        ctx.send(stale.next, ModifyPath(piece=piece, joiner=downstream,
                                        delete=True, direction=FWD))


# ---------------------------------------------------------------------------
# Joining and modifying paths
# ---------------------------------------------------------------------------

def join_path(ctx, msg: Join) -> None:
    """Enter the path between msg.upstream and msg.downstream, in one of
    three ways: as a fresh node, already downstream, or already upstream.

    A fresh node adopts both pointers; no part of the path is superseded, so
    there is nothing to delete. A node that already sits downstream of the
    joint keeps its own continuation, adopts the new upstream, and dissolves
    the stretch between the old reconnection target and itself with a forward
    deletion wave. A node that already sits upstream keeps its own ancestry,
    shortcuts forward to the new downstream, and dissolves the stale stretch
    backward from the join sender. Either wave stops when it reaches me, so
    the surviving chain is simple.
    """
    piece, upstream, downstream = msg.piece, msg.upstream, msg.downstream
    if not ctx.piece_known(piece):
        ctx.diagnostic(f"join refused: unknown piece {piece}")
        return
    if _enter_path(ctx, piece, upstream, downstream,
                   msg.upstream_key + JOIN_KEY_STEP, msg.upstream_key) is not None:
        ctx.send(upstream, ModifyPath(piece=piece, joiner=ctx.node,
                                      delete=True, direction=BWD))


def _enter_path(ctx, piece: int, upstream: NodeId, downstream: NodeId,
                key: float, upstream_key: float) -> PathRow | None:
    """The row write and forward message that a splice joiner and a
    route-reply relay share (``join_path``'s three cases), with order key
    ``key`` when I am fresh. Returns my old row when I already sat upstream
    of the joint, so the caller can dissolve what I superseded, else None.
    Rows are replaced, not mutated, so it still names my old next."""
    row = ctx.row(piece)
    downstream_of_joint = row is not None and row.order_key > upstream_key
    if row is None:
        ctx.set_row(piece, prev=upstream, next=downstream, order_key=key)
    elif downstream_of_joint:
        ctx.set_prev(piece, upstream)
    else:
        ctx.set_next(piece, downstream)
    ctx.send(downstream, ModifyPath(piece=piece, joiner=ctx.node,
                                    delete=downstream_of_joint, direction=FWD))
    return None if downstream_of_joint else row


def modify_path(ctx, src: NodeId, msg: ModifyPath) -> None:
    """Apply one step of a path modification.

    Without deletion this is the stitch: point at the joiner and stop. With
    deletion, clear my row (which deactivates my owned edge for the piece)
    and pass the wave along my old chain, stopping once it would reach the
    joiner. A wave that hits a missing row aborts with a diagnostic; the
    remaining stale rows are unreachable from the source and harmless.
    """
    row = ctx.row(msg.piece)
    if not msg.delete:
        if row is None:
            ctx.diagnostic(f"stitch for piece {msg.piece} without a row")
            return
        if msg.direction == FWD:
            ctx.set_prev(msg.piece, msg.joiner)
        else:
            ctx.set_next(msg.piece, msg.joiner)
        return
    if ctx.node == msg.joiner:
        return
    if row is None:
        ctx.diagnostic(f"deletion wave hit a pointer gap at {ctx.node}")
        return
    onward = row.next if msg.direction == FWD else row.prev
    ctx.clear_row(msg.piece)
    if onward is None:
        ctx.diagnostic(f"deletion wave hit a pointer gap at {ctx.node}")
    elif onward != msg.joiner:
        ctx.send(onward, msg)


# ---------------------------------------------------------------------------
# Disconnection
# ---------------------------------------------------------------------------

def disconnect(ctx) -> None:
    """Terminate operation: alert the upstream of every piece I carry, drop
    my rows, deactivate all my edges and mark myself not alive. Idempotent."""
    if not ctx.alive():
        return
    for piece in ctx.pieces_here():
        row = ctx.row(piece)
        if row is None:
            continue
        if row.prev is not None:
            ctx.send(row.prev, Alert(piece=piece, failed=ctx.node, target=row.next))
        elif ctx.is_source(piece):
            ctx.report_broken(piece, "source-dead")
        ctx.clear_row(piece)
    ctx.deactivate_all_edges()
    ctx.set_dead()
