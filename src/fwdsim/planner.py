"""Centralized controller: forwarding plans from the network's node status.

The controller reads the status its nodes upload, their energies and link
costs, from the network into a view of the alive nodes, then assigns each
piece a caching proxy plus a source segment and a consumer segment.
Segments are chosen to maximize the minimum projected lifetime of their
transmitting nodes, subject to the round-trip access latency budget on the
consumer side. Planning is greedy in descending rate order and fully
deterministic under the documented tie-breaking.

Segments come from a Pareto label search (Martins 1984) over the
topology's adjacency index. A ``Topology`` numbers the directed edges once,
and every index entry carries its edge's id, so a search reads per-edge data
by list position rather than by a (u, v) key; its search state (label
buckets, widths, distances) lives in lists indexed by node id. Three kinds
of work are reused, each exact by construction, so no plan depends on the
reuse:

* Edge lifetimes. A view's spend changes only at ``PlannerView.commit``,
  between two pieces, and only for the committed chain's transmitters.
  ``compute_plan`` fills a lifetime table, a list indexed by edge id, in one
  pass (``PlannerView.lifetimes``) when the rate changes; pieces come in
  rate order, so the next piece of the same rate carries the table on,
  copied with only those transmitters' out-edges refilled. Both widest-path
  runs, every label search and every candidate's bottleneck share the
  piece's table. A search called without a table fills its own.
* Incumbents. A label search may start from a floor, the (bottleneck, hops)
  a segment must reach for its candidate to tie the best one found so far;
  the labels the floor drops could only have led to candidates that lose.
* Topology. The edge numbering and the adjacency indexes, the latency
  caps of a search (from round-trip distances to a consumer), BFS hop
  counts and the hop-only searches without exclusions read only the node
  set and the link latencies. They live on a ``Topology``, which
  ``compute_plan`` hands back with its plan; the next plan reuses it,
  indexes and all, when the network has the same alive nodes and
  latencies, and builds a new one otherwise. A view then keeps only the
  energies, each edge's cost (read in edge-id order) and its spend.

Proxies are searched branch-and-bound. Per piece, one widest-path (max-min,
Pollack 1960) Dijkstra from the source and one toward the consumer bound
every proxy's bottleneck from above; BFS hop counts bound its hops from
below. Proxies are visited best bound first, and a proxy whose bound
(-bottleneck, hops) is strictly worse than the best candidate found so far is
skipped: none of its candidates can beat or tie that candidate, and the
candidate order is total, so the plan is exactly the one that trying every
proxy gives.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .lifetime import lifetime_from_spend
from .netmodel import NetworkState, NodeId

INFINITY = float("inf")


class PlanningError(RuntimeError):
    pass


@dataclass
class PiecePlan:
    proxy: NodeId
    source_segment: list[NodeId]     # source .. proxy
    consumer_segment: list[NodeId]   # proxy .. consumer

    @property
    def chain(self) -> list[NodeId]:
        return self.source_segment + self.consumer_segment[1:]


@dataclass
class Plan:
    pieces: dict[int, PiecePlan] = field(default_factory=dict)
    infeasible: dict[int, str] = field(default_factory=dict)
    # The topology the plan was made on, for the next plan to reuse.
    topology: Topology | None = field(default=None, repr=False, compare=False)

    def to_text(self) -> str:
        out = []
        for pid in sorted(self.pieces):
            pp = self.pieces[pid]
            out.append(f"piece {pid} proxy={pp.proxy} "
                       f"source={'-'.join(map(str, pp.source_segment))} "
                       f"consumer={'-'.join(map(str, pp.consumer_segment))}")
        for pid in sorted(self.infeasible):
            out.append(f"piece {pid} infeasible: {self.infeasible[pid]}")
        return "\n".join(out) + "\n"


# One entry of u's edge index: (v, edge id, 1 << v, latency) of (u, v),
# where 1 << v is v's bit in a label's path mask. ``Topology.out_edges``
# holds the one-way latency, ``Topology.round_trips`` the round-trip one,
# infinite when (v, u) is missing.
IndexEdge = tuple[NodeId, int, int, float]
# One in-edge index entry of u: (v, edge id) of (v, u), whose reverse edge
# (u, v) exists.
InEdge = tuple[NodeId, int]


class Topology:
    """The node set and the link latencies of a view, and what is computed
    from them alone. Construction numbers the directed edges 0, 1, ... in
    (u, v) order (``edge_ids``, ``tails``, ``latency``) and builds three
    indexes: ``out_edges`` and ``round_trips``, each node's out-edges sorted
    by neighbor id with their one-way and round-trip latencies, and
    ``in_edges``, for each node u in the same order, the edges (v, u) whose
    reverse edge (u, v) exists. The latency caps of a search, BFS hop counts
    and hop-only label searches without exclusions are computed on first
    use. Energies, costs and spend are no part of it, so one
    Topology, its indexes included, serves every view with the same node set
    and latencies."""

    def __init__(self, nodes, latencies: dict[tuple[NodeId, NodeId], float]):
        self.nodes = frozenset(nodes)
        self.size = max(self.nodes, default=-1) + 1    # search lists by node id
        keys = sorted(latencies)
        self.edge_ids = {key: eid for eid, key in enumerate(keys)}
        self.tails = [u for u, _ in keys]
        self.latency = [latencies[key] for key in keys]
        out: dict[NodeId, list[IndexEdge]] = {u: [] for u in sorted(self.nodes)}
        both: dict[NodeId, list[IndexEdge]] = {u: [] for u in out}
        into: dict[NodeId, list[InEdge]] = {u: [] for u in out}
        for eid, (u, v) in enumerate(keys):
            lat, back = self.latency[eid], latencies.get((v, u))
            out[u].append((v, eid, 1 << v, lat))
            both[u].append((v, eid, 1 << v, INFINITY if back is None else lat + back))
            if back is not None:
                into[v].append((u, eid))
        self.out_edges = {u: tuple(es) for u, es in out.items()}
        self.round_trips = {u: tuple(es) for u, es in both.items()}
        self.in_edges = {u: tuple(es) for u, es in into.items()}
        self._caps: dict[tuple[NodeId | None, float], list[float]] = {}
        self._hops: dict[tuple[NodeId, bool], dict[NodeId, int]] = {}
        self._hop_paths: dict[tuple, tuple[NodeId, ...] | None] = {}

    def latency_caps(self, dst: NodeId, budget: float,
                     round_trip: bool) -> list[float]:
        """The most latency a label of a search for dst may carry into each
        node, by node id: the budget, and under a finite round-trip budget
        also the slack limit less the node's least round-trip latency to
        dst, so a label that cannot reach dst within the budget is dropped,
        and minus infinity at a node that cannot reach dst at all. Computed
        once per (dst, budget) for a finite round-trip budget and once per
        budget otherwise."""
        round_trip = round_trip and budget < INFINITY
        key = (dst if round_trip else None, budget)
        caps = self._caps.get(key)
        if caps is None:
            # The slack keeps float rounding from pruning a path that fits
            # the budget exactly.
            limit = budget * (1.0 + 1e-9)
            caps = self._caps[key] = (
                [min(budget, limit - d) for d in _round_trip_to_go(self, dst, limit)]
                if round_trip else [budget] * self.size)
        return caps

    def hop_counts(self, root: NodeId, round_trip: bool = False) -> dict[NodeId, int]:
        """Fewest hops from root to each node it reaches (BFS); computed once
        per (root, round_trip). With ``round_trip`` only edges that have a
        reverse edge count; those come in pairs, so the counts are also the
        fewest hops toward root."""
        key = (root, round_trip)
        hops = self._hops.get(key)
        if hops is None:
            hops = self._hops[key] = _hop_counts(self.round_trips, root, round_trip)
        return hops

    def hop_path(self, view: PlannerView, src: NodeId, dst: NodeId,
                 latency_budget_ms: float | None,
                 round_trip: bool = False) -> list[NodeId] | None:
        """``bottleneck_path(..., hop_only=True)`` without exclusions, on a
        view of this topology; searched once per (src, dst, budget,
        round_trip)."""
        key = (src, dst, latency_budget_ms, round_trip)
        if key not in self._hop_paths:
            path = bottleneck_path(view, src, dst, latency_budget_ms, 0,
                                   round_trip=round_trip, hop_only=True)
            self._hop_paths[key] = None if path is None else tuple(path)
        path = self._hop_paths[key]
        return None if path is None else list(path)


@dataclass
class PlannerView:
    """Controller-side picture of the alive network, read from the network
    (``from_network``).

    The edges and their latencies are the ``topology``'s, which also numbers
    and indexes them; a given topology is reused when the network fits it,
    and a new one is built otherwise. The view keeps the energies, ``eps``
    (each edge's eps_j by edge id) and the spend. Energies and costs stay
    fixed for the view's life; only ``spend`` changes, so nothing derived
    from it is stored here.
    """

    energy: dict[NodeId, float]
    spend: dict[NodeId, float]                               # accumulated J/cycle
    config_phase_energy_j: float
    topology: Topology = field(repr=False, compare=False)
    eps: list[float] = field(repr=False)                     # by edge id

    @classmethod
    def from_network(cls, net: NetworkState, config_phase_energy_j: float,
                     topology: Topology | None = None) -> "PlannerView":
        """A view of the alive nodes with energy left and the links between
        them, at zero spend. ``topology`` is reused when it fits: its nodes
        are those nodes, and each of its edges has the latency of the
        network's link. A network's links are fixed at construction, so
        ``topology`` is one made from this network."""
        links = net.links
        energy = {u: node.energy_j for u, node in net.nodes.items()
                  if node.alive and node.energy_j > 0.0}
        edges = ([links[key] for key in topology.edge_ids]
                 if topology is not None and energy.keys() == topology.nodes else None)
        if edges is None or [link.latency_ms for link in edges] != topology.latency:
            topology = Topology(energy, {key: link.latency_ms
                                         for key, link in links.items()
                                         if key[0] in energy and key[1] in energy})
            edges = [links[key] for key in topology.edge_ids]
        return cls(energy=energy, spend=dict.fromkeys(energy, 0.0),
                   config_phase_energy_j=config_phase_energy_j,
                   topology=topology, eps=[link.eps_j for link in edges])

    @cached_property
    def edges(self) -> dict[tuple[NodeId, NodeId], tuple[float, float]]:
        """(eps_j, latency_ms) of every edge, keyed by (u, v)."""
        eps, latency = self.eps, self.topology.latency
        return {key: (eps[eid], latency[eid])
                for key, eid in self.topology.edge_ids.items()}

    def out_neighbors(self, u: NodeId) -> list[NodeId]:
        return [edge[0] for edge in self.topology.out_edges.get(u, ())]

    def lifetimes(self, rate: float, carried: Lifetimes | None = None,
                  changed: Sequence[NodeId] = ()) -> Lifetimes:
        """The lifetime table for one rate under the current spend: the
        ``edge_lifetime`` of every edge, by edge id. Only the special cases
        of ``lifetime_from_spend`` (a node at or under the configuration-phase
        energy, zero spend) call it; every other edge's lifetime is the same
        quotient, computed inline.

        ``carried`` is the table for this rate before the spend of the
        ``changed`` nodes last changed; the result is then a copy of it with
        only their out-edges filled afresh, and ``carried`` is left as it
        is."""
        energy, spend = self.energy, self.spend
        phase_j = self.config_phase_energy_j
        regular = phase_j if phase_j > 0.0 else 0.0  # above it: no special case
        tails, eps = self.topology.tails, self.eps
        if carried is None:
            eids, edges = None, zip(tails, eps)
        else:
            out_edges = self.topology.out_edges
            eids = [edge[1] for u in changed for edge in out_edges[u]]
            edges = [(tails[eid], eps[eid]) for eid in eids]
        fresh = [e / s if (e := energy[u]) > regular and (s := spend[u] + cost * rate)
                 else lifetime_from_spend(e, spend[u] + cost * rate, phase_j)
                 for u, cost in edges]
        if eids is None:
            return fresh
        table = carried.copy()
        for eid, life in zip(eids, fresh):
            table[eid] = life
        return table

    def edge_lifetime(self, u: NodeId, v: NodeId, rate: float) -> float:
        """Projected lifetime of u if it also forwards this piece over (u, v)."""
        cost = self.eps[self.topology.edge_ids[(u, v)]]
        return lifetime_from_spend(self.energy[u], self.spend[u] + cost * rate,
                                   self.config_phase_energy_j)

    def commit(self, chain: list[NodeId], rate: float) -> None:
        ids, eps = self.topology.edge_ids, self.eps
        for edge in zip(chain, chain[1:]):
            self.spend[edge[0]] += eps[ids[edge]] * rate


# Edge id of (u, v) -> ``PlannerView.edge_lifetime(u, v, rate)`` for one rate.
# Valid until the view's spend next changes, at a commit between two pieces,
# when ``PlannerView.lifetimes`` carries it on for the changed nodes.
Lifetimes = list[float]


def bottleneck_path(
    view: PlannerView,
    src: NodeId,
    dst: NodeId,
    latency_budget_ms: float | None,
    rate: float,
    round_trip: bool = False,
    excluded: Collection[NodeId] = (),
    hop_only: bool = False,
    floor: tuple[float, int] | None = None,
    lifetimes: Lifetimes | None = None,
) -> list[NodeId] | None:
    """Path from src to dst maximizing the minimum projected lifetime of its
    transmitting nodes, among paths whose total latency fits the budget.

    Label-correcting search keeping Pareto-optimal (latency, bottleneck, hops)
    labels per node; a budget of None disables the constraint and the budget
    comparison is inclusive. Ties resolve toward fewer hops, then the
    lexicographically smallest node sequence among surviving labels. Returns
    None when no feasible path exists. With ``hop_only`` the lifetime
    criterion is ignored and the search simply minimizes hops within the
    budget (used to generate low-blocking candidate segments).

    Expansion reads the topology's ``out_edges`` or ``round_trips``
    index, whichever latency the budget counts. Edge lifetimes come from
    ``lifetimes``, the table for this rate under the view's current spend
    (``PlannerView.lifetimes``), filled here when not given. Label buckets
    sit in a list by node id, and each label carries a bit mask of the
    nodes its path holds, excluded nodes included. A node's first label
    enters its bucket without a dominance scan. Two bounds drop labels that
    cannot win: a label whose best possible terminal already loses to the
    incumbent, and one over its node's latency cap
    (``Topology.latency_caps``), which under a round-trip budget drops a
    label that cannot reach dst within the budget. The labels such a label
    would dominate cannot win either, so dropping it changes no result,
    tied paths included. The tests on an edge have no side effects, so the
    one that drops most runs first. The incumbent is the best terminal label
    found so far, or from the start ``floor`` when given, a (bottleneck,
    hops) pair: then the result is the unfloored one if that is not
    strictly worse than the floor, and None otherwise. A terminal label is
    recorded, not pushed: any one the heap would never pop loses to one it
    pops.
    """
    if src == dst:
        raise PlanningError("source and target must differ")
    if src not in view.energy or dst not in view.energy:
        return None
    if src in excluded or dst in excluded:
        return None
    budget = INFINITY if latency_budget_ms is None else latency_budget_ms
    topology = view.topology
    index = topology.round_trips if round_trip else topology.out_edges
    if hop_only:                                 # every label's bottleneck stays infinite
        lifetimes = [INFINITY] * len(topology.tails)
    elif lifetimes is None:
        lifetimes = view.lifetimes(rate)

    labels: list[list[tuple[float, float, int]] | None] = [None] * topology.size
    labels[src] = [(0.0, INFINITY, 0)]
    mask = 1 << src
    for x in excluded:
        mask |= 1 << x
    best_terminal: tuple[float, int, tuple[NodeId, ...]] | None = None  # (-bot, hops, path)
    # (-bottleneck, latency, hops, path, mask of path and excluded nodes);
    # paths differ, so the heap never compares masks.
    heap: list[tuple[float, float, int, tuple[NodeId, ...], int]] = [
        (-INFINITY, 0.0, 0, (src,), mask)]
    # (bottleneck, hops) of the best terminal label found so far, or the
    # floor; the final answer is at least this good.
    inc_bot, inc_hops = (-INFINITY, 0) if floor is None else floor
    caps = topology.latency_caps(dst, budget, round_trip)

    pop, push = heapq.heappop, heapq.heappush
    while heap:
        neg_bot, lat, hops, path, mask = pop(heap)
        bot = -neg_bot
        if bot < inc_bot:
            # Bottlenecks only shrink along a path and the heap pops them in
            # descending order, so no remaining label can beat the incumbent.
            break
        u = path[-1]
        nhops = hops + 1
        if bot == inc_bot and nhops > inc_hops:
            continue
        for v, eid, bit, edge_lat in index[u]:
            life = lifetimes[eid]
            nbot = life if life < bot else bot
            # A label that can only end in a terminal worse than the
            # incumbent is dropped before it enters a bucket: any label it
            # would keep out is no better, so cannot win either.
            if nbot < inc_bot or (nbot == inc_bot
                                  and nhops + (v != dst) > inc_hops):
                continue
            nlat = lat + edge_lat
            if nlat > caps[v]:
                continue
            if mask & bit:
                continue
            bucket = labels[v]
            if bucket is None:                   # v's first label
                labels[v] = [(nlat, nbot, nhops)]
            else:
                for elat, ebot, ehops in bucket:
                    if elat <= nlat and ebot >= nbot and ehops <= nhops:
                        break
                else:
                    bucket[:] = [(elat, ebot, ehops) for (elat, ebot, ehops) in bucket
                                 if not (nlat <= elat and nbot >= ebot and nhops <= ehops)]
                    bucket.append((nlat, nbot, nhops))
                    bucket = None                # the label is in
                if bucket is not None:           # dominated: dropped
                    continue
            if v != dst:
                push(heap, (-nbot, nlat, nhops, path + (v,), mask | bit))
                continue
            # A terminal label is final: it is recorded, not pushed.
            if nbot > inc_bot or nhops < inc_hops:
                inc_bot, inc_hops = nbot, nhops
            cand = (-nbot, nhops, path + (v,))
            if best_terminal is None or cand < best_terminal:
                best_terminal = cand

    if best_terminal is None:
        return None
    return list(best_terminal[2])


def _round_trip_to_go(topology: Topology, dst: NodeId, limit: float) -> list[float]:
    """Least round-trip latency from each node to dst, by node id, for the
    nodes within ``limit`` of it and infinite for the rest (Dijkstra).
    Round-trip weights are symmetric, so searching outward from dst gives
    the distances toward it."""
    dist = [INFINITY] * topology.size
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for v, _, _, both_ways in topology.round_trips[x]:
            nd = d + both_ways
            if nd <= limit and nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _hop_counts(round_trips: dict[NodeId, tuple[IndexEdge, ...]], root: NodeId,
                round_trip: bool) -> dict[NodeId, int]:
    hops = {root: 0}
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for v, _, _, rt in round_trips[x]:
                if v not in hops and (rt < INFINITY or not round_trip):
                    hops[v] = depth
                    reached.append(v)
        frontier = reached
    return hops


def _widest(view: PlannerView, root: NodeId, lifetimes: Lifetimes,
            targets: list[NodeId], toward: bool) -> list[float]:
    """Widest-path (max-min) lifetime from root to each target, or with
    ``toward`` from each target to root over edges that have a reverse edge,
    by node id (Dijkstra, stopped once every target is settled; a target
    left at minus infinity is unreachable). Edge weights are read from the
    piece's lifetime table, the one its label searches read, so they compare
    exactly with the bottlenecks of candidates. Going toward root, the
    search walks the in-edge index: v transmits over (v, x)."""
    topology = view.topology
    index = topology.in_edges if toward else topology.out_edges
    width = [-INFINITY] * topology.size
    width[root] = INFINITY
    heap = [(-INFINITY, root)]
    left = set(targets)
    pop, push = heapq.heappop, heapq.heappush
    while heap and left:
        neg_w, x = pop(heap)
        w = -neg_w
        if w < width[x]:
            continue
        left.discard(x)
        for edge in index[x]:                    # both start (v, edge id)
            v = edge[0]
            life = lifetimes[edge[1]]
            nw = life if life < w else w
            if nw > width[v]:
                width[v] = nw
                push(heap, (-nw, v))
    return width


def path_bottleneck(view: PlannerView, chain: list[NodeId], rate: float,
                    lifetimes: Lifetimes | None = None) -> float:
    """Minimum projected lifetime over a chain's transmitting nodes, read
    from ``lifetimes`` when given."""
    if lifetimes is None:
        lifetimes = view.lifetimes(rate)
    ids = view.topology.edge_ids
    bot = INFINITY
    for edge in zip(chain, chain[1:]):
        life = lifetimes[ids[edge]]
        if life < bot:
            bot = life
    return bot


def compute_plan(
    net: NetworkState,
    pieces,
    proxies: set[NodeId],
    latency_budget_ms: float,
    config_phase_energy_j: float,
    topology: Topology | None = None,
) -> Plan:
    """Assign every piece a proxy and both path segments.

    Pieces are planned greedily in descending rate order against the rates
    accumulated so far. Per piece, the chosen candidate is the one with the
    highest bottleneck, then the fewest hops, then the smallest chain, then
    the smallest proxy, over the candidates of every alive proxy; the
    consumer segment carries the round-trip latency budget, the source
    segment only needs to exist. Segments may share no node but the proxy.

    Proxies are visited in order of their bound key (-min(W_s, W_c),
    hops_s + hops_c): W_s and W_c are the widest-path lifetimes from the
    source and to the consumer, hops_s and hops_c the BFS hop counts. A
    candidate's (-bottleneck, hops) is never better than its proxy's bound
    key, so a proxy whose key is strictly worse than the best candidate's
    cannot win and is skipped, as is every proxy the source cannot reach or
    that is not within the budget of the consumer. Unplannable pieces are
    reported in ``Plan.infeasible``; the caller counts their traffic as lost
    until a later plan covers them. The budget must be positive and finite:
    an infinite one would let the consumer segment take one-way links (their
    round-trip latency is infinite), which the bound does not cover.

    The view is read from ``net`` (``PlannerView.from_network``).
    ``topology`` is the previous plan's ``Plan.topology``; it is reused when
    the network still has its node set and latencies. The plan carries the
    topology it was made on.
    """
    if not 0 < latency_budget_ms < INFINITY:
        raise PlanningError("latency budget must be positive and finite")
    view = PlannerView.from_network(net, config_phase_energy_j, topology)
    topology = view.topology
    plan = Plan(topology=topology)
    alive_proxies = sorted(p for p in proxies if p in view.energy)

    # The lifetime table of the last planned rate, and the nodes whose spend
    # changed since it was filled. Pieces come in rate order, and a commit
    # changes only its chain's transmitters' spend, so the next piece of the
    # same rate refills only their out-edges.
    rate, lifetimes, changed = None, None, ()
    for piece in sorted(pieces, key=lambda p: (-p.rate, p.id)):
        if piece.source not in view.energy:
            plan.infeasible[piece.id] = "source not alive"
            continue
        if piece.consumer not in view.energy:
            plan.infeasible[piece.id] = "consumer not alive"
            continue
        hops_s = topology.hop_counts(piece.source)
        hops_c = topology.hop_counts(piece.consumer, round_trip=True)
        # The consumer searches' own caps: minus infinity beyond the budget.
        caps = topology.latency_caps(piece.consumer, latency_budget_ms, True)
        reachable = [p for p in alive_proxies
                     if p in hops_s and caps[p] > -INFINITY
                     and p not in (piece.source, piece.consumer)]
        if piece.rate != rate:
            rate, lifetimes = piece.rate, view.lifetimes(piece.rate)
        elif changed:
            lifetimes = view.lifetimes(rate, lifetimes, changed)
        changed = ()
        width_s = _widest(view, piece.source, lifetimes, reachable, toward=False)
        width_c = _widest(view, piece.consumer, lifetimes, reachable, toward=True)
        bounds = sorted((-min(width_s[p], width_c[p]), hops_s[p] + hops_c[p], p)
                        for p in reachable)
        best = None   # ((-bottleneck, hops, chain, proxy), proxy, s_seg, c_seg)
        for neg_width, min_hops, proxy in bounds:
            if best is not None and (neg_width, min_hops) > best[0][:2]:
                break       # so is every later proxy's bound
            best = _best_candidate(view, piece, proxy, latency_budget_ms, best,
                                   lifetimes, hops_s[proxy], hops_c[proxy])
        if best is None:
            plan.infeasible[piece.id] = "no latency-feasible path"
            continue
        _, proxy, s_seg, c_seg = best
        plan.pieces[piece.id] = PiecePlan(proxy=proxy, source_segment=s_seg,
                                          consumer_segment=c_seg)
        chain = s_seg + c_seg[1:]
        view.commit(chain, rate)
        changed = chain[:-1]
    return plan


def _best_candidate(view: PlannerView, piece, proxy: NodeId, budget_ms: float,
                    best, lifetimes: Lifetimes, min_hops_s: int, min_hops_c: int):
    """``best`` or the best of one proxy's candidates, whichever wins.

    Candidates are (source_segment, consumer_segment) pairs. Each side is
    tried first with the other fit around it, both in the
    lifetime-maximizing and the hop-minimizing (low-blocking) variants, so
    one side's choice cannot starve the other of every feasible route.

    ``best`` is ``((-bottleneck, hops, chain, proxy), proxy, s_seg, c_seg)``
    of the best candidate so far, or None, and is updated as candidates are
    found. A candidate's bottleneck is the lower of its segments' and its
    hops their sum, so a segment can only be part of a candidate that ties
    or beats ``best`` if it reaches the floor (bottleneck, hops minus the
    other side's hops), with the other side's hops known or bounded from
    below by ``min_hops_s`` or ``min_hops_c`` (BFS). Every lifetime search
    starts from that floor, and a first segment that misses it gets no
    follow-up search. What is left out could only give candidates that
    lose, and the candidate order is total, so the result does not depend
    on the order in which candidates are found."""
    rate = piece.rate

    def floor(other_hops: int) -> tuple[float, int] | None:
        if best is None:
            return None
        return -best[0][0], best[0][1] - other_hops

    def misses(seg: list[NodeId], other_hops: int) -> bool:
        return best is not None and (
            -path_bottleneck(view, seg, rate, lifetimes), len(seg) - 1 + other_hops
        ) > best[0][:2]

    def offer(s_seg: list[NodeId] | None, c_seg: list[NodeId] | None) -> None:
        nonlocal best
        if s_seg is None or c_seg is None:
            return
        chain = s_seg + c_seg[1:]
        key = (-path_bottleneck(view, chain, rate, lifetimes), len(chain) - 1,
               tuple(chain), proxy)
        if best is None or key < best[0]:
            best = (key, proxy, s_seg, c_seg)

    topology = view.topology
    tried = []
    for hop_only in (False, True):
        c_seg = (topology.hop_path(view, proxy, piece.consumer, budget_ms,
                                   round_trip=True) if hop_only else
                 bottleneck_path(view, proxy, piece.consumer, budget_ms, rate,
                                 round_trip=True, floor=floor(min_hops_s),
                                 lifetimes=lifetimes))
        if (c_seg is None or piece.source in c_seg or c_seg in tried
                or misses(c_seg, min_hops_s)):
            continue
        tried.append(c_seg)
        offer(bottleneck_path(view, piece.source, proxy, None, rate,
                              excluded=c_seg[1:],
                              floor=floor(len(c_seg) - 1), lifetimes=lifetimes),
              c_seg)
    tried = []
    for hop_only in (False, True):
        s_seg = (topology.hop_path(view, piece.source, proxy, None) if hop_only else
                 bottleneck_path(view, piece.source, proxy, None, rate,
                                 floor=floor(min_hops_c), lifetimes=lifetimes))
        if (s_seg is None or piece.consumer in s_seg or s_seg in tried
                or misses(s_seg, min_hops_c)):
            continue
        tried.append(s_seg)
        offer(s_seg, bottleneck_path(view, proxy, piece.consumer, budget_ms, rate,
                                     round_trip=True,
                                     excluded=s_seg[:-1],
                                     floor=floor(len(s_seg) - 1),
                                     lifetimes=lifetimes))
    return best
