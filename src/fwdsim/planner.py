"""Centralized controller: forwarding plans from node status reports.

The controller assembles node status reports into a view of the alive
network, then assigns each piece a caching proxy plus a source segment and a
consumer segment. Segments are chosen to maximize the minimum projected
lifetime of their transmitting nodes, subject to the round-trip access
latency budget on the consumer side. Planning is greedy in descending rate
order and fully deterministic under the documented tie-breaking.

Segments come from a Pareto label search (Martins 1984) over the view's
adjacency index, built once per view. Each search memoizes edge lifetimes for
its own duration only, because the view's spend changes between searches;
the least round-trip latencies to a consumer and the hop counts from and to
a node depend on the topology alone and are kept on the view.

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
from dataclasses import dataclass, field

from .lifetime import LifetimeParams, lifetime_from_spend
from .netmodel import NetworkState, NodeId

INFINITY = float("inf")


class PlanningError(RuntimeError):
    pass


@dataclass(frozen=True)
class StatusReport:
    node: NodeId
    energy_j: float
    links: dict[NodeId, tuple[float, float]]   # neighbor -> (eps_j, latency_ms)


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


# One adjacency index entry: (v, one-way latency, round-trip latency, eps_j).
# The round-trip latency is infinite when (v, u) is missing.
OutEdge = tuple[NodeId, float, float, float]


@dataclass
class PlannerView:
    """Controller-side picture of the alive network built from status reports.

    ``out_edges`` is the adjacency index: each node's out-edges sorted by
    neighbor id, built once at construction. Energies and edges stay fixed
    for the view's life; only ``spend`` changes, so nothing derived from it
    is stored here. Round-trip distances (``round_trip_to_go``) and hop
    counts (``hop_counts``) depend on the topology only, so they are cached
    here.
    """

    energy: dict[NodeId, float]
    edges: dict[tuple[NodeId, NodeId], tuple[float, float]]  # (eps_j, latency_ms)
    spend: dict[NodeId, float]                               # accumulated J/cycle
    params: LifetimeParams
    out_edges: dict[NodeId, tuple[OutEdge, ...]] = field(
        init=False, repr=False, compare=False)
    _to_go: dict[tuple[NodeId, float], dict[NodeId, float]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _hops: dict[tuple[NodeId, bool], dict[NodeId, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        out: dict[NodeId, list[OutEdge]] = {u: [] for u in self.energy}
        for (u, v), (eps, lat) in self.edges.items():
            back = self.edges.get((v, u))
            round_trip = INFINITY if back is None else lat + back[1]
            out.setdefault(u, []).append((v, lat, round_trip, eps))
        self.out_edges = {u: tuple(sorted(es)) for u, es in out.items()}

    @classmethod
    def from_status(cls, reports: list[StatusReport],
                    params: LifetimeParams) -> "PlannerView":
        ordered = sorted(reports, key=lambda r: r.node)
        energy = {rep.node: rep.energy_j for rep in ordered}
        edges = {}
        for rep in ordered:
            for v, (eps, lat) in sorted(rep.links.items()):
                if v in energy:                      # both endpoints reported alive
                    edges[(rep.node, v)] = (eps, lat)
        return cls(energy=energy, edges=edges,
                   spend={u: 0.0 for u in energy}, params=params)

    def out_neighbors(self, u: NodeId) -> list[NodeId]:
        return [edge[0] for edge in self.out_edges.get(u, ())]

    def round_trip_to_go(self, dst: NodeId, limit: float) -> dict[NodeId, float]:
        """Least round-trip latency from each node to dst, for the nodes
        within ``limit`` of it; computed once per (dst, limit)."""
        key = (dst, limit)
        dist = self._to_go.get(key)
        if dist is None:
            dist = self._to_go[key] = _round_trip_to_go(self.out_edges, dst, limit)
        return dist

    def hop_counts(self, root: NodeId, round_trip: bool = False) -> dict[NodeId, int]:
        """Fewest hops from root to each node it reaches (BFS); computed once
        per (root, round_trip). With ``round_trip`` only edges that have a
        reverse edge count; those come in pairs, so the counts are also the
        fewest hops toward root."""
        key = (root, round_trip)
        hops = self._hops.get(key)
        if hops is None:
            hops = self._hops[key] = _hop_counts(self.out_edges, root, round_trip)
        return hops

    def edge_lifetime(self, u: NodeId, v: NodeId, rate: float) -> float:
        """Projected lifetime of u if it also forwards this piece over (u, v)."""
        eps, _ = self.edges[(u, v)]
        return lifetime_from_spend(self.energy[u], self.spend[u] + eps * rate,
                                   self.params)

    def commit(self, chain: list[NodeId], rate: float) -> None:
        for u, v in zip(chain, chain[1:]):
            eps, _ = self.edges[(u, v)]
            self.spend[u] += eps * rate


def status_from_network(net: NetworkState) -> list[StatusReport]:
    """Status reports for every alive node, as uploaded to the controller."""
    reports = []
    for u in sorted(net.nodes):
        node = net.nodes[u]
        if not node.alive or node.energy_j <= 0.0:
            continue
        links = {v: (net.links[(u, v)].eps_j, net.links[(u, v)].latency_ms)
                 for v in net.neighbors[u]}
        reports.append(StatusReport(node=u, energy_j=node.energy_j, links=links))
    return reports


def bottleneck_path(
    view: PlannerView,
    src: NodeId,
    dst: NodeId,
    latency_budget_ms: float | None,
    rate: float,
    round_trip: bool = False,
    excluded: frozenset[NodeId] | set[NodeId] = frozenset(),
    hop_only: bool = False,
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

    Expansion reads ``view.out_edges``, taking the one-way or the round-trip
    latency by position. Each edge's lifetime is computed at most once per
    call and never cached on the view, whose spend may change between calls.
    Two bounds drop labels that cannot win: a label whose best possible
    terminal already loses to a terminal label pushed so far, and, under a
    round-trip budget, a label that cannot reach dst within the budget. The
    labels such a label would dominate cannot win either, so dropping it
    changes no result, tied paths included.
    """
    if src == dst:
        raise PlanningError("source and target must differ")
    if src not in view.energy or dst not in view.energy:
        return None
    if src in excluded or dst in excluded:
        return None
    budget = INFINITY if latency_budget_ms is None else latency_budget_ms
    weight = 2 if round_trip else 1              # latency position in an OutEdge
    out_edges, energy, spend, params = (view.out_edges, view.energy,
                                        view.spend, view.params)
    lifetimes: dict[tuple[NodeId, NodeId], float] = {}

    labels: dict[NodeId, list[tuple[float, float, int]]] = {src: [(0.0, INFINITY, 0)]}
    best_terminal: tuple[float, int, tuple[NodeId, ...]] | None = None  # (-bot, hops, path)
    heap: list[tuple[float, float, int, tuple[NodeId, ...]]] = [(-INFINITY, 0.0, 0, (src,))]
    # (bottleneck, hops) of the best terminal label pushed so far; the final
    # answer is at least this good.
    inc_bot, inc_hops = -INFINITY, 0
    # Least round-trip latency from each node on to dst. The slack keeps
    # float rounding from pruning a path that fits the budget exactly.
    limit = budget * (1.0 + 1e-9)
    to_go = (view.round_trip_to_go(dst, limit)
             if round_trip and budget < INFINITY else None)

    while heap:
        neg_bot, lat, hops, path = heapq.heappop(heap)
        bot = -neg_bot
        if bot < inc_bot:
            # Bottlenecks only shrink along a path and the heap pops them in
            # descending order, so no remaining label can beat the incumbent.
            break
        u = path[-1]
        if u == dst:
            cand = (neg_bot, hops, path)
            if best_terminal is None or cand < best_terminal:
                best_terminal = cand
            continue
        nhops = hops + 1
        if bot == inc_bot and nhops > inc_hops:
            continue
        for edge in out_edges[u]:
            v = edge[0]
            if v in excluded or v in path:
                continue
            nlat = lat + edge[weight]
            if nlat > budget:
                continue
            if to_go is not None and nlat + to_go.get(v, INFINITY) > limit:
                continue
            if hop_only:
                nbot = INFINITY
            else:
                life = lifetimes.get((u, v))
                if life is None:
                    life = lifetimes[(u, v)] = lifetime_from_spend(
                        energy[u], spend[u] + edge[3] * rate, params)
                nbot = life if life < bot else bot
            # A label that can only end in a terminal worse than the
            # incumbent is dropped before it enters a bucket: any label it
            # would keep out is no better, so cannot win either.
            if nbot < inc_bot or (nbot == inc_bot
                                  and nhops + (v != dst) > inc_hops):
                continue
            bucket = labels.get(v)
            if bucket is None:
                bucket = labels[v] = []
            for elat, ebot, ehops in bucket:
                if elat <= nlat and ebot >= nbot and ehops <= nhops:
                    break
            else:
                bucket[:] = [(elat, ebot, ehops) for (elat, ebot, ehops) in bucket
                             if not (nlat <= elat and nbot >= ebot and nhops <= ehops)]
                bucket.append((nlat, nbot, nhops))
                if v == dst and (nbot > inc_bot or nhops < inc_hops):
                    inc_bot, inc_hops = nbot, nhops
                heapq.heappush(heap, (-nbot, nlat, nhops, path + (v,)))

    if best_terminal is None:
        return None
    return list(best_terminal[2])


def _round_trip_to_go(out_edges: dict[NodeId, tuple[OutEdge, ...]],
                      dst: NodeId, limit: float) -> dict[NodeId, float]:
    """Least round-trip latency from each node to dst, for the nodes within
    ``limit`` of it (Dijkstra). Round-trip weights are symmetric, so searching
    outward from dst gives the distances toward it."""
    dist = {dst: 0.0}
    heap = [(0.0, dst)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for edge in out_edges[x]:
            nd = d + edge[2]
            if nd <= limit and nd < dist.get(edge[0], INFINITY):
                dist[edge[0]] = nd
                heapq.heappush(heap, (nd, edge[0]))
    return dist


def _hop_counts(out_edges: dict[NodeId, tuple[OutEdge, ...]], root: NodeId,
                round_trip: bool) -> dict[NodeId, int]:
    hops = {root: 0}
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for v, _, rt, _ in out_edges[x]:
                if v not in hops and (rt < INFINITY or not round_trip):
                    hops[v] = depth
                    reached.append(v)
        frontier = reached
    return hops


def _widest(view: PlannerView, root: NodeId, rate: float,
            targets: list[NodeId], toward: bool) -> dict[NodeId, float]:
    """Widest-path (max-min) lifetime from root to each target, or with
    ``toward`` from each target to root over edges that have a reverse edge
    (Dijkstra, stopped once every target is settled; targets left out are
    unreachable). Edge weights are ``PlannerView.edge_lifetime``'s float
    expression, so they compare exactly with the bottlenecks of candidates."""
    energy, spend, params, edges = view.energy, view.spend, view.params, view.edges
    width = {root: INFINITY}
    heap = [(-INFINITY, root)]
    left = set(targets)
    while heap and left:
        neg_w, x = heapq.heappop(heap)
        w = -neg_w
        if w < width[x]:
            continue
        left.discard(x)
        for v, _, rt, eps in view.out_edges[x]:
            if not toward:
                life = lifetime_from_spend(energy[x], spend[x] + eps * rate, params)
            elif rt < INFINITY:                  # v transmits over (v, x)
                life = lifetime_from_spend(energy[v],
                                           spend[v] + edges[(v, x)][0] * rate,
                                           params)
            else:
                continue
            nw = life if life < w else w
            if nw > width.get(v, -INFINITY):
                width[v] = nw
                heapq.heappush(heap, (-nw, v))
    return width


def path_bottleneck(view: PlannerView, chain: list[NodeId], rate: float) -> float:
    """Minimum projected lifetime over a chain's transmitting nodes."""
    return min(view.edge_lifetime(u, v, rate) for u, v in zip(chain, chain[1:]))


def compute_plan(
    reports: list[StatusReport],
    pieces,
    proxies: set[NodeId],
    latency_budget_ms: float,
    params: LifetimeParams,
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
    """
    if not 0 < latency_budget_ms < INFINITY:
        raise PlanningError("latency budget must be positive and finite")
    view = PlannerView.from_status(reports, params)
    plan = Plan()
    alive_proxies = sorted(p for p in proxies if p in view.energy)
    # The same slack and cache key as the consumer searches' own pruning.
    limit = latency_budget_ms * (1.0 + 1e-9)

    for piece in sorted(pieces, key=lambda p: (-p.rate, p.id)):
        if piece.source not in view.energy:
            plan.infeasible[piece.id] = "source not alive"
            continue
        if piece.consumer not in view.energy:
            plan.infeasible[piece.id] = "consumer not alive"
            continue
        hops_s = view.hop_counts(piece.source)
        hops_c = view.hop_counts(piece.consumer, round_trip=True)
        to_go = view.round_trip_to_go(piece.consumer, limit)
        reachable = [p for p in alive_proxies
                     if p in hops_s and p in to_go
                     and p not in (piece.source, piece.consumer)]
        width_s = _widest(view, piece.source, piece.rate, reachable, toward=False)
        width_c = _widest(view, piece.consumer, piece.rate, reachable, toward=True)
        bounds = sorted((-min(width_s[p], width_c[p]), hops_s[p] + hops_c[p], p)
                        for p in reachable)
        best = None   # ((-bottleneck, hops, chain, proxy), proxy, s_seg, c_seg)
        for neg_width, min_hops, proxy in bounds:
            incumbent = None if best is None else best[0][:2]
            if incumbent is not None and (neg_width, min_hops) > incumbent:
                break       # so is every later proxy's bound
            for candidate in _candidate_segments(view, piece, proxy,
                                                 latency_budget_ms, incumbent):
                s_seg, c_seg = candidate
                chain = s_seg + c_seg[1:]
                bot = path_bottleneck(view, chain, piece.rate)
                key = (-bot, len(chain) - 1, tuple(chain), proxy)
                if best is None or key < best[0]:
                    best = (key, proxy, s_seg, c_seg)
        if best is None:
            plan.infeasible[piece.id] = "no latency-feasible path"
            continue
        _, proxy, s_seg, c_seg = best
        plan.pieces[piece.id] = PiecePlan(proxy=proxy, source_segment=s_seg,
                                          consumer_segment=c_seg)
        view.commit(s_seg + c_seg[1:], piece.rate)
    return plan


def _candidate_segments(view: PlannerView, piece, proxy: NodeId,
                        budget_ms: float, incumbent: tuple[float, int] | None):
    """Candidate (source_segment, consumer_segment) pairs for one proxy.

    Tries each side first with the other fit around it, both in the
    lifetime-maximizing and the hop-minimizing (low-blocking) variants, so
    one side's choice cannot starve the other of every feasible route.
    ``incumbent`` is the (-bottleneck, hops) of the best candidate so far; a
    first segment whose own (-bottleneck, hops) is already worse gets no
    follow-up search, since the other side only lowers the bottleneck and
    adds hops."""
    def loses(seg: list[NodeId]) -> bool:
        return incumbent is not None and (
            -path_bottleneck(view, seg, piece.rate), len(seg) - 1) > incumbent

    out = []
    firsts_c = []
    for hop_only in (False, True):
        c_seg = bottleneck_path(view, proxy, piece.consumer, budget_ms,
                                piece.rate, round_trip=True, hop_only=hop_only)
        if c_seg is not None and piece.source not in c_seg and c_seg not in firsts_c:
            firsts_c.append(c_seg)
    for c_seg in firsts_c:
        if loses(c_seg):
            continue
        s_seg = bottleneck_path(view, piece.source, proxy, None, piece.rate,
                                excluded=frozenset(c_seg) - {proxy})
        if s_seg is not None:
            out.append((s_seg, c_seg))
    firsts_s = []
    for hop_only in (False, True):
        s_seg = bottleneck_path(view, piece.source, proxy, None, piece.rate,
                                hop_only=hop_only)
        if s_seg is not None and piece.consumer not in s_seg and s_seg not in firsts_s:
            firsts_s.append(s_seg)
    for s_seg in firsts_s:
        if loses(s_seg):
            continue
        c_seg = bottleneck_path(view, proxy, piece.consumer, budget_ms,
                                piece.rate, round_trip=True,
                                excluded=frozenset(s_seg) - {proxy})
        if c_seg is not None:
            out.append((s_seg, c_seg))
    return out

