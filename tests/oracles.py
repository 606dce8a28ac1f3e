"""Independent brute-force oracles, plus a frozen reference label search.

Each brute-force oracle recomputes its answer by explicit enumeration,
sharing no code path with the implementation it checks (only plain data
structures). ``reference_bottleneck_path`` is the planner's label search
before its adjacency index and lifetime memo, kept to check that the fast
search returns exactly the same path, ties included.
``reference_compute_plan`` is the planner's proxy loop before branch and
bound, which tried every proxy, kept to check that skipping proxies changes
no plan. ``SteppedSimulation`` is the engine's cycle loop before quiet
stretches and its forwarding before the shared walk, kept to check that they
change no output. ``PolledSimulation`` also steps every alive node's
protocol every cycle, as the engine did before it stepped only nodes with
work, kept to check that skipping the others changes nothing. The four
``reference_*`` pointer walkers are the chain walks as they stood before
they shared ``walk_chain``, kept to check that sharing it changes no result.
``reference_projected_lifetime``, ``reference_max_epoch_duration`` (over
``_node_lifetime``, the removed per-link lifetime sum) and
``reference_clear_piece_paths`` (over ``EdgeIndexedNetwork``, the network
with its second, per-piece index of activated links) are the spend sums and
the piece clear as they stood before ``node_spend``, and
``reference_render_scenario`` is the hand-written scenario template, kept to
check that the single spend model and the schema-driven rendering change no
result. ``reference_csv_text`` is the per-row f-string CSV renderer, kept to
check that the one-format renderer writes the same bytes.
``reference_sample_requests`` is the request sampler that drew one
``random()`` per piece per cycle, kept to check that drawing the requests
in bulk from the generator's words changes no tally, no row and no
generator state.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, fields

from fwdsim import engine
from fwdsim import (INFINITE_LIFETIME, DataPiece, EngineError, NetworkState,
                    NodeId, PathTable, PiecePlan, Plan, PlannerView, PlanningError,
                    ScenarioConfig, Simulation, bottleneck_path, install_path,
                    lifetime_from_spend, path_bottleneck, protocol)
from fwdsim.engine import DATA, NodeCtx
from fwdsim.netmodel import PathReport, PathViolation

from conftest import make_net, status_net


def brute_force_epoch_bound(net, table, pieces, config_phase_energy_j) -> float:
    """Minimum lifetime over nodes with at least one activated outgoing link,
    by direct enumeration."""
    best = math.inf
    for u in net.nodes:
        active = [v for v in net.neighbors[u]
                  if net.links[(u, v)].active_pieces]
        if not active:
            continue
        spend = 0.0
        for v in sorted(active):
            rate = 0.0
            for piece in sorted(pieces, key=lambda p: p.id):
                row = table.row(piece.id, u)
                if (row is not None and row.next == v
                        and piece.id in net.links[(u, v)].active_pieces):
                    rate += piece.rate
            spend += net.links[(u, v)].eps_j * rate
        energy = net.nodes[u].energy_j
        if energy <= 0.0:
            life = 0.0
        elif energy <= config_phase_energy_j:
            life = 1.0
        elif spend == 0.0:
            life = math.inf
        else:
            life = energy / spend
        best = min(best, life)
    return best


def random_epoch_instance(rng: random.Random):
    """A random network with random simple chains installed, for the epoch
    bound oracle."""
    n = rng.randint(3, 20)
    nodes = list(range(n))
    edges = set()
    for u in nodes[1:]:                      # random connected backbone
        v = rng.choice(nodes[:u])
        edges.add((min(u, v), max(u, v)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(nodes, 2)
        edges.add((min(u, v), max(u, v)))
    directed = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            directed[(a, b)] = (rng.choice([25e-6, 50e-6, 100e-6]),
                                rng.uniform(5.0, 15.0))
    energies = {u: rng.choice([0.0, 0.002, 0.5, 2.0, 10.0]) for u in nodes}
    net = make_net(directed, energies)
    table = PathTable()
    pieces = []
    adjacency = net.neighbors
    for pid in range(rng.randint(1, 4)):
        start = rng.choice(nodes)
        chain = [start]
        while len(chain) < rng.randint(2, 6):
            options = [v for v in adjacency[chain[-1]] if v not in chain]
            if not options:
                break
            chain.append(rng.choice(options))
        if len(chain) < 2:
            continue
        piece = DataPiece(id=pid, source=chain[0], consumer=chain[-1],
                          rate=rng.randint(0, 8),
                          proxy=chain[len(chain) // 2])
        pieces.append(piece)
        install_path(net, table, piece, chain)
    return net, table, pieces


def enumerate_best_bottleneck(view, src, dst, budget, rate, round_trip=False):
    """Exhaustive simple-path search for the latency-bounded maximum
    bottleneck; returns (bottleneck, hops, path) or None."""
    best = None

    def edge_cost(u, v):
        lat = view.edges[(u, v)][1]
        if round_trip:
            lat += view.edges[(v, u)][1]
        return lat

    def dfs(node, latency, bottleneck, path):
        nonlocal best
        if node == dst:
            key = (-bottleneck, len(path) - 1, tuple(path))
            if best is None or key < best[0]:
                best = (key, bottleneck, path[:])
            return
        for v in sorted(w for (u, w) in view.edges if u == node):
            if v in path:
                continue
            nlat = latency + edge_cost(node, v)
            if budget is not None and nlat > budget:
                continue
            nbot = min(bottleneck, view.edge_lifetime(node, v, rate))
            path.append(v)
            dfs(v, nlat, nbot, path)
            path.pop()

    dfs(src, 0.0, math.inf, [src])
    if best is None:
        return None
    return best[1], len(best[2]) - 1, best[2]


def random_planner_graph(rng: random.Random, max_nodes: int = 8,
                         latencies: tuple[float, ...] | None = None,
                         one_way: float = 0.0):
    """Random small connected graph expressed as a PlannerView read from a
    ``status_net`` network, plus its node list. Latencies are uniform in
    [3, 20] ms, or drawn from ``latencies`` when given (coarse sets make
    ties common). With ``one_way``, each link loses one of its two
    directions with that probability."""
    n = rng.randint(3, max_nodes)
    nodes = list(range(n))
    edges = set()
    for u in nodes[1:]:
        v = rng.choice(nodes[:u])
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(nodes, 2)
        edges.add((min(u, v), max(u, v)))

    def latency():
        return rng.uniform(3.0, 20.0) if latencies is None else rng.choice(latencies)

    links = {}
    for u, v in edges:
        links[(u, v)] = (rng.choice([25e-6, 50e-6, 100e-6]), latency())
        links[(v, u)] = (rng.choice([25e-6, 50e-6, 100e-6]), latency())
    if one_way:
        for u, v in sorted(edges):
            if rng.random() < one_way:
                del links[rng.choice([(u, v), (v, u)])]
    energies = {u: rng.choice([0.05, 0.5, 2.0, 8.0]) for u in nodes}
    view = PlannerView.from_network(status_net(links, energies), 5e-3)
    for u in nodes:                      # pre-existing load on some nodes
        if rng.random() < 0.4:
            view.spend[u] = rng.uniform(0.0, 2e-4)
    return view, nodes


def enumerate_single_piece_plan(view, piece, proxies, budget):
    """Best (proxy, source path, consumer path) triple by full enumeration:
    max bottleneck, then fewest total hops, then smallest chain."""
    best = None
    for proxy in sorted(proxies):
        if proxy in (piece.source, piece.consumer):
            continue
        if proxy not in view.energy:
            continue
        s_paths = _all_simple_paths(view, piece.source, proxy)
        c_paths = _all_simple_paths(view, proxy, piece.consumer)
        for sp in s_paths:
            for cp in c_paths:
                if set(sp) & set(cp) != {proxy}:
                    continue
                rt = sum(view.edges[(u, v)][1] + view.edges[(v, u)][1]
                         for u, v in zip(cp, cp[1:]))
                if rt > budget:
                    continue
                chain = sp + cp[1:]
                bot = min(view.edge_lifetime(u, v, piece.rate)
                          for u, v in zip(chain, chain[1:]))
                key = (-bot, len(chain) - 1, tuple(chain), proxy)
                if best is None or key < best[0]:
                    best = (key, proxy, sp, cp, bot)
    return best


def _all_simple_paths(view, src, dst):
    out = []

    def dfs(node, path):
        if node == dst:
            out.append(path[:])
            return
        for v in sorted(w for (u, w) in view.edges if u == node):
            if v in path:
                continue
            path.append(v)
            dfs(v, path)
            path.pop()

    dfs(src, [src])
    return out


INFINITY = float("inf")


def _edge_weight(view: PlannerView, u: NodeId, v: NodeId, round_trip: bool) -> float:
    _, lat = view.edges[(u, v)]
    if not round_trip:
        return lat
    back = view.edges.get((v, u))
    if back is None:
        return INFINITY
    return lat + back[1]


def reference_bottleneck_path(
    view: PlannerView,
    src: NodeId,
    dst: NodeId,
    latency_budget_ms: float | None,
    rate: float,
    round_trip: bool = False,
    excluded: frozenset[NodeId] | set[NodeId] = frozenset(),
    hop_only: bool = False,
) -> list[NodeId] | None:
    """The label search as it stood before the planner's adjacency index:
    a verbatim copy, except that out-neighbors come from a full edge scan.

    Path from src to dst maximizing the minimum projected lifetime of its
    transmitting nodes, among paths whose total latency fits the budget.

    Label-correcting search keeping Pareto-optimal (latency, bottleneck, hops)
    labels per node; a budget of None disables the constraint and the budget
    comparison is inclusive. Ties resolve toward fewer hops, then the
    lexicographically smallest node sequence among surviving labels. Returns
    None when no feasible path exists. With ``hop_only`` the lifetime
    criterion is ignored and the search simply minimizes hops within the
    budget (used to generate low-blocking candidate segments).
    """
    if src == dst:
        raise PlanningError("source and target must differ")
    if src not in view.energy or dst not in view.energy:
        return None
    if src in excluded or dst in excluded:
        return None
    budget = INFINITY if latency_budget_ms is None else latency_budget_ms

    labels: dict[NodeId, list[tuple[float, float, int]]] = {src: [(0.0, INFINITY, 0)]}
    best_terminal: tuple[float, int, tuple[NodeId, ...]] | None = None  # (-bot, hops, path)
    heap: list[tuple[float, float, int, tuple[NodeId, ...]]] = [(-INFINITY, 0.0, 0, (src,))]

    while heap:
        neg_bot, lat, hops, path = heapq.heappop(heap)
        bot = -neg_bot
        if best_terminal is not None and bot < -best_terminal[0]:
            # Bottlenecks only shrink along a path and the heap pops them in
            # descending order, so no remaining label can beat the incumbent.
            break
        u = path[-1]
        if u == dst:
            cand = (neg_bot, hops, path)
            if best_terminal is None or cand < best_terminal:
                best_terminal = cand
            continue
        for v in sorted(w for (a, w) in view.edges if a == u):
            if v in excluded or v in path:
                continue
            nlat = lat + _edge_weight(view, u, v, round_trip)
            if nlat > budget:
                continue
            if hop_only:
                nbot = INFINITY
            else:
                nbot = min(bot, view.edge_lifetime(u, v, rate))
            bucket = labels.setdefault(v, [])
            if _dominated(bucket, nlat, nbot, hops + 1):
                continue
            _insert_label(bucket, nlat, nbot, hops + 1)
            heapq.heappush(heap, (-nbot, nlat, hops + 1, path + (v,)))

    if best_terminal is None:
        return None
    return list(best_terminal[2])


def _dominated(existing: list[tuple[float, float, int]],
               lat: float, bot: float, hops: int) -> bool:
    return any(elat <= lat and ebot >= bot and ehops <= hops
               for (elat, ebot, ehops) in existing)


def _insert_label(existing: list[tuple[float, float, int]],
                  lat: float, bot: float, hops: int) -> None:
    existing[:] = [(elat, ebot, ehops) for (elat, ebot, ehops) in existing
                   if not (lat <= elat and bot >= ebot and hops <= ehops)]
    existing.append((lat, bot, hops))


def reference_compute_plan(net, pieces, proxies, latency_budget_ms, params):
    """``compute_plan`` as it stood before branch and bound over proxies,
    verbatim: every alive proxy is tried with the unchanged label search.

    Pieces are planned greedily in descending rate order against the rates
    accumulated so far. Per piece, every alive proxy is tried; the consumer
    segment carries the round-trip latency budget, the source segment only
    needs to exist. Segments may share no node but the proxy. Unplannable
    pieces are reported in ``Plan.infeasible``; the caller counts their
    traffic as lost until a later plan covers them. The view is read afresh
    from ``net``.
    """
    if latency_budget_ms <= 0:
        raise PlanningError("latency budget must be positive")
    view = PlannerView.from_network(net, params)
    plan = Plan()
    alive_proxies = sorted(p for p in proxies if p in view.energy)

    for piece in sorted(pieces, key=lambda p: (-p.rate, p.id)):
        if piece.source not in view.energy:
            plan.infeasible[piece.id] = "source not alive"
            continue
        if piece.consumer not in view.energy:
            plan.infeasible[piece.id] = "consumer not alive"
            continue
        best = None   # (-bottleneck, hops, chain, proxy, s_seg, c_seg)
        for proxy in alive_proxies:
            if proxy in (piece.source, piece.consumer):
                continue
            for candidate in _reference_candidate_segments(view, piece, proxy,
                                                           latency_budget_ms):
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


def _reference_candidate_segments(view: PlannerView, piece, proxy: NodeId,
                                  budget_ms: float):
    """Candidate (source_segment, consumer_segment) pairs for one proxy.

    Tries each side first with the other fit around it, both in the
    lifetime-maximizing and the hop-minimizing (low-blocking) variants, so
    one side's choice cannot starve the other of every feasible route."""
    out = []
    firsts_c = []
    for hop_only in (False, True):
        c_seg = bottleneck_path(view, proxy, piece.consumer, budget_ms,
                                piece.rate, round_trip=True, hop_only=hop_only)
        if c_seg is not None and piece.source not in c_seg and c_seg not in firsts_c:
            firsts_c.append(c_seg)
    for c_seg in firsts_c:
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
        c_seg = bottleneck_path(view, proxy, piece.consumer, budget_ms,
                                piece.rate, round_trip=True,
                                excluded=frozenset(s_seg) - {proxy})
        if c_seg is not None:
            out.append((s_seg, c_seg))
    return out


class SteppedSimulation(Simulation):
    """The engine with every cycle stepped through ``_step()``: ``run()`` as
    it stood before quiet stretches, and ``_generate_and_forward`` as it
    stood before it shared one forwarding walk with them (checking, charging
    and learning hop by hop), both verbatim but for the ignored ``walk``."""

    def run(self, cycles=None):
        remaining = (self.cfg.horizon - self.cycle) if cycles is None else cycles
        nodes = self.net.nodes
        self._alive_count = sum(1 for st in nodes.values() if st.alive)
        self._drained = {u for u, st in nodes.items()
                         if st.alive and st.energy_j <= 0.0}
        self._dirty_links = {lk for lk, link in self.net.links.items()
                             if link.eps_j != link.eps_prev_j}
        self._busy = {u for u, state in self._states.items()
                      if state.has_pending_work()}
        for _ in range(max(0, remaining)):
            self._step()
        return self.metrics

    def _generate_and_forward(self, walk=None) -> None:
        gen = dlv = lost = 0
        for pid in self._piece_ids:
            piece = self.pieces_by_id[pid]
            src = self.net.nodes[piece.source]
            if not src.alive or piece.rate == 0:
                continue
            gen += piece.rate
            hops, complete = self._chain(piece)
            cause = None
            delivered = False
            blocked_at = piece.source
            for tx, link, rx, learn in hops:
                blocked_at = tx.node
                if not tx.alive:
                    cause = "node-dead"
                    break
                if pid not in link.active_pieces:
                    cause = "link-down"
                    break
                need = link.eps_j * piece.rate
                got = self._charge(tx, need, DATA)
                if got < need:
                    cause = "node-dead"
                    break
                if not rx.alive:
                    cause = "node-dead"
                    break
                if learn:
                    rx_row = self.table.row(pid, rx.node)
                    self.write_row(pid, rx.node, tx.node, rx_row.next,
                                   rx_row.order_key)
                blocked_at = rx.node
            else:
                if complete:
                    delivered = True
                else:
                    cause = "path-broken"
            status = self.piece_status[pid]
            if delivered:
                dlv += piece.rate
                status.stuck_cycles = 0
            else:
                if status.cause:
                    cause = status.cause
                lost += piece.rate
                self.metrics.loss_causes[cause] += piece.rate
                self._note_delivery_failure(piece, status, blocked_at)
        self._generated += gen
        self._delivered += dlv
        self._lost += lost
        if gen != dlv + lost:
            raise EngineError("piece conservation violated within a cycle")


class ScanEveryLinkCtx(NodeCtx):
    """A node context whose trigger scan covers every out-link, as it did
    before the scan was narrowed to the out-links whose cost changed this
    cycle."""

    __slots__ = ()

    def changed_out_neighbor_ids(self):
        return self.out_neighbor_ids()


class PolledSimulation(SteppedSimulation):
    """``SteppedSimulation`` with the protocol phase as it stood before the
    engine stepped only the nodes with protocol work: every alive node, in
    id order, every cycle, each scanning every out-link for a trigger. It
    checks the no-op contract of ``protocol.node_cycle``, on which the
    engine's wake set, its narrowed trigger scan and its quiet stretches
    rely."""

    def _ctx(self, node):
        return ScanEveryLinkCtx(self, node)

    def _protocol_phase(self, cyc) -> None:
        for u in self._node_ids:
            if self.net.nodes[u].alive:
                protocol.node_cycle(self._ctx(u), cyc)


def reference_walk_chain(table: PathTable, piece_id: int, start: NodeId,
                         limit: int | None = None) -> list[NodeId]:
    """``walk_chain`` with its own step cap, verbatim.

    Follow next pointers from ``start``; stops at a missing row, a None
    pointer, or a revisit (so it always terminates)."""
    seq = [start]
    seen = {start}
    node = start
    cap = limit if limit is not None else len(table.rows_for_piece(piece_id)) + 1
    while len(seq) <= cap:
        row = table.row(piece_id, node)
        if row is None or row.next is None:
            break
        node = row.next
        seq.append(node)
        if node in seen:
            break
        seen.add(node)
    return seq


def reference_chain(sim: Simulation, piece: DataPiece):
    """``Simulation._chain`` with its own walk, verbatim but uncached: the
    piece's hops as (tx, link, rx, learn) and whether the chain reaches the
    consumer."""
    rows = sim.table.rows_for_piece(piece.id)
    learn_prev = sim.cfg.strategy == "DistrDataFwd"
    prevs = {u: row.prev for u, row in rows.items()} if learn_prev else {}
    hops = []
    complete = False
    node = piece.source
    seen = {node}
    for _ in range(len(rows) + 1):
        row = rows.get(node)
        if row is None or row.next is None:
            complete = node == piece.consumer
            break
        nxt = row.next
        link = sim.net.links.get((node, nxt))
        if link is None:
            break
        learn = nxt in prevs and prevs[nxt] != node
        if learn:
            prevs[nxt] = node
        hops.append((sim.net.nodes[node], link, sim.net.nodes[nxt], learn))
        if nxt in seen:
            break
        seen.add(nxt)
        node = nxt
    return hops, complete


def reference_sample_access_latency(piece: DataPiece, table: PathTable,
                                    net: NetworkState):
    """``sample_access_latency`` with its own walk, verbatim: (latency_ms,
    None), or (None, miss cause) when the proxy-to-consumer segment cannot
    serve a request."""
    if piece.proxy is None:
        return None, "unplanned"
    if not net.nodes[piece.consumer].alive:
        return None, "consumer-dead"
    if not net.nodes[piece.proxy].alive:
        return None, "proxy-dead"
    total = 0.0
    node = piece.proxy
    seen = {node}
    limit = len(table.rows_for_piece(piece.id)) + 1
    for _ in range(limit):
        row = table.row(piece.id, node)
        if row is None or row.next is None:
            return None, "consumer-segment-broken"
        nxt = row.next
        fwd = net.links.get((node, nxt))
        rev = net.links.get((nxt, node))
        if fwd is None or rev is None or piece.id not in fwd.active_pieces:
            return None, "consumer-segment-broken"
        if not net.nodes[nxt].alive:
            return None, "consumer-segment-broken"
        total += fwd.latency_ms + rev.latency_ms
        if nxt == piece.consumer:
            return total, None
        if nxt in seen:
            return None, "consumer-segment-broken"
        seen.add(nxt)
        node = nxt
    return None, "consumer-segment-broken"


def reference_sample_requests(sim: Simulation, start: int,
                              stop: int) -> dict[int, float]:
    """``Simulation._sample_requests`` as it stood before it drew in bulk,
    verbatim but for ``sim`` and the module-qualified latency sampler: one
    ``random()`` per piece per cycle. Returns the worst latency served in
    each row cycle that served one."""
    draw, p_req = sim._rng_requests.random, sim.cfg.request_prob
    piece_ids, stride, last = sim._piece_ids, sim._stride, sim.cfg.horizon - 1
    hits = {}   # piece id -> [requests, latency, miss]
    served = {}   # row cycle -> the worst latency served in it
    for cyc in range(start, stop):
        for pid in piece_ids:
            if draw() < p_req:
                hit = hits.get(pid)
                if hit is None:
                    hit = hits[pid] = [0, *engine.sample_access_latency(
                        sim.pieces_by_id[pid], sim.table, sim.net)]
                hit[0] += 1
                latency = hit[1]
                if (latency is not None and (cyc % stride == 0 or cyc == last)
                        and latency > served.get(cyc, 0.0)):
                    served[cyc] = latency
    if hits:
        m = sim.metrics
        for count, latency, miss in hits.values():
            m.requests_total += count
            if miss is not None:
                m.request_misses += count
                m.miss_causes[miss] += count
                continue
            m.max_access_latency_ms = max(m.max_access_latency_ms, latency)
            if latency > sim.cfg.latency_budget_ms:
                m.latency_violations += count
            else:
                m.requests_ok += count
    return served


def reference_validate_paths(net: NetworkState, table: PathTable,
                             pieces: list[DataPiece]) -> PathReport:
    """``validate_paths`` with its own walk, verbatim: simplicity, pointer
    symmetry, endpoint order and link activation of every piece's chain."""
    violations: list[PathViolation] = []
    for piece in sorted(pieces, key=lambda p: p.id):
        seq: list[NodeId] = [piece.source]
        seen = {piece.source}
        node = piece.source
        cap = len(table.rows_for_piece(piece.id)) + 1
        looped = False
        for _ in range(cap):
            row = table.row(piece.id, node)
            if row is None or row.next is None:
                break
            nxt = row.next
            if (node, nxt) not in net.links:
                violations.append(PathViolation(piece.id, "missing-link",
                                                f"no link {node}->{nxt}"))
                break
            if piece.id not in net.links[(node, nxt)].active_pieces:
                violations.append(PathViolation(piece.id, "inactive-link",
                                                f"link {node}->{nxt} not active"))
            back = table.row(piece.id, nxt)
            if back is None or back.prev != node:
                violations.append(PathViolation(
                    piece.id, "pointer-asymmetry",
                    f"next({node})={nxt} but previous({nxt})="
                    f"{back.prev if back else None}"))
            if nxt in seen:
                violations.append(PathViolation(piece.id, "loop",
                                                f"node {nxt} visited twice"))
                looped = True
                break
            seen.add(nxt)
            seq.append(nxt)
            node = nxt
        if looped:
            continue
        if piece.proxy is None:
            continue
        if seq[-1] != piece.consumer:
            violations.append(PathViolation(piece.id, "endpoint",
                                            f"chain ends at {seq[-1]}, not consumer"))
        elif piece.proxy not in seq:
            violations.append(PathViolation(piece.id, "endpoint",
                                            f"proxy {piece.proxy} not on chain"))
    return PathReport(violations)


def reference_projected_lifetime(sim: Simulation, node: NodeId,
                                 next_node: NodeId, rate: float) -> float:
    """``Simulation.projected_lifetime``, verbatim: lifetime of ``node`` if it
    also forwarded ``rate`` pieces per cycle over (node, next_node), on top of
    its current activated load, summed one piece at a time."""
    state = sim.net.nodes[node]
    spend = 0.0
    for v in sim.net.neighbors[node]:
        link = sim.net.links[(node, v)]
        if not link.active_pieces:
            continue
        for pid in sorted(link.active_pieces):
            spend += link.eps_j * sim.pieces_by_id[pid].rate
    extra_link = sim.net.links.get((node, next_node))
    if extra_link is None:
        return 0.0
    spend += extra_link.eps_j * rate
    return lifetime_from_spend(state.energy_j, spend, sim.cfg.config_phase_energy_j)


def reference_aggregate_rates(net: NetworkState, table: PathTable,
                              pieces: list[DataPiece]) -> dict[NodeId, dict[NodeId, float]]:
    """``aggregate_rates``, verbatim: per-node, per-neighbor aggregate data
    rate over activated links, read from the pointer rows."""
    rates: dict[NodeId, dict[NodeId, float]] = {}
    for piece in sorted(pieces, key=lambda p: p.id):
        for node, row in sorted(table.rows_for_piece(piece.id).items()):
            v = row.next
            if v is None:
                continue
            link = net.links.get((node, v))
            if link is None or piece.id not in link.active_pieces:
                continue
            rates.setdefault(node, {}).setdefault(v, 0.0)
            rates[node][v] += piece.rate
    return rates


def _node_lifetime(energy_j: float, rates: dict[NodeId, float],
                   eps_per_link: dict[NodeId, float], params) -> float:
    """``lifetime.node_lifetime`` as it stood before it was removed,
    verbatim: the lifetime of one node from its per-neighbor aggregate rates
    and link costs."""
    if set(rates) != set(eps_per_link):
        raise ValueError("rates and eps_per_link must cover the same link set")
    spend = 0.0
    for v in sorted(rates):
        spend += eps_per_link[v] * rates[v]
    return lifetime_from_spend(energy_j, spend, params)


def reference_max_epoch_duration(net: NetworkState, table: PathTable,
                                 pieces: list[DataPiece], params) -> float:
    """``max_epoch_duration`` over ``aggregate_rates``, verbatim."""
    rates = reference_aggregate_rates(net, table, pieces)
    best = INFINITE_LIFETIME
    for u in sorted(net.nodes):
        active = {v for v in net.neighbors[u]
                  if net.links[(u, v)].active_pieces}
        if not active:
            continue
        per_link = {v: rates.get(u, {}).get(v, 0.0) for v in sorted(active)}
        eps = {v: net.links[(u, v)].eps_j for v in sorted(active)}
        life = _node_lifetime(net.nodes[u].energy_j, per_link, eps, params)
        if life < best:
            best = life
    return best


@dataclass
class EdgeIndexedNetwork(NetworkState):
    """``NetworkState`` with its per-piece index of activated links, as it
    stood before the piece clear walked the piece's own rows: activation and
    deactivation keep the index, and ``deactivate_piece`` clears by it."""

    piece_edges: dict[int, set[tuple[NodeId, NodeId]]] = field(default_factory=dict)

    @classmethod
    def of(cls, net: NetworkState) -> "EdgeIndexedNetwork":
        return cls(**{f.name: getattr(net, f.name) for f in fields(NetworkState)})

    def activate(self, piece_id: int, u: NodeId, v: NodeId) -> None:
        link = self.links.get((u, v))
        if link is None:
            return
        link.active_pieces.add(piece_id)
        self.piece_edges.setdefault(piece_id, set()).add((u, v))

    def deactivate(self, piece_id: int, u: NodeId, v: NodeId) -> None:
        link = self.links.get((u, v))
        if link is not None:
            link.active_pieces.discard(piece_id)
        edges = self.piece_edges.get(piece_id)
        if edges is not None:
            edges.discard((u, v))

    def deactivate_piece(self, piece_id: int) -> None:
        for (u, v) in sorted(self.piece_edges.get(piece_id, ())):
            self.links[(u, v)].active_pieces.discard(piece_id)
        self.piece_edges[piece_id] = set()


def reference_clear_piece_paths(net: EdgeIndexedNetwork, table: PathTable,
                                piece_id: int) -> None:
    """``clear_piece_paths`` by the per-piece link index, verbatim."""
    net.deactivate_piece(piece_id)
    table.clear_piece(piece_id)


def reference_render_scenario(cfg: ScenarioConfig) -> str:
    """``render_scenario``'s hand-written template, verbatim."""
    deaths = ", ".join(f"{c}:{n}" for c, n in cfg.forced_deaths)
    return f"""[topology]
rows = {cfg.rows}
cols = {cfg.cols}
spacing_m = {cfg.spacing_m!r}
range_m = {cfg.range_m!r}
proxies = {", ".join(map(str, cfg.proxies))}

[links]
latency_ms_min = {cfg.latency_ms_min!r}
latency_ms_max = {cfg.latency_ms_max!r}
tx_energy_j = {cfg.tx_energy_j!r}
controller_energy_j = {cfg.controller_energy_j!r}
config_phase_energy_j = {cfg.config_phase_energy_j!r}

[energy]
node_wh_min = {cfg.node_energy_wh_min!r}
node_wh_max = {cfg.node_energy_wh_max!r}
proxy_wh = {cfg.proxy_energy_wh!r}
scale = {cfg.energy_scale!r}

[data]
consumer_fraction = {cfg.consumer_fraction!r}
rate_min = {cfg.rate_min}
rate_max = {cfg.rate_max}
request_prob = {cfg.request_prob!r}

[protocol]
latency_budget_ms = {cfg.latency_budget_ms!r}
trigger_threshold = {cfg.trigger_threshold!r}
route_ttl = {cfg.route_ttl}

[interference]
prob = {cfg.interference.prob_per_cycle!r}
multiplier = {cfg.interference.multiplier!r}
affected_links = {cfg.interference.affected_links}
duration_cycles = {cfg.interference.duration_cycles}

[run]
horizon = {cfg.horizon}
strategy = {cfg.strategy}
seed = {cfg.seed}
trace = {str(cfg.trace).lower()}
metrics_stride = {cfg.metrics_stride}

[events]
forced_deaths = {deaths}
"""


def reference_csv_text(m) -> str:
    """``Metrics.csv_text`` as it stood when the metrics kept nine lists:
    one f-string per row, indexing the nine series (``Metrics.series()``)."""
    s = m.series()
    out = [m.CSV_HEADER]
    for k in range(len(s["cycles"])):
        out.append(
            f"{s['cycles'][k]},{s['energy_data_j'][k]:.10g},"
            f"{s['energy_cfg_j'][k]:.10g},{s['generated'][k]},"
            f"{s['delivered'][k]},{s['lost'][k]},"
            f"{s['max_latency_ms'][k]:.10g},{s['reconfigurations'][k]},"
            f"{s['alive_nodes'][k]}"
        )
    return "\n".join(out) + "\n"
