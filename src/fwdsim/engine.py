"""Deterministic cycle-driven simulation.

Per cycle, in fixed order:

1. message delivery (messages sent last cycle reach alive receivers);
2. link-cost reverts of interference that has run its course;
3. interference injection;
4. forced deaths;
5. data generation and forwarding (a generated piece crosses its whole chain
   within the generating cycle);
6. per-node protocol steps (local-repair strategy only), in node-id order,
   for the nodes with protocol work only (see ``Simulation._protocol_phase``);
7. consumer request sampling;
8. the PDD-CR hook: after a trigger or a death, one controller round
   (``Simulation._controller_round``), the same exchange as at start-up;
9. the death sweep over the nodes whose energy reached zero;
10. metrics;
11. link-cost baselines settle: every link whose cost changed this cycle
    takes its new cost as its previous one.

Identical configurations, including the seed, produce bit-identical metrics.

Quiet stretches (next-event time advance). Most cycles repeat the previous
one exactly: the same charges on the same nodes, the same delivered and lost
pieces. ``run()`` steps every cycle that has an event through ``_step()`` and
advances the cycles between events in one loop (``Simulation._run_quiet``)
over the (node, amount) charges of one forwarding walk of the current state
(``Simulation._walk``), the walk ``_step()`` charges from too. A stretch
starts only when no message is in flight, no link changed, no node is
drained or busy with a repair, no PDD-CR replan is pending, and, under
DistrDataFwd, every piece that fails to deliver is already broken (no
transmission feedback is running) and the cycle's data-plane learning
writes, if any, would leave every row and activation as they are. Writes
apply in hop order, so a receiver's row ends with the sender of its last
learning hop as its previous pointer; a write keeps the row's next pointer
and order key and activates its next link. A looped broken chain such as
a -> b -> c -> b writes b's previous pointer and writes it back every
cycle, and runs quiet. Only the table's version numbers would move, and no
output reads them; the ``_step()`` that ends the stretch does the writes.

A stretch ends at the next forced death, at the end of the ``run()`` call,
and one cycle of spend before any charged node could run out (each node's
own guard, ``charging.Account.guard``). An interference hit or a revert
changes only what some hops cost, and the walk reads no link cost, so the
stretch applies it itself, through the same ``_revert_interference`` and
``_inject_interference`` as ``_step()``. It recomputes the amounts of the
hops over the changed links and the guards of the nodes that pay them, and
it settles the changed links' previous cost at the end of the cycle. It
ends there only when a changed link fires the trigger
(``lifetime.link_fires``), which under PDD-CR calls for a replan and under
DistrDataFwd makes the link's tail repair, or when the new spend brings a
node within a cycle of its clamp. PDD never reacts to the trigger, so its
stretch runs on through every hit. The cycle a stretch ends at has had its
reverts and hit applied, and its ``_step()`` is told so and goes on from
the forced deaths.

The walk is made afresh at every ``run()`` entry and after every
``_step()``, so state edited between calls takes effect; the ``_step()``
that ends a stretch forwards from the stretch's walk, so an event cycle is
walked once. Both random streams are consumed in the same order as by
stepping every cycle: one interference draw per cycle, and one request
draw per piece per cycle, in piece id order.

A stretch goes from event to event. It draws the interference stream in
one loop up to the next hit or revert, and applies that event as above.
Only an event that re-prices a hop charges anything: it first brings the
data total, and the accounts of the nodes that pay the re-priced hops, up
to date at the old prices. The cycles between events cost nothing of their
own, since the data total and every node's account are charged lazily, up
to the events that re-price them and to the stretch's end. An energy audit
writes a node's per-cycle entries as its account is brought up to date:
the same entries, in the same per-node order, as stepping every cycle.

A stretch charges in closed form, and its outputs are still bit-identical
to stepping every cycle. The premise is IEEE-754 addition rounding to
nearest, ties to even. Inside one binade [2**e, 2**(e+1)) every float is a
multiple of the binade's ulp u, so adding an amount a >= 0 to an account
there adds exactly R(a), a rounded to the nearest multiple of u, as long as
the sum stays in the binade and a is not an exact tie (an odd multiple of
u/2, which rounds by the parity of the sum). One cycle's in-order additions
then add exactly D, the sum of the R(a), and k cycles add k * D, so an
account crosses its binade in one step (``charging.advance``). The cycle
that leaves the binade is added amount by amount, and so is every cycle
where the rule does not apply: a tie, or an account that is zero or
subnormal. The data total is charged the same way, and it is read by every
metrics row: inside its binade its value after each cycle is exact, its
value before the jump plus a whole number of steps, so the totals of the
row cycles are built in bulk, exact progressions along the stride grid,
however long the stretch. A node's ``spent_j`` is read by no quiet cycle.

Every cycle ends the same way, written once for a range of cycles
[start, stop): ``Simulation._sample_requests`` draws the range's consumer
requests and tallies them, and ``Simulation._close`` adds the range's
counts to the totals, checks piece conservation and adds the rows of its
row cycles (``Simulation._row_ranges``: every stride-th cycle, and the
horizon's last) to the metrics, one block per progression of them. A row's
counter totals form progressions along the stride grid too, so a block
keeps the first and the step of each, the data totals and served latencies
it is handed, and its constant columns once (``Metrics``); nothing is built
per row. A step calls each with its one cycle; a stretch calls each once,
after its event loop, for every cycle it ran, and calls nothing per quiet
cycle. The request stream is
drawn apart from the interference stream, so drawing a stretch's requests
after its hits draws the same values, and a stretch changes nothing that
``sample_access_latency`` reads, so each piece's access latency is sampled
once per range. Every quiet cycle adds the same generated, delivered and
lost counts, so one check covers a stretch: when each cycle's counts
balance and the totals balanced before it, every cycle's totals do.

A range's requests are drawn in bulk from the generator's words, and decide
the same requests as one ``random()`` per draw. The premise is CPython's
Mersenne Twister: ``random()`` takes two 32-bit outputs a and b, in order,
and returns v * 2**-53 with v = (a >> 5) * 2**26 + (b >> 6), so
``random() < p`` is v < ceil(p * 2**53) on integers; and
``getrandbits(64 * k)`` returns the same 2k outputs in the same order, the
first in the least significant bits, leaving the generator where k
``random()`` calls would. A draw's top byte, a >> 24, is v >> 45, so it
decides the draw unless it is the one byte whose 2**45 values straddle the
threshold; those draws, one in 256 or none, are settled on v itself. The
words are drawn in blocks of whole cycles, at most ``REQUEST_CHUNK`` draws
each (one cycle, when a cycle has more), and every block is reduced to
counts and row latencies before the next is drawn. A range's sampling then
holds one block's words twice, as an integer and as bytes (64 KiB, unless
one cycle alone has more draws), plus its rows, however many cycles it
spans.
``tests/test_request_draws.py`` checks the premise on each interpreter.

Three strategies share the same initial centrally computed plan:

* ``PDD``           static plan, never reconfigured;
* ``PDD-CR``        a controller round on every trigger event, every alive
                    node paying one controller exchange;
* ``DistrDataFwd``  per-node local repair (splice or TTL-bounded route
                    discovery) with no controller involvement after start-up.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter

from . import netmodel, planner, protocol
from .charging import DATA, Account, advance
from .lifetime import (lifetime_from_spend, link_fires, max_epoch_duration,
                       node_spend)
from .netmodel import DataPiece, NetworkState, NodeId, PathRow, PathTable
from .scenario import ScenarioConfig, run_rule_errors, sample_pieces

CFG = "cfg"
# Consumer-request draws per generator block: 8 bytes each, so a block
# and its bytes hold 64 KiB at most (``Simulation._sample_requests``).
REQUEST_CHUNK = 4096


class EngineError(RuntimeError):
    pass


@dataclass
class PieceStatus:
    broken: bool = False
    cause: str | None = None
    stuck_cycles: int = 0   # consecutive delivery failures with no repair underway


@dataclass
class Metrics:
    """Per-cycle rows plus run totals. Counter columns are cumulative;
    max_latency_ms is the worst access latency sampled in that cycle.

    The rows are kept as blocks, one per progression of row cycles that the
    engine closes (``Simulation._close``), each added by ``add_rows``. A
    block is a plain tuple: the row cycles (a ``range``); the data energy
    total of each row (a list); the configuration energy total; first and
    step of the generated, delivered and lost totals along the rows; the
    worst latencies served in the first rows (a list; the rows after them
    read 0.0); the reconfiguration count; and the alive node count. Only
    the data totals and the served latencies grow with the rows.
    ``series()`` expands the blocks into the nine per-cycle series."""

    strategy: str = ""
    seed: int = 0
    blocks: list[tuple] = field(default_factory=list)

    loss_causes: Counter = field(default_factory=Counter)
    requests_total: int = 0
    requests_ok: int = 0
    latency_violations: int = 0
    request_misses: int = 0
    miss_causes: Counter = field(default_factory=Counter)
    max_access_latency_ms: float = 0.0
    death_times: dict[int, int] = field(default_factory=dict)
    epoch_boundaries: list[int] = field(default_factory=list)
    initial_epoch_bound: float = 0.0
    in_transit: int = 0   # forwarding completes within the cycle by design

    CSV_HEADER = ("cycle,energy_data_J,energy_cfg_J,generated,delivered,"
                  "lost,max_latency_ms,reconfigs,alive_nodes")
    # The per-cycle series in CSV column order.
    SERIES = ("cycles", "energy_data_j", "energy_cfg_j", "generated",
              "delivered", "lost", "max_latency_ms", "reconfigurations",
              "alive_nodes")

    def add_rows(self, cycles: range, data: list[float], cfg_j: float,
                 generated: tuple[int, int], delivered: tuple[int, int],
                 lost: tuple[int, int], served: list[float], reconfigs: int,
                 alive: int) -> None:
        """Add the rows of ``cycles``, a non-empty progression, as one
        block. ``data`` holds each row's data energy total and ``served``
        the worst latencies of the first rows; both are kept as they are.
        Each counter is given as (first, step): its total in the first row
        and what each row adds."""
        self.blocks.append((cycles, data, cfg_j, *generated, *delivered,
                            *lost, served, reconfigs, alive))

    def series(self) -> dict[str, list]:
        """The nine per-cycle series by name, in CSV column order, expanded
        from the blocks. Each call builds them afresh: call it once."""
        out = {name: [] for name in self.SERIES}
        columns = out.values()
        for (cycles, data, cfg_j, gen, gen_step, dlv, dlv_step, lost,
             lost_step, served, reconfigs, alive) in self.blocks:
            n = len(cycles)
            for column, values in zip(columns, (
                    cycles, data, repeat(cfg_j, n),
                    (gen + gen_step * i for i in range(n)),
                    (dlv + dlv_step * i for i in range(n)),
                    (lost + lost_step * i for i in range(n)),
                    chain(served, repeat(0.0, n - len(served))),
                    repeat(reconfigs, n), repeat(alive, n))):
                column.extend(values)
        return out

    def totals(self) -> dict[str, float]:
        if not self.blocks:
            return {"energy_data_j": 0.0, "energy_cfg_j": 0.0, "generated": 0,
                    "delivered": 0, "lost": 0, "reconfigurations": 0}
        (cycles, data, cfg_j, gen, gen_step, dlv, dlv_step, lost, lost_step,
         _, reconfigs, _) = self.blocks[-1]
        last = len(cycles) - 1
        return {
            "energy_data_j": data[-1],
            "energy_cfg_j": cfg_j,
            "generated": gen + gen_step * last,
            "delivered": dlv + dlv_step * last,
            "lost": lost + lost_step * last,
            "reconfigurations": reconfigs,
        }

    def csv_text(self) -> str:
        return self.CSV_HEADER + "\n" + "".join(map(self._block_text,
                                                     self.blocks))

    @staticmethod
    def _block_text(block: tuple) -> str:
        """One block's CSV rows. Its constant columns, a counter whose step
        is 0 included, are formatted once into the block's row format, and
        the format is mapped over the other columns (``%.10g`` gives the
        same text as ``format(x, ".10g")``, ``%s`` as ``{x}``)."""
        (cycles, data, cfg_j, gen, gen_step, dlv, dlv_step, lost, lost_step,
         served, reconfigs, alive) = block
        n = len(cycles)
        columns = [cycles, data]
        row = "%%s,%%.10g,%.10g" % cfg_j
        for first, step in ((gen, gen_step), (dlv, dlv_step),
                            (lost, lost_step)):
            if step:
                row += ",%s"
                columns.append(range(first, first + step * n, step))
            else:
                row += ",%s" % first
        row += ",%%.10g,%s,%s\n" % (reconfigs, alive)
        columns.append(chain(served, repeat(0.0, n - len(served))))
        return "".join(map(row.__mod__, zip(*columns)))

    def summary_text(self) -> str:
        t = self.totals()
        lines = [
            f"strategy: {self.strategy}",
            f"seed: {self.seed}",
            f"cycles: {sum(len(block[0]) for block in self.blocks)}",
            f"energy_data_J: {t['energy_data_j']:.10g}",
            f"energy_cfg_J: {t['energy_cfg_j']:.10g}",
            f"energy_total_J: {t['energy_data_j'] + t['energy_cfg_j']:.10g}",
            f"generated: {t['generated']}",
            f"delivered: {t['delivered']}",
            f"lost: {t['lost']}",
            f"in_transit: {self.in_transit}",
        ]
        for cause in sorted(self.loss_causes):
            lines.append(f"loss[{cause}]: {self.loss_causes[cause]}")
        lines += [
            f"requests: {self.requests_total}",
            f"requests_ok: {self.requests_ok}",
            f"latency_violations: {self.latency_violations}",
            f"request_misses: {self.request_misses}",
        ]
        for cause in sorted(self.miss_causes):
            lines.append(f"miss[{cause}]: {self.miss_causes[cause]}")
        lines += [
            f"max_access_latency_ms: {self.max_access_latency_ms:.10g}",
            f"reconfigurations: {t['reconfigurations']}",
            f"initial_epoch_bound_cycles: {self.initial_epoch_bound:.10g}",
            "epoch_boundaries: " + ",".join(map(str, self.epoch_boundaries)),
            "deaths: " + ",".join(f"{n}:{c}" for n, c in sorted(self.death_times.items())),
            f"alive_at_end: {self.blocks[-1][-1] if self.blocks else 0}",
        ]
        return "\n".join(lines) + "\n"


class NodeCtx:
    """Node-local view handed to the protocol handlers.

    Exposes only what a real node could know: its own rows, links and energy,
    beacon-carried neighbor information (adjacency, link metrics, projected
    lifetime, liveness within two hops), and its inbox/outbox.

    A context is a view built for one protocol step (``Simulation._ctx``)
    and owns nothing: the node's protocol state and mail belong to the
    simulation, so a run is copied, pickled and freed like any object.
    """

    __slots__ = ("_sim", "node", "state")

    def __init__(self, sim: "Simulation", node: NodeId):
        self._sim = sim
        self.node = node
        self.state: protocol.ProtocolState = sim._states[node]

    # --- identity / timing -------------------------------------------------
    def cycle(self) -> int:
        return self._sim.cycle

    @property
    def trigger_threshold(self) -> float:
        return self._sim.cfg.trigger_threshold

    @property
    def route_ttl(self) -> int:
        return self._sim.cfg.route_ttl

    # --- own state ----------------------------------------------------------
    def alive(self) -> bool:
        return self._sim.net.nodes[self.node].alive

    def energy_j(self) -> float:
        return self._sim.net.nodes[self.node].energy_j

    def out_neighbor_ids(self) -> tuple[NodeId, ...]:
        return self._sim.net.neighbors[self.node]

    def out_link(self, v: NodeId) -> netmodel.LinkState:
        return self._sim.net.links[(self.node, v)]

    def changed_out_neighbor_ids(self) -> list[NodeId]:
        """The out-neighbors whose link's cost changed this cycle, in
        neighbor order: the only out-links that can fire the trigger."""
        dirty = self._sim._dirty_links
        if not dirty:
            return []
        return sorted(v for u, v in dirty if u == self.node)

    def link_latency(self, v: NodeId) -> float:
        link = self._sim.net.links.get((self.node, v))
        return link.latency_ms if link else float("inf")

    # --- neighborhood knowledge ----------------------------------------------
    def alive_neighbor_ids(self) -> list[NodeId]:
        return self._sim.net.alive_neighbors(self.node)

    def neighbor_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return self._sim.net.neighbors[v]

    def two_hop_latency(self, via: NodeId, to: NodeId) -> float:
        link = self._sim.net.links.get((via, to))
        return link.latency_ms if link else float("inf")

    def node_alive(self, x: NodeId) -> bool:
        return self._sim.net.nodes[x].alive

    def load_of(self, node: NodeId) -> float:
        """Per-cycle spend of ``node``'s current activated load."""
        return node_spend(self._sim.net, node, self._sim.pieces_by_id)

    def projected_lifetime_of(self, node: NodeId, next_node: NodeId,
                              rate: float, load: float) -> float:
        """Lifetime of ``node`` at its current energy if it also forwarded
        ``rate`` pieces per cycle over (node, next_node), on top of its
        activated ``load`` (``load_of(node)``). Sends change a node's energy
        but not its load, so a fan-out takes the load once and this per
        copy."""
        sim = self._sim
        extra_link = sim.net.links.get((node, next_node))
        if extra_link is None:
            return 0.0
        spend = load + extra_link.eps_j * rate
        return lifetime_from_spend(sim.net.nodes[node].energy_j, spend,
                                   sim.cfg.config_phase_energy_j)

    # --- pointer rows ---------------------------------------------------------
    def row(self, piece: int) -> PathRow | None:
        return self._sim.table.row(piece, self.node)

    def pieces_here(self) -> list[int]:
        return self._sim.table.pieces_at(self.node)

    def set_row(self, piece: int, prev: NodeId | None, next: NodeId | None,
                order_key: float) -> None:
        self._sim.write_row(piece, self.node, prev, next, order_key)

    def set_prev(self, piece: int, w: NodeId) -> None:
        row = self.row(piece)
        if row is None:
            self.diagnostic(f"previous-pointer write without a row, piece {piece}")
            return
        self._sim.write_row(piece, self.node, w, row.next, row.order_key)

    def set_next(self, piece: int, v: NodeId | None) -> None:
        row = self.row(piece)
        if row is None:
            self.diagnostic(f"next-pointer write without a row, piece {piece}")
            return
        self._sim.write_row(piece, self.node, row.prev, v, row.order_key)

    def clear_row(self, piece: int) -> None:
        self._sim.clear_row(piece, self.node)

    # --- edge activation -------------------------------------------------------
    def deactivate_edge(self, piece: int, v: NodeId) -> None:
        self._sim.net.deactivate(piece, self.node, v)

    def deactivate_edge_all_pieces(self, v: NodeId) -> None:
        link = self._sim.net.links.get((self.node, v))
        if link is not None:
            link.active_pieces.clear()

    def deactivate_all_edges(self) -> None:
        for v in self.out_neighbor_ids():
            self.deactivate_edge_all_pieces(v)
            back = self._sim.net.links.get((v, self.node))
            if back is not None:
                back.active_pieces.clear()

    # --- pieces -------------------------------------------------------------------
    def piece_known(self, piece: int) -> bool:
        return piece in self._sim.pieces_by_id

    def piece_rate(self, piece: int) -> float:
        return self._sim.pieces_by_id[piece].rate

    def piece_proxy(self, piece: int) -> NodeId | None:
        return self._sim.pieces_by_id[piece].proxy

    def is_source(self, piece: int) -> bool:
        return self._sim.pieces_by_id[piece].source == self.node

    # --- effects ----------------------------------------------------------------
    def send(self, dst: NodeId, msg) -> None:
        self._sim.send_message(self.node, dst, msg)

    def take_inbox(self) -> list[tuple[NodeId, object]]:
        return self._sim._inboxes.pop(self.node, [])

    def report_broken(self, piece: int, cause: str) -> None:
        self._sim.mark_broken(piece, cause)

    def repair_started(self) -> None:
        self._sim.note_reconfiguration()

    def diagnostic(self, text: str) -> None:
        self._sim.diagnostics.append(f"{self._sim.cycle}: node {self.node}: {text}")

    def set_dead(self) -> None:
        self._sim.mark_dead(self.node)


class Simulation:
    """One scenario run. ``run()`` advances the remaining horizon (or a given
    number of cycles) and returns the metrics collected so far."""

    def __init__(self, cfg: ScenarioConfig, *, net: NetworkState | None = None,
                 table: PathTable | None = None,
                 pieces: list[DataPiece] | None = None):
        for key, message in run_rule_errors(cfg):
            raise ValueError(f"{key}: {message}")
        self.cfg = cfg
        self.cycle = 0
        self.diagnostics: list[str] = []
        self.trace_lines: list[str] = []
        self.energy_log: dict[NodeId, list[tuple[int, str, float]]] = {}

        prebuilt = net is not None
        if prebuilt:
            self.net = net
            self.table = table if table is not None else PathTable()
            self.pieces = pieces if pieces is not None else []
        else:
            self.net = cfg.network()
            self.table = PathTable()
            self.pieces = sample_pieces(cfg, self.net)
        self.pieces_by_id = {p.id: p for p in self.pieces}
        self.piece_status = {p.id: PieceStatus() for p in self.pieces}
        self._node_ids = sorted(self.net.nodes)
        self._piece_ids = sorted(self.pieces_by_id)

        self.metrics = Metrics(strategy=cfg.strategy, seed=cfg.seed)

        self._rng_interference = random.Random(f"{cfg.seed}:interference")
        self._rng_requests = random.Random(f"{cfg.seed}:requests")
        # The request test on raw generator words (``_sample_requests``),
        # and the cycles per block of at most REQUEST_CHUNK draws.
        self._request_draws = (*request_classes(cfg.request_prob),
                               max(1, REQUEST_CHUNK // max(1, len(self.pieces))))
        self._link_ids = sorted(self.net.links)
        # Links whose cost changed this cycle; only these can have
        # eps_prev_j != eps_j, and they settle at the end of the cycle.
        self._dirty_links: set[tuple[NodeId, NodeId]] = set()
        self._reverts: dict[int, list[tuple[NodeId, NodeId]]] = {}
        self._forced: dict[int, list[NodeId]] = {}
        for cyc, node in cfg.forced_deaths:
            self._forced.setdefault(cyc, []).append(node)

        self._states = {u: protocol.ProtocolState() for u in self._node_ids}
        # Mail by receiver, as (sender, message) in send order: sent this
        # cycle, and delivered this cycle (``_deliver_messages``).
        self._outboxes: dict[NodeId, list[tuple[NodeId, object]]] = {}
        self._inboxes: dict[NodeId, list[tuple[NodeId, object]]] = {}
        # Alive nodes whose energy reached zero, awaiting the death sweep.
        self._drained: set[NodeId] = set()
        # Nodes holding a collector, pending route or pending splice.
        self._busy: set[NodeId] = set()
        self._alive_count = sum(1 for st in self.net.nodes.values() if st.alive)
        self._chains: dict[int, tuple[int, list, bool]] = {}
        self._stride = cfg.effective_metrics_stride()

        self._data_energy = 0.0
        self._cfg_energy = 0.0
        self._generated = 0
        self._delivered = 0
        self._lost = 0
        self._reconfigs = 0
        # A PDD-CR round is due: a trigger fired or a node died, in a round too.
        self._replan_due = False
        # The last plan's topology, for the next controller round to reuse.
        self._topology: planner.Topology | None = None

        if not prebuilt:
            self._controller_round()
        self.metrics.initial_epoch_bound = max_epoch_duration(
            self.net, self.pieces, cfg.config_phase_energy_j)

    def _ctx(self, node: NodeId) -> NodeCtx:
        """The view of ``node`` that its protocol step is handed."""
        return NodeCtx(self, node)

    # ------------------------------------------------------------- controller

    def _controller_round(self) -> None:
        """One controller round, at start-up and at every PDD-CR replan:
        every alive node with energy left pays one exchange
        (``controller_energy_j``) for its status upload, every alive node now
        empty dies, and the plan computed over the survivors is installed.
        The planner reads the uploads' energies and costs from the network,
        and reuses the previous round's topology when the alive nodes and
        link latencies are the same. The trace shows each upload and each
        plan download, with -1 standing for the controller."""
        cost = self.cfg.controller_energy_j
        for u in self._node_ids:
            node = self.net.nodes[u]
            if node.alive and node.energy_j > 0.0:
                self._charge(node, cost, CFG)
                if self.cfg.trace:
                    self._trace(u, -1, protocol.StatusMsg(u, node.energy_j))
        for u in self._node_ids:
            node = self.net.nodes[u]
            if node.alive and node.energy_j <= 0.0:
                self.mark_dead(u)
        plan = planner.compute_plan(self.net, self.pieces, self.net.proxies,
                                    self.cfg.latency_budget_ms,
                                    self.cfg.config_phase_energy_j,
                                    self._topology)
        self._topology = plan.topology
        self._install_plan(plan)
        if self.cfg.trace:
            for u in self._node_ids:
                if self.net.nodes[u].alive:
                    self._trace(-1, u, protocol.PlanMsg(len(plan.pieces)))

    def _install_plan(self, plan: planner.Plan) -> None:
        """Install every planned chain and clear every unplanned piece. A
        chain already in place is left alone (``netmodel.path_installed``),
        so its table version, and with it the piece's cached hops, stays
        valid."""
        for pid in self._piece_ids:
            piece = self.pieces_by_id[pid]
            status = self.piece_status[pid]
            if pid in plan.pieces:
                pp = plan.pieces[pid]
                piece.proxy = pp.proxy
                chain = pp.chain
                if not netmodel.path_installed(self.net, self.table, pid, chain):
                    netmodel.install_path(self.net, self.table, piece, chain)
                status.broken = False
                status.cause = None
            else:
                netmodel.clear_piece_paths(self.net, self.table, pid)
                piece.proxy = None
                status.broken = True
                status.cause = "unplanned"

    # ------------------------------------------------------------------- run

    def run(self, cycles: int | None = None) -> Metrics:
        """Advance ``cycles`` cycles (default: the rest of the horizon).

        Callers may edit the state between calls (drain a node's energy,
        spike a link's cost), so the incremental bookkeeping is first derived
        afresh from the state: the alive count, the alive nodes with no
        energy left, the links whose cost differs from their previous cost
        (they count as changed in the next cycle and settle at its end), and
        the nodes with pending protocol work.

        Cycles with an event go through ``_step()``; the quiet cycles between
        them through ``_run_quiet()``, which hands on its forwarding walk and
        whether it has applied the next cycle's reverts and hit. Both end
        their cycles through ``_sample_requests()`` and ``_close()``, a step
        for its one cycle and a stretch once for all of its own.
        """
        remaining = (self.cfg.horizon - self.cycle) if cycles is None else cycles
        nodes = self.net.nodes
        self._alive_count = sum(1 for st in nodes.values() if st.alive)
        self._drained = {u for u, st in nodes.items()
                         if st.alive and st.energy_j <= 0.0}
        self._dirty_links = {lk for lk, link in self.net.links.items()
                             if link.eps_j != link.eps_prev_j}
        self._busy = {u for u, state in self._states.items()
                      if state.has_pending_work()}
        end = self.cycle + max(0, remaining)
        while self.cycle < end:
            walk, interfered = self._run_quiet(end)
            if self.cycle < end:
                self._step(walk, interfered)
        return self.metrics

    def _step(self, walk=None, interfered=False) -> None:
        """One cycle with an event. ``walk`` is the forwarding walk of the
        stretch before, when it made one; ``interfered`` says that the
        stretch has already applied this cycle's reverts and interference
        event."""
        cyc = self.cycle
        self._deliver_messages()
        if not interfered:
            self._revert_interference(cyc)
            self._inject_interference(cyc)
        for node in self._forced.get(cyc, ()):
            st = self.net.nodes[node]
            if st.alive:
                st.spent_j = st.initial_energy_j   # forced exhaustion
                self._drained.add(node)
        self._generate_and_forward(walk)
        if self.cfg.strategy == "DistrDataFwd":
            self._protocol_phase(cyc)
        served = self._sample_requests(cyc, cyc + 1)
        if self.cfg.strategy == "PDD-CR":
            self._central_reconfiguration_hook()
        self._death_sweep()
        # Forwarding has added this cycle's counts to the totals already.
        self._close(cyc, cyc + 1, (0, 0, 0), [self._data_energy], served)
        self._settle_links()
        self.cycle += 1

    def _run_quiet(self, end: int):
        """Advance the quiet cycles from ``self.cycle`` on, stopping before
        the next cycle with an event or at ``end`` (see the module
        docstring). Each quiet cycle does exactly what ``_step()`` would,
        reverts and interference hits included, under every strategy: it
        stops at a changed link that fires the trigger, unless under PDD.
        Returns the forwarding walk (``_walk()``) when it made one, and
        whether the cycle it stopped at has had its reverts and interference
        event applied already; the ``_step()`` that follows forwards from
        the walk and skips what was applied.

        The loop goes from event to event: it draws the interference stream
        up to the next hit or revert and applies it. Unless that ends the
        stretch, the event brings the data total and the accounts of the
        nodes it re-prices up to date, re-prices their hops and settles the
        changed links; an event that re-prices no hop only settles them.
        Nothing is done per quiet cycle: the data total and each node's
        account are charged lazily, a binade at a time, and the data totals
        of the metrics rows are built in bulk (``charging.advance``). The
        requests of all the cycles that ran are drawn after the loop, and
        the cycles closed with the data rows, by one call each to
        ``_sample_requests()`` and ``_close()``."""
        start = self.cycle
        if (self._outboxes or self._dirty_links or self._drained
                or self._busy or self._replan_due):
            return None, False
        event_stop = end
        for due in self._forced:
            if start <= due < event_stop:
                event_stop = due
        if event_stop <= start:
            return None, False
        walk = self._walk()
        entries, gen, dlv, lost, quiet = walk
        if not quiet:
            return walk, False
        log = self.energy_log if self.cfg.audit_energy else None
        amounts = []   # every charge of a cycle, in piece and hop order
        accounts = {}   # node id -> Account
        hops = {}   # link -> [(index in amounts, account, index in its amounts, rate)]
        for piece, _, sent, _, _ in entries:
            for tx, link, rx, _ in sent:
                acct = accounts.get(tx.node)
                if acct is None:
                    acct = accounts[tx.node] = Account(tx, start, log)
                hops.setdefault((tx.node, rx.node), []).append(
                    (len(amounts), acct, len(acct.amounts), piece.rate))
                amount = link.eps_j * piece.rate
                amounts.append(amount)
                acct.amounts.append(amount)
        for acct in accounts.values():
            acct.guard(start, event_stop)
        stop = min((acct.stop for acct in accounts.values()), default=event_stop)
        if stop <= start:
            return walk, False

        cfg = self.cfg
        draw_interference = self._rng_interference.random
        p_hit = cfg.interference.prob_per_cycle
        reverts, threshold = self._reverts, cfg.trigger_threshold
        reacts = cfg.strategy != "PDD"   # to a changed link that fires
        links, dirty = self.net.links, self._dirty_links
        data_rows = []   # the data total of each metrics-row cycle
        data, synced = self._data_energy, start   # the data total, charged up to `synced`
        interfered = False
        cyc = start
        while cyc < stop:
            # The next event: the next revert, or a hit up to and on its
            # cycle, whose own draw is taken here too.
            event = min(reverts) if reverts else stop
            if event > stop:
                event = stop
            hit = None
            if p_hit > 0.0:
                for c in range(cyc, event + 1 if event < stop else stop):
                    draw = draw_interference()
                    if draw < p_hit:
                        event, hit = c, draw
                        break
            cyc = event
            if cyc == stop:
                break
            if cyc in reverts:
                self._revert_interference(cyc)
            if hit is not None:
                self._inject_interference(cyc, hit)
            if reacts and any(link_fires(links[lk], threshold) for lk in dirty):
                interfered = True   # the _step() of this cycle goes on from here
                break
            moved = set()
            for lk in dirty:
                for _, acct, _, _ in hops.get(lk, ()):
                    moved.add(acct)
            if moved:
                # Charge the cycles before this one at the old prices.
                data = advance(data, amounts, synced, cyc,
                               self._row_ranges(synced, cyc), data_rows)
                synced = cyc
                for acct in moved:
                    acct.sync(cyc)
                for lk in dirty:
                    for i, acct, j, rate in hops.get(lk, ()):
                        amounts[i] = acct.amounts[j] = links[lk].eps_j * rate
                for acct in moved:
                    acct.guard(cyc, event_stop)
                stop = min(acct.stop for acct in accounts.values())
                if stop <= cyc:
                    interfered = True
                    break
            self._settle_links()
            cyc += 1

        ran = cyc - start
        if ran == 0:
            return walk, interfered
        self._data_energy = advance(data, amounts, synced, cyc,
                                    self._row_ranges(synced, cyc), data_rows)
        for acct in accounts.values():
            acct.sync(cyc)
        served = self._sample_requests(start, cyc)
        self._close(start, cyc, (gen, dlv, lost), data_rows, served)
        self.cycle = cyc
        loss_causes = self.metrics.loss_causes
        for piece, status, _, cause, _ in entries:
            if cause is None:
                status.stuck_cycles = 0
            else:
                loss_causes[status.cause or cause] += piece.rate * ran
        return walk, interfered

    def _walk(self):
        """This cycle's forwarding, walked without charging: for each
        generating piece in id order (piece, status, the hops it transmits
        over, its loss cause or None, the node it stops at); the generated,
        delivered and lost counts, each tallied on its own; and whether the
        cycle can be quiet: under DistrDataFwd, every failing piece already
        broken, so no transmission feedback, and no learning write that
        changes state. For each receiver of a learning hop the write that
        counts is the last one, from the last sender; it changes nothing
        when the receiver's previous pointer is that sender already and its
        next link, if any, already carries the piece.

        It reads liveness, chains and activations, which no phase of
        ``_step()`` before forwarding changes, so a stretch's walk holds for
        the step that ends it. It reads no link cost, so it holds across the
        hits and reverts a stretch applies; amounts are read when charged. A learning
        write rewrites the receiver's row and so activates its next link:
        the hop after a learning hop is active even if it was not.
        """
        local_repair = self.cfg.strategy == "DistrDataFwd"
        nodes, links = self.net.nodes, self.net.links
        entries = []
        gen = dlv = lost = 0
        quiet = True
        for pid in self._piece_ids:
            piece = self.pieces_by_id[pid]
            if not nodes[piece.source].alive or piece.rate == 0:
                continue
            gen += piece.rate
            hops, complete = self._chain(piece)
            status = self.piece_status[pid]
            cause = None
            blocked_at = piece.source
            sent = 0
            learned = False
            writes = {}   # receiver -> the sender of its last learning write
            # Each transmitter is the source or the last receiver, both alive.
            for tx, link, rx, learn in hops:
                if not (learned or pid in link.active_pieces):
                    cause = "link-down"
                    break
                sent += 1
                if not rx.alive:
                    cause = "node-dead"
                    break
                if learn:
                    writes[rx.node] = tx.node
                learned = learn
                blocked_at = rx.node
            else:
                if not complete:
                    cause = "path-broken"
            if writes and quiet:
                rows = self.table.rows_for_piece(pid)
                for u, prev in writes.items():
                    row = rows[u]
                    link = links.get((u, row.next))
                    if row.prev != prev or (link is not None
                                            and pid not in link.active_pieces):
                        quiet = False
                        break
            if cause is None:
                dlv += piece.rate
            else:
                lost += piece.rate
                hops = hops[:sent]
                if local_repair and not status.broken:
                    quiet = False   # transmission feedback is counting
            entries.append((piece, status, hops, cause, blocked_at))
        return entries, gen, dlv, lost, quiet

    # ------------------------------------------------------------- sub-steps

    def _deliver_messages(self) -> None:
        """Last cycle's mail becomes this cycle's inboxes, but for the
        receivers that are dead by now."""
        nodes = self.net.nodes
        self._inboxes = {dst: mail for dst, mail in self._outboxes.items()
                         if nodes[dst].alive}
        self._outboxes = {}

    def _revert_interference(self, cyc: int) -> None:
        for lk in self._reverts.pop(cyc, ()):
            link = self.net.links[lk]
            link.eps_prev_j = link.eps_j
            link.eps_j = link.eps_baseline_j
            self._dirty_links.add(lk)

    def _settle_links(self) -> None:
        for lk in self._dirty_links:
            link = self.net.links[lk]
            link.eps_prev_j = link.eps_j
        self._dirty_links.clear()

    def _inject_interference(self, cyc: int, drawn: float | None = None) -> None:
        """Apply this cycle's interference event through
        ``inject_interference``, which draws it unless a quiet stretch hands
        in the ``drawn`` value. The links a hit changes are marked changed
        and get their revert scheduled; under PDD-CR a hit that fires the
        trigger calls for a replan. Every strategy's quiet stretch applies
        its hits here too (and, but for PDD's, ends at one that fires), so
        the module function sees each hit once, whoever makes it."""
        inter = self.cfg.interference
        affected = inject_interference(self.net, self._rng_interference, inter,
                                       self.cfg.trigger_threshold,
                                       link_ids=self._link_ids, drawn=drawn)
        for lk, fired in affected:
            self._dirty_links.add(lk)
            self._reverts.setdefault(cyc + inter.duration_cycles, []).append(lk)
            if fired and self.cfg.strategy == "PDD-CR":
                self._replan_due = True

    def _generate_and_forward(self, walk=None) -> None:
        """Charge this cycle's forwarding in piece and hop order, from
        ``walk`` or, when none is handed in, from a fresh ``_walk()``. A
        charge that clamps stops the piece at its transmitter (node-dead);
        otherwise a learning hop's write follows its charge."""
        if walk is None:
            walk = self._walk()
        gen = dlv = lost = 0
        charge = self._charge
        for piece, status, sent, cause, blocked_at in walk[0]:
            gen += piece.rate
            for tx, link, rx, learn in sent:
                need = link.eps_j * piece.rate
                if charge(tx, need, DATA) < need:
                    cause, blocked_at = "node-dead", tx.node
                    break
                if learn and rx.alive:
                    rx_row = self.table.row(piece.id, rx.node)
                    self.write_row(piece.id, rx.node, tx.node, rx_row.next,
                                   rx_row.order_key)
            if cause is None:
                dlv += piece.rate
                status.stuck_cycles = 0
            else:
                lost += piece.rate
                self.metrics.loss_causes[status.cause or cause] += piece.rate
                self._note_delivery_failure(piece, status, blocked_at)
        self._generated += gen
        self._delivered += dlv
        self._lost += lost
        if gen != dlv + lost:
            raise EngineError("piece conservation violated within a cycle")

    def _note_delivery_failure(self, piece: DataPiece, status: PieceStatus,
                               blocked_at: NodeId) -> None:
        """Transmission feedback: a node that keeps failing to move a piece,
        with no repair of its own underway, eventually declares the piece
        path-broken. Covers breakage races no alert can reach (the local
        repair strategy only; the static plan never reacts and the central
        one replans wholesale)."""
        if self.cfg.strategy != "DistrDataFwd" or status.broken:
            return
        if self._states[blocked_at].repairing(piece.id):
            status.stuck_cycles = 0
            return
        status.stuck_cycles += 1
        if status.stuck_cycles > 2 * (self.cfg.route_ttl + 1) + 4:
            self.mark_broken(piece.id, "repair-failed")

    def _chain(self, piece: DataPiece):
        """The piece's hops as (tx, link, rx, learn) and whether the chain
        reaches the consumer, cached per chain version.

        ``learn`` marks the hops whose receiver needs a data-plane learning
        write (DistrDataFwd only): whoever actually hands a node the piece
        is its previous hop, which reconciles a stale pointer left by the
        losing side of two concurrent repairs. Every row write bumps the
        version, so the marks hold until the next write. A looped chain may
        reach a receiver twice; the second hop sees the first hop's write.
        """
        ver = self.table.version.get(piece.id, 0)
        cached = self._chains.get(piece.id)
        if cached is not None and cached[0] == ver:
            return cached[1], cached[2]
        seq = netmodel.walk_chain(self.table, piece.id, piece.source)
        prevs = ({u: row.prev for u, row in self.table.rows_for_piece(piece.id).items()}
                 if self.cfg.strategy == "DistrDataFwd" else {})
        hops = []
        for node, nxt in zip(seq, seq[1:]):
            link = self.net.links.get((node, nxt))
            if link is None:
                complete = False
                break
            learn = nxt in prevs and prevs[nxt] != node
            if learn:
                prevs[nxt] = node
            hops.append((self.net.nodes[node], link, self.net.nodes[nxt], learn))
        else:
            complete = seq[-1] == piece.consumer and piece.consumer not in seq[:-1]
        self._chains[piece.id] = (ver, hops, complete)
        return hops, complete

    def _protocol_phase(self, cyc: int) -> None:
        """Step, in id order, the alive nodes with protocol work: mail
        delivered this cycle, a collector, pending route or pending splice,
        an out-link that fires the trigger this cycle
        (``lifetime.link_fires``), or no energy left.

        For any other node ``protocol.node_cycle`` does nothing, so this
        equals stepping every node; quiet stretches rely on the same rule.
        No step creates such work for another node within the cycle: a send
        is delivered next cycle and charges only its sender, and a step
        activates only its own node's out-links, so no link starts firing
        after the wake set is taken.
        """
        wake = {*self._inboxes, *self._busy, *self._drained}
        links, threshold = self.net.links, self.cfg.trigger_threshold
        for lk in self._dirty_links:
            if link_fires(links[lk], threshold):
                wake.add(lk[0])
        nodes = self.net.nodes
        busy = self._busy
        states = self._states
        for u in sorted(wake):
            if nodes[u].alive:
                protocol.node_cycle(self._ctx(u), cyc)
            if nodes[u].alive and states[u].has_pending_work():
                busy.add(u)
            else:
                busy.discard(u)

    def _row_ranges(self, start: int, stop: int) -> list[range]:
        """The cycles of [start, stop) that get a metrics row, in order, as
        arithmetic progressions: every stride-th cycle, and the horizon's
        last on its own when it is off that grid."""
        stride, last = self._stride, self.cfg.horizon - 1
        first = -(-start // stride) * stride
        if start <= last < stop and last % stride:
            return [range(first, last, stride), range(last, last + 1),
                    range(last - last % stride + stride, stop, stride)]
        return [range(first, stop, stride)]

    def _sample_requests(self, start: int, stop: int) -> list[float]:
        """Draw each cycle of [start, stop) one consumer request per piece,
        in id order, and tally the requests. Returns the worst latency
        served in each row cycle (``_row_ranges``) up to the last one that
        served a request, in row order, 0.0 where none was served; the
        rows themselves are written by ``_close``. A piece's access latency
        is sampled once, when it is first requested: nothing it reads
        changes within a range, which is one step's cycle or a stretch,
        whose hits and charges move only link costs and spend.

        The draws are taken as raw generator words (see the module
        docstring), one ``getrandbits`` block per chunk of whole cycles of
        at most ``REQUEST_CHUNK`` draws. ``bytes.translate`` maps each
        draw's top byte to yes, no or maybe, and only the maybes are
        settled one by one. A chunk with no yes costs no more. Otherwise
        each piece's requests are counted on its own slice of the classes.
        The worst latencies are built on one integer with a rank field per
        cycle of the chunk, one byte wide, or wider when more than 255
        pieces were served: each served piece, in ascending latency order,
        writes its rank over the fields of the cycles it was requested in,
        so each field ends with the rank of its cycle's worst latency, and
        the row cycles' fields are read off by slices. No Python code runs
        per draw, and the generator ends in the state the plain per-draw
        loop leaves (``tests/test_request_draws.py``)."""
        n = len(self._piece_ids)
        getrandbits = self._rng_requests.getrandbits
        bound, classes, span = self._request_draws
        served = []   # the worst latency served in each row cycle before `filled`
        filled = start
        tallies = {}   # piece index -> [requests, latency, miss]
        for lo in range(start, stop, span):
            hi = lo + span if lo + span < stop else stop
            draws = n * (hi - lo)
            words = getrandbits(64 * draws).to_bytes(8 * draws, "little")
            cls = words[3::8].translate(classes)
            if 2 in cls:   # settle the straddling byte's draws exactly
                cls = bytearray(cls)
                k = cls.find(2)
                while k >= 0:
                    v = int.from_bytes(words[8 * k:8 * k + 8], "little")
                    cls[k] = ((v & 0xFFFFFFFF) >> 5 << 26 | v >> 38) < bound
                    k = cls.find(2, k + 1)
            if 1 not in cls:
                continue
            counts = [cls[i::n].count(1) for i in range(n)]
            ranked = []   # (latency, piece index) of the pieces served
            for i in compress(range(n), counts):
                tally = tallies.get(i)
                if tally is None:
                    tally = tallies[i] = [0, *sample_access_latency(
                        self.pieces_by_id[self._piece_ids[i]], self.table,
                        self.net)]
                tally[0] += counts[i]
                if tally[1] is not None:
                    ranked.append((tally[1], i))
            if not ranked:
                continue
            slices = [slice(r.start - lo, r.stop - lo, r.step)
                      for r in self._row_ranges(lo, hi) if r]
            if not slices:
                continue
            if filled < lo:
                served += [0.0] * sum(map(len, self._row_ranges(filled, lo)))
            filled = hi
            ranked.sort()
            ranks = [0.0, *map(itemgetter(0), ranked)]
            width = (len(ranked).bit_length() + 7) // 8   # bytes per rank
            full = (1 << 8 * width) - 1
            code = 0
            for rank, (_, i) in enumerate(ranked, 1):
                hits = cls[i::n]
                if width > 1:   # each cycle's 0 or 1 in its field's low byte
                    spread = bytearray(len(hits) * width)
                    spread[::width] = hits
                    hits = spread
                mask = int.from_bytes(hits, "little")
                code += mask * rank - (code & mask * full)
            codes = code.to_bytes((hi - lo) * width, "little")
            if width > 1:
                codes = [int.from_bytes(codes[j:j + width], "little")
                         for j in range(0, len(codes), width)]
            served.extend(map(ranks.__getitem__, chain.from_iterable(
                map(codes.__getitem__, slices))))
        if not tallies:
            return served
        m = self.metrics
        for count, latency, miss in tallies.values():
            m.requests_total += count
            if miss is not None:
                m.request_misses += count
                m.miss_causes[miss] += count
                continue
            m.max_access_latency_ms = max(m.max_access_latency_ms, latency)
            if latency > self.cfg.latency_budget_ms:
                m.latency_violations += count
            else:
                m.requests_ok += count
        return served

    def _close(self, start: int, stop: int, counts: tuple[int, int, int],
               data: list[float], served: list[float]) -> None:
        """End the cycles [start, stop). Each adds ``counts``, the pieces it
        generated, delivered and lost, to the totals (a step's forwarding
        has added its own, so it passes none); then piece conservation is
        checked, and the row cycles (``_row_ranges``) get their rows, one
        ``Metrics`` block per progression of them. ``data`` holds the data
        total of each row cycle in order (a step passes its cycle's, used
        when the cycle has a row), and ``served`` the worst latency served
        in the first row cycles (``_sample_requests``); the rows after them
        served none. A block keeps both lists as they are when the range's
        rows form one progression, and its slices of them otherwise. A row's
        counter totals leave out the cycles of the range after it, so along
        each progression they are progressions too, and a block keeps the
        first and the step of each. A one-cycle range adds its row, if it
        has one, as a one-row block from the totals as they stand."""
        gen, dlv, lost = counts
        ran = stop - start
        generated = self._generated = self._generated + ran * gen
        delivered = self._delivered = self._delivered + ran * dlv
        lost_total = self._lost = self._lost + ran * lost
        m = self.metrics
        if gen != dlv + lost or generated != delivered + lost_total + m.in_transit:
            raise EngineError("piece conservation violated cumulatively")
        if ran == 1:
            if start % self._stride and start != self.cfg.horizon - 1:
                return
            m.add_rows(range(start, stop), data, self._cfg_energy,
                       (generated, 0), (delivered, 0), (lost_total, 0), served,
                       self._reconfigs, self._alive_count)
            return
        segments = [rows for rows in self._row_ranges(start, stop) if rows]
        whole = len(segments) == 1
        i = 0
        for rows in segments:
            j = i + len(rows)
            after = stop - 1 - rows.start   # cycles after the block's first row
            m.add_rows(rows, data if whole else data[i:j], self._cfg_energy,
                       (generated - gen * after, gen * rows.step),
                       (delivered - dlv * after, dlv * rows.step),
                       (lost_total - lost * after, lost * rows.step),
                       served if whole else served[i:j], self._reconfigs,
                       self._alive_count)
            i = j

    def _central_reconfiguration_hook(self) -> None:
        if not self._replan_due:
            return
        self._replan_due = False
        self._controller_round()
        self.note_reconfiguration()

    def _death_sweep(self) -> None:
        drained = sorted(self._drained)   # id order decides competing causes
        self._drained.clear()
        for u in drained:
            node = self.net.nodes[u]
            if node.alive and node.energy_j <= 0.0:
                self.mark_dead(u)

    # ------------------------------------------------------------- primitives

    def _charge(self, node: netmodel.NodeState, amount: float, kind: str) -> float:
        got = node.charge(amount)
        if kind == DATA:
            self._data_energy += got
        else:
            self._cfg_energy += got
        if self.cfg.audit_energy and got > 0.0:
            self.energy_log.setdefault(node.node, []).append((self.cycle, kind, got))
        if node.spent_j >= node.initial_energy_j and node.alive:   # energy_j <= 0
            self._drained.add(node.node)
        return got

    def send_message(self, src: NodeId, dst: NodeId, msg) -> None:
        link = self.net.links.get((src, dst))
        if link is None:
            raise EngineError(f"message over non-existent link {src}->{dst}")
        self._charge(self.net.nodes[src], link.eps_j, CFG)
        self._outboxes.setdefault(dst, []).append((src, msg))
        if self.cfg.trace:
            self._trace(src, dst, msg)

    def pending_message_count(self) -> int:
        return sum(len(mail) for box in (self._outboxes, self._inboxes)
                   for mail in box.values())

    def _trace(self, src: NodeId, dst: NodeId, msg) -> None:
        piece = getattr(msg, "piece", "")
        self.trace_lines.append(
            f"{self.cycle},{type(msg).__name__},{src},{dst},{piece}")

    def write_row(self, piece: int, node: NodeId, prev: NodeId | None,
                  nxt: NodeId | None, order_key: float) -> None:
        old = self.table.row(piece, node)
        if old is not None and old.next is not None and old.next != nxt:
            self.net.deactivate(piece, node, old.next)
        self.table.set_row(piece, node, PathRow(prev=prev, next=nxt,
                                                order_key=order_key))
        if nxt is not None:
            self.net.activate(piece, node, nxt)

    def clear_row(self, piece: int, node: NodeId) -> None:
        old = self.table.row(piece, node)
        if old is None:
            return
        if old.next is not None:
            self.net.deactivate(piece, node, old.next)
        self.table.drop_row(piece, node)

    def mark_broken(self, piece: int, cause: str) -> None:
        status = self.piece_status[piece]
        if not status.broken:
            status.broken = True
            status.cause = cause

    def mark_dead(self, node: NodeId) -> None:
        st = self.net.nodes[node]
        if not st.alive:
            return
        st.alive = False
        self._alive_count -= 1
        self.metrics.death_times[node] = self.cycle
        if self.cfg.strategy == "PDD-CR":
            self._replan_due = True
        for pid in self._piece_ids:
            piece = self.pieces_by_id[pid]
            if piece.source == node:
                self.mark_broken(pid, "source-dead")
            elif piece.consumer == node:
                self.mark_broken(pid, "endpoint-dead")
            elif piece.proxy == node:
                self.mark_broken(pid, "proxy-dead")

    def note_reconfiguration(self) -> None:
        self._reconfigs += 1
        epochs = self.metrics.epoch_boundaries
        if not epochs or epochs[-1] != self.cycle:
            epochs.append(self.cycle)


def inject_interference(net: NetworkState, rng: random.Random,
                        params, trigger_threshold: float,
                        link_ids=None, drawn: float | None = None,
                        ) -> list[tuple[tuple[NodeId, NodeId], bool]]:
    """Sample and apply this cycle's interference.

    At most one event per cycle (with the configured probability); an event
    multiplies ``affected_links`` distinct links' per-piece cost by the
    configured factor above their baseline, recording the previous value for
    the trigger ratio. Returns the affected directed edges, each paired with
    whether the jump fired the trigger on an actively used link. Reverting
    after ``duration_cycles`` is the caller's bookkeeping. ``drawn`` is the
    event draw when the caller has already taken it from ``rng``.
    """
    if params.prob_per_cycle <= 0.0:
        return []
    if (rng.random() if drawn is None else drawn) >= params.prob_per_cycle:
        return []
    if link_ids is None:
        link_ids = sorted(net.links)
    k = min(params.affected_links, len(link_ids))
    affected = []
    for lk in rng.sample(link_ids, k):
        link = net.links[lk]
        link.eps_prev_j = link.eps_j
        link.eps_j = link.eps_baseline_j * params.multiplier
        affected.append((lk, link_fires(link, trigger_threshold)))
    return affected


def request_classes(p: float) -> tuple[int, bytes]:
    """The integer form of a request draw's test ``random() < p``, on the
    53-bit value v that ``random()`` scales by 2**-53: ``v < bound``. And
    the class of each top byte t = v >> 45 of a draw: 1 when every v with
    that byte passes, 0 when none does, 2 for the one byte that straddles
    ``bound``, whose draws must be settled on v itself. So the bytes
    below ``bound >> 45`` are 1, that byte is 2 unless ``bound`` falls on
    its lower edge, and the rest are 0."""
    bound = math.ceil(p * 2.0 ** 53)
    full, part = divmod(min(bound, 2 ** 53), 2 ** 45)
    return bound, (b"\x01" * full + b"\x02" * (part > 0)).ljust(256, b"\x00")


def sample_access_latency(piece: DataPiece, table: PathTable,
                          net: NetworkState) -> tuple[float | None, str | None]:
    """Round-trip access latency for one consumer request over the piece's
    current proxy-to-consumer segment (request travels the reverse direction,
    response the forward one). Returns (latency_ms, None) or (None, miss
    cause) when the segment cannot serve the request."""
    if piece.proxy is None:
        return None, "unplanned"
    if not net.nodes[piece.consumer].alive:
        return None, "consumer-dead"
    if not net.nodes[piece.proxy].alive:
        return None, "proxy-dead"
    seq = netmodel.walk_chain(table, piece.id, piece.proxy)
    if piece.consumer not in seq[1:]:
        return None, "consumer-segment-broken"
    total = 0.0
    for node, nxt in zip(seq, seq[1:seq.index(piece.consumer, 1) + 1]):
        fwd = net.links.get((node, nxt))
        rev = net.links.get((nxt, node))
        if fwd is None or rev is None or piece.id not in fwd.active_pieces:
            return None, "consumer-segment-broken"
        if not net.nodes[nxt].alive:
            return None, "consumer-segment-broken"
        total += fwd.latency_ms + rev.latency_ms
    return total, None


def run_simulation(cfg: ScenarioConfig) -> Metrics:
    """Build and run one scenario to its horizon."""
    return Simulation(cfg).run()
