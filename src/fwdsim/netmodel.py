"""Network state shared by every other module.

Holds the static topology (grid placement, links with per-hop latency and
transmit energy), the dynamic per-node energy accounts, and the distributed
path structures (per-piece previous/next pointer rows). Everything here is
plain data plus a handful of pure helpers; mutation during a run goes through
the engine's single-writer step loop. No run parameter lives here: the grid
builder takes its latency range, transmit cost and energy endowments as
arguments (``ScenarioConfig.network()`` passes a scenario's), and the
controller link, which is not a graph edge, is priced by the scenario's
``controller_energy_j`` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

NodeId = int

# Spacing used for pointer-row order keys when a plan is installed. Repairs
# insert fractional keys between existing ones, so the gap just needs to be
# much larger than the insertion step in protocol.py.
ORDER_KEY_GAP = 1.0


class TopologyError(ValueError):
    """Raised when a requested topology cannot operate (e.g. disconnected)."""


@dataclass
class NodeState:
    node: NodeId
    pos: tuple[float, float]
    initial_energy_j: float
    spent_j: float = 0.0
    alive: bool = True

    @property
    def energy_j(self) -> float:
        return self.initial_energy_j - self.spent_j

    def charge(self, amount_j: float) -> float:
        """Spend up to ``amount_j``; returns what was actually spent.

        A node cannot spend past empty, and a dead node's account is frozen.
        The clamped branch forces ``spent == initial`` so that energy reaches
        exactly zero and the transmission audit stays exact.
        """
        if not self.alive or amount_j <= 0.0:
            return 0.0
        remaining = self.initial_energy_j - self.spent_j
        if amount_j >= remaining:
            self.spent_j = self.initial_energy_j
            return remaining
        self.spent_j += amount_j
        return amount_j


@dataclass
class LinkState:
    eps_j: float                      # transmit energy per data piece, current cycle
    eps_prev_j: float                 # previous cycle's value, for the trigger ratio
    latency_ms: float
    active_pieces: set[int] = field(default_factory=set)
    eps_baseline_j: float = 0.0       # nominal cost interference multiplies

    def __post_init__(self) -> None:
        if self.eps_baseline_j == 0.0:
            self.eps_baseline_j = self.eps_j


@dataclass
class DataPiece:
    id: int
    source: NodeId
    consumer: NodeId
    rate: int                         # pieces generated per cycle
    proxy: NodeId | None = None       # assigned by the planner


@dataclass
class PathRow:
    prev: NodeId | None
    next: NodeId | None
    order_key: float                  # monotone along the chain; repairs interpolate


class PathTable:
    """Per (piece, node) previous/next pointer rows forming distributed paths.

    A piece's forwarding structure is one chain source -> ... -> proxy -> ...
    -> consumer; an intact chain is simple and pointer-symmetric. The table
    tracks a version counter per piece so the engine can cache chain walks.
    """

    def __init__(self) -> None:
        self._rows: dict[int, dict[NodeId, PathRow]] = {}
        self.version: dict[int, int] = {}

    def row(self, piece_id: int, node: NodeId) -> PathRow | None:
        return self._rows.get(piece_id, {}).get(node)

    def rows_for_piece(self, piece_id: int) -> dict[NodeId, PathRow]:
        return self._rows.get(piece_id, {})

    def pieces_at(self, node: NodeId) -> list[int]:
        return sorted(p for p, rows in self._rows.items() if node in rows)

    def set_row(self, piece_id: int, node: NodeId, row: PathRow) -> None:
        self._rows.setdefault(piece_id, {})[node] = row
        self._bump(piece_id)

    def drop_row(self, piece_id: int, node: NodeId) -> None:
        rows = self._rows.get(piece_id)
        if rows and node in rows:
            del rows[node]
            self._bump(piece_id)

    def clear_piece(self, piece_id: int) -> None:
        if self._rows.pop(piece_id, None) is not None:
            self._bump(piece_id)

    def _bump(self, piece_id: int) -> None:
        self.version[piece_id] = self.version.get(piece_id, 0) + 1


@dataclass
class NetworkState:
    nodes: dict[NodeId, NodeState]
    links: dict[tuple[NodeId, NodeId], LinkState]
    proxies: set[NodeId]
    neighbors: dict[NodeId, tuple[NodeId, ...]]         # static, sorted

    def alive_neighbors(self, u: NodeId) -> list[NodeId]:
        return [v for v in self.neighbors[u] if self.nodes[v].alive]

    def activate(self, piece_id: int, u: NodeId, v: NodeId) -> None:
        link = self.links.get((u, v))
        if link is None:
            return
        link.active_pieces.add(piece_id)

    def deactivate(self, piece_id: int, u: NodeId, v: NodeId) -> None:
        link = self.links.get((u, v))
        if link is not None:
            link.active_pieces.discard(piece_id)


def build_grid_topology(
    rows: int,
    cols: int,
    spacing_m: float,
    range_m: float,
    proxy_ids: set[NodeId],
    *,
    seed: int,
    latency_ms: tuple[float, float],
    tx_energy_j: float,
    node_energy_j: tuple[float, float],
    proxy_energy_j: float,
) -> NetworkState:
    """Place ``rows x cols`` nodes on a grid and link every pair within range.

    Node ids are row-major; a link (u, v) exists iff the Euclidean distance is
    at most ``range_m``, each direction with its own latency drawn uniformly
    from the ``latency_ms`` (min, max) range and costing ``tx_energy_j`` per
    data piece. A proxy starts with ``proxy_energy_j``, every other node with
    an energy drawn uniformly from the ``node_energy_j`` (min, max) range.
    Construction is deterministic for equal inputs. Raises TopologyError when
    the resulting graph is disconnected or the proxy ids are invalid.
    ``ScenarioConfig.network()`` builds a scenario's grid through here.
    """
    if rows * cols < 2:
        raise TopologyError("need at least two nodes")
    if range_m <= 0 or spacing_m <= 0:
        raise TopologyError("spacing and range must be positive")
    ids = list(range(rows * cols))
    bad = set(proxy_ids) - set(ids)
    if bad:
        raise TopologyError(f"proxy ids outside the grid: {sorted(bad)}")

    pos = {u: ((u % cols) * spacing_m, (u // cols) * spacing_m) for u in ids}
    rng_links = random.Random(f"{seed}:links")
    rng_energy = random.Random(f"{seed}:energy")

    links: dict[tuple[NodeId, NodeId], LinkState] = {}
    neighbor_map: dict[NodeId, list[NodeId]] = {u: [] for u in ids}
    for u in ids:
        for v in ids:
            if v == u:
                continue
            if math.dist(pos[u], pos[v]) <= range_m:
                latency = rng_links.uniform(*latency_ms)
                # A second draw per link, discarded: the recorded digests
                # were made with it, and dropping it would move every later
                # latency of every seeded grid.
                rng_links.random()
                links[(u, v)] = LinkState(eps_j=tx_energy_j, eps_prev_j=tx_energy_j,
                                          latency_ms=latency)
                neighbor_map[u].append(v)

    nodes: dict[NodeId, NodeState] = {}
    for u in ids:
        if u in proxy_ids:
            energy = proxy_energy_j
        else:
            energy = rng_energy.uniform(*node_energy_j)
        nodes[u] = NodeState(node=u, pos=pos[u], initial_energy_j=energy)

    net = NetworkState(
        nodes=nodes,
        links=links,
        proxies=set(proxy_ids),
        neighbors={u: tuple(sorted(neighbor_map[u])) for u in ids},
    )
    if not _connected(net):
        raise TopologyError("grid is disconnected at this range; cannot operate")
    return net


def _connected(net: NetworkState) -> bool:
    ids = sorted(net.nodes)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        u = stack.pop()
        for v in net.neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(ids)


def install_path(net: NetworkState, table: PathTable, piece: DataPiece,
                 chain: list[NodeId]) -> None:
    """Write pointer rows for a full source->proxy->consumer chain and
    activate every traversed link for the piece. Replaces any prior rows."""
    clear_piece_paths(net, table, piece.id)
    for k, node in enumerate(chain):
        prev = chain[k - 1] if k > 0 else None
        nxt = chain[k + 1] if k + 1 < len(chain) else None
        table.set_row(piece.id, node, PathRow(prev=prev, next=nxt,
                                              order_key=k * ORDER_KEY_GAP))
        if nxt is not None:
            net.activate(piece.id, node, nxt)


def path_installed(net: NetworkState, table: PathTable, piece_id: int,
                   chain: list[NodeId]) -> bool:
    """Whether the piece's rows are exactly the ones ``install_path`` writes
    for ``chain`` and every traversed link is active for the piece: then
    installing the chain again would change nothing but the table version."""
    rows = table.rows_for_piece(piece_id)
    if len(rows) != len(chain):
        return False
    prev = None
    for k, node in enumerate(chain):
        nxt = chain[k + 1] if k + 1 < len(chain) else None
        row = rows.get(node)
        if (row is None or row.prev != prev or row.next != nxt
                or row.order_key != k * ORDER_KEY_GAP):
            return False
        if nxt is not None:
            link = net.links.get((node, nxt))
            if link is None or piece_id not in link.active_pieces:
                return False
        prev = node
    return True


def clear_piece_paths(net: NetworkState, table: PathTable, piece_id: int) -> None:
    """Drop the piece's rows and deactivate the link under each. A link is
    only activated under a row whose next pointer names it, and rewriting or
    dropping that row deactivates it first, so this leaves none active."""
    for node, row in table.rows_for_piece(piece_id).items():
        if row.next is not None:
            net.deactivate(piece_id, node, row.next)
    table.clear_piece(piece_id)


def walk_chain(table: PathTable, piece_id: int, start: NodeId) -> list[NodeId]:
    """Follow next pointers from ``start``; stops at a missing row, a None
    pointer, or the first revisit, which it returns as the last node (so it
    always terminates). The only walk along next pointers: callers read why
    it stopped from the sequence."""
    rows = table.rows_for_piece(piece_id)
    seq = [start]
    seen = {start}
    node = start
    while True:
        row = rows.get(node)
        if row is None or row.next is None:
            return seq
        node = row.next
        seq.append(node)
        if node in seen:
            return seq
        seen.add(node)


@dataclass(frozen=True)
class PathViolation:
    piece_id: int
    kind: str        # loop | pointer-asymmetry | endpoint | inactive-link | missing-link
    detail: str


@dataclass
class PathReport:
    violations: list[PathViolation]

    def ok(self) -> bool:
        return not self.violations

    def of_kind(self, *kinds: str) -> list[PathViolation]:
        return [v for v in self.violations if v.kind in kinds]


def validate_paths(net: NetworkState, table: PathTable,
                   pieces: list[DataPiece]) -> PathReport:
    """Check every piece's chain for simplicity, pointer symmetry, endpoint
    order (source -> proxy -> consumer) and link activation. Never raises;
    the report carries the violations."""
    violations: list[PathViolation] = []
    for piece in sorted(pieces, key=lambda p: p.id):
        seq = walk_chain(table, piece.id, piece.source)
        for k, (node, nxt) in enumerate(zip(seq, seq[1:])):
            if (node, nxt) not in net.links:
                violations.append(PathViolation(piece.id, "missing-link",
                                                f"no link {node}->{nxt}"))
                del seq[k + 1:]
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
        else:
            if seq[-1] in seq[:-1]:
                violations.append(PathViolation(piece.id, "loop",
                                                f"node {seq[-1]} visited twice"))
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

