"""Epoch and lifetime arithmetic.

A node's lifetime under a fixed forwarding assignment is measured in cycles:
energy divided by the per-cycle transmit spend implied by the aggregate data
rates on its activated outgoing links. The epoch bound is the minimum of
those lifetimes over nodes that actually transmit. The trigger test decides
whether a link's per-piece energy cost jumped enough between two consecutive
cycles to warrant reconfiguration.

Nothing here holds a run parameter: the energy a node needs to finish a
configuration phase is passed in as a plain float, the scenario's
``config_phase_energy_j``.
"""

from __future__ import annotations

import math

from .netmodel import DataPiece, LinkState, NetworkState, NodeId

INFINITE_LIFETIME = math.inf


def lifetime_from_spend(energy_j: float, spend_j_per_cycle: float,
                        config_phase_energy_j: float) -> float:
    """Cycles until a node empties, given its total per-cycle transmit spend.

    Three regimes: an empty node has no lifetime; a node that can only afford
    the configuration phase (``config_phase_energy_j``) survives exactly one
    cycle; otherwise energy over spend. Zero spend with energy to spare is the
    idle case and yields the infinite sentinel (callers exclude idle nodes
    from epoch minima).
    """
    if energy_j <= 0.0:
        return 0.0
    if energy_j <= config_phase_energy_j:
        return 1.0
    if spend_j_per_cycle == 0.0:
        return INFINITE_LIFETIME
    return energy_j / spend_j_per_cycle


def node_spend(net: NetworkState, u: NodeId,
               pieces_by_id: dict[int, DataPiece]) -> float:
    """Per-cycle transmit spend of ``u``: over its out-links in neighbor
    order, the link's cost times the summed rate of the pieces active on it.
    The only sum of a node's activated load."""
    spend = 0.0
    for v in net.neighbors[u]:
        link = net.links[(u, v)]
        if link.active_pieces:
            spend += link.eps_j * sum(pieces_by_id[p].rate for p in link.active_pieces)
    return spend


def max_epoch_duration(net: NetworkState, pieces: list[DataPiece],
                       config_phase_energy_j: float) -> float:
    """Upper bound on the epoch length: the shortest lifetime among nodes with
    at least one activated outgoing link. Infinite when nothing transmits."""
    by_id = {p.id: p for p in pieces}
    best = INFINITE_LIFETIME
    for u in sorted(net.nodes):
        if not any(net.links[(u, v)].active_pieces for v in net.neighbors[u]):
            continue
        life = lifetime_from_spend(net.nodes[u].energy_j,
                                   node_spend(net, u, by_id),
                                   config_phase_energy_j)
        if life < best:
            best = life
    return best


def trigger_check(eps_now_j: float, eps_prev_j: float, threshold: float) -> bool:
    """True iff the relative cost increase, normalized by the current value,
    strictly exceeds the threshold."""
    if eps_now_j <= 0.0:
        raise ValueError("current link cost must be positive")
    return (eps_now_j - eps_prev_j) / eps_now_j > threshold


def link_fires(link: LinkState, threshold: float) -> bool:
    """Whether ``link`` fires the trigger: it carries a piece, and its cost
    changed this cycle by a jump that passes ``trigger_check``. The one test
    of a firing link, for the tail node's trigger scan and for the engine,
    which lets a quiet stretch run on through a change that fires nothing."""
    return (bool(link.active_pieces) and link.eps_j > 0.0
            and link.eps_j != link.eps_prev_j
            and trigger_check(link.eps_j, link.eps_prev_j, threshold))
