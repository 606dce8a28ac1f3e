"""Shared fixture builders for hand-crafted networks and mini simulations."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from hypothesis import settings

from fwdsim import (DataPiece, InterferenceConfig, LinkState, NetworkState,
                    NodeState, PathTable, ScenarioConfig, Simulation,
                    build_grid_topology, install_path, parse_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Hypothesis profiles, chosen with ``--hypothesis-profile``. ``default`` is
# Hypothesis' own default; ``ci`` draws ten times the examples for the tests
# that leave their example count to the profile.
settings.register_profile("default")
settings.register_profile("ci", max_examples=1000)


def make_net(edges, energies, proxies=frozenset(), eps=50e-6, latency=10.0,
             positions=None):
    """Build a NetworkState from an explicit edge list.

    ``edges`` is an iterable of undirected pairs, or a dict mapping directed
    pairs to (eps, latency); undirected pairs get identical attributes both
    ways. ``energies`` maps node -> joules.
    """
    links = {}
    if isinstance(edges, dict):
        for (u, v), (e, lat) in edges.items():
            links[(u, v)] = LinkState(eps_j=e, eps_prev_j=e, latency_ms=lat)
        for (u, v) in list(links):
            if (v, u) not in links:
                mirror = links[(u, v)]
                links[(v, u)] = LinkState(eps_j=mirror.eps_j,
                                          eps_prev_j=mirror.eps_j,
                                          latency_ms=mirror.latency_ms)
    else:
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                links[(a, b)] = LinkState(eps_j=eps, eps_prev_j=eps,
                                          latency_ms=latency)
    nodes = {}
    neighbor_map = {u: [] for u in energies}
    for (u, v) in links:
        neighbor_map[u].append(v)
    for u, energy in energies.items():
        pos = positions[u] if positions else (float(u), 0.0)
        nodes[u] = NodeState(node=u, pos=pos, initial_energy_j=energy)
    return NetworkState(
        nodes=nodes,
        links=links,
        proxies=set(proxies),
        neighbors={u: tuple(sorted(set(vs))) for u, vs in neighbor_map.items()},
    )


def status_net(links, energies) -> NetworkState:
    """A NetworkState whose nodes report ``energies`` (node -> joules) and
    whose links are exactly ``links``, directed (u, v) -> (eps, latency).
    Unlike ``make_net`` it mirrors nothing, so a link may stay one-way. A
    node that a link names but ``energies`` leaves out is dead
    (``alive=False``), as a node that sends no status upload."""
    ids = sorted(set(energies).union(*links))
    return NetworkState(
        nodes={u: NodeState(node=u, pos=(float(u), 0.0),
                            initial_energy_j=energies.get(u, 0.0),
                            alive=u in energies) for u in ids},
        links={key: LinkState(eps_j=eps, eps_prev_j=eps, latency_ms=lat)
               for key, (eps, lat) in links.items()},
        proxies=set(),
        neighbors={u: tuple(sorted(v for a, v in links if a == u)) for u in ids},
    )


def grid(rows, cols, range_m, proxies, seed) -> NetworkState:
    """A seeded grid at 2.5 m spacing with fixed fixture draws: latencies
    8-12 ms, 50 uJ per piece per hop, nodes 0-10 J, proxies 30 J."""
    return build_grid_topology(rows, cols, 2.5, range_m, set(proxies), seed=seed,
                               latency_ms=(8.0, 12.0), tx_energy_j=50e-6,
                               node_energy_j=(0.0, 10.0), proxy_energy_j=30.0)


def quiet_config(**overrides) -> ScenarioConfig:
    """A scenario with no stochastic inputs, for fixture-driven runs. Every
    caller runs it over a prebuilt network, whose controller rounds are
    priced at 5 mJ per exchange."""
    base = dict(
        controller_energy_j=5e-3,
        horizon=50,
        strategy="DistrDataFwd",
        request_prob=0.0,
        interference=InterferenceConfig(prob_per_cycle=0.0),
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def churn_config(seed: int, **overrides) -> ScenarioConfig:
    """The benchmark's churn set-up at ``seed``: the shipped
    ``forced_death`` scenario, whose relay and consumer die at cycle 3000,
    with an interference event on one cycle in ten that triples two links'
    cost for one cycle. ``overrides`` replace further fields."""
    cfg = parse_scenario((SCENARIOS / "forced_death.scenario").read_text())
    return replace(cfg, seed=seed,
                   interference=InterferenceConfig(0.1, 3.0, 2, 1), **overrides)


def mini_sim(net, specs, engine=Simulation, **cfg_overrides) -> Simulation:
    """Simulation over a prebuilt network.

    ``specs`` is a list of (source, consumer, proxy, rate, chain) tuples; the
    chain is installed directly, no planner involved. ``engine`` is the
    simulation class to build.
    """
    table = PathTable()
    pieces = []
    for pid, (src, cons, proxy, rate, chain) in enumerate(specs):
        piece = DataPiece(id=pid, source=src, consumer=cons, rate=rate,
                          proxy=proxy)
        pieces.append(piece)
        install_path(net, table, piece, list(chain))
    cfg = quiet_config(**cfg_overrides)
    return engine(cfg, net=net, table=table, pieces=pieces)


def spike_link(sim: Simulation, u: int, v: int, factor: float = 2.5) -> None:
    """Raise one link's per-piece cost as interference would, so the next
    protocol scan sees the jump."""
    link = sim.net.links[(u, v)]
    link.eps_prev_j = link.eps_j
    link.eps_j = link.eps_j * factor


def settle_links(sim: Simulation) -> None:
    for link in sim.net.links.values():
        link.eps_prev_j = link.eps_j


def surviving_violations(sim: Simulation, kinds=("loop", "pointer-asymmetry")):
    """Loop/symmetry violations among pieces that are not marked broken."""
    from fwdsim import validate_paths

    alive_pieces = [p for p in sim.pieces if not sim.piece_status[p.id].broken]
    report = validate_paths(sim.net, sim.table, alive_pieces)
    return report.of_kind(*kinds)
