"""Scenario configuration: typed config, scenario-file parsing, validation.

Scenario files are flat ``[section]`` / ``key = value`` text. Unknown
sections or keys are errors (fail-closed), as are malformed values and a
key given twice; the parser reports line numbers. ``validate_config``
performs the full constraint check, including topology connectivity and
plan-time latency feasibility, without running a simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import netmodel, planner
from .netmodel import TopologyError

WH_TO_J = 3600.0

# Node and proxy endowments may not exceed one battery: 830 mAh at 3.7 V.
BATTERY_CAP_WH = 3.071

STRATEGIES = ("PDD", "PDD-CR", "DistrDataFwd")

FULL_HORIZON_CYCLES = 7_200_000   # 2000 hours at one-second cycles


@dataclass
class InterferenceConfig:
    prob_per_cycle: float = 0.001    # chance of an interference event each cycle
    multiplier: float = 2.5          # transient factor on the affected link's cost
    affected_links: int = 1          # directed links hit per event
    duration_cycles: int = 1         # cycles before the cost reverts


@dataclass
class ScenarioConfig:
    # topology
    rows: int = 3
    cols: int = 6
    spacing_m: float = 2.5
    range_m: float = 3.6
    proxies: tuple[int, ...] = (4, 7, 10, 13)
    # links & energy prices
    latency_ms_min: float = 8.0
    latency_ms_max: float = 12.0
    tx_energy_j: float = 50e-6
    controller_energy_j: float = 50e-3
    config_phase_energy_j: float = 5e-3
    # node endowments (specified in Wh, scaled once at load)
    node_energy_wh_min: float = 0.0
    node_energy_wh_max: float = 1.0
    proxy_energy_wh: float = 3.0
    energy_scale: float = 1.0 / 60.0
    # data
    consumer_fraction: float = 0.25
    rate_min: int = 1
    rate_max: int = 8
    request_prob: float = 0.05
    # protocol
    latency_budget_ms: float = 100.0
    trigger_threshold: float = 0.5
    route_ttl: int = 2
    # interference
    interference: InterferenceConfig = field(default_factory=InterferenceConfig)
    # run
    horizon: int = 20_000
    strategy: str = "DistrDataFwd"
    seed: int = 1
    forced_deaths: tuple[tuple[int, int], ...] = ()   # (cycle, node)
    trace: bool = False
    audit_energy: bool = False
    metrics_stride: int = 0   # 0 = automatic: every cycle up to 200k, thinned beyond

    def effective_metrics_stride(self) -> int:
        if self.metrics_stride > 0:
            return self.metrics_stride
        if self.horizon <= 200_000:
            return 1
        return max(1, self.horizon // 100_000)

    def network(self) -> netmodel.NetworkState:
        """The seeded grid this scenario runs on, with its endowments
        converted from Wh to J. The one place a scenario becomes a grid."""
        return netmodel.build_grid_topology(
            self.rows, self.cols, self.spacing_m, self.range_m,
            set(self.proxies), seed=self.seed,
            latency_ms=(self.latency_ms_min, self.latency_ms_max),
            tx_energy_j=self.tx_energy_j,
            node_energy_j=(self.node_energy_wh_min * WH_TO_J * self.energy_scale,
                           self.node_energy_wh_max * WH_TO_J * self.energy_scale),
            proxy_energy_j=self.proxy_energy_wh * WH_TO_J * self.energy_scale)

    def full_horizon(self) -> "ScenarioConfig":
        return replace(self, horizon=FULL_HORIZON_CYCLES, energy_scale=1.0)


class ScenarioParseError(ValueError):
    pass


@dataclass(frozen=True)
class Finding:
    severity: str   # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.field}: {self.message}"


# section -> key -> (attribute, converter)
def _int(s: str) -> int:
    return int(s)


def _float(s: str) -> float:
    return float(s)


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _id_list(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(part.strip()) for part in s.split(","))


def _death_list(s: str) -> tuple[tuple[int, int], ...]:
    s = s.strip()
    if not s:
        return ()
    out = []
    for part in s.split(","):
        cycle, _, node = part.strip().partition(":")
        if not _:
            raise ValueError(f"expected cycle:node, got {part.strip()!r}")
        out.append((int(cycle), int(node)))
    return tuple(out)


_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "topology": {
        "rows": ("rows", _int),
        "cols": ("cols", _int),
        "spacing_m": ("spacing_m", _float),
        "range_m": ("range_m", _float),
        "proxies": ("proxies", _id_list),
    },
    "links": {
        "latency_ms_min": ("latency_ms_min", _float),
        "latency_ms_max": ("latency_ms_max", _float),
        "tx_energy_j": ("tx_energy_j", _float),
        "controller_energy_j": ("controller_energy_j", _float),
        "config_phase_energy_j": ("config_phase_energy_j", _float),
    },
    "energy": {
        "node_wh_min": ("node_energy_wh_min", _float),
        "node_wh_max": ("node_energy_wh_max", _float),
        "proxy_wh": ("proxy_energy_wh", _float),
        "scale": ("energy_scale", _float),
    },
    "data": {
        "consumer_fraction": ("consumer_fraction", _float),
        "rate_min": ("rate_min", _int),
        "rate_max": ("rate_max", _int),
        "request_prob": ("request_prob", _float),
    },
    "protocol": {
        "latency_budget_ms": ("latency_budget_ms", _float),
        "trigger_threshold": ("trigger_threshold", _float),
        "route_ttl": ("route_ttl", _int),
    },
    "interference": {
        "prob": ("interference.prob_per_cycle", _float),
        "multiplier": ("interference.multiplier", _float),
        "affected_links": ("interference.affected_links", _int),
        "duration_cycles": ("interference.duration_cycles", _int),
    },
    "run": {
        "horizon": ("horizon", _int),
        "strategy": ("strategy", str),
        "seed": ("seed", _int),
        "trace": ("trace", _bool),
        "metrics_stride": ("metrics_stride", _int),
    },
    "events": {
        "forced_deaths": ("forced_deaths", _death_list),
    },
}


def parse_scenario(text: str, origin: str = "<scenario>") -> ScenarioConfig:
    """Parse a scenario document. Raises ScenarioParseError naming the line
    and field on the first problem (unknown key, bad value, repeated key,
    stray text)."""
    cfg = ScenarioConfig()
    interference = InterferenceConfig()
    section: str | None = None
    given: dict[str, int] = {}   # section.key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ScenarioParseError(
                    f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioParseError(
                f"{origin}:{lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ScenarioParseError(
                f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = _SCHEMA[section].get(key)
        if entry is None:
            raise ScenarioParseError(
                f"{origin}:{lineno}: unknown key {key!r} in [{section}]")
        name = f"{section}.{key}"
        if name in given:
            raise ScenarioParseError(
                f"{origin}:{lineno}: {name} repeats line {given[name]}")
        given[name] = lineno
        attr, conv = entry
        try:
            parsed = conv(value)
        except ValueError as exc:
            raise ScenarioParseError(
                f"{origin}:{lineno}: bad value for {section}.{key}: {exc}") from exc
        if attr.startswith("interference."):
            setattr(interference, attr.split(".", 1)[1], parsed)
        else:
            setattr(cfg, attr, parsed)
    cfg.interference = interference
    return cfg


_FORMAT = {
    _float: repr,
    _int: str,
    str: str,
    _bool: lambda b: str(b).lower(),
    _id_list: lambda ids: ", ".join(map(str, ids)),
    _death_list: lambda deaths: ", ".join(f"{c}:{n}" for c, n in deaths),
}


def render_scenario(cfg: ScenarioConfig) -> str:
    """Inverse of parse_scenario, written from the same schema. Floats render
    via repr, so a round trip reproduces the config exactly."""
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, (attr, conv) in keys.items():
            owner = cfg
            if attr.startswith("interference."):
                owner, attr = cfg.interference, attr.split(".", 1)[1]
            lines.append(f"{key} = {_FORMAT[conv](getattr(owner, attr))}")
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


# The ranges a run is defined on, as (key, test, message): reported by
# ``validate_config`` and raised by ``Simulation`` on the library path,
# where a run outside them would otherwise go on to its end without a word.
RUN_RULES = (
    ("data.request_prob", lambda cfg: 0.0 <= cfg.request_prob <= 1.0,
     "must lie in [0, 1]"),
    ("protocol.trigger_threshold",
     lambda cfg: 0.0 < cfg.trigger_threshold < 1.0, "must lie in (0, 1)"),
    ("protocol.route_ttl", lambda cfg: cfg.route_ttl >= 1, "must be >= 1"),
    ("interference.duration_cycles",
     lambda cfg: cfg.interference.duration_cycles >= 1, "must be >= 1"),
    ("run.horizon", lambda cfg: cfg.horizon >= 1, "must be >= 1"),
    # The engine tests the strategy by name, so an unknown one would run as
    # PDD under its own label.
    ("run.strategy", lambda cfg: cfg.strategy in STRATEGIES,
     f"unknown strategy; expected one of {', '.join(STRATEGIES)}"),
)


def run_rule_errors(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    """The key and message of every one of ``RUN_RULES`` that ``cfg``
    breaks, in table order."""
    return [(key, message) for key, holds, message in RUN_RULES
            if not holds(cfg)]


def validate_config(cfg: ScenarioConfig) -> list[Finding]:
    """Full constraint report without running: ranges, connectivity, and
    plan-time feasibility of the latency budget."""
    findings: list[Finding] = []

    def err(fieldname: str, message: str) -> None:
        findings.append(Finding("error", fieldname, message))

    def warn(fieldname: str, message: str) -> None:
        findings.append(Finding("warning", fieldname, message))

    for key, message in run_rule_errors(cfg):
        err(key, message)
    if cfg.rows * cfg.cols < 2:
        err("topology.rows/cols", "need at least two nodes")
    if cfg.spacing_m <= 0 or cfg.range_m <= 0:
        err("topology.spacing_m/range_m", "must be positive")
    if cfg.range_m < cfg.spacing_m:
        err("topology.range_m", "smaller than the grid spacing: disconnected topology")
    if not cfg.proxies:
        err("topology.proxies", "at least one proxy is required")
    node_count = cfg.rows * cfg.cols
    bad = [p for p in cfg.proxies if not 0 <= p < node_count]
    if bad:
        err("topology.proxies", f"ids outside the grid: {bad}")
    elif len(cfg.proxies) > node_count // 2:
        warn("topology.proxies", "more than half the nodes are proxies")

    if cfg.latency_ms_min <= 0 or cfg.latency_ms_max < cfg.latency_ms_min:
        err("links.latency_ms_min/max", "need 0 < min <= max")
    if cfg.tx_energy_j <= 0:
        err("links.tx_energy_j", "must be positive")
    if cfg.controller_energy_j < 0:
        err("links.controller_energy_j", "must be >= 0")
    elif cfg.controller_energy_j <= cfg.tx_energy_j:
        warn("links.controller_energy_j",
             "controller exchanges should cost far more than one-hop sends")
    if cfg.config_phase_energy_j < 0:
        err("links.config_phase_energy_j", "must be >= 0")

    if cfg.node_energy_wh_min < 0 or cfg.node_energy_wh_max < cfg.node_energy_wh_min:
        err("energy.node_wh_min/max", "need 0 <= min <= max")
    if cfg.node_energy_wh_max > BATTERY_CAP_WH:
        err("energy.node_wh_max", f"exceeds battery capacity {BATTERY_CAP_WH} Wh")
    if cfg.proxy_energy_wh > BATTERY_CAP_WH:
        err("energy.proxy_wh", f"exceeds battery capacity {BATTERY_CAP_WH} Wh")
    if cfg.proxy_energy_wh <= cfg.node_energy_wh_max:
        warn("energy.proxy_wh", "proxies should start far richer than normal nodes")
    if cfg.energy_scale <= 0:
        err("energy.scale", "must be positive")

    if not 0.0 < cfg.consumer_fraction <= 1.0:
        err("data.consumer_fraction", "must lie in (0, 1]")
    if cfg.rate_min < 0 or cfg.rate_max < cfg.rate_min:
        err("data.rate_min/max", "need 0 <= min <= max")

    if not 0 < cfg.latency_budget_ms < math.inf:
        err("protocol.latency_budget_ms", "must be positive and finite")

    inter = cfg.interference
    if not 0.0 <= inter.prob_per_cycle <= 1.0:
        err("interference.prob", "must lie in [0, 1]")
    if inter.multiplier < 1.0:
        err("interference.multiplier", "must be >= 1")
    if inter.affected_links < 1:
        err("interference.affected_links", "must be >= 1")
    if (inter.prob_per_cycle > 0 and 0 < cfg.trigger_threshold < 1
            and inter.multiplier <= 1.0 / (1.0 - cfg.trigger_threshold)):
        warn("interference.multiplier",
             "too small to ever fire the trigger at this threshold")

    if cfg.metrics_stride < 0:
        err("run.metrics_stride", "must be >= 0")
    for cycle, node in cfg.forced_deaths:
        if cycle < 0 or cycle >= cfg.horizon:
            err("events.forced_deaths", f"cycle {cycle} outside the horizon")
        if not 0 <= node < node_count:
            err("events.forced_deaths", f"node {node} outside the grid")

    if any(f.severity == "error" for f in findings):
        return findings

    # Connectivity and plan-time feasibility, on the actual seeded topology.
    try:
        net = cfg.network()
    except TopologyError as exc:
        err("topology", str(exc))
        return findings
    pieces = sample_pieces(cfg, net)
    if not pieces:
        warn("data.consumer_fraction", "no pieces sampled")
        return findings
    plan = planner.compute_plan(net, pieces, net.proxies,
                                cfg.latency_budget_ms, cfg.config_phase_energy_j)
    for pid in sorted(plan.infeasible):
        warn("protocol.latency_budget_ms",
             f"piece {pid} has no feasible plan: {plan.infeasible[pid]}")
    return findings


def sample_pieces(cfg: ScenarioConfig, net: netmodel.NetworkState) -> list[netmodel.DataPiece]:
    """Draw the piece population for a scenario: a consumer fraction of the
    normal nodes, each fetching from a random distinct source at a random
    integer rate. Deterministic in the scenario seed."""
    import random as _random

    rng = _random.Random(f"{cfg.seed}:pieces")
    normal = sorted(u for u in net.nodes if u not in net.proxies)
    if not normal:
        return []
    k = max(1, round(cfg.consumer_fraction * len(normal)))
    k = min(k, len(normal))
    consumers = rng.sample(normal, k)
    pieces = []
    for pid, consumer in enumerate(consumers):
        candidates = [u for u in normal if u != consumer]
        source = rng.choice(candidates)
        rate = rng.randint(cfg.rate_min, cfg.rate_max)
        pieces.append(netmodel.DataPiece(id=pid, source=source, consumer=consumer,
                                         rate=rate))
    return pieces


def is_valid(findings: list[Finding]) -> bool:
    return not any(f.severity == "error" for f in findings)
