"""Energy-aware data forwarding simulator for industrial IoT grids.

Library surface: build a topology, sample or hand-craft pieces, plan paths
centrally, and run any of the three forwarding strategies deterministically.
"""

from .engine import (EngineError, Metrics, Simulation, inject_interference,
                     run_simulation, sample_access_latency)
from .lifetime import (INFINITE_LIFETIME, lifetime_from_spend, max_epoch_duration,
                       node_spend, trigger_check)
from .netmodel import (DataPiece, LinkState, NetworkState, NodeId, NodeState,
                       PathRow, PathTable, TopologyError, build_grid_topology,
                       install_path, validate_paths, walk_chain)
from .planner import (Plan, PiecePlan, PlannerView, PlanningError,
                      bottleneck_path, compute_plan, path_bottleneck)
from .protocol import (Alert, Join, ModifyPath, PlanMsg, ProtocolState,
                       RouteReply, RouteRequest, StatusMsg, disconnect,
                       handle_alert, join_path, local_aodv_plus,
                       local_path_config, modify_path, node_cycle)
from . import protocol
from .scenario import (STRATEGIES, Finding, InterferenceConfig, ScenarioConfig,
                       ScenarioParseError, is_valid, parse_scenario,
                       render_scenario, sample_pieces, validate_config)

__all__ = [
    "Alert", "DataPiece", "EngineError", "Finding", "INFINITE_LIFETIME",
    "InterferenceConfig", "Join", "LinkState", "Metrics", "ModifyPath",
    "NetworkState", "NodeId", "NodeState", "PathRow", "PathTable", "Plan",
    "PlanMsg", "PiecePlan", "PlannerView", "PlanningError", "ProtocolState",
    "RouteReply", "RouteRequest", "STRATEGIES", "ScenarioConfig",
    "ScenarioParseError", "Simulation", "StatusMsg",
    "TopologyError", "bottleneck_path",
    "build_grid_topology", "compute_plan", "disconnect",
    "handle_alert", "inject_interference", "install_path", "is_valid", "join_path",
    "lifetime_from_spend", "local_aodv_plus", "local_path_config",
    "max_epoch_duration", "modify_path", "node_cycle",
    "node_spend", "parse_scenario", "path_bottleneck", "protocol",
    "render_scenario", "run_simulation", "sample_access_latency",
    "sample_pieces", "trigger_check", "validate_config",
    "validate_paths", "walk_chain",
]

__version__ = "0.1.0"
