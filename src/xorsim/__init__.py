"""XOR network-coding simulator for multi-hop wireless topologies."""

from .coding import Scheme, cope_can_code, excode_can_code, find_partner
from .metrics import CSV_COLUMNS, MetricsReport, csv_header, finalize
from .node import Node, Transmission
from .packet import (
    EncodedPacket,
    LengthMismatchError,
    NativePacket,
    NotConstituentError,
    PacketUid,
    SameFlowError,
    annotate_holders,
    xor_decode,
    xor_encode,
)
from .scenarios import (
    FIXTURES,
    chain_scenario,
    cross_scenario,
    junction_scenario,
    long_chain_scenario,
    random_flows,
    random_scenario,
)
from .simulator import (
    FlowSpec,
    Scenario,
    ScenarioInvalidError,
    Simulation,
    TraceLog,
    audit,
    audit_conservation,
    fifo_violations,
    run,
)
from .topology import NodeId, NoRouteError, Topology, build_topology, random_layout, shortest_path

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "EncodedPacket",
    "FIXTURES",
    "FlowSpec",
    "LengthMismatchError",
    "MetricsReport",
    "NativePacket",
    "Node",
    "NodeId",
    "NoRouteError",
    "NotConstituentError",
    "PacketUid",
    "SameFlowError",
    "Scenario",
    "ScenarioInvalidError",
    "Scheme",
    "Simulation",
    "Topology",
    "TraceLog",
    "Transmission",
    "annotate_holders",
    "audit",
    "audit_conservation",
    "build_topology",
    "chain_scenario",
    "cope_can_code",
    "cross_scenario",
    "csv_header",
    "excode_can_code",
    "fifo_violations",
    "finalize",
    "find_partner",
    "junction_scenario",
    "long_chain_scenario",
    "random_flows",
    "random_layout",
    "random_scenario",
    "run",
    "shortest_path",
    "xor_decode",
    "xor_encode",
]
