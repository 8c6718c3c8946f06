"""Per-run metrics and their CSV serialization."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .simulator import Simulation
from .topology import NodeId

# results.csv column -> MetricsReport attribute, in column order
COLUMN_ATTRS = {
    "scheme": "scheme",
    "seed": "seed",
    "flows": "flows",
    "offered_kbps": "offered_kbps",
    "throughput_kbps": "throughput_kbps",
    "encoded_frac": "encoded_fraction",
    "pdr": "delivery_ratio",
    "mean_delay_s": "mean_delay_s",
    "total_tx": "total_tx",
    "encodes": "encode_count",
    "decode_failures": "decode_failures",
}
CSV_COLUMNS = tuple(COLUMN_ATTRS)


class MetricsReport(NamedTuple):
    scheme: str
    seed: int
    flows: int
    duration: float
    generated: int
    delivered: int
    offered_kbps: float
    throughput_kbps: float
    encoded_fraction: float
    delivery_ratio: float
    mean_delay_s: Optional[float]  # absent when nothing was delivered
    total_tx: int
    encoded_tx: int
    encode_count: int
    decode_failures: int
    per_node_encodes: dict[NodeId, int]
    holder_bytes_total: int

    def csv_row(self) -> str:
        """One results.csv line: "" for None, str otherwise (str of a float
        is its repr, the shortest string that reads back the same float)."""
        values = (getattr(self, attr) for attr in COLUMN_ATTRS.values())
        return ",".join("" if v is None else str(v) for v in values)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def finalize(sim: Simulation) -> MetricsReport:
    """Reduce a finished run to its report from the delivery records and
    the per-flow counts. Every packet delivered, a corrupt one included,
    carried its flow's packet_size bytes. Delays are summed in delivery
    order."""
    scn = sim.scenario
    duration = scn.duration
    offered_bits = 8 * sum(n * f.packet_size for f, n in zip(scn.flows, sim.generated.counts))
    sizes = {f.flow: f.packet_size for f in scn.flows}
    delivered_bits = 8 * sum(sizes[flow] for flow, _ in sim.delivered)
    delay_sum = 0.0
    for at, pkt in sim.delivered.values():
        delay_sum += at - pkt.created_at
    n_delivered = len(sim.delivered)
    n_generated = len(sim.generated)
    total_tx = sim.total_tx
    return MetricsReport(
        scheme=str(scn.scheme),
        seed=scn.seed,
        flows=len(scn.flows),
        duration=duration,
        generated=n_generated,
        delivered=n_delivered,
        offered_kbps=offered_bits / duration / 1000.0,
        throughput_kbps=delivered_bits / duration / 1000.0,
        encoded_fraction=(sim.tx_encoded / total_tx) if total_tx else 0.0,
        delivery_ratio=(n_delivered / n_generated) if n_generated else 1.0,
        mean_delay_s=(delay_sum / n_delivered) if n_delivered else None,
        total_tx=total_tx,
        encoded_tx=sim.tx_encoded,
        encode_count=sim.encode_count,
        decode_failures=sim.decode_failures,
        per_node_encodes=dict(sorted(sim.per_node_encodes.items())),
        holder_bytes_total=sim.holder_bytes_total,
    )
