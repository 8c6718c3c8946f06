"""Command-line front end: config loading, sweep runs, CSV and SVG output.

Config files are YAML with nested sections (`topology`, `flows`, `channel`,
`sweep`); anything omitted falls back to the standard 16-node defaults. See
the README for the full schema.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import yaml

from .coding import Scheme
from .metrics import COLUMN_ATTRS, MetricsReport, csv_header, finalize
from .scenarios import DEFAULT_NODES, DEFAULT_RANGE, DEFAULT_SIDE, random_flows
from .simulator import (
    DEFAULT_CHANNEL_RATE,
    DEFAULT_DURATION,
    DEFAULT_PACKET_SIZE,
    FlowSpec,
    Scenario,
    ScenarioInvalidError,
    Simulation,
)
from .topology import build_topology, random_layout

# the unit-disk adjacency is built pairwise and can hold nodes**2 entries
MAX_NODES = 1_000
MAX_PACKET_SIZE = 65_535  # bytes, the largest IP datagram
# every packet a cell generates stays in memory until the run ends
MAX_PACKETS = 1_000_000
MAX_FLOWS = 10_000  # each flow costs a route search before its first packet

# (results.csv column the chart is named after, axis label)
CHART_METRICS = (
    ("throughput_kbps", "delivered payload (kb/s)"),
    ("encoded_frac", "encoded transmission fraction"),
    ("pdr", "packet delivery ratio"),
    ("mean_delay_s", "mean end-to-end delay (s)"),
)


class ValidationError(Exception):
    """Bad config file: message names the offending key."""


@dataclass
class ExperimentPlan:
    """The base scenario knobs plus one list per sweep axis; run_plan runs
    every flow count x rate x scheme x seed."""

    nodes: int = DEFAULT_NODES
    side: float = DEFAULT_SIDE
    radio_range: float = DEFAULT_RANGE
    topology_seed: Optional[int] = None
    positions: Optional[list[tuple[float, float]]] = None
    packet_size: int = DEFAULT_PACKET_SIZE
    explicit_flows: Optional[tuple[FlowSpec, ...]] = None
    channel_rate: float = DEFAULT_CHANNEL_RATE
    duration: float = DEFAULT_DURATION
    count_header_overhead: bool = False
    drain_grace: float = 0.0
    flow_counts: list[int] = field(default_factory=lambda: [2])
    rates: list[float] = field(default_factory=lambda: [5.0])
    schemes: list[Scheme] = field(default_factory=lambda: list(Scheme))
    seeds: list[int] = field(default_factory=lambda: [0])


def parse_scheme(name: str, key: str = "scheme") -> Scheme:
    try:
        return Scheme(name)
    except ValueError:
        valid = ", ".join(s.value for s in Scheme)
        raise ValidationError(f"{key}: unknown scheme {name!r} (valid: {valid})") from None


def load_config(path) -> ExperimentPlan:
    """Parse and validate a YAML config file into an ExperimentPlan."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: integers over 4300 digits
        raise ValidationError(f"config parse error: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a mapping")

    plan = ExperimentPlan()
    known = {"topology", "flows", "channel", "sweep", "scheme", "seed", "duration",
             "count_header_overhead", "drain_grace"}
    for key in raw:
        if key not in known:
            raise ValidationError(f"unknown config key: {key}")

    topo = _section(raw, "topology", {"nodes", "side", "range", "seed", "positions"})
    plan.nodes = _num("topology.nodes", topo.get("nodes", plan.nodes), int, minimum=1, maximum=MAX_NODES)
    plan.side = _num("topology.side", topo.get("side", plan.side), float, minimum=1e-9)
    plan.radio_range = _num("topology.range", topo.get("range", plan.radio_range), float, minimum=1e-9)
    if "seed" in topo:
        plan.topology_seed = _num("topology.seed", topo["seed"], int)
    if "positions" in topo:
        for key in ("nodes", "side", "seed"):
            if key in topo:
                raise ValidationError(f"topology.{key} cannot be combined with topology.positions")
        pos = topo["positions"]
        if not isinstance(pos, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pos
        ):
            raise ValidationError("topology.positions must be a list of [x, y] pairs")
        if len(pos) > MAX_NODES:
            raise ValidationError(f"topology.positions must have at most {MAX_NODES} entries")
        plan.positions = [
            tuple(_num(f"topology.positions[{i}]", v, float) for v in p) for i, p in enumerate(pos)
        ]
        plan.nodes = len(plan.positions)

    flows = _section(raw, "flows", {"count", "rate", "packet_size", "list"})
    sweep = _section(raw, "sweep", {"flows", "rates", "schemes", "seeds"})
    if "flows" in sweep and "rates" in sweep:
        raise ValidationError("sweep: give either flows or rates, not both")
    # each axis is its sweep list, else its one-value key as a one-element list
    for name, axis, scalars, scalar_key, parse in (
        ("flow_counts", "flows", flows, "flows.count", lambda k, v: _num(k, v, int, 0, MAX_FLOWS)),
        ("rates", "rates", flows, "flows.rate", lambda k, v: _num(k, v, float, minimum=1e-9)),
        ("schemes", "schemes", raw, "scheme", lambda k, v: parse_scheme(str(v), k)),
        ("seeds", "seeds", raw, "seed", lambda k, v: _num(k, v, int)),
    ):
        key = scalar_key.rpartition(".")[2]
        if axis in sweep:
            if key in scalars:
                raise ValidationError(f"{scalar_key} cannot be combined with sweep.{axis}")
            values = _as_list(sweep[axis], f"sweep.{axis}")
            setattr(plan, name, [parse(f"sweep.{axis}", v) for v in values])
        elif key in scalars:
            setattr(plan, name, [parse(scalar_key, scalars[key])])

    plan.packet_size = _num("flows.packet_size", flows.get("packet_size", plan.packet_size), int,
                            minimum=1, maximum=MAX_PACKET_SIZE)
    if "list" in flows:
        if "count" in flows:
            raise ValidationError("flows.count cannot be combined with flows.list")
        for axis in ("flows", "rates"):
            if axis in sweep:
                raise ValidationError(f"sweep.{axis} cannot be combined with flows.list")
        if not isinstance(flows["list"], list):
            raise ValidationError("flows.list must be a list of flow mappings")
        if len(flows["list"]) > MAX_FLOWS:
            raise ValidationError(f"flows.list must have at most {MAX_FLOWS} entries")
        plan.explicit_flows = tuple(_flow_from_mapping(i, m, plan) for i, m in enumerate(flows["list"]))
        first_index: dict[int, int] = {}  # flow id -> the first entry that set it
        for i, f in enumerate(plan.explicit_flows):
            first = first_index.setdefault(f.flow, i)
            if first != i:
                raise ValidationError(f"flows.list[{i}].flow must differ from flows.list[{first}].flow")

    channel = _section(raw, "channel", {"rate_bps"})
    plan.channel_rate = _num("channel.rate_bps", channel.get("rate_bps", plan.channel_rate), float, minimum=1e-9)

    plan.duration = _num("duration", raw.get("duration", plan.duration), float, minimum=1e-9)
    plan.drain_grace = _num("drain_grace", raw.get("drain_grace", plan.drain_grace), float, minimum=0.0)
    if "count_header_overhead" in raw:
        if not isinstance(raw["count_header_overhead"], bool):
            raise ValidationError("count_header_overhead must be true or false")
        plan.count_header_overhead = raw["count_header_overhead"]

    if plan.explicit_flows is not None:
        keys = "the sum of flows.list[i].rate x duration"
        packets = sum(f.rate * plan.duration for f in plan.explicit_flows)
    else:
        count_key = "sweep.flows" if "flows" in sweep else "flows.count"
        rate_key = "sweep.rates" if "rates" in sweep else "flows.rate"
        keys = f"{count_key} x {rate_key} x duration"
        packets = max(plan.flow_counts) * max(plan.rates) * plan.duration
    if packets > MAX_PACKETS:
        raise ValidationError(f"{keys} is {packets:.6g} packets in one cell, more than {MAX_PACKETS:,}")
    return plan


def _section(raw: dict, name: str, known: set) -> dict:
    sec = raw.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ValidationError(f"{name} must be a mapping")
    for key in sec:
        if key not in known:
            raise ValidationError(f"unknown config key: {name}.{key}")
    return sec


def _as_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{key} must be a non-empty list")
    return value


def _num(key: str, value, kind, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if isinstance(value, str) and _is_float_text(value):
            raise ValidationError(f"{key} must be a number, but YAML read {value!r} as text: "
                                  "write it unquoted, with a signed exponent such as 1.0e+12")
        raise ValidationError(f"{key} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{key} must be finite")
    if kind is int and int(value) != value:
        raise ValidationError(f"{key} must be an integer")
    try:
        value = kind(value)
    except OverflowError:
        raise ValidationError(f"{key} is too large") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{key} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{key} must be <= {maximum}")
    return value


def _is_float_text(text: str) -> bool:
    """YAML 1.1 reads an exponent without a sign (1.0e12) as a string."""
    try:
        float(text)
    except ValueError:
        return False
    return True


# -- scenario assembly -------------------------------------------------------


def build_scenario(plan: ExperimentPlan, scheme: Scheme, seed: int, n_flows: int, rate: float) -> Scenario:
    """One sweep field (node layout, unit-disk topology, flows) as a scenario
    of the given scheme, built without trace capture. run_plan builds each
    field once and runs every scheme on it."""
    if plan.positions is not None:
        positions = plan.positions
    else:
        tseed = plan.topology_seed if plan.topology_seed is not None else seed
        positions = random_layout(plan.nodes, plan.side, tseed)
    topo = build_topology(positions, plan.radio_range)
    if plan.explicit_flows is not None:
        flows = plan.explicit_flows
    else:
        flows = random_flows(topo, n_flows, rate, plan.packet_size, seed)
    return Scenario(
        topology=topo,
        flows=flows,
        scheme=scheme,
        duration=plan.duration,
        channel_rate=plan.channel_rate,
        seed=seed,
        count_header_overhead=plan.count_header_overhead,
        drain_grace=plan.drain_grace,
        capture_trace=False,
    )


def _flow_from_mapping(index: int, m, plan: ExperimentPlan) -> FlowSpec:
    prefix = f"flows.list[{index}]"
    if not isinstance(m, dict):
        raise ValidationError(f"{prefix} must be a mapping")
    for key in m:
        if key not in {"flow", "src", "dst", "rate", "packet_size", "start", "stop"}:
            raise ValidationError(f"unknown config key: {prefix}.{key}")
    for key in ("src", "dst"):
        if key not in m:
            raise ValidationError(f"{prefix} missing key '{key}'")

    def num(key: str, kind, default=None, **bounds):
        return _num(f"{prefix}.{key}", m.get(key, default), kind, **bounds)

    src = num("src", int, minimum=0, maximum=plan.nodes - 1)
    dst = num("dst", int, minimum=0, maximum=plan.nodes - 1)
    if src == dst:
        raise ValidationError(f"{prefix}.dst must differ from {prefix}.src")
    start = num("start", float, 0.0, minimum=0.0)
    return FlowSpec(
        flow=num("flow", int, index),
        src=src,
        dst=dst,
        rate=num("rate", float, plan.rates[0], minimum=1e-9),
        packet_size=num("packet_size", int, plan.packet_size, minimum=1, maximum=MAX_PACKET_SIZE),
        start=start,
        stop=None if m.get("stop") is None else num("stop", float, minimum=start),
    )


# -- sweep execution ---------------------------------------------------------


def run_plan(plan: ExperimentPlan, out_dir) -> list[MetricsReport]:
    """Run the whole sweep, write results.csv and one SVG per metric.

    Each (flow count, rate, seed) field is built once and every scheme runs
    on it, so the schemes share one layout, its routes and its flows.
    Fields run on W processes, W the smaller of the CPUs in the affinity set
    and the number of fields: field i runs in process i % W, the parent
    being process 0. Each of the W - 1 workers runs its fields in order and
    puts each one's finished runs on one queue; the parent, on its own
    thread, takes what is there after each of its own fields, waits for the
    rest at the end, and finalizes every cell. With one CPU, one field or a
    daemonic caller (a multiprocessing.Pool worker cannot have children)
    every field runs in the parent and no process or queue is made. A
    ScenarioInvalidError is the first failing field's, as in one process; a
    worker that exits with fields unreturned (any other error ends it)
    raises RuntimeError, and none outlives the call. Reports and rows come
    in flow count x rate x scheme x seed order. No scheme builds no field
    and writes only the csv header."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fields = list(itertools.product(plan.flow_counts, plan.rates, plan.seeds)) if plan.schemes else []
    procs = _process_count(len(fields))
    by_field: list[Optional[list[MetricsReport]]] = [None] * len(fields)  # one report per scheme
    failed: dict[int, ScenarioInvalidError] = {}  # field index -> what it raised
    waiting = {i for i in range(len(fields)) if i % procs}  # worker fields not yet returned

    def settle(i, simulations) -> None:
        waiting.discard(i)
        if isinstance(simulations, ScenarioInvalidError):  # a worker's first failure: it stops there
            failed[i] = simulations
        elif not failed or i < min(failed):  # a one-process run stops at the first failing field
            try:
                by_field[i] = [finalize(sim) for sim in simulations]
            except ScenarioInvalidError as exc:
                failed[i] = exc

    workers = []  # those started, worker k at k - 1
    if procs > 1:
        import multiprocessing
        import queue

        results = multiprocessing.Queue()
    try:
        for k in range(1, procs):
            worker = multiprocessing.Process(target=_run_share, args=(plan, fields, k, procs, results), daemon=True)
            worker.start()
            workers.append(worker)
        for i in range(0, len(fields), procs):
            settle(i, _field_simulations(plan, *fields[i]))
            while waiting and not results.empty():  # only with workers: take what is there
                settle(*results.get())
        while missing := sorted(i for i in waiting if i < min(failed, default=len(fields))):
            try:
                settle(*results.get(timeout=0.1))
            except queue.Empty:
                codes = {i: workers[i % procs - 1].exitcode for i in missing}  # before the queue is polled again
                lost = [i for i in missing if codes[i] is not None]
                if lost and results.empty():  # all a worker put before it exited is on the queue
                    raise RuntimeError(f"sweep worker {lost[0] % procs} exited with code {codes[lost[0]]} before "
                                       f"returning field {lost[0]}, (flows, rate, seed) = {fields[lost[0]]}") from None
    finally:
        for worker in workers:
            worker.terminate()  # no effect on one that has exited
            worker.join()
    if failed:
        raise failed[min(failed)]

    cells = range(len(plan.flow_counts) * len(plan.rates))  # fields are cell-major, seed-minor
    n_seeds = len(plan.seeds)
    reports = [by_field[cell * n_seeds + k][s]
               for cell, s, k in itertools.product(cells, range(len(plan.schemes)), range(n_seeds))]

    csv_path = out / "results.csv"
    with open(csv_path, "w") as fh:
        fh.write(csv_header() + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
    write_charts(reports, out)
    return reports


def _process_count(fields: int) -> int:
    """Processes for a sweep of this many fields, the parent included."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    procs = min(cpus, fields)
    if procs > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return max(procs, 1)


def _field_simulations(plan: ExperimentPlan, n_flows: int, rate: float, seed: int):
    """Build one field and yield each scheme's finished run on it, in the
    plan's scheme order."""
    scenario = build_scenario(plan, plan.schemes[0], seed, n_flows, rate)
    for scheme in plan.schemes:
        yield Simulation(replace(scenario, scheme=scheme)).run()


def _run_share(plan: ExperimentPlan, fields: list, k: int, procs: int, results) -> None:
    """Sweep worker k of procs: put (i, finished runs) on results for fields
    i = k, k + procs, ... in turn; at a ScenarioInvalidError put (i, it), stop."""
    for i in range(k, len(fields), procs):
        try:
            results.put((i, list(_field_simulations(plan, *fields[i]))))
        except ScenarioInvalidError as exc:
            results.put((i, exc))
            return


def write_charts(reports: list[MetricsReport], out: Path) -> None:
    """One chart per metric: x = offered load, one line per scheme, one point
    per sweep cell (flow count, offered load) with its seeds averaged.
    Generated straight from the report values."""
    by_scheme: dict[str, dict[tuple[int, float], list[MetricsReport]]] = {}
    for rep in reports:
        by_scheme.setdefault(rep.scheme, {}).setdefault((rep.flows, rep.offered_kbps), []).append(rep)

    for column, label in CHART_METRICS:
        attr = COLUMN_ATTRS[column]
        series: dict[str, list[tuple[float, float]]] = {}
        for scheme, groups in sorted(by_scheme.items()):
            pts = []
            for cell in sorted(groups):
                reps = groups[cell]
                xs = [r.offered_kbps for r in reps]
                ys = [getattr(r, attr) for r in reps]
                ys = [y for y in ys if y is not None]
                if not ys:
                    continue
                pts.append((sum(xs) / len(xs), sum(ys) / len(ys)))
            if pts:
                series[scheme] = pts
        write_svg_chart(out / f"{column}.svg", label, "offered load (kb/s)", label, series)


SCHEME_COLORS = {"excode": "#c0392b", "cope": "#2471a3", "none": "#7d7d7d"}


def write_svg_chart(path, title: str, xlabel: str, ylabel: str,
                    series: dict[str, list[tuple[float, float]]]) -> None:
    """Tiny hand-rolled SVG line chart; byte-stable for identical inputs."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points] or [0.0, 1.0]
    ys = [p[1] for p in points] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(min(ys), 0.0), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y: float) -> float:
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    def fmt(v: float) -> str:
        return f"{v:.6g}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        out.append(
            f'<text x="{px(xv):.1f}" y="{mt + ph + 16}" text-anchor="middle">{fmt(xv)}</text>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{py(yv) + 4:.1f}" text-anchor="end">{fmt(yv)}</text>'
        )
        if i:
            out.append(
                f'<line x1="{ml}" y1="{py(yv):.1f}" x2="{ml + pw}" y2="{py(yv):.1f}" '
                f'stroke="#dddddd"/>'
            )
    legend_y = mt + 6
    for name, pts in sorted(series.items()):
        color = SCHEME_COLORS.get(name, "#27ae60")
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        out.append(
            f'<rect x="{ml + pw - 110}" y="{legend_y}" width="12" height="12" fill="{color}"/>'
        )
        out.append(f'<text x="{ml + pw - 92}" y="{legend_y + 10}">{name}</text>')
        legend_y += 18
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


# -- figures ----------------------------------------------------------------


def figures_command(out_dir) -> int:
    # relays must be kept busy for coding windows to open, so the sweep
    # drives them well past the ~488 pkt/s a 512-byte 2 Mb/s channel serves
    plan = ExperimentPlan(duration=4.0, rates=[150.0], flow_counts=[2, 4, 6, 8],
                          seeds=list(range(5)))
    run_plan(plan, out_dir)
    print(f"wrote {Path(out_dir) / 'results.csv'} and charts")
    return 0


# -- entry point -------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="xorsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the sweep described by a config file")
    run_p.add_argument("--config", required=True, help="YAML config file")
    run_p.add_argument("--scheme", choices=[s.value for s in Scheme],
                       help="run only this scheme, overriding the config")
    run_p.add_argument("--seed", type=int, help="run only this seed, overriding the config")
    run_p.add_argument("--out", default="results", help="output directory")

    fig_p = sub.add_parser("figures", help="run a saturating sweep and emit its charts")
    fig_p.add_argument("--out", default="figures", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            plan = load_config(args.config)
            if args.scheme is not None:
                plan.schemes = [parse_scheme(args.scheme)]
            if args.seed is not None:
                plan.seeds = [args.seed]
            reports = run_plan(plan, args.out)
            print(f"wrote {len(reports)} runs to {Path(args.out) / 'results.csv'}")
            return 0
        return figures_command(args.out)
    except (ValidationError, ScenarioInvalidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
