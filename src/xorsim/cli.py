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
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from operator import ge, gt, le
from pathlib import Path
from typing import Optional

import yaml

from .coding import Scheme
from .metrics import COLUMN_ATTRS, MetricsReport, csv_header, finalize
from .scenarios import DEFAULT_NODES, DEFAULT_RANGE, DEFAULT_SIDE, random_flows
from .simulator import (
    MAX_PACKETS,
    SYMBOLS,
    FlowSpec,
    Scenario,
    ScenarioInvalidError,
    Simulation,
    check_field,
    check_flows,
    packet_count,
)
from .topology import build_topology, random_layout

# the unit-disk adjacency is built pairwise and can hold nodes**2 entries
MAX_NODES = 1_000
MAX_FLOWS = 10_000  # each flow costs a route search before its first packet
NON_EMPTY = (ge, 1)  # a bound on a list key's length: each sweep list, and topology.positions

# (results.csv column the chart is named after, axis label)
CHART_METRICS = (
    ("throughput_kbps", "delivered payload (kb/s)"),
    ("encoded_frac", "encoded transmission fraction"),
    ("pdr", "packet delivery ratio"),
    ("mean_delay_s", "mean end-to-end delay (s)"),
)


def _position(key: str, index: int, p, plan: ExperimentPlan) -> tuple[float, float]:
    if not isinstance(p, list) or len(p) != 2:
        raise ScenarioInvalidError(f"{key} must be an [x, y] pair")
    return tuple(check_field(COORDINATE, key, _number(key, v)) for v in p)


def _flow_from_mapping(key: str, index: int, m, plan: ExperimentPlan) -> FlowSpec:
    """A flows.list entry as a FlowSpec, unchecked (load_config checks it): flow defaults to the entry's
    index, rate and packet_size to the plan's flows.rate and flows.packet_size."""
    if not isinstance(m, dict):
        raise ScenarioInvalidError(f"{key} must be a mapping")
    for name in m:
        if name not in FLOW:
            raise ScenarioInvalidError(f"unknown config key: {key}.{name}")
    for name in ("src", "dst"):
        if name not in m:
            raise ScenarioInvalidError(f"{key} missing key '{name}'")
    given = {name: _number(f"{key}.{name}", value) for name, value in m.items()}
    return FlowSpec(**{"flow": index, "rate": plan.rates[0], "packet_size": plan.packet_size, **given})


def _key(key: Optional[str], kind, *bounds: tuple, default=MISSING, sweep: Optional[str] = None):
    """An ExperimentPlan field with the one statement of the config key that
    sets it: the key and its rule, a kind and bounds as simulator._rule
    declares them, or the Scenario or FlowSpec field whose rule and default
    it takes. A list kind is a reader, called as kind(entry key, index,
    entry, plan) on each entry, its bounds on the list's length. A sweep axis
    holds a list: key gives its one value, and each entry of sweep is read as key is."""
    if isinstance(kind, Field):
        default = kind.default if default is MISSING else default
        kind, bounds = kind.metadata["kind"], kind.metadata["bounds"]
    meta = {"key": key, "kind": kind, "bounds": bounds, "sweep": sweep}
    if sweep:  # the axis's values, or its one value
        return field(default_factory=(default if isinstance(default, list) else [default]).copy, metadata=meta)
    return field(default=default, metadata=meta)


# each Scenario field, and each FlowSpec field (a flows.list entry key), by name
SCENARIO, FLOW = ({f.name: f for f in fields(cls)} for cls in (Scenario, FlowSpec))
COORDINATE = _key(None, float)  # the rule of each x and y in topology.positions


@dataclass
class ExperimentPlan:
    """The base scenario knobs plus one list per sweep axis; run_plan runs
    every flow count x rate x scheme x seed. load_config sets the fields in
    this order, so a flows.list entry finds its defaults already read."""

    nodes: int = _key("topology.nodes", int, (ge, 1), (le, MAX_NODES), default=DEFAULT_NODES)
    side: float = _key("topology.side", float, (gt, 0), default=DEFAULT_SIDE)
    radio_range: float = _key("topology.range", float, (gt, 0), default=DEFAULT_RANGE)
    topology_seed: Optional[int] = _key("topology.seed", int, default=None)
    positions: Optional[tuple[tuple[float, float], ...]] = _key("topology.positions", _position, NON_EMPTY,
                                                                 (le, MAX_NODES), default=None)
    packet_size: int = _key("flows.packet_size", FLOW["packet_size"])
    channel_rate: float = _key("channel.rate_bps", SCENARIO["channel_rate"])
    duration: float = _key("duration", SCENARIO["duration"])
    count_header_overhead: bool = _key("count_header_overhead", SCENARIO["count_header_overhead"])
    drain_grace: float = _key("drain_grace", SCENARIO["drain_grace"])
    flow_counts: list[int] = _key("flows.count", int, (ge, 0), (le, MAX_FLOWS), default=2, sweep="sweep.flows")
    rates: list[float] = _key("flows.rate", FLOW["rate"], default=5.0, sweep="sweep.rates")
    schemes: list[Scheme] = _key("scheme", Scheme, default=list(Scheme), sweep="sweep.schemes")
    seeds: list[int] = _key("seed", SCENARIO["seed"], sweep="sweep.seeds")
    explicit_flows: Optional[tuple[FlowSpec, ...]] = _key("flows.list", _flow_from_mapping, (le, MAX_FLOWS),
                                                          default=None)


PLAN_FIELDS = fields(ExperimentPlan)
# every config key ("section.name", or "name" at the root) -> the field it sets
KEYS = {k: f for f in PLAN_FIELDS for k in (f.metadata["key"], f.metadata["sweep"]) if k}
SECTIONS = {key.partition(".")[0] for key in KEYS if "." in key}


def parse_scheme(name: str, key: str = "scheme") -> Scheme:
    try:
        return Scheme(name)
    except ValueError:
        valid = ", ".join(s.value for s in Scheme)
        raise ScenarioInvalidError(f"{key}: unknown scheme {name!r} (valid: {valid})") from None


def load_config(path) -> ExperimentPlan:
    """Parse and validate a YAML config file into an ExperimentPlan."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioInvalidError(f"cannot read config: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: integers over 4300 digits
        raise ScenarioInvalidError(f"config parse error: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioInvalidError("config root must be a mapping")

    given = {}  # each key the config sets, spelt as in KEYS -> its value
    for key, value in raw.items():
        if key in SECTIONS:
            if value is None:
                value = {}
            if not isinstance(value, dict):
                raise ScenarioInvalidError(f"{key} must be a mapping")
            given.update((f"{key}.{name}", v) for name, v in value.items())
        elif key in KEYS and "." not in key:
            given[key] = value
        else:
            raise ScenarioInvalidError(f"unknown config key: {key}")
    for key in given:
        if key not in KEYS:
            raise ScenarioInvalidError(f"unknown config key: {key}")
    if "sweep.flows" in given and "sweep.rates" in given:
        raise ScenarioInvalidError("sweep: give either flows or rates, not both")

    plan = ExperimentPlan()
    for f in PLAN_FIELDS:
        key, sweep = f.metadata["key"], f.metadata["sweep"]
        if sweep in given:  # each axis is its sweep list, else its one-value key
            if key in given:
                raise ScenarioInvalidError(f"{key} cannot be combined with {sweep}")
            setattr(plan, f.name, [_read(sweep, v, f, plan) for v in _entries(sweep, given[sweep], (NON_EMPTY,))])
        elif key in given:
            value = _read(key, given[key], f, plan)
            setattr(plan, f.name, [value] if sweep else value)

    # the rules that tie one key to another
    if plan.positions is not None:
        for key in ("topology.nodes", "topology.side", "topology.seed"):
            if key in given:
                raise ScenarioInvalidError(f"{key} cannot be combined with topology.positions")
        plan.nodes = len(plan.positions)
    if plan.explicit_flows is not None:
        for key in ("flows.count", "sweep.flows", "sweep.rates"):
            if key in given:
                raise ScenarioInvalidError(f"{key} cannot be combined with flows.list")
        plan.explicit_flows = check_flows(plan.explicit_flows, plan.nodes, "flows.list")
        keys, packets = "flows.list over duration", packet_count(plan.explicit_flows, plan.duration)
    else:
        count_key = "sweep.flows" if "sweep.flows" in given else "flows.count"
        rate_key = "sweep.rates" if "sweep.rates" in given else "flows.rate"
        keys = f"{count_key} x {rate_key} x duration"
        packets = max(plan.flow_counts) * max(plan.rates) * plan.duration
    if packets > MAX_PACKETS:
        raise ScenarioInvalidError(f"{keys} is {packets:.6g} packets in one cell, more than {MAX_PACKETS:,}")
    return plan


def _read(key: str, value, declared: Field, plan: ExperimentPlan):
    """value, given for config key, read by the rule of the plan field declared: a scheme by its name,
    a number or bool by check_field, a list entry by entry."""
    kind = declared.metadata["kind"]
    if kind is Scheme:
        return parse_scheme(str(value), key)
    if isinstance(kind, type):
        return check_field(declared, key, value if kind is bool else _number(key, value))
    entries = _entries(key, value, declared.metadata["bounds"])
    return tuple(kind(f"{key}[{i}]", i, entry, plan) for i, entry in enumerate(entries))


def _entries(key: str, value, bounds) -> list:
    """value as a list whose length passes bounds, such as (NON_EMPTY,)."""
    if not isinstance(value, list):
        raise ScenarioInvalidError(f"{key} must be a list")
    for op, limit in bounds:
        if not op(len(value), limit):
            raise ScenarioInvalidError(f"{key} must be a non-empty list" if (op, limit) == NON_EMPTY
                                  else f"{key} must have {SYMBOLS[op]} {limit} entries")
    return value


def _number(key: str, value):
    """value, given for a number: YAML 1.1 reads an exponent without a sign
    (1.0e12) as text, and such text is refused with the way to write it."""
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return value
        raise ScenarioInvalidError(f"{key} must be a number, but YAML read {value!r} as text: "
                              "write it unquoted, with a signed exponent such as 1.0e+12")
    return value


# -- scenario assembly -------------------------------------------------------


def build_scenario(plan: ExperimentPlan, scheme: Scheme, seed: int, n_flows: int, rate: float) -> Scenario:
    """One sweep field (node layout, unit-disk topology, flows) as a scenario
    of the given scheme, built without trace capture. run_plan builds each
    field once and runs every scheme on it. An unroutable flows.list entry is
    named, with the seed of the random layout that cut it."""
    tseed = plan.topology_seed if plan.topology_seed is not None else seed
    positions = plan.positions if plan.positions is not None else random_layout(plan.nodes, plan.side, tseed)
    topo = build_topology(positions, plan.radio_range)
    if plan.explicit_flows is not None:
        flows = plan.explicit_flows
        for i, f in enumerate(flows):  # routing reuses each BFS table
            if topo.distances_to(f.dst)[f.src] == math.inf:
                layout = "" if plan.positions is not None else f" in the layout of seed {tseed}"
                raise ScenarioInvalidError(f"flows.list[{i}]: no route from {f.src} to {f.dst}{layout}")
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


# -- sweep execution ---------------------------------------------------------


def run_plan(plan: ExperimentPlan, out_dir) -> list[MetricsReport]:
    """Run the whole sweep, write results.csv and one SVG per metric.

    Each (flow count, rate, seed) field is built once and every scheme runs
    on it, so the schemes share one layout, its routes and its flows. The
    schemes run widest first, and a run that coded nothing stands in for
    the narrower ones (see stands_in_for_narrower). Fields run on W
    processes, W the smaller of the CPUs in the affinity set and the number
    of fields: field i runs in process i % W, the parent being process 0.
    Each of the W - 1 workers runs its fields in order and puts the runs it
    made for each one on one queue; the parent, on its own thread, takes
    what is there after each of its own fields, waits for the rest at the
    end, and finalizes every cell, stand-ins included. With one CPU, one
    field or a daemonic caller (a multiprocessing.Pool worker cannot have
    children) every field runs in the parent and no process or queue is
    made. A ScenarioInvalidError is the first failing field's, as in one
    process; a worker that exits with fields unreturned (any other error
    ends it) raises RuntimeError, and none outlives the call. Reports and
    rows come in flow count x rate x scheme x seed order. No scheme builds
    no field and writes only the csv header."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fields = list(itertools.product(plan.flow_counts, plan.rates, plan.seeds)) if plan.schemes else []
    procs = _process_count(len(fields))
    by_field: list[Optional[list[MetricsReport]]] = [None] * len(fields)  # one report per scheme
    failed: dict[int, ScenarioInvalidError] = {}  # field index -> what it raised
    waiting = {i for i in range(len(fields)) if i % procs}  # worker fields not yet returned

    def settle(i, runs) -> None:
        waiting.discard(i)
        if isinstance(runs, ScenarioInvalidError):  # a worker's first failure: it stops there
            failed[i] = runs
        elif not failed or i < min(failed):  # a one-process run stops at the first failing field
            try:
                by_field[i] = [finalize(sim) for sim in _field_cells(plan, runs)]
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
    """Build one field and run the plan's distinct schemes on it, widest
    first (excode, cope, none: Scheme's order reversed), skipping each that
    the last run made stands in for. Yields each run made."""
    scenario = build_scenario(plan, plan.schemes[0], seed, n_flows, rate)
    last = None
    for scheme in reversed(Scheme):
        if scheme in plan.schemes and not (last and stands_in_for_narrower(last)):
            last = Simulation(replace(scenario, scheme=scheme)).run()
            yield last


def stands_in_for_narrower(sim: Simulation) -> bool:
    """Whether a finished run is, event for event, the run of every scheme
    narrower than its own on the same field. Up to a run's first encode
    every scheme holds the same state, and on the same state a narrower
    scheme's partner scan finds a partner only where a wider one does
    (none ⊆ cope ⊆ excode, see coding.py); so a run that coded nothing is
    also the narrower schemes' run, unless its airtimes differ from theirs,
    as they do when they carry holder bytes (Simulation.holder_bytes_on_air)."""
    return not sim.per_node_encodes and not sim.holder_bytes_on_air


def _field_cells(plan: ExperimentPlan, runs) -> list[Simulation]:
    """Each plan scheme's finished run on one field, in the plan's scheme
    order, from the runs _field_simulations made for it: a scheme it did not
    run takes a relabelled copy of the last run made before it. The copy
    shares that run's finished state, with its own scenario and no holder
    bytes; it copies the instance dict, since copy.copy would rebuild
    delivered through __getstate__ and __setstate__."""
    made = {sim.scenario.scheme: sim for sim in runs}
    cells = {}
    last = None
    for scheme in reversed(Scheme):
        if scheme in made:
            cells[scheme] = last = made[scheme]
        elif scheme in plan.schemes:
            cells[scheme] = stand_in = object.__new__(Simulation)
            stand_in.__dict__ = {**last.__dict__, "scenario": replace(last.scenario, scheme=scheme),
                                 "holder_bytes_total": 0}
    return [cells[scheme] for scheme in plan.schemes]


def _run_share(plan: ExperimentPlan, fields: list, k: int, procs: int, results) -> None:
    """Sweep worker k of procs: put (i, the runs made) on results for fields
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
                x, y = sum(xs) / len(xs), sum(ys) / len(ys)
                if math.isfinite(x) and math.isfinite(y):  # a load past the float range has no place
                    pts.append((x, y))
            if pts:
                series[scheme] = pts
        write_svg_chart(out / f"{column}.svg", label, series)


SCHEME_COLORS = {"excode": "#c0392b", "cope": "#2471a3", "none": "#7d7d7d"}


def write_svg_chart(path, label: str, series: dict[str, list[tuple[float, float]]]) -> None:
    """Tiny hand-rolled SVG line chart of label against offered load; byte-stable."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points] or [0.0, 1.0]
    ys = [p[1] for p in points] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(min(ys), 0.0), max(ys)
    if x1 == x0:  # one unit wide, or one step of x0 where x0 + 1.0 rounds to x0
        x1 = x0 + max(1.0, math.ulp(x0))
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
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{label}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle">offered load (kb/s)</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{label}</text>',
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
        try:  # before any field runs
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioInvalidError(f"--out {args.out}: cannot make the directory: {exc.strerror}") from None
        if args.command == "figures":
            return figures_command(args.out)
        reports = run_plan(plan, args.out)
        print(f"wrote {len(reports)} runs to {Path(args.out) / 'results.csv'}")
        return 0
    except ScenarioInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
