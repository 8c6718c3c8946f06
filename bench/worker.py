"""One pass of one benchmark workload, run in a fresh process.

    python3 bench/worker.py --workload saturated --seed 1 --trace 0 \\
        --src src --workdir .bench_out/work --out pass.json

The pass imports xorsim from --src, runs the workload once, checks every
simulated cell and writes a JSON result to --out. bench/run.py starts one
worker per pass; see bench/README.md.

Timing starts just before `import xorsim` and ends after the workload's last
output is written. Checks run in `bench.checks` spans, whose time is left out
of wall_s. With --trace 1 every layer function in LAYERS is wrapped and timed;
with --trace 0 only the few set-up functions that split setup_s from the rest
are wrapped, a few hundred calls per pass at most. A fixed calibration loop
is timed just before and just after the pass, so that bench/run.py can scale
the pass's times to a reference host speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

from tracing import Tracer

DEFAULT_SEED = 1
SCHEMES = ("excode", "cope", "none")
# simulated seconds per cell at --scale 1
SIM_DURATION = {"saturated": 4.0, "traced-light": 60.0, "sweep": 10.0}
WORKLOADS = tuple(SIM_DURATION)
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

# spans whose total time is set-up: before the first simulated event
SETUP_SPANS = ("import", "scenarios.random_scenario", "simulator.init", "cli.load_config", "cli.build_scenario")

ALL = frozenset(WORKLOADS)
SIMULATED = frozenset({"saturated", "traced-light"})
SWEEP = frozenset({"sweep"})
SATURATED = frozenset({"saturated"})

# layer span -> (stats reported, workloads that must call it at least once)
LAYERS = {
    "simulator.run": (("self_s",), ALL),
    "simulator.init": (("self_s",), ALL),
    "scenarios.random_scenario": (("self_s",), SIMULATED),
    "topology.build_topology": (("calls", "self_s"), ALL),
    "topology.shortest_path": (("calls", "self_s"), ALL),
    "simulator.payload_bytes": (("calls", "self_s"), ALL),
    "simulator.trace": (("calls", "self_s"), ALL),
    "simulator.trace_output": (("self_s",), frozenset({"traced-light"})),
    "simulator.native_buffered": (("calls", "self_s"), ALL),
    "node.on_receive": (("calls", "self_s"), ALL),
    "node.process_input": (("calls", "self_s"), ALL),
    "node.on_send": (("calls", "self_s"), ALL),
    "node.forward_encoded": (("calls", "self_s"), SATURATED),
    "coding.find_partner": (("calls", "self_s"), ALL),
    "packet.annotate_holders": (("calls", "self_s"), ALL),
    "packet.xor_encode": (("calls", "self_s"), SATURATED),
    "packet.xor_decode": (("calls", "self_s"), SATURATED),
    "metrics.finalize": (("calls", "self_s"), SWEEP),
    "cli.load_config": (("self_s",), SWEEP),
    "cli.build_scenario": (("calls", "self_s"), SWEEP),
    "cli.run_plan": (("self_s",), SWEEP),
    "cli.write_charts": (("self_s",), SWEEP),
}
SAMPLES = (
    "node.input_queue.max",  # longest input queue seen entering process_input
    "node.output_queue.max",  # longest output queue seen entering on_send
    "node.buffer.entries",  # buffer entries summed over nodes at the end of a run, max over runs
    "coding.find_partner.scanned",  # queue entries examined by the partner scan
    "coding.find_partner.hit_ratio",  # partners found / scans
)
PER_LAYER = (
    [f"{layer}.{stat}" for layer, (stats, _) in LAYERS.items() for stat in stats]
    + list(SAMPLES)
    + ["import.self_s", "other.self_s"]
)


@dataclass(frozen=True)
class _Packet:
    uid: int
    hop: int
    holders: frozenset


def calibrate(n: int = 40_000) -> float:
    """Seconds taken by fixed pure-Python work that no change to xorsim can
    speed up, of the kinds the simulator does: frozen-dataclass replace,
    frozenset unions, heap pushes and pops over a 20k-object working set.
    The collector is off, so objects the pass left behind cannot slow it."""
    pool = [_Packet(i, 0, frozenset()) for i in range(20_000)]
    heap = []
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(n):
            j = (i * 7919) % 20_000
            p = pool[j]
            p = replace(p, hop=p.hop + 1, holders=p.holders | {i & 15})
            pool[j] = p
            heapq.heappush(heap, ((i * 37) % 101, i, p))
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class BenchError(Exception):
    """The pass could not run; no result is written."""


def perturb(scenario, seed: int, *, shift_starts: bool):
    """Inputs for a seed other than the default.

    Layout, flow endpoints and rates stay those of the canonical cell, so the
    load and the host work barely move between seeds. Payloads are drawn from
    the seed. With shift_starts, each flow's start also moves by a seeded
    fraction of its packet interval, which changes every interleaving
    downstream.
    """
    if seed == DEFAULT_SEED:
        return scenario
    flows = scenario.flows
    if shift_starts:
        rng = random.Random(f"bench-phase:{seed}")
        flows = tuple(replace(f, start=rng.uniform(0.0, 1.0 / f.rate)) for f in flows)
    return replace(scenario, flows=flows, seed=seed)


def sweep_config(seed: int, duration: float) -> dict:
    """The README defaults, swept over 4 flow counts x 10 run seeds x 3 schemes.

    The cells are the same on every workload seed; a seed other than the
    default only shuffles their order. Which layouts are drawn moves the
    sweep's host time by more than 10% (its hop transmissions range from 51k
    to 76k over blocks of 10 run seeds), which would swamp the bound.
    """
    flows, seeds, schemes = [2, 4, 6, 8], list(range(10)), list(SCHEMES)
    if seed != DEFAULT_SEED:
        rng = random.Random(f"bench-order:{seed}")
        for axis in (flows, seeds, schemes):
            rng.shuffle(axis)
    return {
        "topology": {"nodes": 16, "side": 800.0, "range": 200.0},
        "flows": {"rate": 5.0, "packet_size": 512},
        "duration": duration,
        "sweep": {"flows": flows, "seeds": seeds, "schemes": schemes},
    }


def sim_fingerprint(sim) -> dict:
    return {
        "generated": len(sim.generated),
        "delivered": len(sim.delivered),
        "total_tx": sim.total_tx,
        "encode_count": sim.encode_count,
        "decode_failures": sim.decode_failures,
    }


def check_sim(sim) -> list[str]:
    """Invariants every finished run must hold, whatever its inputs."""
    from xorsim import audit_conservation, fifo_violations

    failures = []
    for name, found in (("conservation", audit_conservation(sim)), ("fifo", fifo_violations(sim))):
        if found:
            failures.append(f"{name}: {len(found)} violations, first {found[0]}")
    if sim.decode_failures:
        failures.append(f"{sim.decode_failures} decode failures")
    corrupt = sum(1 for uid, (_, pkt) in sim.delivered.items() if pkt.payload != sim.generated[uid].payload)
    if corrupt:
        failures.append(f"{corrupt} delivered payloads differ from the generated ones")
    return failures


class Pass:
    def __init__(self, args, tracer: Tracer) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.traced = bool(args.trace)
        self.duration = SIM_DURATION[args.workload] * args.scale
        self.pinned = args.scale == 1.0
        self.workdir = Path(args.workdir)
        self.tracer = tracer
        self.generated = 0
        self.cells: dict[str, dict] = {}
        self.pass_failures: list[str] = []
        self.outputs: dict = {}

    def add_cell(self, label: str, fingerprint, failures: list[str]) -> None:
        if label in self.cells:
            failures = failures + [f"cell {label} ran twice"]
        self.cells[label] = {"fingerprint": fingerprint, "failures": failures}

    def check_pinned(self, cells_pinned_on_every_seed: bool = False) -> dict:
        """Compare each cell's fingerprint with the one pinned for it."""
        pinned = json.loads(FINGERPRINTS.read_text())[self.workload]
        if not self.pinned or (self.seed != DEFAULT_SEED and not cells_pinned_on_every_seed):
            return pinned
        for label, want in pinned["cells"].items():
            cell = self.cells.get(label)
            if cell is None:
                self.pass_failures.append(f"pinned cell {label} did not run")
            elif cell["fingerprint"] != want:
                cell["failures"].append(f"fingerprint {cell['fingerprint']} != pinned {want}")
        for label in self.cells.keys() - pinned["cells"].keys():
            self.cells[label]["failures"].append("cell has no pinned fingerprint")
        return pinned


def run_saturated(ps: Pass) -> None:
    from xorsim import Scheme, Simulation, scenarios

    for name in SCHEMES:
        with ps.tracer.span("cell", label=name):
            scenario = scenarios.random_scenario(
                Scheme(name), seed=DEFAULT_SEED, n_flows=8, rate=200.0,
                duration=ps.duration, capture_trace=False,
            )
            sim = Simulation(perturb(scenario, ps.seed, shift_starts=True))
            sim.run()
        ps.generated += len(sim.generated)
        with ps.tracer.span("bench.checks"):
            ps.add_cell(name, sim_fingerprint(sim), check_sim(sim))
        del sim


def run_traced_light(ps: Pass) -> None:
    from xorsim import Scheme, Simulation, scenarios

    with ps.tracer.span("cell", label="excode"):
        scenario = scenarios.random_scenario(
            Scheme.EXCODE, seed=DEFAULT_SEED, n_flows=8, rate=20.0, duration=ps.duration,
        )
        # Shifted starts can line two flows up at a relay (seed 23 of 0-39
        # then codes 1,200 pairs), which would make this a coding workload.
        # Payloads are the only input that moves, so the trace is the
        # canonical one on every seed.
        sim = Simulation(perturb(scenario, ps.seed, shift_starts=False))
        sim.run()
        digest = sim.trace_log.sha256()
        sim.trace_log.write(ps.workdir / "trace.csv")
    ps.generated += len(sim.generated)
    with ps.tracer.span("bench.checks"):
        fingerprint = sim_fingerprint(sim) | {"trace_sha256": digest, "trace_lines": len(sim.trace_log)}
        ps.add_cell("excode", fingerprint, check_sim(sim))


def run_sweep(ps: Pass) -> None:
    from xorsim import cli

    with redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(ps.workdir / "sweep.yaml"), "--out", str(ps.workdir / "sweep-out")])
    if code != 0:
        raise BenchError(f"xorsim run exited with {code}")


def finalize_checked(ps: Pass, finalize):
    """cli.finalize that also checks the cell it reduces."""

    def checked(sim):
        report = finalize(sim)
        ps.generated += report.generated
        with ps.tracer.span("bench.checks"):
            ps.add_cell(f"{report.scheme},{report.seed},{report.flows}", None, check_sim(sim))
        return report

    return checked


def check_sweep_output(ps: Pass) -> None:
    """results.csv: every row matches the row pinned for its cell; at the
    default seed the file's bytes match too. Runs after the timed pass."""
    data = (ps.workdir / "sweep-out" / "results.csv").read_bytes()
    header, *rows = data.decode().splitlines()
    for row in rows:
        label = ",".join(row.split(",")[:3])
        if label in ps.cells and ps.cells[label]["fingerprint"] is None:
            ps.cells[label]["fingerprint"] = row
        else:
            ps.pass_failures.append(f"unexpected results.csv row {row!r}")
    for label, cell in ps.cells.items():
        if cell["fingerprint"] is None:
            cell["failures"].append("no results.csv row")
    pinned = ps.check_pinned(cells_pinned_on_every_seed=True)
    digest = hashlib.sha256(data).hexdigest()
    if header != pinned["header"]:
        ps.pass_failures.append(f"results.csv header {header!r} != pinned {pinned['header']!r}")
    if ps.pinned and ps.seed == DEFAULT_SEED and digest != pinned["results_sha256"]:
        ps.pass_failures.append(f"results.csv sha256 {digest} != pinned {pinned['results_sha256']}")
    ps.outputs = {"results_sha256": digest}


RUNS = {"saturated": run_saturated, "traced-light": run_traced_light, "sweep": run_sweep}


def install(ps: Pass) -> None:
    """Wrap each layer's functions where their callers look them up."""
    from xorsim import coding, node, scenarios, simulator

    tracer, patch = ps.tracer, ps.tracer.patch
    cli = sys.modules.get("xorsim.cli")
    Simulation, TraceLog, Node = simulator.Simulation, simulator.TraceLog, node.Node

    patch(scenarios, "random_scenario", "scenarios.random_scenario", coarse=True)
    patch(Simulation, "__init__", "simulator.init", coarse=True)
    if cli is not None:
        patch(cli, "load_config", "cli.load_config", coarse=True)
        patch(cli, "build_scenario", "cli.build_scenario", coarse=True)
        finalize = cli.finalize
        if ps.traced:
            finalize = tracer.wrap("metrics.finalize", finalize, coarse=True)
        cli.finalize = finalize_checked(ps, finalize)
    if not ps.traced:
        return

    def buffer_entries(args, kwargs, sim):
        tracer.sample_max("node.buffer.entries", sum(len(n.buffer) for n in sim.nodes))

    def input_queue(args, kwargs):
        tracer.sample_max("node.input_queue.max", len(args[0].input_queue))

    def output_queue(args, kwargs):
        tracer.sample_max("node.output_queue.max", len(args[0].output_queue))

    def partner_scan(args, kwargs, idx):
        if args[2] is coding.Scheme.NON_CODING:
            return
        tracer.sample_add("coding.find_partner.scanned", len(args[1]) if idx is None else idx + 1)
        tracer.sample_add("coding.find_partner.hits", idx is not None)

    patch(Simulation, "run", "simulator.run", coarse=True, after=buffer_entries)
    patch(simulator, "shortest_path", "topology.shortest_path")
    patch(scenarios, "shortest_path", "topology.shortest_path")
    patch(scenarios, "build_topology", "topology.build_topology")
    patch(simulator, "payload_bytes", "simulator.payload_bytes")
    patch(Simulation, "trace", "simulator.trace")
    patch(TraceLog, "sha256", "simulator.trace_output", coarse=True)
    patch(TraceLog, "write", "simulator.trace_output", coarse=True)
    patch(Simulation, "native_buffered", "simulator.native_buffered")
    patch(Node, "on_receive", "node.on_receive")
    patch(Node, "process_input", "node.process_input", before=input_queue)
    patch(Node, "on_send", "node.on_send", before=output_queue)
    patch(Node, "forward_encoded", "node.forward_encoded")
    patch(node, "find_partner", "coding.find_partner", after=partner_scan)
    patch(node, "annotate_holders", "packet.annotate_holders")
    patch(node, "xor_encode", "packet.xor_encode")
    patch(node, "xor_decode", "packet.xor_decode")
    if cli is not None:
        patch(cli, "build_topology", "topology.build_topology")
        patch(cli, "run_plan", "cli.run_plan", coarse=True)
        patch(cli, "write_charts", "cli.write_charts", coarse=True)


def layer_metrics(ps: Pass, spans: dict) -> dict:
    def stat(name, key):
        return spans[name][key] if name in spans else 0

    metrics = {}
    for layer, (stats, _) in LAYERS.items():
        for s in stats:
            metrics[f"{layer}.{s}"] = stat(layer, s)
    samples = ps.tracer.samples
    for name in SAMPLES[:-1]:
        metrics[name] = samples.get(name, 0)
    scans = stat("coding.find_partner", "calls")
    metrics["coding.find_partner.hit_ratio"] = samples.get("coding.find_partner.hits", 0) / scans if scans else 0.0
    metrics["import.self_s"] = stat("import", "self_s")
    metrics["other.self_s"] = stat("pass", "self_s")
    return metrics


def self_check(ps: Pass, spans: dict, metrics: dict) -> list[str]:
    """The traced pass accounts for its own time and binds every wrapper."""
    failures = []
    total = spans["pass"]["total_s"]
    covered = sum(s["self_s"] for s in spans.values())
    if abs(covered - total) > 1e-6 * total:
        failures.append(f"self times add up to {covered!r} s, the pass took {total!r} s")
    for name, s in spans.items():
        if s["self_s"] < -1e-6:
            failures.append(f"{name}: negative self time {s['self_s']!r}")
        if s["nested"]:
            failures.append(f"{name}: entered {s['nested']} times inside itself (wrapped twice?)")
    for layer, (_, exercised_by) in LAYERS.items():
        if ps.workload in exercised_by and spans.get(layer, {}).get("calls", 0) == 0:
            failures.append(f"{layer}: never called on {ps.workload}")
    if ps.workload == "traced-light":
        # with the canonical start times no relay ever holds two codable natives
        for name in ("packet.xor_encode.calls", "coding.find_partner.hit_ratio"):
            if metrics[name] != 0:
                failures.append(f"{name} is {metrics[name]} on traced-light, predicted 0")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every simulated duration")
    parser.add_argument("--src", required=True, help="directory holding the xorsim package")
    parser.add_argument("--workdir", required=True, help="working directory for the pass's inputs and outputs")
    parser.add_argument("--out", required=True, help="where the JSON result goes")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "sweep":
        # JSON is YAML; writing the config is input generation, not timed
        (workdir / "sweep.yaml").write_text(json.dumps(sweep_config(args.seed, SIM_DURATION["sweep"] * args.scale)))

    calibration = [calibrate()]
    tracer = Tracer()
    ps = Pass(args, tracer)
    with tracer.span("pass"):
        with tracer.span("import"):
            sys.path.insert(0, str(src))
            import xorsim

            if args.workload == "sweep":
                import xorsim.cli  # noqa: F401
        if not Path(xorsim.__file__).resolve().is_relative_to(src):
            raise BenchError(f"imported xorsim from {xorsim.__file__}, not from {src}")
        install(ps)
        RUNS[args.workload](ps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())

    if args.workload == "sweep":
        check_sweep_output(ps)
    else:
        ps.check_pinned(cells_pinned_on_every_seed=args.workload == "traced-light")
    spans = tracer.summary()
    result = {
        "wall_s": spans["pass"]["total_s"] - spans.get("bench.checks", {}).get("total_s", 0.0),
        "setup_s": sum(spans[name]["total_s"] for name in SETUP_SPANS if name in spans),
        "generated": ps.generated,
        "peak_rss_mb": peak_rss_mb,
        "cells": ps.cells,
        "pass_failures": ps.pass_failures,
        "outputs": ps.outputs,
        "calibration_s": calibration,
    }
    if ps.traced:
        metrics = layer_metrics(ps, spans)
        result.update(layers=metrics, spans=tracer.records, selfcheck_failures=self_check(ps, spans, metrics))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        sys.exit(2)
