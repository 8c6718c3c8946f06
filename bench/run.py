"""xorsim benchmark runner.

    python3 bench/run.py --workload saturated --seed 1 --seconds 35 --trace 0

Runs passes of one workload, each in a fresh worker process (bench/worker.py)
and one at a time, until --seconds have been spent on them. It prints every
metric by name and unit with its spread over the passes, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. Metrics are
medians over passes. With --trace 0 they are the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, and they are the per-layer
metrics of the traced passes plus the tracing overhead. The traced run's
spans are written to .bench_out/. See bench/README.md.

Exit codes: 0 when every check passed, 1 when a check failed (the result line
is still printed), 2 when the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import DEFAULT_SEED, PER_LAYER, SIM_DURATION, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 165.0  # a run must end within 180 s
# worker.calibrate() takes about this long on a quiet 2-vCPU cloud VM
# (Python 3.11); reported times are seconds at that reference speed
CAL_REF_S = 0.2

END_TO_END = {
    "wall_s": "s",
    "packets_per_s": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("hit_ratio", "_frac")):
        return "ratio"
    return "count"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sim_duration_s": {w: d * args.scale for w, d in SIM_DURATION.items()},
    }


def run_pass(args, traced: bool, workdir: Path, deadline: float) -> dict:
    out = workdir / "pass.json"
    out.unlink(missing_ok=True)
    shutil.rmtree(workdir / "sweep-out", ignore_errors=True)  # every sweep writes a fresh directory
    # a fixed string-hash seed takes one source of layout noise out of the timings
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
        "--scale", repr(args.scale), "--src", str(ROOT / "src"), "--workdir", str(workdir), "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(out.read_text())


def warm_up(deadline: float) -> None:
    """Compile xorsim's bytecode once, as an installed copy would have it."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import xorsim, xorsim.cli"
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"cannot import xorsim from {ROOT / 'src'}:\n{proc.stderr.strip()}")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} value={values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.6g} q1={q1:.6g} median={median:.6g} q3={q3:.6g} max={max(values):.6g}"


def check_passes(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Cells attempted and failed over all passes, and failures that belong to
    no single cell. Every pass must see the same fingerprints."""
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += len(p["cells"])
        for label, cell in p["cells"].items():
            if cell["failures"]:
                failed += 1
                problems.append(f"pass {i} cell {label}: " + "; ".join(cell["failures"]))
        problems += [f"pass {i}: {f}" for f in p["pass_failures"] + p.get("selfcheck_failures", [])]
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        seen = {k: c["fingerprint"] for k, c in p["cells"].items()}
        if seen != {k: c["fingerprint"] for k, c in first["cells"].items()} or p["outputs"] != first["outputs"]:
            problems.append(f"pass {i}: fingerprints differ from pass 0 (nondeterministic run)")
    traced = [p for p in passes if "layers" in p]
    for name in PER_LAYER:
        if name.endswith((".calls", ".max", ".entries", ".scanned")):
            counts = {p["layers"][name] for p in traced}
            if len(counts) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(counts)}")
    return attempted, failed, problems


def to_ref(p: dict) -> float:
    """Factor that scales a pass's host seconds to the reference speed.

    The speed of a shared host drifts by up to 1.7x within minutes. The
    worker times a fixed calibration loop in its own process just before and
    just after the pass, and the pass slows down with it: over six 35 s runs
    of saturated, the median pass time spread 10% between runs, and 4% once
    each pass was scaled by its own calibration.
    """
    return CAL_REF_S / statistics.mean(p["calibration_s"])


def end_to_end(passes: list[dict]) -> dict[str, list[float]]:
    """Per-pass end-to-end values, times at the reference speed."""
    values = {name: [] for name in END_TO_END}
    for p in passes:
        wall, setup = p["wall_s"] * to_ref(p), p["setup_s"] * to_ref(p)
        values["wall_s"].append(wall)
        values["setup_s"].append(setup)
        values["packets_per_s"].append(p["generated"] / (wall - setup))
        values["peak_rss_mb"].append(p["peak_rss_mb"])
    return values


def per_layer(passes: list[dict]) -> dict[str, list[float]]:
    """Per-pass layer values, self times at the reference speed."""
    return {
        name: [p["layers"][name] * (to_ref(p) if name.endswith("self_s") else 1) for p in passes]
        for name in PER_LAYER
    }


def write_trace(args, facts: dict, metrics: dict, traced: list[dict]) -> Path:
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "facts": facts,
        "per_layer": metrics,
        "passes": [{key: p[key] for key in ("wall_s", "calibration_s", "layers", "spans")} for p in traced],
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; fingerprints are pinned for {DEFAULT_SEED}")
    parser.add_argument("--seconds", type=float, default=35.0, help="time spent on measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration; pinned fingerprints hold only at 1")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "xorsim" / "__init__.py").is_file():
        raise BenchError(f"no xorsim package under {ROOT / 'src'}")
    facts = run_facts(args)
    print("facts " + json.dumps(facts))
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(deadline)
        untraced, traced = [], []
        start = time.monotonic()
        longest = 0.0
        while True:
            enough = bool(untraced) and (bool(traced) or not args.trace)
            if enough and time.monotonic() - start >= args.seconds:
                break
            if enough and time.monotonic() + longest > deadline:
                print("stopping early: one more pass would run past the deadline")
                break
            t0 = time.monotonic()
            trace_next = bool(args.trace) and len(traced) < len(untraced)
            (traced if trace_next else untraced).append(run_pass(args, trace_next, workdir, deadline))
            longest = max(longest, time.monotonic() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted, failed, problems = check_passes(passes)
    cells = passes[0]["cells"]
    if len(cells) <= 8:
        for label, cell in cells.items():
            print(f"fingerprint {label}: {json.dumps(cell['fingerprint'])}")
    else:
        print(f"fingerprints: {len(cells)} cells, one results.csv row each")
    if passes[0]["outputs"]:
        print(f"outputs: {json.dumps(passes[0]['outputs'])}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} cells)")

    print(f"host speed: calibration {spread([c for p in passes for c in p['calibration_s']])} s; "
          f"unscaled wall_s {spread([p['wall_s'] for p in untraced])} s; "
          f"times below are scaled to the reference speed ({CAL_REF_S} s per calibration)")
    untraced_values = end_to_end(untraced)
    if args.trace:
        layer_values = per_layer(traced)
        metrics = {name: statistics.median(v) for name, v in layer_values.items()}
        untraced_wall = statistics.median(untraced_values["wall_s"])
        traced_walls = end_to_end(traced)["wall_s"]
        metrics["trace_overhead_frac"] = statistics.median(traced_walls) / untraced_wall - 1.0
        for name, v in layer_values.items():
            print(f"{name} {metrics[name]:.6g} {unit_of(name)} ({spread(v)})")
        print(f"trace_overhead_frac {metrics['trace_overhead_frac']:.6g} ratio "
              f"(traced wall_s {spread(traced_walls)}; untraced median {untraced_wall:.6g} s)")
        print(f"spans written to {write_trace(args, facts, metrics, traced).relative_to(ROOT)}")
    else:
        metrics = {name: statistics.median(v) for name, v in untraced_values.items()}
        for name, v in untraced_values.items():
            print(f"{name} {metrics[name]:.6g} {unit_of(name)} ({spread(v)})")

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
