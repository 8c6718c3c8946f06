import contextlib
import copy
import functools
import io
import itertools
import math
import multiprocessing
import operator
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st, target

from xorsim import cli
from xorsim.cli import (
    ExperimentPlan,
    ValidationError,
    build_scenario,
    load_config,
    main,
    parse_scheme,
    run_plan,
)
from xorsim.coding import Scheme
from xorsim.metrics import csv_header, finalize
from xorsim.simulator import ScenarioInvalidError, run

CHAIN_YAML = """
topology:
  positions: [[240, 400], [400, 400], [560, 400]]
  range: 200
flows:
  list:
    - {src: 0, dst: 2, rate: 1.0, stop: 0.5}
    - {src: 2, dst: 0, rate: 1.0, stop: 0.5}
duration: 1.0
sweep:
  seeds: [0, 1]
"""


def write_config(tmp_path, text, name="conf.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def test_empty_config_gives_defaults(tmp_path):
    # an empty section is an empty mapping
    for text in ("topology:", "flows:\nchannel:\nsweep:"):
        assert load_config(write_config(tmp_path, text)) == ExperimentPlan()
    plan = load_config(write_config(tmp_path, ""))
    assert plan == ExperimentPlan()
    assert plan.nodes == 16
    assert (plan.flow_counts, plan.rates, plan.seeds) == ([2], [5.0], [0])
    assert plan.schemes == [Scheme.NON_CODING, Scheme.COPE, Scheme.EXCODE]


def test_full_config_round_trip(tmp_path):
    plan = load_config(
        write_config(
            tmp_path,
            """
            topology: {nodes: 9, side: 500, range: 180, seed: 3}
            flows: {rate: 2.5, packet_size: 256}
            channel: {rate_bps: 1000000}
            duration: 30
            count_header_overhead: true
            drain_grace: 2.0
            sweep: {flows: [2, 4], schemes: [excode, none], seeds: [1, 2, 3]}
            """,
        )
    )
    assert (plan.nodes, plan.side, plan.radio_range, plan.topology_seed) == (9, 500.0, 180.0, 3)
    assert (plan.rates, plan.packet_size) == ([2.5], 256)
    assert (plan.channel_rate, plan.duration) == (1_000_000.0, 30.0)
    assert plan.count_header_overhead and plan.drain_grace == 2.0
    assert plan.flow_counts == [2, 4]
    assert plan.schemes == [Scheme.EXCODE, Scheme.NON_CODING]
    assert plan.seeds == [1, 2, 3]


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("bogus: 1", "unknown config key: bogus"),
        ("- 1\n- 2", "config root must be a mapping"),
        ("topology: 3", "topology must be a mapping"),
        ("topology: {sides: 3}", "unknown config key: topology.sides"),
        ("topology: {nodes: 2.5}", "topology.nodes must be an integer"),
        ("topology: {nodes: zero}", "topology.nodes must be a number"),
        ("topology: {nodes: 0}", "topology.nodes must be >="),
        ("topology: {positions: []}", "topology.positions must be a non-empty list"),
        ("topology: {positions: [[1, 2], [3]]}", "topology.positions"),
        ("topology: {positions: [[a, 1], [2, 3]]}", "topology.positions[0] must be a number"),
        ("topology: {nodes: 9, positions: [[0, 0], [100, 0]]}",
         "topology.nodes cannot be combined with topology.positions"),
        ("topology: {side: 500, positions: [[0, 0], [100, 0]]}",
         "topology.side cannot be combined with topology.positions"),
        ("topology: {seed: 3, positions: [[0, 0], [100, 0]]}",
         "topology.seed cannot be combined with topology.positions"),
        ("flows: {rate: -1}", "flows.rate must be >="),
        ("flows: {rate: .inf}", "flows.rate must be finite"),
        ("flows: {rate: 1" + "0" * 400 + "}", "flows.rate is too large"),
        ("flows: {list: 3}", "flows.list must be a list"),
        ("flows: {list: [3]}", "flows.list[0] must be a mapping"),
        ("flows: {list: [{src: abc, dst: 1}]}", "flows.list[0].src must be a number"),
        ("flows: {list: [{src: 0, dst: 1, rate: .nan}]}", "flows.list[0].rate must be finite"),
        # a bad flows.list entry names its key, not the flow id it sets
        ("flows: {list: [{src: 0, dst: 1, start: -1}]}", "flows.list[0].start must be >= 0"),
        ("flows: {list: [{src: 0, dst: 1, rate: -1}]}", "flows.list[0].rate must be >= 1e-09"),
        ("flows: {list: [{src: 0, dst: 1, rate: 0}]}", "flows.list[0].rate must be >= 1e-09"),
        ("flows: {list: [{src: 0, dst: 1, start: 2, stop: 1}]}", "flows.list[0].stop must be >= 2.0"),
        ("flows: {list: [{src: 0, dst: 99}]}", "flows.list[0].dst must be <= 15"),
        ("flows: {list: [{src: -1, dst: 1}]}", "flows.list[0].src must be >= 0"),
        ("topology: {positions: [[0, 0], [100, 0]]}\nflows: {list: [{src: 2, dst: 1}]}",
         "flows.list[0].src must be <= 1"),
        ("flows: {list: [{src: 3, dst: 3}]}", "flows.list[0].dst must differ from flows.list[0].src"),
        ("flows: {list: [{flow: 5, src: 0, dst: 1, start: -1}]}", "flows.list[0].start must be >= 0"),
        ("flows: {list: [{flow: 1, src: 0, dst: 1}, {flow: 1, src: 1, dst: 0}]}",
         "flows.list[1].flow must differ from flows.list[0].flow"),
        ("flows: {count: 5, list: [{src: 0, dst: 1}]}",
         "flows.count cannot be combined with flows.list"),
        ("scheme: sideways", "unknown scheme 'sideways'"),
        ("sweep: {flows: [2], rates: [1.0]}", "either flows or rates"),
        ("sweep: {flows: []}", "sweep.flows must be a non-empty list"),
        ("flows: {list: [{src: 0, dst: 1}]}\nsweep: {flows: [1, 2, 3]}",
         "sweep.flows cannot be combined with flows.list"),
        ("flows: {list: [{src: 0, dst: 1}]}\nsweep: {rates: [1, 50]}",
         "sweep.rates cannot be combined with flows.list"),
        ("count_header_overhead: 3", "must be true or false"),
        ("duration: 0", "duration must be >="),
        ("duration: .nan", "duration must be finite"),
        ("scheme: cope\nsweep: {schemes: [none]}", "scheme cannot be combined with sweep.schemes"),
        ("seed: 7\nsweep: {seeds: [1]}", "seed cannot be combined with sweep.seeds"),
        ("flows: {count: 3}\nsweep: {flows: [2]}", "flows.count cannot be combined with sweep.flows"),
        ("flows: {rate: 2.0}\nsweep: {rates: [1.0]}", "flows.rate cannot be combined with sweep.rates"),
        ("sweep: {schemes: [best]}", "sweep.schemes: unknown scheme 'best'"),
        ("flows: {packet_size: 2000000000}", "flows.packet_size must be <= 65535"),
        ("flows: {list: [{src: 0, dst: 1, packet_size: 0}]}", "flows.list[0].packet_size must be >= 1"),
        ("flows: {list: [{src: 0, dst: 1, packet_size: 70000}]}",
         "flows.list[0].packet_size must be <= 65535"),
        ("topology: {nodes: 100000000}", "topology.nodes must be <= 1000"),
        pytest.param("topology: {positions: [" + ", ".join(["[0, 0]"] * 1001) + "]}",
                     "topology.positions must have at most 1000 entries", id="positions-over-cap"),
        pytest.param("seed: 1" + "0" * 5000, "config parse error", id="int-over-4300-digits"),
        # every packet of a cell is held in memory until the run ends
        ("flows: {count: 1, rate: 1.0e+8}\nduration: 1.0\nscheme: none",
         "flows.count x flows.rate x duration is 1e+08 packets in one cell, more than 1,000,000"),
        ("flows: {rate: 100.0}\nsweep: {flows: [1, 2000]}\nduration: 10",
         "sweep.flows x flows.rate x duration is 2e+06 packets"),
        ("flows: {list: [{src: 0, dst: 1, rate: 6.0e+5}, {src: 1, dst: 0, rate: 6.0e+5}]}\nduration: 1",
         "the sum of flows.list[i].rate x duration is 1.2e+06 packets"),
        # each flow costs a route search: a tiny rate must not let the count run away
        ("flows: {count: 1000000, rate: 1.0e-6}\nduration: 1.0\nscheme: none",
         "flows.count must be <= 10000"),
        ("flows: {rate: 1.0e-6}\nsweep: {flows: [2, 10001]}", "sweep.flows must be <= 10000"),
        pytest.param("flows: {list: [&f {src: 0, dst: 1}" + ", *f" * 10_000 + "]}",
                     "flows.list must have at most 10000 entries", id="flows-list-over-cap"),
        # YAML 1.1 reads an exponent without a sign as a string
        ("flows: {rate: 1.0e12}", "flows.rate must be a number, but YAML read '1.0e12' as text"),
    ],
)
def test_config_errors_name_the_key(tmp_path, snippet, needle):
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, snippet))
    assert needle in str(err.value)


# configs that load and between them use every key of the schema
VALID_CONFIGS = [
    {"topology": {"nodes": 9, "side": 500.0, "range": 180, "seed": 3},
     "flows": {"count": 2, "rate": 2.5, "packet_size": 256}, "channel": {"rate_bps": 1000000},
     "duration": 3, "drain_grace": 0.5, "scheme": "cope", "seed": 7, "count_header_overhead": True},
    {"topology": {"positions": [[0, 0], [100, 0]], "range": 200},
     "flows": {"rate": 1.0, "list": [{"flow": 0, "src": 0, "dst": 1, "rate": 2, "packet_size": 64,
                                      "start": 0, "stop": 1.5}]},
     "sweep": {"schemes": ["excode", "none"], "seeds": [1, 2]}},
    {"flows": {"rate": 2.0}, "sweep": {"flows": [2, 4], "schemes": ["cope"]}},
    {"flows": {"count": 3}, "sweep": {"rates": [1.0, 5.0], "seeds": [0]}},
]
numbers = st.integers() | st.floats() | st.sampled_from([10**400, 1e308, 2_000_000_000])
values = numbers | st.recursive(
    numbers | st.none() | st.booleans() | st.text(max_size=6) | st.sampled_from(["excode", "cope"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["bogus"]), inner),
    max_leaves=8,
)


def keys_in(value) -> set:
    if isinstance(value, dict):
        return set(value).union(*(keys_in(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(keys_in(v) for v in value))
    return set()


def paths(node, prefix=()):
    """The path of every entry of every mapping and list in a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from paths(child, (*prefix, key))


@st.composite
def edited_configs(draw, bases=st.sampled_from(VALID_CONFIGS)):
    """A valid config drawn from bases with one to three entries replaced,
    deleted or added; an added key may be unknown or belong to another section."""
    config = copy.deepcopy(draw(bases))
    for _ in range(draw(st.integers(1, 3))):
        if not config:
            break
        *parents, key = draw(st.sampled_from([*paths(config)]))
        node = functools.reduce(operator.getitem, parents, config)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del node[key]
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(sorted(keys_in(VALID_CONFIGS) | {"bogus"})))] = draw(values)
        else:
            node[key] = draw(values)
    return config


# the two config fuzzers draw 2x and 1x the profile's max_examples: 200 and
# 100 under the default profile, ten times that under "config-fuzz"
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(raw=edited_configs())
def test_any_config_loads_or_names_a_key(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        assert isinstance(load_config(path), ExperimentPlan)
    except ValidationError as exc:
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in keys_in(raw)), str(exc)


# valid configs that run in moments: at most 3 flows and duration <= 0.2.
# Random flows run at rate <= 50; the two single-hop flows.list flows at 20.
# The crossing flows send 0 -> 2 and 2 -> 0 at 400 pkt/s across relay 1 of
# the 3-node line, which keeps the relay busy, so natives of both flows meet
# in its queue; each draws its packet size, so coding may pair two lengths.
LINE = {"positions": [[0, 0], [150, 0], [300, 0]], "range": 200}
CELL = {"duration": st.floats(0.01, 0.2), "scheme": st.sampled_from(["none", "cope", "excode"]),
        "seed": st.integers(0, 9)}
small_configs = st.fixed_dictionaries({
    "topology": st.one_of(
        st.fixed_dictionaries({"nodes": st.integers(2, 16), "seed": st.integers(0, 9)}),
        st.just(LINE),
    ),
    "flows": st.one_of(
        st.fixed_dictionaries({"count": st.integers(1, 3), "rate": st.floats(1.0, 50.0)}),
        st.just({"rate": 20.0, "list": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0, "start": 0.05}]}),
    ),
    **CELL,
}) | st.fixed_dictionaries({
    "topology": st.just(LINE),
    "flows": st.builds(lambda a, b: {"rate": 400.0, "list": [{"src": 0, "dst": 2, "packet_size": a},
                                                             {"src": 2, "dst": 0, "packet_size": b}]},
                       *[st.sampled_from([256, 512])] * 2),
    **CELL,
})


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(raw=edited_configs(small_configs))
@example(raw={"topology": {"positions": [], "range": 200}, "duration": 0.125, "scheme": "none", "seed": 0})
@example(raw={"topology": LINE, "duration": 0.1, "scheme": "excode", "seed": 0,
              "flows": {"rate": 400.0, "list": [{"src": 0, "dst": 2, "packet_size": 512},
                                                {"src": 2, "dst": 0, "packet_size": 256}]}})
def test_any_config_runs_or_exits_2(tmp_path_factory, raw):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-main.yaml"
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    # an edit may scale a cell up; the lower cap sends it down the exit-2 path
    with mock.patch.object(cli, "MAX_PACKETS", 2_000), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(base / "fuzz-main-out")])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: "), err.getvalue()


def nested(key: str, value) -> dict:
    """The config that sets one dotted key to value."""
    for name in reversed(key.split(".")):
        value = {name: value}
    return value


def bounded_spellings():
    """(key, field metadata, config for a value of the key) for every key
    with a bound. A sweep axis is spelt both ways, and a flows.list entry
    key that shares its name with a flows key takes that key's bounds."""
    for f in cli.PLAN_FIELDS:
        key, sweep = f.metadata["key"], f.metadata["sweep"]
        if f.metadata["bounds"] == (None, None):
            continue
        yield key, f.metadata, lambda v, key=key: nested(key, v)
        if sweep:
            yield sweep, f.metadata, lambda v, sweep=sweep: nested(sweep, [v])
        section, _, name = key.partition(".")
        if section == "flows" and name in cli.FLOW_KEYS:
            yield (f"flows.list[0].{name}", f.metadata,
                   lambda v, name=name: nested("flows.list", [{"src": 0, "dst": 1, name: v}]))


# a valid entry for each list key, repeated to the length under test
LIST_ENTRIES = {"topology.positions": [0.0, 0.0], "flows.list": {"src": 0, "dst": 1}}


@pytest.mark.parametrize("key,meta,config", [pytest.param(*s, id=s[0]) for s in bounded_spellings()])
def test_every_bound_holds_at_its_edges(tmp_path, key, meta, config):
    # below the minimum, at it, at the maximum and above it; a list's bounds
    # are on its length. The short duration keeps 10,000 flows at 5 pkt/s
    # under the per-cell packet cap
    kind, (lo, hi) = meta["kind"], meta["bounds"]
    # one step out of bounds: the next float, or the next integer or length
    out = (lambda v, way: math.nextafter(v, way * math.inf)) if kind is float else operator.add
    edges = [(bound, True) for bound in (lo, hi) if bound is not None]
    edges += [(out(bound, way), False) for bound, way in ((lo, -1), (hi, 1)) if bound is not None]
    for value, inside in edges:
        if kind not in (int, float):
            value = [LIST_ENTRIES[key]] * value  # the same object: YAML writes aliases
        path = write_config(tmp_path, yaml.safe_dump({"duration": 0.001, **config(value)}))
        if inside:
            assert isinstance(load_config(path), ExperimentPlan), (key, value)
        else:
            with pytest.raises(ValidationError, match=f"^{re.escape(key)} must "):
                load_config(path)


def test_readme_names_every_config_key():
    # the README's "All config keys" block, flattened to dotted keys (a
    # flows.list entry's keys as flows.list[].name), is the schema load_config reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^All config keys.*?^```yaml\n(.*?)^```$", readme, re.M | re.S).group(1)

    def flat(node, prefix=""):
        for name, value in node.items():
            key = f"{prefix}{name}"
            if isinstance(value, dict):
                yield from flat(value, key + ".")
                continue
            yield key
            for entry in value if isinstance(value, list) else ():
                if isinstance(entry, dict):
                    yield from flat(entry, key + "[].")

    assert set(flat(yaml.safe_load(block))) == set(cli.KEYS) | {f"flows.list[].{name}" for name in cli.FLOW_KEYS}


def test_scheme_key_narrows_the_sweep_unless_overridden(tmp_path, capsys):
    narrowed = load_config(
        write_config(tmp_path, "scheme: cope\nseed: 7\nflows: {count: 3, rate: 2}")
    )
    assert (narrowed.schemes, narrowed.seeds) == ([Scheme.COPE], [7])
    assert (narrowed.flow_counts, narrowed.rates) == ([3], [2.0])
    # the one-value key and its sweep list are two spellings of one axis
    both = write_config(tmp_path, "scheme: cope\nsweep: {schemes: [none]}", name="b.yaml")
    assert main(["run", "--config", str(both), "--out", str(tmp_path / "x")]) == 2
    assert "scheme cannot be combined with sweep.schemes" in capsys.readouterr().err
    # the command line still overrides the config
    config = write_config(tmp_path, CHAIN_YAML.replace("sweep:\n  seeds: [0, 1]", "scheme: cope"),
                          name="c.yaml")
    out = tmp_path / "y"
    assert main(["run", "--config", str(config), "--out", str(out), "--scheme", "none"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["none"]


def test_missing_config_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read config"):
        load_config(tmp_path / "nope.yaml")


def test_parse_scheme_names_the_valid_set():
    assert parse_scheme("excode") is Scheme.EXCODE
    with pytest.raises(ValidationError, match="none, cope, excode"):
        parse_scheme("best")


def test_explicit_flow_errors(tmp_path):
    with pytest.raises(ValidationError, match=r"flows.list\[0\] missing key"):
        load_config_and_build(tmp_path, "flows: {list: [{src: 0}]}")
    with pytest.raises(ValidationError, match=r"flows.list\[1\].speed"):
        load_config_and_build(
            tmp_path, "flows: {list: [{src: 0, dst: 1}, {src: 1, dst: 0, speed: 2}]}"
        )


def load_config_and_build(tmp_path, text):
    plan = load_config(write_config(tmp_path, text))
    plan.positions = [(0.0, 0.0), (100.0, 0.0)]
    return build_scenario(plan, Scheme.EXCODE, 0, plan.flow_counts[0], plan.rates[0])


def test_build_scenario_uses_positions_and_explicit_flows(tmp_path):
    plan = load_config(write_config(tmp_path, CHAIN_YAML))
    scn = build_scenario(plan, Scheme.EXCODE, 0, plan.flow_counts[0], plan.rates[0])
    assert scn.topology.n == 3
    assert [(f.src, f.dst, f.stop) for f in scn.flows] == [(0, 2, 0.5), (2, 0, 0.5)]
    assert scn.duration == 1.0


def test_topology_seed_decouples_layout_from_run_seed():
    plan = ExperimentPlan(topology_seed=11)
    a = build_scenario(plan, Scheme.EXCODE, 0, 2, 5.0)
    b = build_scenario(plan, Scheme.EXCODE, 1, 2, 5.0)
    assert a.topology == b.topology  # same field, different traffic
    free = ExperimentPlan()
    assert (build_scenario(free, Scheme.EXCODE, 0, 2, 5.0).topology
            != build_scenario(free, Scheme.EXCODE, 1, 2, 5.0).topology)


def test_run_plan_writes_one_row_per_run(tmp_path):
    plan = load_config(write_config(tmp_path, CHAIN_YAML))
    out = tmp_path / "out"
    reports = run_plan(plan, out)
    assert len(reports) == 3 * 2  # schemes x seeds, single cell
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == len(reports) + 1
    assert lines[0].startswith("scheme,seed,")
    for metric in ("throughput_kbps", "encoded_frac", "pdr", "mean_delay_s"):
        assert (out / f"{metric}.svg").exists()


def test_rates_sweep_charts_one_point_per_rate(tmp_path):
    plan = load_config(write_config(tmp_path, """
        flows: {count: 2}
        duration: 1.0
        sweep: {rates: [2.0, 5.0, 10.0], seeds: [0, 1], schemes: [excode]}
        """))
    run_plan(plan, tmp_path / "out")
    for metric in ("throughput_kbps", "encoded_frac", "pdr", "mean_delay_s"):
        assert (tmp_path / "out" / f"{metric}.svg").read_text().count("<circle") == 3


def test_run_plan_outputs_are_byte_stable(tmp_path):
    plan = load_config(write_config(tmp_path, CHAIN_YAML))
    first, second = tmp_path / "a", tmp_path / "b"
    run_plan(plan, first)
    run_plan(plan, second)
    for name in ("results.csv", "throughput_kbps.svg", "mean_delay_s.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched build_scenario reaches pool workers only when they are forked")
@pytest.mark.parametrize("seeds", [[0, 1], [0, 0]])
def test_run_plan_builds_each_field_once(tmp_path, monkeypatch, seeds):
    # two processes, whatever the host: the pool's worker is forked with the
    # patch in place, so every process appends its builds to one file
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    plan = ExperimentPlan(flow_counts=[2, 3], rates=[40.0], seeds=seeds, duration=1.0)
    log = tmp_path / "builds"

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{args[2:]}\n")
        return build_scenario(*args)

    monkeypatch.setattr(cli, "build_scenario", counted)
    cells = list(itertools.product(plan.flow_counts, plan.rates, plan.schemes, plan.seeds))
    expected = [finalize(run(build_scenario(plan, scheme, seed, n, rate))) for n, rate, scheme, seed in cells]

    assert run_plan(plan, tmp_path / "all") == expected
    assert len(log.read_text().splitlines()) == 2 * 2  # flow counts x seeds, not x 3 schemes
    rows = (tmp_path / "all" / "results.csv").read_text().splitlines()
    assert rows == [csv_header(), *(rep.csv_row() for rep in expected)]

    log.unlink()
    plan.schemes = [Scheme.COPE]  # as --scheme narrows it
    assert run_plan(plan, tmp_path / "cope") == [rep for rep in expected if rep.scheme == "cope"]
    assert len(log.read_text().splitlines()) == 2 * 2


def predicted_runs(plan, cells) -> int:
    """Runs a plan needs, from each cell's independent report (cells:
    (flows, rate, seed, scheme) -> report): on each field the distinct
    schemes run widest first, and one that coded nothing, and did not charge
    holder bytes to airtime, stands in for the narrower ones."""
    runs = 0
    for n, rate, seed in itertools.product(plan.flow_counts, plan.rates, plan.seeds):
        last = None
        for scheme in (Scheme.EXCODE, Scheme.COPE, Scheme.NON_CODING):
            if scheme not in plan.schemes:
                continue
            if last is None or last.encode_count or (last.scheme == "excode" and plan.count_header_overhead):
                runs += 1
                last = cells[n, rate, seed, scheme]
    return runs


# a run that coded nothing stands in for the narrower schemes' runs: every
# cell must still equal its own run, whole report and all. It scales with the
# profile's max_examples, as the config fuzzers do, and steers toward plans
# that code. On the 5-node line of the examples both rules code on the
# 3-flow fields and neither on the 2-flow ones
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched Simulation.run reaches the worker only when it is forked")
@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(
    flow_counts=st.lists(st.integers(0, 5), min_size=1, max_size=2),
    rates=st.lists(st.floats(2.0, 200.0), min_size=1, max_size=2),
    seeds=st.lists(st.integers(0, 99), min_size=1, max_size=2),
    schemes=st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4),
    count_header_overhead=st.booleans(),
    drain_grace=st.sampled_from([0.0, 0.2]),
    line=st.booleans(),
    nodes=st.integers(2, 16),
    channel_rate=st.sampled_from([2e5, 2e6]),
)
@example(flow_counts=[2, 3], rates=[200.0], seeds=[0, 1], schemes=[Scheme.NON_CODING, Scheme.EXCODE, Scheme.COPE,
         Scheme.NON_CODING], count_header_overhead=False, drain_grace=0.2, line=True, nodes=5, channel_rate=2e5)
@example(flow_counts=[2, 3], rates=[200.0], seeds=[0, 1], schemes=[Scheme.COPE, Scheme.EXCODE],
         count_header_overhead=True, drain_grace=0.0, line=True, nodes=5, channel_rate=2e5)
def test_run_plan_cells_equal_independent_runs(tmp_path_factory, flow_counts, rates, seeds, schemes,
                                               count_header_overhead, drain_grace, line, nodes, channel_rate):
    plan = ExperimentPlan(
        nodes=nodes, side=150.0 * math.sqrt(nodes), channel_rate=channel_rate, duration=0.25,
        positions=tuple((150.0 * i, 0.0) for i in range(nodes)) if line else None,
        flow_counts=flow_counts, rates=rates, seeds=seeds, schemes=schemes,
        count_header_overhead=count_header_overhead, drain_grace=drain_grace,
    )
    cells, error = {}, None
    for n, rate, seed in itertools.product(flow_counts, rates, seeds):
        try:
            for scheme in set(schemes):
                cells[n, rate, seed, scheme] = finalize(run(build_scenario(plan, scheme, seed, n, rate)))
        except ScenarioInvalidError as exc:  # too few connected pairs: the first such field's error
            error = exc
            break
    if not error:
        expected = [cells[n, rate, seed, scheme]
                    for n, rate, scheme, seed in itertools.product(flow_counts, rates, schemes, seeds)]

    target(float(sum(r.encode_count > 0 for r in cells.values())), label="cells that code")
    base = tmp_path_factory.mktemp("stand-in")
    log = base / "runs"
    simulate = cli.Simulation.run

    def counted(sim):
        with open(log, "a") as fh:
            fh.write(f"{sim.scenario.scheme}\n")
        return simulate(sim)

    for cpus in ({0}, {0, 1}):
        log.write_text("")
        with mock.patch.object(cli.os, "sched_getaffinity", lambda pid: cpus), \
                mock.patch.object(cli.Simulation, "run", counted):
            if error:
                with pytest.raises(ScenarioInvalidError, match=re.escape(str(error))):
                    run_plan(plan, base / "out")
                continue
            assert run_plan(plan, base / "out") == expected
        assert len(log.read_text().splitlines()) == predicted_runs(plan, cells)
        assert multiprocessing.active_children() == []


def sweep_outputs(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
def test_run_plan_gives_the_same_outputs_on_any_process_count(tmp_path, monkeypatch, cpus):
    # 6 fields, seed 1 twice; the process count is the affinity set's size
    plan = ExperimentPlan(flow_counts=[2, 3], rates=[40.0], seeds=[0, 1, 1], duration=1.0)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    alone = run_plan(plan, tmp_path / "one")
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus)
    assert run_plan(plan, tmp_path / "many") == alone
    assert len(alone) == 2 * 3 * 3
    assert sweep_outputs(tmp_path / "many") == sweep_outputs(tmp_path / "one")
    assert multiprocessing.active_children() == []


def run_plan_in_pool_worker(plan, out):
    return run_plan(plan, out), multiprocessing.active_children()


def test_run_plan_in_a_daemonic_process_runs_every_field_itself(tmp_path):
    # a multiprocessing.Pool worker cannot have children
    plan = ExperimentPlan(flow_counts=[2], rates=[40.0], seeds=[0, 1, 2], duration=1.0)
    with multiprocessing.Pool(1) as pool:
        reports, children = pool.apply_async(run_plan_in_pool_worker, (plan, tmp_path / "daemon")).get(60)
    assert children == []
    assert reports == run_plan(plan, tmp_path / "here")
    assert sweep_outputs(tmp_path / "daemon") == sweep_outputs(tmp_path / "here")


def test_run_plan_makes_no_pool_for_one_process(tmp_path):
    # one CPU, one field and a daemonic caller all run in the parent: no
    # process is started, no queue is made and no child is left
    script = textwrap.dedent("""
        import multiprocessing, os, sys
        from xorsim.cli import ExperimentPlan, run_plan

        def no_pool(plan, out):
            made = []
            multiprocessing.Process = lambda *args, **kwargs: made.append("process")
            multiprocessing.Queue = lambda *args, **kwargs: made.append("queue")
            run_plan(plan, out)
            return made, multiprocessing.active_children()

        if __name__ == "__main__":
            out = sys.argv[1]
            two_fields = ExperimentPlan(flow_counts=[2], rates=[40.0], seeds=[0, 1], duration=0.5)
            one_field = ExperimentPlan(flow_counts=[2], rates=[40.0], seeds=[0], duration=0.5)
            with multiprocessing.Pool(1) as pool:
                print(pool.apply_async(no_pool, (two_fields, out + "/daemon")).get(60))
            print(no_pool(one_field, out + "/one-field"))
            os.sched_getaffinity = lambda pid: {0}
            print(no_pool(two_fields, out + "/one-cpu"))
        """)
    (tmp_path / "no_pool.py").write_text(script)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(tmp_path / "no_pool.py"), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["([], [])"] * 3


def test_run_plan_starts_no_thread_in_the_parent(tmp_path, monkeypatch):
    # the parent takes the worker's fields off the queue on its own thread,
    # between its own fields: no helper thread competes with it for the GIL
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    started, threads = [], []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: started.append(self) or start(self))

    def counted(sim):
        threads.append(threading.active_count())
        return finalize(sim)

    monkeypatch.setattr(cli, "finalize", counted)
    plan = ExperimentPlan(flow_counts=[2, 3], rates=[40.0], seeds=[0, 1], duration=1.0)
    reports = run_plan(plan, tmp_path / "out")
    assert len(started) == 1  # one worker beside the parent
    assert threads == [1] * len(reports) == [1] * 2 * 2 * 3
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched _field_simulations reaches the worker only when it is forked")
def test_run_plan_raises_when_a_worker_dies(tmp_path, monkeypatch):
    # the worker exits on its first field without reporting: run_plan names
    # the field and the exit code within 30 s, and leaves no child
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    parent, field_simulations = os.getpid(), cli._field_simulations

    def dying(plan, *field):
        if os.getpid() != parent:
            os._exit(3)
        return field_simulations(plan, *field)

    monkeypatch.setattr(cli, "_field_simulations", dying)
    plan = ExperimentPlan(flow_counts=[2], rates=[40.0], seeds=[0, 1, 2, 3], duration=1.0)

    def hung(signum, frame):
        raise TimeoutError("run_plan still waits for the dead worker after 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match=re.escape("exited with code 3 before returning field 1,")):
            run_plan(plan, tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_run_plan_without_schemes_writes_only_the_header(tmp_path, monkeypatch):
    # no scheme runs nothing, as no seed does: a header-only results.csv and
    # empty charts, and no field is built
    monkeypatch.setattr(cli, "build_scenario", mock.Mock(side_effect=AssertionError("field built")))
    for axis in ("seeds", "schemes"):
        out = tmp_path / axis
        assert run_plan(ExperimentPlan(duration=1.0, **{axis: []}), out) == []
        assert (out / "results.csv").read_text() == csv_header() + "\n"
    files = sorted(path.name for path in (tmp_path / "seeds").iterdir())
    assert files == sorted(["results.csv", *(f"{column}.svg" for column, _ in cli.CHART_METRICS)])
    for name in files:
        assert (tmp_path / "schemes" / name).read_bytes() == (tmp_path / "seeds" / name).read_bytes()
        assert b"<circle" not in (tmp_path / "schemes" / name).read_bytes()


def test_main_run_subcommand(tmp_path, capsys):
    config = write_config(tmp_path, CHAIN_YAML)
    out = tmp_path / "results"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert "wrote 6 runs" in capsys.readouterr().out
    assert (out / "results.csv").exists()


def test_main_scheme_and_seed_overrides(tmp_path, capsys):
    config = write_config(tmp_path, CHAIN_YAML)
    out = tmp_path / "results"
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--scheme", "excode", "--seed", "5"])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("excode,5,")


def test_main_figures_only_draws_charts(tmp_path, capsys, monkeypatch):
    # the real sweep takes minutes; what figures owns is the plan and exit 0
    plans = []
    monkeypatch.setattr("xorsim.cli.run_plan", lambda plan, out: plans.append((plan, out)) or [])
    assert main(["figures", "--out", str(tmp_path)]) == 0
    [(plan, out)] = plans
    assert plan.flow_counts == [2, 4, 6, 8]
    assert plan.seeds == [0, 1, 2, 3, 4]
    assert (plan.duration, plan.rates) == (4.0, [150.0])
    assert "PASS" not in capsys.readouterr().out


def test_main_reports_config_errors(tmp_path, capsys):
    config = write_config(tmp_path, "scheme: sideways")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_main_reports_scenario_errors(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
        topology: {positions: [[0, 0], [100, 0], [1000, 0]], range: 200}
        flows: {list: [{src: 0, dst: 1}, {src: 0, dst: 2}]}
        """,
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: flows.list[1]: no route from 0 to 2\n"


@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
def test_main_reports_a_worker_field_error_as_one_process_does(tmp_path, capsys, monkeypatch, cpus):
    # seed 0 runs; seed 1's layout cuts flow 0, seed 5's flow 1. The first
    # failing field (seed 1) runs in a worker, and its message is the one a
    # one-process run gives, even though seed 5 may fail first
    config = write_config(
        tmp_path,
        """
        topology: {nodes: 6, side: 500}
        flows: {list: [{src: 0, dst: 1}, {src: 2, dst: 3}]}
        duration: 0.5
        sweep: {seeds: [0, 1, 5]}
        """,
    )
    errors = []
    for affinity in ({0}, cpus):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors == ["error: flows.list[0]: no route from 0 to 1 in the layout of seed 1\n"] * 2


def test_flows_of_different_packet_sizes_meet_without_coding(tmp_path, capsys):
    # the two flows cross at relay 1 at a rate that keeps its queue full:
    # their payloads differ in length, so no scheme may XOR them
    config = write_config(
        tmp_path,
        """
        topology: {positions: [[0, 0], [100, 0], [200, 0]], range: 150}
        flows:
          list:
            - {src: 0, dst: 2, rate: 400.0, packet_size: 512}
            - {src: 2, dst: 0, rate: 400.0, packet_size: 256}
        duration: 2.0
        """,
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "wrote 3 runs" in capsys.readouterr().out
    header, *rows = (out / "results.csv").read_text().splitlines()
    assert sorted(row.split(",")[0] for row in rows) == ["cope", "excode", "none"]
    encodes = header.split(",").index("encodes")
    assert {row.split(",")[encodes] for row in rows} == {"0"}
