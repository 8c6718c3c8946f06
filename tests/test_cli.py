import textwrap

import pytest

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
    plan = load_config(write_config(tmp_path, ""))
    assert plan == ExperimentPlan()
    assert plan.nodes == 16
    assert plan.sweep_schemes == [Scheme.NON_CODING, Scheme.COPE, Scheme.EXCODE]


def test_full_config_round_trip(tmp_path):
    plan = load_config(
        write_config(
            tmp_path,
            """
            topology: {nodes: 9, side: 500, range: 180, seed: 3}
            flows: {count: 4, rate: 2.5, packet_size: 256}
            channel: {rate_bps: 1000000}
            duration: 30
            seed: 7
            scheme: cope
            count_header_overhead: true
            drain_grace: 2.0
            sweep: {flows: [2, 4], schemes: [excode, none], seeds: [1, 2, 3]}
            """,
        )
    )
    assert (plan.nodes, plan.side, plan.radio_range, plan.topology_seed) == (9, 500.0, 180.0, 3)
    assert (plan.flow_count, plan.rate, plan.packet_size) == (4, 2.5, 256)
    assert plan.channel_rate == 1_000_000.0
    assert (plan.duration, plan.seed, plan.scheme) == (30.0, 7, Scheme.COPE)
    assert plan.count_header_overhead and plan.drain_grace == 2.0
    assert plan.sweep_flows == [2, 4]
    assert plan.sweep_schemes == [Scheme.EXCODE, Scheme.NON_CODING]
    assert plan.sweep_seeds == [1, 2, 3]


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("bogus: 1", "unknown config key: bogus"),
        ("topology: {sides: 3}", "unknown config key: topology.sides"),
        ("topology: {nodes: 2.5}", "topology.nodes must be an integer"),
        ("topology: {nodes: zero}", "topology.nodes must be a number"),
        ("topology: {nodes: 0}", "topology.nodes must be >="),
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
        ("flows: {list: [{src: abc, dst: 1}]}", "flows.list[0].src must be a number"),
        ("flows: {list: [{src: 0, dst: 1, rate: .nan}]}", "flows.list[0].rate must be finite"),
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
    ],
)
def test_config_errors_name_the_key(tmp_path, snippet, needle):
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, snippet))
    assert needle in str(err.value)


def test_scheme_key_narrows_the_sweep_unless_overridden(tmp_path):
    narrowed = load_config(write_config(tmp_path, "scheme: cope"))
    assert narrowed.sweep_schemes == [Scheme.COPE]
    both = load_config(
        write_config(tmp_path, "scheme: cope\nsweep: {schemes: [none]}", name="b.yaml")
    )
    assert both.sweep_schemes == [Scheme.NON_CODING]


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
    return build_scenario(plan, Scheme.EXCODE, seed=0)


def test_build_scenario_uses_positions_and_explicit_flows(tmp_path):
    plan = load_config(write_config(tmp_path, CHAIN_YAML))
    scn = build_scenario(plan, Scheme.EXCODE, seed=0)
    assert scn.topology.n == 3
    assert [(f.src, f.dst, f.stop) for f in scn.flows] == [(0, 2, 0.5), (2, 0, 0.5)]
    assert scn.duration == 1.0


def test_topology_seed_decouples_layout_from_run_seed():
    plan = ExperimentPlan(topology_seed=11)
    a = build_scenario(plan, Scheme.EXCODE, seed=0)
    b = build_scenario(plan, Scheme.EXCODE, seed=1)
    assert a.topology == b.topology  # same field, different traffic
    free = ExperimentPlan()
    assert build_scenario(free, Scheme.EXCODE, 0).topology != build_scenario(free, Scheme.EXCODE, 1).topology


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


def test_run_plan_outputs_are_byte_stable(tmp_path):
    plan = load_config(write_config(tmp_path, CHAIN_YAML))
    first, second = tmp_path / "a", tmp_path / "b"
    run_plan(plan, first)
    run_plan(plan, second)
    for name in ("results.csv", "throughput_kbps.svg", "mean_delay_s.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


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
    assert plan.sweep_flows == [2, 4, 6, 8]
    assert plan.sweep_seeds == [0, 1, 2, 3, 4]
    assert (plan.duration, plan.rate) == (4.0, 150.0)
    assert "PASS" not in capsys.readouterr().out


def test_main_reports_config_errors(tmp_path, capsys):
    config = write_config(tmp_path, "scheme: sideways")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_main_reports_scenario_errors(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
        topology: {positions: [[0, 0], [900, 0]]}
        flows: {list: [{src: 0, dst: 1}]}
        """,
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "no route" in capsys.readouterr().err
