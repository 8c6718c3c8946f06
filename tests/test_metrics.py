from dataclasses import replace

import pytest

from xorsim.coding import Scheme
from xorsim.metrics import CSV_COLUMNS, csv_header, finalize
from xorsim.scenarios import chain_scenario, junction_scenario, random_scenario
from xorsim.simulator import FlowSpec, Scenario, run
from xorsim.topology import build_topology


def test_csv_header_names_every_column_once():
    assert csv_header() == (
        "scheme,seed,flows,offered_kbps,throughput_kbps,encoded_frac,pdr,"
        "mean_delay_s,total_tx,encodes,decode_failures"
    )
    assert len(set(CSV_COLUMNS)) == len(CSV_COLUMNS)


def test_chain_report_by_hand():
    report = finalize(run(chain_scenario(Scheme.EXCODE)))
    # two 512-byte packets over one second, both delivered after two hops
    assert report.generated == 2
    assert report.delivered == 2
    assert report.offered_kbps == 2 * 512 * 8 / 1.0 / 1000.0
    assert report.throughput_kbps == report.offered_kbps
    assert report.delivery_ratio == 1.0
    assert report.mean_delay_s == 0.004096
    assert report.total_tx == 3
    assert report.encoded_tx == 1
    assert report.encoded_fraction == 1 / 3
    assert report.encode_count == 1
    assert report.decode_failures == 0
    assert report.scheme == "excode"


def test_junction_reports_coding_node():
    report = finalize(run(junction_scenario(Scheme.EXCODE)))
    assert report.per_node_encodes == {2: 1}
    assert report.holder_bytes_total > 0
    plain = finalize(run(junction_scenario(Scheme.NON_CODING)))
    assert plain.per_node_encodes == {}
    assert plain.holder_bytes_total == 0
    assert plain.encoded_fraction == 0.0


def test_row_matches_header_shape_and_reparses():
    report = finalize(run(chain_scenario(Scheme.COPE)))
    row = report.csv_row()
    cells = row.split(",")
    assert len(cells) == len(CSV_COLUMNS)
    named = dict(zip(CSV_COLUMNS, cells))
    assert named["scheme"] == "cope"
    assert int(named["total_tx"]) == report.total_tx
    assert float(named["throughput_kbps"]) == report.throughput_kbps
    assert float(named["mean_delay_s"]) == report.mean_delay_s
    # repr round-trips floats exactly, keeping rows byte-stable
    assert named["mean_delay_s"] == repr(report.mean_delay_s)


def test_empty_run_yields_vacuous_report():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0)], 200.0)
    report = finalize(run(Scenario(topo, (), Scheme.EXCODE, duration=1.0)))
    assert report.generated == 0
    assert report.delivery_ratio == 1.0
    assert report.mean_delay_s is None
    assert report.throughput_kbps == 0.0
    row = report.csv_row()
    assert row.split(",")[CSV_COLUMNS.index("mean_delay_s")] == ""


def test_undelivered_traffic_lowers_ratio_not_throughput_math():
    topo = build_topology([(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)], 200.0)
    scn = Scenario(
        topo,
        (FlowSpec(0, 0, 2, rate=1.0, stop=0.5),),
        Scheme.NON_CODING,
        duration=0.003,  # cut off mid-flight
    )
    report = finalize(run(scn))
    assert report.generated == 1
    assert report.delivered == 0
    assert report.delivery_ratio == 0.0
    assert report.throughput_kbps == 0.0
    assert report.offered_kbps == 512 * 8 / 0.003 / 1000.0


def test_reports_are_seed_stable():
    scn = random_scenario(Scheme.EXCODE, seed=9, n_flows=4, rate=60.0, duration=1.0, capture_trace=False)
    assert finalize(run(scn)) == finalize(run(replace(scn)))


def test_report_is_an_immutable_value():
    sim = run(junction_scenario(Scheme.EXCODE))
    report = finalize(sim)
    assert report == finalize(sim)
    with pytest.raises(AttributeError):
        report.total_tx = 0
    # the junction relay codes once; each column prints as str of its value, None as ""
    assert report.csv_row() == "excode,0,2,8.192,8.192,0.4,1.0,0.006144,5,1,0"
