import json
from pathlib import Path

from perfbench.catalog import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layers.json").read_text())
END_TO_END = ["setup_s", "work_per_s", "peak_rss_mb"]


def test_top_level_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_workloads_match_catalog():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    assert [m["name"] for m in LAYER_MAP] == [m["name"] for m in BENCHMARK["per_layer"]]
    moves = {m["name"] for m in BENCHMARK["end_to_end"]} | {"none"}
    for m in LAYER_MAP:
        assert set(m["on"]) <= set(WORKLOADS) and m["moves"] in moves, m["name"]


def test_per_layer_metrics_are_the_ones_computed():
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer

    names = list(layer_metrics(Tracer(), 0.0))
    assert names == [m["name"] for m in BENCHMARK["per_layer"]]


def test_end_to_end_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == END_TO_END


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
