"""BENCHMARK.json says what bench.metrics and bench.workloads say."""

import json
import re

from bench.cli import DEFAULT_SECONDS
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import BY_NAME, WHY

from .conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_command():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "-m", "bench"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == DEFAULT_SECONDS


def test_workloads_match_the_suite():
    doc = contract()
    assert [w["name"] for w in doc["workloads"]] == list(BY_NAME)
    for w in doc["workloads"]:
        assert w["why"] == WHY[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_the_registry():
    doc = contract()
    assert doc["end_to_end"] == [
        dict(name=m.name, unit=m.unit, better=m.better, bound=m.bound) for m in END_TO_END
    ]
    assert doc["per_layer"] == [dict(name=m.name, unit=m.unit, better=m.better) for m in PER_LAYER]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_names_units_and_limits():
    doc = contract()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        for m in doc[key]:
            assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128


def test_every_layer_metric_names_what_it_moves():
    e2e = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        if m.moves.startswith("none"):
            continue
        metric, _, workload = m.moves.partition("@")
        assert metric in e2e and workload in BY_NAME, m
