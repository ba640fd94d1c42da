"""The suite end to end at --smoke scale: every name in BENCHMARK.json shows
up with a unit, nothing fails, a failing op is counted and changes the exit
code, and the traced run reconciles with itself."""

import json
import subprocess
import sys

import pytest

from bench.traced import traced_point, Spans

from .conftest import ROOT


def bench(*args, timeout=300):
    proc = subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=timeout)
    return proc


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "payload.json"
    proc = bench("--smoke", "--out", str(out))
    return proc, json.loads(out.read_text())


def test_smoke_suite_is_clean_and_complete(smoke):
    proc, payload = smoke
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert payload["manifest"]["scale"] == "smoke" and payload["manifest"]["repeats"] == 1
    doc = contract()
    assert list(payload["workloads"]) == [w["name"] for w in doc["workloads"]]
    for name, workload in payload["workloads"].items():
        assert workload["fail_share"] == 0 and workload["failed"] == 0, workload["failures"]
        assert workload["environment"]["dispatch"] in ("native", "pure")
        for metric in doc["end_to_end"]:
            measured = workload["metrics"][metric["name"]]
            assert measured["unit"] == metric["unit"] and measured["median"] > 0, (name, metric)
            assert f"  {metric['name']}" in proc.stdout
        assert workload["events"] > 0 and len(workload["sim_digest"]) == 64
        assert name in proc.stdout
    # ControlEnv refuses native dispatch, whatever the default is.
    assert payload["workloads"]["control-env"]["environment"]["dispatch"] == "pure"
    assert "control-env  (1 passes/unit, dispatch pure)" in proc.stdout


def test_manifest_records_what_ran(smoke):
    _proc, payload = smoke
    manifest = payload["manifest"]
    assert {"seed", "seconds", "scale", "repeats", "cpu_count", "pythonhashseed",
            "git_commit", "executor"} <= set(manifest)
    environment = payload["workloads"]["fig7-paper"]["environment"]
    assert {"dispatch", "python", "gc_enabled", "gc_threshold"} <= set(environment)
    assert "canary_s" in payload and len(payload["canary_s"]) == 3 and "noisy" in payload


def test_single_workload_prints_the_result_object():
    proc = bench("--smoke", "--workload", "control-env", "--seed", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    doc = contract()
    assert set(result["metrics"]) == {m["name"] for m in doc["end_to_end"]}
    for metric in doc["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


def test_injected_failure_raises_fail_share_and_exit_code():
    proc = bench("--smoke", "--workload", "control-env", "--inject-failure", "control-env")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED injected" in proc.stdout


def test_seed_reaches_the_specs():
    digests = []
    for seed in ("1", "2"):
        proc = bench("--smoke", "--workload", "incast-massive", "--seed", seed)
        assert proc.returncode == 0
        line = next(ln for ln in proc.stdout.splitlines() if "sim_digest" in ln)
        digests.append(line.split("sim_digest")[1].strip())
    assert digests[0] != digests[1]


def test_traced_run_reconciles(tmp_path):
    spans_path, out = tmp_path / "spans.json", tmp_path / "trace.json"
    proc = bench("--smoke", "--trace", "--workload", "incast-massive",
                 "--trace-out", str(spans_path), "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = contract()
    assert set(result["metrics"]) == {m["name"] for m in doc["per_layer"]}
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert all(v["unit"] == units[name] for name, v in result["metrics"].items())
    assert result["correct"] is True
    payload = json.loads(out.read_text())
    workload = payload["workloads"]["incast-massive"]
    assert not payload["skipped"], payload["skipped"]
    assert all(op["equal"] for op in workload["ops"])
    check = workload["span_check"]
    assert check["self_sum_s"] == pytest.approx(check["traced_s"], rel=0.02)
    # Raw spans: per op, self times sum to the op's independently timed wall.
    spans = json.loads(spans_path.read_text())["incast-massive"]
    children = {}
    for row in spans:
        children.setdefault(row["parent"], []).append(row)
    for op in workload["ops"]:
        rows = [r for r in spans if r["op"] == op["op"]]
        self_sum = sum(
            (r["end"] - r["start"]) - sum(c["end"] - c["start"] for c in children.get(r["id"], []))
            for r in rows
        )
        assert self_sum == pytest.approx(op["traced_s"], rel=0.02)


def test_traced_recipe_equals_run_scenario():
    from repro import ScenarioSpec, run_scenario

    spec = ScenarioSpec.create("dctcp+", 8, rounds=2, seed=5, topology="fat-tree",
                               workload="http", topo=dict(fat_tree_k=4, hosts_per_edge=2))
    assert traced_point(Spans(), spec) == run_scenario(spec)


def test_compare_cli_on_the_smoke_payload(smoke, tmp_path):
    _proc, payload = smoke
    a = tmp_path / "a.json"
    a.write_text(json.dumps(payload))
    proc = bench("--compare", str(a), str(a))
    assert proc.returncode == 0 and "0 worse" in proc.stdout
    payload["manifest"]["scale"] = "full"
    b = tmp_path / "b.json"
    b.write_text(json.dumps(payload))
    refused = bench("--compare", str(a), str(b))
    assert refused.returncode == 2 and "refusing" in refused.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bench", "--workload", "fig7-paper", "--seed", "1",
                           "--seconds", "10", "--trace", "0"], cwd=tmp_path, text=True,
                          capture_output=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
