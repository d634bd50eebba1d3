"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os

import pytest

import run  # first: puts the checkout's src/ on sys.path

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared(kind: str):
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_declared_workloads_exist():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_units_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_prints_declared_metrics(capsys, name, trace):
    code, manifest, result = _result(
        capsys,
        ["--workload", name, "--size", "tiny", "--seconds", "0.2", "--trace", str(trace)],
    )
    assert code == 0, manifest["problems"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert manifest["seed"] == 0 and manifest["nproc"] and manifest["python"]
    assert manifest["params"] == WORKLOADS[name]("tiny").params()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_split_sums_to_traced_wall(name):
    parts, wall, _counters, _cells = run.traced_pass(WORKLOADS[name]("tiny"), seed=1)
    assert set(parts) == set(layers.LAYERS)
    assert wall > 0
    assert sum(parts.values()) == pytest.approx(wall, rel=1e-3)


def test_site_map_examples():
    assert layers.layer_of_site("call_soon:LAN._flush") == "net.lan"
    assert layers.layer_of_site("Timeout->LAN._arm_wake.<locals>.<lambda>") == "net.lan"
    assert layers.layer_of_site("resume:serve:web@seattle#N") == "core.switch"
    assert layers.layer_of_site("Event->attempt:gold@chaosN#N") == "core.switch"
    assert layers.layer_of_site("Timeout->batch:bg-us-east-N") == "sim.fluid"
    assert layers.layer_of_site("resume:batch:web:-") == "core.switch"
    assert layers.layer_of_site("Timeout->health:gold") == "faults"
    assert layers.layer_of_site("Process->AnyOf._check") == layers.KERNEL
    assert layers.layer_of_site("resume:something-new") == layers.UNATTRIBUTED


def _references(tmp_path, monkeypatch, table):
    path = tmp_path / "references.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(run, "REFERENCES", str(path))
    return path


def test_recorded_reference_matches(tmp_path, monkeypatch, capsys):
    path = _references(tmp_path, monkeypatch, {})
    assert run.main(["--workload", "cpu-shares", "--size", "tiny", "--record-references", "1"]) == 0
    assert "0" in json.loads(path.read_text())["cpu-shares@tiny"]
    code, manifest, result = _result(
        capsys, ["--workload", "cpu-shares", "--size", "tiny", "--seconds", "0.1", "--trace", "1"]
    )
    assert code == 0 and result["correct"]
    assert manifest["verification"]["reference"] == "match"


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    _references(tmp_path, monkeypatch, {"cpu-shares@tiny": {"0": "0" * 64}})
    code, manifest, result = _result(
        capsys, ["--workload", "cpu-shares", "--size", "tiny", "--seconds", "0.1", "--trace", "1"]
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert manifest["verification"]["reference"] == "MISMATCH"


def test_heldout_seed_is_verified_and_reported(capsys):
    code, manifest, _result_line = _result(
        capsys,
        ["--workload", "cpu-shares", "--size", "tiny", "--seconds", "0.1", "--trace", "1",
         "--heldout-seed", "7"],
    )
    assert code == 0
    assert manifest["heldout"]["seed"] == 7
    assert manifest["heldout"]["digest"] != manifest["verification"]["digest"]
