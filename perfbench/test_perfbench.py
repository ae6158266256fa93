"""Tests of the benchmark itself, on tiny slices of each workload.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import compare
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "axiom-suite": [c for c in workloads.AXIOM_SUITE
                    if c.model in ("C", "Z", "N", "Unital(Z,1)")],
    "wide-window": [c for c in workloads.WIDE_WINDOW if c.model == "C"],
    "roundtrip": [r for r in workloads.ROUNDTRIP
                  if r.model in ("Z", "C", "B", "N")],
    "cli-mix": [c for c in workloads.CLI_MIX
                if c.config["command"] in ("check", "check-family",
                                           "ant-check", "registry-list")
                and c.config.get("model") not in ("Sigma(Z^2)", "Z^2")],
}


@pytest.fixture
def mv():
    return run.load_mvtool()


def run_main(monkeypatch, tmp_path, capsys, workload, items, trace):
    monkeypatch.setitem(workloads.WORKLOADS, workload, items)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(monkeypatch, tmp_path, capsys, workload,
                                    trace):
    code, result = run_main(monkeypatch, tmp_path, capsys, workload,
                            TINY[workload], trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    record = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert set(record["provenance"]) == {"git_sha", "src_dirty",
                                         "bench_dirty", "python", "numpy",
                                         "nproc", "cpu"}


def test_spec_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert len(workloads.AXIOM_SUITE) == 178
    assert len(workloads.CLI_MIX) == 11
    assert [c.exit for c in workloads.CLI_MIX] == [0, 0, 1, 1, 0, 0, 0, 0, 0,
                                                   0, 0]


def test_cli_descriptors_are_set_up():
    assert workloads.descriptors(workloads.CLI_MIX) == [
        "C", "L(2)", "Lex(Z,Z)", "PosCone(Lex(Z,Z))", "Prod(C,C)",
        "Sigma(Z^2)", "Z^2"]


def test_wide_window_reaches_the_vector_engine(monkeypatch, mv):
    from mvtool import checking

    item = next(c for c in workloads.WIDE_WINDOW
                if c.model == "Sigma(Z^2)" and c.label == "rad_ideal.viii")
    models = {item.model: mv.parse_model(item.model)}
    (_, call, expect), = workloads.prepare([item], 0, mv, models)
    original = checking._check_vector
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(checking, "_check_vector", spy)
    assert workloads.matches(call(), expect)
    assert calls


def test_planted_wrong_expectation_counts_once_per_item(monkeypatch, tmp_path,
                                                        capsys):
    items = list(TINY["roundtrip"])
    items[1] = replace(items[1], checked_pairs=items[1].checked_pairs + 1)
    code, result = run_main(monkeypatch, tmp_path, capsys, "roundtrip", items,
                            0)
    assert code == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] == 1 / len(items)


def test_planted_carrier_delay_shows_in_its_layer(monkeypatch, mv):
    from mvtool.mv_core import ChangAlgebra

    items = [c for c in TINY["wide-window"] if c.label.startswith("gamma")]
    models = {"C": mv.parse_model("C")}
    original = ChangAlgebra.oplus
    delay = 5e-5
    calls = []

    def slow_oplus(self, x, y):
        calls.append(1)
        until = time.perf_counter() + delay
        while time.perf_counter() < until:
            pass
        return original(self, x, y)

    def traced_layers():
        tracer = tracing.Tracer()
        batch = workloads.prepare(items, 0, mv, models, tracer)
        tracer.install()
        try:
            run.run_batch(batch, tracer)
        finally:
            tracer.uninstall()
        return tracer.layer_metrics()

    base = traced_layers()
    monkeypatch.setattr(ChangAlgebra, "oplus", slow_oplus)
    slow = traced_layers()
    added = len(calls) * delay
    assert added > 0.05
    assert slow["mv_core.op_s"] - base["mv_core.op_s"] >= 0.9 * added
    assert slow["checking.self_s"] - base["checking.self_s"] < 0.1 * added


def test_traced_counts_repeat_across_runs(mv):
    items = TINY["cli-mix"] + TINY["roundtrip"]
    first = run.measure(mv, items, 1, 0, True)
    second = run.measure(mv, items, 2, 0, True)
    assert first["errors"] == [] and second["errors"] == []
    assert first["counts"] == second["counts"]
    assert first["counts"]["equivalence.checked_pairs"] == sum(
        r.checked_pairs for r in TINY["roundtrip"])
    assert first["counts"]["checking.cells"] > 0


def test_a_slow_host_scales_times_down(monkeypatch):
    monkeypatch.setattr(speed, "kernel", lambda: 2 * speed.REFERENCE_S)
    host = speed.Speed()
    mark = host.mark()
    host.keep_up(1.0)
    assert host.spent >= speed.SHARE * 1.0 > host.spent - 2 * speed.REFERENCE_S
    assert host.factor(mark) == pytest.approx(0.5)
    assert host.factor(host.mark()) == pytest.approx(0.5)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [1.05, 1.06, 1.04, 1.05, 1.05],
                           "lower", 0.1) == "within"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3],
                           "lower", 0.1) == "beyond"
    assert compare.verdict(base, [0.5, 1.5, 0.7, 1.4, 1.0],
                           "lower", 0.1) == "unresolved"


def test_compare_refuses_runs_of_another_length(tmp_path, capsys):
    files = []
    for seconds in (20, 10):
        path = tmp_path / f"s{seconds}.json"
        path.write_text(json.dumps({"seconds": seconds, "trace": 0,
                                    "runs": []}))
        files.append(str(path))
    assert compare.main(files) == 1
    assert "seconds differs" in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
