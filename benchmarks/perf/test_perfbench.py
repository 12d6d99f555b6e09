"""Tests of the benchmark itself, at ``--quick`` sizes.

Run with ``pytest benchmarks/perf -q`` from the repository root (about
a minute: one quick set of all five workloads plus their traced runs).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import LAYER_NAMES, LayerTracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
QUICK_SECONDS = 2


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def quick_set() -> dict:
    return run.run_set(list(run.WORKLOADS), 1, 0, QUICK_SECONDS,
                       quick=True, trace=True, trace_out=None,
                       log=lambda _msg: None)


# -- names --------------------------------------------------------------------

def test_names_are_well_formed_and_unique(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_per_layer_list_matches_the_worker(spec):
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == worker.per_layer_units()


def test_every_metric_is_reported_for_every_workload(spec, quick_set):
    for run_ in quick_set["runs"]:
        assert set(run_["metrics"]) == {m["name"]
                                        for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            assert run_["metrics"][m["name"]]["value"] > 0, m["name"]
    assert set(quick_set["traced"]) == set(run.WORKLOADS)
    for traced in quick_set["traced"].values():
        for m in spec["per_layer"]:
            assert m["name"] in traced, m["name"]


# -- correctness and determinism ----------------------------------------------

def test_quick_runs_are_correct_with_no_errors(quick_set):
    for workload, row in quick_set["summary"].items():
        assert row["correct"], workload
        assert row["error_rate"] == 0, workload
    for workload, traced in quick_set["traced"].items():
        assert traced["correct"], workload


def test_tracing_leaves_the_simulation_identical(quick_set):
    untraced = {r["workload"]: r["detail"]["sim_digest"]
                for r in quick_set["runs"]}
    for workload, traced in quick_set["traced"].items():
        assert traced["sim_digest"] == untraced[workload], workload


def test_paper_fig7_matches_the_recorded_speedups(quick_set):
    paper = next(r["detail"]["paper"] for r in quick_set["runs"]
                 if r["workload"] == "paper-fig7")
    assert paper["speedups"]["mv"][0] == pytest.approx(12.69, abs=0.01)
    assert paper["speedups"]["cg"][0] == pytest.approx(36.43, abs=0.01)
    assert paper["speedups"]["mle"][0] == pytest.approx(1.016, abs=0.001)


# -- the traced split ---------------------------------------------------------

def test_traced_split_adds_up(quick_set):
    for workload, traced in quick_set["traced"].items():
        shares = [traced[f"{layer}.share"] for layer in LAYER_NAMES]
        for layer, share in zip(LAYER_NAMES, shares):
            assert share >= 0, (workload, layer)
        assert sum(shares) == pytest.approx(1.0, abs=0.02), workload


def test_self_time_excludes_children():
    tracer = LayerTracer(record_spans=True)
    outer = tracer._wrap(lambda self, n: [inner(self, n) for _ in range(3)],
                         "core.controller")
    inner = tracer._wrap(lambda self, n: sum(range(n)), "core.dag.add")
    tracer.on = True
    outer(None, 20000)
    tracer.on = False
    ctl = LAYER_NAMES.index("core.controller")
    add = LAYER_NAMES.index("core.dag.add")
    assert tracer.calls[ctl] == 1 and tracer.calls[add] == 3
    spans = {LAYER_NAMES[s[0]]: s for s in tracer.spans}
    outer_span = spans["core.controller"]
    inner_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == add)
    assert tracer.self_s[ctl] == pytest.approx(
        outer_span[2] - outer_span[1] - inner_total, abs=1e-9)
    events = tracer.chrome_trace()["traceEvents"]
    parent_id = next(e["args"]["id"] for e in events
                     if e["name"] == "core.controller")
    assert all(e["args"]["parent"] == parent_id for e in events
               if e["name"] == "core.dag.add")


# -- compare.py ---------------------------------------------------------------

def _report(spec: dict, scale: dict[str, float]) -> dict:
    runs = []
    for seed in range(10):
        noise = 1 + 0.01 * ((seed * 7) % 5 - 2)
        runs.append({"workload": "iterative", "seed": seed, "correct": True,
                     "attempted": 100, "failed": 0,
                     "metrics": {m["name"]: {"value": 100.0 * noise
                                             * scale.get(m["name"], 1.0),
                                             "unit": m["unit"]}
                                 for m in spec["end_to_end"]}})
    return {"runs": runs, "summary": run.summarise(
        runs, [m["name"] for m in spec["end_to_end"]])}


def test_compare_flags_a_throughput_drop_beyond_its_bound(spec, tmp_path,
                                                          capsys):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "ops_per_s")
    base = tmp_path / "base.json"
    new = tmp_path / "new.json"
    base.write_text(json.dumps(_report(spec, {})))
    new.write_text(json.dumps(_report(spec, {"ops_per_s": 0.95 - bound})))
    argv = [str(base), str(new)]
    assert compare.main(argv) == 1
    rows = compare.compare(json.loads(base.read_text()),
                           json.loads(new.read_text()), spec)
    worse = {r["metric"] for r in rows if r["verdict"] == "worse"}
    assert worse == {"ops_per_s"}
    capsys.readouterr()


def test_compare_passes_identical_reports(spec, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_report(spec, {})))
    assert compare.main([str(base), str(base)]) == 0
    rows = compare.compare(json.loads(base.read_text()),
                           json.loads(base.read_text()), spec)
    assert {r["verdict"] for r in rows} == {"unchanged"}


def test_compare_error_rate_rise_is_worse(spec):
    base = _report(spec, {})
    new = _report(spec, {})
    new["summary"]["iterative"]["error_rate"] = 0.01
    rows = compare.compare(base, new, spec)
    assert [r["verdict"] for r in rows if r["metric"] == "error_rate"] \
        == ["worse"]


# -- without the program ------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "iterative", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
