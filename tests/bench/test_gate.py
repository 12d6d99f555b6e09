"""The one bench gate: ``repro.bench.gate`` against ``BENCH_baseline.json``.

No benchmark runs here.  Doctored copies of the committed baseline trip
each bound the gate holds, at the bound the old per-suite gates held,
and CI's four gate steps run their scripts on faked measurements to
show that every row they emit meets a baseline row or a floor.
"""

import copy
import importlib.util
import json
import pathlib
import types

import pytest

from repro.bench import backends, gate, scale

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO / "BENCH_baseline.json"
BASELINE = gate.load(BASELINE_PATH)


def _script(name: str):
    """Import ``benchmarks/<name>.py`` as a fresh module."""
    spec = importlib.util.spec_from_file_location(
        f"_script_{name}", REPO / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(record: dict, **where) -> list[dict]:
    return [r for r in record["rows"]
            if all(r[k] == v for k, v in where.items())]


def _with(record: dict, value: float, **where) -> dict:
    """A copy of ``record`` whose one row matching ``where`` reads
    ``value``."""
    doctored = copy.deepcopy(record)
    [row] = _rows(doctored, **where)
    row["value"] = value
    return doctored


def _key(r: dict) -> tuple:
    return r["suite"], r["cell"], r["metric"]


class TestRecord:
    def test_baseline_rows_are_well_formed(self):
        raw = json.loads(BASELINE_PATH.read_text("utf-8"))
        assert gate.problems(raw) == []
        assert {r["suite"] for r in raw["rows"]} == {"scale", "serve"}

    def test_baseline_file_is_in_written_form(self, tmp_path):
        path = tmp_path / "baseline.json"
        gate.write(path, BASELINE["rows"])
        assert path.read_text("utf-8") == BASELINE_PATH.read_text("utf-8")

    @pytest.mark.parametrize("change", [
        {"suite": "figures"}, {"better": "up"}, {"value": "fast"},
        {"value": float("nan")}, {"cell": ""}, {"extra": 1},
        {"better": "lower", "floor": 1.0},
    ], ids=lambda c: "-".join(c))
    def test_malformed_rows_are_refused(self, change):
        bad = copy.deepcopy(BASELINE)
        bad["rows"][0].update(change)
        assert gate.problems(bad)
        with pytest.raises(ValueError, match="malformed"):
            gate.check(BASELINE, bad)

    def test_repeated_row_is_refused(self):
        doubled = {"schema": gate.SCHEMA,
                   "rows": BASELINE["rows"] + BASELINE["rows"][:1]}
        assert "repeats" in " ".join(gate.problems(doubled))

    def test_out_replaces_only_the_measured_cells(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(BASELINE_PATH.read_text("utf-8"), "utf-8")
        new = gate.row("scale", "wide@10000/shards2", "events_per_sec",
                       1.0, "higher")
        gate.write(path, [new])
        after = gate.load(path)["rows"]
        assert [r for r in after if r["cell"] != new["cell"]] == [
            r for r in BASELINE["rows"] if r["cell"] != new["cell"]]
        assert _rows({"rows": after}, cell=new["cell"]) == [new]


class TestCheck:
    def test_record_gated_against_itself_passes(self):
        assert gate.check(BASELINE, BASELINE) == []

    @pytest.mark.parametrize("rows", [
        [], [gate.row("scale", "wide@20000", "events_per_sec", 1.0,
                      "higher")],
    ], ids=["empty", "unmatched"])
    def test_run_with_no_checked_row_fails(self, rows):
        failures = gate.check(BASELINE, {"schema": gate.SCHEMA,
                                         "rows": rows})
        assert failures == ["no row was checked: no cell of this run has "
                            "a baseline row or a floor"]

    # Checks 1, 3, 4 and 5: every scale cell's events/s (the shard
    # smoke row included), the idle time, the burst makespan and each
    # rate cell's p50 may move 2x in their worse direction, no further.
    @pytest.mark.parametrize(
        "key", [_key(r) for r in BASELINE["rows"] if "floor" not in r],
        ids=lambda k: " ".join(k))
    def test_relative_bound(self, key):
        where = dict(zip(("suite", "cell", "metric"), key))
        [base] = _rows(BASELINE, **where)
        higher = base["better"] == "higher"
        edge = (base["value"] / gate.FACTOR if higher
                else base["value"] * gate.FACTOR)
        assert gate.check(BASELINE, _with(BASELINE, edge, **where)) == []
        past = edge * (0.99 if higher else 1.01)
        failures = gate.check(BASELINE, _with(BASELINE, past, **where))
        assert len(failures) == 1
        assert failures[0].startswith(" ".join(key) + ": ")
        assert "more than 2x worse" in failures[0]

    def test_relative_cells_cover_the_old_gates(self):
        cells = {r["cell"] for r in BASELINE["rows"] if "floor" not in r}
        assert {"wide@10000", "deep@10000", "iterative@10000",
                "wide@10000/shards2", "idle", "burst@220", "rate@0.25x30",
                "rate@1.0x30", "rate@4.0x30"} <= cells

    def test_floors_are_the_old_gates_floors(self):
        serve = _script("bench_serve")
        assert scale.ENGINE_FLOOR == 250_000
        assert (serve.PEAK_INFLIGHT_FLOOR, serve.SPEEDUP_FLOOR) == (200, 2.0)
        assert backends.DIVERGENCE_FLOOR == 2.0

    # Checks 2, 6 and 7: the engine row, the burst's peak in-flight
    # sessions and the hot tenant's speedup each carry an absolute floor.
    @pytest.mark.parametrize("cell,metric,floor", [
        ("engine@400000", "events_per_sec", 250_000),
        ("burst@220", "peak_inflight", 200),
        ("repeated@12x3", "speedup", 2.0),
    ])
    def test_floor(self, cell, metric, floor):
        [base] = _rows(BASELINE, cell=cell, metric=metric)
        assert base["floor"] == floor
        at = gate.check(BASELINE, _with(BASELINE, floor, cell=cell,
                                        metric=metric))
        assert not [f for f in at if "floor" in f]
        below = gate.check(BASELINE, _with(BASELINE, floor * 0.995,
                                           cell=cell, metric=metric))
        [failure] = [f for f in below if "floor" in f]
        assert failure.startswith(f"{base['suite']} {cell} {metric}: ")
        assert "below its floor" in failure

    def test_hot_tenant_speedup_within_half_its_baseline(self):
        where = dict(cell="repeated@12x3", metric="speedup")
        baseline = _with(BASELINE, 4.2, **where)
        assert gate.check(baseline, _with(BASELINE, 2.1, **where)) == []
        assert gate.check(baseline, _with(BASELINE, 2.05, **where)) == [
            "serve repeated@12x3 speedup: 2.05 vs baseline 4.2 (higher "
            "is better; more than 2x worse)"]

    # Check 8: some irregular workload separates the paging backends by
    # 2x; a regular workload's divergence does not count.
    @pytest.mark.parametrize("bfs,mv,fails", [
        (2.0, 1.0, False), (1.99, 1.0, True), (1.5, 8.0, True)])
    def test_backend_divergence_floor(self, bfs, mv, fails):
        results = [{"workload": w, "backend": b, "gb": 64.0,
                    "elapsed_seconds": s}
                   for w, ratio in (("bfs", bfs), ("mv", mv))
                   for b, s in (("cpu-pme", 1.0), ("gpuvm", ratio))]
        [row] = backends.gate_rows(results, (16.0, 64.0))
        assert (row["cell"], row["floor"]) == ("irregular@16,64", 2.0)
        doctored = {"schema": gate.SCHEMA, "rows": BASELINE["rows"] + [row]}
        failures = gate.check(BASELINE, doctored)
        assert failures == ([f"backends irregular@16,64 divergence: "
                             f"{bfs:.4g} below its floor of 2"]
                            if fails else [])

    def test_floor_breach_does_not_hide_a_simulated_regression(self):
        idle = _rows(BASELINE, cell="idle")[0]["value"]
        current = _with(BASELINE, 1.046, cell="repeated@12x3",
                        metric="speedup")
        current = _with(current, 3 * idle, cell="idle")
        failures = gate.check(BASELINE, current)
        assert [f.split(":")[0] for f in failures] == [
            "serve idle service_seconds",
            "serve repeated@12x3 speedup", "serve repeated@12x3 speedup"]
        assert "below its floor of 2" in failures[2]


# -- CI's gate steps, on faked measurements -----------------------------------

#: The four gate steps of .github/workflows/ci.yml: script, arguments
#: and the cells the step's rows measure.
CI_GATES = [
    ("bench_scale", "--quick --repeats 3 --check BENCH_baseline.json",
     {"wide@10000", "deep@10000", "iterative@10000", "engine@400000"}),
    ("bench_scale", "--quick --workloads wide --shards 2 --shard-window 0.5 "
                    "--repeats 3 --check BENCH_baseline.json",
     {"wide@10000/shards2", "engine@400000"}),
    ("bench_backends", "--quick --check BENCH_baseline.json",
     {"irregular@16,64"}),
    ("bench_serve", "--quick --check BENCH_baseline.json",
     {"idle", "rate@0.25x30", "rate@1.0x30", "rate@4.0x30", "burst@220",
      "repeated@12x3"}),
]


def _fake_scale_run(workload, ces, shards=None):
    return scale.ScaleRunResult(
        workload=workload, size=ces, ces=ces, wall_seconds=1.0,
        sim_seconds=1.0, events=10**7, events_per_sec=1e7,
        ces_per_sec=1e7, peak_rss_mib=1.0, shards=shards or 0)


def _fake_measurements(module, monkeypatch) -> None:
    """Replace a script's measurements with instant, passing fakes."""
    monkeypatch.setattr(
        scale, "_run_in_subprocess",
        lambda workload, ces, _n, shards=None, _window=None:
        _fake_scale_run(workload, ces, shards))
    monkeypatch.setattr(
        scale, "run_engine_microbench",
        lambda: _fake_scale_run("engine", scale.ENGINE_MICROBENCH_EVENTS))
    monkeypatch.setattr(
        backends, "run_single_node",
        lambda workload, nbytes, uvm_backend, **_kw: types.SimpleNamespace(
            elapsed_seconds=nbytes * (3.0 if uvm_backend == "gpuvm" else 1.0),
            completed=True, oversubscription=1.0))
    latency = {"p50": 0.01, "p99": 0.01}
    fakes = {
        "idle_service_seconds": lambda: 0.01,
        "run_open_loop": lambda rate, n: {"latency": latency},
        "run_burst": lambda n: {"peak_inflight": n, "latency": latency,
                                "makespan_seconds": 1.0},
        "run_repeated": lambda n, trials: {
            "speedup": 3.0, "off_sessions_per_sec": 1.0,
            "on_sessions_per_sec": 3.0, "plancache": {"memo_hits": 0}},
    }
    for name, fake in fakes.items():
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fake)


def test_ci_runs_the_four_gates():
    ci = " ".join((REPO / ".github/workflows/ci.yml").read_text().split())
    for script, args, _cells in CI_GATES:
        assert f"python benchmarks/{script}.py {args}" in ci


@pytest.mark.parametrize("script,args,cells", CI_GATES,
                         ids=["scale", "sharded-scale", "backends", "serve"])
def test_every_ci_cell_has_a_baseline_row_or_a_floor(script, args, cells,
                                                      monkeypatch,
                                                      tmp_path, capsys):
    module = _script(script)
    _fake_measurements(module, monkeypatch)
    out = tmp_path / "run.json"
    argv = args.replace("BENCH_baseline.json", str(BASELINE_PATH)).split()
    assert module.main(argv + ["--out", str(out)]) == 0, \
        capsys.readouterr().out
    rows = gate.load(out)["rows"]
    assert {r["cell"] for r in rows} == cells
    baseline = {_key(r): r for r in BASELINE["rows"]}
    assert [_key(r) for r in rows
            if _key(r) not in baseline and "floor" not in r] == []
    # A row the baseline holds carries the baseline's floor.
    assert [_key(r) for r in rows if _key(r) in baseline
            and r.get("floor") != baseline[_key(r)].get("floor")] == []
