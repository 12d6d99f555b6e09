"""Unit tests of the command-line interface."""

import json

import pytest

from repro.bench.chrometrace import to_chrome_trace
from repro.bench.timeline import render_timeline
from repro.cli import build_parser, main
from repro.core.config import RuntimeConfig
from repro.obs import build_run_report, json_run_report, to_prometheus_text


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "mv"])
        assert args.workload == "mv"
        assert args.gb == 4.0 and args.mode == "grcuda"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pagerank"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "6a", "--quick"])
        assert args.figure == "6a" and args.quick


class TestRunCommand:
    def test_grcuda_run_verified(self, capsys):
        assert main(["run", "mv", "--gb", "2"]) == 0
        out = capsys.readouterr().out
        assert "grcuda" in out and "verified" in out and "yes" in out

    def test_grout_run(self, capsys):
        assert main(["run", "bs", "--gb", "2", "--mode", "grout",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "grout" in out

    def test_no_verify_skips_check(self, capsys):
        assert main(["run", "mv", "--gb", "2", "--no-verify"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_online_policy_and_level(self, capsys):
        assert main(["run", "mv", "--gb", "2", "--mode", "grout",
                     "--policy", "min-transfer-size",
                     "--level", "high"]) == 0
        assert "min-transfer-size" in capsys.readouterr().out

    def test_timeline_flag(self, capsys):
        assert main(["run", "mv", "--gb", "2", "--mode", "grout",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out and "utilisation" in out

    def test_sessions_run(self, capsys):
        assert main(["run", "mv", "--gb", "0.5", "--mode", "grout",
                     "--policy", "round-robin", "--sessions", "3"]) == 0
        out = capsys.readouterr().out
        assert "mv x3 sessions" in out
        for name in ("p0", "p1", "p2"):
            assert name in out

    def test_sessions_require_grout(self, capsys):
        assert main(["run", "mv", "--gb", "0.5", "--sessions", "2"]) == 2
        assert "--sessions requires --mode grout" in \
            capsys.readouterr().err

    def test_sessions_must_be_positive(self, capsys):
        assert main(["run", "mv", "--mode", "grout",
                     "--sessions", "0"]) == 2
        assert "--sessions must be >= 1" in capsys.readouterr().err


class TestObservabilityOutputs:
    """With observability flags, ``run`` builds one runtime per
    repetition, and the printed table and every written file describe
    the last one."""

    @pytest.fixture
    def built(self, monkeypatch):
        runtimes = []
        build = RuntimeConfig.build_runtime

        def counting(config, **kwargs):
            runtimes.append(build(config, **kwargs))
            return runtimes[-1]

        monkeypatch.setattr(RuntimeConfig, "build_runtime", counting)
        return runtimes

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize("mode", ["grout", "grcuda"])
    def test_every_output_describes_the_one_runtime(
            self, mode, repeats, built, tmp_path, capsys):
        report = tmp_path / "report.json"
        prom = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert main(["run", "mv", "--gb", "0.5", "--mode", mode,
                     "--policy", "round-robin", "--repeats", str(repeats),
                     "--timeline", "--metrics", str(prom),
                     "--chrome-trace", str(trace),
                     "--report", str(report)]) == 0
        assert len(built) == repeats
        rt = built[-1]
        out = capsys.readouterr().out
        assert render_timeline(rt.tracer) in out
        assert build_run_report(rt).render() in out
        assert json.loads(report.read_text()) == \
            json.loads(json.dumps(json_run_report(rt)))
        assert prom.read_text() == to_prometheus_text(rt.metrics)
        assert json.loads(trace.read_text()) == json.loads(json.dumps(
            to_chrome_trace(rt.tracer, metrics=rt.metrics)))
        if repeats == 1:
            assert f"{rt.elapsed:.4g} s" in out


class TestRefusedConfigurations:
    """Every refused knob combination is a bad configuration: exit 2
    with the config table's message, before anything is built."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "mv", "--gb", "0.5", "--mode", "grout", "--plan-cache",
          "--collectives"], "plan_cache excludes collectives"),
        (["serve", "--port", "0", "--plan-cache", "--chunk-bytes",
          "1048576"], "plan_cache excludes chunk_bytes"),
        (["run", "mv", "--gb", "0.5", "--mode", "grcuda",
          "--collectives"], "collectives requires mode='grout'"),
        (["run", "mv", "--gb", "0.5", "--mode", "grcuda",
          "--faults", "flake@0.0"], "faults requires mode='grout'"),
    ], ids=["run-plan-cache-collectives", "serve-plan-cache-chunk-bytes",
            "run-grcuda-collectives", "run-grcuda-faults"])
    def test_exit_two_with_the_table_message(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"bad configuration: {message}" in captured.err
        assert captured.out == ""


class TestFigureCommand:
    def test_quick_fig6a(self, capsys):
        assert main(["figure", "6a", "--quick"]) == 0
        assert "slowdown" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["figure", "9"]) == 0
        assert "microseconds" in capsys.readouterr().out


class TestManifestCommand:
    MANIFEST = {
        "arrays": [{"name": "x", "type": "float[32]"}],
        "kernels": [{
            "name": "double_it",
            "source": "__global__ void double_it(float* x, int n) {"
                      " int i = threadIdx.x; if (i < n) x[i] *= 2.0; }",
        }],
        "program": [
            {"op": "write", "array": "x", "fill": "arange"},
            {"op": "launch", "kernel": "double_it", "grid": 1,
             "block": 32, "args": ["x", 32]},
            {"op": "read", "array": "x"},
        ],
    }

    def test_manifest_from_file(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(self.MANIFEST))
        assert main(["manifest", str(path), "--mode", "grcuda"]) == 0
        out = capsys.readouterr().out
        assert "executed 2 steps" in out
        assert "x:" in out

    def test_manifest_from_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(json.dumps(self.MANIFEST)))
        assert main(["manifest", "-", "--mode", "grout"]) == 0
        assert "executed" in capsys.readouterr().out


class TestPlanCommand:
    def test_plan_math(self, capsys):
        assert main(["plan", "--gb", "96"]) == 0
        out = capsys.readouterr().out
        assert "3x" in out and "3" in out

    def test_plan_respects_target(self, capsys):
        assert main(["plan", "--gb", "96", "--target-osf", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        row = [ln for ln in out if "recommended" in ln][0]
        assert row.strip().endswith("1")
