"""Tests for the command-line interface (Unix-pipeline usage, Figure 3)."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli.pando_cli import build_parser, main, run_pipeline
from repro.cli.tools import generate_angles_main, gif_encoder_main
from repro.master.bundler import bundle_function


class TestParser:
    def test_requires_module_or_app(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_defaults(self):
        args = build_parser().parse_args(["--app", "collatz"])
        assert args.batch_size == 2
        assert args.workers == 2
        assert not args.unordered


class TestRunPipeline:
    def test_local_pipeline(self, square_fn):
        bundle = bundle_function(square_fn)
        results = run_pipeline(bundle, [1, 2, 3], workers=2, batch_size=2)
        assert results == [1, 4, 9]

    def test_unordered_pipeline(self, square_fn):
        bundle = bundle_function(square_fn)
        results = run_pipeline(bundle, [3, 2, 1], workers=1, batch_size=1, ordered=False)
        assert sorted(results) == [1, 4, 9]


class TestMainWithBuiltinApps:
    def test_collatz_app_generates_and_processes(self, capsys):
        code = main(["--app", "collatz", "--count", "3", "--workers", "2"])
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(lines) == 3
        assert all("steps" in line for line in lines)
        assert "Serving volunteer code" in captured.err

    def test_arxiv_app(self, capsys):
        assert main(["--app", "arxiv", "--count", "4"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4
        assert all("interesting" in line for line in lines)

    def test_module_file(self, tmp_path, capsys):
        module = tmp_path / "double.py"
        module.write_text("def pando(value, cb):\n    cb(None, int(value) * 2)\n")
        assert main([str(module), "4", "5"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert lines == [8, 10]

    def test_stdin_json_input(self, monkeypatch, capsys, tmp_path):
        module = tmp_path / "incr.py"
        module.write_text("def pando(value, cb):\n    cb(None, value + 1)\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n"))
        assert main([str(module), "--stdin", "--json"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert lines == [2, 3, 4]

    def test_simulated_lan_run(self, capsys):
        assert main(["--app", "raytrace", "--simulate", "lan", "--count", "4"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(lines) == 4
        assert "Simulating a LAN deployment" in captured.err


class TestCompanionTools:
    def test_generate_angles(self, capsys):
        assert generate_angles_main(["--frames", "4"]) == 0
        angles = [float(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert angles == [0.0, 90.0, 180.0, 270.0]

    def test_generate_angles_json(self, capsys):
        assert generate_angles_main(["--frames", "2", "--json"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert lines[0] == {"angle": 0.0, "frame": 0}

    def test_gif_encoder_roundtrip(self, monkeypatch, capsys, tmp_path):
        """generate-angles | pando --app raytrace | gif-encoder, in process."""
        from repro.apps.raytracer import RaytraceApplication

        app = RaytraceApplication(width=8, height=6)
        frames = []
        for value in app.generate_inputs(3):
            app.process(value, lambda err, result: frames.append(result))
        stdin = io.StringIO("\n".join(json.dumps(frame) for frame in frames))
        monkeypatch.setattr("sys.stdin", stdin)
        output_path = tmp_path / "animation.json"
        assert gif_encoder_main(["--output", str(output_path)]) == 0
        summary = json.loads(output_path.read_text())
        assert summary["frames"] == 3


class TestSharding:
    def test_pool_sizes_distribute_the_remainder(self):
        from repro.cli.pando_cli import _pool_sizes

        assert _pool_sizes(4, 3) == [2, 1, 1]   # nothing silently dropped
        assert _pool_sizes(6, 2) == [3, 3]
        assert _pool_sizes(1, 2) == [1, 1]      # every shard needs a pool
        assert _pool_sizes(0, 1) == [1]

    def test_sharded_local_pipeline(self, square_fn):
        bundle = bundle_function(square_fn)
        results = run_pipeline(
            bundle, list(range(10)), workers=1, batch_size=2, shards=2
        )
        assert results == [v * v for v in range(10)]

    def test_local_backend_failure_keeps_the_accurate_diagnostic(self):
        """Regression: run_pipeline called drive() unconditionally, so a
        local-backend run whose workers all crash-stopped raised the
        pool-stall message instead of the accurate 'stream has not
        terminated yet' volunteer-wait semantics."""
        from repro.errors import PandoError

        def failing(value, cb):
            cb(RuntimeError("always fails"), None)

        bundle = bundle_function(failing)
        with pytest.raises(PandoError, match="not terminated"):
            run_pipeline(bundle, [1, 2, 3], workers=2, batch_size=1)

    def test_unordered_sharded_pipeline(self, square_fn):
        bundle = bundle_function(square_fn)
        results = run_pipeline(
            bundle, list(range(10)), workers=1, batch_size=2, shards=2,
            ordered=False,
        )
        assert sorted(results) == [v * v for v in range(10)]

    def test_sharded_pipeline_with_split_buffer(self, square_fn):
        bundle = bundle_function(square_fn)
        results = run_pipeline(
            bundle, list(range(12)), workers=1, batch_size=2, shards=2,
            split_buffer=1,
        )
        assert results == [v * v for v in range(12)]

    def test_unordered_with_shards_accepted(self, capsys):
        code = main(["--app", "collatz", "--count", "4", "--shards", "2",
                     "--unordered"])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4

    def test_split_buffer_requires_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["--app", "collatz", "--count", "2", "--split-buffer", "4"])
        with pytest.raises(SystemExit):
            main(["--app", "collatz", "--count", "2", "--shards", "2",
                  "--split-buffer", "0"])

    def test_split_buffer_sharded_run(self, capsys):
        code = main(["--app", "collatz", "--count", "4", "--shards", "2",
                     "--split-buffer", "2"])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4

    def test_shards_rejected_with_simulate(self, capsys):
        """Regression: --simulate returned before the --shards validation,
        silently ignoring the flag (even an invalid --shards 0 exited 0)."""
        with pytest.raises(SystemExit):
            main(["--app", "collatz", "--simulate", "lan", "--shards", "2"])
        with pytest.raises(SystemExit):
            main(["--app", "collatz", "--simulate", "lan", "--shards", "0"])


class TestPoolTransportFlag:
    def test_shm_transport_pool_run(self, capsys):
        """The full pipeline over the shared-memory transport: small app
        values ride in-band, the plumbing must be transparent."""
        code = main(["--app", "collatz", "--count", "6", "--workers", "2",
                     "--backend", "pool", "--pool-transport", "shm"])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 6
        assert all("steps" in line for line in lines)

    def test_shm_transport_composes_with_shards(self, capsys):
        code = main(["--app", "collatz", "--count", "6", "--workers", "2",
                     "--backend", "pool", "--shards", "2",
                     "--pool-transport", "shm"])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 6

    def test_shm_transport_requires_pool_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["--app", "collatz", "--count", "4",
                  "--pool-transport", "shm"])

    def test_default_is_pipe(self):
        args = build_parser().parse_args(["--app", "collatz"])
        assert args.pool_transport == "pipe"


class TestObservabilityFlags:
    def test_metrics_port_and_stats_json(self, capsys):
        code = main(["--app", "collatz", "--count", "4", "--workers", "2",
                     "--metrics-port", "0", "--stats-json"])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 4
        assert "Serving metrics at http://127.0.0.1:" in captured.err
        snapshot_lines = [line for line in captured.err.splitlines()
                          if line.startswith("{")]
        assert len(snapshot_lines) == 1
        snapshot = json.loads(snapshot_lines[0])
        assert snapshot["pando_frames_total"]["type"] == "counter"
        assert "pando_lender_values_read_total" in snapshot

    def test_defaults_leave_observability_quiet(self, capsys):
        code = main(["--app", "collatz", "--count", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Serving metrics" not in captured.err
        assert not [line for line in captured.err.splitlines()
                    if line.startswith("{")]


class TestSimulateSubcommand:
    def test_list_names_the_whole_catalogue(self, capsys):
        assert main(["simulate", "--matrix", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "golden" in names
        assert "abort-skew" in names
        assert "ordered-single-pipe" in names
        assert len(names) == 11

    def test_single_cell_run_reports_ok(self, capsys):
        code = main(["simulate", "--matrix", "--cell", "golden"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("[ok] golden: 32 output(s)")

    def test_json_summary_with_overrides(self, capsys):
        code = main(["simulate", "--matrix", "--cell", "golden", "--json",
                     "--inputs", "8"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cell"] == "golden"
        assert summary["outputs"] == 8
        assert summary["violations"] == []

    def test_unknown_cell_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--matrix", "--cell", "nope"])
        assert "unknown cell" in capsys.readouterr().err

    def test_matrix_flag_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate"])
        assert "--matrix" in capsys.readouterr().err
