"""Smoke tests for the example scripts and the full CLI pipeline.

The examples are part of the public deliverable; these tests execute them as
scripts (with small parameters) so they cannot silently rot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name, *args, timeout=300):
    """Run an example script in a subprocess and return its stdout."""
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        stdout = run_example("quickstart.py")
        assert "outputs:" in stdout

    def test_render_animation_small(self):
        stdout = run_example("render_animation.py", "--frames", "4", "--size", "8x6")
        assert "rendered 4 frames" in stdout

    def test_crypto_mining_small(self):
        stdout = run_example(
            "crypto_mining.py", "--blocks", "1", "--difficulty", "8", "--range-size", "500"
        )
        assert "mined 1 blocks" in stdout

    def test_hyperparameter_search_small(self):
        stdout = run_example("hyperparameter_search.py", "--steps", "300")
        assert "best learning rate" in stdout

    def test_stubborn_image_processing_small(self):
        stdout = run_example(
            "stubborn_image_processing.py", "--tiles", "6", "--failure-rate", "0.3"
        )
        assert "blurred 6 tiles" in stdout

    def test_parallel_raytrace_small(self):
        stdout = run_example(
            "parallel_raytrace.py", "--frames", "4", "--size", "8x6",
            "--processes", "2",
        )
        assert "rendered 4 frames" in stdout
        assert "2 processes" in stdout

    def test_unordered_search_small(self):
        stdout = run_example("unordered_search.py", "--slow-count", "20000")
        assert "on 2 pools (unordered)" in stdout
        assert "found nonce" in stdout
        assert "cancelled" in stdout

    def test_unordered_search_small_against_ordered(self):
        stdout = run_example(
            "unordered_search.py", "--slow-count", "20000", "--ordered"
        )
        assert "on 2 pools (ordered)" in stdout
        assert "found nonce" in stdout
        # the hit is attempt 5: find() took six results in input order
        assert "after 6 delivered result(s)" in stdout

    def test_event_loop_master_small(self):
        stdout = run_example(
            "event_loop_master.py", "--values", "8", "--sleep", "0.005",
            "--with-channel",
        )
        assert "on one event loop" in stdout
        assert "channel" in stdout

    def test_shm_transport_small(self):
        stdout = run_example(
            "shm_transport.py", "--tiles", "8", "--tile-kb", "64",
            "--processes", "2",
        )
        assert "inverted 8 tiles" in stdout
        assert "0 leaked" in stdout

    def test_simulated_deployments_small(self):
        # The Figure-4 phase is seeded: a tablet joins, a phone joins at
        # t=2 s, the tablet crashes at t=4 s and its heartbeat times out.
        stdout = run_example("simulated_deployments.py", "--duration", "2")
        lines = [line.strip() for line in stdout.splitlines()]
        assert "completed at t=6.79s with 12 ordered outputs" in lines
        assert "crashes detected: 1, values re-lent after the crash: 2" in lines
        assert (
            "[     6.083] lost volunteer-1 (novena): ws-0:master: "
            "no heartbeat from ws-0:novena within 3.0s"
        ) in stdout


class TestUnixPipeline:
    """The full Figure-3 pipeline via the console-script entry points."""

    def test_generate_render_encode(self):
        env = dict(os.environ)
        angles = subprocess.run(
            [sys.executable, "-c",
             "from repro.cli.tools import generate_angles_main; "
             "raise SystemExit(generate_angles_main(['--frames', '3', '--json']))"],
            capture_output=True, text=True, env=env,
        )
        assert angles.returncode == 0
        rendered = subprocess.run(
            [sys.executable, "-c",
             "from repro.cli.pando_cli import main; "
             "raise SystemExit(main(['--app', 'raytrace', '--stdin', '--json', '--workers', '2']))"],
            input=angles.stdout, capture_output=True, text=True, env=env,
        )
        assert rendered.returncode == 0, rendered.stderr
        assert "Serving volunteer code" in rendered.stderr
        encoded = subprocess.run(
            [sys.executable, "-c",
             "from repro.cli.tools import gif_encoder_main; "
             "raise SystemExit(gif_encoder_main([]))"],
            input=rendered.stdout, capture_output=True, text=True, env=env,
        )
        assert encoded.returncode == 0, encoded.stderr
        summary = json.loads(encoded.stdout.strip().splitlines()[-1])
        assert summary["frames"] == 3
        assert summary["angles"] == sorted(summary["angles"])

    def test_pool_backend_matches_local_backend(self):
        """`pando --backend pool` produces the same outputs as the default."""
        env = dict(os.environ)
        outputs = {}
        for backend in ("local", "pool"):
            completed = subprocess.run(
                [sys.executable, "-c",
                 "from repro.cli.pando_cli import main; "
                 f"raise SystemExit(main(['--app', 'collatz', '--count', '6', "
                 f"'--backend', '{backend}', '--workers', '2']))"],
                capture_output=True, text=True, env=env,
            )
            assert completed.returncode == 0, completed.stderr
            outputs[backend] = completed.stdout
        assert outputs["pool"] == outputs["local"]
