"""Ablations of Pando's design choices (README, "Running the tests and benches").

* ordering: ordered vs unordered StreamLender on a finite workload;
* transport: WebSocket vs WebRTC on the same (VPN) deployment;
* conservative scheduling: completion-time penalty and re-lent work caused by
  a crash of the fastest device, compared with a failure-free run.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import (
    failure_recovery_ablation,
    ordering_ablation,
    transport_ablation,
)


def test_ablation_ordering(benchmark):
    outcome = benchmark.pedantic(
        ordering_ablation, kwargs={"inputs": 24}, rounds=1, iterations=1
    )
    print(f"\nordering ablation: ordered completes at "
          f"{outcome['ordered']['completed_at']:.2f}s, unordered at "
          f"{outcome['unordered']['completed_at']:.2f}s (virtual)")
    benchmark.extra_info.update(outcome)
    assert outcome["ordered"]["outputs"] == 24
    assert outcome["unordered"]["outputs"] == 24


def test_ablation_transport(benchmark):
    outcome = benchmark.pedantic(
        transport_ablation,
        kwargs={"duration": 25.0, "warmup": 10.0},
        rounds=1,
        iterations=1,
    )
    ws = outcome["websocket"]["throughput"]
    rtc = outcome["webrtc"]["throughput"]
    print(f"\ntransport ablation (VPN collatz): websocket={ws:,.0f} ops/s, "
          f"webrtc={rtc:,.0f} ops/s")
    benchmark.extra_info["websocket"] = ws
    benchmark.extra_info["webrtc"] = rtc
    # Once connections are up and latency is hidden, the steady-state
    # throughput of the two transports is within a few percent.
    assert rtc == pytest.approx(ws, rel=0.10)


def test_ablation_conservative_vs_crash(benchmark):
    outcome = benchmark.pedantic(
        failure_recovery_ablation,
        kwargs={"inputs": 200, "crash_time": 0.5},
        rounds=1,
        iterations=1,
    )
    base = outcome["no_failure"]["completed_at"]
    crashed = outcome["with_crash"]["completed_at"]
    print(f"\nconservative-scheduling ablation: no failure {base:.2f}s, "
          f"with crash {crashed:.2f}s, re-lent "
          f"{outcome['with_crash']['values_relent']} value(s)")
    benchmark.extra_info.update(
        {
            "no_failure_completion": base,
            "with_crash_completion": crashed,
            "values_relent": outcome["with_crash"]["values_relent"],
        }
    )
    assert outcome["with_crash"]["crashes"] == 1
    assert crashed >= base
    # only the crashed device's in-flight window is wasted work
    assert outcome["with_crash"]["values_relent"] <= 3 * 2 + 2
