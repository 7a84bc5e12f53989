"""Ablations of Pando's design choices (README, "Running the tests and benches").

Three design decisions the paper discusses are made measurable here:

* **Ordering** (section 4.2): the ordered StreamLender may hold a valid
  crypto-mining nonce back behind earlier, uncompleted work units; the
  unordered variant reports it as soon as possible.
* **Conservative scheduling vs speculative replication** (section 2.3): Pando
  sends each value to at most one device; replication would waste work to
  reduce tail latency under churn.  The ablation compares completion time and
  wasted work under an injected crash.
* **Transport choice**: WebSocket vs WebRTC for the same deployment (WebRTC
  pays a more expensive setup through the signalling server; steady-state
  throughput is similar once latency is hidden).
"""

from __future__ import annotations

from typing import Any, Dict

from ..apps import registry as app_registry
from ..devices.profiles import devices_for_setting
from ..sim.failures import FailureSchedule
from ..sim.scenario import DeploymentScenario, ScenarioConfig

__all__ = [
    "ordering_ablation",
    "transport_ablation",
    "failure_recovery_ablation",
]


def ordering_ablation(
    application: str = "raytrace",
    setting: str = "lan",
    inputs: int = 24,
    seed: int = 42,
) -> Dict[str, Any]:
    """Compare completion times of the ordered and unordered StreamLender.

    With homogeneous task costs the difference is small; the gap appears when
    task costs vary (slow head-of-line value), which the unordered variant is
    immune to — mirroring the crypto-mining discussion of section 4.2.
    """
    results: Dict[str, Any] = {"inputs": inputs}
    for label, ordered in (("ordered", True), ("unordered", False)):
        app = app_registry.create(application)
        devices = [
            device
            for device in devices_for_setting(setting)
            if device.supports(application)
        ]
        config = ScenarioConfig(
            application=app,
            setting=setting,
            devices=devices,
            ordered=ordered,
            seed=seed,
        )
        scenario = DeploymentScenario(config)
        outcome = scenario.run_to_completion(app.generate_inputs(inputs))
        results[label] = {
            "completed_at": outcome.completed_at,
            "outputs": len(outcome.outputs or []),
        }
    return results


def transport_ablation(
    application: str = "collatz",
    setting: str = "vpn",
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 42,
) -> Dict[str, Any]:
    """Measure throughput with WebSocket vs WebRTC on the same deployment."""
    results: Dict[str, Any] = {}
    for transport in ("websocket", "webrtc"):
        app = app_registry.create(application)
        devices = [
            device
            for device in devices_for_setting(setting)
            if device.supports(application)
        ]
        config = ScenarioConfig(
            application=app,
            setting=setting,
            devices=devices,
            transport=transport,
            use_public_server=(transport == "webrtc"),
            duration=duration,
            warmup=warmup,
            seed=seed,
        )
        outcome = DeploymentScenario(config).run_measurement()
        results[transport] = {
            "throughput": outcome.report.total_throughput * app.ops_per_value,
            "network_bytes": outcome.network_bytes,
        }
    return results


def failure_recovery_ablation(
    application: str = "collatz",
    setting: str = "lan",
    inputs: int = 60,
    crash_time: float = 2.0,
    seed: int = 42,
) -> Dict[str, Any]:
    """Quantify the cost of a crash under conservative (no-replication) scheduling.

    Runs the same finite workload with and without a crash of the fastest
    device and reports the completion-time penalty and the number of values
    that had to be re-lent — the work that replication would have duplicated
    up front instead.
    """
    results: Dict[str, Any] = {"inputs": inputs, "crash_time": crash_time}
    devices = [
        device
        for device in devices_for_setting(setting)
        if device.supports(application)
    ]
    fastest = max(devices, key=lambda device: device.rate(application))
    for label, schedule in (
        ("no_failure", None),
        ("with_crash", FailureSchedule().crash(crash_time, fastest.name)),
    ):
        app = app_registry.create(application)
        config = ScenarioConfig(
            application=app,
            setting=setting,
            devices=devices,
            failure_schedule=schedule,
            seed=seed,
        )
        outcome = DeploymentScenario(config).run_to_completion(
            app.generate_inputs(inputs)
        )
        results[label] = {
            "completed_at": outcome.completed_at,
            "values_relent": outcome.lender_stats["values_relent"],
            "crashes": outcome.registry["crashes"],
        }
    return results
