"""Browser-tab workers.

In Pando, each participating browser tab runs the bundled worker code: an
``AsyncMap(f)`` pull-stream module that pulls input values from the channel,
applies the user's processing function ``f`` and pushes results back (paper
Figure 7, "Worker (Browser Tab)").  :class:`BrowserTab` reproduces that
composition on top of a simulated device: the *duration* of each task comes
from the device's calibrated rate, while the *result* comes either from the
application's lightweight ``simulate_result`` or from the bundled function
itself.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..devices.device import SimDevice
from ..master.bundler import Bundle
from ..net.channel import ChannelEndpoint
from ..pullstream import async_map, pull
from ..sim.metrics import MetricsCollector

__all__ = ["BrowserTab"]

NodeCallback = Callable[[Optional[BaseException], Any], None]


class BrowserTab:
    """One worker tab running on a simulated device."""

    def __init__(self, device: SimDevice, tab_index: int = 0) -> None:
        self.device = device
        self.tab_index = tab_index
        self.worker_id = f"{device.name}#{tab_index}"
        self.endpoint: Optional[ChannelEndpoint] = None
        self.bundle: Optional[Bundle] = None
        self.metrics: Optional[MetricsCollector] = None
        self.items_processed = 0
        self.closed = False

    # ------------------------------------------------------------------ API
    def attach(
        self,
        endpoint: ChannelEndpoint,
        bundle: Bundle,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Wire the tab to its channel endpoint and start processing."""
        self.endpoint = endpoint
        self.bundle = bundle
        self.metrics = metrics
        endpoint.on_close(self._on_endpoint_closed)
        pull(endpoint.duplex.source, async_map(self._process), endpoint.duplex.sink)

    def crash(self) -> None:
        """Crash-stop this tab (close the page abruptly)."""
        self.closed = True
        if self.endpoint is not None:
            self.endpoint.crash()

    def close(self) -> None:
        """Close the tab gracefully (the volunteer leaves on purpose)."""
        self.closed = True
        if self.endpoint is not None:
            self.endpoint.close()

    # ------------------------------------------------------------ processing
    def _process(self, value: Any, cb: NodeCallback) -> None:
        if self.closed or self.bundle is None:
            # A crashed tab never answers; the master's heartbeat timeout
            # detects the silence.
            return  # pando-lint: ignore[callback-discipline]
        application = self.bundle.application
        app_name = getattr(application, "name", "generic")
        cost = (
            application.cost(value)
            if application is not None and hasattr(application, "cost")
            else 1.0
        )
        self.device.execute(app_name, cost, _TabTask(self, value, cb).done)

    def _task_done(
        self,
        value: Any,
        cb: NodeCallback,
        err: Optional[BaseException],
        duration: Any,
    ) -> None:
        if err is not None or self.closed:
            # Crash-stop: the result is never sent.
            return  # pando-lint: ignore[callback-discipline]
        try:
            result = self._compute_result(value)
        except Exception as exc:
            cb(exc, None)
            return
        self.items_processed += 1
        if self.metrics is not None:
            self.metrics.record_work(
                self.worker_id,
                timestamp=self.device.scheduler.now,
                duration=float(duration),
            )
        cb(None, result)

    def _compute_result(self, value: Any) -> Any:
        application = self.bundle.application
        if application is not None and hasattr(application, "simulate_result"):
            return application.simulate_result(value)
        # No application metadata: run the bundled function synchronously.
        outcome = {}

        def node_cb(err: Optional[BaseException], result: Any = None) -> None:
            outcome["err"] = err
            outcome["result"] = result

        self.bundle.apply(value, node_cb)
        if outcome.get("err") is not None:
            raise outcome["err"]
        return outcome.get("result")

    def _on_endpoint_closed(self, _reason: Optional[BaseException]) -> None:
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self.closed else "open"
        return f"<BrowserTab {self.worker_id} {state} processed={self.items_processed}>"


class _TabTask:
    """One value a tab handed to its device, waiting for the device's answer."""

    __slots__ = ("tab", "value", "cb")

    def __init__(self, tab: BrowserTab, value: Any, cb: NodeCallback) -> None:
        self.tab = tab
        self.value = value
        self.cb = cb

    def done(self, err: Optional[BaseException], duration: Any) -> None:
        self.tab._task_done(self.value, self.cb, err, duration)
