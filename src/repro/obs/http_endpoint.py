"""Tiny stdlib HTTP scrape endpoint for the metrics registry.

:class:`ThreadedMetricsEndpoint` is an ``http.server`` in a daemon thread
(``url``/``port``/``stop()``).  It does not depend on the map's event loop,
so a scrape is answered whether or not ``DistributedMap.drive`` is spinning
— during a run, after it returned, on a map with only in-process workers —
and it adds no loop-hosted source to a pool-only map.  The registry's
rendering is ``@any_thread``-safe, so serving from a separate thread is
sound.

Every GET is served the Prometheus text format (``/metrics`` by convention,
but any path answers — one less thing to misconfigure).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from ..analysis.annotations import any_thread
from ..errors import PandoError
from .registry import MetricsRegistry

__all__ = ["ThreadedMetricsEndpoint"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ThreadedMetricsEndpoint:
    """Scrape endpoint on a daemon thread."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.url: Optional[str] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> str:
        if self._server is not None:
            raise PandoError("metrics endpoint is already started")
        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            @any_thread
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                body = registry.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            @any_thread
            def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
                body = registry.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()

            def log_message(self, *_args: Any) -> None:  # pragma: no cover
                pass

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self.url = f"http://{self.host}:{self.port}/metrics"
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="pando-metrics",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "open" if self._server is not None else "stopped"
        return f"<ThreadedMetricsEndpoint {state} url={self.url}>"
