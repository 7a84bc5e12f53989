"""Scrape-endpoint tests.

The endpoint answers scrapes from a daemon thread at any time: after
``drive()`` returned, on a map that never drove, and — the acceptance test —
from a background thread *during* a live sharded multi-transport run.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import DistributedMap
from repro.pool.workloads import large_payload_inputs
from repro.pullstream import collect, pull, values
from repro.worker import run_volunteer

ECHO = "repro.pool.workloads:echo"
SLEEP_BLOB = "repro.pool.workloads:sleep_blob"


def start_volunteer_thread(url, **kwargs):
    box = {}

    def target():
        box["report"] = run_volunteer(url, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def scrape(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        assert response.status == 200
        return response.headers.get("Content-Type", ""), response.read().decode()


def sample_lines(body):
    """Parse exposition text into ``(name{labels}, value)`` pairs."""
    samples = []
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples.append((name, float(value)))
    return samples


def nonzero(body, prefix):
    return any(
        value > 0 for name, value in sample_lines(body) if name.startswith(prefix)
    )


def overhead_count(body, transport):
    wanted = f'pando_frame_overhead_seconds_count{{transport="{transport}"}}'
    for name, value in sample_lines(body):
        if name == wanted:
            return value
    return 0.0


class TestThreadedEndpoint:
    def test_scrape_after_drive_returned(self):
        items = list(range(10))
        dmap = DistributedMap(batch_size=2)
        sink = pull(values(items), dmap, collect())
        dmap.add_process_pool(ECHO, processes=1)
        try:
            dmap.drive(sink, timeout=60)
            assert sink.result() == items
            endpoint = dmap.serve_metrics()
            # The endpoint is a daemon thread, not a scheduler source.
            assert len(dmap.scheduler.sources) == 1
            assert endpoint.url.startswith("http://127.0.0.1:")
            content_type, body = scrape(endpoint.url)
            assert content_type.startswith("text/plain")
            assert "version=0.0.4" in content_type
            assert nonzero(body, "pando_frames_total")
            assert nonzero(body, "pando_lender_values_read_total")
            assert nonzero(body, "pando_pool_")
            assert nonzero(body, "pando_sched_wakeups_total")
            assert nonzero(body, 'pando_process_minor_faults_total{process="master"}')
            assert 'pando_process_minor_faults_total{process="children"}' in body
            assert overhead_count(body, "pipe") > 0
        finally:
            dmap.close()
        # close() stops the endpoint: the port no longer answers.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(endpoint.url, timeout=1)

    def test_head_and_wrong_path(self):
        dmap = DistributedMap()
        try:
            endpoint = dmap.serve_metrics()
            request = urllib.request.Request(endpoint.url, method="HEAD")
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert response.read() == b""
        finally:
            dmap.close()


class TestLiveScrapeAcceptance:
    def test_live_scrape_during_sharded_multi_transport_run(self):
        # The PR's acceptance scenario: a sharded map computing through a
        # shm pool, a pipe pool, and a websocket volunteer at once, scraped
        # over HTTP *while* drive() runs.  sleep_blob (50 ms/value) keeps
        # the run alive long enough for the scraper to land mid-flight.
        items = large_payload_inputs(100, 8192)
        dmap = DistributedMap(batch_size=2, shards=2)
        sink = pull(values(items), dmap, collect())
        dmap.add_process_pool(SLEEP_BLOB, processes=1, transport="shm")
        dmap.add_process_pool(SLEEP_BLOB, processes=1, transport="pipe")
        gateway = dmap.serve_volunteers(fn_ref=SLEEP_BLOB)
        endpoint = dmap.serve_metrics()
        volunteer, box = start_volunteer_thread(gateway.url, tabs=2)

        required_prefixes = (
            "pando_lender_values_read_total",
            "pando_pool_",
            "pando_shm_",
            "pando_ws_",
            "pando_sched_rounds_total",
        )
        state = {"body": None, "ok": False}
        stop = threading.Event()

        def scraper():
            deadline = time.monotonic() + 25
            while not stop.is_set() and time.monotonic() < deadline:
                try:
                    _content_type, body = scrape(endpoint.url)
                except Exception:
                    time.sleep(0.05)
                    continue
                state["body"] = body
                if all(nonzero(body, prefix) for prefix in required_prefixes) and all(
                    overhead_count(body, transport) > 0
                    for transport in ("pipe", "shm", "ws")
                ):
                    state["ok"] = True
                    return
                time.sleep(0.03)

        scraper_thread = threading.Thread(target=scraper, daemon=True)
        scraper_thread.start()
        try:
            dmap.drive(sink, timeout=120)
            results = sink.result()
        finally:
            stop.set()
            dmap.close()
            volunteer.join(10)
        scraper_thread.join(10)
        # Shards merge results as they stream in: compare as a multiset.
        assert sorted(results) == sorted(items)
        assert box["report"].graceful
        assert state["ok"], (
            "live scrape never saw all families non-zero; last body:\n"
            + (state["body"] or "<no successful scrape>")
        )
        # The structured snapshot mirrors what the endpoint served.
        snapshot = dmap.obs.registry.as_dict()
        assert snapshot["pando_frames_total"]["samples"]
        assert dmap.stats.volunteers["joined"] == 1
        assert dmap.stats.as_dict()["volunteers"]["bytes_sent"] > 0
