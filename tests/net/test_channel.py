"""Tests for the simulated connection: its transports, frames, heartbeats
and failure detection."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosed
from repro.net.channel import TRANSPORTS, SimChannel
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.signaling import PublicServer
from repro.pullstream import async_map, collect, pull, values
from repro.sim.network import WAN_PROFILE, NetworkModel


def connect(channel):
    done = []
    channel.connect(lambda err, ch: done.append(err))
    channel.scheduler.run(until=lambda: bool(done))
    assert done and done[0] is None
    return channel


class TestHeartbeatMonitor:
    def test_sends_heartbeats_periodically(self, scheduler):
        beats = []
        monitor = HeartbeatMonitor(
            scheduler, send=lambda: beats.append(scheduler.now),
            on_failure=lambda: None, interval=1.0, timeout=10.0,
        )
        monitor.start()
        scheduler.run_until(5.5)
        assert len(beats) == 5

    def test_detects_silence(self, scheduler):
        failures = []
        monitor = HeartbeatMonitor(
            scheduler, send=lambda: None, on_failure=lambda: failures.append(scheduler.now),
            interval=1.0, timeout=3.0,
        )
        monitor.start()
        scheduler.run_until(10.0)
        assert len(failures) == 1
        assert failures[0] == pytest.approx(3.0, abs=0.2)
        assert monitor.failed

    def test_touch_postpones_failure(self, scheduler):
        failures = []
        monitor = HeartbeatMonitor(
            scheduler, send=lambda: None, on_failure=lambda: failures.append(scheduler.now),
            interval=1.0, timeout=3.0,
        )
        monitor.start()
        scheduler.call_later(2.0, monitor.touch)
        scheduler.call_later(4.0, monitor.touch)
        scheduler.run_until(6.5)
        assert failures == []
        scheduler.run_until(10.0)
        assert len(failures) == 1

    def test_stop_cancels_everything(self, scheduler):
        failures = []
        monitor = HeartbeatMonitor(
            scheduler, send=lambda: None, on_failure=lambda: failures.append(1),
            interval=1.0, timeout=2.0,
        )
        monitor.start()
        monitor.stop()
        scheduler.run_until(20.0)
        assert failures == []

    def test_invalid_parameters(self, scheduler):
        with pytest.raises(ValueError):
            HeartbeatMonitor(scheduler, send=lambda: None, on_failure=lambda: None, interval=0)


class TestSimChannel:
    def test_data_flows_both_ways(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "master", "laptop"))
        at_remote = pull(channel.remote.duplex.source, collect())
        at_local = pull(channel.local.duplex.source, collect())
        channel.local.send("hello")
        channel.remote.send("world")
        scheduler.run_until(scheduler.now + 1.0)
        channel.local.close()
        scheduler.run_until(scheduler.now + 1.0)
        assert at_remote.value == ["hello"]
        assert at_local.value == ["world"]

    def test_latency_is_charged(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "master", "laptop"))
        arrivals = []
        pull(channel.remote.duplex.source, collect(done=lambda e, items: None))
        channel.remote.duplex  # endpoint exists
        sent_at = scheduler.now
        received = pull(channel.remote.duplex.source, collect())
        channel.local.send("ping")
        scheduler.run(until=lambda: channel.remote.messages_received > 0)
        assert scheduler.now - sent_at >= network.profile("master", "laptop").latency

    def test_pull_stream_sink_sends_values(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "master", "laptop"))
        received = pull(channel.remote.duplex.source, collect())
        channel.local.duplex.sink(values([1, 2, 3]))
        scheduler.run(until=lambda: received.done)
        assert received.value == [1, 2, 3]

    def test_echo_worker_over_channel(self, scheduler, network):
        """Full round trip: values -> channel -> async_map worker -> back."""
        channel = connect(SimChannel(scheduler, network, "master", "worker-host"))
        pull(
            channel.remote.duplex.source,
            async_map(lambda v, cb: cb(None, v * 2)),
            channel.remote.duplex.sink,
        )
        results = pull(channel.local.duplex.source, collect())
        channel.local.duplex.sink(values([1, 2, 3, 4]))
        scheduler.run(until=lambda: results.done)
        assert results.value == [2, 4, 6, 8]

    def test_graceful_close_ends_peer_source(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        at_remote = pull(channel.remote.duplex.source, collect())
        channel.local.close()
        scheduler.run_until(scheduler.now + 1.0)
        assert at_remote.done
        assert at_remote.end is not None and not isinstance(at_remote.end, Exception)
        assert channel.remote.peer_closed and not channel.local.peer_closed

    def test_crash_detected_by_heartbeat_timeout(self, scheduler, network):
        channel = connect(
            SimChannel(scheduler, network, "master", "tablet",
                       heartbeat_interval=0.5, heartbeat_timeout=1.5)
        )
        at_master = pull(channel.local.duplex.source, collect())
        crash_time = scheduler.now + 1.0
        scheduler.call_at(crash_time, channel.remote.crash)
        scheduler.run(until=lambda: at_master.done)
        assert isinstance(at_master.end, ConnectionClosed)
        # detection happened within roughly the heartbeat timeout
        assert scheduler.now - crash_time <= 2 * 1.5 + 0.5

    def test_messages_lost_after_crash(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        channel.remote.crash()
        channel.local.send("into the void")
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.remote.messages_received == 0

    def test_frames_arrive_in_send_order_despite_jitter(self, scheduler):
        """A small frame sent after a large one would overtake it on raw
        delay alone; the channel is ordered, so it never does."""
        network = NetworkModel(default_profile=WAN_PROFILE, seed=7)
        channel = connect(
            SimChannel(scheduler, network, "master", "node", heartbeats_enabled=False)
        )
        sent = [{"size_bytes": 200_000, "n": 0}, 1, {"size_bytes": 200_000, "n": 2}, 3, 4]
        received = pull(channel.remote.duplex.source, collect())
        channel.local.duplex.sink(values(sent))
        scheduler.run(until=lambda: received.done)
        assert received.value == sent

    def test_half_close_both_ways_closes_both_ends(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        reasons = []
        channel.local.on_close(reasons.append)
        channel.remote.on_close(reasons.append)
        channel.local.close_write()
        scheduler.run_until(scheduler.now + 1.0)
        assert not channel.local.closed and not channel.remote.closed
        channel.remote.close_write()
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.local.closed and channel.remote.closed
        assert reasons == [None, None]
        # a stream that ran out of data both ways: nobody closed on the other
        assert not channel.local.peer_closed and not channel.remote.peer_closed

    def test_teardown_puts_no_frame_on_the_wire(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        reasons = []
        channel.local.on_close(reasons.append)
        before = network.total_bytes()
        channel.local.teardown()
        assert channel.local.closed and reasons == [None]
        assert network.total_bytes() == before
        assert channel.remote.messages_received == 0
        assert not channel.remote.closed

    def test_byte_counters(self, scheduler, network):
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        channel.local.send({"size_bytes": 1000})
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.local.bytes_sent >= 1000
        assert network.total_bytes() >= 1000


class TestFrameSizes:
    """Each frame kind is charged its wire size, on the endpoint and on the
    network model alike."""

    @staticmethod
    def charged(channel, network, send):
        before = (channel.local.bytes_sent, network.total_bytes())
        send()
        return (
            channel.local.bytes_sent - before[0],
            network.total_bytes() - before[1],
        )

    @pytest.fixture
    def channel(self, scheduler, network):
        return connect(
            SimChannel(scheduler, network, "master", "laptop", heartbeats_enabled=False)
        )

    def test_data_frame_is_charged_its_payload_size(self, channel, network):
        sized = self.charged(channel, network, lambda: channel.local.send({"size_bytes": 1000}))
        assert sized == (1000, 1000)

    def test_data_frame_is_at_least_16_bytes(self, channel, network):
        assert self.charged(channel, network, lambda: channel.local.send(1)) == (16, 16)

    def test_heartbeat_frame_is_8_bytes(self, channel, network):
        assert self.charged(channel, network, channel.local._send_heartbeat) == (8, 8)

    def test_nothing_is_charged_once_closed(self, channel, network):
        channel.local.close()
        assert self.charged(channel, network, lambda: channel.local.send(1)) == (0, 0)
        assert self.charged(channel, network, channel.local._send_heartbeat) == (0, 0)
        assert self.charged(channel, network, channel.local.close) == (0, 0)
        assert channel.local.data_frames_sent == 0

    def test_close_frames_are_16_bytes(self, scheduler, channel, network):
        assert self.charged(channel, network, channel.local.close_write) == (16, 16)
        assert self.charged(channel, network, channel.local.close) == (16, 16)
        # the peer's source ended on the first (half) close; no frame carries
        # anything after the full one
        at_remote = pull(channel.remote.duplex.source, collect())
        scheduler.run_until(scheduler.now + 1.0)
        assert at_remote.done and channel.remote.closed


class TestTransports:
    """WebSocket and WebRTC are two rows of the channel's setup table."""

    @staticmethod
    def setup_time(channel):
        start = channel.scheduler.now
        connect(channel)
        return channel.scheduler.now - start

    @staticmethod
    def wan():
        return NetworkModel(default_profile=WAN_PROFILE, seed=1)

    def test_websocket_setup_costs_two_round_trips(self, scheduler, network):
        channel = SimChannel(scheduler, network, "a", "b", transport="websocket")
        rtt = network.profile("a", "b").rtt
        assert self.setup_time(channel) >= 2 * rtt * 0.99
        assert channel.local.label.startswith("ws-")

    def test_webrtc_through_a_server_signals_twice_per_connect(self, scheduler):
        network = self.wan()
        server = PublicServer(scheduler, network)
        for connects in (1, 2):
            channel = connect(
                SimChannel(scheduler, network, "master", "planetlab-node",
                           transport="webrtc", signalling_server=server)
            )
            assert channel.established
            assert server.signalling_messages == 2 * connects
        assert channel.local.label.startswith("rtc-")
        received = pull(channel.remote.duplex.source, collect())
        channel.local.duplex.sink(values(["over-webrtc"]))
        scheduler.run(until=lambda: received.done)
        assert received.value == ["over-webrtc"]

    def test_setup_slower_than_websocket(self, scheduler):
        """WebRTC setup through signalling costs more than a WebSocket."""
        network = self.wan()
        server = PublicServer(scheduler, network)
        ws_setup = self.setup_time(SimChannel(scheduler, network, "master", "node"))
        rtc_setup = self.setup_time(
            SimChannel(scheduler, network, "master", "node",
                       transport="webrtc", signalling_server=server)
        )
        assert rtc_setup > ws_setup

    def test_webrtc_without_a_server_costs_one_and_a_half_round_trips(
        self, scheduler, network
    ):
        channel = SimChannel(scheduler, network, "a", "b", transport="webrtc")
        rtt = network.profile("a", "b").rtt
        assert self.setup_time(channel) == pytest.approx(1.5 * rtt)

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_each_row_sets_label_and_direct_setup(self, scheduler, network, transport):
        prefix, setup_round_trips, _ = TRANSPORTS[transport]
        channel = SimChannel(scheduler, network, "a", "b", transport=transport)
        rtt = network.profile("a", "b").rtt
        assert self.setup_time(channel) == pytest.approx(setup_round_trips * rtt)
        assert channel.signalling_round_trips == 0
        assert channel.local.label == f"{prefix}-{channel.id}:a"
        assert channel.remote.label == f"{prefix}-{channel.id}:b"

    def test_websocket_sends_no_signalling_through_a_server(self, scheduler, network):
        server = PublicServer(scheduler, network)
        channel = SimChannel(scheduler, network, "a", "b", signalling_server=server)
        rtt = network.profile("a", "b").rtt
        assert self.setup_time(channel) == pytest.approx(2 * rtt)
        assert server.signalling_messages == 0

    def test_webrtc_signals_then_pays_its_direct_setup(self, scheduler):
        """The direct path's 1.5 RTT start once the last relayed signal is
        delivered."""
        network = self.wan()
        server = PublicServer(scheduler, network)
        relayed_at = []
        relay = server.relay_signal

        def traced(sender, receiver, payload, cb):
            def delivered(message):
                relayed_at.append(scheduler.now)
                cb(message)

            relay(sender, receiver, payload, delivered)

        server.relay_signal = traced
        channel = connect(
            SimChannel(scheduler, network, "master", "node",
                       transport="webrtc", signalling_server=server)
        )
        assert len(relayed_at) == 2 and relayed_at[0] < relayed_at[1]
        rtt = network.profile("master", "node").rtt
        assert channel.established_at - relayed_at[-1] == pytest.approx(1.5 * rtt)

    def test_channel_ids_count_per_network_model(self, scheduler):
        first = NetworkModel(seed=1)
        ids = [SimChannel(scheduler, first, "a", "b").id for _ in range(3)]
        assert ids == [0, 1, 2]
        # a fresh model starts again: no count is shared between runs
        assert SimChannel(scheduler, NetworkModel(seed=1), "a", "b").id == 0

    def test_an_unknown_transport_is_refused(self, scheduler, network):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            SimChannel(scheduler, network, "a", "b", transport="carrier-pigeon")


class TestBatchedFraming:
    """Batched DATA frames: one frame carries batch_size values."""

    def test_frame_counters_for_batches(self, scheduler, network):
        from repro.net.serialization import Batch

        channel = connect(SimChannel(scheduler, network, "a", "b"))
        channel.local.send(Batch([1, 2, 3]))
        channel.local.send("single")
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.local.data_frames_sent == 2
        assert channel.local.values_sent == 4

    def test_batch_size_is_charged_on_the_wire(self, scheduler, network):
        from repro.net.serialization import Batch, estimate_size

        payloads = [{"size_bytes": 500} for _ in range(4)]
        batch = Batch(payloads)
        assert estimate_size(batch) >= 4 * 500
        channel = connect(SimChannel(scheduler, network, "a", "b"))
        channel.local.send(batch)
        scheduler.run_until(scheduler.now + 1.0)
        assert channel.local.bytes_sent >= 2000

    def test_distributed_map_frame_batching_over_channel(self, scheduler, network):
        """End-to-end Figure 9 with frame batching: batch_size× fewer DATA
        frames for the same results, the far side unbatching per element."""
        from repro.core import DistributedMap
        from repro.net.serialization import Batch

        def add_100(value, cb):
            # one result frame per input frame, bare values one-to-one
            if isinstance(value, Batch):
                cb(None, Batch([v + 100 for v in value.values]))
            else:
                cb(None, value + 100)

        count_values = 40
        frames_by_mode = {}
        for frame_batch in (1, 4):
            channel = connect(
                SimChannel(scheduler, network, "master", "volunteer",
                           heartbeats_enabled=False)
            )
            pull(
                channel.remote.duplex.source,
                async_map(add_100),
                channel.remote.duplex.sink,
            )
            dmap = DistributedMap(batch_size=4)
            output = pull(values(list(range(count_values))), dmap, collect())
            dmap.add_channel(
                channel.local.duplex, batch_size=4, frame_batch=frame_batch
            )
            scheduler.run(until=lambda: output.done)
            assert output.result() == [value + 100 for value in range(count_values)]
            assert channel.local.values_sent == count_values
            frames_by_mode[frame_batch] = channel.local.data_frames_sent
        assert frames_by_mode[1] == count_values
        # ~4x fewer frames when 4 values share one frame
        assert frames_by_mode[4] <= count_values // 4 + 2
