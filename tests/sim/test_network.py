"""Unit tests for the network latency/bandwidth models."""

from __future__ import annotations

import random

import pytest

from repro.sim.network import (
    LAN_PROFILE,
    LOOPBACK_PROFILE,
    VPN_PROFILE,
    WAN_PROFILE,
    LinkProfile,
    NetworkModel,
    profile_for_setting,
)


# ------------------------------------------------------------ LinkProfile
def test_one_way_delay_bounds_jitter_and_adds_transfer_time():
    profile = LinkProfile(name="t", latency=0.010, jitter=0.004, bandwidth=1000.0)
    rng = random.Random(1)
    for _ in range(200):
        delay = profile.one_way_delay(500, rng)
        # latency + transfer (500 B / 1000 B/s) + jitter in [0, 0.004)
        assert 0.510 <= delay < 0.514


def test_one_way_delay_without_jitter_is_exact():
    profile = LinkProfile(name="t", latency=0.002, jitter=0.0, bandwidth=100.0)
    assert profile.one_way_delay(50) == pytest.approx(0.002 + 0.5)
    zero_bw = LinkProfile(name="z", latency=0.001, jitter=0.0, bandwidth=0.0)
    assert zero_bw.one_way_delay(10**9) == pytest.approx(0.001)


def test_rtt_is_twice_the_base_latency():
    assert LAN_PROFILE.rtt == pytest.approx(2 * LAN_PROFILE.latency)
    assert WAN_PROFILE.rtt > VPN_PROFILE.rtt > LAN_PROFILE.rtt


def test_profile_for_setting_maps_names_case_insensitively():
    assert profile_for_setting("lan") is LAN_PROFILE
    assert profile_for_setting("VPN") is VPN_PROFILE
    assert profile_for_setting("Wan") is WAN_PROFILE
    assert profile_for_setting("loopback") is LOOPBACK_PROFILE
    with pytest.raises(ValueError, match="unknown network setting"):
        profile_for_setting("carrier-pigeon")


# ----------------------------------------------------------- NetworkModel
def test_set_link_is_order_independent():
    model = NetworkModel(default_profile=LAN_PROFILE, seed=0)
    model.set_link("master", "pl-node", WAN_PROFILE)
    assert model.profile("master", "pl-node") is WAN_PROFILE
    assert model.profile("pl-node", "master") is WAN_PROFILE
    assert model.profile("master", "other") is LAN_PROFILE


def test_same_host_messages_use_the_loopback_profile():
    model = NetworkModel(default_profile=WAN_PROFILE, seed=0)
    assert model.profile("master", "master") is LOOPBACK_PROFILE
    assert model.delay("master", "master", 100) < WAN_PROFILE.latency


def test_delay_is_seed_deterministic_and_tracks_counters():
    def run(seed):
        model = NetworkModel(default_profile=VPN_PROFILE, seed=seed)
        return [model.delay("a", "b", 1000) for _ in range(10)], model

    first, model = run(42)
    second, _ = run(42)
    third, _ = run(43)
    assert first == second
    assert first != third
    assert model.messages_sent[("a", "b")] == 10
    assert model.bytes_sent[("a", "b")] == 10_000
    assert model.total_bytes() == 10_000


def test_delay_accumulates_per_link_not_per_direction():
    model = NetworkModel(default_profile=LAN_PROFILE, seed=0)
    model.delay("a", "b", 100)
    model.delay("b", "a", 200)
    assert model.bytes_sent == {("a", "b"): 300}
    assert model.messages_sent == {("a", "b"): 2}
