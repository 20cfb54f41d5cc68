"""Distributed campaign execution: transport, protocol, fault tolerance.

The headline invariant: **where a profile ran cannot change findings.**
Every end-to-end test compares a distributed report byte-for-byte
against the serial baseline — through worker kills, partitions, stolen
leases, duplicate results, and full degradation to the local pool.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.common import transport as net
from repro.core import distrib, parallel
from repro.core.distrib import (EXIT_OK, EXIT_RECONNECTS_EXHAUSTED,
                                EXIT_REJECTED, Coordinator, _Conn,
                                corpus_digest, run_worker)
from repro.core.orchestrator import Campaign, CampaignConfig, ProfileOutcome
from repro.core.prerun import prerun_corpus
from repro.core.report import app_report_to_dict
from repro.core.runner import WORKER_CRASH
from synthetic_app import SYNTH_REGISTRY, two_service_test
from test_orchestrator import synthetic_campaign

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def full_dict(report):
    record = app_report_to_dict(report)
    # Supervision and distribution counters are run-scoped operations
    # (workers joined, leases stolen...), not findings: execution
    # placement legitimately differs between backends.
    record.pop("supervision")
    record.pop("distribution")
    return json.dumps(record, sort_keys=True)


def decoupled_config(**kw):
    """Profiles fully independent (no cross-profile blacklist coupling),
    so any commit order must agree with serial byte for byte."""
    return CampaignConfig(blacklist_threshold=999, **kw)


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def synth_factory(app, config):
    return synthetic_campaign(config=config)


# ---------------------------------------------------------------------------
# transport framing
# ---------------------------------------------------------------------------
class TestFrameTransport:
    def _pair(self, **kw):
        left, right = socket.socketpair()
        return net.FrameTransport(left, **kw), net.FrameTransport(right)

    def test_round_trip(self):
        a, b = self._pair()
        a.send({"kind": "hello", "nested": {"x": [1, 2, 3]}})
        assert b.recv(timeout=2.0) == {"kind": "hello",
                                       "nested": {"x": [1, 2, 3]}}
        assert a.frames_sent == 1 and b.frames_received == 1

    def test_many_frames_in_order(self):
        a, b = self._pair()
        for i in range(50):
            a.send({"i": i})
        assert [b.recv(timeout=2.0)["i"] for i in range(50)] == list(range(50))

    def test_eof_is_transport_error(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(net.TransportError):
            b.recv(timeout=2.0)

    def test_read_deadline_is_timeout(self):
        a, b = self._pair()
        with pytest.raises(net.TransportTimeout):
            b.recv(timeout=0.05)

    def test_oversized_frame_refused_on_send(self):
        a, b = self._pair()
        with pytest.raises(net.TransportError):
            a.send({"blob": "x" * (net.MAX_FRAME_BYTES + 1)})

    def test_hostile_length_prefix_refused(self):
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        left.sendall(net._HEADER.pack(net.MAX_FRAME_BYTES + 1))
        with pytest.raises(net.TransportError):
            transport_.recv(timeout=2.0)

    def test_non_object_frame_refused(self):
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        payload = json.dumps([1, 2]).encode()
        left.sendall(net._HEADER.pack(len(payload)) + payload)
        with pytest.raises(net.TransportError):
            transport_.recv(timeout=2.0)

    def test_send_after_close_fails(self):
        a, _ = self._pair()
        a.close()
        with pytest.raises(net.TransportError):
            a.send({"kind": "x"})

    def test_trickled_frame_survives_timeouts_in_sync(self):
        """Regression: a timeout mid-frame used to discard the bytes
        already read, so the retry parsed payload bytes as a header.
        The partial frame must be buffered and resumed across retries,
        and the *next* frame must still parse cleanly."""
        left, right = socket.socketpair()
        transport_ = net.FrameTransport(right)
        payload = json.dumps({"kind": "trickled"}).encode()
        header = net._HEADER.pack(len(payload))

        left.sendall(header[:2])  # half a header, then stall
        with pytest.raises(net.TransportTimeout):
            transport_.recv(timeout=0.05)
        left.sendall(header[2:] + payload[:3])  # rest of header + stall
        with pytest.raises(net.TransportTimeout):
            transport_.recv(timeout=0.05)
        left.sendall(payload[3:])
        assert transport_.recv(timeout=2.0) == {"kind": "trickled"}

        second = json.dumps({"kind": "next"}).encode()
        left.sendall(net._HEADER.pack(len(second)) + second)
        assert transport_.recv(timeout=2.0) == {"kind": "next"}

    @pytest.mark.chaos
    def test_close_unblocks_a_sender_stuck_in_sendall(self):
        """Regression: close() waited on _send_lock, which a sender
        blocked in sendall() on a full kernel buffer holds — so the
        supervisor's close hung too.  The shutdown must happen before
        the lock so the stuck sender errors out and close() returns."""
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sender = net.FrameTransport(left)
        failed = threading.Event()

        def pump():
            try:
                while True:
                    sender.send({"blob": "x" * 65536})
            except net.TransportError:
                failed.set()

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        deadline = time.time() + 5.0
        while sender.frames_sent == 0 and time.time() < deadline:
            time.sleep(0.01)  # let the pump fill the kernel buffer
        time.sleep(0.2)
        started = time.time()
        sender.close()
        assert time.time() - started < 2.0, "close() blocked behind a sender"
        assert failed.wait(timeout=5.0), "stuck sender never unblocked"
        thread.join(timeout=5.0)
        right.close()


class TestNetFaultPlan:
    def test_inert_by_default(self):
        assert not net.NetFaultPlan().active

    def test_decisions_are_deterministic(self):
        plan = net.NetFaultPlan(seed=7, drop_prob=0.5, delay_prob=0.5)
        drops = [plan.drop_decision("c1", i) for i in range(64)]
        delays = [plan.delay_decision("c1", i) for i in range(64)]
        assert drops == [plan.drop_decision("c1", i) for i in range(64)]
        assert delays == [plan.delay_decision("c1", i) for i in range(64)]
        assert any(drops) and not all(drops)

    def test_decisions_differ_across_connections(self):
        plan = net.NetFaultPlan(seed=7, drop_prob=0.5)
        a = [plan.drop_decision("c1", i) for i in range(64)]
        b = [plan.drop_decision("c2", i) for i in range(64)]
        assert a != b

    def test_partition_severs_after_n_frames(self):
        a, b = self._pair_with_plan(net.NetFaultPlan(partition_after=3))
        for i in range(3):
            a.send({"i": i})
        with pytest.raises(net.TransportError):
            a.send({"i": 3})
        assert a.fault_counts == {"partition": 1}
        assert a.closed

    def test_dropped_frame_vanishes_silently(self):
        plan = net.NetFaultPlan(seed=1, drop_prob=1.0)
        a, b = self._pair_with_plan(plan)
        a.send({"kind": "gone"})
        assert a.fault_counts == {"drop": 1}
        with pytest.raises(net.TransportTimeout):
            b.recv(timeout=0.05)

    def test_round_trip_through_dict(self):
        plan = net.NetFaultPlan(seed=3, drop_prob=0.1, delay_prob=0.2,
                                delay_range_s=(0.5, 1.5), partition_after=9)
        from dataclasses import asdict
        rebuilt = net.net_fault_plan_from_dict(
            json.loads(json.dumps(asdict(plan))))
        assert rebuilt == plan
        assert net.net_fault_plan_from_dict(None) is None

    def _pair_with_plan(self, plan):
        left, right = socket.socketpair()
        return (net.FrameTransport(left, conn_id="t", plan=plan),
                net.FrameTransport(right))


class TestParseAddress:
    def test_forms(self):
        assert net.parse_address("1.2.3.4:99") == ("1.2.3.4", 99)
        assert net.parse_address(":99") == ("127.0.0.1", 99)
        assert net.parse_address("99") == ("127.0.0.1", 99)

    def test_garbage_refused(self):
        with pytest.raises(net.TransportError):
            net.parse_address("nope")
        with pytest.raises(net.TransportError):
            net.parse_address("host:70000")


# ---------------------------------------------------------------------------
# coordinator protocol (no sockets: straight through _handle_message)
# ---------------------------------------------------------------------------
def make_coordinator(**config_kwargs):
    config = decoupled_config(distributed="0", **config_kwargs)
    campaign = synthetic_campaign(config=config)
    profiles = [p for p in prerun_corpus(campaign.tests) if p.usable]
    tests_by_name = {t.full_name: t for t in campaign.tests}
    campaign.distribution.enabled = True
    coordinator = Coordinator(campaign, profiles, None, tests_by_name)
    return campaign, coordinator, profiles


def join(coordinator, name="w1", slots=1, digest=None):
    conn = _Conn(None)
    with coordinator.lock:
        reply = coordinator._handle_message(
            conn, {"kind": "hello", "worker": name, "slots": slots,
                   "digest": digest})
    return conn, reply


def fetch(coordinator, conn, max_tasks=1):
    with coordinator.lock:
        return coordinator._handle_message(
            conn, {"kind": "fetch", "max": max_tasks})


def deliver(coordinator, conn, task):
    with coordinator.lock:
        return coordinator._handle_message(conn, {
            "kind": "result", "task": task,
            "outcome": parallel.profile_outcome_to_dict(ProfileOutcome())})


class TestCoordinatorProtocol:
    def test_first_contact_hello_gets_welcome_with_settings(self):
        campaign, coordinator, _ = make_coordinator()
        _, welcome = join(coordinator, digest=None)
        assert welcome["kind"] == "welcome"
        assert welcome["app"] == "synth"
        assert welcome["digest"] == corpus_digest(campaign)
        assert welcome["settings"] == campaign.config.checkpoint_settings()
        assert coordinator.stats.workers_joined == 1

    def test_reconnect_with_skewed_digest_rejected(self):
        _, coordinator, _ = make_coordinator()
        _, reply = join(coordinator, digest=12345)
        assert reply["kind"] == "reject"
        assert "digest" in reply["reason"]

    def test_fetch_before_hello_rejected(self):
        _, coordinator, _ = make_coordinator()
        reply = fetch(coordinator, _Conn(None))
        assert reply["kind"] == "reject"

    def test_lease_then_result_commits_once(self):
        campaign, coordinator, profiles = make_coordinator()
        conn, _ = join(coordinator)
        lease = fetch(coordinator, conn)
        assert lease["kind"] == "lease" and len(lease["tasks"]) == 1
        task = lease["tasks"][0]["task"]
        assert deliver(coordinator, conn, task) == {"kind": "ack",
                                                    "task": task}
        assert task in coordinator.outcomes
        assert coordinator.stats.remote_profiles == 1
        # the resend of a lost ack is acked again but never recommitted
        assert deliver(coordinator, conn, task)["kind"] == "ack"
        assert coordinator.stats.duplicates_suppressed == 1
        assert coordinator.stats.remote_profiles == 1

    def test_queue_drained_then_wait(self):
        _, coordinator, profiles = make_coordinator()
        conn, _ = join(coordinator)
        lease = fetch(coordinator, conn, max_tasks=len(profiles))
        assert len(lease["tasks"]) == len(profiles)
        assert fetch(coordinator, conn)["kind"] == "wait"

    def test_idle_worker_steals_a_copy_of_a_straggler(self):
        _, coordinator, profiles = make_coordinator()
        straggler, _ = join(coordinator, name="slow")
        fetch(coordinator, straggler, max_tasks=len(profiles))
        thief, _ = join(coordinator, name="fast")
        stolen = fetch(coordinator, thief)
        assert stolen["kind"] == "lease"
        task = stolen["tasks"][0]["task"]
        assert coordinator.stats.steals == 1
        # first finisher wins; the straggler's copy is suppressed
        deliver(coordinator, thief, task)
        deliver(coordinator, straggler, task)
        assert coordinator.stats.remote_profiles == 1
        assert coordinator.stats.duplicates_suppressed == 1

    def test_steal_bounded_by_max_copies(self):
        _, coordinator, profiles = make_coordinator(dist_max_copies=1)
        straggler, _ = join(coordinator, name="slow")
        fetch(coordinator, straggler, max_tasks=len(profiles))
        thief, _ = join(coordinator, name="fast")
        assert fetch(coordinator, thief)["kind"] == "wait"

    def test_lost_worker_leases_requeued(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "test kill")
        assert coordinator.stats.workers_lost == 1
        assert coordinator.stats.redeliveries == 1
        assert (task, 2) in coordinator.queue
        # the redelivered lease (queued behind the untouched profiles)
        # is granted to the next worker that drains the queue
        fresh, _ = join(coordinator, name="w2")
        lease = fetch(coordinator, fresh, max_tasks=len(coordinator.queue))
        granted = {t["task"]: t["delivery"] for t in lease["tasks"]}
        assert granted[task] == 2

    def test_graceful_bye_is_not_a_loss(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "bye",
                                            graceful=True)
        assert coordinator.stats.workers_lost == 0

    def test_poison_quarantined_after_redelivery_exhausted(self):
        campaign, coordinator, _ = make_coordinator(worker_redelivery=0)
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "crashed")
        assert coordinator.stats.quarantined == 1
        assert coordinator.outcomes[task].error_kind == WORKER_CRASH

    def test_heartbeat_expiry_declares_the_worker_dead(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        fetch(coordinator, conn)
        conn.worker.last_seen -= coordinator.heartbeat_timeout + 1
        with coordinator.cond:
            coordinator._police_locked(time.monotonic(), time.monotonic())
        assert coordinator.stats.heartbeat_expiries == 1
        assert coordinator.stats.redeliveries == 1

    def test_heartbeat_refreshes_liveness(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        conn.worker.last_seen -= coordinator.heartbeat_timeout + 1
        with coordinator.lock:
            assert coordinator._handle_message(
                conn, {"kind": "heartbeat"}) is None
        with coordinator.cond:
            coordinator._police_locked(time.monotonic(), time.monotonic())
        assert coordinator.stats.heartbeat_expiries == 0

    def test_lease_deadline_redelivers(self):
        _, coordinator, _ = make_coordinator(dist_lease_deadline_s=5.0)
        conn, _ = join(coordinator)
        task = fetch(coordinator, conn)["tasks"][0]["task"]
        coordinator.leases[task]["granted_at"] -= 10.0
        with coordinator.cond:
            coordinator._police_locked(time.monotonic(), time.monotonic())
        assert coordinator.stats.lease_expiries == 1
        assert coordinator.stats.redeliveries == 1

    def test_join_grace_expiry_degrades(self):
        _, coordinator, _ = make_coordinator(dist_join_grace_s=0.1)
        started = time.monotonic() - 1.0
        with coordinator.cond:
            coordinator._police_locked(time.monotonic(), started)
        assert coordinator.halted
        assert coordinator.stats.degraded_to_local

    def test_fleet_loss_degrades_after_grace(self):
        _, coordinator, _ = make_coordinator(dist_fleet_grace_s=0.1)
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._worker_lost_locked(conn.worker, "gone")
            now = time.monotonic()
            coordinator._police_locked(now, now)       # starts the clock
            assert not coordinator.halted
            coordinator._police_locked(now + 1.0, now)
        assert coordinator.halted
        assert coordinator.stats.degraded_to_local

    def test_fetch_after_halt_says_done(self):
        _, coordinator, _ = make_coordinator()
        conn, _ = join(coordinator)
        with coordinator.cond:
            coordinator._degrade_locked("test")
        assert fetch(coordinator, conn)["kind"] == "done"


# ---------------------------------------------------------------------------
# shared-secret HMAC handshake (protocol level)
# ---------------------------------------------------------------------------
def hello_message(name="w1", nonce="aabb"):
    return {"kind": "hello", "worker": name, "slots": 1, "digest": None,
            "nonce": nonce}


class TestAuthHandshake:
    def test_open_coordinator_ignores_nonce_and_welcomes(self):
        _, coordinator, _ = make_coordinator()
        conn = _Conn(None)
        with coordinator.lock:
            reply = coordinator._handle_message(conn, hello_message())
        assert reply["kind"] == "welcome"

    def test_hello_gets_challenge_with_coordinator_proof(self):
        from repro.core.distrib import _auth_mac
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            reply = coordinator._handle_message(conn, hello_message())
        assert reply["kind"] == "challenge"
        # mutual: the coordinator proves itself over the *worker's* nonce
        assert reply["mac"] == _auth_mac("hunter2", "coordinator", "aabb")
        assert reply["nonce"] != "aabb"
        assert coordinator.stats.workers_joined == 0  # not joined yet

    def test_correct_mac_joins(self):
        from repro.core.distrib import _auth_mac
        campaign, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            challenge = coordinator._handle_message(conn, hello_message())
            welcome = coordinator._handle_message(conn, {
                "kind": "auth",
                "mac": _auth_mac("hunter2", "worker", challenge["nonce"])})
        assert welcome["kind"] == "welcome"
        assert welcome["digest"] == corpus_digest(campaign)
        assert coordinator.stats.workers_joined == 1
        assert coordinator.stats.auth_rejects == 0

    def test_wrong_mac_rejected_and_counted(self):
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            coordinator._handle_message(conn, hello_message())
            reply = coordinator._handle_message(
                conn, {"kind": "auth", "mac": "0" * 64})
        assert reply["kind"] == "reject"
        assert coordinator.stats.auth_rejects == 1
        assert coordinator.stats.workers_joined == 0
        # the stale challenge is spent: a retry cannot reuse it
        with coordinator.lock:
            again = coordinator._handle_message(
                conn, {"kind": "auth", "mac": "0" * 64})
        assert again["kind"] == "reject"

    def test_unsolicited_auth_rejected(self):
        _, coordinator, _ = make_coordinator()
        with coordinator.lock:
            reply = coordinator._handle_message(
                _Conn(None), {"kind": "auth", "mac": "whatever"})
        assert reply["kind"] == "reject"

    def test_fetch_without_completing_auth_rejected(self):
        _, coordinator, _ = make_coordinator(dist_secret="hunter2")
        conn = _Conn(None)
        with coordinator.lock:
            coordinator._handle_message(conn, hello_message())
        assert fetch(coordinator, conn)["kind"] == "reject"

    def test_secret_never_journaled(self):
        config = decoupled_config(dist_secret="hunter2")
        settings = config.checkpoint_settings()
        assert "hunter2" not in json.dumps(settings)


class TestLateJoiner:
    """A hello that lands after the last commit is told ``done``."""

    def finish(self, coordinator, profiles):
        conn, _ = join(coordinator, name="early")
        for _ in profiles:
            lease = fetch(coordinator, conn)
            deliver(coordinator, conn, lease["tasks"][0]["task"])
        assert len(coordinator.outcomes) == len(profiles)

    def test_hello_after_completion_gets_done(self):
        _, coordinator, profiles = make_coordinator()
        self.finish(coordinator, profiles)
        late, reply = join(coordinator, name="late")
        assert reply == {"kind": "done"}
        assert late.worker is None  # nothing to lease, never registered
        assert coordinator.stats.workers_joined == 2
        # still true once teardown has begun
        coordinator.closed = True
        _, reply = join(coordinator, name="later")
        assert reply == {"kind": "done"}

    @pytest.mark.parametrize("secret, expected", [
        (None, EXIT_OK),
        # an unproven coordinator cannot make a secret-holding worker
        # report success
        ("fleet-secret", EXIT_REJECTED),
    ])
    def test_worker_maps_done_hello_reply(self, secret, expected):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def unauthenticated_done():
            sock, _ = listener.accept()
            link = net.FrameTransport(sock)
            assert link.recv(timeout=10)["kind"] == "hello"
            link.send({"kind": "done"})
            link.close()

        server = threading.Thread(target=unauthenticated_done, daemon=True)
        server.start()
        try:
            assert run_worker(address, campaign_factory=synth_factory,
                              worker_config=CampaignConfig(
                                  dist_secret=secret),
                              max_reconnects=0) == expected
        finally:
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()

    @pytest.mark.parametrize("secret", [None, "fleet-secret"])
    def test_linger_waits_for_a_handshaking_connection(self, secret,
                                                       serial_baseline):
        assert late_joiner_round(secret) == serial_baseline


def late_joiner_round(secret):
    """One coordinator, one worker that drains everything, and one raw
    connection accepted early whose hello is sent only after the drain.
    The coordinator must keep lingering for the handshaking connection
    and answer its hello with ``done``.  Returns the report's
    ``full_dict`` for comparison against serial."""
    from repro.core.distrib import _auth_mac
    port = _free_port()
    address = "127.0.0.1:%d" % port
    config = decoupled_config(distributed=address, dist_secret=secret,
                              dist_join_grace_s=20.0)
    campaign = synthetic_campaign(config=config)
    box = {}
    campaign_thread = threading.Thread(
        target=lambda: box.setdefault("report", campaign.run()),
        daemon=True)
    campaign_thread.start()
    deadline = time.monotonic() + 30
    while not campaign.distribution.listen and time.monotonic() < deadline:
        time.sleep(0.002)
    late = net.connect("127.0.0.1", port, timeout=5.0)
    try:
        worker_config = CampaignConfig(dist_secret=secret)
        assert run_worker(address, campaign_factory=synth_factory,
                          name="early", worker_config=worker_config) \
            == EXIT_OK
        late.send({"kind": "hello", "worker": "late", "slots": 1,
                   "nonce": "aabb", "digest": None})
        reply = late.recv(timeout=10)
        if secret:
            assert reply["kind"] == "challenge"
            late.send({"kind": "auth", "mac": _auth_mac(
                secret, "worker", reply["nonce"])})
            reply = late.recv(timeout=10)
        assert reply == {"kind": "done"}
    finally:
        late.close()
    campaign_thread.join(timeout=60)
    assert "report" in box, "campaign did not finish"
    assert campaign.distribution.workers_joined == 2
    return full_dict(box["report"])


# ---------------------------------------------------------------------------
# end-to-end: coordinator + in-process workers over real TCP
# ---------------------------------------------------------------------------
def run_distributed(n_workers=2, worker_kwargs=None, config_kwargs=None,
                    factory=synth_factory):
    port = _free_port()
    address = "127.0.0.1:%d" % port
    config_kwargs = dict(config_kwargs or {})
    config_kwargs.setdefault("dist_join_grace_s", 20.0)
    config = decoupled_config(distributed=address, **config_kwargs)
    campaign = synthetic_campaign(config=config)
    box = {}

    def run_campaign():
        box["report"] = campaign.run()

    campaign_thread = threading.Thread(target=run_campaign, daemon=True)
    campaign_thread.start()
    # Start workers only once the coordinator is listening: the synth
    # campaign is so short that a worker still in connect-refused
    # backoff can otherwise miss it entirely.
    deadline = time.monotonic() + 30
    while not campaign.distribution.listen and time.monotonic() < deadline:
        time.sleep(0.002)
    assert campaign.distribution.listen
    exit_codes = {}
    threads = []
    for i in range(n_workers):
        kwargs = dict(worker_kwargs.get(i, {}) if worker_kwargs else {})
        kwargs.setdefault("name", "w%d" % i)

        def target(i=i, kwargs=kwargs):
            exit_codes[i] = run_worker(address, campaign_factory=factory,
                                       **kwargs)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        threads.append(thread)
    campaign_thread.join(timeout=120)
    assert "report" in box, "campaign did not finish"
    for thread in threads:
        thread.join(timeout=60)
    return box["report"], campaign.distribution, exit_codes


@pytest.fixture(scope="module")
def serial_baseline():
    return full_dict(synthetic_campaign(config=decoupled_config()).run())


class TestDistributedEndToEnd:
    def test_two_workers_byte_identical_to_serial(self, serial_baseline):
        report, stats, exit_codes = run_distributed(n_workers=2)
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK, 1: EXIT_OK}
        assert stats.enabled
        assert stats.workers_joined == 2
        assert stats.remote_profiles + stats.local_profiles \
            + stats.quarantined >= 1
        assert not stats.degraded_to_local
        assert sum(w.profiles for w in stats.fleet) == stats.remote_profiles

    def test_fleet_never_joins_degrades_to_local(self, serial_baseline):
        report, stats, _ = run_distributed(
            n_workers=0, config_kwargs={"dist_join_grace_s": 0.3})
        assert full_dict(report) == serial_baseline
        assert stats.degraded_to_local
        assert stats.remote_profiles == 0
        assert stats.local_profiles > 0

    def test_partitioned_worker_redelivers_to_survivor(self,
                                                       serial_baseline):
        # worker 0's link lets hello + one fetch through, then severs:
        # its first result is lost mid-lease and it never reconnects, so
        # the lease must be redelivered to worker 1.
        report, stats, exit_codes = run_distributed(
            n_workers=2,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=2),
                               "max_reconnects": 0}})
        assert full_dict(report) == serial_baseline
        assert exit_codes[0] == EXIT_RECONNECTS_EXHAUSTED
        assert exit_codes[1] == EXIT_OK
        assert stats.workers_lost >= 1
        assert not stats.degraded_to_local

    def test_flapping_partition_single_worker_reconnects(self,
                                                         serial_baseline):
        # every connection dies after 5 frames; the worker reconnects
        # with backoff, resends unacked results, and still finishes.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=5),
                               "max_reconnects": 10}},
            config_kwargs={"dist_fleet_grace_s": 30.0})
        assert full_dict(report) == serial_baseline
        assert stats.workers_joined >= 2  # at least one reconnect
        assert not stats.degraded_to_local

    def test_whole_fleet_lost_degrades_and_finishes(self, serial_baseline):
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"net_fault_plan":
                               net.NetFaultPlan(partition_after=8),
                               "max_reconnects": 0}},
            config_kwargs={"dist_fleet_grace_s": 0.3})
        assert full_dict(report) == serial_baseline
        assert exit_codes[0] == EXIT_RECONNECTS_EXHAUSTED
        assert stats.degraded_to_local
        assert stats.local_profiles > 0

    def test_authenticated_fleet_byte_identical_to_serial(
            self, serial_baseline):
        secret = CampaignConfig(dist_secret="fleet-secret")
        report, stats, exit_codes = run_distributed(
            n_workers=2,
            worker_kwargs={0: {"worker_config": secret},
                           1: {"worker_config": secret}},
            config_kwargs={"dist_secret": "fleet-secret"})
        assert full_dict(report) == serial_baseline
        assert exit_codes == {0: EXIT_OK, 1: EXIT_OK}
        assert stats.workers_joined == 2
        assert stats.auth_rejects == 0

    def test_secretless_worker_refused_by_secret_coordinator(
            self, serial_baseline):
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            config_kwargs={"dist_secret": "fleet-secret",
                           "dist_join_grace_s": 1.0})
        # the worker walks away at the challenge (it has nothing to
        # prove with), so the coordinator never even counts a reject
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_wrong_secret_worker_refused(self, serial_baseline):
        # mutual verification: the worker checks the coordinator's proof
        # first, sees a mac built from a different secret, and refuses
        # before ever answering the challenge.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"worker_config":
                               CampaignConfig(dist_secret="wrong")}},
            config_kwargs={"dist_secret": "fleet-secret",
                           "dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_secret_worker_refuses_open_coordinator(self, serial_baseline):
        # mutual auth: the worker will not ship results to a coordinator
        # that cannot prove secret knowledge.
        report, stats, exit_codes = run_distributed(
            n_workers=1,
            worker_kwargs={0: {"worker_config":
                               CampaignConfig(dist_secret="mine")}},
            config_kwargs={"dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        assert stats.remote_profiles == 0
        assert full_dict(report) == serial_baseline

    def test_worker_with_skewed_corpus_refused(self, serial_baseline):
        def skewed(app, config):
            return Campaign("synth", SYNTH_REGISTRY,
                            tests=[two_service_test()], config=config)

        report, stats, exit_codes = run_distributed(
            n_workers=1, factory=skewed,
            config_kwargs={"dist_join_grace_s": 1.0})
        assert exit_codes[0] == EXIT_REJECTED
        # nothing the skewed worker did can have touched the findings
        assert full_dict(report) == serial_baseline
        assert stats.remote_profiles == 0

    def test_distributed_checkpoint_resumes_serially(self, tmp_path,
                                                     serial_baseline):
        journal = str(tmp_path / "dist.ckpt.jsonl")
        report, stats, _ = run_distributed(
            n_workers=2, config_kwargs={"checkpoint_path": journal})
        assert full_dict(report) == serial_baseline
        # measured cost weights were journaled beside the checkpoint
        assert os.path.exists(journal + ".weights.json")
        resumed = synthetic_campaign(
            config=decoupled_config(checkpoint_path=journal)).run()
        assert full_dict(resumed) == serial_baseline

    def test_fleet_section_renders_in_markdown(self):
        from repro.core.reportmd import app_report_markdown
        report, _, _ = run_distributed(n_workers=2)
        text = app_report_markdown(report)
        assert "## Fleet" in text
        assert "workers joined" in text

    def test_dist_metrics_fold_into_snapshot(self):
        report, stats, _ = run_distributed(
            n_workers=2, config_kwargs={"observe": True})
        metrics = report.observation.metrics
        assert metrics.total("zc_dist_workers_joined_total") == \
            stats.workers_joined
        assert metrics.total("zc_dist_remote_profiles_total") == \
            stats.remote_profiles
        rendered = metrics.render_prometheus(include_volatile=True)
        assert "zc_dist_workers_joined_total" in rendered


# ---------------------------------------------------------------------------
# chaos: real app, subprocess workers, SIGKILL mid-lease
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosSubprocessFleet:
    def test_sigkill_mid_campaign_stays_byte_identical(self):
        app = "mapreduce"
        from repro.apps import catalog
        spec = catalog.spec_for(app)

        def fresh(**kw):
            return Campaign(app, spec.registry,
                            dependency_rules=spec.dependency_rules,
                            config=decoupled_config(**kw))

        serial = full_dict(fresh().run())

        port = _free_port()
        address = "127.0.0.1:%d" % port
        campaign = fresh(distributed=address, dist_join_grace_s=60.0,
                         dist_fleet_grace_s=30.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", address, "--name", "w%d" % i, "--workers", "1"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in range(2)]

        def kill_when_working():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if campaign.distribution.remote_profiles >= 1:
                    workers[0].send_signal(signal.SIGKILL)
                    return
                time.sleep(0.005)

        killer = threading.Thread(target=kill_when_working, daemon=True)
        killer.start()
        try:
            report = campaign.run()
        finally:
            for proc in workers:
                proc.kill()
                proc.wait(timeout=30)
        killer.join(timeout=5)
        assert full_dict(report) == serial
        stats = campaign.distribution
        assert stats.workers_joined >= 2
        assert stats.workers_lost >= 1
        assert not stats.degraded_to_local


@pytest.mark.chaos
class TestLateJoinerLoop:
    """Repeats the late-joiner race, open and authenticated: each round
    must end with both connections told ``done`` and serial findings."""

    ROUNDS = 8

    @pytest.mark.parametrize("secret", [None, "fleet-secret"])
    def test_late_joiner_rounds(self, secret, serial_baseline):
        for _ in range(self.ROUNDS):
            assert late_joiner_round(secret) == serial_baseline

    def test_slow_handshake_worker_exits_ok(self, serial_baseline):
        # Every frame of worker 1's link is held back, so its hello can
        # land after worker 0 drained the campaign; with no reconnect
        # budget, being cut off mid-handshake would fail the round.
        slow = net.NetFaultPlan(delay_prob=1.0, delay_range_s=(0.4, 0.4))
        secret = CampaignConfig(dist_secret="fleet-secret")
        for _ in range(3):
            report, stats, exit_codes = run_distributed(
                n_workers=2,
                worker_kwargs={0: {"worker_config": secret},
                               1: {"worker_config": secret,
                                   "net_fault_plan": slow,
                                   "max_reconnects": 0}},
                config_kwargs={"dist_secret": "fleet-secret"})
            assert full_dict(report) == serial_baseline
            assert exit_codes == {0: EXIT_OK, 1: EXIT_OK}
