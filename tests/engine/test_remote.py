"""The remote executor: broker, workers, and byte-identity vs serial.

Property tests of the ISSUE's acceptance bar: a remote run against a
localhost broker with two workers must produce BLIF byte-identical to a
serial run -- including under injected worker death (retry, then degrade
to serial) and across a checkpoint abort -> resume.  Plus broker-level
lease semantics (expiry requeues with the fault stripped, a second
expiry fails the task) exercised with handcrafted envelopes.
"""

import contextlib
import http.client
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.engine.remote import (
    BrokerClient,
    BrokerError,
    BrokerConfig,
    BrokerUnavailable,
    TaskBroker,
    run_worker,
)
from repro.engine.remote.broker import MAX_BODY_BYTES
from repro.engine.remote.wire import TASK_SCHEMA
from repro.engine.remote.worker import _handle_task
from repro.errors import FaultInjected
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize


@pytest.fixture(autouse=True)
def fresh_pool():
    """Degrade-to-serial paths touch the shared pool; start clean."""
    from repro.engine.executors import _reset_pool

    _reset_pool()
    yield


@pytest.fixture
def broker():
    """One in-process broker on a free port; yields (broker, 'host:port')."""
    b = TaskBroker(BrokerConfig(port=0))
    host, port = b.start()
    yield b, f"{host}:{port}"
    b.stop()


@contextlib.contextmanager
def worker_threads(address: str, count: int = 2):
    """``count`` in-process worker loops against ``address``.

    In-process workers must never see a kill fault (``os._exit`` would
    take the test process down); kill scenarios use subprocess workers.
    """
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(address,),
            kwargs={"name": f"t{i}", "stop": stop, "poll_seconds": 0.1},
            daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    try:
        yield
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)


@contextlib.contextmanager
def worker_processes(address: str, count: int = 1):
    """``count`` subprocess workers (safe to kill: faults fire there)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--broker", address, "--poll-seconds", "0.1",
             "--name", f"p{i}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(count)
    ]
    try:
        yield procs
    finally:
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def bench(name: str, make_rugged: bool = False):
    net = get_circuit(name).build()
    if make_rugged:
        rugged(net)
    return net


def remote_config(address: str, **kwargs) -> FlowConfig:
    return FlowConfig(
        executor="remote", broker=address, retry_backoff=0.0, **kwargs
    )


class TestByteIdentity:
    """Remote == serial, byte for byte, with honest counters."""

    @pytest.mark.parametrize("name,make_rugged,groups", [
        ("rd53", False, 3),
        ("misex1", True, 4),
    ])
    def test_remote_matches_serial(self, broker, name, make_rugged, groups):
        _, address = broker
        net = bench(name, make_rugged)
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_threads(address, count=2):
            res = synthesize(net.copy(), remote_config(address))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.executor == "remote"
        assert stats.remote is not None
        assert stats.remote["broker"] == address
        assert stats.remote["tasks_submitted"] == groups
        assert stats.remote["tasks_completed"] == groups
        assert stats.remote["broker_errors"] == 0
        assert stats.groups_degraded == 0

    def test_single_group_never_contacts_the_broker(self):
        # 9sym has one output -> one group: the base class short-circuits
        # to the serial path, so even an unreachable broker is fine.
        net = bench("9sym")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        res = synthesize(net.copy(), remote_config("127.0.0.1:1"))
        assert write_blif(res.network) == baseline
        assert res.engine_stats.remote["tasks_submitted"] == 0

    def test_unreachable_broker_fails_fast(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.remote.executor.CONNECT_WAIT_SECONDS", 0.5
        )
        net = bench("rd53")
        with pytest.raises(BrokerUnavailable, match="healthz"):
            synthesize(net, remote_config("127.0.0.1:1"))


class TestDeadHosts:
    """Dead or absent workers feed the inherited retry/degrade ladder."""

    def test_no_workers_degrades_every_group_to_serial(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        res = synthesize(net.copy(), remote_config(
            address, task_timeout=0.75, task_retries=0,
        ))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.groups_degraded == 3
        assert stats.task_timeouts == 3

    def test_worker_kill_mid_group_retries_to_identical_bytes(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_processes(address, count=2) as procs:
            res = synthesize(net.copy(), remote_config(
                address,
                fault_plan=_kill_plan(0),
                task_timeout=3.0,
                task_retries=1,
            ))
            # The fault took exactly one worker down.
            time.sleep(0.2)
            assert sum(1 for p in procs if p.poll() is not None) == 1
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.faults_injected == 1
        assert stats.tasks_retried >= 1
        assert stats.groups_degraded == 0

    def test_worker_kill_with_no_survivor_degrades(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_processes(address, count=1):
            res = synthesize(net.copy(), remote_config(
                address,
                fault_plan=_kill_plan(0),
                task_timeout=1.0,
                task_retries=0,
            ))
        assert write_blif(res.network) == baseline
        assert res.engine_stats.groups_degraded >= 1


def _kill_plan(group: int):
    from repro.engine.faults import parse_fault_plan

    return parse_fault_plan(f"kill@{group}")


class TestCheckpointResume:
    """Abort -> resume over the remote executor is byte-identical."""

    def test_abort_then_resume(self, broker, tmp_path):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        ckpt = tmp_path / "remote.ckpt"
        from repro.engine.faults import parse_fault_plan

        with worker_threads(address, count=2):
            with pytest.raises(FaultInjected, match="abort"):
                synthesize(net.copy(), remote_config(
                    address,
                    fault_plan=parse_fault_plan("abort@1"),
                    checkpoint_path=str(ckpt),
                ))
            assert ckpt.exists()
            res = synthesize(net.copy(), remote_config(
                address, resume_from=str(ckpt),
            ))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.checkpoint_replayed == 2
        # Only the group the abort cut short is recomputed remotely.
        assert stats.remote["tasks_submitted"] == 1


class TestSharedCache:
    """Workers consult the broker's shared result store."""

    def test_warm_run_replays_from_the_broker_cache(self, tmp_path):
        b = TaskBroker(BrokerConfig(
            port=0, cache_db=str(tmp_path / "shared.db")
        ))
        host, port = b.start()
        address = f"{host}:{port}"
        try:
            net = bench("rd53")
            baseline = write_blif(
                synthesize(net.copy(), FlowConfig()).network
            )
            with worker_threads(address, count=2):
                cold = synthesize(net.copy(), remote_config(address))
                warm = synthesize(net.copy(), remote_config(address))
            assert write_blif(cold.network) == baseline
            assert write_blif(warm.network) == baseline
            assert cold.engine_stats.remote["cache_hits"] == 0
            assert warm.engine_stats.remote["cache_hits"] == 3
        finally:
            b.stop()


def make_envelope(task_id: str, lease: float, fault: bool = True) -> dict:
    """A minimal valid task envelope (the broker treats payloads opaquely)."""
    return {
        "schema": TASK_SCHEMA,
        "id": task_id,
        "lease_seconds": lease,
        "max_requeues": 1,
        "cache_key": None,
        "payload": {
            "fault": {"kind": "kill", "group": 0} if fault else None
        },
    }


class TestLeaseSemantics:
    """Broker-level lease expiry: requeue once (fault stripped), then fail."""

    def test_expiry_requeues_with_fault_stripped_then_fails(self, broker):
        b, address = broker
        client = BrokerClient(address)
        assert client.submit_task(
            make_envelope("lease-test", lease=0.2)
        )["accepted"]

        first = client.next_task("w1", wait=1.0)["task"]
        assert first["id"] == "lease-test"
        assert first["payload"]["fault"] is not None
        time.sleep(0.3)  # w1 "dies": lease expires unanswered

        second = client.next_task("w2", wait=1.0)["task"]
        assert second["id"] == "lease-test"
        # The armed fault fires exactly once; the requeue strips it so
        # one injected death cannot cascade across workers.
        assert second["payload"]["fault"] is None
        time.sleep(0.3)  # w2 "dies" too: requeue budget exhausted

        status = client.task_status("lease-test")
        assert status["state"] == "done"
        assert status["ok"] is False
        assert status["error"]["type"] == "LeaseExpired"
        assert status["requeues"] == 2

    def test_cancel_reports_never_ran(self, broker):
        _, address = broker
        client = BrokerClient(address)
        client.submit_task(make_envelope("c1", lease=30.0))
        assert client.cancel("c1")["cancelled"] is True
        client.submit_task(make_envelope("c2", lease=30.0))
        client.next_task("w1", wait=1.0)
        # Leased once: the Future.cancel contract says "not cancelled".
        assert client.cancel("c2")["cancelled"] is False
        assert client.cancel("missing")["known"] is False

    def test_duplicate_submission_rejected(self, broker):
        _, address = broker
        client = BrokerClient(address)
        assert client.submit_task(make_envelope("dup", 30.0))["accepted"]
        assert not client.submit_task(make_envelope("dup", 30.0))["accepted"]

    def test_draining_broker_tells_workers_to_exit(self, broker):
        b, address = broker
        client = BrokerClient(address)
        b.draining = True
        try:
            assert client.next_task("w1", wait=0.1)["draining"] is True
        finally:
            # Poked the flag without running the real drain; restore it so
            # the fixture's stop() performs the actual shutdown.
            b.draining = False


class TestBrokerWire:
    """Malformed requests are answered 4xx; the broker keeps serving."""

    @pytest.mark.parametrize("body", [[1, 2], {"wait": "abc"}, {"worker": 7}])
    def test_malformed_poll_answers_400(self, broker, body):
        _, address = broker
        client = BrokerClient(address)
        # A bad poll body is a client error, not a dropped connection.
        with pytest.raises(BrokerError) as err:
            client._request("POST", "/tasks/next", body)
        assert err.value.status == 400
        assert "poll" in str(err.value)
        assert client.healthz()["status"] == "ok"

    def test_null_body_answers_400(self, broker):
        # JSON ``null`` parses fine but is no envelope: answered, not
        # left hanging until the client times out.
        b, _ = broker
        conn = http.client.HTTPConnection(*b.address, timeout=10)
        try:
            status, body = _exchange(conn, "POST", "/tasks", b"null")
        finally:
            conn.close()
        assert status == 400 and "not a JSON object" in body["error"]


def _exchange(conn, method, path, body=None, headers=None):
    """One request on a kept-alive connection; returns (status, JSON)."""
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestFraming:
    """A refused request leaves its keep-alive connection usable: the
    broker consumes the declared body or closes the connection."""

    @pytest.mark.parametrize("case", ["unknown-path", "oversized"])
    def test_refused_request_keeps_connection_usable(self, broker, case):
        b, _ = broker
        conn = http.client.HTTPConnection(*b.address, timeout=30)
        body = json.dumps({"worker": "w1", "wait": 0}).encode()
        try:
            if case == "unknown-path":
                assert _exchange(conn, "POST", "/nope", body)[0] == 404
            else:
                declared = {"Content-Length": str(MAX_BODY_BYTES + 1)}
                status, _ = _exchange(conn, "POST", "/tasks", body, declared)
                assert status == 400
            assert _exchange(conn, "GET", "/healthz") == (
                200, {"status": "ok"}
            )
        finally:
            conn.close()


class _StubClient:
    """Records posted result envelopes in place of a broker."""

    def __init__(self):
        self.posted = []

    def post_result(self, envelope):
        self.posted.append(envelope)
        return {"recorded": True}

    def cache_get(self, key):
        return None


class TestWorkerRobustness:
    """A malformed task is answered with an error result, never a crash."""

    @pytest.mark.parametrize("fault", [
        {"kind": "delay", "group": 0, "seconds": "x"},
        {"kind": "delay", "group": 0, "attempts": ["0"]},
        {"kind": "delay", "group": -1},
    ])
    def test_malformed_fault_posts_error_result(self, fault):
        client = _StubClient()
        task = {
            "id": "t1",
            "cache_key": None,
            "payload": {
                "dag": {"var_names": [], "nodes": [], "roots": []},
                "level_signals": {},
                "config": {},
                "fault": fault,
            },
        }
        _handle_task(client, task, "w1")
        [envelope] = client.posted
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "RemoteWireError"
        assert "task fault" in envelope["error"]["message"]


class TestRemoteRace:
    """Racing over the broker collects every task exactly once."""

    def test_completed_race_deletes_each_task_once(self, broker, monkeypatch):
        _, address = broker
        deleted = []
        cancel = BrokerClient.cancel

        def counting_cancel(self, task_id):
            deleted.append(task_id)
            return cancel(self, task_id)

        monkeypatch.setattr(BrokerClient, "cancel", counting_cancel)
        policy = "race:ladder-peel,peel-first"
        net = bench("rd53")
        baseline = write_blif(
            synthesize(net.copy(), FlowConfig(policy=policy)).network
        )
        with worker_threads(address, count=2):
            res = synthesize(net.copy(), remote_config(address, policy=policy))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.race_groups == 3
        assert stats.remote["tasks_submitted"] == stats.race_candidates
        # One DELETE per collected task, and no second one per loser.
        assert sorted(deleted) == sorted(set(deleted))
        assert len(deleted) == stats.remote["tasks_submitted"]
        assert stats.race_losers_cancelled == 0
