"""The warm attempt-worker pool: reuse, retirement, shutdown, detach.

Specs are the tiny ones of the resilience suites; pids tell which
worker ran an attempt.
"""

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.sweep.workers import PoolClosed, WorkerPool
from tests.serve.test_daemon import ServerThread, make_config, tiny_docs
from tests.serve.test_executor import tiny_payload

SRC = Path(__file__).resolve().parents[2] / "src"


def gone(pid):
    """True once ``pid`` has exited (an unreaped zombie counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture
def pool():
    pool = WorkerPool(1)
    yield pool
    pool.kill_all()


def failing_payload(kind):
    """A payload whose attempt ends as ``kind``, plus its timeout."""
    if kind == "exception":
        _spec, payload = tiny_payload()
        payload["protocol"] = "no-such-protocol"
        return payload, 60.0
    if kind == "crash":
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", rate=1.0),))
        return tiny_payload(plan=plan)[1], 60.0
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="hang", rate=1.0),), hang_s=30.0
    )
    return tiny_payload(plan=plan)[1], 0.5


def test_ok_attempts_reuse_one_worker(pool):
    _spec, payload = tiny_payload()
    first = pool.start(payload, 60.0)
    assert first.wait()[0] == "ok"
    second = pool.start(payload, 60.0)
    assert second.wait()[0] == "ok"
    assert first.pid == second.pid
    assert first.outcome[1] == second.outcome[1]  # same stats document
    assert pool.counters() == {
        "spawned": 1,
        "reused": 1,
        "retired": {"exception": 0, "crash": 0, "timeout": 0},
    }


@pytest.mark.parametrize("kind", ["exception", "crash", "timeout"])
def test_failed_attempt_retires_its_worker(pool, kind):
    _spec, ok_payload = tiny_payload()
    warm = pool.start(ok_payload, 60.0)
    assert warm.wait()[0] == "ok"
    payload, timeout_s = failing_payload(kind)
    failed = pool.start(payload, timeout_s)
    assert failed.wait()[0] == kind
    assert failed.pid == warm.pid  # the failure ran on the warm worker
    assert gone(failed.pid)
    fresh = pool.start(ok_payload, 60.0)
    assert fresh.wait()[0] == "ok"
    assert fresh.pid != failed.pid
    counters = pool.counters()
    assert counters["retired"][kind] == 1
    assert counters["spawned"] == 2 and counters["reused"] == 1


def test_dead_idle_worker_is_replaced(pool):
    _spec, payload = tiny_payload()
    first = pool.start(payload, 60.0)
    assert first.wait()[0] == "ok"
    os.kill(first.pid, signal.SIGKILL)  # dies while idle
    deadline = time.monotonic() + 5.0
    while not gone(first.pid):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    second = pool.start(payload, 60.0)
    assert second.wait()[0] == "ok"
    assert second.pid != first.pid
    assert pool.counters()["spawned"] == 2


def test_concurrent_attempts_keep_the_counts():
    """Six threads share a pool of three; no update to it is lost."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = WorkerPool(3)
    _spec, ok_payload = tiny_payload()
    bad, _timeout = failing_payload("exception")
    kinds = []
    lock = threading.Lock()

    def client(k):
        for j in range(4):
            payload = bad if (k + j) % 3 == 0 else ok_payload
            kind = pool.run(payload, 60.0)[0]
            with lock:
                kinds.append(kind)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        pool.kill_all()
    assert len(kinds) == 24
    assert kinds.count("exception") == 8 and kinds.count("ok") == 16
    counters = pool.counters()
    assert counters["spawned"] + counters["reused"] == 24
    assert counters["retired"]["exception"] == 8
    assert counters["spawned"] <= 3 + 8
    assert len(pool) == 0


def test_kill_all_kills_idle_and_busy_workers():
    pool = WorkerPool(2)
    _spec, ok_payload = tiny_payload()
    hang, _timeout = failing_payload("timeout")
    busy = pool.start(hang, None)
    idle = pool.start(ok_payload, 60.0)
    assert idle.wait()[0] == "ok"
    assert busy.pid != idle.pid
    assert len(pool) == 1
    assert pool.kill_all() == 1  # one attempt was in flight
    assert gone(idle.pid) and gone(busy.pid)
    assert busy.wait()[0] == "crash"
    kind, message, _elapsed = pool.run(ok_payload, 60.0)
    assert kind == "crash" and "shutting down" in message
    with pytest.raises(PoolClosed):
        pool.start(ok_payload, 60.0)


HOLDER = textwrap.dedent(
    """
    import sys, time
    from repro.sweep.spec import RunSpec, config_to_dict
    from repro.sim.config import small_test_chip
    from repro.sweep.workers import WorkerPool

    payload = RunSpec(protocol="dico", workload="radix", seed=1,
                      cycles=1_500, warmup=500,
                      config=config_to_dict(small_test_chip())).to_dict()
    pool = WorkerPool(2)
    attempts = [pool.start(payload, 60.0) for _ in range(2)]
    assert all(a.wait()[0] == "ok" for a in attempts)
    print(" ".join(str(a.pid) for a in attempts), flush=True)
    time.sleep(120)
    """
)


def test_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDER], env=env, stdout=subprocess.PIPE,
        text=True,
    )
    try:
        pids = [int(p) for p in holder.stdout.readline().split()]
        assert len(set(pids)) == 2
        assert not any(gone(pid) for pid in pids)
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()
    deadline = time.monotonic() + 5.0
    while not all(gone(pid) for pid in pids):
        assert time.monotonic() < deadline, "orphaned warm workers"
        time.sleep(0.05)


def test_stream_reaches_eof_with_an_idle_warm_worker(tmp_path):
    st = ServerThread(make_config(tmp_path, workers=1))
    client = st.start()
    try:
        # a connection the daemon holds open while the worker forks
        held = socket.create_connection(("127.0.0.1", st.server.port))
        held.settimeout(15.0)
        job = client.submit(tiny_docs(1), tenant="alice")["job_id"]
        # a stream that never reaches EOF times out instead of hanging
        events = client.wait_job(job, timeout_s=15.0)
        assert [e["status"] for e in events] == ["ok"]
        assert client.stats()["workers"]["spawned"] == 1  # idle and warm
        held.sendall(
            f"GET /jobs/{job}/results HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        body = b""
        while True:
            chunk = held.recv(65536)  # a timeout here is the hang
            if not chunk:
                break
            body += chunk
        held.close()
        assert b'"status": "ok"' in body
    finally:
        st.stop(client)
