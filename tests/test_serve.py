"""The ``pincer serve`` front-end: protocol, admission, lifecycle."""

import json
import random
import socket
import threading

import pytest

from repro.core.pincer import pincer_search
from repro.core.session import MiningSession
from repro.db.transaction_db import TransactionDatabase
from repro.obs.requestlog import RequestLog
from repro.obs.schema import validate_request_log_file
from repro.serve import MiningServer, request


@pytest.fixture
def db():
    rng = random.Random(42)
    items = list(range(1, 21))
    return TransactionDatabase(
        [rng.sample(items, rng.randint(2, 7)) for _ in range(400)]
    )


@pytest.fixture
def server(db, tmp_path):
    with MiningSession(db, engine="bitmap") as session:
        srv = MiningServer(session, str(tmp_path / "pincer.sock")).start()
        try:
            yield srv
        finally:
            srv.close()


class TestProtocol:
    def test_ping(self, server):
        assert request(server.socket_path, {"op": "ping"})["ok"]

    def test_mine_matches_cold_search(self, server, db):
        reply = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        assert reply["ok"]
        cold = pincer_search(db, 0.05)
        assert sorted(tuple(m) for m in reply["mfs"]) == sorted(cold.mfs)
        assert reply["min_support_count"] == cold.min_support_count
        assert len(reply["supports"]) == len(reply["mfs"])

    def test_repeat_mine_is_warm_and_hits_cache(self, server):
        first = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        second = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        assert second["mfs"] == first["mfs"]
        assert second["warm"]
        assert second["cache"]["hits"] > first["cache"]["hits"]

    def test_rules(self, server):
        reply = request(
            server.socket_path,
            {"op": "rules", "min_support": 5.0, "min_confidence": 50},
        )
        assert reply["ok"]
        assert reply["count"] == len(reply["rules"])
        for rule in reply["rules"]:
            assert rule["confidence"] >= 0.5

    def test_stats(self, server):
        request(server.socket_path, {"op": "mine", "min_support": 5.0})
        reply = request(server.socket_path, {"op": "stats"})
        assert reply["ok"]
        assert reply["session"]["queries"] >= 1
        assert reply["served"] >= 1

    def test_malformed_json_gets_error_not_disconnect(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(server.socket_path)
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile().readline())
            assert not reply["ok"]
            assert "malformed" in reply["error"]
            # the connection survives a bad line
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(sock.makefile().readline())["ok"]

    def test_bad_requests_are_errors(self, server):
        assert not request(server.socket_path, {"op": "explode"})["ok"]
        assert not request(
            server.socket_path, {"op": "mine", "min_support": 0}
        )["ok"]
        assert not request(
            server.socket_path, {"op": "mine", "min_support": 250.0}
        )["ok"]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(server.socket_path)
            sock.sendall(b'["a", "list"]\n')
            reply = json.loads(sock.makefile().readline())
            assert not reply["ok"]


class TestConcurrency:
    def test_concurrent_queries_all_exact(self, server, db):
        supports = [8.0, 5.0, 3.0]
        cold = {s: sorted(pincer_search(db, s / 100.0).mfs) for s in supports}
        replies = [None] * 9
        errors = []

        def fire(slot, support):
            try:
                replies[slot] = request(
                    server.socket_path,
                    {"op": "mine", "min_support": support},
                    timeout=120.0,
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=fire, args=(i, supports[i % 3]))
            for i in range(9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        assert not errors
        for i, reply in enumerate(replies):
            assert reply is not None and reply["ok"]
            got = sorted(tuple(m) for m in reply["mfs"])
            assert got == cold[supports[i % 3]]
        # repeated thresholds must have hit the cache
        stats = request(server.socket_path, {"op": "stats"})
        assert stats["session"]["cache"]["hits"] > 0


class TestAdmission:
    def test_busy_rejection_when_budget_exceeded(self, db, tmp_path):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(
                session, str(tmp_path / "tiny.sock"), cost_budget=1
            ).start()
            try:
                # hold the first query in flight so the second provably
                # arrives while the budget is spoken for
                entered = threading.Event()
                release = threading.Event()
                original_mine = session.mine

                def held_mine(*args, **kwargs):
                    entered.set()
                    assert release.wait(timeout=60.0)
                    return original_mine(*args, **kwargs)

                session.mine = held_mine
                first = {}

                def fire():
                    first.update(
                        request(
                            server.socket_path,
                            {"op": "mine", "min_support": 5.0},
                            timeout=120.0,
                        )
                    )

                thread = threading.Thread(target=fire)
                thread.start()
                assert entered.wait(timeout=60.0)
                rejected = request(
                    server.socket_path,
                    {"op": "mine", "min_support": 5.0},
                    timeout=60.0,
                )
                release.set()
                thread.join(timeout=120.0)
                assert first["ok"]  # admitted under the idle rule
                assert not rejected["ok"]
                assert rejected["error"] == "busy"
                assert rejected["retry"]
                assert server.queries_rejected == 1
            finally:
                server.close()

    def test_idle_server_always_admits_expensive_query(self, db, tmp_path):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(
                session, str(tmp_path / "idle.sock"), cost_budget=1
            ).start()
            try:
                reply = request(
                    server.socket_path, {"op": "mine", "min_support": 5.0}
                )
                assert reply["ok"]  # cost >> budget, but nothing in flight
            finally:
                server.close()


class TestLifecycle:
    def test_shutdown_removes_socket_file(self, db, tmp_path):
        socket_path = str(tmp_path / "shut.sock")
        import os

        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, socket_path).start()
            assert os.path.exists(socket_path)
            reply = request(socket_path, {"op": "shutdown"})
            assert reply["ok"]
            server._thread.join(timeout=10.0) if server._thread else None
            # close() runs on a helper thread; wait for the file to go
            for _ in range(100):
                if not os.path.exists(socket_path):
                    break
                threading.Event().wait(0.05)
            assert not os.path.exists(socket_path)
            # session is borrowed, not owned: still usable after shutdown
            assert session.mine(0.05).mfs is not None

    def test_close_is_idempotent(self, db, tmp_path):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, str(tmp_path / "twice.sock"))
            server.start()
            server.close()
            server.close()

    def test_stale_socket_file_is_replaced(self, db, tmp_path):
        socket_path = tmp_path / "stale.sock"
        socket_path.write_text("stale")
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, str(socket_path)).start()
            try:
                assert request(str(socket_path), {"op": "ping"})["ok"]
            finally:
                server.close()


class TestQueryPlane:
    def test_replies_carry_request_id_seconds_and_eta(self, server):
        replies = [
            request(server.socket_path, {"op": "mine", "min_support": 5.0}),
            request(server.socket_path, {"op": "mine", "min_support": 5.0}),
            request(
                server.socket_path,
                {"op": "rules", "min_support": 5.0, "min_confidence": 50},
            ),
        ]
        ids = [reply["request_id"] for reply in replies]
        assert len(set(ids)) == 3
        for reply in replies:
            assert reply["ok"]
            assert reply["request_id"].startswith("req-")
            assert reply["seconds"] >= 0
            assert "eta_seconds" in reply
        # the first query counted candidates, so the rate is calibrated
        # and later replies quote a concrete ETA
        assert replies[-1]["eta_seconds"] is not None

    def test_error_replies_carry_request_id(self, server):
        reply = request(
            server.socket_path, {"op": "mine", "min_support": 0}
        )
        assert not reply["ok"]
        assert reply["request_id"].startswith("req-")

    def test_stats_vitals(self, server):
        import os

        request(server.socket_path, {"op": "mine", "min_support": 5.0})
        reply = request(server.socket_path, {"op": "stats"})
        vitals = reply["vitals"]
        assert vitals["pid"] == os.getpid()
        assert vitals["uptime_seconds"] >= 0
        assert vitals["engine"] == "bitmap"
        assert vitals["inflight_queries"] == 0
        assert vitals["cost_budget"] == server.cost_budget
        assert vitals["counting_rate"] is not None
        slo = reply["slo"]
        assert slo["queries"] >= 1
        assert slo["latency"]["p50"] > 0

    def test_metrics_op_is_prometheus_exposition(self, server):
        request(server.socket_path, {"op": "mine", "min_support": 5.0})
        reply = request(server.socket_path, {"op": "metrics"})
        assert reply["ok"]
        assert reply["content_type"].startswith("text/plain")
        exposition = reply["exposition"]
        assert "pincer_serve_queries" in exposition
        assert "pincer_serve_window_latency" in exposition
        for line in exposition.splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # every sample value parses as a number

    def test_rules_busy_rejection_is_counted_and_quotes_eta(
        self, db, tmp_path
    ):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(
                session, str(tmp_path / "rules.sock"), cost_budget=1
            ).start()
            try:
                # calibrate the rate estimator, then hold a mine in
                # flight so the rules query provably arrives busy
                request(
                    server.socket_path,
                    {"op": "mine", "min_support": 5.0},
                    timeout=120.0,
                )
                entered = threading.Event()
                release = threading.Event()
                original_mine = session.mine

                def held_mine(*args, **kwargs):
                    entered.set()
                    assert release.wait(timeout=60.0)
                    return original_mine(*args, **kwargs)

                session.mine = held_mine
                thread = threading.Thread(
                    target=request,
                    args=(
                        server.socket_path,
                        {"op": "mine", "min_support": 3.0},
                    ),
                    kwargs={"timeout": 120.0},
                )
                thread.start()
                assert entered.wait(timeout=60.0)
                etas = []
                for _ in range(3):
                    rejected = request(
                        server.socket_path,
                        {
                            "op": "rules",
                            "min_support": 3.0,
                            "min_confidence": 50,
                        },
                        timeout=60.0,
                    )
                    assert not rejected["ok"]
                    assert rejected["error"] == "busy"
                    assert rejected["retry"]
                    etas.append(rejected["eta_seconds"])
                release.set()
                thread.join(timeout=120.0)
                # the fix this PR makes: rules rejections move the same
                # counter the mine path moves
                assert server.queries_rejected == 3
                # the rate was calibrated before the holdup, so every
                # busy reply quotes a concrete, non-increasing ETA
                assert all(eta is not None for eta in etas)
                assert all(a >= b for a, b in zip(etas, etas[1:]))
            finally:
                server.close()

    def test_rules_success_feeds_latency_instruments(self, server):
        request(
            server.socket_path,
            {"op": "rules", "min_support": 5.0, "min_confidence": 50},
        )
        # the fix this PR makes: rules queries land in serve.seconds
        assert server.metrics.histogram("serve.seconds").count >= 1
        assert server.metrics.counter("serve.queries").value >= 1

    def test_concurrent_queries_log_exactly_one_record_each(
        self, db, tmp_path
    ):
        access = str(tmp_path / "access.jsonl")
        with MiningSession(db, engine="bitmap") as session, \
                RequestLog(access) as log:
            server = MiningServer(
                session, str(tmp_path / "logged.sock"),
                cost_budget=10**9, request_log=log,
            ).start()
            try:
                replies = [None] * 8
                errors = []

                def fire(slot, support):
                    try:
                        replies[slot] = request(
                            server.socket_path,
                            {"op": "mine", "min_support": support},
                            timeout=120.0,
                        )
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(
                        target=fire, args=(i, [8.0, 5.0][i % 2])
                    )
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180.0)
                assert not errors
            finally:
                server.close()
        # one well-formed v4 record per query, ids matching the replies
        assert validate_request_log_file(access) == 8
        with open(access) as handle:
            records = [json.loads(line) for line in handle]
        assert sorted(r["id"] for r in records) == sorted(
            reply["request_id"] for reply in replies
        )
        for record in records:
            assert record["ok"] and record["admitted"]
            assert record["op"] == "mine"
            assert record["seconds"] >= 0

    def test_per_query_cache_fields_sum_to_session_totals(
        self, db, tmp_path
    ):
        # two clients overlap their queries; each record must carry its
        # own query's lookups, and pricing must bill none
        access = str(tmp_path / "access.jsonl")
        plan = [
            {"op": "mine", "min_support": support}
            for support in (9.0, 7.0, 5.0, 3.0, 7.0, 9.0)
        ] + [
            {"op": "rules", "min_support": support, "min_confidence": 50}
            for support in (7.0, 5.0)
        ]
        with MiningSession(db, engine="bitmap") as session, \
                RequestLog(access) as log:
            server = MiningServer(
                session, str(tmp_path / "billed.sock"),
                cost_budget=10**9, request_log=log,
            ).start()
            try:
                errors = []

                def client():
                    try:
                        for message in plan:
                            reply = request(
                                server.socket_path, message, timeout=120.0
                            )
                            assert reply["ok"], reply
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=client) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
            finally:
                server.close()
            hits, misses = session.cache.hits, session.cache.misses
        assert validate_request_log_file(access) == 2 * len(plan)
        with open(access) as handle:
            records = [json.loads(line) for line in handle]
        assert sum(record["cache_hits"] for record in records) == hits
        assert sum(record["cache_misses"] for record in records) == misses

    def test_rules_record_validates_without_a_pass_count(
        self, db, tmp_path
    ):
        # rules runners report no pass count; the record must omit the
        # key (schema v4 rejects "passes": null) and still validate
        access = str(tmp_path / "access.jsonl")
        with MiningSession(db, engine="bitmap") as session, \
                RequestLog(access) as log:
            server = MiningServer(
                session, str(tmp_path / "ruleslog.sock"), request_log=log
            ).start()
            try:
                reply = request(
                    server.socket_path,
                    {"op": "rules", "min_support": 5.0,
                     "min_confidence": 50.0},
                )
            finally:
                server.close()
        assert reply["ok"]
        assert validate_request_log_file(access) == 1
        with open(access) as handle:
            record = json.loads(handle.readline())
        assert record["op"] == "rules" and record["ok"]
        assert "passes" not in record

    def test_rejections_and_errors_are_logged_too(self, db, tmp_path):
        access = str(tmp_path / "access.jsonl")
        with MiningSession(db, engine="bitmap") as session, \
                RequestLog(access) as log:
            server = MiningServer(
                session, str(tmp_path / "badlog.sock"), request_log=log
            ).start()
            try:
                bad = request(
                    server.socket_path, {"op": "mine", "min_support": 0}
                )
            finally:
                server.close()
        assert validate_request_log_file(access) == 1
        with open(access) as handle:
            record = json.loads(handle.readline())
        assert record["id"] == bad["request_id"]
        assert not record["ok"] and not record["admitted"]
        assert "min_support" in record["error"]

    def test_request_id_propagates_into_the_trace(self, db, tmp_path):
        from repro.obs import capture, load_trace_events

        trace_path = str(tmp_path / "serve-trace.jsonl")
        obs = capture(trace_path=trace_path, producer="test-serve")
        with MiningSession(db, engine="bitmap", obs=obs) as session:
            server = MiningServer(
                session, str(tmp_path / "traced.sock")
            ).start()
            try:
                first = request(
                    server.socket_path, {"op": "mine", "min_support": 5.0}
                )
                second = request(
                    server.socket_path, {"op": "mine", "min_support": 8.0}
                )
            finally:
                server.close()
        obs.finish()
        events = load_trace_events(trace_path)
        spans = [e for e in events if e.get("type") == "span"]
        assert spans
        by_request = {}
        for span in spans:
            request_id = span.get("attrs", {}).get("request_id")
            assert request_id is not None, span["name"]
            by_request.setdefault(request_id, []).append(span["name"])
        assert set(by_request) == {
            first["request_id"], second["request_id"]
        }
        # the whole run > pass > count subtree carries the id
        assert "run" in by_request[first["request_id"]]
        assert "count" in by_request[first["request_id"]]

    def test_slow_query_ring_snapshots_outliers(self, db, tmp_path):
        access = str(tmp_path / "access.jsonl")
        log = RequestLog(
            access, slow_dir=str(tmp_path / "slow"), slow_min_seconds=0.0
        )
        with MiningSession(db, engine="bitmap") as session, log:
            server = MiningServer(
                session, str(tmp_path / "slow.sock"), request_log=log
            ).start()
            try:
                reply = request(
                    server.socket_path, {"op": "mine", "min_support": 5.0}
                )
            finally:
                server.close()
        # with a zero floor the first query is an outlier by definition
        assert log.slow_recorded == 1
        entries = log.ring.entries()
        assert entries[0]["record"]["id"] == reply["request_id"]

    def test_serve_frame_renders_query_plane(self, server):
        from repro.obs.top import format_serve_frame

        request(server.socket_path, {"op": "mine", "min_support": 5.0})
        stats = request(server.socket_path, {"op": "stats"})
        frame = format_serve_frame(server.socket_path, stats)
        assert server.socket_path in frame
        assert "qps" in frame
        assert "p99" in frame
        unreachable = format_serve_frame(
            "/tmp/nowhere.sock", {"ok": False, "error": "nope"}
        )
        assert "no stats" in unreachable
