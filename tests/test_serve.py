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

    def test_repeat_mine_is_the_stored_answer(self, server):
        first = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        second = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        assert second["mfs"] == first["mfs"]
        assert second["supports"] == first["supports"]
        assert second["warm"]
        # read nothing and looked nothing up
        assert first["passes"] > 0 and second["passes"] == 0
        lookups = lambda cache: cache["hits"] + cache["misses"]
        assert lookups(second["cache"]) == lookups(first["cache"])

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


RULES = {"op": "rules", "min_support": 5.0, "min_confidence": 20}


class TestStoredReplies:
    """Repeats are answered from what the session and the server hold:
    the session's stored mine answer, the server's encoded rules."""

    def test_cold_mine_over_the_wire_mines_again(self, server):
        first = request(
            server.socket_path, {"op": "mine", "min_support": 5.0}
        )
        cold = request(
            server.socket_path,
            {"op": "mine", "min_support": 5.0, "warm": False},
        )
        assert cold["passes"] > 0
        assert cold["mfs"] == first["mfs"]
        assert cold["supports"] == first["supports"]

    def test_repeated_rules_reply_is_identical(self, server):
        first = request(server.socket_path, RULES)
        second = request(server.socket_path, RULES)
        assert first["count"] > 0
        assert second["count"] == first["count"]
        assert second["rules"] == first["rules"]
        assert second["request_id"] != first["request_id"]
        # the envelope is built per reply, keys in a fresh reply's order
        assert list(second) == list(first)
        assert len(server._rules_store) == 1

    def test_rules_equal_whatever_ran_before(self, tmp_path):
        # long maximal itemsets, so the depth horizon leaves rules out
        from repro.datagen.quest import QuestConfig, generate
        from repro.rules.from_mfs import rules_from_mfs

        db = generate(
            QuestConfig(400, 10, 4, num_patterns=20, num_items=60), seed=3
        )
        one_shot = rules_from_mfs(
            db, pincer_search(db, 0.08), min_confidence=0.6, depth=2
        )
        expected = sorted(
            [list(r.antecedent), list(r.consequent), r.confidence, r.support]
            for r in one_shot
        )
        rules = {"op": "rules", "min_support": 8.0, "min_confidence": 60}
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, str(tmp_path / "h.sock")).start()
            try:
                request(server.socket_path, {"op": "mine", "min_support": 5.0})
                replies = [request(server.socket_path, rules) for _ in "ab"]
            finally:
                server.close()
        for reply in replies:
            got = sorted(
                [r["antecedent"], r["consequent"], r["confidence"],
                 r["support"]]
                for r in reply["rules"]
            )
            assert expected and got == expected

    def test_spliced_line_equals_whole_encoding(self):
        from repro.serve import _Spliced, _encode_reply

        payload = {"count": 2, "rules": [{"a": [1]}, {"a": [2, 3]}]}
        envelope = {"ok": True, "op": "rules", "eta_seconds": None}
        reply = _Spliced(envelope)
        reply.fragment = json.dumps(payload)[1:-1].encode()
        whole = dict(envelope, **payload)
        assert _encode_reply(reply) == (json.dumps(whole) + "\n").encode()
        assert _encode_reply(whole) == _encode_reply(reply)

    def test_store_drops_the_oldest_past_its_budget(
        self, server, monkeypatch
    ):
        import repro.serve as serve

        sizes = []
        for confidence in (20, 25, 30):
            request(
                server.socket_path,
                dict(RULES, min_confidence=confidence),
            )
            sizes.append(
                len(next(reversed(server._rules_store.values()))[1])
            )
        assert len(server._rules_store) == 3
        server._rules_store.clear()
        server._rules_store_bytes = 0
        # room for the two newest payloads, not for all three
        monkeypatch.setattr(serve, "RULES_STORE_BYTES", sizes[1] + sizes[2])
        for confidence in (20, 25, 30):
            request(
                server.socket_path,
                dict(RULES, min_confidence=confidence),
            )
        kept = [key[1] for key in server._rules_store]
        assert kept == [0.25, 0.3]
        assert server._rules_store_bytes == sizes[1] + sizes[2]
        # a payload larger than the whole budget is never kept
        monkeypatch.setattr(serve, "RULES_STORE_BYTES", 10)
        request(server.socket_path, dict(RULES, min_confidence=40))
        assert [key[1] for key in server._rules_store] == [0.25, 0.3]

    def test_error_is_not_stored(self, server):
        bad = request(server.socket_path, dict(RULES, depth=-1))
        assert not bad["ok"]
        assert not server._rules_store
        floating = request(server.socket_path, dict(RULES, depth=2.0))
        good = request(server.socket_path, dict(RULES, depth=2))
        assert good["ok"] and len(server._rules_store) == 1
        # a float depth (which fails on members longer than it) is
        # answered by the session each time, never from the store
        again = request(server.socket_path, dict(RULES, depth=2.0))
        assert again["ok"] == floating["ok"]
        assert len(server._rules_store) == 1

    def test_failing_rules_query_is_not_stored(self, db, tmp_path):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, str(tmp_path / "e.sock")).start()
            try:
                original = session.rules

                def broken(*args, **kwargs):
                    raise RuntimeError("disk on fire")

                session.rules = broken
                failed = request(server.socket_path, RULES)
                session.rules = original
                assert not failed["ok"] and "disk on fire" in failed["error"]
                assert not server._rules_store
                assert request(server.socket_path, RULES)["ok"]
            finally:
                server.close()

    def test_stored_rules_fail_after_the_session_closes(self, db, tmp_path):
        with MiningSession(db, engine="bitmap") as session:
            server = MiningServer(session, str(tmp_path / "c.sock")).start()
            try:
                assert request(server.socket_path, RULES)["ok"]
                session.close()
                mine = request(
                    server.socket_path, {"op": "mine", "min_support": 5.0}
                )
                rules = request(server.socket_path, RULES)
            finally:
                server.close()
        for reply in (mine, rules):
            assert not reply["ok"]
            assert "SessionClosedError" in reply["error"]

    def test_eight_threads_repeating_one_query_agree(self, server):
        answers = {"mine": [None] * 8, "rules": [None] * 8}
        messages = {
            "mine": {"op": "mine", "min_support": 5.0},
            "rules": RULES,
        }
        errors = []

        def fire(op, slot):
            try:
                answers[op][slot] = request(
                    server.socket_path, messages[op], timeout=120.0
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        for op in ("mine", "rules"):
            threads = [
                threading.Thread(target=fire, args=(op, slot))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
        assert not errors
        for op, fields in (("mine", ("mfs", "supports")),
                           ("rules", ("count", "rules"))):
            replies = answers[op]
            assert all(reply and reply["ok"] for reply in replies)
            for field in fields:
                assert all(r[field] == replies[0][field] for r in replies)

    def test_stored_replies_are_logged_traced_and_counted(
        self, db, tmp_path
    ):
        from repro.obs import capture, load_trace_events

        access = str(tmp_path / "access.jsonl")
        trace = str(tmp_path / "trace.jsonl")
        obs = capture(trace_path=trace, producer="test-serve")
        with MiningSession(db, engine="bitmap", obs=obs) as session, \
                RequestLog(access) as log:
            server = MiningServer(
                session, str(tmp_path / "s.sock"), request_log=log
            ).start()
            try:
                replies = [
                    request(server.socket_path, message)
                    for message in (
                        {"op": "mine", "min_support": 5.0},
                        {"op": "mine", "min_support": 5.0},
                        RULES,
                        RULES,
                    )
                ]
                stats = request(server.socket_path, {"op": "stats"})
            finally:
                server.close()
        obs.finish()
        assert all(reply["ok"] for reply in replies)
        assert stats["served"] == 4 and stats["slo"]["queries"] == 4
        assert stats["session"]["queries"] == 4
        assert validate_request_log_file(access) == 4
        with open(access) as handle:
            records = [json.loads(line) for line in handle]
        mine_hit, rules_hit = records[1], records[3]
        assert mine_hit["passes"] == 0
        assert "passes" not in rules_hit
        for record in (mine_hit, rules_hit):
            assert record["warm"] and record["ok"] and record["admitted"]
            assert record["cache_hits"] == record["cache_misses"] == 0
        assert rules_hit["result_size"] == replies[2]["count"]
        spans = {}
        for event in load_trace_events(trace):
            if event.get("type") == "span":
                request_id = event["attrs"]["request_id"]
                spans.setdefault(request_id, set()).add(event["name"])
        for reply in replies[1], replies[3]:
            assert spans[reply["request_id"]] == {"stored"}
        assert set(spans) == {reply["request_id"] for reply in replies}
