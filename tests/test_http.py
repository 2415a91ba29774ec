"""The HTTP serving surface: real plans round-tripped over a socket.

Covers ``/plan``, ``/submit`` + ``/result/<id>``, ``/healthz``,
``/metrics`` and the structured error paths of
:class:`~repro.service.http.HttpFrontendThread`, event-loop
responsiveness while a slow plan is in flight, and the payload codec's
fingerprint round trip.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

from repro.callgraph.model import FunctionCallGraph
from repro.core import make_planner
from repro.service import http as http_module
from repro.service import (
    HttpFrontendThread,
    PlanService,
    ServiceConfig,
    graph_fingerprint,
    graph_to_payload,
    parse_graph_payload,
    plan_digest,
)


def _random_call_graph(seed: int, app_name: str = "zc") -> FunctionCallGraph:
    """Random call graph with varied weights, components, and pins."""
    rng = random.Random(seed)
    n = rng.randint(5, 16)
    fcg = FunctionCallGraph(app_name)
    names = [f"f{i}" for i in range(n)]
    for name in names:
        fcg.add_function(
            name,
            computation=round(rng.uniform(1.0, 50.0), 3),
            component=rng.choice(["main", "aux"]),
            offloadable=rng.random() > 0.2,
        )
    for i in range(1, n):
        j = rng.randrange(i)
        fcg.add_data_flow(names[i], names[j], round(rng.uniform(0.5, 20.0), 3))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        if not fcg.graph.has_edge(u, v):
            fcg.add_data_flow(u, v, round(rng.uniform(0.5, 20.0), 3))
    return fcg


class TestHttpFrontend:
    def _get(self, port: int, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=30.0
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def _post(self, port: int, path: str, payload: object) -> tuple[int, dict]:
        return self._post_raw(port, path, json.dumps(payload))

    def _post_raw(self, port: int, path: str, body: str) -> tuple[int, dict]:
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def test_plan_round_trip_matches_direct_service_call(self):
        graph = _random_call_graph(21)
        config = ServiceConfig(workers=2)
        with PlanService(make_planner("spectral"), config) as service:
            direct = service.plan(graph)
            frontend = HttpFrontendThread(service)
            with frontend:
                port = frontend.start()
                status, body = self._post(port, "/plan", graph_to_payload(graph))
        assert status == 200
        assert body["ok"] is True
        assert body["key"] == direct.key
        assert body["plan_digest"] == plan_digest(direct.plan)

    def test_submit_then_poll_result(self):
        graph = _random_call_graph(22)
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=2)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            status, body = self._post(port, "/submit", graph_to_payload(graph))
            assert status == 202
            request_id = body["request_id"]
            deadline = time.monotonic() + 60.0
            while True:
                status, result = self._post_free_get(port, f"/result/{request_id}")
                if status == 200:
                    break
                assert status == 202
                assert time.monotonic() < deadline
                time.sleep(0.02)
        assert result["ok"] is True
        assert result["plan"]["app_name"] == graph.app_name

    def _post_free_get(self, port: int, path: str) -> tuple[int, dict]:
        status, raw = self._get(port, path)
        return status, json.loads(raw.decode("utf-8"))

    def test_health_metrics_and_error_paths(self):
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            status, body = self._get(port, "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            status, body = self._post(port, "/plan", {"functions": "nope"})
            assert status == 400
            assert body["error"]["code"] == "invalid-graph"

            status, body = self._post_free_get(port, "/result/999999")
            assert status == 404

            status, raw = self._get(port, "/metrics")
            assert status == 200
            assert b"worker_pool_size" in raw and b"plan cache" in raw

    def test_invalid_weights_get_structured_400s(self):
        # Graph-building errors are client errors, and non-finite weights
        # (which json.loads accepts as NaN/Infinity) are invalid weights.
        two = (
            '{"name": "f", "computation": 1.0}, {"name": "g", "computation": 1.0}'
        )
        bodies = {
            "negative computation": '{"functions": [{"name": "f", "computation": -1.0}]}',
            "NaN computation": '{"functions": [{"name": "f", "computation": NaN}]}',
            "Infinity computation": (
                '{"functions": [{"name": "f", "computation": Infinity}]}'
            ),
            "negative flow": f'{{"functions": [{two}], "data_flows": [["f", "g", -2.0]]}}',
            "self-loop": f'{{"functions": [{two}], "data_flows": [["f", "f", 2.0]]}}',
            "parallel flows overflowing": (
                f'{{"functions": [{two}], '
                '"data_flows": [["f", "g", 1e308], ["g", "f", 1e308]]}'
            ),
        }
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            for case, body in bodies.items():
                status, reply = self._post_raw(port, "/plan", body)
                assert status == 400, case
                assert reply["error"]["code"] == "invalid-graph", case
            status, body = self._get(port, "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

    def test_loop_stays_responsive_during_slow_plan(self):
        # Regression guard for the async-safety fixes: the blocking
        # submit/result path runs on the executor, so a slow plan must
        # not stall the event loop — concurrent /healthz probes keep
        # answering promptly while the plan is in flight.
        planner = make_planner("spectral")
        inner = planner.plan_user

        def slowed(graph):
            time.sleep(1.0)
            return inner(graph)

        planner.plan_user = slowed
        graph = _random_call_graph(31)
        with (
            PlanService(planner, ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            outcome: dict[str, object] = {}

            def slow_post() -> None:
                outcome["plan"] = self._post(port, "/plan", graph_to_payload(graph))

            poster = threading.Thread(target=slow_post)
            poster.start()
            time.sleep(0.15)  # let the slow plan get in flight
            latencies = []
            while poster.is_alive() and len(latencies) < 5:
                probe_started = time.monotonic()
                status, body = self._get(port, "/healthz")
                latencies.append(time.monotonic() - probe_started)
                assert status == 200 and json.loads(body)["status"] == "ok"
            poster.join(timeout=30.0)
            assert not poster.is_alive()

        status, body = outcome["plan"]
        assert status == 200 and body["ok"] is True
        assert latencies, "healthz probes must overlap the in-flight plan"
        assert max(latencies) < 0.5, f"event loop stalled during plan: {latencies}"

    def test_stalled_body_gets_408_and_leaves_nothing_behind(self, monkeypatch):
        deadline = 0.5
        monkeypatch.setattr(http_module, "_READ_DEADLINE_SECONDS", deadline)
        threads_before = set(threading.enumerate())
        with PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service:
            frontend = HttpFrontendThread(service)
            port = frontend.start()
            loop = frontend._loop
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as stalled:
                    stalled.sendall(
                        b"POST /plan HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"{" * 10
                    )
                    sent = time.monotonic()
                    status, body = self._get(port, "/healthz")
                    healthz_seconds = time.monotonic() - sent
                    assert status == 200 and json.loads(body)["status"] == "ok"
                    reply = b""
                    while chunk := stalled.recv(4096):
                        reply += chunk
                    answered = time.monotonic() - sent
                head, _, payload = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 408 ")
                assert json.loads(payload)["error"]["code"] == "request-timeout"
                assert healthz_seconds < deadline
                assert answered < deadline + 2.0

                async def other_tasks() -> int:
                    return len(asyncio.all_tasks()) - 1

                give_up = time.monotonic() + 5.0
                while asyncio.run_coroutine_threadsafe(other_tasks(), loop).result(5.0):
                    assert time.monotonic() < give_up, "a connection task was left behind"
                    time.sleep(0.01)
            finally:
                frontend.close()
        assert [t for t in threading.enumerate() if t not in threads_before] == []

    def test_unreadable_requests_are_400s(self):
        # A body cut short by EOF, and request or header lines longer than
        # the stream limit, are client errors — never a 500.
        requests = {
            "truncated body": b"POST /plan HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
            "long header": b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            "long request line": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        }
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            for case, request in requests.items():
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as client:
                    client.sendall(request)
                    client.shutdown(socket.SHUT_WR)
                    reply = b""
                    while chunk := client.recv(4096):
                        reply += chunk
                head, _, payload = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), case
                assert json.loads(payload)["error"]["code"] == "bad-request", case

    def test_parse_payload_round_trips_fingerprint(self):
        for seed in range(5):
            graph = _random_call_graph(seed)
            rebuilt = parse_graph_payload(graph_to_payload(graph))
            assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
