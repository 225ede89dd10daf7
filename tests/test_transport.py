"""Socket transport: contract parity with an in-process cluster handle,
control protocol error handling, and campaign reproducibility across the
wire."""
from __future__ import annotations

import contextlib
import hashlib
import json
import random
import socket
import struct
import threading
import time

import pytest

from statefuzz.alphabet import (
    KNOWN, NO_RESPONSE, PREQ, RVREQ, TERM_HIGHER, NodeRef,
    Symbol, encode, enumerate_input_alphabet, frame_encode, input_domains,
    read_frame, word_to_obj,
)
from statefuzz.detector import Baseline, Detector
from statefuzz.fuzzer import (
    MUT_DUPLICATE, MUT_REMOVE, MUT_REPLACE, MUT_SWAP_ARG, CampaignInterrupted,
    run_campaign,
)
from statefuzz.mealy import MealyMachine, PrunePolicy
from statefuzz import proxy as proxy_module
from statefuzz.proxy import (
    ClusterProxy, ClusterServer, SessionContext, TcpTransport, TransportError,
)
from statefuzz.sulsim import (
    ALL_VULNERABILITIES, ERROR_TYPE, ClusterConfig, ClusterHandle,
    SimulationError, default_alphabet, spawn_cluster,
)

from helpers import message
from test_acceptance import REFERENCE_MACHINE
from test_learner import LADDER_ALPHABET, expected_ladder_machine

MEMBERS = ("n1", "n2", "n3", "n4")
DOMAINS = input_domains(default_alphabet(ClusterConfig(members=MEMBERS)))


def cluster_config(vulns=(), **kw):
    return ClusterConfig(members=MEMBERS, vulnerabilities=frozenset(vulns), **kw)


@contextlib.contextmanager
def tcp_transport(vulns=(), **kw):
    cfg = cluster_config(vulns, **kw)
    with ClusterServer(spawn_cluster(cfg)) as srv:
        with TcpTransport(srv.address) as transport:
            yield transport, cfg


@contextlib.contextmanager
def tcp_proxy(vulns=(), **kw):
    with tcp_transport(vulns, **kw) as (transport, cfg):
        yield ClusterProxy(transport, default_alphabet(cfg))


def inproc_proxy(vulns=(), **kw):
    cfg = cluster_config(vulns, **kw)
    return ClusterProxy(spawn_cluster(cfg), default_alphabet(cfg))


@contextlib.contextmanager
def scripted_server(*replies):
    """A peer that answers each request with the next ``(type, payload)``
    control frame of ``replies``; yields a transport connected to it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                for msg_type, payload in replies:
                    if read_frame(rfile.read) is None:
                        return
                    conn.sendall(frame_encode(message(
                        "__transport__", "__control__", 0, msg_type, payload)))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        with TcpTransport(listener.getsockname(), timeout=5.0) as transport:
            yield transport
        server.join(timeout=5.0)
        assert not server.is_alive()


OBSERVATION = spawn_cluster(cluster_config()).observe().to_dict()
# One wrong-typed, misshapen or unknown field at a time; the rest of
# OBSERVATION is valid.
BAD_FIELDS = [
    ("leader", 1), ("term", "1"), ("term", True), ("term", 1.0),
    ("membership", {"n1": 1}), ("apps", [1]), ("links", [["a1", "a2", "b1"]]),
    ("links", [["a1", 2]]), ("reachability", {"n1": {"n2": "yes"}}),
    ("reachability", {"n1": []}), ("sessions_open", "3"),
    ("resource_load", {"n1": "2"}), ("origin", None), ("uptime", 1),
]


SCRIPTED_RESET = ("__done__", {"window_ticks": 5, "term": 1, "observation": OBSERVATION})
SCRIPTED_RUN = [message("sdwan", "dummy", ts, "RaftConfigureRequest", {})
                for ts in (1, 2, 3)]
RESPONSE_FRAME = message("sdwan", "n1", 1, "RaftConfigureResponse", {})
PROBE_N2_FRAME = message("sdwan", "n1", 2, "ProbeRequest", {"target": "n2"})
HEARTBEAT_FRAME = message("sdwan", "n1", 3, "RaftAppendRequest", {"term": 1, "entries": []})


def record_requests(transport) -> list:
    """The sorted payload keys of each request ``transport`` sends from now on."""
    requests = []
    send = transport._send

    def recording(payload):
        requests.append(tuple(sorted(payload)))
        send(payload)

    transport._send = recording
    return requests


def record_reply_bytes(monkeypatch) -> list:
    """The length of each ``__done__`` frame the server encodes from now on."""
    sizes = []
    frame_encode = proxy_module.frame_encode

    def recording(msg):
        data = frame_encode(msg)
        if msg["type"] == "__done__":
            sizes.append(len(data))
        return data

    monkeypatch.setattr(proxy_module, "frame_encode", recording)
    return sizes


def reference_campaign(proxy, seed, cases):
    """The campaign ``statefuzz fuzz`` runs on the reference model: its
    ``report.json`` text, each case's output words, and every observation
    the detector gets, the baseline's first, as the detector gets them."""
    outputs, observations = [], []
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    observations.append(detector.baseline.observation)
    evaluate = detector.evaluate

    def recording(observation, received=()):
        outputs.append(received)
        observations.append(observation)
        return evaluate(observation, received=received)

    detector.evaluate = recording
    model = MealyMachine.from_json(REFERENCE_MACHINE.read_text(encoding="utf-8"))
    report = run_campaign(proxy, model.prune(PrunePolicy()), detector, rng_seed=seed,
                          max_cases=cases, domains=input_domains(proxy.cfg))
    return report.to_json(), outputs, observations


def random_words(rng, count, max_len=5):
    return [
        tuple(rng.choice(LADDER_ALPHABET) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


class TestContract:
    def test_reset_reports_window_length(self):
        with tcp_transport() as (transport, cfg):
            assert transport.window_ticks is None
            transport.reset()
            assert transport.window_ticks == cfg.heartbeat_threshold

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_reset_returns_the_same_term_as_in_process(self, seed):
        cfg = cluster_config(["seize_leader"], seed=seed)
        local = spawn_cluster(cfg)
        term = local.reset()
        assert term == local.observe().term
        with tcp_transport(["seize_leader"], seed=seed) as (transport, _):
            assert transport.reset() == term
            # A seized leadership raises the term; the next reset restores it.
            ClusterProxy(transport, default_alphabet(cfg)).query(
                [Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_HIGHER))])
            assert transport.observe().term > term
            assert transport.reset() == term
        assert local.reset() == term

    def test_proxy_session_sends_no_observe_frame(self):
        # Learning only queries, so after the first reset every request
        # carries a run; the observation rides on each reply unasked.
        with logged_tcp_proxy(()) as (proxy, _, payloads):
            proxy.query(LADDER_ALPHABET[:2])
            assert [sorted(payload) for payload in payloads] == [["reset"], ["frames"]]
            for word in random_words(random.Random(3), 20):
                proxy.query(word)
        assert len(payloads) >= 22
        assert all("frames" in payload for payload in payloads[1:])
        assert not any("observe" in payload for payload in payloads)

    def test_refused_connection_raises_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()
        with pytest.raises(TransportError) as info:
            TcpTransport(address, timeout=1.0)
        assert isinstance(info.value.__cause__, ConnectionRefusedError)

    def test_exchange_before_reset_is_rejected(self):
        with tcp_transport() as (transport, _):
            msg = message("sdwan", "dummy", 1, "RaftConfigureRequest", {})
            with pytest.raises(TransportError):
                transport.run([msg])

    def test_rejected_input_surfaces_as_error_message(self):
        with tcp_transport() as (transport, _):
            transport.reset()
            bad = message("wrong-cluster", "dummy", 1, "RaftConfigureRequest", {})
            delivered, windows = transport.run([bad])
            assert delivered == 1
            assert [(index, [m["type"] for _, m in window])
                    for index, window in windows] == [(0, [ERROR_TYPE])]

    def test_frames_with_a_sixth_key_are_served(self):
        # The server keeps the five frame keys of a request and of each
        # message it carries, and drops any other.
        with tcp_transport() as (transport, cfg):
            ctx = SessionContext(cfg.cluster_id, "dummy", transport.reset())
            probe = {**encode(Symbol(PREQ, (NodeRef("n1", KNOWN),)), ctx), "extra": 1}
            request = {**proxy_module._control("__request__", {"frames": [probe]}), "extra": 1}
            transport._sock.sendall(frame_encode(request))
            done = transport._read()
            assert done["delivered"] == 1
            assert [frame["type"] for _, _, frame in done["events"]] == ["ProbeResponse"]

    @pytest.mark.parametrize("kind", [
        "__bogus__", "__reset__", "__deliver__", "__inject__", "__observe__",
        "__done__", "ProbeRequest"])
    def test_unknown_control_type_reports_error_and_connection_survives(self, kind):
        # ``__request__`` is the one request type; the four former verbs are
        # unknown too.
        with tcp_transport() as (transport, cfg):
            request = proxy_module._control(kind, {"reset": True})
            transport._sock.sendall(frame_encode(request))
            with pytest.raises(TransportError, match="unknown control type"):
                transport._read()
            transport.reset()
            assert transport.window_ticks == cfg.heartbeat_threshold

    def test_malformed_nested_frame_reports_error(self):
        with tcp_transport() as (transport, _):
            transport.reset()
            transport._send({"frames": [{"nope": 1}]})
            with pytest.raises(TransportError, match="missing keys"):
                transport._read()

    @pytest.mark.parametrize("done, reason", [
        ({}, "no event list"),
        ({"events": {"1": []}}, "no event list"),
        ({"events": [[1]]}, "not an \\[index, tick, frame\\] triple"),
        ({"events": [[1, {}]]}, "not an \\[index, tick, frame\\] triple"),
        ({"events": [[0, True, {}]]}, "no integer index and tick"),
        ({"events": [[0, "1", {}]]}, "no integer index and tick"),
        ({"events": []}, "no delivered count"),
        ({"events": [], "delivered": True}, "no delivered count"),
        ({"events": [], "delivered": 0}, "no delivered count"),
        ({"events": [], "delivered": 4}, "no delivered count"),
        ({"events": [], "delivered": 1}, "stopped after a window without a keep-alive"),
    ])
    def test_malformed_exchange_reply_raises_transport_error(self, done, reason):
        with scripted_server(SCRIPTED_RESET, ("__done__", done)) as transport:
            transport.reset()
            with pytest.raises(TransportError, match=reason):
                transport.run(SCRIPTED_RUN)

    @pytest.mark.parametrize("indices, delivered", [
        ([None], 3), ([True], 3), ([0.0], 3), (["0"], 3),
        ([1, 0], 3), ([0, 2, 1], 3),
        ([-1], 3), ([1], 1), ([0, 2], 2), ([3], 3),
    ], ids=["none", "bool", "float", "string", "descending", "back",
            "negative", "at-delivered", "past-delivered", "past-run"])
    def test_reply_index_must_be_an_ascending_integer_below_delivered(
            self, indices, delivered):
        events = [[index, 4, RESPONSE_FRAME] for index in indices]
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": events, "delivered": delivered})) \
                as transport:
            transport.reset()
            with pytest.raises(TransportError, match="integer index|indices are not"):
                transport.run(SCRIPTED_RUN)

    def test_indices_of_one_window_may_repeat(self):
        events = [[0, 4, RESPONSE_FRAME], [0, 5, RESPONSE_FRAME], [2, 14, RESPONSE_FRAME]]
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": events, "delivered": 3,
                                           "observation": OBSERVATION})) as transport:
            transport.reset()
            delivered, windows = transport.run(SCRIPTED_RUN)
        assert delivered == 3
        assert [(index, [tick for tick, _ in window]) for index, window in windows] == [
            (0, [4, 5]), (2, [14])]

    @pytest.mark.parametrize("events, delivered", [
        ([[0, 4, RESPONSE_FRAME]], 1),
        ([[0, 4, RESPONSE_FRAME]], 2),
        ([[0, 4, PROBE_N2_FRAME], [1, 9, RESPONSE_FRAME]], 2),
    ], ids=["loud", "silent-last", "keepalive-earlier"])
    def test_run_that_stops_early_needs_a_keepalive_window_last(self, events, delivered):
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": events, "delivered": delivered})) \
                as transport:
            transport.reset()
            with pytest.raises(TransportError, match="without a keep-alive|went on after"):
                transport.run(SCRIPTED_RUN)

    @pytest.mark.parametrize("frame", [PROBE_N2_FRAME, HEARTBEAT_FRAME],
                             ids=["probe", "heartbeat"])
    def test_run_may_stop_after_any_keepalive_wire_type(self, frame):
        events = [[0, 4, RESPONSE_FRAME], [1, 9, RESPONSE_FRAME], [1, 9, frame]]
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": events, "delivered": 2})) as transport:
            transport.reset()
            delivered, windows = transport.run(SCRIPTED_RUN)
        assert delivered == 2 and [index for index, _ in windows] == [0, 1]

    def test_keepalive_window_after_the_run_went_on_is_rejected(self):
        events = [[0, 4, HEARTBEAT_FRAME], [2, 14, RESPONSE_FRAME]]
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": events, "delivered": 3})) as transport:
            transport.reset()
            with pytest.raises(TransportError, match="went on after a keep-alive window"):
                transport.run(SCRIPTED_RUN)

    @pytest.mark.parametrize("verb, done, reason", [
        ("reset", {}, "no positive integer window_ticks"),
        ("reset", {"window_ticks": "5", "term": 1}, "no positive integer window_ticks"),
        ("reset", {"window_ticks": 0, "term": 1}, "no positive integer window_ticks"),
        ("reset", {"window_ticks": 5, "term": True}, "no integer term"),
        ("reset", {"window_ticks": 5, "term": 1, "observation": {"leader": "n1"}},
         "malformed observation reply"),
        ("observe", {}, "malformed observation reply"),
        ("observe", {"observation": {"leader": "n1"}}, "malformed observation reply"),
        ("observe", {"observation": {}}, "malformed observation reply"),
        *(("observe", {"observation": {**OBSERVATION, key: value}},
           "malformed observation reply") for key, value in BAD_FIELDS),
    ], ids=["reset-empty", "reset-string-window", "reset-zero-window", "reset-bool-term",
            "reset-partial", "observe-empty", "observe-partial", "observe-empty-delta",
            *(f"observe-{key}-{value!r}" for key, value in BAD_FIELDS)])
    def test_malformed_reset_or_observe_reply_raises_transport_error(self, verb, done, reason):
        # The first reply on a connection must carry all nine fields.
        with scripted_server(("__done__", done)) as transport:
            with pytest.raises(TransportError, match=reason):
                getattr(transport, verb)()

    @pytest.mark.parametrize("done, reason", [
        *(({"observation": {**OBSERVATION, key: value}},
           "malformed observation reply") for key, value in BAD_FIELDS),
        ({"events": [[0, 4, PROBE_N2_FRAME]], "delivered": 1,
          "observation": OBSERVATION}, "stopped before its last message"),
        ({"observation": None}, "malformed observation reply"),
        ({"observation": []}, "malformed observation reply"),
        ({}, "malformed observation reply"),
    ], ids=[*(f"{key}-{value!r}" for key, value in BAD_FIELDS),
            "stopped-early", "null", "list", "missing"])
    def test_malformed_observation_on_a_run_reply_raises_transport_error(self, done, reason):
        done = {"events": [], "delivered": 3, **done}
        with scripted_server(SCRIPTED_RESET, ("__done__", done)) as transport:
            transport.reset()
            with pytest.raises(TransportError, match=reason):
                transport.run(SCRIPTED_RUN)

    @pytest.mark.parametrize("due", [False, True], ids=["first", "due"])
    def test_reset_reply_without_an_observation_raises_transport_error(self, due):
        # A reset-only request runs nothing, so nothing cuts its reply short.
        reset = ("__done__", {"window_ticks": 5, "term": 1})
        replies = (SCRIPTED_RESET, reset) if due else (reset,)
        with scripted_server(*replies) as transport:
            if due:
                transport.reset()
                transport.reset()
            with pytest.raises(TransportError, match="malformed observation reply"):
                transport.observe() if due else transport.reset()

    def test_a_delta_folds_onto_the_fields_held(self):
        # Each reply carries the fields that changed; an empty one, none.
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": [], "delivered": 3,
                                           "observation": {"sessions_open": 4}}),
                             ("__done__", {"observation": {}})) as transport:
            transport.reset()
            baseline = transport.observe()
            assert transport.run(SCRIPTED_RUN) == (3, [])
            folded = transport.observe()
            assert folded.to_dict() == {**OBSERVATION, "sessions_open": 4}
            assert transport.observe() is folded
        assert baseline.to_dict() == OBSERVATION

    @pytest.mark.parametrize("then", [{"term": 2}, {}], ids=["partial", "empty"])
    def test_a_malformed_delta_empties_the_fields_held(self, then):
        # Fail closed: no later delta builds on fields the client did not get.
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": [], "delivered": 3,
                                           "observation": {"term": "2"}}),
                             ("__done__", {"observation": then}),
                             ("__done__", {"observation": OBSERVATION})) as transport:
            transport.reset()
            with pytest.raises(TransportError, match="malformed observation reply"):
                transport.run(SCRIPTED_RUN)
            with pytest.raises(TransportError, match="malformed observation reply"):
                transport.observe()
            assert transport.observe().to_dict() == OBSERVATION

    def test_a_run_reply_refused_for_its_events_is_still_folded(self):
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": [[0]], "delivered": 3,
                                           "observation": {"sessions_open": 4}}),
                             ("__done__", {"observation": {}})) as transport:
            transport.reset()
            with pytest.raises(TransportError, match="triple"):
                transport.run(SCRIPTED_RUN)
            assert transport.observe().sessions_open == 4

    def test_observation_on_a_whole_run_reply_answers_the_next_observe(self):
        # The peer answers two requests; a third would find it gone.
        observed = {**OBSERVATION, "sessions_open": 4}
        with scripted_server(SCRIPTED_RESET,
                             ("__done__", {"events": [], "delivered": 3,
                                           "observation": observed})) as transport:
            transport.reset()
            assert transport.run(SCRIPTED_RUN) == (3, [])
            assert transport.observe().to_dict() == observed

    @pytest.mark.parametrize("done, reason", [
        ({}, "no list of \\[delivered, events, observation\\] cases"),
        ({"cases": [[3, []]]}, "no list of \\[delivered, events, observation\\] cases"),
        ({"cases": []}, "no case, or more than the request"),
        ({"cases": [[3, [], OBSERVATION]] * 3}, "no case, or more than the request"),
        ({"cases": [[3, [], None]]}, "if, and only if, no keep-alive window ended it"),
        ({"cases": [[1, [[0, 4, PROBE_N2_FRAME]], OBSERVATION]]},
         "if, and only if, no keep-alive window ended it"),
        ({"cases": [[1, [[0, 4, PROBE_N2_FRAME]], None], [3, [], OBSERVATION]]},
         "went on after a case that a keep-alive stopped"),
        ({"cases": [[3, [], OBSERVATION]]}, "stopped after a case without a keep-alive"),
        ({"cases": [[2, [], OBSERVATION]]}, "stopped after a window without a keep-alive"),
        ({"cases": [[3, [[0, 4, RESPONSE_FRAME]], {"term": "2"}]]},
         "malformed observation reply"),
    ], ids=["missing", "pair", "none", "too-many", "whole-without-observation",
            "stopped-with-observation", "went-on", "stopped-early", "run-stopped-early",
            "malformed-observation"])
    def test_malformed_cases_reply_raises_transport_error(self, done, reason):
        with scripted_server(SCRIPTED_RESET, ("__done__", done)) as transport:
            transport.reset()
            with pytest.raises(TransportError, match=reason):
                transport.run_cases([SCRIPTED_RUN, SCRIPTED_RUN])

    def test_cases_reply_ends_after_the_case_a_keepalive_stopped(self):
        observed = {**OBSERVATION, "sessions_open": 4}
        cases = [[3, [[0, 4, RESPONSE_FRAME]], observed], [0, [], {}],
                 [2, [[1, 9, HEARTBEAT_FRAME]], None]]
        with scripted_server(SCRIPTED_RESET, ("__done__", {"cases": cases}),
                             ("__done__", {"observation": {}})) as transport:
            transport.reset()
            ran = transport.run_cases([SCRIPTED_RUN, [], SCRIPTED_RUN, SCRIPTED_RUN])
            # Nothing is kept from a batch: observe() asks.
            assert transport.observe().to_dict() == observed
        assert [(delivered, [index for index, _ in windows], observation and
                 observation.to_dict()) for delivered, windows, observation in ran] == [
            (3, [0], observed), (0, [], observed), (2, [1], None)]

    def test_reply_of_unknown_type_raises_transport_error(self):
        with scripted_server(("__bogus__", {})) as transport:
            with pytest.raises(TransportError, match="unexpected frame type"):
                transport.reset()

    def test_sequential_clients_share_the_cluster(self):
        cfg = cluster_config()
        with ClusterServer(spawn_cluster(cfg)) as srv:
            with TcpTransport(srv.address) as first:
                first.reset()
                obs1 = first.observe()
            with TcpTransport(srv.address) as second:
                obs2 = second.observe()
                assert obs2 == obs1  # same cluster, untouched in between
                second.reset()
                assert second.window_ticks == cfg.heartbeat_threshold

    def test_each_connection_starts_from_a_full_observation(self):
        # The server keeps the fields it last sent per connection, so a
        # client that connects again gets all nine, though nothing changed.
        cfg = cluster_config(["seize_leader"])
        word = [Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_HIGHER))]
        replies, observations = [], []
        with ClusterServer(spawn_cluster(cfg)) as srv:
            for _ in range(2):
                with TcpTransport(srv.address) as transport:
                    read = transport._read
                    transport._read = lambda read=read: replies.append(read()) or replies[-1]
                    proxy = ClusterProxy(transport, default_alphabet(cfg))
                    for _ in range(2):
                        proxy.query(word)
                        observations.append(proxy.observe())
        deltas = [sorted(done["observation"]) for done in replies]
        assert deltas == [sorted(OBSERVATION), ["leader", "term"], []] * 2
        local = inproc_proxy(["seize_leader"])
        local.query(word)
        assert observations == [local.observe()] * 4

    def test_observation_round_trip_matches_in_process(self):
        word = LADDER_ALPHABET[:3]
        local = inproc_proxy()
        local.query(word)
        with tcp_proxy() as remote:
            remote.query(word)
            assert remote.observe().to_dict() == local.observe().to_dict()

    def test_server_close_returns_while_client_still_connected(self):
        server = ClusterServer(spawn_cluster(cluster_config())).start()
        transport = TcpTransport(server.address)
        try:
            transport.reset()
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(timeout=5.0)
            assert not closer.is_alive(), \
                "server.close() must not wait for a connected client"
        finally:
            transport.close()

    def test_silent_server_times_out_as_transport_error(self):
        # The kernel completes the handshake; nothing ever answers.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with TcpTransport(listener.getsockname(), timeout=0.2) as transport:
                with pytest.raises(TransportError) as info:
                    transport.reset()
        assert isinstance(info.value.__cause__, TimeoutError)

    def test_reset_connection_surfaces_as_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with TcpTransport(listener.getsockname(), timeout=5.0) as transport:
                conn, _ = listener.accept()
                # Zero linger: close() sends RST instead of FIN.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                conn.close()
                with pytest.raises(TransportError) as info:
                    transport.reset()
        assert isinstance(info.value.__cause__, OSError)

    def test_client_reset_mid_frame_is_dropped_quietly(self, monkeypatch):
        # A connection that resets while the server reads a frame is
        # dropped as a malformed stream is: no traceback, and the next
        # client is served.
        errors, dropped = [], threading.Event()
        shutdown_request = proxy_module._Server.shutdown_request
        monkeypatch.setattr(proxy_module._Server, "handle_error",
                            lambda server, request, address: errors.append(address))
        monkeypatch.setattr(proxy_module._Server, "shutdown_request",
                            lambda server, request: (shutdown_request(server, request),
                                                     dropped.set()))
        cfg = cluster_config()
        with ClusterServer(spawn_cluster(cfg)) as srv:
            with socket.create_connection(srv.address, timeout=5.0) as client:
                client.sendall(struct.pack(">I", 64) + b"{")
                client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                  struct.pack("ii", 1, 0))
            assert dropped.wait(timeout=5.0)
            assert errors == []
            with TcpTransport(srv.address) as transport:
                assert transport.reset() == spawn_cluster(cfg).reset()
                assert transport.window_ticks == cfg.heartbeat_threshold


class TestLatency:
    def test_replies_with_frames_do_not_wait_for_delayed_acks(self):
        # Written frame by frame, a reply's closing frame waits for the
        # client's delayed ACK (Nagle's algorithm): about 40 ms per exchange.
        with tcp_transport() as (transport, cfg):
            assert transport._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            ctx = SessionContext(cfg.cluster_id, "dummy", transport.reset())
            probe = Symbol(PREQ, (NodeRef("n1", KNOWN),))
            start = time.perf_counter()
            for _ in range(100):
                assert transport.run([encode(probe, ctx)])[1], "no reply frame"
            assert time.perf_counter() - start < 2.0


class TestParity:
    def test_ladder_walk_matches_in_process(self):
        word = LADDER_ALPHABET
        local = inproc_proxy()
        with tcp_proxy() as remote:
            assert remote.ticks_advanced == 0  # no reset yet: no window length
            assert remote.query(word) == local.query(word)
            assert remote.symbols_sent == local.symbols_sent
            assert remote.keepalives_answered == local.keepalives_answered
            assert remote.ticks_advanced == local.ticks_advanced

    def test_random_words_match_in_process(self):
        rng = random.Random(99)
        words = random_words(rng, 10)
        local = inproc_proxy()
        with tcp_proxy() as remote:
            for word in words:
                assert remote.query(word) == local.query(word)

    def test_keeper_replies_flow_through_inject(self):
        # A boot then a join draws keep-alive traffic that the keeper must
        # answer across the socket exactly as it does in process.  No single
        # letter draws any, so a one-letter word would compare 0 with 0.
        join = LADDER_ALPHABET[2:4]
        local = inproc_proxy(["unauth_join"])
        outputs_local = local.query(join)
        assert local.keepalives_answered == 2
        with tcp_proxy(["unauth_join"]) as remote:
            outputs_remote = remote.query(join)
            assert outputs_remote == outputs_local
            assert remote.keepalives_answered == local.keepalives_answered
            assert remote.observe() == local.observe()

    def test_exchange_windows_match_in_process(self):
        # The same messages, sent to a served handle and to a local one,
        # come back as equal (tick, message) windows.
        local = spawn_cluster(cluster_config())
        ctx = SessionContext("sdwan", "dummy", local.reset())
        windows = []
        with tcp_transport() as (transport, _):
            assert transport.reset() == ctx.observed_leader_term
            for sym in LADDER_ALPHABET:
                msg = encode(sym, ctx)
                delivered, window = transport.run([msg])
                assert (delivered, window) == local.run([msg]), sym
                windows.append(window)
        assert any(windows)

    def test_runs_of_several_messages_match_in_process(self):
        # A whole word at a time: each run stops at the same keep-alive window.
        vulns = sorted(ALL_VULNERABILITIES)
        local = spawn_cluster(cluster_config(vulns))
        ctx = SessionContext("sdwan", "dummy", local.reset())
        rest = [encode(sym, ctx) for sym in LADDER_ALPHABET * 2]
        counts = []
        with tcp_transport(vulns) as (transport, _):
            transport.reset()
            while rest:
                delivered, window = transport.run(rest)
                assert (delivered, window) == local.run(rest)
                counts.append(delivered)
                rest = rest[delivered:]
        assert sum(counts) == 2 * len(LADDER_ALPHABET)
        assert max(counts) > 1 and len(counts) > 1


class TestCampaignOverSocket:
    def test_report_is_byte_identical_to_in_process(self):
        swap_heavy = {MUT_DUPLICATE: 1, MUT_REMOVE: 1, MUT_REPLACE: 1,
                      MUT_SWAP_ARG: 7}
        machine = expected_ladder_machine().prune(PrunePolicy())

        def run(proxy):
            proxy.reset_session()
            detector = Detector(Baseline.capture(proxy))
            return run_campaign(proxy, machine, detector, rng_seed=5,
                                max_cases=60, domains=DOMAINS,
                                weights=swap_heavy).to_json()

        with tcp_proxy(["clear_store"]) as remote:
            remote_json = run(remote)
        assert remote_json == run(inproc_proxy(["clear_store"]))
        assert '"app-store-change"' in remote_json


# Recorded from an earlier build: the output words of every case of the
# 600-case ``--vulns all`` campaign at seed 7, which no fuzz artifact holds.
VULNS_ALL_SEED7_OUTPUTS_SHA256 = (
    "a298735a0e11cb9ce1c32d29672f4931558a2d50b137fd1b05d495a2b1c2e4cf")


class TestKeepaliveParity:
    def test_campaign_with_keepalives_matches_in_process(self, monkeypatch):
        # Keep-alives that arrive before a word's last letter end a run.  In
        # process the transport takes each letter as it delivers it, so every
        # message is encoded once; over TCP it takes the whole rest, and the
        # proxy sends its session context back to just after the last
        # delivered letter, so only the undelivered rest is encoded again.
        rewinds, encodes, delivers = [], [], []
        rewind, deliver = SessionContext.rewind, ClusterHandle.deliver

        def rewinding(ctx, mark):
            rewinds.append(mark)
            rewind(ctx, mark)

        def delivering(handle, msg):
            delivers.append(msg)
            deliver(handle, msg)

        monkeypatch.setattr(SessionContext, "rewind", rewinding)
        monkeypatch.setattr(proxy_module, "encode",
                            lambda sym, ctx: encodes.append(sym) or encode(sym, ctx))
        monkeypatch.setattr(ClusterHandle, "deliver", delivering)
        vulns = sorted(ALL_VULNERABILITIES)
        local = inproc_proxy(vulns)
        local_report, local_outputs, local_observations = reference_campaign(
            local, seed=7, cases=600)
        local_rewinds, local_encodes, local_delivers = (
            len(rewinds), len(encodes), len(delivers))
        with tcp_proxy(vulns) as remote:
            remote_report, remote_outputs, remote_observations = reference_campaign(
                remote, seed=7, cases=600)
        remote_encodes = len(encodes) - local_encodes
        assert len(remote_outputs) == len(local_outputs) == 600
        for case, (got, want) in enumerate(zip(remote_outputs, local_outputs)):
            assert got == want, case
        # The baseline, then one observation per case.
        assert len(remote_observations) == len(local_observations) == 601
        for case, (got, want) in enumerate(zip(remote_observations, local_observations)):
            assert got == want, case - 1
        blob = json.dumps([[word_to_obj(w) for w in outs] for outs in local_outputs],
                          separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == VULNS_ALL_SEED7_OUTPUTS_SHA256
        assert remote.keepalives_answered == local.keepalives_answered == 1_122
        assert remote.symbols_sent == local.symbols_sent
        assert remote.ticks_advanced == local.ticks_advanced
        assert remote_report == local_report
        # One encoding per delivered message, keep-alive answers included.
        assert local_encodes == local_delivers == (
            local.symbols_sent + local.keepalives_answered) == 3_029
        assert local_rewinds == 0 < len(rewinds)
        # Over TCP, those and 1,317 letters that a run took but did not deliver.
        assert remote_encodes == local_encodes + 1_317


class TestRequestCounts:
    """Noise-free gates on the number of requests a session costs."""

    def test_hardened_campaign_makes_at_most_13_requests(self):
        with tcp_proxy() as remote:
            requests = record_requests(remote.transport)
            remote_report, _, _ = reference_campaign(remote, seed=1, cases=400)
        assert len(requests) <= 13
        assert remote_report == reference_campaign(inproc_proxy(), seed=1, cases=400)[0]

    def test_hardened_cases_go_in_batches_that_double_up_to_64(self, monkeypatch):
        # The baseline costs the first reset, whose reply carries the
        # observation; no keep-alive stops a hardened case, so the cases
        # then go 1, 2, 4, ... 64 to a request, each batch one request.
        sent = []
        evaluate = Detector.evaluate

        def counting(detector, *args, **kwargs):
            sent.append(len(requests))
            return evaluate(detector, *args, **kwargs)

        monkeypatch.setattr(Detector, "evaluate", counting)
        with tcp_proxy() as remote:
            requests = record_requests(remote.transport)
            reference_campaign(remote, seed=1, cases=400)
        batches = (1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 17)
        assert requests[:1] == [("reset",)]
        assert sent == [n for n, size in enumerate(batches, start=2) for _ in range(size)]
        assert set(requests[1:]) == {("cases",)}

    def test_silent_word_after_the_first_session_costs_one_request(self):
        cfg = cluster_config()
        letters = [sym for sym in enumerate_input_alphabet(default_alphabet(cfg))
                   if inproc_proxy().query([sym]) == ((NO_RESPONSE,),)]
        word = tuple(letters[:6])
        assert len(word) == 6 and inproc_proxy().query(word) == ((NO_RESPONSE,),) * 6
        with tcp_proxy() as remote:
            remote.query(word)
            requests = record_requests(remote.transport)
            for _ in range(3):
                assert remote.query(word) == ((NO_RESPONSE,),) * 6
            assert requests == [("frames", "reset")] * 3

    def test_each_keepalive_window_before_the_last_letter_costs_one_request(self):
        # Counted in process: a window that holds a keep-alive wire type
        # ends a run, so each one before a word's last letter costs a request.
        vulns = sorted(ALL_VULNERABILITIES)
        rng = random.Random(23)
        letters = enumerate_input_alphabet(default_alphabet(cluster_config(vulns)))
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                 for _ in range(200)]
        local = inproc_proxy(vulns)
        windows = []
        exchange = local.transport.exchange

        def recording(msg):
            windows.append(exchange(msg))
            return windows[-1]

        local.transport.exchange = recording
        with tcp_proxy(vulns) as remote:
            remote.query(words[0])
            requests = record_requests(remote.transport)
            stops_before_last = []
            for word in words:
                before = len(requests)
                del windows[:]
                assert remote.query(word) == local.query(word)
                stops = sum(any(m["type"] in ("ProbeRequest", "RaftAppendRequest")
                                for _, m in window) for window in windows[:-1])
                assert len(requests) - before == stops + 1, word
                stops_before_last.append(stops)
        assert max(stops_before_last) >= 3 and stops_before_last.count(0) >= 10

    def test_hardened_campaign_replies_take_at_most_66794_bytes(self, monkeypatch):
        # Each reply carries the observation fields that changed: all nine
        # on the first, none on most (307,284 bytes with all nine on each
        # of 401 replies, 124,484 with one reply per case).
        sizes = record_reply_bytes(monkeypatch)
        with tcp_proxy() as remote:
            reference_campaign(remote, seed=1, cases=400)
        assert len(sizes) == 13 and sum(sizes) <= 66_794

    def test_keepalive_campaign_replies_take_at_most_415569_bytes(self, monkeypatch):
        # 780,010 bytes with all nine observation fields on each of 1,162
        # replies, 467,319 with one reply per case.
        sizes = record_reply_bytes(monkeypatch)
        with tcp_proxy(sorted(ALL_VULNERABILITIES)) as remote:
            reference_campaign(remote, seed=7, cases=600)
        assert len(sizes) == 891 and sum(sizes) <= 415_569

    def test_keepalive_campaign_makes_at_most_891_requests(self):
        vulns = sorted(ALL_VULNERABILITIES)
        with tcp_proxy(vulns) as remote:
            requests = record_requests(remote.transport)
            reference_campaign(remote, seed=7, cases=600)
            assert remote.keepalives_answered == 1_122
            sent = len(requests)
        assert len(requests) == sent <= 891  # close() had nothing left to send


class GarblingCluster(ClusterHandle):
    """A cluster whose answer to a vote request does not decode."""

    def exchange(self, msg):
        window = super().exchange(msg)
        if msg["type"] != "RaftVoteRequest":
            return window
        return [(tick, {**sent, "type": "ProbeResponse",
                        "payload": {"node": "n1", "status": "maybe"}})
                for tick, sent in window]


@contextlib.contextmanager
def dropping_relay(address, requests):
    """A peer that relays the first ``requests`` requests to ``address``,
    and their replies, then closes the connection; yields its address."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def relay():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile, \
                    socket.create_connection(address) as upstream, \
                    upstream.makefile("rb") as ufile:
                for _ in range(requests):
                    msg = read_frame(rfile.read)
                    if msg is None:
                        return
                    upstream.sendall(frame_encode(msg))
                    conn.sendall(frame_encode(read_frame(ufile.read)))

        thread = threading.Thread(target=relay, daemon=True)
        thread.start()
        yield listener.getsockname()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def campaign(proxy, vulns_seed, cases, until=None):
    """The reference-model campaign at ``vulns_seed`` over ``proxy``."""
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    model = MealyMachine.from_json(REFERENCE_MACHINE.read_text(encoding="utf-8"))
    return run_campaign(proxy, model.prune(PrunePolicy()), detector,
                        rng_seed=vulns_seed, max_cases=cases,
                        domains=input_domains(proxy.cfg), until_criteria=until)


class TestBatches:
    """A batch of cases stops where the peer must act, and a campaign
    counts only the cases it evaluated, however far its batch ran."""

    JOIN = LADDER_ALPHABET[2:4]  # its last window holds keep-alives on an open cluster

    def test_a_case_whose_last_window_holds_a_keepalive_ends_its_batch(self):
        # So its answers reach the cluster before its snapshot, as they do
        # for a word that is queried and then observed.  JOIN is the second
        # case of the third batch; the two after it go again, as they were.
        words = [LADDER_ALPHABET[:1]] * 4 + [self.JOIN] + [LADDER_ALPHABET[:2]] * 4
        cfg = cluster_config(["unauth_join"])
        reference = LoggingCluster(cfg)
        proxy = ClusterProxy(reference, default_alphabet(cfg))
        expected = [(proxy.query(word), proxy.observe()) for word in words]
        local_cluster = LoggingCluster(cfg)
        local = ClusterProxy(local_cluster, default_alphabet(cfg))
        local.reset_session()
        del local_cluster.log[:]
        assert list(local.run_cases(words)) == expected
        assert local_cluster.log == reference.log
        with logged_tcp_proxy(["unauth_join"]) as (remote, cluster, payloads):
            remote.reset_session()
            del cluster.log[:]
            assert list(remote.run_cases(words)) == expected
            assert cluster.log == reference.log
        answers = sum(entry[0] == "inject" for entry in reference.log)
        assert answers == remote.keepalives_answered > 0
        assert [sorted(payload) for payload in payloads] == [
            ["reset"], ["cases"], ["cases"], ["cases"], ["inject"],
            ["cases"], ["cases"], ["cases"]]
        assert [len(payload.get("cases", ())) for payload in payloads] == [
            0, 1, 2, 4, 0, 1, 2, 1]
        assert payloads[3]["cases"][2:] == payloads[5]["cases"] + payloads[6]["cases"][:1]

    def test_until_criteria_stops_at_the_same_case_as_in_process(self):
        # Over TCP the batch of the last case ran on; the report counts only
        # the cases evaluated, as in process.
        local = campaign(inproc_proxy(["fake_link"]), 1, 400, until={"reachability-change"})
        with logged_tcp_proxy(["fake_link"]) as (remote, cluster, _):
            assert campaign(remote, 1, 400, until={"reachability-change"}).to_json() \
                == local.to_json()
            served = cluster.log.count(("reset",))
        assert local.cases_run < 400 and local.findings
        assert local.stats["resets"] == local.cases_run + 1 < served

    @pytest.mark.parametrize("at", [0, 40])
    def test_an_interrupt_gives_the_in_process_report(self, monkeypatch, at):
        # Ctrl-C at the evaluation of case ``at``: the report holds the
        # cases before it, and the counters the case in flight too.
        evaluate = Detector.evaluate
        evaluated = []

        def interrupting(detector, *args, **kwargs):
            if len(evaluated) == at:
                raise KeyboardInterrupt
            evaluated.append(at)
            return evaluate(detector, *args, **kwargs)

        monkeypatch.setattr(Detector, "evaluate", interrupting)
        reports = []
        with pytest.raises(CampaignInterrupted) as info:
            campaign(inproc_proxy(), 1, 400)
        reports.append(info.value.report.to_json())
        evaluated.clear()
        with logged_tcp_proxy(()) as (remote, cluster, _):
            with pytest.raises(CampaignInterrupted) as info:
                campaign(remote, 1, 400)
            served = cluster.log.count(("reset",))
        reports.append(info.value.report.to_json())
        assert reports[0] == reports[1]
        assert info.value.report.cases_run == at
        assert info.value.report.stats["resets"] == at + 2 <= served

    def test_a_dropped_connection_keeps_the_finished_cases(self):
        # The relay carries the first 12 requests, then closes the
        # connection.  The report holds the cases evaluated, and
        # its counters the case in flight too, as after an interrupt.
        vulns = sorted(ALL_VULNERABILITIES)
        with ClusterServer(spawn_cluster(cluster_config(vulns))) as srv, \
                dropping_relay(srv.address, 12) as address, \
                TcpTransport(address, timeout=5.0) as transport:
            with pytest.raises(TransportError) as info:  # a close, or a reset
                campaign(ClusterProxy(transport, default_alphabet(cluster_config(vulns))),
                         7, 600)
        report = info.value.report.to_dict()
        assert 0 < report["cases_run"] == report["stats"]["cases"] < 600
        assert report["findings"]
        local = campaign(inproc_proxy(vulns), 7, report["cases_run"]).to_dict()
        assert {**report, "stats": None} == {**local, "stats": None}

    def test_a_case_that_does_not_decode_yields_its_error_and_the_batch_goes_on(self):
        vote, probe = LADDER_ALPHABET[5:6], LADDER_ALPHABET[:1]
        words = [probe, probe, vote, probe, vote, probe]
        cfg = cluster_config()
        results = []
        local = ClusterProxy(GarblingCluster(cfg), default_alphabet(cfg))
        local.reset_session()
        results.append(list(local.run_cases(words)))
        with ClusterServer(GarblingCluster(cfg)) as srv, \
                TcpTransport(srv.address) as transport:
            remote = ClusterProxy(transport, default_alphabet(cfg))
            requests = record_requests(transport)
            remote.reset_session()
            results.append(list(remote.run_cases(words)))
        for got in results:
            assert [type(result).__name__ for result in got] == [
                "tuple", "tuple", "DecodeError", "tuple", "DecodeError", "tuple"]
            assert "bad probe status" in str(got[2])
        assert [r for r in results[0] if isinstance(r, tuple)] == \
            [r for r in results[1] if isinstance(r, tuple)]
        assert remote.symbols_sent == local.symbols_sent == 6
        assert remote.resets == local.resets == 7
        assert requests == [("reset",), ("cases",), ("cases",), ("cases",)]


class LoggingCluster(ClusterHandle):
    """A cluster that logs each reset, inject, exchange and observe."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.log = []

    def reset(self):
        self.log.append(("reset",))
        return super().reset()

    def inject(self, msg):
        self.log.append(("inject", msg["type"], msg["ts"]))
        super().inject(msg)

    def exchange(self, msg):
        self.log.append(("exchange", msg["type"], msg["ts"]))
        return super().exchange(msg)

    def observe(self):
        self.log.append(("observe",))
        return super().observe()


@contextlib.contextmanager
def logged_tcp_proxy(vulns):
    """A proxy over TCP to a served :class:`LoggingCluster`, the cluster,
    and the payload of each request the proxy sends from now on."""
    cfg = cluster_config(vulns)
    cluster = LoggingCluster(cfg)
    payloads = []
    with ClusterServer(cluster) as srv, TcpTransport(srv.address) as transport:
        send = transport._send
        transport._send = lambda payload: (payloads.append(dict(payload)), send(payload))
        yield ClusterProxy(transport, default_alphabet(cfg)), cluster, payloads


class TestQueuedInjects:
    """Keep-alive answers ride on the next request, as a due reset does."""

    JOIN = LADDER_ALPHABET[2:4]  # its last window holds keep-alives on an open cluster

    def test_answers_ride_on_the_next_request(self):
        # The reply to the run of JOIN carries the observation after it; the
        # answers that follow change the cluster, so the next observe() is a
        # request that carries them, never the kept reply.
        with logged_tcp_proxy(["unauth_join"]) as (remote, cluster, payloads):
            remote.query(self.JOIN)
            answered = remote.keepalives_answered
            assert answered > 0 and [sorted(payload) for payload in payloads] == [
                ["reset"], ["frames"]]
            assert ("inject",) not in {entry[:1] for entry in cluster.log}
            assert cluster.log[-1] == ("observe",)
            observation = remote.observe()
            payload = payloads[-1]
            assert sorted(payload) == ["inject"] and len(payload["inject"]) == answered
            assert [entry[0] for entry in cluster.log[-answered - 2:]] == \
                ["observe"] + ["inject"] * answered + ["observe"]
        local = inproc_proxy(["unauth_join"])
        local.query(self.JOIN)
        assert observation == local.observe()

    @pytest.mark.parametrize("between, expected", [
        (None, None),
        ("observe", {}),
        ("inject", {"inject": 1}),
        ("reset", {"reset": True}),
    ], ids=["untouched", "observe", "inject", "reset"])
    def test_only_an_untouched_kept_observation_is_returned(self, between, expected):
        word = LADDER_ALPHABET[:2]
        local = inproc_proxy()
        local.query(word)
        with logged_tcp_proxy(()) as (remote, cluster, payloads):
            remote.query(word)
            assert [sorted(payload) for payload in payloads] == [["reset"], ["frames"]]
            sent = len(payloads)
            if between == "observe":
                assert remote.observe() == local.observe()
            elif between == "inject":
                for proxy in (remote, local):
                    proxy.transport.inject(
                        encode(Symbol(PREQ, (NodeRef("n1", KNOWN),)), proxy.ctx))
            elif between == "reset":
                for proxy in (remote, local):
                    proxy.reset_session()
            assert remote.observe() == local.observe()
            if expected is None:
                assert len(payloads) == sent
            else:
                assert len(payloads) == sent + 1
                assert {key: len(value) if key == "inject" else value
                        for key, value in payloads[-1].items()} == expected

    def test_a_due_reset_drops_the_queue(self):
        with logged_tcp_proxy(["unauth_join"]) as (remote, cluster, payloads):
            remote.query(self.JOIN)
            remote.reset_session()
            remote.observe()
            assert payloads[-1] == {"reset": True}
            assert cluster.log[-4:] == [
                ("exchange", "RaftJoinRequest", 2), ("observe",), ("reset",), ("observe",)]

    def test_close_sends_what_is_still_queued(self):
        with logged_tcp_proxy(["unauth_join"]) as (remote, cluster, payloads):
            remote.query(self.JOIN)
            answered = remote.keepalives_answered
            remote.transport.close()
            assert sorted(payloads[-1]) == ["inject"]
            assert [entry[0] for entry in cluster.log[-answered - 1:]] == \
                ["inject"] * answered + ["observe"]

    def test_the_served_cluster_sees_what_it_sees_in_process(self):
        # The same words, cluster-side: equal logs but for the observes,
        # except that over TCP an answer that a reset would overwrite is never
        # sent.  The served cluster is also observed after each whole run,
        # so its observes are compared by what the proxy gets: the same,
        # call for call.
        vulns = sorted(ALL_VULNERABILITIES)
        rng = random.Random(5)
        letters = enumerate_input_alphabet(default_alphabet(cluster_config(vulns)))
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                 for _ in range(100)]
        cfg = cluster_config(vulns)
        local_cluster = LoggingCluster(cfg)
        local = ClusterProxy(local_cluster, default_alphabet(cfg))
        observations = []
        with logged_tcp_proxy(vulns) as (remote, cluster, payloads):
            for proxy in (local, remote):
                observations.append([])
                for word in words:
                    proxy.query(word)
                    if len(word) % 3 == 0:
                        observations[-1].append(proxy.observe())
            assert remote.keepalives_answered == local.keepalives_answered > 0
        assert observations[0] == observations[1] and observations[0]
        expected = []
        for entry in local_cluster.log:
            if entry == ("reset",):
                while expected and expected[-1][0] == "inject":
                    expected.pop()
            expected.append(entry)

        def without_observes(log):
            return [entry for entry in log if entry != ("observe",)]

        assert without_observes(cluster.log) == without_observes(expected)
        assert len(expected) < len(local_cluster.log)

    @pytest.mark.parametrize("bad", ["inject", "frames"])
    def test_one_malformed_frame_delivers_nothing(self, bad):
        cfg = cluster_config()
        cluster = LoggingCluster(cfg)
        with ClusterServer(cluster) as srv, TcpTransport(srv.address) as transport:
            ctx = SessionContext(cfg.cluster_id, "dummy", transport.reset())
            probe = encode(Symbol(PREQ, (NodeRef("n1", KNOWN),)), ctx)
            payload = {"frames": [probe], "inject": [probe]}
            payload[bad] = [probe, {"nope": 1}]
            transport._send(payload)
            with pytest.raises(TransportError, match="missing keys"):
                transport._read()
            assert cluster.log == [("reset",), ("observe",)]

    @pytest.mark.parametrize("key", ["inject", "frames"])
    @pytest.mark.parametrize("value", [[], {"a": 1}], ids=["empty", "not-a-list"])
    def test_a_frame_list_must_be_a_non_empty_list(self, key, value):
        # Refused before the cluster sees anything, the reset with it.
        cluster = LoggingCluster(cluster_config())
        with ClusterServer(cluster) as srv, TcpTransport(srv.address) as transport:
            transport.reset()
            transport._send({"reset": True, key: value})
            with pytest.raises(TransportError, match=f"no '{key}' list of frames"):
                transport._read()
            assert cluster.log == [("reset",), ("observe",)]


    @pytest.mark.parametrize("cases, reason", [
        ([], "no 'cases' list of frame lists"),
        ({"a": 1}, "no 'cases' list of frame lists"),
        ([{"nope": 1}], "no 'cases' list of frame lists"),
        ([[], [{"nope": 1}]], "missing keys"),
    ], ids=["empty", "not-a-list", "case-not-a-list", "malformed-frame"])
    def test_a_cases_list_must_be_a_non_empty_list_of_frame_lists(self, cases, reason):
        cluster = LoggingCluster(cluster_config())
        with ClusterServer(cluster) as srv, TcpTransport(srv.address) as transport:
            transport.reset()
            transport._send({"reset": True, "cases": cases})
            with pytest.raises(TransportError, match=reason):
                transport._read()
            assert cluster.log == [("reset",), ("observe",)]

    def test_a_request_carries_frames_or_cases_not_both(self):
        cfg = cluster_config()
        cluster = LoggingCluster(cfg)
        with ClusterServer(cluster) as srv, TcpTransport(srv.address) as transport:
            ctx = SessionContext(cfg.cluster_id, "dummy", transport.reset())
            probe = encode(Symbol(PREQ, (NodeRef("n1", KNOWN),)), ctx)
            transport._send({"frames": [probe], "cases": [[probe]]})
            with pytest.raises(TransportError, match="both 'frames' and 'cases'"):
                transport._read()
            assert cluster.log == [("reset",), ("observe",)]


class TestDeferredReset:
    def test_later_reset_rides_on_the_next_request(self):
        with tcp_transport() as (transport, cfg):
            requests = record_requests(transport)
            term = transport.reset()
            assert transport.reset() == term and transport.reset() == term
            assert requests == [("reset",)]
            transport.observe()
            transport.observe()
            assert requests[1:] == [("reset",), ()]
            assert transport.window_ticks == cfg.heartbeat_threshold

    @pytest.mark.parametrize("reply, reason", [
        ({"window_ticks": 5, "term": 2}, "differs from the first reset"),
        ({"window_ticks": 6, "term": 1}, "differs from the first reset"),
        ({"window_ticks": 5}, "no integer term"),
        ({"window_ticks": 5, "term": True}, "no integer term"),
    ], ids=["term", "window", "no-term", "bool-term"])
    def test_piggybacked_reset_reply_must_match_the_baseline(self, reply, reason):
        done = {"observation": OBSERVATION, **reply}
        with scripted_server(SCRIPTED_RESET, ("__done__", done)) as transport:
            assert transport.reset() == 1
            assert transport.reset() == 1
            with pytest.raises(TransportError, match=reason):
                transport.observe()

    def test_error_on_piggybacked_reset_surfaces_from_the_call_that_carried_it(self):
        class FailingSecondReset(ClusterHandle):
            resets = 0

            def reset(self):
                self.resets += 1
                if self.resets == 2:
                    raise SimulationError("reset refused")
                return super().reset()

        cfg = cluster_config()
        word = LADDER_ALPHABET[:2]
        with ClusterServer(FailingSecondReset(cfg)) as srv, \
                TcpTransport(srv.address) as transport:
            proxy = ClusterProxy(transport, default_alphabet(cfg))
            proxy.query(word)  # the first reset, its own request
            proxy.reset_session()  # due, nothing sent
            with pytest.raises(TransportError, match="reset refused"):
                proxy.query(word)
            # The failed reset rode on that request; the next one resets.
            assert proxy.query(word) == inproc_proxy().query(word)

    def test_close_sends_a_reset_still_due(self):
        cfg = cluster_config(["seize_leader"])
        fresh = spawn_cluster(cfg).observe()
        seize = [Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_HIGHER))]
        with ClusterServer(spawn_cluster(cfg)) as srv:
            with TcpTransport(srv.address) as first:
                ClusterProxy(first, default_alphabet(cfg)).query(seize)
                assert first.observe().term > fresh.term
                assert first.reset() == fresh.term  # due when the client closes
            with TcpTransport(srv.address) as second:
                assert second.observe() == fresh

    def test_deliver_checks_every_frame_before_delivering_any(self):
        with tcp_transport() as (transport, cfg):
            ctx = SessionContext(cfg.cluster_id, "dummy", transport.reset())
            probe = encode(Symbol(PREQ, (NodeRef("n1", KNOWN),)), ctx)
            transport._send({"frames": [probe, {"nope": 1}]})
            with pytest.raises(TransportError, match="missing keys"):
                transport._read()
            # Had the probe been delivered, its timestamp would now be stale.
            delivered, windows = transport.run([probe])
            assert delivered == 1
            assert [(index, [m["type"] for _, m in window])
                    for index, window in windows] == [(0, ["ProbeResponse"])]
