"""Bridge between abstract protocol symbols and a live cluster endpoint.

The proxy owns the sender-side session state (logical clock, vote terms),
turns each input symbol into one concrete message, delivers it through a
transport, collects the reply window, and collapses it into a canonical
output word.  Keep-alive traffic aimed at the controlled identity is
answered politely in the background and never surfaces in output words, so
query results depend only on protocol-relevant reactions.

A transport is any object with:

``window_ticks``
    Length, in virtual ticks, of the observation window that each
    ``exchange`` runs.  Read after ``reset()``.
``reset() -> int``
    Put the cluster back into its converged baseline state and return the
    leader term of that fresh session.
``exchange(msg) -> list[(tick, ConcreteMessage)]``
    Deliver one message and return everything the cluster emitted during
    the fixed observation window that follows it.
``observe() -> ClusterObservation``
    Read the cluster health snapshot without disturbing it.
``inject(msg)``
    Deliver a message without opening an observation window; used for
    keeper replies to keep-alive probes.

A simulated cluster handle (:class:`~statefuzz.sulsim.ClusterHandle`) is
the in-process transport; :class:`TcpTransport` reaches one served by a
:class:`ClusterServer`.
"""
from __future__ import annotations

import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .alphabet import (
    ALIVE, NO_RESPONSE, PREQ, PRES, RAREQ, RARES, AlphabetConfig,
    ConcreteMessage, FrameError, OutputWord, Symbol, TERM_CURRENT, _is_int,
    canonical_output, decode, encode, frame_encode, message_from_wire,
    read_frame,
)
from .sulsim import ClusterHandle, ClusterObservation


@dataclass
class SessionContext:
    """Sender-side protocol session state.

    Keeps the per-session logical clock strictly increasing and derives
    ballot terms for vote requests: "current" reuses the term observed at
    session start, "higher" always outbids both that term and any ballot
    this session has already sent.
    """

    cluster_id: str
    self_id: str
    observed_leader_term: int = 0
    _ts: int = field(default=0, repr=False)
    _last_sent_term: int | None = field(default=None, repr=False)

    def next_ts(self) -> int:
        self._ts += 1
        return self._ts

    def vote_term(self, kind: str) -> int:
        if kind == TERM_CURRENT:
            return self.observed_leader_term
        base = self.observed_leader_term
        if self._last_sent_term is not None and self._last_sent_term > base:
            base = self._last_sent_term
        self._last_sent_term = base + 1
        return self._last_sent_term


# The word of a window in which nothing reached the peer: one object for all.
_SILENT = (NO_RESPONSE,)


class ClusterProxy:
    """Symbolic query frontend over a transport.

    ``query(word)`` is the membership oracle used by model learning: it
    resets the session, sends the word symbol by symbol, and returns one
    canonical output word per input position.
    """

    def __init__(self, transport, cfg: AlphabetConfig):
        self.transport = transport
        self.cfg = cfg
        self.ctx: SessionContext | None = None
        self.resets = 0
        self.symbols_sent = 0
        self.keepalives_answered = 0
        self.ticks_advanced = 0

    def reset_session(self):
        """Fresh converged cluster, fresh session identity."""
        term = self.transport.reset()
        self.ctx = SessionContext(self.cfg.cluster_id, self.cfg.self_id, term)
        self.resets += 1

    def send_symbol(self, sym: Symbol) -> OutputWord:
        """Send one input symbol; return the canonical reaction word."""
        if self.ctx is None:
            self.reset_session()
        msg = encode(sym, self.ctx)
        self.symbols_sent += 1
        transport = self.transport
        window = transport.exchange(msg)
        self.ticks_advanced += transport.window_ticks
        if not window:
            return _SILENT
        keepalives = []
        cfg = self.cfg
        word = canonical_output([(ts, decode(m, cfg)) for ts, m in window], cfg, keepalives)
        for reply_sym in keepalives:
            self._answer_keepalive(reply_sym)
        return word

    def query(self, word) -> tuple:
        """Output words for every position of ``word``, from a fresh session."""
        self.reset_session()
        send = self.send_symbol
        return tuple([send(sym) for sym in word])

    def observe(self):
        return self.transport.observe()

    def _answer_keepalive(self, sym: Symbol):
        if sym.tag == PREQ:
            reply = Symbol(PRES, (self.cfg.self_ref, ALIVE))
        elif sym.tag == RAREQ:
            reply = Symbol(RARES, ())
        else:
            return
        self.transport.inject(encode(reply, self.ctx))
        self.keepalives_answered += 1


# ---------------------------------------------------------------------------
# TCP transport mode
# ---------------------------------------------------------------------------
# The same transport contract served over a localhost socket, so the cluster
# can live in another process.  Everything on the wire uses the
# length-prefixed JSON message codec; control verbs are reserved type names
# that can never collide with protocol wire types.

CTRL_RESET = "__reset__"
CTRL_DELIVER = "__deliver__"
CTRL_INJECT = "__inject__"
CTRL_OBSERVE = "__observe__"
CTRL_DONE = "__done__"
CTRL_ERROR = "__error__"


class TransportError(RuntimeError):
    """Transport-level failure reported by, or while talking to, the far end."""


def _control(msg_type: str, payload: dict) -> ConcreteMessage:
    """One control frame; requests and replies alike."""
    return ConcreteMessage(cluster_id="__transport__", sender="__control__",
                           logical_ts=0, msg_type=msg_type, payload=payload)


def _serve_request(cluster: ClusterHandle, msg: ConcreteMessage) -> ConcreteMessage:
    """Run one control request on ``cluster``; return its one reply frame,
    ``__done__`` or ``__error__``."""
    try:
        kind = msg.msg_type
        if kind == CTRL_RESET:
            term = cluster.reset()
            return _control(CTRL_DONE, {"window_ticks": cluster.window_ticks, "term": term})
        if kind == CTRL_DELIVER:
            events = cluster.exchange(message_from_wire(msg.payload.get("frame")))
            return _control(CTRL_DONE, {"events": [[t, m.to_wire()] for t, m in events]})
        if kind == CTRL_INJECT:
            cluster.inject(message_from_wire(msg.payload.get("frame")))
            return _control(CTRL_DONE, {})
        if kind == CTRL_OBSERVE:
            return _control(CTRL_DONE, {"observation": cluster.observe().to_dict()})
        return _control(CTRL_ERROR, {"reason": f"unknown control type: {kind!r}"})
    except Exception as exc:  # reported in-band; the connection stays usable
        return _control(CTRL_ERROR, {"reason": str(exc)})


class _RequestHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # each reply is one write; send it at once

    def handle(self):
        with self.server.session_lock:  # one owner session at a time
            while True:
                try:
                    msg = read_frame(self.rfile.read)
                except FrameError:
                    return  # malformed stream: drop this client, accept the next
                if msg is None:
                    return
                reply = _serve_request(self.server.cluster, msg)
                try:
                    self.wfile.write(frame_encode(reply))
                except (BrokenPipeError, ConnectionResetError):
                    return


class _Server(socketserver.ThreadingTCPServer):
    # Handlers run in daemon threads so ``shutdown()`` never waits on a
    # client that is still connected; the session lock keeps cluster access
    # strictly serialized regardless.
    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False


class ClusterServer:
    """Serve one cluster handle on a TCP socket.

    Connections are served one at a time, matching the single-owner session
    model; when a client disconnects the next one talks to the same
    (stateful) cluster.  Use ``with ClusterServer(handle) as srv:`` and read
    ``srv.address`` for the bound endpoint.  ``close()`` stops accepting new
    connections immediately; a client that is still connected keeps its
    session until it disconnects or the process exits.
    """

    def __init__(self, cluster: ClusterHandle, host: str = "127.0.0.1",
                 port: int = 0):
        self.cluster = cluster
        self._server = _Server((host, port), _RequestHandler)
        self._server.cluster = cluster
        self._server.session_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        return self._server.server_address

    def start(self) -> "ClusterServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)
        self._thread.start()
        return self

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc):
        self.close()


class TcpTransport:
    """The transport contract over a socket to a :class:`ClusterServer`.

    The server owns the virtual clock and runs the observation window; this
    side only frames messages.  Each request gets exactly one reply frame.
    ``reset()`` must be called before the first ``exchange()`` (the proxy
    always does).
    """

    def __init__(self, address, timeout: float = 30.0):
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self.window_ticks: int | None = None

    def close(self):
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc):
        self.close()

    def reset(self) -> int:
        self._send(CTRL_RESET, {})
        done = self._read()
        window, term = done.get("window_ticks"), done.get("term")
        if not _is_int(window) or window < 1:
            raise TransportError("reset reply carries no positive integer window_ticks")
        if not _is_int(term):
            raise TransportError("reset reply carries no integer term")
        self.window_ticks = window
        return term

    def exchange(self, msg: ConcreteMessage) -> list:
        if self.window_ticks is None:
            raise TransportError("exchange before the first reset")
        self._send(CTRL_DELIVER, {"frame": msg.to_wire()})
        events = self._read().get("events")
        if not isinstance(events, list):
            raise TransportError("reply carries no event list")
        if not all(isinstance(event, list) and len(event) == 2 for event in events):
            raise TransportError("reply event is not a [tick, frame] pair")
        if not all(_is_int(tick) for tick, _ in events):
            raise TransportError("reply event carries no integer tick")
        return [(tick, message_from_wire(frame)) for tick, frame in events]

    def inject(self, msg: ConcreteMessage):
        self._send(CTRL_INJECT, {"frame": msg.to_wire()})
        self._read()

    def observe(self) -> ClusterObservation:
        self._send(CTRL_OBSERVE, {})
        done = self._read()
        try:
            return ClusterObservation.from_dict(done["observation"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TransportError(f"malformed observation reply: {exc!r}") from exc

    def _send(self, msg_type: str, payload: dict):
        try:
            self._sock.sendall(frame_encode(_control(msg_type, payload)))
        except OSError as exc:
            raise TransportError(f"send to the server failed: {exc}") from exc

    def _read(self) -> dict:
        """The payload of the server's one ``__done__`` reply."""
        try:
            msg = read_frame(self._rfile.read)
        except OSError as exc:
            raise TransportError(f"read from the server failed: {exc}") from exc
        if msg is None:
            raise TransportError("server closed the connection")
        if msg.msg_type == CTRL_ERROR:
            raise TransportError(msg.payload.get("reason", "unspecified failure"))
        if msg.msg_type != CTRL_DONE:
            raise TransportError(f"unexpected frame type {msg.msg_type!r}")
        return msg.payload
