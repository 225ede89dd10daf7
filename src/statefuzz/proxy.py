"""Bridge between abstract protocol symbols and a live cluster endpoint.

The proxy owns the sender-side session state (logical clock, vote terms),
turns each input symbol into one concrete message (the dict of the five
frame keys that its frame carries), delivers it through a
transport, collects the reply window, and collapses it into a canonical
output word.  Keep-alive traffic aimed at the controlled identity is
answered politely in the background and never surfaces in output words, so
query results depend only on protocol-relevant reactions.  The proxy hands
the transport the rest of the word, encoded only as the transport takes
it, and the transport sends it up to the first window that holds a
keep-alive, which the proxy may need to answer.

A transport is any object with:

``window_ticks``
    Length, in virtual ticks, of the observation window that follows each
    delivered message.  Read after ``reset()``.
``reset() -> int``
    Put the cluster back into its converged baseline state and return the
    leader term of that fresh session, the same on every reset.
``run(msgs) -> (delivered, [(index, [(tick, message)])])``
    Take messages from the iterable ``msgs`` (one or more) and deliver them
    in turn, each followed by its observation window, and stop after the
    first window that holds a keep-alive wire type
    (``KEEPALIVE_WIRE_TYPES``), since the peer may have to answer it before
    the next message.  Return how many messages were delivered and, in
    order, every window in which anything reached the peer, each with the
    index in ``msgs`` of the message it followed.  Windows that are not
    listed were empty.  A transport takes as many messages as it delivers,
    or more: the simulator takes each one as it delivers it, the TCP
    transport takes them all for one request.  Each message takes a
    timestamp of the session as it is encoded, so the proxy puts its
    session context back only when the transport took more than it
    delivered.
``run_cases(cases) -> iterable of (delivered, windows, observation)``
    For each case of the iterable ``cases``, each an iterable of messages
    (none or more), ``reset()`` and ``run`` its messages, and give what the
    run returned and the ``observe()`` after it.  A case whose last window
    holds a keep-alive gives None for its observation and ends the batch:
    the peer answers it before the snapshot, and no case after it runs.
    The simulator takes each case as it runs it; the TCP transport takes
    them all for one request.
``observe() -> ClusterObservation``
    Read the cluster health snapshot without disturbing it.
``inject(msg)``
    Deliver a message without opening an observation window, before the
    next ``run`` or ``observe``; used for keeper replies to keep-alive
    probes.  A ``reset()`` in between may drop it.

A simulated cluster handle (:class:`~statefuzz.sulsim.ClusterHandle`) is
the in-process transport; :class:`TcpTransport` reaches one served by a
:class:`ClusterServer`.  On the wire every request is one ``__request__``
frame whose payload may hold ``"reset": true``, ``"inject": [frame, ...]``
and either ``"frames": [frame, ...]`` or ``"cases": [[frame, ...], ...]``;
the server resets, injects and runs, in that order, and serves the cases
with the handle's own ``run_cases``.  Its reply carries the fresh
session's ``term`` and ``window_ticks`` after a reset, ``{"delivered": n,
"events": [[index, tick, frame], ...]}`` after a run, ``"cases":
[[delivered, events, observation], ...]`` for the cases run, and the
``"observation"`` taken last, unless it ran cases or its run stopped
before its last frame.  Every observation holds the fields that differ
from those last sent on the connection, so all nine on its first.  A
reset and the injects ride on the next request.  A fuzz campaign sends
its cases in batches of 1, 2, 4, ... up to ``MAX_BATCH``, and of 1 again
after a batch that a keep-alive stopped, each batch one request.  A case
costs a share of its batch's request, plus one request for each
keep-alive window before its last letter, and one more when the answers
to keep-alives in its last window must go out before its snapshot; the
cases of a stopped batch that did not run go in the next batches, their
messages sent again as they were encoded.
"""
from __future__ import annotations

import socket
import socketserver
import threading
from dataclasses import dataclass, field
from itertools import islice, repeat

from .alphabet import (
    ALIVE, KEEPALIVE_WIRE_TYPES, NO_RESPONSE, PREQ, PRES, RARES,
    AlphabetConfig, DecodeError, FrameError, Symbol,
    TERM_CURRENT, WIRE_TYPES, _is_int, canonical_output, decode, encode,
    frame_encode, message_from_wire, read_frame,
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
    # The ballots sent, newest first: (clock before its letter, ballot,
    # the older ones), or None.
    _ballots: tuple | None = field(default=None, repr=False)

    def next_ts(self) -> int:
        self._ts += 1
        return self._ts

    def mark(self) -> int:
        """The clock: the timestamp of the last letter encoded."""
        return self._ts

    def rewind(self, ts: int):
        """Back to the state just after the letter stamped ``ts``: the
        clock, and the ballots sent up to that letter."""
        self._ts = ts
        while self._ballots is not None and self._ballots[0] >= ts:
            self._ballots = self._ballots[2]

    def vote_term(self, kind: str) -> int:
        if kind == TERM_CURRENT:
            return self.observed_leader_term
        base = self.observed_leader_term
        if self._ballots is not None and self._ballots[1] > base:
            base = self._ballots[1]
        self._ballots = (self._ts, base + 1, self._ballots)
        return base + 1


# The word of a window in which nothing reached the peer: one object for all.
_SILENT = (NO_RESPONSE,)
# The most fuzz cases that one batch of ``ClusterProxy.run_cases`` holds.
MAX_BATCH = 64


def _encoding(word, ctx: SessionContext, frames: list):
    """Encode the letters of ``word`` as they are taken, each kept in ``frames``."""
    for sym in word:
        frames.append(encode(sym, ctx))
        yield frames[-1]


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

    @property
    def ticks_advanced(self) -> int:
        """Virtual ticks of the sent letters' windows, fixed per transport."""
        return self.symbols_sent and self.symbols_sent * self.transport.window_ticks

    def reset_session(self):
        """Fresh converged cluster, fresh session identity."""
        term = self.transport.reset()
        self.ctx = SessionContext(self.cfg.cluster_id, self.cfg.self_id, term)
        self.resets += 1

    def query(self, word) -> tuple:
        """Output words for every position of ``word``, from a fresh session."""
        for sym in word:
            if sym.tag not in WIRE_TYPES:  # encode's ConfigError, before the session
                encode(sym, self.ctx)
        self.reset_session()
        return tuple(self._send(word))

    def run_cases(self, words):
        """Run each word of the iterable ``words`` from a fresh session, as
        ``query`` does, and yield, word by word, its output words and the
        observation after it, or the ``DecodeError`` its replies raised.

        The words go to the transport's ``run_cases`` in batches, taken from
        ``words`` only as a batch is formed: one word, then twice as many as
        the batch before, up to ``MAX_BATCH``, and one again after a batch
        that a keep-alive window stopped.  The case that it stopped goes on
        here as ``query`` goes on; the cases after it, which did not run, lead
        the next batches with the messages already encoded for them, which
        depend only on the word and the baseline term.  The counters move as
        each case is yielded, so they count no case that was not."""
        if self.ctx is None:
            self.reset_session()
        cfg, term, words = self.cfg, self.ctx.observed_leader_term, iter(words)
        size, queue = 1, []  # [word, context, messages encoded] of cases not yet run
        while True:
            queue += ([word, SessionContext(cfg.cluster_id, cfg.self_id, term), []]
                      for word in islice(words, max(0, size - len(queue))))
            batch, queue = queue[:size], queue[size:]
            if not batch:
                return
            results = self.transport.run_cases(
                frames if len(frames) == len(word) else _encoding(word, ctx, frames)
                for word, ctx, frames in batch)
            ran = 0
            for (word, ctx, _), (delivered, windows, observation) in zip(batch, results):
                ran += 1
                self.ctx = ctx
                self.resets += 1
                stopped = observation is None
                try:
                    outputs = tuple(self._send(word, (delivered, windows)))
                    if stopped:
                        observation = self.observe()
                except DecodeError as exc:
                    yield exc
                else:
                    yield outputs, observation
            queue[:0] = batch[ran:]
            size = 1 if stopped else min(2 * size, MAX_BATCH)

    def _send(self, word, run=None) -> list:
        """Send ``word`` in the current session; one output word per letter.

        The transport takes the rest of the word as it is encoded and runs it
        up to the first window that holds a keep-alive wire type; ``run`` is
        what its first run returned, if the session made that one already
        from a fresh context.  Each ``encode`` takes one timestamp, so a
        clock past ``mark + sent`` shows that the transport took letters it
        did not deliver: the context goes back to the state just after the
        last delivered letter, so the keep-alive answers take the timestamps
        just after it."""
        cfg, ctx, transport = self.cfg, self.ctx, self.transport
        out = [_SILENT] * len(word)
        done = counted = mark = 0
        try:
            while done < len(word):
                if run is None:
                    mark = ctx.mark()
                    run = transport.run(map(encode, word[done:], repeat(ctx)))
                (sent, windows), run = run, None
                keepalives = []
                for index, window in windows:
                    counted = done + index + 1
                    out[counted - 1] = canonical_output(
                        [(ts, decode(m, cfg)) for ts, m in window], cfg, keepalives)
                if ctx.mark() > mark + sent:
                    ctx.rewind(mark + sent)
                done = counted = done + sent
                for reply_sym in keepalives:  # from the last window: the run stopped there
                    self._answer_keepalive(reply_sym)
        finally:  # a reply that does not decode counts letters through its window
            self.symbols_sent += counted
        return out

    def observe(self):
        return self.transport.observe()

    def _answer_keepalive(self, sym: Symbol):
        """Answer a keep-alive that ``canonical_output`` collected: a probe
        aimed at the proxy's identity, or a heartbeat."""
        if sym.tag == PREQ:
            reply = Symbol(PRES, (self.cfg.self_ref, ALIVE))
        else:
            reply = Symbol(RARES)
        self.transport.inject(encode(reply, self.ctx))
        self.keepalives_answered += 1


# ---------------------------------------------------------------------------
# TCP transport mode
# ---------------------------------------------------------------------------
# The same transport contract served over a localhost socket, so the cluster
# can live in another process.  Everything on the wire uses the
# length-prefixed JSON message codec; the control types are reserved type
# names that can never collide with protocol wire types.

CTRL_REQUEST = "__request__"
CTRL_DONE = "__done__"
CTRL_ERROR = "__error__"


class TransportError(RuntimeError):
    """Transport-level failure reported by, or while talking to, the far end."""


def _control(msg_type: str, payload: dict) -> dict:
    """One control frame; requests and replies alike."""
    return {"cluster_id": "__transport__", "sender": "__control__", "ts": 0,
            "type": msg_type, "payload": payload}


def _serve_request(cluster: ClusterHandle, msg: dict, sent: dict) -> dict:
    """Serve one ``__request__`` on ``cluster``: reset if its payload holds
    ``"reset": true``, inject the frames of ``"inject"``, then run those of
    ``"frames"`` or the cases of ``"cases"`` (``cluster.run_cases``), every
    frame checked before the cluster sees any.  The one reply frame is an
    ``__error__``, or a ``__done__`` that carries the fresh ``term`` and
    ``window_ticks`` after a reset; ``delivered`` and ``events`` after a
    run; ``[delivered, events, observation]`` per case run, the observation
    None for a case that a keep-alive stopped; and, but after cases or a run
    that stopped before its last frame, the ``observation`` taken last.
    Each observation holds only its fields that differ from ``sent``, the
    fields last sent on the connection, which it updates."""
    try:
        kind, payload = msg["type"], msg["payload"]
        if kind != CTRL_REQUEST:
            return _control(CTRL_ERROR, {"reason": f"unknown control type: {kind!r}"})
        injects, msgs = _frames(payload, "inject"), _frames(payload, "frames")
        cases = _cases(payload)
        if msgs and cases:
            raise ValueError("request carries both 'frames' and 'cases'")
        done = {}
        if payload.get("reset") is True:
            done = {"window_ticks": cluster.window_ticks, "term": cluster.reset()}
        for inject in injects:
            cluster.inject(inject)
        if cases:
            fields = dict(sent)  # ``sent`` moves only once every case has run
            done["cases"] = [[delivered, _events(windows),
                              None if observation is None else _delta(observation, fields)]
                             for delivered, windows, observation in cluster.run_cases(cases)]
            sent.update(fields)
        elif msgs:
            done["delivered"], windows = cluster.run(msgs)
            done["events"] = _events(windows)
        if not cases and (not msgs or done["delivered"] == len(msgs)):
            done["observation"] = _delta(cluster.observe(), sent)
        return _control(CTRL_DONE, done)
    except Exception as exc:  # reported in-band; the connection stays usable
        return _control(CTRL_ERROR, {"reason": str(exc)})


def _events(windows) -> list:
    """``[index, tick, frame]`` for every message of the loud ``windows``."""
    return [[index, t, m] for index, window in windows for t, m in window]


def _delta(observation: ClusterObservation, sent: dict) -> dict:
    """The fields of ``observation`` that differ from ``sent``, which takes them."""
    delta = {key: value for key, value in observation.to_dict().items()
             if key not in sent or sent[key] != value}
    sent.update(delta)
    return delta


def _frames(payload: dict, key: str) -> list:
    """The checked messages of the frame list ``payload[key]``, if any."""
    frames = payload.get(key)
    if frames is None:
        return []
    if not isinstance(frames, list) or not frames:
        raise ValueError(f"request carries no {key!r} list of frames")
    return [message_from_wire(frame) for frame in frames]


def _cases(payload: dict) -> list:
    """The checked messages of each case of ``payload["cases"]``, if any."""
    cases = payload.get("cases")
    if cases is None:
        return []
    if not isinstance(cases, list) or not cases or not all(
            isinstance(case, list) for case in cases):
        raise ValueError("request carries no 'cases' list of frame lists")
    return [[message_from_wire(frame) for frame in case] for case in cases]


class _RequestHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # each reply is one write; send it at once

    def handle(self):
        with self.server.session_lock:  # one owner session at a time
            sent = {}  # the observation fields last sent on this connection
            while True:
                try:
                    msg = read_frame(self.rfile.read)
                except (FrameError, OSError):
                    return  # malformed or broken stream: drop this client
                if msg is None:
                    return
                reply = _serve_request(self.server.cluster, msg, sent)
                try:
                    self.wfile.write(frame_encode(reply))
                except OSError:
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

    The server owns the virtual clock and runs the observation windows;
    this side only frames messages and checks the replies.  Each request
    gets exactly one reply frame, and a ``run()`` or ``run_cases()`` is one
    request however many loud windows it passes through.  ``reset()`` must
    be called before the first run (the proxy always does).  ``reset()``
    marks a reset as due and ``inject()`` queues its message; the next
    request carries both, but a reset that comes due drops the queue, as it
    overwrites all that the messages could change.  The first reset is a request of its
    own, and its reply sets the baseline ``term`` and ``window_ticks``.
    ``close()`` sends a reset or queue that no request has carried.

    Every reply but that to cases or to a run that stopped before its last
    message carries the observation taken last, and the transport keeps
    it.  The next ``observe()`` returns it, without a request, if nothing
    was sent, queued or made due since; so the baseline costs no request
    after the first reset, nor the snapshot after a whole run that finishes
    a case that a keep-alive stopped.  It is the snapshot a request of its
    own would read: the served cluster has one owner, and only a
    request changes it.  A reply carries only the observation's fields
    that changed since the last it carried, and the transport folds them
    into the fields it holds as soon as it reads the reply.
    """

    def __init__(self, address, timeout: float = 30.0):
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self.window_ticks: int | None = None
        self._term: int | None = None  # the baseline term of a fresh session
        self._reset_due = False
        self._injects = []  # wire frames for the next request to carry
        self._kept: ClusterObservation | None = None  # from the last reply
        self._fields = {}  # the observation fields the server last sent
        self._last: ClusterObservation | None = None  # built from them

    def close(self):
        try:
            if self._reset_due or self._injects:
                self._call({})
        finally:
            self._rfile.close()
            self._sock.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc):
        self.close()

    def reset(self) -> int:
        self._injects = []
        self._kept = None
        self._reset_due = True
        if self.window_ticks is None:
            self._call({})
        return self._term

    def run(self, msgs) -> tuple:
        if self.window_ticks is None:
            raise TransportError("run before the first reset")
        frames = list(msgs)
        done, observation = self._call({"frames": frames})
        delivered = done.get("delivered")
        windows, _ = _windows(done.get("events"), delivered, len(frames))
        if delivered == len(frames):
            self._kept = _carried(observation)
        elif observation is not None:
            raise TransportError("reply carries an observation, but its run stopped "
                                 "before its last message")
        return delivered, windows

    def run_cases(self, cases) -> list:
        if self.window_ticks is None:
            raise TransportError("run before the first reset")
        cases = [list(msgs) for msgs in cases]
        entries = self._call({"cases": cases})[0].get("cases")
        if not isinstance(entries, list) or not all(
                isinstance(entry, list) and len(entry) == 3 for entry in entries):
            self._fields, self._last = {}, None  # its observations are not folded
            raise TransportError("reply carries no list of [delivered, events, "
                                 "observation] cases")
        # Folded first, as a run's observation is.
        observations = [None if entry[2] is None else self._fold(entry[2])
                        for entry in entries]
        if not 1 <= len(entries) <= len(cases):
            raise TransportError("reply carries no case, or more than the request")
        ran = []
        for (delivered, events, _), frames, observation in zip(entries, cases, observations):
            windows, stopped = _windows(events, delivered, len(frames))
            if stopped != (observation is None):
                raise TransportError("reply case carries an observation if, and only "
                                     "if, no keep-alive window ended it")
            if ran and ran[-1][2] is None:
                raise TransportError("reply went on after a case that a keep-alive stopped")
            ran.append((delivered, windows, observation))
        if len(ran) < len(cases) and ran[-1][2] is not None:
            raise TransportError("reply cases stopped after a case without a keep-alive")
        return ran

    def inject(self, msg: dict):
        self._injects.append(msg)
        self._kept = None

    def observe(self) -> ClusterObservation:
        if self._kept is None:
            self._call({})
        kept, self._kept = self._kept, None
        return kept

    def _call(self, payload: dict) -> tuple:
        """One request, carrying the reset that is due and the queued
        injects; the payload of its ``__done__`` reply and the observation
        it carries, or None.  Each rides on exactly one request, and a
        failure of it surfaces from that one."""
        self._kept = None
        due = self._reset_due
        if due:
            payload["reset"] = True
            self._reset_due = False
        if self._injects:
            payload["inject"] = self._injects
            self._injects = []
        self._send(payload)
        done = self._read()
        # First: a reply refused below is folded too.
        observation = self._fold(done["observation"]) if "observation" in done else None
        if due:
            baseline = _baseline(done)
            if self.window_ticks is None:
                self.window_ticks, self._term = baseline
            elif baseline != (self.window_ticks, self._term):
                raise TransportError("reset reply differs from the first reset's "
                                     "window_ticks and term")
        if "frames" not in payload and "cases" not in payload:  # runs check their own
            self._kept = _carried(observation)
        return done, observation

    def _fold(self, delta) -> ClusterObservation:
        """The observation that the reply field ``delta`` gives, its fields
        folded into those held.  An empty one is the last as it is.  A
        malformed one empties the held fields, so that no later one builds
        on fields the server did not send."""
        if delta == {} and self._last is not None:
            return self._last
        try:
            if not isinstance(delta, dict):
                raise TypeError(f"observation is not an object: {delta!r}")
            self._last = ClusterObservation.fold(self._fields, delta)
        except (TypeError, ValueError) as exc:
            self._fields, self._last = {}, None
            raise TransportError(f"malformed observation reply: {exc!r}") from exc
        return self._last

    def _send(self, payload: dict):
        try:
            self._sock.sendall(frame_encode(_control(CTRL_REQUEST, payload)))
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
        kind, payload = msg["type"], msg["payload"]
        if kind == CTRL_ERROR:
            raise TransportError(payload.get("reason", "unspecified failure"))
        if kind != CTRL_DONE:
            raise TransportError(f"unexpected frame type {kind!r}")
        return payload


def _windows(events, delivered, count: int) -> tuple:
    """The windows of the ``events`` and ``delivered`` of a reply to a run of
    ``count`` messages, and whether a keep-alive window ended the run."""
    if not isinstance(events, list):
        raise TransportError("reply carries no event list")
    if not all(isinstance(event, list) and len(event) == 3 for event in events):
        raise TransportError("reply event is not an [index, tick, frame] triple")
    if not all(_is_int(index) and _is_int(tick) for index, tick, _ in events):
        raise TransportError("reply event carries no integer index and tick")
    if not _is_int(delivered) or not min(1, count) <= delivered <= count:
        raise TransportError("reply carries no delivered count within the request")
    windows, last = [], None
    for index, tick, frame in events:
        if index != last:
            if not (0 if last is None else last + 1) <= index < delivered:
                raise TransportError("reply event indices are not ascending "
                                     "and below the delivered count")
            windows.append((index, []))
            last = index
        windows[-1][1].append((tick, message_from_wire(frame)))
    stop = next((index for index, window in windows
                 if any(m["type"] in KEEPALIVE_WIRE_TYPES for _, m in window)), None)
    if stop is not None and stop != delivered - 1:
        raise TransportError("run went on after a keep-alive window")
    if stop is None and delivered < count:
        raise TransportError("run stopped after a window without a keep-alive")
    return windows, stop is not None


def _carried(observation: ClusterObservation | None) -> ClusterObservation:
    """``observation``, which a reply must carry."""
    if observation is None:
        raise TransportError("malformed observation reply: it carries none")
    return observation


def _baseline(done: dict) -> tuple:
    """``(window_ticks, term)`` of a reset's reply payload."""
    window, term = done.get("window_ticks"), done.get("term")
    if not _is_int(window) or window < 1:
        raise TransportError("reset reply carries no positive integer window_ticks")
    if not _is_int(term):
        raise TransportError("reset reply carries no integer term")
    return window, term
