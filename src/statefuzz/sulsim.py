"""Deterministic simulated controller cluster driven by a virtual clock.

The simulator is the reference system under learning: a small cluster of
member nodes with an elected leader, liveness probing of an admitted peer, a
replicated app store, and a switch topology with static mastership.  All
activity runs on discrete virtual ticks from a seeded RNG, so cluster state
and the emitted message stream are a pure function of (config, seed,
injected trace).  A handle starts converged: its bootstrap election is
computed, not simulated.  Timers sleep while they have nothing to do: the
liveness round is armed when a peer is admitted and the session reaper when
a session opens, each on the tick grid it would keep if it always ran.

External peer sessions follow a strict handshake ladder:

    fresh -> configured (valid bootstrap info) -> join-wait (RaftJoinRequest)
          -> vote-seen (RaftVoteRequest) -> sync-probed (RaftCommandRequest)

Out-of-order protocol operations, spoofed death claims and append-stream
impersonation put the session into lockdown, where only liveness answers
survive.  Six vulnerability classes can be enabled as feature flags; each
converts one hardened reaction into the corresponding exploitable behavior
(admitting unknown joiners, trusting higher-term votes, per-request session
allocation, store clearing, trusting death gossip, unverified link updates).
"""
from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from functools import cached_property

from .alphabet import (
    ALIVE, BREQ, BRES, DATA_APP, DATA_TOPO, DEAD, OP_ADD, OP_REMOVE, PREQ,
    PRES, RAREQ, RARES, RCOMREQ, RCOMRES, RCONREQ, RCONRES, RJREQ, RJRES,
    RVREQ, RVRES, APPROVED, REJECTED, FRAME_KEYS, AlphabetConfig,
    ConfigError, DecodeError, KEEPALIVE_WIRE_TYPES, Symbol, WIRE_TYPES, _is_int,
    _is_str, decode,
)

VULN_UNAUTH_JOIN = "unauth_join"
VULN_SEIZE_LEADER = "seize_leader"
VULN_SESSION_FLOOD = "session_flood"
VULN_CLEAR_STORE = "clear_store"
VULN_FAKE_MEMBER = "fake_member"
VULN_FAKE_LINK = "fake_link"

ALL_VULNERABILITIES = frozenset(
    {
        VULN_UNAUTH_JOIN,
        VULN_SEIZE_LEADER,
        VULN_SESSION_FLOOD,
        VULN_CLEAR_STORE,
        VULN_FAKE_MEMBER,
        VULN_FAKE_LINK,
    }
)

BASE_NODE_LOAD = 2
BASELINE_TERM = 1  # the term the bootstrap election always ends in
ERROR_TYPE = "__error__"
_FRAME_KEY_SET = frozenset(FRAME_KEYS)
# The switches' real links, and the link a forged topology add fabricates
# under ``fake_link``.
REAL_LINKS = (("a1", "a2"), ("a2", "b1"), ("b1", "b2"))
FAKE_LINK = ("a2", "b2")


class SimulationError(RuntimeError):
    """Internal invariant broke (e.g. two leaders in one term)."""


@dataclass(frozen=True)
class ClusterConfig:
    """Static cluster deployment description."""

    members: tuple = ("n1", "n2", "n3", "n4")
    cluster_id: str = "sdwan"
    heartbeat_threshold: int = 5
    election_timeout_range: tuple = (10, 20)
    vulnerabilities: frozenset = frozenset()
    seed: int = 42
    apps: tuple = ("fwd", "stats", "acl")

    def __post_init__(self):
        if len(self.members) < 3:
            raise ConfigError("quorum impossible: need at least 3 members")
        if len(set(self.members)) != len(self.members):
            raise ConfigError("duplicate member ids")
        lo, hi = self.election_timeout_range
        if lo <= self.heartbeat_threshold:
            raise ConfigError("election timeout must exceed heartbeat threshold")
        if hi < lo:
            raise ConfigError("bad election timeout range")
        if hi - lo + 1 < len(self.members):
            raise ConfigError("election timeout range too narrow for distinct deadlines")
        if self.heartbeat_threshold < 2:
            raise ConfigError("heartbeat threshold must be at least 2 ticks")
        bad = set(self.vulnerabilities) - ALL_VULNERABILITIES
        if bad:
            raise ConfigError(f"unknown vulnerability flags: {sorted(bad)}")

    @property
    def ttl(self) -> int:
        return 4 * self.heartbeat_threshold

    @property
    def reap_interval(self) -> int:
        return 2 * self.heartbeat_threshold

    def digest(self) -> str:
        """Short identity of the whole configuration, every field included."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "cluster_id": self.cluster_id,
            "heartbeat_threshold": self.heartbeat_threshold,
            "election_timeout_range": list(self.election_timeout_range),
            "vulnerabilities": sorted(self.vulnerabilities),
            "seed": self.seed,
            "apps": list(self.apps),
        }


def default_alphabet(cfg: ClusterConfig, self_id: str = "dummy",
                     unknown_id: str = "nz") -> AlphabetConfig:
    """The alphabet induced by a cluster config plus a dummy-node identity."""
    return AlphabetConfig(
        members=tuple(sorted(cfg.members)),
        self_id=self_id,
        cluster_id=cfg.cluster_id,
        unknown_id=unknown_id,
    )


def _is_map(value, valid) -> bool:
    """Whether ``value`` is a dict with str keys whose values pass ``valid``."""
    return isinstance(value, dict) and all(
        isinstance(k, str) and valid(v) for k, v in value.items())


def _is_seq(value, valid) -> bool:
    """Whether ``value`` is a list, or the tuple that an observation's
    ``to_dict`` keeps, whose items all pass ``valid``."""
    return isinstance(value, (list, tuple)) and all(map(valid, value))


# What each field of an observation's dict form must hold.
_OBSERVATION_FIELDS = {
    "leader": lambda v: v is None or _is_str(v),
    "term": _is_int,
    "membership": lambda v: _is_map(v, _is_str),
    "apps": lambda v: _is_seq(v, _is_str),
    "links": lambda v: _is_seq(v, lambda l: _is_seq(l, _is_str) and len(l) == 2),
    "reachability": lambda v: _is_map(
        v, lambda row: _is_map(row, lambda ok: isinstance(ok, bool))),
    "sessions_open": _is_int,
    "resource_load": lambda v: _is_map(v, _is_int),
    "origin": _is_str,
}


@dataclass
class ClusterObservation:
    """Externally visible cluster health snapshot.  Pure data, no handles."""

    leader: str | None
    term: int
    membership: dict
    apps: tuple
    links: tuple
    reachability: dict
    sessions_open: int
    resource_load: dict
    origin: str

    def to_dict(self) -> dict:
        # Shallow: ``dataclasses.asdict`` deep-copies every value, which
        # costs ten times the frame encode of the TCP reply that carries it.
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterObservation":
        """Inverse of :meth:`to_dict`: the fold of ``doc`` onto nothing."""
        return cls.fold({}, doc)

    @classmethod
    def fold(cls, fields: dict, doc: dict) -> "ClusterObservation":
        """Write the fields of ``doc``, the dict form of an observation or
        any part of it, into ``fields``, and return the observation they
        then hold.  Only the fields of ``doc`` are checked.  A field that is
        unknown, of the wrong type or shape, or still missing raises
        ``ValueError``, and ``fields`` may then hold part of ``doc``."""
        for key, value in doc.items():
            valid = _OBSERVATION_FIELDS.get(key)
            if valid is None or not valid(value):
                raise ValueError(f"observation field {key!r} is unknown or malformed: "
                                 f"{value!r}")
            fields[key] = value
        if "apps" in doc:
            fields["apps"] = tuple(doc["apps"])
        if "links" in doc:
            fields["links"] = tuple(map(tuple, doc["links"]))
        if len(fields) < len(_OBSERVATION_FIELDS):
            raise ValueError(f"observation lacks {sorted(_OBSERVATION_FIELDS.keys() - fields)}")
        return cls(**fields)


@dataclass
class _DummyPeer:
    address: str | None = None
    configured: bool = False   # valid member list presented
    join_wait: bool = False    # join request on file
    vote_seen: bool = False    # vote exchange recorded
    sync_probed: bool = False  # first command attempt recorded
    locked: bool = False       # hostile or out-of-order behavior
    admitted: bool = False     # full member (requires unauth_join)
    is_leader: bool = False    # seized leadership (requires seize_leader)


class ClusterHandle:
    """One live simulated cluster.  Use :func:`spawn_cluster` to create."""

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self._members = frozenset(cfg.members)
        self.window_ticks = cfg.heartbeat_threshold
        self._decode_cfg = default_alphabet(cfg, self_id="__sim_peer__",
                                            unknown_id="__sim_nz__")
        self._restore({"now": 0, "seq": 0, "events": [], "leader_id": None,
                       "cluster_term": 0, "leaders_by_term": {}, "apps": cfg.apps})
        # The bootstrap election is computed, not simulated.  Seeded timeouts
        # are distinct, so when the first candidate's vote requests land at
        # first + 1, at most one other member is a candidate; every other
        # member grants.  n - 1 of n votes win term 1 at first + 2, and the
        # vote traffic drains in 2 more ticks.
        rng = random.Random(cfg.seed)
        lo, hi = cfg.election_timeout_range
        deadlines = rng.sample(range(lo, hi + 1), len(cfg.members))
        first = min(deadlines)
        self._set_leader(cfg.members[deadlines.index(first)], BASELINE_TERM)
        self.tick(first + 4)
        self._steady_snapshot = self._snapshot()

    # -- transport contract (see proxy.py) ---------------------------------

    def reset(self) -> int:
        """Restore the converged baseline ``__init__`` reached: one leader,
        no session state and no timer pending.  Returns the term."""
        self._restore(self._steady_snapshot)
        return self.cluster_term

    def exchange(self, msg: dict) -> list:
        """Deliver ``msg``; return [(tick, message)] emitted to the external
        peer during the ``window_ticks`` that follow."""
        self.deliver(msg)
        return self.tick(self.window_ticks)

    def run(self, msgs) -> tuple:
        """Exchange the messages of the iterable ``msgs`` (at least one) in
        turn, up to the first window that holds a keep-alive wire type,
        which the peer may have to answer before the next message.  Each
        message is taken as it is delivered, so none past that window is
        taken.  Return how many were delivered and ``[(index, window)]`` for
        every window in which anything reached the external peer, ``index``
        being its message's position in ``msgs``."""
        loud = []
        index = -1
        for index, msg in enumerate(msgs):
            window = self.exchange(msg)
            if window:
                loud.append((index, window))
                for _, sent in window:
                    if sent["type"] in KEEPALIVE_WIRE_TYPES:
                        return index + 1, loud
        return index + 1, loud

    def run_cases(self, cases):
        """For each case of the iterable ``cases``, an iterable of messages,
        ``reset()`` and ``run`` its messages, and yield ``(delivered,
        windows, observation)``.  After a case whose last window holds a
        keep-alive, the peer's answers must reach the cluster before its
        snapshot: its observation is None and no case after it is run.
        Each case is taken as it is run."""
        for msgs in cases:
            self.reset()
            delivered, loud = self.run(msgs)
            if loud and any(sent["type"] in KEEPALIVE_WIRE_TYPES for _, sent in loud[-1][1]):
                yield delivered, loud, None
                return
            yield delivered, loud, self.observe()

    def inject(self, msg: dict):
        """Deliver ``msg`` without opening an observation window."""
        self.deliver(msg)

    # -- snapshots ---------------------------------------------------------

    def _snapshot(self):
        # Taken only in ``__init__``: the peer has sent nothing, so no reply is pending.
        return {
            "now": self.now,
            "seq": self._seq,
            "events": list(self._events),
            "leader_id": self.leader_id,
            "cluster_term": self.cluster_term,
            "leaders_by_term": dict(self.leaders_by_term),
            "apps": list(self.apps),
        }

    def _restore(self, snap):
        """Set every state field: those of ``snap``, and empty session state."""
        self.now = snap["now"]
        self._seq = snap["seq"]
        self._events = list(snap["events"])
        self._replies = []
        self._emit_ts = 0
        self._last_in_ts = {}
        self.leader_id = snap["leader_id"]
        self.cluster_term = snap["cluster_term"]
        self.leaders_by_term = dict(snap["leaders_by_term"])
        self.apps = list(snap["apps"])
        self.link_forged = False
        self.sessions = []
        self.dead_marks = {}
        self.dummy = _DummyPeer()

    # -- virtual clock -----------------------------------------------------

    def tick(self, n: int = 1):
        """Advance the clock ``n`` ticks; return [(tick, message)] that reached
        the external peer during the advance.  A reply reaches the peer one
        tick after it is emitted, before that tick's timers fire.

        A tick with no reply in flight and no timer due changes nothing, so
        while no reply is in flight the clock jumps straight to the next
        timer, or to the end of the advance if that comes first.  Every
        timer is set for a later tick than the one that sets it, so the
        jump never goes backwards.  An advance in which nothing happens,
        such as most observation windows, is one jump."""
        events = self._events
        end = self.now + n
        if not self._replies and (not events or events[0][0] > end):
            if n > 0:  # nothing happens in the advance
                self.now = end
            return []
        out = []
        while self.now < end:
            replies = self._replies
            if replies:
                self.now = now = self.now + 1
                out += [(now, msg) for msg in replies]
                self._replies = []
            else:
                self.now = min(end, events[0][0]) if events else end
            while events and events[0][0] <= self.now:
                _, _, handler, args = heapq.heappop(events)
                handler(*args)
        return out

    def _schedule(self, at: int, handler, *args):
        self._seq += 1
        heapq.heappush(self._events, (at, self._seq, handler, args))

    def _arm(self, period: int, handler):
        """Schedule ``handler`` on the next multiple of ``period`` after now:
        the tick it would fire on had it run every ``period`` ticks since
        tick 0."""
        self._schedule((self.now // period + 1) * period, handler)

    # -- timer handlers ----------------------------------------------------

    def _set_leader(self, leader, term):
        if term < self.cluster_term:
            raise SimulationError("term went backwards")
        prior = self.leaders_by_term.get(term)
        if prior is not None and prior != leader:
            raise SimulationError(f"two leaders in term {term}: {prior}, {leader}")
        self.leaders_by_term[term] = leader
        self.leader_id = leader
        self.cluster_term = term
        self.dummy.is_leader = leader not in self._members

    def _swim_round(self):
        # Liveness probing between members is not modeled; a round only
        # probes the dummy peer, armed once it is admitted (see ``_admit``).
        self._emit(PREQ, target=self.dummy.address)
        self._emit(RAREQ, term=self.cluster_term, entries=[])
        self._schedule(self.now + self.cfg.heartbeat_threshold, self._swim_round)

    def _session_reap(self):
        # Armed when the first session opens; runs while any remains.
        if self.now - self.sessions[0] >= self.cfg.ttl:
            self.sessions.pop(0)
        if self.sessions:
            self._schedule(self.now + self.cfg.reap_interval, self._session_reap)

    def _heal_member(self, node, mark):
        if self.dead_marks.get(node) == mark:
            del self.dead_marks[node]

    # -- message intake ----------------------------------------------------

    def deliver(self, msg: dict):
        """Inject one external message.  Replies surface via :meth:`tick`.

        Malformed messages are rejected with an error emission, never
        silently dropped and never fatal to the cluster.
        """
        if not isinstance(msg, dict) or msg.keys() != _FRAME_KEY_SET:
            raise TypeError(f"deliver expects a message with exactly the keys {FRAME_KEYS}")
        sender, ts, cluster_id = msg["sender"], msg["ts"], msg["cluster_id"]
        if cluster_id != self.cfg.cluster_id:
            self._reject(f"wrong cluster id {cluster_id!r}")
            return
        if not sender or sender in self._members:
            self._reject(f"bad sender {sender!r}")
            return
        last = self._last_in_ts.get(sender)
        if last is not None and ts <= last:
            self._reject(f"non-monotonic ts {ts} from {sender}")
            return
        self._last_in_ts[sender] = ts
        try:
            sym = decode(msg, self._decode_cfg)
        except DecodeError as exc:
            self._reject(str(exc))
            return
        self.dummy.address = sender
        self._react(msg, sym)

    def _reject(self, reason: str):
        self._emit_raw(ERROR_TYPE, {"reason": reason})

    def _admit(self):
        self.dummy.admitted = True
        self._arm(self.cfg.heartbeat_threshold, self._swim_round)

    # -- protocol reaction -------------------------------------------------

    def _react(self, msg: dict, sym: Symbol):
        tag = sym.tag
        vulns = self.cfg.vulnerabilities
        d = self.dummy
        members = self._members

        if tag == PREQ:
            target = sym.params[0].id
            if target == msg["sender"]:
                # Contact announcement: liveness ack plus bootstrap invite.
                invite = tuple(sorted(members)) if VULN_UNAUTH_JOIN in vulns else ()
                self._emit(PRES, node=target, status=ALIVE)
                self._emit(BREQ, nodes=list(invite))
            elif target in members:
                if not d.locked and not (d.join_wait and not d.admitted):
                    status = DEAD if target in self.dead_marks else ALIVE
                    self._emit(PRES, node=target, status=status)
            return

        if tag == PRES:
            node, status = sym.params[0].id, sym.params[1]
            if status == DEAD and node in members:
                if VULN_FAKE_MEMBER in vulns:
                    self.dead_marks[node] = self.now
                    self._schedule(self.now + 2 * self.cfg.heartbeat_threshold,
                                   self._heal_member, node, self.now)
                elif not d.locked:
                    # Hardened behavior: indirect probes refute the claim and
                    # the gossiping peer is distrusted.
                    d.locked = True
            return

        if tag in (BREQ, BRES):
            if d.locked:
                return
            presented = set(sym.params[0])
            if members <= presented:
                d.configured = True
            if tag == BREQ:
                content = sorted(members) if VULN_UNAUTH_JOIN in vulns else []
                self._emit(BRES, nodes=content)
            elif VULN_UNAUTH_JOIN in vulns and d.configured and d.join_wait and not d.admitted:
                self._admit()
                self._emit(RJRES)
            return

        if tag == RJREQ:
            if d.locked or sym.params[0].id != msg["sender"]:
                return
            if VULN_UNAUTH_JOIN in vulns:
                if d.admitted:
                    self._emit(RJRES)
                elif d.configured:
                    self._admit()
                    self._emit(RJRES)
                else:
                    d.join_wait = True
            elif d.configured:
                d.join_wait = True  # held for evaluation, never granted
            else:
                d.locked = True  # join before configuration is hostile
            return

        if tag == RCONREQ:
            if not d.locked and (d.configured or d.admitted):
                self._emit(RCONRES)
            return

        if tag == RVREQ:
            if d.locked:
                return
            term = msg["payload"]["term"]
            candidate = sym.params[0].id
            if VULN_SEIZE_LEADER in vulns and term > self.cluster_term:
                new_leader = candidate if candidate in members else msg["sender"]
                self._set_leader(new_leader, term)
                self._emit(RVRES, verdict=APPROVED)
            elif d.join_wait and not d.vote_seen:
                d.vote_seen = True
                self._emit(RVRES, verdict=REJECTED)
            elif d.vote_seen:
                pass  # ballot already recorded for this evaluation
            else:
                self._emit(RVRES, verdict=REJECTED)
            return

        if tag == RCOMREQ:
            if d.locked:
                return
            data, op = sym.params
            consumed = False
            if VULN_SESSION_FLOOD in vulns:
                if not self.sessions:
                    self._arm(self.cfg.reap_interval, self._session_reap)
                self.sessions.append(self.now)
                consumed = True
            if VULN_CLEAR_STORE in vulns and (data, op) == (DATA_APP, OP_REMOVE):
                self.apps = []
                consumed = True
            if VULN_FAKE_LINK in vulns and (data, op) == (DATA_TOPO, OP_ADD):
                self.link_forged = True
                consumed = True
            if consumed or d.admitted:
                self._emit(RCOMRES)
            elif d.join_wait and d.vote_seen and not d.sync_probed:
                d.sync_probed = True
            else:
                d.locked = True
            return

        if tag == RAREQ:
            if d.locked:
                return
            if d.is_leader:
                self._emit(RARES)
            elif not d.admitted:
                d.locked = True  # append-stream impersonation
            return

        # Response-type letters (RJRes, RConRes, RVRes, RComRes, RARes) and
        # alive gossip arriving unsolicited are ignored.

    # -- emission ----------------------------------------------------------

    @property
    def _host(self) -> str:
        """Member that answers the peer and hosts its sessions: the leader, else members[0]."""
        return self.leader_id if self.leader_id in self._members else self.cfg.members[0]

    def _emit(self, tag: str, **payload):
        self._emit_raw(WIRE_TYPES[tag], payload)

    def _emit_raw(self, msg_type: str, payload: dict):
        self._emit_ts += 1
        self._replies.append({"cluster_id": self.cfg.cluster_id, "sender": self._host,
                              "ts": self._emit_ts, "type": msg_type, "payload": payload})

    # -- observation -------------------------------------------------------

    def observe(self) -> ClusterObservation:
        """Health snapshot.  Pure read, no clock movement, no side effects."""
        membership = {
            m: (DEAD if m in self.dead_marks else ALIVE) for m in self.cfg.members
        }
        if self.dummy.admitted and self.dummy.address:
            membership[self.dummy.address] = ALIVE
        links = tuple(sorted(REAL_LINKS + (FAKE_LINK,))) if self.link_forged else REAL_LINKS
        host = self._host
        load = {m: BASE_NODE_LOAD + (len(self.sessions) if m == host else 0)
                for m in self.cfg.members}
        return ClusterObservation(
            leader=self.leader_id,
            term=self.cluster_term,
            membership=membership,
            apps=tuple(self.apps),
            links=links,
            reachability=self._reachability(),
            sessions_open=len(self.sessions),
            resource_load=load,
            origin=self.cfg.digest(),
        )

    def _reachability(self) -> dict:
        # Switches a1 and a2 are mastered by members[0], b1 and b2 by
        # members[1] (config order).  The forged a2-b2 link is shorter than
        # the real a2-b1-b2 path, so while it exists exactly the verdicts
        # between members[0] and members[1] flip; all others stay true.
        cut = set(self.cfg.members[:2]) if self.link_forged else set()
        return {a: {b: {a, b} != cut for b in self.cfg.members}
                for a in self.cfg.members}

    def session_fingerprint(self) -> tuple:
        """Canonical projection of everything that shapes replies to the
        external peer.  Used by exhaustive model construction in tests.

        The term enters only as whether it left the baseline.  For sessions
        driven by the proxy (``SessionContext.vote_term``) that is a
        bisimulation: only the proxy's "higher" ballots move the term, a
        "current" ballot (the baseline term) is never above it, and a
        "higher" one is above every term the cluster has taken."""
        d = self.dummy
        return (
            d.configured, d.join_wait, d.vote_seen, d.sync_probed, d.locked,
            d.admitted, d.is_leader, self.leader_id,
            self.cluster_term != BASELINE_TERM,
            tuple(sorted(self.dead_marks)), tuple(self.apps),
            self.link_forged,
        )


def spawn_cluster(cfg: ClusterConfig) -> ClusterHandle:
    """Create a cluster at its converged baseline, the state ``reset()``
    restores: the bootstrap leader elected, no timer pending."""
    return ClusterHandle(cfg)
