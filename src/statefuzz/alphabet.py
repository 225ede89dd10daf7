"""Abstract message alphabet and wire codec for cluster East-West traffic.

The input alphabet is a finite set of abstract symbols covering the fourteen
message kinds exchanged between a cluster and a peer node (probe, bootstrap,
join, configure, vote, command, append), with every parameter drawn from a
small bounded domain so that the whole alphabet stays enumerable.  Outputs use
the same symbol shapes plus the reserved ``NoResponse`` letter, which is only
ever produced by window expiry and never travels on the wire.

``encode`` and ``decode`` are the one codec that the proxy, the simulator
and the TCP server share.  ``_ENCODERS`` builds each tag's payload and
``_DECODERS`` reads each message type's payload back.  The decode table is
the one source of payload shapes: which fields each message type's payload
must hold, checked in a fixed order, and the ``DecodeError`` text for the
first bad one, which the simulator sends back to the peer in ``__error__``
frames.

A concrete message is the object its frame carries: a dict with exactly the
keys ``FRAME_KEYS``, ``cluster_id``, ``sender``, ``ts``, ``type`` and
``payload``.  Wire format: a 4-byte big-endian length prefix followed by
that dict as UTF-8 canonical JSON (stable key order).
"""
from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from functools import cached_property

# Symbol tags, in stable enumeration order.
PREQ = "PReq"
PRES = "PRes"
BREQ = "BReq"
BRES = "BRes"
RJREQ = "RJReq"
RJRES = "RJRes"
RCONREQ = "RConReq"
RCONRES = "RConRes"
RVREQ = "RVReq"
RVRES = "RVRes"
RCOMREQ = "RComReq"
RCOMRES = "RComRes"
RAREQ = "RAReq"
RARES = "RARes"
NORESPONSE = "NoResponse"

TAG_ORDER = (
    PREQ, PRES, BREQ, BRES, RJREQ, RJRES, RCONREQ, RCONRES,
    RVREQ, RVRES, RCOMREQ, RCOMRES, RAREQ, RARES, NORESPONSE,
)
_TAG_INDEX = {t: i for i, t in enumerate(TAG_ORDER)}

WIRE_TYPES = {
    PREQ: "ProbeRequest",
    PRES: "ProbeResponse",
    BREQ: "BootstrapRequest",
    BRES: "BootstrapResponse",
    RJREQ: "RaftJoinRequest",
    RJRES: "RaftJoinResponse",
    RCONREQ: "RaftConfigureRequest",
    RCONRES: "RaftConfigureResponse",
    RVREQ: "RaftVoteRequest",
    RVRES: "RaftVoteResponse",
    RCOMREQ: "RaftCommandRequest",
    RCOMRES: "RaftCommandResponse",
    RAREQ: "RaftAppendRequest",
    RARES: "RaftAppendResponse",
}

# The tags a cluster sends as keep-alives, which the peer must answer:
# liveness probes and replication heartbeats.  ``is_keepalive`` reads the
# tags, and a transport run stops after any window holding their wire types.
KEEPALIVE_TAGS = frozenset((PREQ, RAREQ))
KEEPALIVE_WIRE_TYPES = frozenset(WIRE_TYPES[tag] for tag in KEEPALIVE_TAGS)

KNOWN = "known"
UNKNOWN = "unknown"
ALIVE = "alive"
DEAD = "dead"
TERM_HIGHER = "higher"
TERM_CURRENT = "current"
APPROVED = "approved"
REJECTED = "rejected"
DATA_APP = "app"
DATA_TOPO = "topo"
OP_ADD = "add"
OP_MODIFY = "modify"
OP_REMOVE = "remove"

FRAME_KEYS = ("cluster_id", "sender", "ts", "type", "payload")
_LEN_PREFIX = struct.Struct(">I")
MAX_FRAME_BYTES = 1 << 20


class ConfigError(ValueError):
    """Invalid alphabet or cluster configuration."""


class DecodeError(ValueError):
    """A message or frame could not be decoded.  Never silently dropped."""


class FrameError(DecodeError):
    """Byte-level framing violation (bad length prefix, junk bytes)."""


@dataclass(frozen=True)
class NodeRef:
    """A node identity plus whether it belongs to the configured member set."""

    id: str
    kind: str

    def __post_init__(self):
        if self.kind not in (KNOWN, UNKNOWN):
            raise ConfigError(f"bad NodeRef kind: {self.kind!r}")


@dataclass(frozen=True)
class Symbol:
    """An abstract input or output letter: a tag plus bounded parameters."""

    tag: str
    params: tuple = ()

    def __str__(self):
        return symbol_label(self)


NO_RESPONSE = Symbol(NORESPONSE)

OutputWord = tuple  # tuple[Symbol, ...]


@dataclass(frozen=True)
class AlphabetConfig:
    """Bounded domains that fix the concrete alphabet for one cluster."""

    members: tuple
    self_id: str
    cluster_id: str
    unknown_id: str = "nz"

    def __post_init__(self):
        if not self.members:
            raise ConfigError("member set must not be empty")
        if len(set(self.members)) != len(self.members):
            raise ConfigError("duplicate member ids")
        if self.self_id in self.members:
            raise ConfigError("self_id must not be a configured member")
        if self.unknown_id in self.members or self.unknown_id == self.self_id:
            raise ConfigError("unknown_id collides with a real node id")
        if not self.cluster_id:
            raise ConfigError("cluster_id must be non-empty")

    @property
    def known_ref(self) -> NodeRef:
        return self.node_ref(min(self.members))

    @property
    def unknown_ref(self) -> NodeRef:
        return self.node_ref(self.unknown_id)

    @property
    def self_ref(self) -> NodeRef:
        return self.node_ref(self.self_id)

    def node_ref(self, node_id: str) -> NodeRef:
        """The reference to ``node_id``, of kind known exactly for members.
        Each configured id (the members, ``self_id`` and ``unknown_id``) has
        one shared reference; any other id, such as one read off the wire,
        gets a fresh one, so no input grows the shared set."""
        ref = self._configured_refs.get(node_id)
        return NodeRef(node_id, UNKNOWN) if ref is None else ref

    @cached_property
    def _configured_refs(self) -> dict:
        refs = {node: NodeRef(node, UNKNOWN) for node in (self.self_id, self.unknown_id)}
        refs.update((node, NodeRef(node, KNOWN)) for node in self.members)
        return refs


def node_set_domain(cfg: AlphabetConfig) -> tuple:
    """The four node-set values used for bootstrap payloads."""
    members = tuple(sorted(cfg.members))
    return (
        (),
        (cfg.self_id,),
        members,
        tuple(sorted(members + (cfg.self_id,))),
    )


def input_domains(cfg: AlphabetConfig) -> dict:
    """Parameter domain per tag, in stable order.  Used by enumeration and
    by the mutation engine's argument swap."""
    any_node = (cfg.known_ref, cfg.unknown_ref, cfg.self_ref)
    sets = node_set_domain(cfg)
    return {
        PREQ: tuple((n,) for n in any_node),
        PRES: tuple((cfg.known_ref, s) for s in (ALIVE, DEAD)),
        BREQ: tuple((ns,) for ns in sets),
        BRES: tuple((ns,) for ns in sets),
        RJREQ: tuple((n,) for n in any_node),
        RJRES: ((),),
        RCONREQ: ((),),
        RCONRES: ((),),
        RVREQ: tuple(
            (n, t)
            for n in (cfg.known_ref, cfg.self_ref)
            for t in (TERM_HIGHER, TERM_CURRENT)
        ),
        RVRES: tuple((v,) for v in (APPROVED, REJECTED)),
        RCOMREQ: tuple(
            (d, o)
            for d in (DATA_APP, DATA_TOPO)
            for o in (OP_ADD, OP_MODIFY, OP_REMOVE)
        ),
        RCOMRES: ((),),
        RAREQ: ((),),
        RARES: ((),),
    }


def enumerate_input_alphabet(cfg: AlphabetConfig) -> list:
    """Every concrete input letter, fully expanded, in stable order."""
    domains = input_domains(cfg)
    out = []
    for tag in TAG_ORDER:
        if tag == NORESPONSE:
            continue
        for params in domains[tag]:
            out.append(Symbol(tag, params))
    return out


def symbol_sort_key(sym: Symbol):
    """Total order on letters: protocol tag order, then tag, then params."""
    return (_TAG_INDEX.get(sym.tag, len(TAG_ORDER)), sym.tag, _param_key(sym.params))


def _param_key(params) -> tuple:
    key = []
    for p in params:
        if isinstance(p, NodeRef):
            key.append(("n", p.id, p.kind))
        elif isinstance(p, tuple):
            key.append(("s",) + p)
        else:
            key.append(("v", str(p)))
    return tuple(key)


def symbol_label(sym: Symbol) -> str:
    """Short human-readable label, e.g. ``PReq(n1)`` or ``BReq({n1,n2})``."""
    if sym.tag == NORESPONSE:
        return "-"
    parts = []
    for p in sym.params:
        if isinstance(p, NodeRef):
            parts.append(p.id)
        elif isinstance(p, tuple):
            parts.append("{" + ",".join(p) + "}")
        else:
            parts.append(str(p))
    if not parts:
        return sym.tag
    return f"{sym.tag}({','.join(parts)})"


def is_keepalive(sym: Symbol, cfg: AlphabetConfig) -> bool:
    """Keep-alive traffic: liveness probes aimed at ourselves and bare
    replication heartbeats."""
    tag = sym.tag
    if tag == PREQ:
        return bool(sym.params) and sym.params[0].id == cfg.self_id
    return tag in KEEPALIVE_TAGS


def canonical_output(events, cfg: AlphabetConfig,
                     keepalives: list | None = None) -> OutputWord:
    """Collapse raw (tick, Symbol) events into one canonical word.

    The proxy passes the virtual tick at which each reply reached the peer;
    a message's own ``ts`` plays no part.  Events are ordered by
    that tick, with a stable symbol ordering as the tie-break.  Keep-alive
    symbols carry no protocol meaning and are filtered out; if
    ``keepalives`` is a list, they are appended to it in event order.  An
    empty collection yields ``(NoResponse,)``.
    """
    kept = []
    for event in events:
        if not is_keepalive(event[1], cfg):
            kept.append(event)
        elif keepalives is not None:
            keepalives.append(event[1])
    if len(kept) < 2:
        return (kept[0][1],) if kept else (NO_RESPONSE,)
    kept.sort(key=lambda e: (e[0], symbol_sort_key(e[1])))
    return tuple(sym for _, sym in kept)


# ---------------------------------------------------------------------------
# Abstract symbol <-> concrete message
# ---------------------------------------------------------------------------

def encode(sym: Symbol, ctx) -> dict:
    """Concretize an input symbol under a session context.

    ``ctx`` supplies identity (cluster_id, self_id), the logical clock and
    term tracking.  Every call consumes one logical timestamp, so timestamps
    strictly increase per sender session.
    """
    tag = sym.tag
    msg_type = WIRE_TYPES.get(tag)
    if msg_type is None:
        if tag == NORESPONSE:
            raise ConfigError("NoResponse is not an input symbol")
        raise ConfigError(f"unknown symbol tag: {tag!r}")
    payload = _ENCODERS[tag](sym.params, ctx)
    return {"cluster_id": ctx.cluster_id, "sender": ctx.self_id, "ts": ctx.next_ts(),
            "type": msg_type, "payload": payload}


def _no_payload(params, ctx) -> dict:
    return {}


# Tag -> the payload of a letter under a session context.
_ENCODERS = {
    PREQ: lambda params, ctx: {"target": params[0].id},
    PRES: lambda params, ctx: {"node": params[0].id, "status": params[1]},
    BREQ: lambda params, ctx: {"nodes": list(params[0])},
    BRES: lambda params, ctx: {"nodes": list(params[0])},
    RJREQ: lambda params, ctx: {"node": params[0].id},
    RJRES: _no_payload,
    RCONREQ: _no_payload,
    RCONRES: _no_payload,
    RVREQ: lambda params, ctx: {"candidate": params[0].id, "term": ctx.vote_term(params[1]),
                                "base_term": ctx.observed_leader_term},
    RVRES: lambda params, ctx: {"verdict": params[0]},
    RCOMREQ: lambda params, ctx: {"data": params[0], "op": params[1]},
    RCOMRES: _no_payload,
    RAREQ: lambda params, ctx: {"term": ctx.observed_leader_term, "entries": []},
    RARES: _no_payload,
}


def decode(msg: dict, cfg: AlphabetConfig) -> Symbol:
    """Map a concrete message back to its abstract symbol.

    Node ids outside the configured member set decode with kind=unknown.
    Unknown message types and malformed payloads raise DecodeError; nothing
    is silently dropped.  ``NoResponse`` is never decoded from the wire.
    """
    msg_type = msg["type"]
    entry = _DECODERS.get(msg_type)
    if entry is None:
        raise DecodeError(f"unknown message type: {msg_type!r}")
    p = msg["payload"]
    if not isinstance(p, dict):
        raise DecodeError("payload must be an object")
    tag, read = entry
    try:
        return Symbol(tag, read(p, cfg))
    except (KeyError, TypeError) as exc:  # defensive: malformed payload shapes
        raise DecodeError(f"malformed payload for {msg_type}: {exc}") from exc


def _probe_request(p: dict, cfg: AlphabetConfig) -> tuple:
    return (cfg.node_ref(_req_str(p, "target")),)


def _probe_response(p: dict, cfg: AlphabetConfig) -> tuple:
    status = _req_str(p, "status")
    if status not in (ALIVE, DEAD):
        raise DecodeError(f"bad probe status: {status!r}")
    return (cfg.node_ref(_req_str(p, "node")), status)


def _node_set(p: dict, cfg: AlphabetConfig) -> tuple:
    nodes = p.get("nodes")
    if not isinstance(nodes, list):
        raise DecodeError("bootstrap payload needs a list of node ids")
    for node in nodes:
        if not isinstance(node, str):
            raise DecodeError("bootstrap payload needs a list of node ids")
    return (tuple(sorted(nodes)),)


def _join_request(p: dict, cfg: AlphabetConfig) -> tuple:
    return (cfg.node_ref(_req_str(p, "node")),)


def _vote(p: dict, cfg: AlphabetConfig) -> tuple:
    term = _req_int(p, "term")
    base = _req_int(p, "base_term")
    kind = TERM_HIGHER if term > base else TERM_CURRENT
    return (cfg.node_ref(_req_str(p, "candidate")), kind)


def _vote_response(p: dict, cfg: AlphabetConfig) -> tuple:
    verdict = _req_str(p, "verdict")
    if verdict not in (APPROVED, REJECTED):
        raise DecodeError(f"bad vote verdict: {verdict!r}")
    return (verdict,)


def _command(p: dict, cfg: AlphabetConfig) -> tuple:
    data = _req_str(p, "data")
    op = _req_str(p, "op")
    if data not in (DATA_APP, DATA_TOPO) or op not in (OP_ADD, OP_MODIFY, OP_REMOVE):
        raise DecodeError(f"bad command parameters: {data!r}/{op!r}")
    return (data, op)


def _no_params(p: dict, cfg: AlphabetConfig) -> tuple:
    return ()


# Wire type -> (tag, reader).  The one source of what each message type's
# payload must hold: a reader checks the fields in a fixed order, raises
# DecodeError at the first that is missing, of the wrong type or out of its
# domain, and returns the letter's parameters, each node as ``cfg.node_ref``
# gives it.  Fields a reader does not name are ignored.
_DECODERS = {WIRE_TYPES[tag]: (tag, read) for tag, read in (
    (PREQ, _probe_request),
    (PRES, _probe_response),
    (BREQ, _node_set),
    (BRES, _node_set),
    (RJREQ, _join_request),
    (RJRES, _no_params),
    (RCONREQ, _no_params),
    (RCONRES, _no_params),
    (RVREQ, _vote),
    (RVRES, _vote_response),
    (RCOMREQ, _command),
    (RCOMRES, _no_params),
    (RAREQ, _no_params),
    (RARES, _no_params),
)}


def _is_int(value) -> bool:
    """Whether ``value`` is an integer other than a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_list(value, valid) -> bool:
    """Whether ``value`` is a list whose items all pass ``valid``."""
    return isinstance(value, list) and all(map(valid, value))


def _req_str(payload: dict, key: str) -> str:
    val = payload.get(key)
    if not isinstance(val, str):
        raise DecodeError(f"payload field {key!r} must be a string")
    return val


def _req_int(payload: dict, key: str) -> int:
    val = payload.get(key)
    if not _is_int(val):
        raise DecodeError(f"payload field {key!r} must be an integer")
    return val


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

# ``json.dumps`` with options builds a new encoder on every call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def frame_encode(msg: dict) -> bytes:
    """Length-prefixed canonical JSON frame for one message."""
    body = _canonical_json(msg).encode("utf-8")
    return _LEN_PREFIX.pack(len(body)) + body


def frame_decode(data: bytes) -> dict:
    """Parse exactly one frame.  Trailing bytes are a framing error."""
    stream = io.BytesIO(data)
    msg = read_frame(stream.read)
    if msg is None:
        raise FrameError("no frame in empty input")
    rest = len(data) - stream.tell()
    if rest:
        raise FrameError(f"{rest} trailing bytes after frame")
    return msg


def message_from_wire(obj) -> dict:
    """Validate one decoded wire object; the message, with exactly the keys
    ``FRAME_KEYS``."""
    if not isinstance(obj, dict):
        raise FrameError("frame body must be a JSON object")
    missing = [k for k in FRAME_KEYS if k not in obj]
    if missing:
        raise FrameError(f"frame missing keys: {missing}")
    if not isinstance(obj["cluster_id"], str) or not isinstance(obj["sender"], str):
        raise FrameError("cluster_id and sender must be strings")
    if not isinstance(obj["type"], str):
        raise FrameError("type must be a string")
    if not _is_int(obj["ts"]):
        raise FrameError("ts must be an integer")
    if not isinstance(obj["payload"], dict):
        raise FrameError("payload must be an object")
    if len(obj) == len(FRAME_KEYS):
        return obj
    return {k: obj[k] for k in FRAME_KEYS}


def read_frame(read) -> dict | None:
    """Read one frame through ``read(n) -> bytes`` (a blocking reader that
    returns fewer bytes only at end of stream).  Returns None on a clean end
    of stream at a frame boundary; raises FrameError if the stream ends
    mid-frame or the frame itself is invalid."""
    header = read(_LEN_PREFIX.size)
    if not header:
        return None
    if len(header) < _LEN_PREFIX.size:
        raise FrameError("stream ended inside length prefix")
    (length,) = _LEN_PREFIX.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared frame length {length} exceeds cap")
    body = read(length)
    if len(body) < length:
        raise FrameError("stream ended inside frame body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not canonical JSON: {exc}") from exc
    return message_from_wire(obj)


# ---------------------------------------------------------------------------
# JSON-friendly symbol serialization (reports, stored machines, transcripts)
# ---------------------------------------------------------------------------

def symbol_to_obj(sym: Symbol) -> dict:
    params = []
    for p in sym.params:
        if isinstance(p, NodeRef):
            params.append({"node": p.id, "kind": p.kind})
        elif isinstance(p, tuple):
            params.append({"set": list(p)})
        else:
            params.append(p)
    return {"tag": sym.tag, "params": params}


def symbol_from_obj(obj: dict) -> Symbol:
    """Inverse of :func:`symbol_to_obj`; any other shape is a ``DecodeError``."""
    if (not isinstance(obj, dict) or not isinstance(obj.get("tag"), str)
            or not isinstance(obj.get("params"), list)):
        raise DecodeError(f"bad symbol object: {obj!r}")
    return Symbol(obj["tag"], tuple(_param_from_obj(p) for p in obj["params"]))


def _param_from_obj(p):
    if isinstance(p, str):
        return p
    if isinstance(p, dict) and isinstance(p.get("node"), str):
        return NodeRef(p["node"], p.get("kind", UNKNOWN))
    if isinstance(p, dict) and _is_list(p.get("set"), _is_str):
        return tuple(sorted(p["set"]))
    raise DecodeError(f"bad symbol parameter: {p!r}")


def word_to_obj(word) -> list:
    return [symbol_to_obj(s) for s in word]


def word_from_obj(objs) -> tuple:
    return tuple(symbol_from_obj(o) for o in objs)
