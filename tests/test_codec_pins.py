"""The symbol codec, pinned letter by letter and error by error.

``encode`` and ``decode`` are the one codec that the proxy, the simulator
and the TCP server share.  These tables were recorded from an earlier
build: each of the 34 letters of the default alphabet encodes to the same
canonical JSON and decodes to the same letter, under the proxy's alphabet
and under the simulator's, and each malformed payload fails with the same
``DecodeError`` text.  The simulator sends that text back to the peer in
``__error__`` reply frames, so it is behaviour, not decoration.
"""
from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from statefuzz.alphabet import (
    FRAME_KEYS, KNOWN, RVREQ, TERM_HIGHER, DecodeError, NodeRef, Symbol, decode,
    encode, enumerate_input_alphabet, symbol_label,
)
from statefuzz.proxy import SessionContext
from statefuzz.sulsim import ClusterConfig, default_alphabet, spawn_cluster

from helpers import message

CLUSTER = ClusterConfig()
PROXY_CFG = default_alphabet(CLUSTER)
SIM_CFG = spawn_cluster(CLUSTER)._decode_cfg
LETTERS = {symbol_label(sym): sym for sym in enumerate_input_alphabet(PROXY_CFG)}

# label -> (wire type, payload under a fresh session, payload after the
# session sent a higher-term vote (None: the same), the decoded letter).
# The decoded letter is written with each node's kind; both alphabets
# decode every letter alike.
CODEC = {
    "PReq(n1)": ("ProbeRequest", '{"target":"n1"}', None, "PReq(n1:known)"),
    "PReq(nz)": ("ProbeRequest", '{"target":"nz"}', None, "PReq(nz:unknown)"),
    "PReq(dummy)": ("ProbeRequest", '{"target":"dummy"}', None, "PReq(dummy:unknown)"),
    "PRes(n1,alive)": ("ProbeResponse", '{"node":"n1","status":"alive"}', None,
                       "PRes(n1:known,alive)"),
    "PRes(n1,dead)": ("ProbeResponse", '{"node":"n1","status":"dead"}', None,
                      "PRes(n1:known,dead)"),
    "BReq({})": ("BootstrapRequest", '{"nodes":[]}', None, "BReq({})"),
    "BReq({dummy})": ("BootstrapRequest", '{"nodes":["dummy"]}', None, "BReq({dummy})"),
    "BReq({n1,n2,n3,n4})": ("BootstrapRequest", '{"nodes":["n1","n2","n3","n4"]}', None,
                            "BReq({n1,n2,n3,n4})"),
    "BReq({dummy,n1,n2,n3,n4})": ("BootstrapRequest",
                                  '{"nodes":["dummy","n1","n2","n3","n4"]}', None,
                                  "BReq({dummy,n1,n2,n3,n4})"),
    "BRes({})": ("BootstrapResponse", '{"nodes":[]}', None, "BRes({})"),
    "BRes({dummy})": ("BootstrapResponse", '{"nodes":["dummy"]}', None, "BRes({dummy})"),
    "BRes({n1,n2,n3,n4})": ("BootstrapResponse", '{"nodes":["n1","n2","n3","n4"]}', None,
                            "BRes({n1,n2,n3,n4})"),
    "BRes({dummy,n1,n2,n3,n4})": ("BootstrapResponse",
                                  '{"nodes":["dummy","n1","n2","n3","n4"]}', None,
                                  "BRes({dummy,n1,n2,n3,n4})"),
    "RJReq(n1)": ("RaftJoinRequest", '{"node":"n1"}', None, "RJReq(n1:known)"),
    "RJReq(nz)": ("RaftJoinRequest", '{"node":"nz"}', None, "RJReq(nz:unknown)"),
    "RJReq(dummy)": ("RaftJoinRequest", '{"node":"dummy"}', None, "RJReq(dummy:unknown)"),
    "RJRes": ("RaftJoinResponse", "{}", None, "RJRes"),
    "RConReq": ("RaftConfigureRequest", "{}", None, "RConReq"),
    "RConRes": ("RaftConfigureResponse", "{}", None, "RConRes"),
    "RVReq(n1,higher)": ("RaftVoteRequest", '{"base_term":1,"candidate":"n1","term":2}',
                         '{"base_term":1,"candidate":"n1","term":3}',
                         "RVReq(n1:known,higher)"),
    "RVReq(n1,current)": ("RaftVoteRequest", '{"base_term":1,"candidate":"n1","term":1}',
                          None, "RVReq(n1:known,current)"),
    "RVReq(dummy,higher)": ("RaftVoteRequest",
                            '{"base_term":1,"candidate":"dummy","term":2}',
                            '{"base_term":1,"candidate":"dummy","term":3}',
                            "RVReq(dummy:unknown,higher)"),
    "RVReq(dummy,current)": ("RaftVoteRequest",
                             '{"base_term":1,"candidate":"dummy","term":1}', None,
                             "RVReq(dummy:unknown,current)"),
    "RVRes(approved)": ("RaftVoteResponse", '{"verdict":"approved"}', None,
                        "RVRes(approved)"),
    "RVRes(rejected)": ("RaftVoteResponse", '{"verdict":"rejected"}', None,
                        "RVRes(rejected)"),
    "RComReq(app,add)": ("RaftCommandRequest", '{"data":"app","op":"add"}', None,
                         "RComReq(app,add)"),
    "RComReq(app,modify)": ("RaftCommandRequest", '{"data":"app","op":"modify"}', None,
                            "RComReq(app,modify)"),
    "RComReq(app,remove)": ("RaftCommandRequest", '{"data":"app","op":"remove"}', None,
                            "RComReq(app,remove)"),
    "RComReq(topo,add)": ("RaftCommandRequest", '{"data":"topo","op":"add"}', None,
                          "RComReq(topo,add)"),
    "RComReq(topo,modify)": ("RaftCommandRequest", '{"data":"topo","op":"modify"}', None,
                             "RComReq(topo,modify)"),
    "RComReq(topo,remove)": ("RaftCommandRequest", '{"data":"topo","op":"remove"}', None,
                             "RComReq(topo,remove)"),
    "RComRes": ("RaftCommandResponse", "{}", None, "RComRes"),
    "RAReq": ("RaftAppendRequest", '{"entries":[],"term":1}', None, "RAReq"),
    "RARes": ("RaftAppendResponse", "{}", None, "RARes"),
}


def sessions():
    """A fresh session at the baseline term, and one whose first message
    was a higher-term vote."""
    fresh = SessionContext(cluster_id=PROXY_CFG.cluster_id, self_id=PROXY_CFG.self_id,
                           observed_leader_term=spawn_cluster(CLUSTER).reset())
    voted = copy.copy(fresh)
    encode(Symbol(RVREQ, (PROXY_CFG.known_ref, TERM_HIGHER)), voted)
    return {"fresh": (fresh, 1), "voted": (voted, 2)}


def canonical(wire: dict) -> str:
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def written(sym: Symbol) -> str:
    """``sym`` with each node's kind: ``PReq(n1:known)``."""
    parts = [f"{p.id}:{p.kind}" if isinstance(p, NodeRef)
             else "{" + ",".join(p) + "}" if isinstance(p, tuple) else p
             for p in sym.params]
    return f"{sym.tag}({','.join(parts)})" if parts else sym.tag


def test_the_table_covers_the_default_alphabet():
    assert len(LETTERS) == 34
    assert list(CODEC) == list(LETTERS)


@pytest.mark.parametrize("session", ["fresh", "voted"])
@pytest.mark.parametrize("label", list(CODEC))
def test_letter_encodes_and_decodes_as_pinned(label, session):
    wire_type, payload, voted_payload, decoded = CODEC[label]
    ctx, ts = sessions()[session]
    if session == "voted" and voted_payload is not None:
        payload = voted_payload
    msg = encode(LETTERS[label], ctx)
    assert ctx._ts == ts
    assert sorted(msg) == sorted(FRAME_KEYS)
    assert canonical(msg) == (
        f'{{"cluster_id":"sdwan","payload":{payload},"sender":"dummy",'
        f'"ts":{ts},"type":"{wire_type}"}}')
    for cfg in (PROXY_CFG, SIM_CFG):
        sym = decode(msg, cfg)
        assert type(sym) is Symbol and written(sym) == decoded
        assert sym == LETTERS[label]


WIRE_TYPES_IN_ORDER = [
    "ProbeRequest", "ProbeResponse", "BootstrapRequest", "BootstrapResponse",
    "RaftJoinRequest", "RaftJoinResponse", "RaftConfigureRequest",
    "RaftConfigureResponse", "RaftVoteRequest", "RaftVoteResponse",
    "RaftCommandRequest", "RaftCommandResponse", "RaftAppendRequest",
    "RaftAppendResponse",
]
BOOTSTRAP = "bootstrap payload needs a list of node ids"
VOTE = {"candidate": "n1", "term": 2, "base_term": 1}

# (wire type, payload, the DecodeError text).  Where several fields are bad,
# the first one checked names the error, so the order of checks is pinned
# too.
MALFORMED = [
    # unknown type
    ("TotallyBogus", {}, "unknown message type: 'TotallyBogus'"),
    ("NoResponse", {}, "unknown message type: 'NoResponse'"),
    ("__error__", {"reason": "x"}, "unknown message type: '__error__'"),
    ("probeRequest", {"target": "n1"}, "unknown message type: 'probeRequest'"),
    (None, {}, "unknown message type: None"),
    # non-dict payload, for every type
    *((t, payload, "payload must be an object")
      for t in WIRE_TYPES_IN_ORDER for payload in ([], None, '{"target":"n1"}')),
    # missing field
    ("ProbeRequest", {}, "payload field 'target' must be a string"),
    ("ProbeResponse", {"status": "alive"}, "payload field 'node' must be a string"),
    ("ProbeResponse", {"node": "n1"}, "payload field 'status' must be a string"),
    ("BootstrapRequest", {}, BOOTSTRAP),
    ("BootstrapResponse", {"node": ["n1"]}, BOOTSTRAP),
    ("RaftJoinRequest", {"target": "n1"}, "payload field 'node' must be a string"),
    ("RaftVoteRequest", {"candidate": "n1", "base_term": 1},
     "payload field 'term' must be an integer"),
    ("RaftVoteRequest", {"candidate": "n1", "term": 2},
     "payload field 'base_term' must be an integer"),
    ("RaftVoteRequest", {"term": 2, "base_term": 1},
     "payload field 'candidate' must be a string"),
    ("RaftVoteResponse", {}, "payload field 'verdict' must be a string"),
    ("RaftCommandRequest", {"op": "add"}, "payload field 'data' must be a string"),
    ("RaftCommandRequest", {"data": "app"}, "payload field 'op' must be a string"),
    # wrong-typed field
    ("ProbeRequest", {"target": 7}, "payload field 'target' must be a string"),
    ("ProbeRequest", {"target": None}, "payload field 'target' must be a string"),
    ("ProbeResponse", {"node": ["n1"], "status": "alive"},
     "payload field 'node' must be a string"),
    ("ProbeResponse", {"node": "n1", "status": True},
     "payload field 'status' must be a string"),
    ("BootstrapRequest", {"nodes": "n1"}, BOOTSTRAP),
    ("BootstrapResponse", {"nodes": ("n1",)}, BOOTSTRAP),
    ("BootstrapRequest", {"nodes": {"n1": 1}}, BOOTSTRAP),
    ("RaftJoinRequest", {"node": 1}, "payload field 'node' must be a string"),
    ("RaftVoteRequest", {**VOTE, "term": "2"}, "payload field 'term' must be an integer"),
    ("RaftVoteRequest", {**VOTE, "term": True}, "payload field 'term' must be an integer"),
    ("RaftVoteRequest", {**VOTE, "term": 2.0}, "payload field 'term' must be an integer"),
    ("RaftVoteRequest", {**VOTE, "base_term": False},
     "payload field 'base_term' must be an integer"),
    ("RaftVoteRequest", {**VOTE, "candidate": 3},
     "payload field 'candidate' must be a string"),
    ("RaftVoteRequest", {"candidate": 3, "term": "x", "base_term": "y"},
     "payload field 'term' must be an integer"),
    ("RaftVoteResponse", {"verdict": ["approved"]},
     "payload field 'verdict' must be a string"),
    ("RaftCommandRequest", {"data": 1, "op": "add"}, "payload field 'data' must be a string"),
    ("RaftCommandRequest", {"data": "app", "op": None},
     "payload field 'op' must be a string"),
    ("RaftCommandRequest", {"data": "cfg"}, "payload field 'op' must be a string"),
    # bad enum value
    ("ProbeResponse", {"node": "n1", "status": "undead"}, "bad probe status: 'undead'"),
    ("ProbeResponse", {"node": "n1", "status": "ALIVE"}, "bad probe status: 'ALIVE'"),
    ("ProbeResponse", {"node": 7, "status": "undead"}, "bad probe status: 'undead'"),
    ("RaftVoteResponse", {"verdict": "maybe"}, "bad vote verdict: 'maybe'"),
    ("RaftCommandRequest", {"data": "app", "op": "explode"},
     "bad command parameters: 'app'/'explode'"),
    ("RaftCommandRequest", {"data": "cfg", "op": "add"},
     "bad command parameters: 'cfg'/'add'"),
    ("RaftCommandRequest", {"data": "", "op": ""}, "bad command parameters: ''/''"),
    # non-string node
    ("BootstrapRequest", {"nodes": [1, 2]}, BOOTSTRAP),
    ("BootstrapResponse", {"nodes": ["n1", None]}, BOOTSTRAP),
    ("BootstrapRequest", {"nodes": [["n1"]]}, BOOTSTRAP),
    ("ProbeRequest", {"target": {"id": "n1"}}, "payload field 'target' must be a string"),
]


@pytest.mark.parametrize("cfg", [PROXY_CFG, SIM_CFG], ids=["proxy", "simulator"])
@pytest.mark.parametrize("wire_type, payload, error", MALFORMED)
def test_malformed_message_fails_with_the_pinned_text(wire_type, payload, error, cfg):
    with pytest.raises(DecodeError) as info:
        decode(message("sdwan", "q", 1, wire_type, payload), cfg)
    assert str(info.value) == error
    assert type(info.value) is DecodeError


# Fields a payload does not name are ignored, and any node id reads.
TOLERATED = [
    ("ProbeRequest", {"target": "n1", "junk": 1}, "PReq(n1:known)"),
    ("ProbeRequest", {"target": ""}, "PReq(:unknown)"),
    ("ProbeResponse", {"node": "w9", "status": "dead"}, "PRes(w9:unknown,dead)"),
    ("BootstrapResponse", {"nodes": ["n2", "n1", "n2"]}, "BRes({n1,n2,n2})"),
    ("RaftJoinResponse", {"node": 1}, "RJRes"),
    ("RaftConfigureRequest", {"x": None}, "RConReq"),
    ("RaftAppendRequest", {}, "RAReq"),
    ("RaftAppendResponse", {"term": "x"}, "RARes"),
    ("RaftCommandResponse", {}, "RComRes"),
    ("RaftConfigureResponse", {}, "RConRes"),
    ("RaftVoteRequest", {"candidate": "n9", "term": 0, "base_term": 5},
     "RVReq(n9:unknown,current)"),
    ("RaftVoteRequest", {"candidate": "n1", "term": -1, "base_term": -2},
     "RVReq(n1:known,higher)"),
]


@pytest.mark.parametrize("cfg", [PROXY_CFG, SIM_CFG], ids=["proxy", "simulator"])
@pytest.mark.parametrize("wire_type, payload, decoded", TOLERATED)
def test_tolerated_message_decodes_as_pinned(wire_type, payload, decoded, cfg):
    assert written(decode(message("sdwan", "q", 1, wire_type, payload), cfg)) == decoded


def test_codec_values_stay_frozen_equal_by_value_and_hashed_as_before():
    letter = decode(encode(LETTERS["PRes(n1,alive)"], sessions()["fresh"][0]), PROXY_CFG)
    fresh = Symbol(letter.tag, (NodeRef("n1", KNOWN), "alive"))
    assert letter == fresh and hash(letter) == hash(fresh) == hash((letter.tag, letter.params))
    assert Symbol("RJRes") == Symbol("RJRes", ()) != Symbol("RARes")
    for value, field in ((letter, "tag"), (fresh.params[0], "id")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
