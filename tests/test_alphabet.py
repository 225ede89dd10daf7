"""Alphabet enumeration, codec round-trips, canonical output, framing."""
from __future__ import annotations

import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefuzz.alphabet import (
    ALIVE, APPROVED, BREQ, BRES, DEAD, DATA_APP, DATA_TOPO, KNOWN,
    MAX_FRAME_BYTES, NORESPONSE, NO_RESPONSE, OP_ADD, OP_MODIFY, OP_REMOVE,
    PREQ, PRES, RAREQ, RARES, RCOMREQ, RCOMRES, RCONREQ, RCONRES, REJECTED,
    RJREQ, RJRES, RVREQ, RVRES, TERM_CURRENT, TERM_HIGHER, UNKNOWN,
    AlphabetConfig, ConfigError, DecodeError, FrameError,
    NodeRef, Symbol, canonical_output, decode, encode,
    enumerate_input_alphabet, frame_decode, frame_encode, input_domains,
    is_keepalive, message_from_wire, read_frame, symbol_from_obj,
    symbol_label, symbol_sort_key, symbol_to_obj, word_from_obj, word_to_obj,
)

from helpers import message

CFG = AlphabetConfig(members=("A", "B", "C"), self_id="X", cluster_id="c1", unknown_id="Z")


class Ctx:
    """Minimal session-context stand-in for codec tests."""

    def __init__(self, observed_term=4):
        self.cluster_id = CFG.cluster_id
        self.self_id = CFG.self_id
        self.observed_leader_term = observed_term
        self._clock = 0
        self._last_vote = 0

    def next_ts(self):
        self._clock += 1
        return self._clock

    def vote_term(self, kind):
        if kind == TERM_HIGHER:
            self._last_vote = max(self.observed_leader_term, self._last_vote) + 1
            return self._last_vote
        return self.observed_leader_term


def brute_force_grammar():
    """Independent hand expansion of the bounded message grammar."""
    known = NodeRef("A", KNOWN)  # min of {A,B,C}
    unknown = NodeRef("Z", UNKNOWN)
    me = NodeRef("X", UNKNOWN)
    sets = [(), ("X",), ("A", "B", "C"), ("A", "B", "C", "X")]
    out = []
    for n in [known, unknown, me]:
        out.append(Symbol(PREQ, (n,)))
    for s in [ALIVE, DEAD]:
        out.append(Symbol(PRES, (known, s)))
    for ns in sets:
        out.append(Symbol(BREQ, (ns,)))
    for ns in sets:
        out.append(Symbol(BRES, (ns,)))
    for n in [known, unknown, me]:
        out.append(Symbol(RJREQ, (n,)))
    out.append(Symbol(RJRES))
    out.append(Symbol(RCONREQ))
    out.append(Symbol(RCONRES))
    for n in [known, me]:
        for t in [TERM_HIGHER, TERM_CURRENT]:
            out.append(Symbol(RVREQ, (n, t)))
    for v in [APPROVED, REJECTED]:
        out.append(Symbol(RVRES, (v,)))
    for d in [DATA_APP, DATA_TOPO]:
        for o in [OP_ADD, OP_MODIFY, OP_REMOVE]:
            out.append(Symbol(RCOMREQ, (d, o)))
    out.append(Symbol(RCOMRES))
    out.append(Symbol(RAREQ))
    out.append(Symbol(RARES))
    return out


class TestEnumeration:
    def test_count_matches_brute_force_oracle(self):
        letters = enumerate_input_alphabet(CFG)
        oracle = brute_force_grammar()
        assert len(letters) == len(oracle) == 34
        assert set(letters) == set(oracle)

    def test_contains_expected_letters(self):
        letters = set(enumerate_input_alphabet(CFG))
        assert Symbol(PREQ, (NodeRef("A", KNOWN),)) in letters
        assert Symbol(PREQ, (NodeRef("Z", UNKNOWN),)) in letters
        assert Symbol(RVREQ, (NodeRef("A", KNOWN), TERM_HIGHER)) in letters
        assert Symbol(RCOMREQ, (DATA_APP, OP_REMOVE)) in letters
        assert Symbol(RJREQ, (NodeRef("X", UNKNOWN),)) in letters

    def test_no_response_never_enumerated(self):
        assert all(s.tag != NORESPONSE for s in enumerate_input_alphabet(CFG))

    def test_stable_order(self):
        assert enumerate_input_alphabet(CFG) == enumerate_input_alphabet(CFG)

    def test_sort_key_is_total_outside_the_protocol_tags(self):
        letters = (Symbol("in_c"), Symbol("in_a"), Symbol("in_b"))
        for order in itertools.permutations(letters):
            assert sorted(order, key=symbol_sort_key) == [
                Symbol("in_a"), Symbol("in_b"), Symbol("in_c")]

    def test_alphabet_size_cap(self):
        assert len(enumerate_input_alphabet(CFG)) <= 40

    def test_empty_members_rejected(self):
        with pytest.raises(ConfigError):
            AlphabetConfig(members=(), self_id="X", cluster_id="c1")

    def test_self_in_members_rejected(self):
        with pytest.raises(ConfigError):
            AlphabetConfig(members=("A", "X"), self_id="X", cluster_id="c1")


class TestEncode:
    def test_probe_request_payload(self):
        ctx = Ctx()
        msg = encode(Symbol(PREQ, (NodeRef("B", KNOWN),)), ctx)
        assert msg["type"] == "ProbeRequest"
        assert msg["payload"] == {"target": "B"}
        assert msg["cluster_id"] == "c1" and msg["sender"] == "X"

    def test_logical_ts_strictly_increases(self):
        ctx = Ctx()
        stamps = [encode(Symbol(RAREQ), ctx)["ts"] for _ in range(5)]
        assert stamps == sorted(stamps) and len(set(stamps)) == 5

    def test_vote_higher_term_is_observed_plus_one(self):
        ctx = Ctx(observed_term=7)
        msg = encode(Symbol(RVREQ, (NodeRef("X", UNKNOWN), TERM_HIGHER)), ctx)
        assert msg["payload"]["term"] == 8
        assert msg["payload"]["base_term"] == 7

    def test_repeated_higher_votes_strictly_increase(self):
        ctx = Ctx(observed_term=3)
        sym = Symbol(RVREQ, (NodeRef("X", UNKNOWN), TERM_HIGHER))
        terms = [encode(sym, ctx)["payload"]["term"] for _ in range(4)]
        assert terms == [4, 5, 6, 7]

    def test_vote_current_term(self):
        ctx = Ctx(observed_term=5)
        msg = encode(Symbol(RVREQ, (NodeRef("A", KNOWN), TERM_CURRENT)), ctx)
        assert msg["payload"]["term"] == 5 and msg["payload"]["base_term"] == 5

    def test_append_request_minimal_payload(self):
        ctx = Ctx(observed_term=2)
        msg = encode(Symbol(RAREQ), ctx)
        assert msg["payload"] == {"term": 2, "entries": []}

    def test_no_response_not_encodable(self):
        with pytest.raises(ConfigError):
            encode(NO_RESPONSE, Ctx())


class TestDecode:
    @pytest.mark.parametrize("sym", brute_force_grammar(), ids=symbol_label)
    def test_round_trip_every_letter(self, sym):
        ctx = Ctx()
        assert decode(encode(sym, ctx), CFG) == sym

    def test_unknown_type_raises(self):
        msg = message("c1", "X", 1, "TotallyBogus", {})
        with pytest.raises(DecodeError):
            decode(msg, CFG)

    def test_unknown_node_id_decodes_unknown_kind(self):
        msg = message("c1", "q", 1, "ProbeRequest", {"target": "mystery"})
        sym = decode(msg, CFG)
        assert sym.params[0] == NodeRef("mystery", UNKNOWN)

    def test_member_id_decodes_known_kind(self):
        msg = message("c1", "q", 1, "RaftJoinRequest", {"node": "C"})
        assert decode(msg, CFG).params[0] == NodeRef("C", KNOWN)

    @pytest.mark.parametrize(
        "mtype,payload",
        [
            ("ProbeRequest", {}),
            ("ProbeRequest", {"target": 7}),
            ("ProbeResponse", {"node": "A", "status": "undead"}),
            ("BootstrapRequest", {"nodes": "A"}),
            ("BootstrapRequest", {"nodes": [1, 2]}),
            ("RaftVoteRequest", {"candidate": "A", "term": "9", "base_term": 1}),
            ("RaftVoteRequest", {"candidate": "A", "term": 9}),
            ("RaftVoteResponse", {"verdict": "maybe"}),
            ("RaftCommandRequest", {"data": "app", "op": "explode"}),
        ],
    )
    def test_malformed_payload_raises(self, mtype, payload):
        with pytest.raises(DecodeError):
            decode(message("c1", "q", 1, mtype, payload), CFG)

    def test_no_response_never_decoded(self):
        with pytest.raises(DecodeError):
            decode(message("c1", "q", 1, "NoResponse", {}), CFG)


class TestNodeRefs:
    def test_configured_ids_share_one_reference(self):
        for node in (*CFG.members, CFG.self_id, CFG.unknown_id):
            assert CFG.node_ref(node) is CFG.node_ref(node)
            assert CFG.node_ref(node) == NodeRef(node, KNOWN if node in CFG.members else UNKNOWN)
        assert CFG.known_ref is CFG.node_ref("A")
        assert CFG.self_ref is CFG.node_ref("X")
        assert CFG.unknown_ref is CFG.node_ref("Z")
        letters = enumerate_input_alphabet(CFG)
        refs = {id(p) for sym in letters for p in sym.params if isinstance(p, NodeRef)}
        assert len(refs) == 3

    def test_wire_ids_get_fresh_references_and_grow_nothing(self):
        shared = dict(CFG._configured_refs)
        for i in range(50):
            msg = message("c1", "q", i, "ProbeRequest", {"target": f"w{i % 5}"})
            ref = decode(msg, CFG).params[0]
            assert ref == NodeRef(f"w{i % 5}", UNKNOWN)
            assert ref is not CFG.node_ref(ref.id)
        assert CFG._configured_refs == shared


class TestCanonicalOutput:
    def test_orders_by_timestamp(self):
        a = Symbol(PRES, (NodeRef("A", KNOWN), ALIVE))
        b = Symbol(BREQ, ((),))
        word = canonical_output([(5, b), (2, a)], CFG)
        assert word == (a, b)

    def test_tie_break_is_stable_symbol_order(self):
        a = Symbol(PRES, (NodeRef("A", KNOWN), ALIVE))
        b = Symbol(BREQ, ((),))
        assert canonical_output([(3, b), (3, a)], CFG) == (a, b)
        assert canonical_output([(3, a), (3, b)], CFG) == (a, b)

    def test_empty_window_yields_no_response(self):
        assert canonical_output([], CFG) == (NO_RESPONSE,)

    def test_keepalives_filtered(self):
        probe_me = Symbol(PREQ, (NodeRef("X", UNKNOWN),))
        heartbeat = Symbol(RAREQ)
        real = Symbol(RJRES)
        word = canonical_output([(1, probe_me), (2, real), (3, heartbeat)], CFG)
        assert word == (real,)

    def test_all_keepalives_yields_no_response(self):
        probe_me = Symbol(PREQ, (NodeRef("X", UNKNOWN),))
        assert canonical_output([(1, probe_me)], CFG) == (NO_RESPONSE,)

    def test_probe_of_other_node_is_not_keepalive(self):
        probe_a = Symbol(PREQ, (NodeRef("A", KNOWN),))
        assert not is_keepalive(probe_a, CFG)
        assert canonical_output([(1, probe_a)], CFG) == (probe_a,)

    def test_keepalives_collected_in_event_order(self):
        probe_me = Symbol(PREQ, (NodeRef("X", UNKNOWN),))
        heartbeat = Symbol(RAREQ)
        real = Symbol(RJRES)
        keepalives = []
        word = canonical_output([(1, heartbeat), (1, real), (2, probe_me)], CFG, keepalives)
        assert word == (real,)
        assert keepalives == [heartbeat, probe_me]
        keepalives = []
        assert canonical_output([(4, probe_me)], CFG, keepalives) == (NO_RESPONSE,)
        assert keepalives == [probe_me]

    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, order):
        base = [
            (1, Symbol(PRES, (NodeRef("A", KNOWN), ALIVE))),
            (1, Symbol(BREQ, ((),))),
            (2, Symbol(RJRES)),
            (4, Symbol(RCONRES)),
            (4, Symbol(RCOMRES)),
            (9, Symbol(RVRES, (REJECTED,))),
        ]
        shuffled = [base[i] for i in order]
        assert canonical_output(shuffled, CFG) == canonical_output(base, CFG)


class TestFraming:
    def msg(self):
        return encode(Symbol(RCOMREQ, (DATA_TOPO, OP_ADD)), Ctx())

    def test_round_trip(self):
        msg = self.msg()
        assert frame_decode(frame_encode(msg)) == msg

    def test_byte_identity_of_reencoding(self):
        data = frame_encode(self.msg())
        assert frame_encode(frame_decode(data)) == data

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError):
            frame_decode(frame_encode(self.msg()) + b"x")

    def test_truncated_body_rejected(self):
        data = frame_encode(self.msg())
        with pytest.raises(FrameError):
            frame_decode(data[:-3])

    def test_short_prefix_rejected(self):
        with pytest.raises(FrameError):
            frame_decode(b"\x00\x01")

    def test_empty_input_rejected(self):
        with pytest.raises(FrameError):
            frame_decode(b"")

    def test_missing_keys_rejected(self):
        body = b'{"cluster_id":"c","sender":"s","ts":1,"type":"ProbeRequest"}'
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError):
            frame_decode(data)

    def test_non_object_body_rejected(self):
        body = b"[1,2,3]"
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError):
            frame_decode(data)

    def test_random_corruption_never_panics(self):
        rng = random.Random(1234)
        base = frame_encode(self.msg())
        for _ in range(2000):
            blob = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            try:
                frame_decode(bytes(blob))
            except DecodeError:
                pass  # decode error is the contract; anything else would fail

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_panic(self, blob):
        try:
            frame_decode(blob)
        except DecodeError:
            pass


class TestStreamFraming:
    def msg(self, tag=RCOMREQ, params=(DATA_TOPO, OP_ADD)):
        return encode(Symbol(tag, params), Ctx())

    def test_reads_frames_in_sequence(self):
        ctx = Ctx()
        msgs = [encode(Symbol(RCONREQ), ctx), encode(Symbol(RAREQ), ctx),
                encode(Symbol(RVREQ, (NodeRef("A", KNOWN), TERM_CURRENT)), ctx)]
        stream = io.BytesIO(b"".join(frame_encode(m) for m in msgs))
        got = []
        while (m := read_frame(stream.read)) is not None:
            got.append(m)
        assert got == msgs

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"").read) is None

    def test_eof_inside_prefix_raises(self):
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(b"\x00\x00").read)

    def test_eof_inside_body_raises(self):
        data = frame_encode(self.msg())[:-1]
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(data).read)

    def test_oversize_declared_length_raises(self):
        data = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(data).read)

    def test_wire_object_round_trip(self):
        msg = self.msg()
        assert message_from_wire(msg) == msg
        assert message_from_wire({**msg, "extra": 1}) == msg  # a sixth key is dropped

    def test_wire_object_validation(self):
        good = self.msg()
        bad_cases = [
            [1, 2],
            "not an object",
            {k: v for k, v in good.items() if k != "ts"},
            {**good, "ts": "1"},
            {**good, "ts": True},
            {**good, "payload": 3},
            {**good, "type": 7},
            {**good, "cluster_id": 0},
            {**good, "sender": None},
        ]
        for bad in bad_cases:
            with pytest.raises(FrameError):
                message_from_wire(bad)


class TestSymbolSerialization:
    @pytest.mark.parametrize("sym", brute_force_grammar(), ids=symbol_label)
    def test_obj_round_trip(self, sym):
        assert symbol_from_obj(symbol_to_obj(sym)) == sym

    @pytest.mark.parametrize("obj", [
        None, {"params": []}, {"tag": ["x"], "params": []}, {"tag": "PReq"},
        {"tag": "PReq", "params": "A"}, {"tag": "PReq", "params": [5]},
        {"tag": "PReq", "params": [{"node": 5}]}, {"tag": "PReq", "params": [{}]},
        {"tag": "BReq", "params": [{"set": "AB"}]},
        {"tag": "BReq", "params": [{"set": ["A", None]}]},
    ])
    def test_malformed_obj_rejected(self, obj):
        with pytest.raises(DecodeError):
            symbol_from_obj(obj)

    def test_word_round_trip(self):
        word = (NO_RESPONSE, Symbol(BRES, (("A", "B"),)))
        assert word_from_obj(word_to_obj(word)) == word

    def test_labels(self):
        assert symbol_label(Symbol(PREQ, (NodeRef("A", KNOWN),))) == "PReq(A)"
        assert symbol_label(Symbol(BREQ, (("A", "X"),))) == "BReq({A,X})"
        assert symbol_label(Symbol(RCOMREQ, (DATA_APP, OP_REMOVE))) == "RComReq(app,remove)"
        assert symbol_label(NO_RESPONSE) == "-"
        assert symbol_label(Symbol(RJRES)) == "RJRes"

    def test_domains_cover_all_tags(self):
        domains = input_domains(CFG)
        for sym in enumerate_input_alphabet(CFG):
            assert sym.params in domains[sym.tag]
