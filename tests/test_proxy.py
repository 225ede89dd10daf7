"""Tests for the symbolic proxy: session state, window canonicalization,
keep-alive keeper behavior, and end-to-end queries against the simulator."""
from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from statefuzz.alphabet import (
    ALIVE, APPROVED, BREQ, BRES, DEAD, KNOWN, NO_RESPONSE, PREQ, PRES, RAREQ,
    RARES, RCOMREQ, RCOMRES, RCONREQ, RCONRES, RJREQ, RJRES, RVREQ, RVRES,
    REJECTED, TERM_CURRENT, TERM_HIGHER, UNKNOWN, AlphabetConfig,
    ConfigError, DecodeError, NodeRef, Symbol, DATA_APP, OP_ADD,
    decode, encode, enumerate_input_alphabet, is_keepalive, symbol_label,
    symbol_sort_key,
)
from statefuzz import proxy as proxy_module
from statefuzz.proxy import ClusterProxy, SessionContext
from statefuzz.sulsim import (
    ALL_VULNERABILITIES, ClusterConfig, ClusterHandle, default_alphabet,
    spawn_cluster,
)

from helpers import message

MEMBERS = ("n1", "n2", "n3", "n4")
ACFG = AlphabetConfig(members=MEMBERS, self_id="dummy", cluster_id="sdwan")


def wire(msg_type, payload, ts):
    return (ts, message("sdwan", "n1", ts, msg_type, payload))


class ScriptedTransport:
    """Canned reply windows, recorded traffic.  No clock, no cluster."""

    window_ticks = 5

    def __init__(self, windows, term=3):
        self.windows = list(windows)
        self.term = term
        self.sent = []
        self.injected = []
        self.resets = 0

    def reset(self):
        self.resets += 1
        return self.term

    def exchange(self, msg):
        self.sent.append(msg)
        return self.windows.pop(0) if self.windows else []

    run = ClusterHandle.run  # one exchange at a time, as the simulator runs

    def inject(self, msg):
        self.injected.append(msg)

    def observe(self):
        return SimpleNamespace(term=self.term)


def scripted_proxy(windows, term=3):
    transport = ScriptedTransport(windows, term=term)
    return ClusterProxy(transport, ACFG), transport


PREQ_N1 = Symbol(PREQ, (NodeRef("n1", KNOWN),))
PREQ_SELF = Symbol(PREQ, (NodeRef("dummy", UNKNOWN),))
BREQ_FULL = Symbol(BREQ, (MEMBERS,))
RJREQ_SELF = Symbol(RJREQ, (NodeRef("dummy", UNKNOWN),))
RCONREQ_S = Symbol(RCONREQ, ())
RVREQ_CUR = Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_CURRENT))
RVREQ_HI = Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_HIGHER))
RCOM_ADD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))


class TestSessionContext:
    def test_logical_clock_counts_up(self):
        ctx = SessionContext(cluster_id="c", self_id="d")
        assert [ctx.next_ts() for _ in range(4)] == [1, 2, 3, 4]

    def test_current_term_reuses_observation(self):
        ctx = SessionContext(cluster_id="c", self_id="d", observed_leader_term=7)
        assert ctx.vote_term(TERM_CURRENT) == 7
        assert ctx.vote_term(TERM_CURRENT) == 7

    def test_higher_terms_escalate(self):
        ctx = SessionContext(cluster_id="c", self_id="d", observed_leader_term=3)
        assert [ctx.vote_term(TERM_HIGHER) for _ in range(3)] == [4, 5, 6]

    def test_higher_tracks_later_observations(self):
        ctx = SessionContext(cluster_id="c", self_id="d", observed_leader_term=3)
        assert ctx.vote_term(TERM_HIGHER) == 4
        ctx.observed_leader_term = 10
        assert ctx.vote_term(TERM_HIGHER) == 11
        assert ctx.vote_term(TERM_CURRENT) == 10


class TestWindowCanonicalization:
    def test_replies_sorted_by_timestamp(self):
        win = [wire("RaftConfigureResponse", {}, 5),
               wire("ProbeResponse", {"node": "n1", "status": ALIVE}, 2)]
        proxy, _ = scripted_proxy([win])
        out = proxy.query((RCONREQ_S,))[0]
        assert [s.tag for s in out] == [PRES, RCONRES]

    def test_timestamp_ties_break_on_symbol_order(self):
        win = [wire("RaftConfigureResponse", {}, 4),
               wire("ProbeResponse", {"node": "n1", "status": ALIVE}, 4)]
        proxy, _ = scripted_proxy([win])
        out = proxy.query((RCONREQ_S,))[0]
        assert [s.tag for s in out] == [PRES, RCONRES]

    def test_empty_window_is_no_response(self):
        proxy, _ = scripted_proxy([[]])
        assert proxy.query((PREQ_N1,)) == ((NO_RESPONSE,),)

    def test_late_reply_lands_in_next_window(self):
        win2 = [wire("ProbeResponse", {"node": "n1", "status": ALIVE}, 2)]
        proxy, transport = scripted_proxy([[], win2])
        first, second = proxy.query((PREQ_N1, RCONREQ_S))
        assert first == (NO_RESPONSE,)
        assert [s.tag for s in second] == [PRES]
        assert transport.resets == 1 and len(transport.sent) == 2

    def test_unknown_reply_type_raises(self):
        proxy, _ = scripted_proxy([[wire("Bogus", {}, 1)]])
        with pytest.raises(DecodeError):
            proxy.query((PREQ_N1,))

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("bad", [NO_RESPONSE, Symbol("Bogus")])
    def test_a_letter_that_does_not_encode_raises(self, eager, bad):
        # The tags are checked before the session opens, so neither the
        # simulator's run, which takes each letter as it delivers it, nor
        # an eager one, as over TCP, gets any letter of the word.
        proxy, transport = scripted_proxy([[], [], [], []])
        if eager:
            transport.run = lambda msgs: ClusterHandle.run(transport, list(msgs))
        proxy.query((RCONREQ_S,))
        with pytest.raises(ConfigError, match="NoResponse" if bad is NO_RESPONSE else "Bogus"):
            proxy.query((PREQ_N1, RCONREQ_S, bad, PREQ_N1))
        assert transport.resets == proxy.resets == 1
        assert proxy.symbols_sent == 1 and proxy.ticks_advanced == 5
        assert [m["type"] for m in transport.sent] == ["RaftConfigureRequest"]

    def test_undecodable_window_counts_letters_through_it(self):
        # The run goes on past a window that does not decode, so the target
        # has seen the later letters; the counters stop at that window.
        proxy, transport = scripted_proxy([[], [wire("Bogus", {}, 1)], [], []])
        with pytest.raises(DecodeError):
            proxy.query([PREQ_N1, RCONREQ_S, BREQ_FULL, RCONREQ_S])
        assert len(transport.sent) == 4
        assert proxy.symbols_sent == 2 and proxy.ticks_advanced == 2 * 5

    def test_query_returns_one_word_per_position(self):
        proxy, transport = scripted_proxy([[], [], []])
        out = proxy.query([PREQ_N1, RCONREQ_S, BREQ_FULL])
        assert out == ((NO_RESPONSE,), (NO_RESPONSE,), (NO_RESPONSE,))
        assert transport.resets == 1 and len(transport.sent) == 3


class TestKeeper:
    KEEPALIVE_WIN = [
        wire("ProbeRequest", {"target": "dummy"}, 1),
        wire("RaftAppendRequest", {"term": 1, "entries": []}, 2),
        wire("RaftCommandResponse", {}, 3),
    ]

    def test_keepalives_filtered_from_output(self):
        proxy, _ = scripted_proxy([list(self.KEEPALIVE_WIN)])
        out = proxy.query((RCOM_ADD,))[0]
        assert [s.tag for s in out] == [RCOMRES]

    def test_keeper_answers_probe_and_heartbeat(self):
        proxy, transport = scripted_proxy([list(self.KEEPALIVE_WIN)])
        proxy.query((RCOM_ADD,))
        assert proxy.keepalives_answered == 2
        types = [m["type"] for m in transport.injected]
        assert types == ["ProbeResponse", "RaftAppendResponse"]
        assert transport.injected[0]["payload"] == {"node": "dummy", "status": ALIVE}

    def test_keeper_replies_use_the_session_clock(self):
        proxy, transport = scripted_proxy([list(self.KEEPALIVE_WIN)])
        proxy.query((RCOM_ADD,))
        sent_ts = transport.sent[-1]["ts"]
        injected_ts = [m["ts"] for m in transport.injected]
        assert injected_ts == sorted(injected_ts)
        assert all(ts > sent_ts for ts in injected_ts)

    def test_letters_after_a_keepalive_window_follow_the_answers(self):
        # The rest of the word is encoded after the answers, which take the
        # timestamps just after the letter that drew them; no vote
        # escalates twice.
        proxy, transport = scripted_proxy([[], list(self.KEEPALIVE_WIN), [], []], term=3)
        out = proxy.query([RVREQ_HI, RCOM_ADD, RVREQ_HI, RCONREQ_S])
        assert [[s.tag for s in word] for word in out] == [
            [NO_RESPONSE.tag], [RCOMRES], [NO_RESPONSE.tag], [NO_RESPONSE.tag]]
        assert [m["ts"] for m in transport.sent] == [1, 2, 5, 6]
        assert [m["ts"] for m in transport.injected] == [3, 4]
        assert [m["payload"]["term"] for m in transport.sent if "term" in m["payload"]] == [4, 5]
        assert proxy.symbols_sent == 4 and proxy.ticks_advanced == 4 * 5

    def test_keepalives_on_the_last_letter_need_no_second_encoding(self, monkeypatch):
        calls = []
        monkeypatch.setattr(proxy_module, "encode",
                            lambda sym, ctx, _encode=encode: calls.append(sym) or _encode(sym, ctx))
        proxy, transport = scripted_proxy([[], list(self.KEEPALIVE_WIN)])
        proxy.query([PREQ_N1, RCOM_ADD])
        assert [m["ts"] for m in transport.sent] == [1, 2]
        assert [m["ts"] for m in transport.injected] == [3, 4]
        assert len(calls) == 2 + 2  # two letters, two answers

    def test_letters_before_a_keepalive_window_are_encoded_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(proxy_module, "encode",
                            lambda sym, ctx, _encode=encode: calls.append(sym) or _encode(sym, ctx))
        loud = [wire("RaftConfigureResponse", {}, 1)]
        proxy, transport = scripted_proxy(
            [loud, [], list(self.KEEPALIVE_WIN), [], []], term=3)
        word = [RVREQ_HI, RCONREQ_S, RVREQ_HI, RVREQ_HI, PREQ_N1]
        out = proxy.query(word)
        assert [[s.tag for s in w] for w in out] == [
            [RCONRES], [NO_RESPONSE.tag], [RCOMRES], [NO_RESPONSE.tag], [NO_RESPONSE.tag]]
        # The letters through the window, the two answers, then the rest.
        assert calls[:3] == word[:3] and calls[5:] == word[3:]
        assert [sym.tag for sym in calls[3:5]] == [PRES, RARES]
        assert [m["ts"] for m in transport.sent] == [1, 2, 3, 6, 7]
        assert [m["payload"]["term"] for m in transport.sent if "term" in m["payload"]] == [4, 5, 6]

    def test_a_transport_that_takes_more_than_it_delivers_sends_the_same(self, monkeypatch):
        # As over TCP: the transport takes the whole rest of the word but
        # delivers it only through the keep-alive window, so the context goes
        # back to the state just after the last delivered letter, its clock
        # and its ballots, before the answers.
        rewinds = []
        rewind = SessionContext.rewind
        monkeypatch.setattr(SessionContext, "rewind",
                            lambda ctx, mark: rewinds.append(mark) or rewind(ctx, mark))
        loud = [wire("RaftConfigureResponse", {}, 1)]
        proxy, transport = scripted_proxy(
            [loud, [], list(self.KEEPALIVE_WIN), [], []], term=3)
        transport.run = lambda msgs: ClusterHandle.run(transport, list(msgs))
        word = [RVREQ_HI, RCONREQ_S, RVREQ_HI, RVREQ_HI, PREQ_N1]
        out = proxy.query(word)
        assert [[s.tag for s in w] for w in out] == [
            [RCONRES], [NO_RESPONSE.tag], [RCOMRES], [NO_RESPONSE.tag], [NO_RESPONSE.tag]]
        assert rewinds == [3]
        assert [m["ts"] for m in transport.sent] == [1, 2, 3, 6, 7]
        assert [m["ts"] for m in transport.injected] == [4, 5]
        assert [m["payload"]["term"] for m in transport.sent if "term" in m["payload"]] == [4, 5, 6]
        assert proxy.symbols_sent == 5 and proxy.keepalives_answered == 2

    def test_a_transport_that_takes_more_encodes_each_letter_once(self, monkeypatch):
        # The undelivered rest is encoded again for the next run, but no
        # delivered letter is.
        calls = []
        monkeypatch.setattr(proxy_module, "encode",
                            lambda sym, ctx, _encode=encode: calls.append(sym) or _encode(sym, ctx))
        proxy, transport = scripted_proxy(
            [[], list(self.KEEPALIVE_WIN), [], [], list(self.KEEPALIVE_WIN), []], term=3)
        transport.run = lambda msgs: ClusterHandle.run(transport, list(msgs))
        word = [RVREQ_HI, RVREQ_HI, RVREQ_HI, RCONREQ_S, RVREQ_HI, RVREQ_HI]
        proxy.query(word)
        tags, answers = [sym.tag for sym in word], [PRES, RARES]
        assert [sym.tag for sym in calls] == [
            *tags, *answers, *tags[2:], *answers, *tags[5:]]
        assert [m["ts"] for m in transport.sent] == [1, 2, 5, 6, 7, 10]
        assert [m["payload"]["term"] for m in transport.sent if "term" in m["payload"]] == [
            4, 5, 6, 7, 8]

    def test_probe_for_another_member_ends_a_run_without_a_rewind(self, monkeypatch):
        rewinds = []
        monkeypatch.setattr(SessionContext, "rewind", lambda ctx, mark: rewinds.append(mark))
        probe_n2 = [wire("ProbeRequest", {"target": "n2"}, 1)]
        proxy, transport = scripted_proxy([[], probe_n2, [], []])
        runs = []
        run = transport.run

        def counting(msgs):
            runs.append(0)

            def taking():
                for msg in msgs:
                    runs[-1] += 1
                    yield msg

            return run(taking())

        transport.run = counting
        out = proxy.query([PREQ_N1, RCONREQ_S, BREQ_FULL, RCONREQ_S])
        assert runs == [2, 2]  # the letters each run took: the probe's window ends the first
        assert rewinds == [] and transport.injected == [] and proxy.keepalives_answered == 0
        assert out[1] == (Symbol(PREQ, (NodeRef("n2", KNOWN),)),)
        assert [m["ts"] for m in transport.sent] == [1, 2, 3, 4]


class TestSessionCoupling:
    def test_current_vote_uses_observed_term(self):
        proxy, transport = scripted_proxy([[]], term=9)
        proxy.query((RVREQ_CUR,))
        payload = transport.sent[0]["payload"]
        assert payload["term"] == 9 and payload["base_term"] == 9

    def test_session_term_comes_from_reset_without_observe(self):
        proxy, transport = scripted_proxy([[], []], term=6)
        transport.observe = None  # calling it would raise TypeError
        proxy.query([RVREQ_CUR, RVREQ_HI])
        assert [m["payload"]["term"] for m in transport.sent] == [6, 7]

    def test_higher_votes_escalate_per_session(self):
        proxy, transport = scripted_proxy([[], [], []], term=4)
        proxy.query([RVREQ_HI, RVREQ_HI, RVREQ_HI])
        terms = [m["payload"]["term"] for m in transport.sent]
        assert terms == [5, 6, 7]

    def test_reset_restarts_clock_and_terms(self):
        proxy, transport = scripted_proxy([[], [], [], []], term=4)
        proxy.query([RVREQ_HI])
        proxy.query([RVREQ_HI])
        assert [m["payload"]["term"] for m in transport.sent] == [5, 5]
        assert [m["ts"] for m in transport.sent] == [1, 1]

    def test_sent_timestamps_strictly_increase_within_session(self):
        proxy, transport = scripted_proxy([[], [], []])
        proxy.query([PREQ_N1, BREQ_FULL, RCONREQ_S])
        ts = [m["ts"] for m in transport.sent]
        assert ts == sorted(set(ts))


def sim_proxy(vulns=(), seed=42, **kw):
    cfg = ClusterConfig(members=MEMBERS, vulnerabilities=frozenset(vulns), seed=seed, **kw)
    handle = spawn_cluster(cfg)
    return ClusterProxy(handle, default_alphabet(cfg))


class TestAgainstSimulator:
    def test_hardened_ladder_query(self):
        proxy = sim_proxy()
        out = proxy.query([BREQ_FULL, RJREQ_SELF, RVREQ_CUR, RCOM_ADD,
                           RCONREQ_S, RCOM_ADD, RCONREQ_S])
        assert [s.tag for s in out[0]] == [BRES]
        assert out[1] == (NO_RESPONSE,)
        assert [s.tag for s in out[2]] == [RVRES] and out[2][0].params[0] == REJECTED
        assert out[3] == (NO_RESPONSE,)              # first command absorbed
        assert [s.tag for s in out[4]] == [RCONRES]  # session still live
        assert out[5] == (NO_RESPONSE,)              # second command locks
        assert out[6] == (NO_RESPONSE,)

    def test_announce_word_orders_by_timestamp(self):
        out = sim_proxy().query([PREQ_SELF])
        assert [s.tag for s in out[0]] == [PRES, BREQ]

    def test_queries_are_reset_isolated(self):
        proxy = sim_proxy()
        word = [BREQ_FULL, RCONREQ_S]
        first = proxy.query(word)
        proxy.query([Symbol(PRES, (NodeRef("n1", KNOWN), DEAD))])  # lock a session
        assert proxy.query(word) == first

    def test_random_words_replay_identically(self):
        alphabet = enumerate_input_alphabet(ACFG)
        rng = random.Random(7)
        words = [[rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
                 for _ in range(25)]
        a = sim_proxy(["unauth_join", "seize_leader"])
        b = sim_proxy(["unauth_join", "seize_leader"])
        for word in words:
            assert a.query(word) == b.query(word), [symbol_label(s) for s in word]

    def test_keepalive_transparency_for_admitted_peer(self):
        proxy = sim_proxy(["unauth_join"])
        word = [BREQ_FULL, RJREQ_SELF] + [RCOM_ADD] * 6
        out = proxy.query(word)
        assert [s.tag for s in out[1]] == [RJRES]
        for reaction in out[2:]:
            assert [s.tag for s in reaction] == [RCOMRES]
        assert proxy.keepalives_answered > 0

    def test_seize_vote_approved_via_proxy(self):
        proxy = sim_proxy(["seize_leader"])
        out = proxy.query([RVREQ_HI])
        assert [s.tag for s in out[0]] == [RVRES]
        assert out[0][0].params[0] == APPROVED
        assert proxy.observe().leader == "n1"

    def test_stats_counters(self):
        proxy = sim_proxy()
        proxy.query([PREQ_N1, RCONREQ_S])
        proxy.query([PREQ_N1])
        assert proxy.resets == 2
        assert proxy.symbols_sent == 3
        assert proxy.ticks_advanced == 3 * 5


class TestSilentWindows:
    """Work counters of the in-process exchange, counted through wrappers:
    a window in which nothing reaches the peer costs the proxy no decode and
    no ``canonical_output``, every exchange moves the clock by exactly
    ``window_ticks``, and a window of several replies is still ordered."""

    def counted(self, monkeypatch, vulns=()):
        """A proxy on a fresh cluster, the names of the proxy-side codec
        calls it makes, and each exchange's clock advance and window."""
        ccfg = ClusterConfig(vulnerabilities=frozenset(vulns))
        handle = spawn_cluster(ccfg)
        calls, windows = [], []
        for name in ("decode", "canonical_output"):
            def wrapper(*args, _name=name, _original=getattr(proxy_module, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(proxy_module, name, wrapper)
        exchange = handle.exchange

        def recording(msg):
            start = handle.now
            window = exchange(msg)
            windows.append((handle.now - start, window))
            return window

        monkeypatch.setattr(handle, "exchange", recording)
        return ClusterProxy(handle, default_alphabet(ccfg)), handle, calls, windows

    @staticmethod
    def words(acfg, count):
        letters = enumerate_input_alphabet(acfg)
        rng = random.Random(19)
        return [[letter] for letter in letters] + [
            [rng.choice(letters) for _ in range(rng.randint(2, 8))] for _ in range(count)]

    def test_silent_exchange_makes_no_proxy_side_decode(self, monkeypatch):
        proxy, handle, calls, windows = self.counted(monkeypatch)
        silent = loud = 0
        for word in self.words(proxy.cfg, 150):
            before, start = len(calls), len(windows)
            outs = proxy.query(word)
            assert len(windows) - start == len(word)
            expected = []
            for out, (advance, window) in zip(outs, windows[start:]):
                assert advance == handle.window_ticks
                if window:
                    loud += 1
                    expected += ["decode"] * len(window) + ["canonical_output"]
                else:
                    silent += 1
                    assert out == (NO_RESPONSE,)
            assert calls[before:] == expected
        assert silent > 2 * loud > 0

    @pytest.mark.parametrize("vulns", [(), tuple(sorted(ALL_VULNERABILITIES))],
                             ids=["hardened", "all"])
    def test_every_exchange_advances_one_window(self, monkeypatch, vulns):
        proxy, handle, _, windows = self.counted(monkeypatch, vulns)
        handle.reset()
        baseline = handle.now
        for word in self.words(proxy.cfg, 150):
            proxy.query(word)
            assert handle.now == baseline + len(word) * handle.window_ticks
        assert {advance for advance, _ in windows} == {handle.window_ticks}

    def test_replies_of_one_window_are_ordered(self, monkeypatch):
        proxy, handle, _, windows = self.counted(monkeypatch, ALL_VULNERABILITIES)
        acfg = proxy.cfg
        several = 0
        for word in self.words(acfg, 300):
            for out, (_, window) in zip(proxy.query(word), windows[-len(word):]):
                events = [(tick, decode(msg, acfg)) for tick, msg in window]
                kept = [(tick, sym) for tick, sym in events if not is_keepalive(sym, acfg)]
                kept.sort(key=lambda e: (e[0], symbol_sort_key(e[1])))
                assert out == (tuple(sym for _, sym in kept) or (NO_RESPONSE,))
                several += len(kept) >= 2
        assert several >= 10

    def test_replies_emitted_out_of_order_come_back_sorted(self, monkeypatch):
        proxy, handle, calls, _ = self.counted(monkeypatch)
        acfg = proxy.cfg
        reset = handle.reset

        def reset_then_vote():
            # A vote lands ahead of the session's first letter, stamped below it.
            term = reset()
            vote = encode(RVREQ_CUR, SessionContext(acfg.cluster_id, acfg.self_id, term))
            handle.inject({**vote, "ts": 0})
            return term

        monkeypatch.setattr(handle, "reset", reset_then_vote)
        # The vote is answered first, yet its reply sorts after the
        # announcement's two, which reach the peer on the same tick.
        out = proxy.query((PREQ_SELF,))[0]
        assert [s.tag for s in out] == [PRES, BREQ, RVRES]
        assert calls == ["decode"] * 3 + ["canonical_output"]
