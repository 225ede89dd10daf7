"""Tests for the simulated cluster: convergence, the session ladder,
vulnerability gating, determinism, and the health observation."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from statefuzz.alphabet import (
    ALIVE, DEAD, APPROVED, REJECTED, BREQ, BRES, PREQ, PRES, RAREQ, RCOMREQ,
    RCOMRES, RCONREQ, RCONRES, RJREQ, RJRES, RVRES, RVREQ,
    DATA_APP, DATA_TOPO, OP_ADD, OP_REMOVE, ConfigError,
    Symbol, decode, encode, enumerate_input_alphabet, frame_encode, is_keepalive,
)
from statefuzz.proxy import SessionContext
from statefuzz.sulsim import (
    _OBSERVATION_FIELDS, ALL_VULNERABILITIES, BASE_NODE_LOAD, ERROR_TYPE, ClusterConfig,
    ClusterHandle, ClusterObservation, VULN_CLEAR_STORE, VULN_FAKE_LINK, VULN_FAKE_MEMBER,
    VULN_SEIZE_LEADER, VULN_SESSION_FLOOD, VULN_UNAUTH_JOIN,
    default_alphabet, spawn_cluster,
)

MEMBERS = ("n1", "n2", "n3", "n4")
H = 5


class Ctx:
    """Minimal sender-side session state for encoding test traffic."""

    def __init__(self, self_id="dummy", cluster_id="sdwan", base_term=0):
        self.self_id = self_id
        self.cluster_id = cluster_id
        self.observed_leader_term = base_term
        self._ts = 0
        self._last_sent_term = None

    def next_ts(self):
        self._ts += 1
        return self._ts

    def vote_term(self, kind):
        if kind == "current":
            return self.observed_leader_term
        base = self.observed_leader_term
        if self._last_sent_term is not None and self._last_sent_term >= base:
            base = self._last_sent_term
        self._last_sent_term = base + 1
        return self._last_sent_term


def steady(vulns=(), **kw):
    cfg = ClusterConfig(members=MEMBERS, vulnerabilities=frozenset(vulns), **kw)
    handle = spawn_cluster(cfg)
    handle.reset()
    return handle


def acfg_for(handle):
    return default_alphabet(handle.cfg)


def send(handle, ctx, sym, acfg=None):
    """Deliver one symbol, advance one reply window, return decoded replies
    (keep-alive probes toward the peer excluded, as a frontend would)."""
    acfg = acfg or default_alphabet(handle.cfg)
    handle.deliver(encode(sym, ctx))
    out = []
    for _, msg in handle.tick(H):
        assert msg["type"] != ERROR_TYPE, msg["payload"]
        decoded = decode(msg, acfg)
        if not is_keepalive(decoded, acfg):
            out.append(decoded)
    return out


def send_word(handle, ctx, syms):
    acfg = default_alphabet(handle.cfg)
    return [send(handle, ctx, s, acfg) for s in syms]


def ref(node):
    from statefuzz.alphabet import KNOWN, UNKNOWN, NodeRef
    return NodeRef(node, KNOWN if node in MEMBERS else UNKNOWN)


PREQ_N1 = Symbol(PREQ, (ref("n1"),))
PREQ_SELF = Symbol(PREQ, (ref("dummy"),))
PREQ_NZ = Symbol(PREQ, (ref("nz"),))
PRES_DEAD = Symbol(PRES, (ref("n1"), DEAD))
PRES_ALIVE = Symbol(PRES, (ref("n1"), ALIVE))
BREQ_FULL = Symbol(BREQ, (MEMBERS,))
BREQ_EMPTY = Symbol(BREQ, ((),))
BRES_FULL = Symbol(BRES, (MEMBERS,))
RJREQ_SELF = Symbol(RJREQ, (ref("dummy"),))
RJREQ_N1 = Symbol(RJREQ, (ref("n1"),))
RCONREQ_S = Symbol(RCONREQ, ())
RVREQ_CUR = Symbol(RVREQ, (ref("n1"), "current"))
RVREQ_HI = Symbol(RVREQ, (ref("n1"), "higher"))
RVREQ_SELF_HI = Symbol(RVREQ, (ref("dummy"), "higher"))
RCOM_ADD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))
RCOM_CLEAR = Symbol(RCOMREQ, (DATA_APP, OP_REMOVE))
RCOM_LINK = Symbol(RCOMREQ, (DATA_TOPO, OP_ADD))
RAREQ_S = Symbol(RAREQ, ())
LADDER = [BREQ_FULL, RJREQ_SELF, RVREQ_CUR, RCOM_ADD]


def tags(word):
    return [s.tag for s in word]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.members == MEMBERS
        assert cfg.ttl == 4 * H and cfg.reap_interval == 2 * H

    @pytest.mark.parametrize("kw", [
        {"members": ("n1", "n2")},
        {"members": ("n1", "n1", "n2")},
        {"election_timeout_range": (4, 20)},
        {"election_timeout_range": (20, 10)},
        {"members": tuple(f"m{i}" for i in range(20))},
        {"vulnerabilities": frozenset({"nosuch"})},
        {"heartbeat_threshold": 1, "election_timeout_range": (2, 20)},
    ])
    def test_rejects_bad_configs(self, kw):
        with pytest.raises(ConfigError):
            ClusterConfig(**kw)

    def test_digest_tracks_identity(self):
        a = ClusterConfig()
        b = ClusterConfig()
        c = ClusterConfig(vulnerabilities=frozenset({VULN_SEIZE_LEADER}))
        d = ClusterConfig(seed=7)
        assert a.digest() == b.digest()
        assert len({a.digest(), c.digest(), d.digest()}) == 3
        # Every field changes the identity too.
        for kw in ({"members": ("n1", "n2", "n3", "n5")}, {"cluster_id": "lab"},
                   {"heartbeat_threshold": 4}, {"election_timeout_range": (11, 20)},
                   {"apps": ("fwd",)}):
            assert ClusterConfig(**kw).digest() != a.digest(), kw

    def test_all_vulnerabilities_accepted(self):
        cfg = ClusterConfig(vulnerabilities=ALL_VULNERABILITIES)
        assert cfg.vulnerabilities == ALL_VULNERABILITIES


# ---------------------------------------------------------------------------
# Convergence and safety
# ---------------------------------------------------------------------------

class TestConvergence:
    def test_elects_single_leader(self):
        handle = steady()
        assert handle.leader_id in MEMBERS
        assert handle.cluster_term >= 1
        assert handle.leaders_by_term == {handle.cluster_term: handle.leader_id}

    def test_one_leader_per_term(self):
        handle = steady()
        assert len(handle.leaders_by_term) == len(set(handle.leaders_by_term))
        assert handle.leaders_by_term[handle.cluster_term] == handle.leader_id

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_convergence_is_deterministic(self, seed):
        a = steady(seed=seed)
        b = steady(seed=seed)
        assert a.leader_id == b.leader_id
        assert a.cluster_term == b.cluster_term
        assert a.now == b.now
        assert a.observe().to_dict() == b.observe().to_dict()

    def test_reset_then_steady_matches_fresh_simulation(self):
        a = steady(seed=3)
        fingerprint = (a.now, a.leader_id, a.cluster_term, a.observe().to_dict())
        ctx = Ctx()
        send_word(a, ctx, [BREQ_FULL, RJREQ_SELF, PRES_DEAD])
        a.reset()  # snapshot restore path
        b = spawn_cluster(a.cfg)  # born at the baseline
        assert (a.now, a.leader_id, a.cluster_term, a.observe().to_dict()) == fingerprint
        # Timers hold bound methods, and two handles' bound methods never
        # compare equal: compare each timer's function instead.
        snaps = [h._snapshot() for h in (a, b)]
        for snap in snaps:
            snap["events"] = [(at, seq, handler.__func__, args)
                              for at, seq, handler, args in snap["events"]]
        assert snaps[0] == snaps[1]

    def test_reset_replays_identical_reply_stream(self):
        word = [PREQ_SELF, BREQ_FULL, RJREQ_SELF, RVREQ_CUR, PREQ_N1]
        handle = steady()
        first = [[(s.tag, s.params) for s in w] for w in send_word(handle, Ctx(), word)]
        handle.reset()
        second = [[(s.tag, s.params) for s in w] for w in send_word(handle, Ctx(), word)]
        assert first == second


# ---------------------------------------------------------------------------
# Hardened session ladder (no vulnerabilities enabled)
# ---------------------------------------------------------------------------

class TestHardenedLadder:
    def test_probe_member_answered_when_fresh(self):
        out = send(steady(), Ctx(), PREQ_N1)
        assert tags(out[0:1]) == [PRES] and out[0].params[1] == ALIVE

    def test_probe_unknown_target_ignored(self):
        assert send(steady(), Ctx(), PREQ_NZ) == []

    def test_announce_gets_liveness_ack_and_empty_invite(self):
        out = send(steady(), Ctx(), PREQ_SELF)
        assert tags(out) == [PRES, BREQ]
        assert out[0].params[0].id == "dummy" and out[0].params[1] == ALIVE
        assert out[1].params[0] == ()

    def test_bootstrap_answered_but_empty(self):
        out = send(steady(), Ctx(), BREQ_FULL)
        assert tags(out) == [BRES]
        assert out[0].params[0] == ()

    def test_config_bit_unlocks_connect_ack(self):
        handle = steady()
        ctx = Ctx()
        assert send(handle, ctx, RCONREQ_S) == []
        send(handle, ctx, BREQ_FULL)
        assert tags(send(handle, ctx, RCONREQ_S)) == [RCONRES]

    def test_partial_bootstrap_does_not_configure(self):
        handle = steady()
        ctx = Ctx()
        send(handle, ctx, Symbol(BREQ, (("n1", "dummy"),)))
        assert send(handle, ctx, RCONREQ_S) == []

    def test_full_ladder_walkthrough(self):
        handle = steady()
        ctx = Ctx()
        replies = send_word(handle, ctx, LADDER)
        assert tags(replies[0]) == [BRES]
        assert replies[1] == []                      # join held, not granted
        assert tags(replies[2]) == [RVRES] and replies[2][0].params[0] == REJECTED
        assert replies[3] == []                      # sync probe absorbed
        # Further command attempts lock the session down.
        assert send(handle, ctx, RCOM_ADD) == []
        assert send(handle, ctx, PREQ_N1) == []
        assert send(handle, ctx, RCONREQ_S) == []

    def test_probes_freeze_while_join_pending(self):
        handle = steady()
        ctx = Ctx()
        send_word(handle, ctx, [BREQ_FULL, RJREQ_SELF])
        assert send(handle, ctx, PREQ_N1) == []

    def test_vote_recorded_once(self):
        handle = steady()
        ctx = Ctx()
        send_word(handle, ctx, [BREQ_FULL, RJREQ_SELF])
        first = send(handle, ctx, RVREQ_CUR)
        second = send(handle, ctx, RVREQ_CUR)
        assert tags(first) == [RVRES] and second == []

    def test_vote_request_before_join_is_refused_not_recorded(self):
        handle = steady()
        ctx = Ctx()
        out1 = send(handle, ctx, RVREQ_HI)
        out2 = send(handle, ctx, RVREQ_CUR)
        assert tags(out1) == [RVRES] and out1[0].params[0] == REJECTED
        assert tags(out2) == [RVRES] and out2[0].params[0] == REJECTED
        assert handle.leader_id in MEMBERS

    @pytest.mark.parametrize("sym", [RJREQ_SELF, RCOM_ADD, RCOM_CLEAR, RCOM_LINK, RAREQ_S])
    def test_out_of_order_operations_lock_session(self, sym):
        handle = steady()
        ctx = Ctx()
        assert send(handle, ctx, sym) == []
        assert send(handle, ctx, PREQ_N1) == []       # liveness frozen
        out = send(handle, ctx, PREQ_SELF)            # announce still answered
        assert tags(out) == [PRES, BREQ]

    def test_spoofed_death_locks_session(self):
        handle = steady()
        ctx = Ctx()
        assert send(handle, ctx, PRES_DEAD) == []
        assert send(handle, ctx, PREQ_N1) == []
        obs = handle.observe()
        assert all(status == ALIVE for status in obs.membership.values())

    @pytest.mark.parametrize("sym", [
        PRES_ALIVE, Symbol(RJRES, ()), Symbol(RCONRES, ()),
        Symbol(RVRES, (APPROVED,)), Symbol(RVRES, (REJECTED,)),
        Symbol(RCOMRES, ()), Symbol("RARes", ()),
    ])
    def test_unsolicited_responses_ignored(self, sym):
        handle = steady()
        ctx = Ctx()
        assert send(handle, ctx, sym) == []
        assert tags(send(handle, ctx, PREQ_N1)) == [PRES]  # state untouched

    def test_join_request_about_other_node_ignored(self):
        handle = steady()
        ctx = Ctx()
        assert send(handle, ctx, RJREQ_N1) == []
        assert tags(send(handle, ctx, PREQ_N1)) == [PRES]

    def test_ladder_fingerprints_are_distinct(self):
        handle = steady()
        ctx = Ctx()
        seen = {handle.session_fingerprint()}
        for sym in LADDER:
            send(handle, ctx, sym)
            fp = handle.session_fingerprint()
            assert fp not in seen
            seen.add(fp)

    def test_no_vulnerability_ever_triggers(self):
        handle = steady()
        baseline = handle.observe().to_dict()
        ctx = Ctx()
        send_word(handle, ctx, [
            Symbol(RVREQ, (ref("dummy"), "higher")),
            RCOM_CLEAR, RCOM_LINK, PRES_DEAD, RCOM_ADD, RCOM_ADD,
        ])
        handle.tick(4 * H)
        assert handle.observe().to_dict() == baseline


# ---------------------------------------------------------------------------
# Vulnerability gating
# ---------------------------------------------------------------------------

class TestUnauthorizedJoin:
    def test_bootstrap_leaks_member_list(self):
        out = send(steady([VULN_UNAUTH_JOIN]), Ctx(), BREQ_FULL)
        assert tags(out) == [BRES] and out[0].params[0] == MEMBERS

    def test_announce_invite_carries_members(self):
        out = send(steady([VULN_UNAUTH_JOIN]), Ctx(), PREQ_SELF)
        assert tags(out) == [PRES, BREQ] and out[1].params[0] == MEMBERS

    def test_configured_join_is_admitted(self):
        handle = steady([VULN_UNAUTH_JOIN])
        ctx = Ctx()
        send(handle, ctx, BREQ_FULL)
        out = send(handle, ctx, RJREQ_SELF)
        assert tags(out) == [RJRES]
        assert handle.observe().membership.get("dummy") == ALIVE

    def test_join_then_bootstrap_also_admits(self):
        handle = steady([VULN_UNAUTH_JOIN])
        ctx = Ctx()
        assert send(handle, ctx, RJREQ_SELF) == []     # held
        out = send(handle, ctx, BRES_FULL)
        assert tags(out) == [RJRES]
        assert handle.observe().membership.get("dummy") == ALIVE

    def test_admitted_session_is_operational(self):
        handle = steady([VULN_UNAUTH_JOIN])
        ctx = Ctx()
        send_word(handle, ctx, [BREQ_FULL, RJREQ_SELF])
        assert tags(send(handle, ctx, PREQ_N1)) == [PRES]
        assert tags(send(handle, ctx, RCOM_ADD)) == [RCOMRES]
        assert tags(send(handle, ctx, RJREQ_SELF)) == [RJRES]  # idempotent

    def test_flag_off_never_admits(self):
        handle = steady()
        ctx = Ctx()
        send_word(handle, ctx, [BREQ_FULL, RJREQ_SELF, BRES_FULL])
        assert "dummy" not in handle.observe().membership


class TestSeizeLeader:
    def test_higher_term_vote_approved_and_leadership_moves(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        before = handle.cluster_term
        out = send(handle, ctx, RVREQ_SELF_HI)
        assert tags(out) == [RVRES] and out[0].params[0] == APPROVED
        obs = handle.observe()
        assert obs.leader == "dummy"
        assert obs.term == before + 1
        assert handle.dummy.is_leader

    def test_member_candidate_becomes_leader(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        send(handle, ctx, RVREQ_HI)
        obs = handle.observe()
        assert obs.leader == "n1" and obs.term == handle.cluster_term
        assert handle.leader_id == "n1"

    def test_seized_leadership_persists(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        send(handle, ctx, RVREQ_SELF_HI)
        handle.tick(10 * H)
        assert handle.observe().leader == "dummy"

    def test_dummy_leader_accepts_append_stream(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        send(handle, ctx, RVREQ_SELF_HI)
        out = send(handle, ctx, RAREQ_S)
        assert [s.tag for s in out] == ["RARes"]

    def test_member_takes_leadership_back_from_the_dummy(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        send(handle, ctx, RVREQ_SELF_HI)
        send(handle, ctx, RVREQ_HI)
        assert not handle.dummy.is_leader
        assert handle.leader_id == "n1"
        assert list(handle.leaders_by_term.values())[-2:] == ["dummy", "n1"]
        assert send(handle, ctx, RAREQ_S) == []
        assert handle.dummy.locked

    def test_current_term_vote_still_refused(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        out = send(handle, ctx, RVREQ_CUR)
        assert tags(out) == [RVRES] and out[0].params[0] == REJECTED
        assert handle.observe().leader in MEMBERS

    def test_repeated_seizes_raise_term_monotonically(self):
        handle = steady([VULN_SEIZE_LEADER])
        ctx = Ctx(base_term=handle.cluster_term)
        terms = []
        for _ in range(3):
            send(handle, ctx, RVREQ_SELF_HI)
            terms.append(handle.observe().term)
        assert terms == sorted(terms) and len(set(terms)) == 3


class TestSessionFlood:
    def test_each_command_allocates_a_session(self):
        handle = steady([VULN_SESSION_FLOOD])
        ctx = Ctx()
        for _ in range(5):
            out = send(handle, ctx, RCOM_ADD)
            assert tags(out) == [RCOMRES]
        assert handle.observe().sessions_open == 5

    def test_flood_exceeds_safety_margin_and_loads_leader(self):
        handle = steady([VULN_SESSION_FLOOD])
        ctx = Ctx()
        for _ in range(40):
            send(handle, ctx, RCOM_ADD)
        obs = handle.observe()
        assert obs.sessions_open > 4 * len(MEMBERS)
        assert obs.resource_load[obs.leader] == BASE_NODE_LOAD + obs.sessions_open
        others = [v for m, v in obs.resource_load.items() if m != obs.leader]
        assert all(v == BASE_NODE_LOAD for v in others)

    def test_sessions_eventually_reaped(self):
        handle = steady([VULN_SESSION_FLOOD])
        ctx = Ctx()
        for _ in range(8):
            send(handle, ctx, RCOM_ADD)
        handle.tick(40 * H)
        assert handle.observe().sessions_open == 0

    def test_flag_off_opens_nothing(self):
        handle = steady()
        ctx = Ctx()
        send_word(handle, ctx, [RCOM_ADD] * 10)
        assert handle.observe().sessions_open == 0


class TestClearStore:
    def test_remove_command_wipes_apps(self):
        handle = steady([VULN_CLEAR_STORE])
        out = send(handle, Ctx(), RCOM_CLEAR)
        assert tags(out) == [RCOMRES]
        assert handle.observe().apps == ()

    def test_other_commands_do_not_wipe(self):
        handle = steady([VULN_CLEAR_STORE])
        send(handle, Ctx(), RCOM_ADD)
        assert handle.observe().apps == ("fwd", "stats", "acl")

    def test_flag_off_keeps_store(self):
        handle = steady()
        send(handle, Ctx(), RCOM_CLEAR)
        assert handle.observe().apps == ("fwd", "stats", "acl")


class TestFakeMember:
    def test_death_gossip_trusted(self):
        handle = steady([VULN_FAKE_MEMBER])
        ctx = Ctx()
        assert send(handle, ctx, PRES_DEAD) == []
        assert handle.observe().membership["n1"] == DEAD
        # Session stays live: the gossip was accepted, not punished.
        assert tags(send(handle, ctx, PREQ_N1)) == [PRES]

    def test_probe_reports_victim_dead(self):
        handle = steady([VULN_FAKE_MEMBER])
        ctx = Ctx()
        send(handle, ctx, PRES_DEAD)
        out = send(handle, ctx, PREQ_N1)
        assert out[0].params[1] == DEAD

    def test_victim_heals_after_probe_rounds(self):
        handle = steady([VULN_FAKE_MEMBER])
        ctx = Ctx()
        send(handle, ctx, PRES_DEAD)
        handle.tick(4 * H)
        assert handle.observe().membership["n1"] == ALIVE

    def test_flag_off_distrusts_gossip(self):
        handle = steady()
        send(handle, Ctx(), PRES_DEAD)
        assert handle.observe().membership["n1"] == ALIVE


class TestFakeLink:
    def test_topology_add_injects_link(self):
        handle = steady([VULN_FAKE_LINK])
        out = send(handle, Ctx(), RCOM_LINK)
        assert tags(out) == [RCOMRES]
        assert ("a2", "b2") in handle.observe().links

    def test_injected_link_poisons_reachability(self):
        handle = steady([VULN_FAKE_LINK])
        send(handle, Ctx(), RCOM_LINK)
        reach = handle.observe().reachability
        assert reach["n1"]["n2"] is False and reach["n2"]["n1"] is False
        assert reach["n1"]["n3"] is True and reach["n3"]["n4"] is True
        assert all(reach[m][m] for m in MEMBERS)

    def test_poisoned_pair_follows_config_order(self):
        members = ("n3", "n1", "n4", "n2")
        handle = spawn_cluster(ClusterConfig(
            members=members, vulnerabilities=frozenset({VULN_FAKE_LINK})))
        handle.reset()
        send(handle, Ctx(), RCOM_LINK)
        reach = handle.observe().reachability
        cut = [(a, b) for a in members for b in members if not reach[a][b]]
        assert cut == [("n3", "n1"), ("n1", "n3")]

    def test_flag_off_keeps_topology(self):
        handle = steady()
        send(handle, Ctx(), RCOM_LINK)
        obs = handle.observe()
        assert len(obs.links) == 3
        assert all(all(row.values()) for row in obs.reachability.values())


# ---------------------------------------------------------------------------
# Keep-alive traffic toward an admitted peer
# ---------------------------------------------------------------------------

class TestKeepAlives:
    def admit(self):
        handle = steady([VULN_UNAUTH_JOIN])
        ctx = Ctx()
        send_word(handle, ctx, [BREQ_FULL, RJREQ_SELF])
        return handle

    def test_admitted_peer_receives_probe_and_heartbeat(self):
        handle = self.admit()
        acfg = acfg_for(handle)
        seen = set()
        for _, msg in handle.tick(2 * H):
            seen.add(decode(msg, acfg).tag)
        assert PREQ in seen and RAREQ in seen

    def test_keepalives_are_flagged_as_such(self):
        handle = self.admit()
        acfg = acfg_for(handle)
        for _, msg in handle.tick(2 * H):
            assert is_keepalive(decode(msg, acfg), acfg)

    def test_unadmitted_peer_gets_none(self):
        handle = steady()
        send(handle, Ctx(), BREQ_FULL)
        assert handle.tick(4 * H) == []


# ---------------------------------------------------------------------------
# Determinism of the full reply stream
# ---------------------------------------------------------------------------

class TestDeterminism:
    WORD = [PREQ_SELF, BREQ_FULL, RJREQ_SELF, RVREQ_CUR, RVREQ_HI,
            RCOM_ADD, PRES_DEAD, PREQ_N1, RAREQ_S, RCONREQ_S]

    def stream(self, vulns):
        handle = steady(vulns)
        ctx = Ctx(base_term=handle.cluster_term)
        out = []
        for sym in self.WORD:
            handle.deliver(encode(sym, ctx))
            out.extend(handle.tick(H))
        out.append(handle.session_fingerprint())
        out.append(handle.observe().to_dict())
        return out

    @pytest.mark.parametrize("vulns", [
        (), (VULN_UNAUTH_JOIN,), (VULN_SEIZE_LEADER,), tuple(sorted(ALL_VULNERABILITIES)),
    ])
    def test_identical_runs_produce_identical_streams(self, vulns):
        assert self.stream(vulns) == self.stream(vulns)


class TestClockSplits:
    """``tick(a)`` then ``tick(b)`` is ``tick(a + b)``, and both are ``a + b``
    single ticks: the idle jump skips only ticks where nothing happens."""

    @staticmethod
    def session(seed):
        """Two identical handles after the same random letters, the replies to
        the last one still in flight, and a split ``a`` ticks from now: on
        the next timer, next to it, or anywhere."""
        rng = random.Random(seed)
        vulns = set(rng.sample(sorted(ALL_VULNERABILITIES), rng.randint(0, 6)))
        words = []
        if seed % 2:
            # Admitted: the liveness timers send the peer keep-alives.
            vulns.add(VULN_UNAUTH_JOIN)
            words = [BREQ_FULL, RJREQ_SELF]
        cfg = ClusterConfig(vulnerabilities=frozenset(vulns))
        handles = [spawn_cluster(cfg), spawn_cluster(cfg)]
        letters = enumerate_input_alphabet(default_alphabet(cfg))
        words += [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        waits = [rng.randint(0, 2 * H) for _ in words]
        for handle in handles:
            ctx = SessionContext(cluster_id=cfg.cluster_id, self_id="dummy",
                                 observed_leader_term=handle.reset())
            for sym, wait in zip(words, waits):
                handle.tick(wait)
                handle.deliver(encode(sym, ctx))
        events = handles[0]._events
        due = events[0][0] - handles[0].now if events else 0  # no timer pending
        a = max(0, rng.choice([due - 1, due, due + 1, rng.randint(0, 3 * H)]))
        return rng, handles, a

    @staticmethod
    def state(handle):
        timers = sorted((at, seq, handler.__name__, args)
                        for at, seq, handler, args in handle._events)
        return (handle.now, timers, handle.session_fingerprint(),
                handle.observe().to_dict())

    @pytest.mark.parametrize("seed", range(60))
    def test_split_advance_equals_whole_advance(self, seed):
        rng, (split, whole), a = self.session(seed)
        b = rng.randint(0, 3 * H)
        events = split.tick(a) + split.tick(b)
        assert events == whole.tick(a + b)
        assert self.state(split) == self.state(whole)
        assert split.tick(4 * H) == whole.tick(4 * H)

    @pytest.mark.parametrize("seed", range(60))
    def test_advance_equals_single_ticks(self, seed):
        rng, (single, whole), _ = self.session(seed)
        n = rng.randint(0, 4 * H)
        events = [e for _ in range(n) for e in single.tick(1)]
        assert events == whole.tick(n)
        assert self.state(single) == self.state(whole)

    def test_sessions_cover_replies_in_flight_and_timers_on_the_edge(self):
        in_flight = on_timer = admitted = 0
        for seed in range(60):
            _, (handle, _), a = self.session(seed)
            in_flight += bool(handle._replies)
            on_timer += bool(handle._events) and handle.now + a == handle._events[0][0]
            admitted += handle.dummy.admitted
        assert in_flight >= 5 and on_timer >= 5 and admitted >= 5


class TestSleepingTimers:
    """The liveness round and the session reaper are armed only while they
    have work to do, on the grid they would keep if they always ran: the
    round on every multiple of ``heartbeat_threshold``, the reaper on every
    multiple of ``reap_interval``."""

    class ClockSpy(ClusterHandle):
        """Records every value the clock is set to."""

        def __init__(self, cfg):
            self.clock = []
            super().__init__(cfg)

        @property
        def now(self):
            return self.clock[-1]

        @now.setter
        def now(self, value):
            self.clock.append(value)

    @pytest.mark.parametrize("vulns", [(), tuple(sorted(ALL_VULNERABILITIES))],
                             ids=["hardened", "all"])
    def test_fresh_and_reset_handles_hold_no_timer(self, vulns):
        handle = spawn_cluster(ClusterConfig(vulnerabilities=frozenset(vulns)))
        assert handle._events == []
        send_word(handle, Ctx(), [BREQ_FULL, RJREQ_SELF, RCOM_ADD, PRES_DEAD])
        assert bool(handle._events) == bool(vulns)
        handle.reset()
        assert handle._events == []

    @pytest.mark.parametrize("sym", [PREQ_NZ, PRES_ALIVE, RCONREQ_S, RCOM_ADD],
                             ids=lambda s: s.tag)
    def test_exchange_without_reply_advances_in_one_jump(self, sym):
        handle = self.ClockSpy(ClusterConfig())
        handle.reset()
        start = handle.now
        handle.clock[:] = [start]
        assert handle.exchange(encode(sym, Ctx())) == []
        assert handle.clock == [start, start + handle.window_ticks]

    @pytest.mark.parametrize("seed", range(10))
    def test_keepalives_keep_the_heartbeat_grid(self, seed):
        rng = random.Random(seed)
        handle = steady([VULN_UNAUTH_JOIN])
        acfg, ctx = acfg_for(handle), Ctx()
        handle.tick(rng.randint(0, 4 * H))
        handle.inject(encode(BREQ_FULL, ctx))
        handle.tick(rng.randint(0, 2 * H))
        handle.inject(encode(RJREQ_SELF, ctx))
        assert handle.dummy.admitted
        admitted, span = handle.now, 6 * H
        keepalives = [(t, sym.tag) for t, msg in handle.tick(span)
                      for sym in [decode(msg, acfg)] if is_keepalive(sym, acfg)]
        # A round fires on each multiple of H after admission; its probe and
        # heartbeat reach the peer one tick later.
        rounds = [t for t in range(admitted + 1, admitted + span) if t % H == 0]
        assert len(rounds) >= 5
        assert keepalives == [(t + 1, tag) for t in rounds for tag in (PREQ, RAREQ)]

    @pytest.mark.parametrize("seed", range(10))
    def test_sessions_are_reaped_on_the_reap_grid(self, seed):
        rng = random.Random(seed)
        handle = steady([VULN_SESSION_FLOOD])
        ttl, interval = handle.cfg.ttl, handle.cfg.reap_interval
        ctx = Ctx()
        for _ in range(2):  # the second session opens while the reaper sleeps
            handle.tick(rng.randint(0, 3 * H))
            opened = handle.now
            handle.inject(encode(RCOM_ADD, ctx))
            assert handle.observe().sessions_open == 1
            while handle.observe().sessions_open:
                handle.tick(1)
            # The first multiple of the interval at which the session is ttl old.
            assert handle.now == -(-(opened + ttl) // interval) * interval
            assert handle._events == []

    def test_a_cluster_without_liveness_rounds_sends_no_keepalive(self):
        # The stand-in for a cluster that never probes in test_acceptance's
        # keep-alive transparency check.
        class SilentCluster(ClusterHandle):
            def _swim_round(self):
                pass

        cfg = ClusterConfig(members=MEMBERS, vulnerabilities=frozenset([VULN_UNAUTH_JOIN]))
        loud, quiet = spawn_cluster(cfg), SilentCluster(cfg)
        for handle in (loud, quiet):
            handle.reset()
            send_word(handle, Ctx(), [BREQ_FULL, RJREQ_SELF])
            assert handle.dummy.admitted
        assert loud.tick(4 * H)
        assert quiet.tick(4 * H) == []


class TestPinnedReplyStream:
    """The raw reply stream, pinned across builds.

    Two runs of one build cannot show that a change reordered replies or
    moved them to another tick; a digest recorded from an earlier build
    can.  Each of 200 sessions is 1-12 random letters, each delivered alone
    (``inject``) or with a reply window (``exchange``), with the odd stale
    re-delivery that earns an error frame, then a three-heartbeat tail.
    """

    @staticmethod
    def digest(vulns) -> str:
        handle = spawn_cluster(ClusterConfig(vulnerabilities=frozenset(vulns)))
        letters = enumerate_input_alphabet(default_alphabet(handle.cfg))
        rng = random.Random(2024)
        sink = hashlib.sha256()

        def take(replies):
            for tick, msg in replies:
                sink.update(b"%d:" % tick + frame_encode(msg))

        for _ in range(200):
            ctx = SessionContext(cluster_id=handle.cfg.cluster_id, self_id="dummy",
                                 observed_leader_term=handle.reset())
            msg = None
            for _ in range(rng.randint(1, 12)):
                if msg is not None and rng.random() < 0.1:
                    handle.deliver(msg)  # stale timestamp: rejected
                msg = encode(rng.choice(letters), ctx)
                if rng.random() < 0.3:
                    handle.inject(msg)
                else:
                    take(handle.exchange(msg))
            take(handle.tick(3 * handle.cfg.heartbeat_threshold))
            sink.update(json.dumps(handle.observe().to_dict(), sort_keys=True).encode())
        return sink.hexdigest()

    @pytest.mark.parametrize("vulns, expected", [
        ((), "3216f2ed7db2dea4a08267e310c4ee936dc5ffdbe19450162ce3afc2d57dc9a4"),
        (tuple(sorted(ALL_VULNERABILITIES)),
         "1ef86fe5d687e017e0f83e3ce2f06bb2ea032ec7232ca2d4e9a6e141d7cfa800"),
    ], ids=["hardened", "all"])
    def test_reply_stream_digest(self, vulns, expected):
        assert self.digest(vulns) == expected


def test_bootstrap_outcome_digest():
    """The converged baseline of 200 random valid configs, pinned across
    builds: its tick, leader, term, liveness timers (none: they sleep until a
    peer is admitted or a session opens) and observation."""
    rng = random.Random(2024)
    sink = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(3, 7)
        hb = rng.randint(2, 6)
        lo = rng.randint(hb + 1, hb + 12)
        hi = lo + n - 1 + rng.randint(0, 12)
        members = tuple(f"m{i}" for i in rng.sample(range(10), n))
        handle = spawn_cluster(ClusterConfig(
            members=members, heartbeat_threshold=hb, election_timeout_range=(lo, hi),
            seed=rng.randrange(10**6)))
        handle.reset()
        timers = sorted((at, handler.__name__) for at, _, handler, _ in handle._events
                        if handler.__name__ in ("_swim_round", "_session_reap"))
        sink.update(json.dumps([handle.now, handle.leader_id, handle.cluster_term, timers,
                                handle.observe().to_dict()], sort_keys=True).encode())
    assert sink.hexdigest() == "4f7390e28bae18dfb5886061505c4e4faf4857505f0e9d6bf473349fd2f1506c"


# ---------------------------------------------------------------------------
# Observation shape
# ---------------------------------------------------------------------------

class TestObservation:
    def test_baseline_shape(self):
        handle = steady()
        obs = handle.observe()
        assert obs.origin == handle.cfg.digest()
        assert set(obs.membership) == set(MEMBERS)
        assert obs.apps == ("fwd", "stats", "acl")
        assert len(obs.links) == 3
        assert obs.sessions_open == 0
        assert set(obs.resource_load) == set(MEMBERS)
        assert obs.resource_load[obs.leader] == BASE_NODE_LOAD

    def test_observe_is_side_effect_free(self):
        handle = steady()
        before = handle.now
        d1 = handle.observe().to_dict()
        d2 = handle.observe().to_dict()
        assert d1 == d2 and handle.now == before

    def test_dict_roundtrip(self):
        obs = steady().observe()
        again = ClusterObservation.from_dict(obs.to_dict())
        assert again.to_dict() == obs.to_dict()

    def test_wire_field_table_names_every_field(self):
        # ``to_dict`` writes the dataclass's fields, ``from_dict`` reads the
        # table's keys: one list of fields.
        assert list(_OBSERVATION_FIELDS) == [
            field.name for field in dataclasses.fields(ClusterObservation)]


# ---------------------------------------------------------------------------
# Malformed input rejection
# ---------------------------------------------------------------------------

class TestRejection:
    def msg(self, **kw):
        return {"cluster_id": "sdwan", "sender": "dummy", "ts": 1,
                "type": "ProbeRequest", "payload": {"target": "n1"}, **kw}

    def errors(self, handle):
        return [m for _, m in handle.tick(H) if m["type"] == ERROR_TYPE]

    def test_wrong_cluster_rejected(self):
        handle = steady()
        handle.deliver(self.msg(cluster_id="other"))
        assert len(self.errors(handle)) == 1

    def test_member_sender_rejected(self):
        handle = steady()
        handle.deliver(self.msg(sender="n1"))
        assert len(self.errors(handle)) == 1

    def test_nonmonotonic_ts_rejected(self):
        handle = steady()
        handle.deliver(self.msg(ts=5))
        handle.tick(H)
        handle.deliver(self.msg(ts=5))
        assert len(self.errors(handle)) == 1

    def test_unknown_type_rejected(self):
        handle = steady()
        handle.deliver(self.msg(type="Bogus", payload={}))
        assert len(self.errors(handle)) == 1

    def test_malformed_payload_rejected(self):
        handle = steady()
        handle.deliver(self.msg(payload={"target": 7}))
        assert len(self.errors(handle)) == 1

    def test_rejection_does_not_disturb_cluster(self):
        handle = steady()
        before = handle.observe().to_dict()
        handle.deliver(self.msg(cluster_id="other"))
        handle.tick(H)
        assert handle.observe().to_dict() == before
        assert tags(send(handle, Ctx(), PREQ_N1)) == [PRES]

    @pytest.mark.parametrize("bad", ["not a message", "no ts", "a sixth key"])
    def test_anything_but_a_message_raises(self, bad):
        msg = self.msg()
        if bad == "no ts":
            del msg["ts"]
        elif bad == "a sixth key":
            msg["extra"] = 1
        else:
            msg = tuple(msg.values())
        handle = steady()
        with pytest.raises(TypeError):
            handle.deliver(msg)
