"""Tests for behavioral detection: baseline handling, each criterion's
trigger and threshold arithmetic, and end-to-end classification of
direct exploit traces against the simulator."""
from __future__ import annotations

import dataclasses

import pytest

from statefuzz.alphabet import (
    ALIVE, DEAD, KNOWN, UNKNOWN, BREQ, BRES, PREQ, PRES, RCOMREQ, RJREQ,
    RVREQ, TERM_HIGHER, DATA_APP, DATA_TOPO, OP_ADD, OP_REMOVE, NodeRef,
    Symbol,
)
from statefuzz.detector import (
    ALL_CRITERIA, Baseline, BaselineMismatchError, CRIT_APP_CHANGE,
    CRIT_CONFIG_LEAK, CRIT_EXHAUSTION, CRIT_REACH_CHANGE, CRIT_STATE_CHANGE,
    Detector, Finding,
)
from statefuzz.proxy import ClusterProxy
from statefuzz.sulsim import (
    ClusterConfig, VULN_CLEAR_STORE, VULN_FAKE_LINK, VULN_FAKE_MEMBER,
    VULN_SEIZE_LEADER, VULN_SESSION_FLOOD, VULN_UNAUTH_JOIN,
    default_alphabet, spawn_cluster,
)

MEMBERS = ("n1", "n2", "n3", "n4")


def fresh_baseline(**kw):
    cfg = ClusterConfig(members=MEMBERS, **kw)
    handle = spawn_cluster(cfg)
    handle.reset()
    return Baseline.capture(handle), handle


def obs_with(base_obs, **changes):
    return dataclasses.replace(base_obs, **changes)


class TestBaseline:
    def test_capture_and_origin(self):
        baseline, handle = fresh_baseline()
        assert baseline.origin == handle.cfg.digest()

    def test_mismatched_origin_rejected(self):
        baseline, _ = fresh_baseline()
        other, _ = fresh_baseline(seed=99)
        det = Detector(baseline)
        with pytest.raises(BaselineMismatchError):
            det.evaluate(other.observation)


class TestCriteria:
    def setup_method(self):
        self.baseline, self.handle = fresh_baseline()
        self.det = Detector(self.baseline)
        self.obs = self.baseline.observation

    def test_unchanged_cluster_is_clean(self):
        assert self.det.evaluate(self.obs) is None
        assert self.det.evaluate(self.obs, received=((Symbol(BRES, ((),)),),)) is None

    def test_config_leak_on_member_disclosure(self):
        word = (Symbol(BRES, (("n1", "n2", "n3", "n4"),)),)
        finding = self.det.evaluate(self.obs, received=(word,))
        assert finding is not None
        assert finding.criteria == (CRIT_CONFIG_LEAK,)
        assert finding.evidence[CRIT_CONFIG_LEAK]["nodes"] == list(MEMBERS)

    def test_config_leak_also_via_bootstrap_request(self):
        word = (Symbol(BREQ, (("n2",),)),)
        finding = self.det.evaluate(self.obs, received=(word,))
        assert finding.criteria == (CRIT_CONFIG_LEAK,)

    def test_unknown_ids_are_not_config(self):
        word = (Symbol(BRES, (("nz", "stranger"),)),)
        assert self.det.evaluate(self.obs, received=(word,)) is None

    def test_state_change_leader(self):
        changed = obs_with(self.obs, leader="dummy")
        finding = self.det.evaluate(changed)
        assert finding.criteria == (CRIT_STATE_CHANGE,)
        assert "leader" in finding.evidence[CRIT_STATE_CHANGE]

    def test_state_change_term(self):
        finding = self.det.evaluate(obs_with(self.obs, term=self.obs.term + 1))
        assert "term" in finding.evidence[CRIT_STATE_CHANGE]

    def test_state_change_membership(self):
        roster = dict(self.obs.membership, dummy=ALIVE)
        finding = self.det.evaluate(obs_with(self.obs, membership=roster))
        assert "membership" in finding.evidence[CRIT_STATE_CHANGE]

    def test_state_change_links(self):
        links = self.obs.links + (("a2", "b2"),)
        finding = self.det.evaluate(obs_with(self.obs, links=links))
        assert finding.evidence[CRIT_STATE_CHANGE]["links"]["added"] == [["a2", "b2"]]

    def test_app_store_change(self):
        finding = self.det.evaluate(obs_with(self.obs, apps=()))
        assert finding.criteria == (CRIT_APP_CHANGE,)
        assert finding.evidence[CRIT_APP_CHANGE] == {
            "before": ["fwd", "stats", "acl"], "after": []}

    def test_reachability_flip(self):
        reach = {a: dict(row) for a, row in self.obs.reachability.items()}
        reach["n1"]["n2"] = False
        finding = self.det.evaluate(obs_with(self.obs, reachability=reach))
        assert finding.criteria == (CRIT_REACH_CHANGE,)
        assert finding.evidence[CRIT_REACH_CHANGE][0]["pair"] == ["n1", "n2"]

    def test_session_threshold_boundary(self):
        limit = 4 * len(MEMBERS)
        assert self.det.evaluate(obs_with(self.obs, sessions_open=limit)) is None
        finding = self.det.evaluate(obs_with(self.obs, sessions_open=limit + 1))
        assert finding.criteria == (CRIT_EXHAUSTION,)
        assert finding.evidence[CRIT_EXHAUSTION]["sessions"] == {
            "open": limit + 1, "limit": limit}

    def test_load_threshold_boundary(self):
        leader = self.obs.leader
        base_load = self.obs.resource_load[leader]  # 2 at steady state
        at_limit = dict(self.obs.resource_load, **{leader: 3 * base_load})
        assert self.det.evaluate(obs_with(self.obs, resource_load=at_limit)) is None
        over = dict(self.obs.resource_load, **{leader: 3 * base_load + 1})
        finding = self.det.evaluate(obs_with(self.obs, resource_load=over))
        assert finding.criteria == (CRIT_EXHAUSTION,)
        assert leader in finding.evidence[CRIT_EXHAUSTION]["load"]

    def test_thresholds_scale_with_the_baseline(self):
        # Three members and a baseline load of 7 on n1: at most 12 sessions
        # and a load of 21 on n1.
        roster = dict(list(self.obs.membership.items())[:3])
        loads = dict(self.obs.resource_load, n1=7)
        det = Detector(Baseline(obs_with(self.obs, membership=roster,
                                         resource_load=loads)))
        base = det.baseline.observation
        assert det.evaluate(obs_with(base, sessions_open=12)) is None
        finding = det.evaluate(obs_with(base, sessions_open=13))
        assert finding.evidence[CRIT_EXHAUSTION] == {
            "sessions": {"open": 13, "limit": 12}}
        assert det.evaluate(obs_with(base, resource_load=dict(loads, n1=21))) is None
        finding = det.evaluate(obs_with(base, resource_load=dict(loads, n1=22)))
        assert finding.evidence[CRIT_EXHAUSTION] == {
            "load": {"n1": {"load": 22, "limit": 21}}}

    def test_multiple_criteria_in_canonical_order(self):
        changed = obs_with(self.obs, leader="dummy", apps=(), sessions_open=100)
        word = (Symbol(BRES, (MEMBERS,)),)
        finding = self.det.evaluate(changed, received=(word,))
        assert finding.criteria == (CRIT_CONFIG_LEAK, CRIT_STATE_CHANGE,
                                    CRIT_APP_CHANGE, CRIT_EXHAUSTION)
        assert list(finding.criteria) == [c for c in ALL_CRITERIA
                                          if c in finding.criteria]

    def test_finding_roundtrip(self):
        finding = self.det.evaluate(obs_with(self.obs, apps=()))
        again = Finding.from_dict(finding.to_dict())
        assert again.signature() == finding.signature()

    @pytest.mark.parametrize("doc", [
        {"criteria": "ab", "evidence": {}},
        {"criteria": ["no-such-criterion"], "evidence": {}},
        {"criteria": [CRIT_APP_CHANGE], "evidence": ["ab"]},
        {"criteria": [CRIT_APP_CHANGE], "evidence": None},
    ])
    def test_finding_from_dict_rejects_malformed_verdicts(self, doc):
        with pytest.raises(ValueError):
            Finding.from_dict(doc)


# ---------------------------------------------------------------------------
# End-to-end classification of direct exploit traces
# ---------------------------------------------------------------------------

PREQ_SELF = Symbol(PREQ, (NodeRef("dummy", UNKNOWN),))
PRES_DEAD = Symbol(PRES, (NodeRef("n1", KNOWN), DEAD))
BREQ_FULL = Symbol(BREQ, (MEMBERS,))
RJREQ_SELF = Symbol(RJREQ, (NodeRef("dummy", UNKNOWN),))
RVREQ_SELF_HI = Symbol(RVREQ, (NodeRef("dummy", UNKNOWN), TERM_HIGHER))
RCOM_ADD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))
RCOM_CLEAR = Symbol(RCOMREQ, (DATA_APP, OP_REMOVE))
RCOM_LINK = Symbol(RCOMREQ, (DATA_TOPO, OP_ADD))

DIRECT_TRACES = {
    VULN_UNAUTH_JOIN: ((BREQ_FULL, RJREQ_SELF), CRIT_CONFIG_LEAK),
    VULN_SEIZE_LEADER: ((RVREQ_SELF_HI,), CRIT_STATE_CHANGE),
    VULN_SESSION_FLOOD: ((RCOM_ADD,) * 40, CRIT_EXHAUSTION),
    VULN_CLEAR_STORE: ((RCOM_CLEAR,), CRIT_APP_CHANGE),
    VULN_FAKE_MEMBER: ((PRES_DEAD,), CRIT_STATE_CHANGE),
    VULN_FAKE_LINK: ((RCOM_LINK,), CRIT_REACH_CHANGE),
}


def run_trace(vulns, word):
    cfg = ClusterConfig(members=MEMBERS, vulnerabilities=frozenset(vulns))
    proxy = ClusterProxy(spawn_cluster(cfg), default_alphabet(cfg))
    proxy.reset_session()
    baseline = Baseline.capture(proxy)
    outputs = proxy.query(word)
    return Detector(baseline).evaluate(proxy.observe(), received=outputs)


class TestEndToEnd:
    @pytest.mark.parametrize("vuln", sorted(DIRECT_TRACES))
    def test_direct_trace_triggers_expected_criterion(self, vuln):
        word, expected = DIRECT_TRACES[vuln]
        finding = run_trace({vuln}, word)
        assert finding is not None, vuln
        assert expected in finding.criteria, (vuln, finding.criteria)

    @pytest.mark.parametrize("vuln", sorted(DIRECT_TRACES))
    def test_hardened_cluster_shrugs_off_direct_traces(self, vuln):
        word, _ = DIRECT_TRACES[vuln]
        assert run_trace(frozenset(), word) is None, vuln

    def test_flood_trace_reports_both_sessions_and_load(self):
        word, _ = DIRECT_TRACES[VULN_SESSION_FLOOD]
        finding = run_trace({VULN_SESSION_FLOOD}, word)
        exhaustion = finding.evidence[CRIT_EXHAUSTION]
        assert exhaustion["sessions"]["open"] > 16
        assert finding.criteria == (CRIT_EXHAUSTION,)

    def test_fake_link_also_counts_as_state_change(self):
        word, _ = DIRECT_TRACES[VULN_FAKE_LINK]
        finding = run_trace({VULN_FAKE_LINK}, word)
        assert set(finding.criteria) == {CRIT_STATE_CHANGE, CRIT_REACH_CHANGE}
