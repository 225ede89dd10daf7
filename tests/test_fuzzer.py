"""Tests for seed extraction, mutation mechanics and distribution,
campaign orchestration, and exact replay."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from statefuzz.alphabet import (
    DEAD, KNOWN, NO_RESPONSE, UNKNOWN, BREQ, PRES, RCONREQ, RCOMREQ, RJREQ,
    DATA_APP, OP_ADD, AlphabetConfig, DecodeError, NodeRef, Symbol,
    input_domains,
)
from statefuzz.detector import (
    ALL_CRITERIA, Baseline, Detector, CRIT_APP_CHANGE, CRIT_CONFIG_LEAK,
    CRIT_EXHAUSTION, CRIT_REACH_CHANGE, CRIT_STATE_CHANGE,
)
from statefuzz.fuzzer import (
    MUT_DUPLICATE, MUT_REMOVE, MUT_REPLACE, MUT_SWAP_ARG, CampaignReport, FuzzCase, MutationRecord, apply_mutation,
    mutate, replay_case, run_campaign, sdfs_extract,
)
from statefuzz.mealy import MealyMachine, PrunePolicy
from statefuzz.proxy import ClusterProxy
from statefuzz.sulsim import (
    ALL_VULNERABILITIES, ClusterConfig, default_alphabet, spawn_cluster,
)

from helpers import (
    T0_JOIN, T0_PROBE, build_t0, counted_sdfs_extract, iterative_first_visit_walk,
    random_machine,
)
from test_learner import LADDER_ALPHABET, expected_ladder_machine

MEMBERS = ("n1", "n2", "n3", "n4")
ACFG = AlphabetConfig(members=MEMBERS, self_id="dummy", cluster_id="sdwan")
DOMAINS = input_domains(ACFG)

PRES_DEAD = Symbol(PRES, (NodeRef("n1", KNOWN), DEAD))
BREQ_FULL = Symbol(BREQ, (MEMBERS,))
RJREQ_SELF = Symbol(RJREQ, (NodeRef("dummy", UNKNOWN),))
RCONREQ_S = Symbol(RCONREQ, ())
RCOM_ADD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))


# ---------------------------------------------------------------------------
# Seed extraction
# ---------------------------------------------------------------------------

class TestSeedExtraction:
    def test_three_state_fixture_seeds(self):
        seeds = sdfs_extract(build_t0())
        assert seeds == ((T0_PROBE,), (T0_PROBE, T0_JOIN))

    def test_initial_state_is_premarked(self):
        # An edge back to the start state never emits a sequence.
        a, b = T0_PROBE, T0_JOIN
        machine = MealyMachine(
            states=("s0", "s1"), initial="s0", input_alphabet=(a, b),
            transitions={
                ("s0", a): ("s1", (NO_RESPONSE,)),
                ("s0", b): ("s0", (NO_RESPONSE,)),
                ("s1", a): ("s0", (NO_RESPONSE,)),
                ("s1", b): ("s1", (NO_RESPONSE,)),
            })
        assert sdfs_extract(machine) == ((a,),)

    def test_depth_first_preorder(self):
        a, b = T0_PROBE, T0_JOIN
        machine = MealyMachine(
            states=("A", "B", "C", "D"), initial="A", input_alphabet=(a, b),
            transitions={
                ("A", a): ("B", (NO_RESPONSE,)),
                ("A", b): ("C", (NO_RESPONSE,)),
                ("B", a): ("D", (NO_RESPONSE,)),
                ("B", b): ("B", (NO_RESPONSE,)),
                ("C", a): ("C", (NO_RESPONSE,)),
                ("C", b): ("C", (NO_RESPONSE,)),
                ("D", a): ("D", (NO_RESPONSE,)),
                ("D", b): ("D", (NO_RESPONSE,)),
            })
        assert sdfs_extract(machine) == ((a,), (a, a), (b,))

    def test_ladder_model_seeds_cover_all_attack_letters(self):
        machine = expected_ladder_machine().prune(PrunePolicy())
        seeds = sdfs_extract(machine)
        assert len(seeds) == len(machine.states) - 1
        used = {sym for seed in seeds for sym in seed}
        # Every letter that moves the session ladder appears in some seed.
        for sym in LADDER_ALPHABET:
            if sym in (Symbol(RCONREQ, ()),):
                continue  # pure loop letter, never on a tree edge
            assert sym in used or all(
                machine.transitions[(s, sym)][0] == s for s in machine.states
            ), sym

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_independent_walk_on_random_machines(self, seed):
        machine = random_machine(random.Random(seed))
        assert sdfs_extract(machine) == iterative_first_visit_walk(machine)

    @pytest.mark.parametrize("seed", range(20))
    def test_structural_properties(self, seed):
        machine = random_machine(random.Random(1000 + seed))
        seeds = sdfs_extract(machine)
        assert len(seeds) == len(machine.states) - 1
        ends = {machine.state_after(s) for s in seeds}
        assert ends | {machine.initial} == set(machine.states)
        for s in seeds:
            assert len(s) == 1 or s[:-1] in seeds  # prefix-closed tree paths

    def test_masked_edges_do_not_extend_the_walk(self):
        a, b = T0_PROBE, T0_JOIN
        machine = MealyMachine(
            states=("s0", "hidden"), initial="s0", input_alphabet=(a, b),
            transitions={
                ("s0", a): ("hidden", (NO_RESPONSE,)),
                ("s0", b): ("s0", (NO_RESPONSE,)),
                ("hidden", a): ("hidden", (NO_RESPONSE,)),
                ("hidden", b): ("hidden", (NO_RESPONSE,)),
            }).prune(PrunePolicy(others_labels=frozenset({a.tag})))
        assert sdfs_extract(machine) == ()

    def test_operation_count_is_states_plus_scanned_edges(self):
        machine = random_machine(random.Random(5))
        seeds, ops = counted_sdfs_extract(machine)
        assert seeds == sdfs_extract(machine)
        expected = len(machine.states) + sum(
            len(list(machine.traversal_edges(s))) for s in machine.states)
        assert ops == expected


# ---------------------------------------------------------------------------
# Mutation records and application
# ---------------------------------------------------------------------------

SEQ3 = (BREQ_FULL, RJREQ_SELF, RCOM_ADD)


class TestApplyMutation:
    def test_duplicate_expands_in_place(self):
        rec = MutationRecord(2, MUT_DUPLICATE, copies=3)
        assert apply_mutation(SEQ3, rec) == (
            BREQ_FULL, RJREQ_SELF, RJREQ_SELF, RJREQ_SELF, RCOM_ADD)

    def test_remove_drops_position(self):
        assert apply_mutation(SEQ3, MutationRecord(1, MUT_REMOVE)) == (
            RJREQ_SELF, RCOM_ADD)

    def test_replace_copies_from_source(self):
        rec = MutationRecord(3, MUT_REPLACE, source=1)
        assert apply_mutation(SEQ3, rec) == (BREQ_FULL, RJREQ_SELF, BREQ_FULL)

    def test_swap_arg_installs_symbol(self):
        new = Symbol(BREQ, ((),))
        rec = MutationRecord(1, MUT_SWAP_ARG, symbol=new)
        assert apply_mutation(SEQ3, rec) == (new, RJREQ_SELF, RCOM_ADD)

    @pytest.mark.parametrize("rec", [
        MutationRecord(0, MUT_REMOVE),
        MutationRecord(4, MUT_REMOVE),
        MutationRecord(1, MUT_DUPLICATE, copies=1),
        MutationRecord(1, MUT_REPLACE, source=0),
        MutationRecord(1, MUT_SWAP_ARG),
        MutationRecord(1, "explode"),
    ])
    def test_invalid_records_rejected(self, rec):
        with pytest.raises(ValueError):
            apply_mutation(SEQ3, rec)

    def test_record_obj_roundtrip(self):
        records = [
            MutationRecord(2, MUT_DUPLICATE, copies=4),
            MutationRecord(1, MUT_REMOVE),
            MutationRecord(3, MUT_REPLACE, source=2),
            MutationRecord(1, MUT_SWAP_ARG, symbol=Symbol(BREQ, ((),))),
        ]
        for rec in records:
            assert MutationRecord.from_obj(rec.to_obj()) == rec

    @pytest.mark.parametrize("doc", [
        {"position": "1", "action": MUT_REMOVE},
        {"position": 1, "action": MUT_DUPLICATE, "copies": "3"},
        {"position": 2, "action": MUT_REPLACE, "source": True},
        {"position": 1, "action": "explode"},
        {"position": 1, "action": MUT_SWAP_ARG},
    ])
    def test_malformed_stored_record_rejected(self, doc):
        with pytest.raises(ValueError):
            MutationRecord.from_obj(doc)


class TestMutate:
    def test_deterministic_under_fixed_seed(self):
        a = mutate(SEQ3, random.Random(99), DOMAINS)
        b = mutate(SEQ3, random.Random(99), DOMAINS)
        assert a == b

    def test_serialized_record_replays_exactly(self):
        rng = random.Random(0)
        for _ in range(200):
            mutated, rec = mutate(SEQ3, rng, DOMAINS)
            again = MutationRecord.from_obj(rec.to_obj())
            assert apply_mutation(SEQ3, again) == mutated

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            mutate((), random.Random(0), DOMAINS)

    def test_single_letter_never_replaces(self):
        rng = random.Random(1)
        actions = {mutate((BREQ_FULL,), rng, DOMAINS)[1].action for _ in range(300)}
        assert MUT_REPLACE not in actions
        assert actions == {MUT_DUPLICATE, MUT_REMOVE, MUT_SWAP_ARG}

    def test_parameterless_letter_never_swaps(self):
        rng = random.Random(2)
        seq = (RCONREQ_S, RCONREQ_S)
        actions = {mutate(seq, rng, DOMAINS)[1].action for _ in range(300)}
        assert MUT_SWAP_ARG not in actions
        assert actions == {MUT_DUPLICATE, MUT_REMOVE, MUT_REPLACE}

    def test_swap_redraws_a_different_value_in_domain(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(500):
            _, rec = mutate((BREQ_FULL,), rng, DOMAINS)
            if rec.action == MUT_SWAP_ARG:
                assert rec.symbol.tag == BREQ
                assert rec.symbol.params != BREQ_FULL.params
                assert rec.symbol.params in DOMAINS[BREQ]
                seen.add(rec.symbol.params)
        assert len(seen) == len(DOMAINS[BREQ]) - 1  # every alternative reachable

    def test_campaign_weights_bias_structural_edits(self):
        rng = random.Random(5)
        counts = Counter()
        trials = 100_000
        for _ in range(trials):
            _, rec = mutate(SEQ3, rng, DOMAINS)
            counts[rec.action] += 1
        assert abs(counts[MUT_SWAP_ARG] / trials - 0.1) < 0.01, counts
        for action in (MUT_DUPLICATE, MUT_REMOVE, MUT_REPLACE):
            assert abs(counts[action] / trials - 0.3) < 0.012, counts

    def test_duplicate_copy_counts_span_range(self):
        rng = random.Random(6)
        copies = set()
        for _ in range(500):
            _, rec = mutate(SEQ3, rng, DOMAINS)
            if rec.action == MUT_DUPLICATE:
                copies.add(rec.copies)
        assert copies == {2, 3, 4, 5}

    def test_positions_span_sequence_uniformly(self):
        rng = random.Random(7)
        counts = Counter()
        trials = 60_000
        for _ in range(trials):
            _, rec = mutate(SEQ3, rng, DOMAINS)
            counts[rec.position] += 1
        for pos in (1, 2, 3):
            assert abs(counts[pos] / trials - 1 / 3) < 0.012, counts


# ---------------------------------------------------------------------------
# Campaign orchestration
# ---------------------------------------------------------------------------

def campaign_fixture(vulns=(), seed=42):
    cfg = ClusterConfig(members=MEMBERS, vulnerabilities=frozenset(vulns))
    proxy = ClusterProxy(spawn_cluster(cfg), default_alphabet(cfg))
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    machine = expected_ladder_machine().prune(PrunePolicy())
    return proxy, machine, detector


class TestCampaign:
    def test_hardened_cluster_produces_no_findings(self):
        proxy, machine, detector = campaign_fixture()
        report = run_campaign(proxy, machine, detector, rng_seed=11,
                              max_cases=250, domains=DOMAINS)
        assert report.cases_run == 250
        assert report.findings == ()
        assert report.errors == ()
        assert report.stats["cases"] == 250
        assert report.stats["symbols_sent"] == proxy.symbols_sent

    def test_vulnerable_cluster_yields_all_criteria(self):
        proxy, machine, detector = campaign_fixture(ALL_VULNERABILITIES)
        report = run_campaign(proxy, machine, detector, rng_seed=7,
                              max_cases=5000, domains=DOMAINS,
                              until_criteria=ALL_CRITERIA)
        assert set(ALL_CRITERIA) <= report.criteria_found()
        assert report.cases_run < 5000  # early stop once everything is seen

    def test_reports_are_byte_identical_across_reruns(self):
        def run():
            proxy, machine, detector = campaign_fixture(["seize_leader"])
            return run_campaign(proxy, machine, detector, rng_seed=3,
                                max_cases=150, domains=DOMAINS).to_json()
        assert run() == run()

    def test_error_cases_are_recorded_not_fatal(self):
        proxy, machine, detector = campaign_fixture()

        class Exploding:
            symbols_sent = 0
            resets = 0
            ticks_advanced = 0

            def run_cases(self, words):
                for _ in words:
                    yield DecodeError("bad probe status: 'maybe'")

        report = run_campaign(Exploding(), machine, detector, rng_seed=1,
                              max_cases=5, domains=DOMAINS)
        assert report.errors == tuple(
            (case_id, "bad probe status: 'maybe'") for case_id in range(5))
        assert report.findings == ()
        assert report.cases_run == 5

    def test_scheduler_prefers_unexercised_end_states(self):
        proxy, machine, detector = campaign_fixture()
        report = run_campaign(proxy, machine, detector, rng_seed=13,
                              max_cases=400, domains=DOMAINS)
        # All five seeds should get meaningful attention under the bias.
        seen = Counter()
        # Reconstruct the schedule deterministically the same way the
        # campaign does, to check every seed index occurs.
        seeds = sdfs_extract(machine)
        ends = [machine.state_after(s) for s in seeds]
        hits = {e: 0 for e in ends}
        rng = random.Random(13)
        for _ in range(report.cases_run):
            bias = [1.0 / (1 + hits[e]) for e in ends]
            idx = rng.choices(range(len(seeds)), weights=bias)[0]
            hits[ends[idx]] += 1
            seen[idx] += 1
        assert set(seen) == set(range(len(seeds)))

    def test_requires_positive_budget_and_nonempty_seeds(self):
        proxy, machine, detector = campaign_fixture()
        with pytest.raises(ValueError):
            run_campaign(proxy, machine, detector, rng_seed=1, max_cases=0,
                         domains=DOMAINS)
        lonely = MealyMachine(
            states=("only",), initial="only", input_alphabet=(RCONREQ_S,),
            transitions={(("only"), RCONREQ_S): ("only", (NO_RESPONSE,))})
        with pytest.raises(ValueError):
            run_campaign(proxy, lonely, detector, rng_seed=1, max_cases=5,
                         domains=DOMAINS)

    def test_report_dict_shape(self):
        proxy, machine, detector = campaign_fixture(["fake_link"])
        report = run_campaign(proxy, machine, detector, rng_seed=2,
                              max_cases=1000, domains=DOMAINS,
                              until_criteria={CRIT_REACH_CHANGE})
        doc = report.to_dict()
        assert doc["schema_version"] == 1 and doc["kind"] == "fuzz-report"
        assert doc["origin"] == detector.baseline.origin
        assert doc["findings"], "expected at least one reachability finding"
        entry = doc["findings"][0]
        assert {"case_id", "seed_index", "base", "mutations", "word",
                "criteria", "evidence"} <= set(entry)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class TestReplay:
    def test_replayed_case_reproduces_finding(self):
        proxy, machine, detector = campaign_fixture(ALL_VULNERABILITIES)
        report = run_campaign(proxy, machine, detector, rng_seed=21,
                              max_cases=3000, domains=DOMAINS,
                              until_criteria={CRIT_EXHAUSTION})
        case, finding = next(
            (c, f) for c, f in report.findings
            if CRIT_EXHAUSTION in f.criteria)
        outputs1, replayed1 = replay_case(proxy, detector, case)
        outputs2, replayed2 = replay_case(proxy, detector, case)
        assert outputs1 == outputs2
        assert replayed1.signature() == replayed2.signature()
        assert CRIT_EXHAUSTION in replayed1.criteria

    def test_case_serialization_roundtrip(self):
        proxy, machine, detector = campaign_fixture(["clear_store"])
        report = run_campaign(proxy, machine, detector, rng_seed=5,
                              max_cases=2000, domains=DOMAINS,
                              until_criteria={CRIT_APP_CHANGE})
        case, _ = report.findings[0]
        again = FuzzCase.from_obj(case.to_obj())
        assert again == case
        _, finding = replay_case(proxy, detector, again)
        assert CRIT_APP_CHANGE in finding.criteria

    def test_tampered_case_is_rejected(self):
        case = FuzzCase(case_id=0, seed_index=0, base=SEQ3,
                        mutations=(MutationRecord(1, MUT_REMOVE),),
                        word=SEQ3)  # inconsistent with the mutation chain
        proxy, _, detector = campaign_fixture()
        with pytest.raises(ValueError):
            replay_case(proxy, detector, case)

    def test_empty_mutant_runs_cleanly(self):
        proxy, _, detector = campaign_fixture()
        case = FuzzCase(case_id=0, seed_index=0, base=(PRES_DEAD,),
                        mutations=(MutationRecord(1, MUT_REMOVE),), word=())
        outputs, finding = replay_case(proxy, detector, case)
        assert outputs == ()
        assert finding is None
