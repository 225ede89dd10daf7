"""Machine execution, pruning, serialization, minimization, isomorphism."""
from __future__ import annotations

import random

import pytest

from statefuzz.alphabet import NO_RESPONSE, RAREQ, Symbol
from statefuzz.mealy import (
    MealyMachine, ModelError, PrunePolicy, isomorphic, minimize,
)

from helpers import (
    T0_ALPHABET, T0_HEARTBEAT, T0_JOIN, T0_JOIN_ACK, T0_PROBE, T0_PROBE_ACK,
    JOIN_CONFIG, JOIN_REQ_SELF, build_join_fixture, build_t0, random_machine,
    relabel_machine,
)


class TestExecution:
    def test_step_moves_and_outputs(self):
        t0 = build_t0()
        nxt, out = t0.step("q0", T0_PROBE)
        assert nxt == "q1" and out == (T0_PROBE_ACK,)

    def test_run_empty_word(self):
        assert build_t0().run_outputs([]) == ()

    def test_run_outputs_per_position(self):
        t0 = build_t0()
        assert t0.run_outputs([T0_PROBE, T0_JOIN]) == ((T0_PROBE_ACK,), (T0_JOIN_ACK,))

    def test_state_after(self):
        t0 = build_t0()
        assert t0.state_after([T0_PROBE, T0_JOIN]) == "q2"
        assert t0.state_after([]) == "q0"

    def test_step_unknown_state_raises(self):
        with pytest.raises(ModelError):
            build_t0().step("nope", T0_PROBE)

    def test_step_unknown_input_raises(self):
        with pytest.raises(ModelError):
            build_t0().step("q0", Symbol("mystery"))

    def test_join_path_step_chain(self):
        j = build_join_fixture()
        s1, out1 = j.step("V0", JOIN_REQ_SELF)
        assert s1 == "V1" and out1 == (NO_RESPONSE,)
        s2, out2 = j.step(s1, JOIN_CONFIG)
        assert s2 == "V4" and out2[-1].tag == "RJRes"
        assert len({"V0", s1, s2}) == 3

    def test_partial_table_rejected(self):
        t0 = build_t0()
        broken = dict(t0.transitions)
        del broken[("q2", T0_HEARTBEAT)]
        with pytest.raises(ModelError):
            MealyMachine(t0.states, t0.initial, t0.input_alphabet, broken)

    def test_unknown_successor_rejected(self):
        t0 = build_t0()
        broken = dict(t0.transitions)
        broken[("q0", T0_PROBE)] = ("ghost", (T0_PROBE_ACK,))
        with pytest.raises(ModelError):
            MealyMachine(t0.states, t0.initial, t0.input_alphabet, broken)

    def test_transition_on_a_letter_outside_the_alphabet_rejected(self):
        # minimize, to_json and so a from_json round trip would drop it.
        stray = Symbol("RJRes")
        transitions = {("a", Symbol("RConReq")): ("a", (NO_RESPONSE,)),
                       ("a", stray): ("a", (NO_RESPONSE,))}
        with pytest.raises(ModelError, match="outside the alphabet"):
            MealyMachine(("a",), "a", (Symbol("RConReq"),), transitions)


class TestPrune:
    def test_self_loops_hidden_from_traversal(self):
        p = build_t0().prune()
        edges_q2 = list(p.traversal_edges("q2"))
        assert edges_q2 == []  # q2 has only self-loops

    def test_state_set_unchanged_and_run_unaffected(self):
        t0 = build_t0()
        p = t0.prune()
        assert p.states == t0.states
        word = [T0_HEARTBEAT, T0_PROBE, T0_HEARTBEAT, T0_JOIN]
        assert p.run_outputs(word) == t0.run_outputs(word)

    def test_others_labels_removed(self):
        # Give the heartbeat letter a real (state-changing) edge, then prune it away.
        t0 = build_t0()
        t = dict(t0.transitions)
        t[("q0", T0_HEARTBEAT)] = ("q1", (NO_RESPONSE,))
        m = MealyMachine(t0.states, t0.initial, t0.input_alphabet, t)
        p = m.prune(PrunePolicy(others_labels=frozenset({RAREQ})))
        assert all(a.tag != RAREQ for a, _, _ in p.traversal_edges("q0"))
        # without the policy the edge is visible
        assert any(a.tag == RAREQ for a, _, _ in m.prune().traversal_edges("q0"))

    def test_idempotent(self):
        p1 = build_t0().prune()
        assert p1.prune() == p1

    def test_reachability_respects_mask(self):
        def targets(m):
            return {nxt for s in m.states for _, nxt, _ in m.traversal_edges(s)}

        t0 = build_t0()
        assert targets(t0.prune()) == {"q1", "q2"}
        # hide the only edge into q2 via an "others" policy on the join letter
        assert targets(t0.prune(PrunePolicy(others_labels=frozenset({T0_JOIN})))) == {"q1"}


class TestSerialization:
    def test_json_round_trip(self):
        t0 = build_t0()
        assert MealyMachine.from_json(t0.to_json()) == t0

    def test_json_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_machine(rng)
            assert MealyMachine.from_json(m.to_json()) == m

    def test_json_stable_bytes(self):
        m = build_t0()
        assert m.to_json() == m.to_json()

    def test_from_json_garbage(self):
        with pytest.raises(ModelError):
            MealyMachine.from_json('{"kind": "soup"}')

    def test_dot_stable_bytes(self):
        m = build_t0()
        assert m.to_dot() == m.to_dot()
        p = m.prune()
        assert p.to_dot() == p.to_dot()

    def test_dot_golden(self):
        dot = build_t0().to_dot()
        assert dot.startswith("digraph mealy {\n  rankdir=LR;\n")
        assert '"__start" -> "q0";' in dot
        assert '"q0" -> "q1" [label="PReq(A)/PRes(A,alive)"];' in dot
        assert '"q1" -> "q2" [label="RJReq(A)/RJRes"];' in dot
        assert '"q2" -> "q2" [label="RAReq/-"];' in dot
        assert dot.endswith("}\n")

    def test_dot_marks_pruned_edges(self):
        dot = build_t0().prune().to_dot()
        assert "style=dashed" in dot


class TestMinimize:
    def test_merges_equivalent_states(self):
        # p2 and p3 behave identically; expect a 3-state minimal machine.
        a = Symbol("go")
        nr = (NO_RESPONSE,)
        out = (Symbol("ack"),)
        echo = (Symbol("echo"),)
        t = {
            ("p0", a): ("p1", out),
            ("p1", a): ("p2", nr),
            ("p2", a): ("p3", echo),
            ("p3", a): ("p2", echo),
        }
        m = MealyMachine(("p0", "p1", "p2", "p3"), "p0", (a,), t)
        mm = minimize(m)
        assert len(mm.states) == 3
        assert mm.initial == "q0"
        for word_len in range(6):
            word = [a] * word_len
            assert mm.run_outputs(word) == m.run_outputs(word)

    def test_drops_unreachable_states(self):
        a = Symbol("go")
        nr = (NO_RESPONSE,)
        t = {
            ("s0", a): ("s0", nr),
            ("island", a): ("island", (Symbol("echo"),)),
        }
        m = MealyMachine(("s0", "island"), "s0", (a,), t)
        assert len(minimize(m).states) == 1

    def test_canonical_names(self):
        mm = minimize(build_t0())
        assert mm.states == ("q0", "q1", "q2")

    def test_behavior_preserved_random(self):
        rng = random.Random(77)
        for _ in range(30):
            m = random_machine(rng)
            mm = minimize(m)
            for _ in range(20):
                word = [rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 8))]
                assert mm.run_outputs(word) == m.run_outputs(word)


class TestIsomorphic:
    def test_relabeled_machines_are_isomorphic(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_machine(rng)
            assert isomorphic(m, relabel_machine(m, rng))

    def test_one_output_flip_breaks_isomorphism(self):
        t0 = build_t0()
        t = dict(t0.transitions)
        t[("q1", T0_JOIN)] = ("q2", (NO_RESPONSE,))
        other = MealyMachine(t0.states, t0.initial, t0.input_alphabet, t)
        assert not isomorphic(t0, other)

    def test_different_alphabets_not_isomorphic(self):
        t0 = build_t0()
        alt = MealyMachine(
            ("q0",), "q0", (Symbol("zz"),), {(("q0"), Symbol("zz")): ("q0", (NO_RESPONSE,))}
        )
        assert not isomorphic(t0, alt)

    def test_equivalent_but_larger_machine_is_isomorphic(self):
        # duplicate q2 into two interchangeable states
        t0 = build_t0()
        nr = (NO_RESPONSE,)
        t = dict(t0.transitions)
        states = t0.states + ("q3",)
        for a in T0_ALPHABET:
            t[("q3", a)] = ("q2", t0.transitions[("q2", a)][1])
            # re-route q2 loops through q3 (same outputs)
            t[("q2", a)] = ("q3", t0.transitions[("q2", a)][1])
        bigger = MealyMachine(states, t0.initial, t0.input_alphabet, t)
        assert isomorphic(t0, bigger)

    def test_reflexive(self):
        m = build_t0()
        assert isomorphic(m, m)
