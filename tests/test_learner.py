"""Tests for active model inference: the voting membership oracle, the
observation tree and the L# loop, conformance search, and an end-to-end
learn of the simulated cluster on a restricted alphabet."""
from __future__ import annotations

import io
import itertools
import json
import math
import random
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefuzz.alphabet import (
    ALIVE, DEAD, KNOWN, NO_RESPONSE, UNKNOWN, BREQ, BRES, PREQ, PRES, RCONREQ,
    RCONRES, RCOMREQ, RJREQ, RVREQ, RVRES, REJECTED, TERM_CURRENT,
    DATA_APP, OP_ADD, AlphabetConfig, NodeRef, Symbol, enumerate_input_alphabet,
    symbol_sort_key, word_to_obj,
)
from statefuzz.learner import (
    LearnResult, MembershipOracle, NondeterminismError, ObservationTree,
    PartialResultError, _BudgetExhausted, _LSharp, lstar_learn,
    wmethod_counterexample, wmethod_suite,
)
from statefuzz.mealy import MealyMachine, isomorphic, minimize
from statefuzz.proxy import ClusterProxy, TransportError
from statefuzz.sulsim import ClusterConfig, default_alphabet, spawn_cluster

from helpers import (
    GENERIC_OUTPUTS, T0_ALPHABET, T0_HEARTBEAT, T0_JOIN, T0_JOIN_ACK, T0_PROBE, build_t0,
    harmonized_identifiers, identification_sets, random_machine, splitting_word,
)


def counting_backend(machine):
    calls = []

    def query(word):
        calls.append(tuple(word))
        return machine.run_outputs(word)

    return query, calls


def perfect_counterexample(truth):
    """Exact equivalence check by product exploration; test-only shortcut."""

    def check(hyp):
        seen = {(truth.initial, hyp.initial)}
        queue = deque([((), truth.initial, hyp.initial)])
        while queue:
            word, t, h = queue.popleft()
            for a in truth.input_alphabet:
                tn, tout = truth.transitions[(t, a)]
                hn, hout = hyp.transitions[(h, a)]
                extended = word + (a,)
                if tout != hout:
                    return extended
                if (tn, hn) not in seen:
                    seen.add((tn, hn))
                    queue.append((extended, tn, hn))
        return None

    return check


class RecordingOracle(MembershipOracle):
    """A one-vote oracle that records every word it is asked, answered from
    its tree or not, as a word of letters."""

    def __init__(self, query_fn, alphabet, transcript=None):
        super().__init__(query_fn, alphabet, votes=1, transcript=transcript)
        self.asked = []

    def query(self, ids):
        self.asked.append(tuple(self.letters[a] for a in ids))
        return super().query(ids)


def learn_machine(truth, votes=1, **kw):
    oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=votes)
    return lstar_learn(oracle, perfect_counterexample(truth), **kw)


# ---------------------------------------------------------------------------
# Membership oracle
# ---------------------------------------------------------------------------

class TestMembershipOracle:
    @pytest.mark.parametrize("votes", [0, -1, 2, 4])
    def test_rejects_even_or_nonpositive_votes(self, votes):
        with pytest.raises(ValueError):
            MembershipOracle(lambda w: (), T0_ALPHABET, votes=votes)

    @pytest.mark.parametrize("alphabet", [(), (T0_PROBE, T0_JOIN, T0_PROBE)])
    def test_rejects_an_empty_alphabet_or_a_letter_named_twice(self, alphabet):
        with pytest.raises(ValueError):
            MembershipOracle(build_t0().run_outputs, alphabet, votes=1)

    def test_a_letter_id_is_its_rank_in_the_sorted_alphabet(self):
        oracle = MembershipOracle(build_t0().run_outputs, reversed(T0_ALPHABET), votes=1)
        assert oracle.letters == tuple(sorted(T0_ALPHABET, key=symbol_sort_key))
        assert oracle.ids(oracle.letters) == (0, 1, 2)
        assert oracle.ids((T0_JOIN, T0_JOIN)) == (oracle.letters.index(T0_JOIN),) * 2

    def test_a_foreign_letter_raises_and_costs_no_session(self):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, (T0_PROBE, T0_JOIN), votes=1)
        with pytest.raises(ValueError, match="RAReq"):
            oracle.ids((T0_PROBE, T0_HEARTBEAT))
        assert calls == [] and oracle.trials == 0 and len(oracle.tree) == 1

    def test_caches_resolved_words(self):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, T0_ALPHABET, votes=1)
        word = (T0_PROBE, T0_JOIN)
        first = oracle.query(oracle.ids(word))
        second = oracle.query(oracle.ids(word))
        assert first == second
        assert len(calls) == 1
        assert oracle.cache_hits == 1

    def test_prefixes_come_for_free(self):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, T0_ALPHABET, votes=1)
        word = (T0_PROBE, T0_JOIN, T0_HEARTBEAT)
        full = oracle.query(oracle.ids(word))
        assert oracle.query(oracle.ids(word[:2])) == full[:2]
        assert oracle.query(oracle.ids(word[:1])) == full[:1]
        assert oracle.query(oracle.ids(())) == ()
        assert len(calls) == 1

    def test_majority_beats_one_bad_reading(self):
        machine = build_t0()
        flips = iter([True, False, False])

        def flaky(word):
            good = machine.run_outputs(word)
            if next(flips, False):
                return tuple(reversed(good)) if len(good) > 1 else ((NO_RESPONSE,),)
            return good

        oracle = MembershipOracle(flaky, T0_ALPHABET, votes=3)
        word = (T0_PROBE, T0_JOIN)
        assert oracle.query(oracle.ids(word)) == machine.run_outputs(word)
        assert oracle.trials == 3

    def test_agreement_short_circuits(self):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, T0_ALPHABET, votes=3)
        oracle.query(oracle.ids((T0_PROBE,)))
        assert len(calls) == 2  # two matching readings reach the majority

    def test_single_vote_accepts_first_reading(self):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, T0_ALPHABET, votes=1)
        oracle.query(oracle.ids((T0_PROBE,)))
        assert len(calls) == 1

    def test_no_majority_raises(self):
        counter = itertools.count()

        def chaotic(word):
            return (((Symbol(PRES, (NodeRef(f"x{next(counter)}", UNKNOWN), ALIVE)),),))

        oracle = MembershipOracle(chaotic, T0_ALPHABET, votes=3)
        with pytest.raises(NondeterminismError) as err:
            oracle.query(oracle.ids((T0_PROBE,)))
        assert err.value.word == (T0_PROBE,)
        assert len(err.value.observations) == 3

    def test_hopeless_vote_stops_early(self):
        counter = itertools.count()

        def chaotic(word):
            return (((Symbol(PRES, (NodeRef(f"x{next(counter)}", UNKNOWN), ALIVE)),),))

        oracle = MembershipOracle(chaotic, T0_ALPHABET, votes=5)
        with pytest.raises(NondeterminismError):
            oracle.query(oracle.ids((T0_PROBE,)))
        assert oracle.trials == 4  # 4 distinct readings cannot reach 3 of 5

    def test_prefix_conflict_is_nondeterminism(self):
        good = build_t0().run_outputs

        def backend(word):
            out = list(good(word))
            if len(word) == 2:
                out[0] = (NO_RESPONSE,)  # contradicts the answer for word[:1]
            return tuple(out)

        oracle = MembershipOracle(backend, T0_ALPHABET, votes=1)
        oracle.query(oracle.ids((T0_PROBE,)))
        with pytest.raises(NondeterminismError):
            oracle.query(oracle.ids((T0_PROBE, T0_JOIN)))

    def test_budget_is_enforced(self):
        oracle = MembershipOracle(build_t0().run_outputs, T0_ALPHABET, votes=1,
                                  max_trials=2)
        oracle.query(oracle.ids((T0_PROBE,)))
        oracle.query(oracle.ids((T0_JOIN,)))
        with pytest.raises(_BudgetExhausted):
            oracle.query(oracle.ids((T0_HEARTBEAT,)))

    def test_wrong_arity_backend_rejected(self):
        oracle = MembershipOracle(lambda word: ((NO_RESPONSE,),), T0_ALPHABET, votes=1)
        with pytest.raises(ValueError):
            oracle.query(oracle.ids((T0_PROBE, T0_JOIN)))

    def test_stats_shape(self):
        oracle = MembershipOracle(build_t0().run_outputs, T0_ALPHABET, votes=1)
        oracle.query(oracle.ids((T0_PROBE,)))
        oracle.query(oracle.ids((T0_PROBE,)))
        assert (oracle.trials, oracle.cache_hits) == (1, 1)


# ---------------------------------------------------------------------------
# Observation tree mechanics
# ---------------------------------------------------------------------------

def recording_backend(machine, answers):
    """``machine.run_outputs`` that also records the answer of every prefix
    of every asked word: an independent copy of what the tree holds."""

    def query(word):
        outputs = machine.run_outputs(word)
        for i in range(len(word) + 1):
            answers[tuple(word[:i])] = outputs[:i]
        return outputs

    return query


def apart_in(answers, u, v):
    """Some suffix answered after both words gets different last outputs."""
    n = len(u)
    return any(w[:n] == u and v + w[n:] in answers
               and answers[w][-1] != answers[v + w[n:]][-1]
               for w in answers if len(w) > n)


def lock_machine(n):
    """An n-state combination lock: ``in_a`` advances, ``in_b`` resets, and
    only the n-th ``in_a`` in a row answers."""
    a, b = Symbol("in_a"), Symbol("in_b")
    quiet, open_ = (NO_RESPONSE,), (Symbol("out_x"),)
    transitions = {}
    for i in range(n):
        transitions[(f"l{i}", a)] = (f"l{(i + 1) % n}", open_ if i == n - 1 else quiet)
        transitions[(f"l{i}", b)] = ("l0", quiet)
    return MealyMachine(states=tuple(f"l{i}" for i in range(n)), initial="l0",
                        input_alphabet=(a, b), transitions=transitions)


class TestObservationTree:
    def test_basis_apart_and_frontier_one_candidate_at_every_hypothesis(
            self, monkeypatch):
        checked = []
        build = _LSharp._hypothesis

        def checking_build(learner):
            letters = learner.oracle.letters
            access = {node: tuple(letters[a] for a in word)
                      for node, word in learner.access.items()}
            basis = [access[b] for b in learner.basis]
            for u, v in itertools.combinations(basis, 2):
                assert apart_in(answers, u, v)
            for node, candidates in learner.frontier.items():
                compatible = [b for b in learner.basis
                              if not apart_in(answers, access[node], access[b])]
                assert compatible == candidates
                assert len(compatible) == 1
            checked.append(len(basis))
            return build(learner)

        monkeypatch.setattr(_LSharp, "_hypothesis", checking_build)
        for seed in range(10):
            truth = random_machine(random.Random(seed))
            answers = {}
            oracle = MembershipOracle(recording_backend(truth, answers),
                                      truth.input_alphabet, votes=1)
            result = lstar_learn(
                oracle,
                lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
            assert isomorphic(result.machine, minimize(truth)), seed
        assert len(checked) > 10 and max(checked) > 4

    def test_counterexample_costs_logarithmic_sessions(self, monkeypatch):
        # A counterexample costs one session to ask; the rules then run on it
        # and the tree walk hands the disagreement (word, witness) to binary
        # search, which asks one session per halving and ends at a frontier
        # node apart from its candidate, so that node has no candidates left.
        # Where a random 20-letter prefix keeps the counterexample one, the
        # padded word is returned; on the locks a linear search pays for it.
        costs, asked = [], []
        process, settle = _LSharp._process, _LSharp._settle

        def timed_process(learner, word, witness):
            start = learner.oracle.trials
            process(learner, word, witness)
            costs.append((learner.oracle.trials - start, len(word)))
            assert not all(learner.frontier.values())

        def timed_settle(learner):
            if asked:
                assert learner.oracle.trials - asked.pop() <= 1
            settle(learner)

        monkeypatch.setattr(_LSharp, "_process", timed_process)
        monkeypatch.setattr(_LSharp, "_settle", timed_settle)
        targets = [random_machine(random.Random(seed)) for seed in range(12)]
        targets += [lock_machine(n) for n in range(3, 10)]
        for seed, truth in enumerate(targets):
            oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
            exact = perfect_counterexample(truth)
            rng = random.Random(seed)

            def find(hyp):
                cex = exact(hyp)
                if cex is not None:
                    padded = tuple(rng.choice(truth.input_alphabet)
                                   for _ in range(20)) + cex
                    if truth.run_outputs(padded) != hyp.run_outputs(padded):
                        cex = padded
                    asked.append(oracle.trials)
                return cex

            result = lstar_learn(oracle, find)
            assert isomorphic(result.machine, minimize(truth)), seed
            assert not asked
        assert len(costs) >= 20 and max(n for _, n in costs) >= 24
        for spent, n in costs:
            assert spent <= math.ceil(math.log2(n + 1)), (spent, n)

    def test_tree_stores_each_distinct_prefix_once(self):
        for seed in range(10):
            truth = random_machine(random.Random(seed))
            query, calls = counting_backend(truth)
            oracle = MembershipOracle(query, truth.input_alphabet, votes=1)
            lstar_learn(oracle, lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
            assert len(calls) == len(set(calls))
            prefixes = {word[:i] for word in calls for i in range(len(word) + 1)}
            assert len(oracle.tree) == len(prefixes)
            for prefix in prefixes:
                assert oracle.query(oracle.ids(prefix)) == truth.run_outputs(prefix)
            assert oracle.trials == len(calls)

    def test_conflicting_answer_stores_nothing(self):
        good = build_t0().run_outputs

        def backend(word):
            out = list(good(word))
            if len(word) == 3:
                out[1] = (NO_RESPONSE,)  # contradicts the answer for word[:2]
            return tuple(out)

        oracle = MembershipOracle(backend, T0_ALPHABET, votes=1)
        oracle.query(oracle.ids((T0_PROBE, T0_JOIN)))
        size = len(oracle.tree)
        with pytest.raises(NondeterminismError) as err:
            oracle.query(oracle.ids((T0_PROBE, T0_JOIN, T0_HEARTBEAT)))
        assert err.value.word == (T0_PROBE, T0_JOIN)
        assert len(oracle.tree) == size
        assert oracle.query(oracle.ids((T0_PROBE, T0_JOIN))) == good((T0_PROBE, T0_JOIN))

    def test_rerunning_a_passed_suite_sends_no_session(self):
        for seed in range(5):
            truth = random_machine(random.Random(seed))
            oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
            result = lstar_learn(
                oracle,
                lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
            trials = oracle.trials
            assert wmethod_counterexample(result.machine, oracle, depth=1) is None
            assert oracle.trials == trials


class DictTree:
    """The plain trie the tree's layout must agree with: one dict of
    children per node, in insertion order, and outputs compared by value."""

    def __init__(self):
        self.kids = [{}]
        self.out = [None]

    def lookup(self, ids):
        node, outputs = 0, []
        for a in ids:
            node = self.kids[node].get(a)
            if node is None:
                return None
            outputs.append(self.out[node])
        return tuple(outputs)

    def conflict(self, ids, outcome):
        """The length of the shortest stored prefix that ``outcome``
        contradicts, or ``None``."""
        node = 0
        for depth, (a, output) in enumerate(zip(ids, outcome), 1):
            node = self.kids[node].get(a)
            if node is None:
                return None
            if self.out[node] != output:
                return depth
        return None

    def insert(self, ids, outcome):
        node = 0
        for a, output in zip(ids, outcome):
            child = self.kids[node].get(a)
            if child is None:
                child = self.kids[node][a] = len(self.out)
                self.kids.append({})
                self.out.append(output)
            node = child

    def witness(self, p, q):
        level = [(p, q, ())]
        while level:
            deeper = []
            for p, q, word in level:
                for a, pc in self.kids[p].items():
                    qc = self.kids[q].get(a)
                    if qc is None:
                        continue
                    if self.out[pc] != self.out[qc]:
                        return word + (a,)
                    deeper.append((pc, qc, word + (a,)))
            level = deeper
        return None


TREE_LETTERS = 4


def letter_tree():
    """An empty tree whose letters are their ids ``0 .. TREE_LETTERS-1``."""
    return ObservationTree(range(TREE_LETTERS))


@st.composite
def tree_inputs(draw):
    """Words over ``TREE_LETTERS`` letters, each with the outputs of a small
    random machine, some of them with one output replaced by one the machine
    never gives, so that they may contradict what the tree holds."""
    states = draw(st.integers(1, 3))
    table = st.tuples(st.integers(0, states - 1), st.sampled_from("xy"))
    rows = draw(st.lists(st.lists(table, min_size=TREE_LETTERS, max_size=TREE_LETTERS),
                         min_size=states, max_size=states))
    entries = []
    for word in draw(st.lists(st.lists(st.integers(0, TREE_LETTERS - 1), max_size=7),
                              max_size=30)):
        state, outcome = 0, []
        for a in word:
            state, output = rows[state][a]
            outcome.append((output,))  # a new object each time, equal by value
        if word and draw(st.booleans()):
            outcome[draw(st.integers(0, len(word) - 1))] = ("z",)
        entries.append((tuple(word), tuple(outcome)))
    return entries


class TestTreeLayout:
    """The tree keeps a node's one child in two arrays and a dict only where
    it branches; what it answers must be what a dict per node answers."""

    @given(tree_inputs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_a_dict_per_node(self, entries):
        tree, ref = letter_tree(), DictTree()
        for ids, outcome in entries:
            depth = ref.conflict(ids, outcome)
            size = len(tree)
            if depth is None:
                assert tree._insert(ids, outcome) == outcome
                ref.insert(ids, outcome)
            else:
                with pytest.raises(NondeterminismError) as err:
                    tree._insert(ids, outcome)
                assert err.value.word == ids[:depth]
                assert len(tree) == size
        assert len(tree) == len(ref.out)
        for node, kids in enumerate(ref.kids):
            assert list(tree.children(node)) == list(kids.items())
            for a in range(TREE_LETTERS + 1):
                assert tree.child(node, a) == kids.get(a)
        for ids, _ in entries:
            for word in (ids, ids + (0,), ids[:-1] + (TREE_LETTERS,)):
                assert tree._lookup(word) == ref.lookup(word)
        nodes = range(min(len(tree), 40))
        for p, q in itertools.product(nodes, nodes):
            assert tree._witness(p, q) == ref.witness(p, q)

    def test_a_contradiction_stores_nothing_below_one_child_or_a_branch(self):
        x, y, z = ("x",), ("y",), ("z",)
        tree = letter_tree()
        tree._insert((0, 1), (x, y))  # node 1 has one child
        tree._insert((2,), (x,))      # the root branches
        held = [list(tree.children(node)) for node in range(len(tree))]
        for ids, outcome in [((0, 1, 3), (x, z, x)), ((2, 0), (y, x))]:
            with pytest.raises(NondeterminismError) as err:
                tree._insert(ids, outcome)
            assert err.value.word == ids[:len(ids) - 1]
            assert [list(tree.children(node)) for node in range(len(tree))] == held
        assert held == [[(0, 1), (2, 3)], [(1, 2)], [], []]

    def test_a_missing_child_is_none_at_a_leaf_one_child_and_a_branch(self):
        tree = letter_tree()
        tree._insert((0, 1), (("x",), ("y",)))
        tree._insert((2,), (("x",),))
        assert tree.child(2, 0) is None  # a leaf
        assert tree.child(1, 1) == 2 and tree.child(1, 0) is None  # one child
        assert tree.child(0, 2) == 3 and tree.child(0, 1) is None  # branches
        assert tree._lookup((0, 0)) is None and tree._lookup((1,)) is None


# ---------------------------------------------------------------------------
# Full inference loop
# ---------------------------------------------------------------------------

class TestLStar:
    def test_learns_three_state_fixture(self):
        truth = build_t0()
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
        result = lstar_learn(oracle, perfect_counterexample(truth))
        assert isinstance(result, LearnResult)
        assert isomorphic(result.machine, truth)
        assert result.rounds >= 1
        assert oracle.trials > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_learns_random_machines(self, seed):
        truth = random_machine(random.Random(seed))
        result = learn_machine(truth)
        assert isomorphic(result.machine, truth), seed

    def test_budget_exhaustion_carries_partial_result(self):
        truth = build_t0()
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1,
                                  max_trials=4)
        with pytest.raises(PartialResultError) as err:
            lstar_learn(oracle, perfect_counterexample(truth))
        assert oracle.trials == 4

    def test_round_limit_carries_partial_result(self):
        truth = build_t0()
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
        with pytest.raises(PartialResultError) as err:
            lstar_learn(oracle, lambda hyp: (T0_PROBE,) * 3, max_rounds=2)
        assert err.value.hypothesis is not None
        assert "2" in str(err.value)

    def test_a_counterexample_with_a_foreign_letter_raises_before_a_session(self):
        truth = build_t0()
        query, calls = counting_backend(truth)
        oracle = MembershipOracle(query, truth.input_alphabet, votes=1)
        sessions = []

        def find(hyp):
            sessions.append(len(calls))
            return (T0_PROBE, Symbol(RCONREQ, ()))

        with pytest.raises(ValueError, match="RConReq"):
            lstar_learn(oracle, find)
        assert sessions == [len(calls)] == [oracle.trials]

    def test_the_order_the_alphabet_is_given_in_changes_nothing(self):
        def run(alphabet):
            sink = io.StringIO()
            oracle = MembershipOracle(sim_query_fn(), alphabet, votes=1, transcript=sink)
            result = lstar_learn(
                oracle, lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
            return sink.getvalue(), oracle.trials, result.machine.to_json()

        assert run(tuple(reversed(LADDER_ALPHABET))) == run(LADDER_ALPHABET)

    def test_transport_failure_carries_partial_result(self):
        truth = build_t0()
        calls = itertools.count()

        def dropping(word):
            if next(calls) == 20:
                raise TransportError("link down")
            return truth.run_outputs(word)

        oracle = MembershipOracle(dropping, truth.input_alphabet, votes=1)
        with pytest.raises(PartialResultError) as err:
            lstar_learn(oracle, lambda hyp: wmethod_counterexample(hyp, oracle, depth=2))
        assert isinstance(err.value.__cause__, TransportError)
        assert "link down" in str(err.value)
        assert err.value.hypothesis is not None
        assert oracle.trials == 21  # 20 answered, the 21st dropped

    def test_nondeterministic_target_raises(self):
        rng = random.Random(1)
        truth = build_t0()

        def jittery(word):
            out = list(truth.run_outputs(word))
            out[-1] = ((NO_RESPONSE,) if rng.random() < 0.5
                       else (Symbol(PRES, (NodeRef(f"r{rng.randint(0, 999)}", UNKNOWN), ALIVE)),))
            return tuple(out)

        oracle = MembershipOracle(jittery, truth.input_alphabet, votes=3)
        with pytest.raises(NondeterminismError):
            lstar_learn(oracle, perfect_counterexample(truth))

    def test_transcript_is_deterministic_and_structured(self):
        def run():
            sink = io.StringIO()
            truth = build_t0()
            oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1,
                                      transcript=sink)
            lstar_learn(oracle, perfect_counterexample(truth))
            return sink.getvalue()

        first, second = run(), run()
        assert first == second
        events = [json.loads(line)["event"] for line in first.splitlines()]
        assert events[0] == "start"
        assert "hypothesis" in events
        assert events[-1] == "done"


class TestQueryLines:
    """Each ``query`` line is the canonical JSON of its event, however the
    oracle assembles it."""

    ACFG = AlphabetConfig(members=("n1", "n2"), self_id="dummy",
                          cluster_id="c", unknown_id="nz")
    # Node references known and not, node sets including the empty one,
    # plain strings, NoResponse and multi-letter words.
    OUTPUTS = (
        (NO_RESPONSE,),
        (Symbol(BRES, ((),)),),
        (Symbol(BRES, (("n1", "n2"),)), Symbol(RVRES, (REJECTED,))),
        (Symbol(PRES, (NodeRef("n1", KNOWN), ALIVE)),
         Symbol(PRES, (NodeRef("wire", UNKNOWN), DEAD)), Symbol(RCONRES)),
    )

    @pytest.mark.parametrize("seed", range(4))
    def test_query_line_is_canonical_json_of_its_event(self, seed):
        rng = random.Random(seed)
        letters = enumerate_input_alphabet(self.ACFG)
        states = range(rng.randint(2, 6))
        table = {(s, a): (rng.choice(states), rng.choice(self.OUTPUTS))
                 for s in states for a in letters}
        calls = itertools.count(1)

        def flaky(word):
            # Every fourth answer is garbled, and uniquely so: three votes
            # always reach a majority, some after a third session.
            state, out = 0, []
            for a in word:
                state, piece = table[(state, a)]
                out.append(piece)
            n = next(calls)
            if n % 4 == 0:
                out[-1] = (Symbol(PRES, (NodeRef(f"g{n}", UNKNOWN), DEAD)),)
            return out

        sink = io.StringIO()
        oracle = MembershipOracle(flaky, letters, votes=3, transcript=sink)
        expected = []
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
            trials = oracle.trials
            outputs = oracle.query(oracle.ids(word))
            if oracle.trials > trials:
                expected.append({"event": "query", "word": word_to_obj(word),
                                 "outputs": [word_to_obj(o) for o in outputs],
                                 "trials": oracle.trials - trials})
        lines = sink.getvalue().splitlines()
        assert lines == [json.dumps(e, sort_keys=True, separators=(",", ":"))
                         for e in expected]
        assert {e["trials"] for e in expected} == {2, 3}
        seen = {json.dumps(o) for e in expected for o in e["outputs"]}
        assert seen == {json.dumps(word_to_obj(o)) for o in self.OUTPUTS}


# ---------------------------------------------------------------------------
# Conformance suite
# ---------------------------------------------------------------------------

def t0_without_join_ack():
    """The three-state fixture with the join acknowledgement dropped."""
    truth = build_t0()
    transitions = dict(truth.transitions)
    transitions[("q1", T0_JOIN)] = ("q2", (NO_RESPONSE,))
    return MealyMachine(states=truth.states, initial=truth.initial,
                        input_alphabet=truth.input_alphabet, transitions=transitions)


class TestConformance:
    def test_no_counterexample_for_equivalent_target(self):
        truth = build_t0()
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
        assert wmethod_counterexample(truth, oracle, depth=1) is None

    def test_finds_flipped_output(self):
        truth, broken = build_t0(), t0_without_join_ack()
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
        word = wmethod_counterexample(broken, oracle, depth=1)
        assert word is not None
        assert truth.run_outputs(word) != broken.run_outputs(word)

    @pytest.mark.parametrize("letters", [(T0_PROBE, T0_JOIN),
                                         T0_ALPHABET + (Symbol(RCONREQ, ()),)])
    def test_a_machine_over_another_alphabet_raises_before_a_session(self, letters):
        query, calls = counting_backend(build_t0())
        oracle = MembershipOracle(query, letters, votes=1)
        with pytest.raises(ValueError, match="alphabet"):
            wmethod_counterexample(build_t0(), oracle, depth=1)
        assert calls == [] and oracle.trials == 0

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            wmethod_suite(build_t0(), depth=0)

    def test_deep_divergence_needs_more_depth(self):
        a = T0_PROBE
        truth = MealyMachine(
            states=("c0", "c1", "c2"), initial="c0", input_alphabet=(a,),
            transitions={
                ("c0", a): ("c1", ((NO_RESPONSE,))),
                ("c1", a): ("c2", ((NO_RESPONSE,))),
                ("c2", a): ("c2", (Symbol(PRES, (NodeRef("n1", KNOWN), ALIVE)),)),
            })
        flat = MealyMachine(states=("h0",), initial="h0", input_alphabet=(a,),
                            transitions={("h0", a): ("h0", (NO_RESPONSE,))})
        oracle = MembershipOracle(truth.run_outputs, truth.input_alphabet, votes=1)
        assert wmethod_counterexample(flat, oracle, depth=1) is None
        word = wmethod_counterexample(flat, oracle, depth=2)
        assert word == (a, a, a)

    def test_suite_is_sorted_unique_nonempty(self):
        suite = wmethod_suite(build_t0(), depth=2)
        assert len(suite) == len(set(suite))
        assert all(suite)
        lengths = [len(w) for w in suite]
        assert lengths == sorted(lengths)
        assert suite == wmethod_suite(build_t0(), depth=2)
        assert suite[1:4] == tuple(suite)[1:4] and suite[-1] == tuple(suite)[-1]

    def test_passing_suite_asks_every_word_once_in_a_seeded_order(self):
        machine = next(m for m in (minimize(random_machine(random.Random(seed)))
                                   for seed in itertools.count())
                       if len(m.states) >= 6 and len(m.input_alphabet) >= 2)
        oracle = RecordingOracle(machine.run_outputs, machine.input_alphabet)
        assert wmethod_counterexample(machine, oracle, depth=1) is None
        first = oracle.asked[:]
        assert wmethod_counterexample(machine, oracle, depth=1) is None
        suite = wmethod_suite(machine, depth=1)
        assert len(first) == len(set(first)) == len(suite)
        assert set(first) == set(suite)
        assert oracle.asked == first + first
        assert first != list(suite)

    def test_suite_event_counts_words_asked_and_sessions(self):
        truth, broken = build_t0(), t0_without_join_ack()
        sink = io.StringIO()
        oracle = RecordingOracle(truth.run_outputs, truth.input_alphabet, transcript=sink)
        word = wmethod_counterexample(broken, oracle, depth=1)
        sessions = oracle.trials
        assert wmethod_counterexample(truth, oracle, depth=1) is None
        events = [json.loads(line) for line in sink.getvalue().splitlines()
                  if json.loads(line)["event"] == "suite"]
        assert events == [
            {"event": "suite", "words": len(wmethod_suite(broken, depth=1)),
             "asked": oracle.asked.index(word) + 1, "sessions": sessions,
             "counterexample": True},
            {"event": "suite", "words": len(wmethod_suite(truth, depth=1)),
             "asked": len(wmethod_suite(truth, depth=1)),
             "sessions": oracle.trials - sessions, "counterexample": False},
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_characterization_separates_all_state_pairs(self, seed):
        machine = minimize(random_machine(random.Random(seed)))
        suffixes = set().union(*identification_sets(machine).values())
        for i, p in enumerate(machine.states):
            for q in machine.states[i + 1:]:
                assert any(
                    _run_from(machine, p, w) != _run_from(machine, q, w)
                    for w in suffixes
                ), (p, q)

    @pytest.mark.parametrize("seed", [*range(20), 77])
    def test_separating_words_are_shortest(self, seed):
        # Each pair's word is the first one, shortest and then in letter
        # order, on which the two states answer differently.  Seed 77's
        # machine has a pair that two letters separate, which a search that
        # builds on other pairs' words answers with three.
        machine = minimize(random_machine(random.Random(seed)))
        expected = {s: set() for s in machine.states}
        for p, q in itertools.combinations(machine.states, 2):
            word = _first_separating_word(machine, p, q)
            expected[p].add(word)
            expected[q].add(word)
        assert identification_sets(machine) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_suite_follows_the_hsi_definition(self, seed):
        # Q.Sigma^{<=k+1} (x) H: every word u of the state cover Q extended by
        # up to k + 1 letters, followed by each word of the identifier of the
        # state u reaches.
        machine = minimize(random_machine(random.Random(seed)))
        depth = 1 + seed % 2
        ident = harmonized_identifiers(machine)
        access = {machine.initial: ()}
        queue = deque([machine.initial])
        while queue:
            state = queue.popleft()
            for a in machine.input_alphabet:
                nxt = machine.transitions[(state, a)][0]
                if nxt not in access:
                    access[nxt] = access[state] + (a,)
                    queue.append(nxt)
        middles = [()]
        for n in range(1, depth + 2):
            middles += itertools.product(machine.input_alphabet, repeat=n)
        expected = set()
        for q in access.values():
            for m in middles:
                u = q + tuple(m)
                expected |= {u + w for w in ident[machine.state_after(u)]}
        expected.discard(())
        assert set(wmethod_suite(machine, depth=depth)) == expected

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_suite_is_ordered_by_length_then_letter_rank(self, seed, depth):
        # The order of the suite when it was built and sorted over letters;
        # building it over letter indices must keep it, because the seeded
        # shuffle starts from it.
        machine = minimize(random_machine(random.Random(seed)))
        suite = wmethod_suite(machine, depth=depth)
        rank = {a: i for i, a in enumerate(machine.input_alphabet)}
        assert suite == tuple(sorted(set(suite),
                                     key=lambda w: (len(w), [rank[a] for a in w])))

    @pytest.mark.parametrize("seed", range(20))
    def test_identifiers_are_harmonized(self, seed):
        machine = minimize(random_machine(random.Random(seed)))
        _assert_harmonized(machine, harmonized_identifiers(machine))

    def test_seeds_exercise_the_ads_and_the_fallback(self):
        # Among the random machines of the tests above, some have a complete
        # greedy ADS (one word per state) and some get stuck on the block of
        # all states, which falls back to the identification sets.
        kinds = set()
        for seed in range(20):
            machine = minimize(random_machine(random.Random(seed)))
            ident = harmonized_identifiers(machine)
            if all(len(words) == 1 for words in ident.values()):
                kinds.add("ads")
            else:
                assert ident == identification_sets(machine), seed
                kinds.add("identification sets")
        assert kinds == {"ads", "identification sets"}

    def test_splitting_word_never_merges_states_that_answer_alike(self):
        # x comes first and splits r off, but sends p and q, which answer it
        # alike, to the same state; y splits p off and keeps q and r apart.
        x, y = Symbol("in_a"), Symbol("in_b")
        quiet, loud = (NO_RESPONSE,), (T0_JOIN_ACK,)
        machine = minimize(MealyMachine(
            states=("p", "q", "r"), initial="p", input_alphabet=(x, y),
            transitions={
                ("p", x): ("p", quiet), ("p", y): ("q", loud),
                ("q", x): ("p", quiet), ("q", y): ("r", quiet),
                ("r", x): ("r", loud), ("r", y): ("p", quiet),
            }))
        assert len(machine.states) == 3
        assert splitting_word(machine, machine.states) == (y,)
        assert sorted(harmonized_identifiers(machine).values()) == [
            {(y,)}, {(y, x)}, {(y, x)}]

    def test_machine_without_ads_falls_back_to_identification_sets(self):
        # x splits r off but sends p and q, which answer it alike, to the same
        # state; y answers alike everywhere and only permutes the states.  So
        # every word that splits {p, q, r} merges p and q: no ADS exists.
        x, y = Symbol("in_a"), Symbol("in_b")
        out = (NO_RESPONSE,)
        machine = minimize(MealyMachine(
            states=("p", "q", "r"), initial="p", input_alphabet=(x, y),
            transitions={
                ("p", x): ("p", out), ("p", y): ("q", out),
                ("q", x): ("p", out), ("q", y): ("r", out),
                ("r", x): ("r", (T0_JOIN_ACK,)), ("r", y): ("p", out),
            }))
        assert splitting_word(machine, machine.states) is None
        assert harmonized_identifiers(machine) == identification_sets(machine)

    def test_ads_stuck_below_the_root_falls_back_to_separating_suffixes(self):
        # The no-ADS gadget of the test above behind one splitting letter: y
        # tells t apart and permutes p, q and r, which no word then splits
        # without merging two of them.  t keeps its ADS word y; each pair of
        # the others shares y followed by a suffix that separates the states
        # y took them to.
        x, y, z = Symbol("in_a"), Symbol("in_b"), Symbol("in_c")
        out, ack = (NO_RESPONSE,), (T0_JOIN_ACK,)
        machine = minimize(MealyMachine(
            states=("p", "q", "r", "t"), initial="p", input_alphabet=(x, y, z),
            transitions={
                ("p", x): ("p", out), ("p", y): ("q", out), ("p", z): ("t", out),
                ("q", x): ("p", out), ("q", y): ("r", out), ("q", z): ("t", out),
                ("r", x): ("r", ack), ("r", y): ("p", out), ("r", z): ("t", out),
                ("t", x): ("t", out), ("t", y): ("t", ack), ("t", z): ("t", out),
            }))
        assert len(machine.states) == 4
        ident = harmonized_identifiers(machine)
        _assert_harmonized(machine, ident)
        assert list(ident.values()).count({(y,)}) == 1
        assert max(map(len, ident.values())) == 2
        assert all(w[0] == y for words in ident.values() for w in words)

    @pytest.mark.parametrize("seed", range(20))
    def test_finds_every_target_with_one_extra_state(self, seed):
        # Clone one state, route one of its incoming edges to the clone and
        # change one output there: the target has |H| + 1 states and is not
        # equivalent to H.  A depth-1 suite must expose it.
        rng = random.Random(seed)
        hyp = minimize(random_machine(rng))
        ident = identification_sets(hyp)
        for p in hyp.states:
            for q in hyp.states:
                assert p == q or any(
                    _run_from(hyp, p, w) != _run_from(hyp, q, w) for w in ident[p]
                ), (p, q)
        incoming = [key for key, (dst, _) in hyp.transitions.items()
                    if key[0] != dst] or list(hyp.transitions)
        source, letter = rng.choice(incoming)
        cloned = hyp.transitions[(source, letter)][0]
        transitions = dict(hyp.transitions)
        transitions[(source, letter)] = ("clone", hyp.transitions[(source, letter)][1])
        changed = rng.choice(hyp.input_alphabet)
        for a in hyp.input_alphabet:
            dst, out = hyp.transitions[(cloned, a)]
            if a == changed:
                out = rng.choice([o for o in GENERIC_OUTPUTS if o != out])
            transitions[("clone", a)] = (dst, out)
        target = MealyMachine(states=hyp.states + ("clone",), initial=hyp.initial,
                              input_alphabet=hyp.input_alphabet,
                              transitions=transitions)
        oracle = MembershipOracle(target.run_outputs, target.input_alphabet, votes=1)
        word = wmethod_counterexample(hyp, oracle, depth=1)
        assert word is not None
        assert target.run_outputs(word) != hyp.run_outputs(word)


def counted(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so that each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestSuiteWork:
    """Noise-free work counters of the suite path, which runs over letter
    indices: no suite word is hashed letter by letter on its way into the
    tree or through the hypothesis."""

    def test_rerun_on_a_warm_tree_hashes_no_letter_of_a_word(self, monkeypatch):
        oracle = MembershipOracle(sim_query_fn(), LADDER_ALPHABET, votes=1)
        result = lstar_learn(
            oracle,
            lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
        trials = oracle.trials
        gated = {MembershipOracle.query.__code__, MembershipOracle.ids.__code__,
                 MealyMachine.step.__code__}
        hashes = []  # per hash, the gated function it is made under, or None
        original = Symbol.__hash__

        def counting_hash(symbol):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in gated:
                frame = frame.f_back
            hashes.append(None if frame is None else frame.f_code.co_name)
            return original(symbol)

        monkeypatch.setattr(Symbol, "__hash__", counting_hash)
        oracle.ids((L_BOOT,))
        assert hashes and set(hashes) == {"ids"}  # the counter sees its caller
        hashes.clear()
        assert wmethod_counterexample(result.machine, oracle, depth=1) is None
        assert oracle.trials == trials
        assert hashes and set(hashes) == {None}

    @pytest.mark.parametrize("seed", range(4))
    def test_passing_suite_calls_neither_the_machine_nor_the_letter_lookup(
            self, seed, monkeypatch):
        truth = minimize(random_machine(random.Random(seed)))
        oracle = MembershipOracle(lambda word: _run_from(truth, truth.initial, word),
                                  truth.input_alphabet, votes=1)
        steps = counted(monkeypatch, MealyMachine, "step")
        lookups = counted(monkeypatch, MembershipOracle, "ids")
        assert wmethod_counterexample(truth, oracle, depth=1) is None
        assert oracle.trials > 0
        assert steps == lookups == []


def _assert_harmonized(machine, ident):
    """Any two states have identifier words whose common prefix tells them
    apart.  Where every identifier is one word, these words form an adaptive
    distinguishing sequence."""
    assert set(ident) == set(machine.states)
    for i, p in enumerate(machine.states):
        for q in machine.states[i + 1:]:
            assert any(
                _run_from(machine, p, c) != _run_from(machine, q, c)
                for u in ident[p] for v in ident[q]
                for c in [_common_prefix(u, v)]
            ), (p, q)


def _common_prefix(u, v):
    n = 0
    while n < min(len(u), len(v)) and u[n] == v[n]:
        n += 1
    return u[:n]


def _run_from(machine, state, word):
    out = []
    for sym in word:
        state, reaction = machine.transitions[(state, sym)]
        out.append(reaction)
    return tuple(out)


def _first_separating_word(machine, p, q):
    """Brute force: every word, shortest first and then in letter order,
    until one gets different outputs from ``p`` and ``q``."""
    for n in itertools.count(1):
        for word in itertools.product(machine.input_alphabet, repeat=n):
            if _run_from(machine, p, word) != _run_from(machine, q, word):
                return word


# ---------------------------------------------------------------------------
# End-to-end against the simulated cluster (restricted alphabet)
# ---------------------------------------------------------------------------

MEMBERS = ("n1", "n2", "n3", "n4")

L_PROBE = Symbol(PREQ, (NodeRef("n1", KNOWN),))
L_DEATH = Symbol(PRES, (NodeRef("n1", KNOWN), DEAD))
L_BOOT = Symbol(BREQ, (MEMBERS,))
L_JOIN = Symbol(RJREQ, (NodeRef("dummy", UNKNOWN),))
L_CONF = Symbol(RCONREQ, ())
L_VOTE = Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_CURRENT))
L_CMD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))
LADDER_ALPHABET = (L_PROBE, L_DEATH, L_BOOT, L_JOIN, L_CONF, L_VOTE, L_CMD)

OUT_NONE = (NO_RESPONSE,)
OUT_ALIVE = (Symbol(PRES, (NodeRef("n1", KNOWN), ALIVE)),)
OUT_BOOT = (Symbol(BRES, ((),)),)
OUT_CONF = (Symbol(RCONRES, ()),)
OUT_VOTE = (Symbol(RVRES, (REJECTED,)),)


def expected_ladder_machine() -> MealyMachine:
    """Hand-derived reference model of the hardened session ladder over the
    restricted seven-letter alphabet."""
    rows = {
        # state: (probe, death, boot, join, conf, vote, cmd)
        "V0": (("V0", OUT_ALIVE), ("LK", OUT_NONE), ("V2", OUT_BOOT),
               ("LK", OUT_NONE), ("V0", OUT_NONE), ("V0", OUT_VOTE),
               ("LK", OUT_NONE)),
        "V2": (("V2", OUT_ALIVE), ("LK", OUT_NONE), ("V2", OUT_BOOT),
               ("V3", OUT_NONE), ("V2", OUT_CONF), ("V2", OUT_VOTE),
               ("LK", OUT_NONE)),
        "V3": (("V3", OUT_NONE), ("LK", OUT_NONE), ("V3", OUT_BOOT),
               ("V3", OUT_NONE), ("V3", OUT_CONF), ("V4", OUT_VOTE),
               ("LK", OUT_NONE)),
        "V4": (("V4", OUT_NONE), ("LK", OUT_NONE), ("V4", OUT_BOOT),
               ("V4", OUT_NONE), ("V4", OUT_CONF), ("V4", OUT_NONE),
               ("V5", OUT_NONE)),
        "V5": (("V5", OUT_NONE), ("LK", OUT_NONE), ("V5", OUT_BOOT),
               ("V5", OUT_NONE), ("V5", OUT_CONF), ("V5", OUT_NONE),
               ("LK", OUT_NONE)),
        "LK": (("LK", OUT_NONE),) * 7,
    }
    transitions = {}
    for state, cells in rows.items():
        for sym, (target, out) in zip(LADDER_ALPHABET, cells):
            transitions[(state, sym)] = (target, out)
    return MealyMachine(states=tuple(rows), initial="V0",
                        input_alphabet=LADDER_ALPHABET, transitions=transitions)


def sim_query_fn():
    cfg = ClusterConfig(members=MEMBERS)
    proxy = ClusterProxy(spawn_cluster(cfg), default_alphabet(cfg))
    return proxy.query


class TestLearnSimulatedCluster:
    def test_restricted_alphabet_learn_matches_hand_model(self):
        oracle = MembershipOracle(sim_query_fn(), LADDER_ALPHABET, votes=1)
        result = lstar_learn(
            oracle,
            lambda hyp: wmethod_counterexample(hyp, oracle, depth=1))
        assert len(result.machine.states) == 6
        assert isomorphic(result.machine, expected_ladder_machine())

    def test_majority_voting_against_live_simulator(self):
        oracle = MembershipOracle(sim_query_fn(), LADDER_ALPHABET, votes=3)
        out = oracle.query(oracle.ids((L_BOOT, L_JOIN, L_VOTE)))
        assert out == (OUT_BOOT, OUT_NONE, OUT_VOTE)
        assert oracle.trials == 2  # deterministic target: majority after two
