"""How a learn of the simulated cluster ends, in one process: where a budget,
a round limit or each kind of failure stops it, what it leaves behind, and
what a vote costs.  Every stop is checked against the full ``learn --seed 1``
transcript: the stopped learn wrote exactly the lines before the word it
could not resolve, and spent exactly the sessions those lines record."""
from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass

import pytest

from statefuzz import cli
from statefuzz.alphabet import Symbol, enumerate_input_alphabet, word_from_obj, word_to_obj
from statefuzz.cli import (
    EXIT_BUDGET_EXHAUSTED, EXIT_INTERRUPTED, EXIT_NONDETERMINISM, EXIT_OK,
    EXIT_TRANSPORT, main,
)
from statefuzz.learner import (
    MembershipOracle, NondeterminismError, PartialResultError, lstar_learn,
    wmethod_counterexample,
)
from statefuzz.mealy import MealyMachine
from statefuzz.proxy import ClusterProxy, TransportError
from statefuzz.sulsim import ClusterConfig, ClusterHandle, default_alphabet, spawn_cluster

from test_acceptance import LEARN_SEED1_TRANSCRIPT_SHA256, REFERENCE_MACHINE
from test_learner import LADDER_ALPHABET

# learn --seed 1: 8,143 sessions in six rounds, the last 6,834 of them the
# final suite, which starts after the 1,309th resolved word.
SESSIONS = 8_143
ROUNDS = 6


def learn(votes=1, budget=None, max_rounds=100, wrap=None):
    """Learn the cluster as ``statefuzz learn --seed 1`` does.  ``wrap`` may
    wrap the proxy's ``query``.  Returns the transcript, the oracle and the
    result, or the error the learn raised."""
    ccfg = ClusterConfig(seed=1)
    acfg = default_alphabet(ccfg, self_id="dummy", unknown_id="nz")
    proxy = ClusterProxy(spawn_cluster(ccfg), acfg)
    query = proxy.query if wrap is None else wrap(proxy.query)
    transcript = io.StringIO()
    oracle = MembershipOracle(query, enumerate_input_alphabet(acfg), votes=votes,
                              max_trials=budget, transcript=transcript)
    try:
        result = lstar_learn(
            oracle, lambda m: wmethod_counterexample(m, oracle, depth=1),
            max_rounds=max_rounds)
    except Exception as exc:  # the learn's outcome, checked by the test
        result = exc
    return transcript.getvalue(), oracle, result


@dataclass
class Learn:
    """A finished learn's transcript, parsed once."""

    transcript: str
    oracle: MembershipOracle
    result: object

    def __post_init__(self):
        self.lines = self.transcript.splitlines(keepends=True)
        self.events = [json.loads(line) for line in self.lines]
        self.queries = [i for i, e in enumerate(self.events) if e["event"] == "query"]
        self.hypotheses = [i for i, e in enumerate(self.events)
                           if e["event"] == "hypothesis"]

    def word(self, index: int) -> tuple:
        """The ``index``-th word the learn resolved."""
        return tuple(word_from_obj(self.events[self.queries[index]]["word"]))

    def stopped_before(self, line: int) -> str:
        """The transcript as a learn that stopped at ``line`` wrote it."""
        return "".join(self.lines[:line])

    def sessions_before(self, line: int) -> int:
        return sum(e["trials"] for e in self.events[:line] if e["event"] == "query")

    def check_hypothesis(self, hypothesis, line: int):
        """The learn's hypothesis when it stops at ``line`` is ``None`` before
        the first one, the announced one inside a suite, and between the
        hypotheses around it while a counterexample is processed."""
        announced = [i for i in self.hypotheses if i < line]
        if not announced:
            assert hypothesis is None
            return
        last = announced[-1]
        states = self.events[last]["states"]
        if all(e["event"] == "query" for e in self.events[last + 1:line]):
            assert len(hypothesis.states) == states  # inside its suite
        else:
            later = min(i for i in self.hypotheses if i >= line)
            assert states <= len(hypothesis.states) <= self.events[later]["states"]


@pytest.fixture(scope="module")
def full():
    """The complete learn with ``votes`` votes per word, run once each."""
    runs = {}

    def run(votes=1):
        if votes not in runs:
            runs[votes] = Learn(*learn(votes))
        return runs[votes]

    return run


def test_reference_learn(full):
    # Every stop below is measured against this learn.
    run = full()
    assert hashlib.sha256(run.transcript.encode()).hexdigest() == LEARN_SEED1_TRANSCRIPT_SHA256
    assert run.result.machine.to_json() == REFERENCE_MACHINE.read_text(encoding="utf-8")
    assert run.oracle.trials == SESSIONS and run.result.rounds == ROUNDS


class TestBudget:
    @pytest.mark.parametrize("budget", [0, 1, 34, 100, 1_309, 5_000, SESSIONS - 1])
    def test_stops_at_the_word_it_cannot_pay_for(self, full, budget):
        expected = full()
        transcript, oracle, error = learn(budget=budget)
        assert isinstance(error, PartialResultError)
        assert str(error) == f"query budget of {budget} trials exhausted"
        assert oracle.trials == budget
        # The next word the full learn resolved is the one the budget stopped.
        line = expected.queries[budget]
        assert transcript == expected.stopped_before(line)
        expected.check_hypothesis(error.hypothesis, line)

    def test_the_sessions_the_learn_needs_are_enough(self, full):
        transcript, oracle, result = learn(budget=SESSIONS)
        assert oracle.trials == SESSIONS
        assert transcript == full().transcript
        assert result.machine.to_json() == full().result.machine.to_json()


class TestRoundLimit:
    @pytest.mark.parametrize("limit", range(1, ROUNDS + 1))
    def test_stops_at_the_hypothesis_past_the_limit(self, full, limit):
        expected = full()
        transcript, oracle, outcome = learn(max_rounds=limit)
        if limit == ROUNDS:
            assert transcript == expected.transcript
            assert outcome.rounds == ROUNDS
            return
        assert isinstance(outcome, PartialResultError)
        assert str(outcome) == f"no stable model after {limit} refinement rounds"
        line = expected.hypotheses[limit]
        assert transcript == expected.stopped_before(line)
        assert oracle.trials == expected.sessions_before(line)
        assert len(outcome.hypothesis.states) == expected.events[line]["states"]


class TestVotes:
    @pytest.mark.parametrize("votes", [1, 3, 5])
    def test_a_deterministic_target_costs_a_bare_majority_per_word(self, full, votes):
        # Each word is asked until a strict majority agrees, which on a
        # deterministic target is the first votes // 2 + 1 sessions; the
        # learn is otherwise the one-vote learn, word for word.
        run = full(votes)
        needed = votes // 2 + 1
        assert run.oracle.trials == needed * SESSIONS
        assert run.result.machine.to_json() == full().result.machine.to_json()
        ones = [dict(e) for e in full().events]
        ones[0]["votes"] = votes
        for e in ones:
            if e["event"] == "query":
                e["trials"] = needed
            elif e["event"] == "suite":
                e["sessions"] *= needed
        assert run.events == ones


@dataclass(frozen=True)
class FailingOn:
    """A ``query`` wrapper that fails on one word: it raises a
    ``TransportError``, a ``RuntimeError`` or a ``KeyboardInterrupt``, or
    answers the word differently every time it is asked."""

    kind: str
    word: tuple

    def __call__(self, query):
        calls = []

        def failing(asked):
            if tuple(asked) != self.word:
                return query(asked)
            if self.kind == "transport":
                raise TransportError("link down")
            if self.kind == "backend":
                raise RuntimeError("backend broke")
            if self.kind == "interrupt":
                raise KeyboardInterrupt
            calls.append(None)
            return query(asked)[:-1] + ((Symbol("Jitter", (len(calls),)),),)

        return failing


# Resolved words of the one-vote learn at which a failure is injected: the
# first word of the learn, the first suite's first session, a word of the
# binary search after the third counterexample, and deep in the final suite.
WHERE = {"first-word": 0, "first-suite": 34, "counterexample": 691,
         "final-suite": 1_309 + 2_000}


class TestFailuresSurfaceAtTheirWord:
    """A failure stops the learn at the word it hit: the transcript is the
    full learn's up to that word, and the sessions are the ones spent on the
    words before it and on the word itself."""

    @pytest.mark.parametrize("where", list(WHERE))
    @pytest.mark.parametrize("kind", ["transport", "backend", "interrupt",
                                      "nondeterminism"])
    def test_error_at_word(self, full, kind, where):
        votes = 3 if kind == "nondeterminism" else 1
        index = WHERE[where]
        word = full().word(index)
        # The learn asks the same words whatever the vote count.
        expected = full(votes)
        assert expected.word(index) == word
        line = expected.queries[index]

        transcript, oracle, error = learn(votes=votes, wrap=FailingOn(kind, word))
        assert transcript == expected.stopped_before(line)
        attempts = 3 if kind == "nondeterminism" else 1
        assert oracle.trials == expected.sessions_before(line) + attempts
        if kind == "transport":
            assert isinstance(error, PartialResultError)
            assert str(error) == "transport failed: link down"
            assert isinstance(error.__cause__, TransportError)
        elif kind == "interrupt":
            assert isinstance(error, PartialResultError)
            assert str(error) == "interrupted"
            assert isinstance(error.__cause__, KeyboardInterrupt)
        elif kind == "backend":
            assert type(error) is RuntimeError and str(error) == "backend broke"
            return  # a backend bug carries no partial model
        else:
            assert isinstance(error, NondeterminismError)
            assert error.word == word and len(error.observations) == 3
        expected.check_hypothesis(error.hypothesis, line)


# ---------------------------------------------------------------------------
# The command line forks nothing, on any exit path
# ---------------------------------------------------------------------------

def no_child_left() -> bool:
    """Whether this process has no child process left, running or not
    reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def ladder_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"learner": {"letters": word_to_obj(LADDER_ALPHABET)}}),
                    encoding="utf-8")
    return str(path)


class FallingSilent(ClusterHandle):
    """Hears no reply after 300 sessions, which contradicts the tree."""

    resets = 0

    def reset(self):
        type(self).resets += 1
        return super().reset()

    def exchange(self, msg):
        window = super().exchange(msg)
        return window if type(self).resets <= 300 else []


class Dropping(ClusterHandle):
    """Loses its link at the 100th session."""

    resets = 0

    def reset(self):
        type(self).resets += 1
        if type(self).resets == 100:
            raise TransportError("link down")
        return super().reset()


class Interrupting(ClusterHandle):
    """Is interrupted at the 100th session, as Ctrl-C would."""

    resets = 0

    def reset(self):
        type(self).resets += 1
        if type(self).resets == 100:
            raise KeyboardInterrupt
        return super().reset()


@pytest.mark.parametrize("extra, cluster, code", [
    ([], None, EXIT_OK),
    (["--budget", "200"], None, EXIT_BUDGET_EXHAUSTED),
    ([], FallingSilent, EXIT_NONDETERMINISM),
    ([], Dropping, EXIT_TRANSPORT),
    ([], Interrupting, EXIT_INTERRUPTED),
], ids=["ok", "budget", "nondeterminism", "transport", "interrupted"])
def test_every_exit_path_learns_in_this_process(
        ladder_config, tmp_path, monkeypatch, capsys, extra, cluster, code):
    def no_fork():
        raise AssertionError("learn forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if cluster is not None:
        monkeypatch.setattr(cluster, "resets", 0)
        monkeypatch.setattr(cli, "spawn_cluster", cluster)
    out = tmp_path / "out"
    assert main(["learn", "--config", ladder_config, *extra,
                 "--out-dir", str(out)]) == code, capsys.readouterr().err
    if code == EXIT_OK:
        MealyMachine.from_json((out / "machine.json").read_text())
        assert not (out / "machine-partial.json").exists()
    else:
        assert not (out / "machine.json").exists()
        MealyMachine.from_json((out / "machine-partial.json").read_text())
    assert no_child_left()
