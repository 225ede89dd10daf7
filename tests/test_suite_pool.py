"""The conformance suite asked on forked workers (``SuitePool``): the same
words in the same order, so the same transcript, sessions and model, and
every failure surfaces where a learn without workers would raise it."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from statefuzz import cli
from statefuzz.alphabet import (
    Symbol, enumerate_input_alphabet, word_from_obj, word_to_obj,
)
from statefuzz.cli import (
    EXIT_BUDGET_EXHAUSTED, EXIT_INTERRUPTED, EXIT_NONDETERMINISM, EXIT_OK,
    EXIT_TRANSPORT, main,
)
from statefuzz.learner import (
    MembershipOracle, NondeterminismError, PartialResultError, SuitePool,
    lstar_learn, wmethod_counterexample,
)
from statefuzz.mealy import MealyMachine
from statefuzz.proxy import ClusterProxy, TransportError
from statefuzz.sulsim import (
    ALL_VULNERABILITIES, ClusterConfig, ClusterHandle, default_alphabet,
    spawn_cluster,
)

from test_acceptance import LEARN_SEED1_TRANSCRIPT_SHA256, REFERENCE_MACHINE
from test_learner import LADDER_ALPHABET

WORKERS = (1, 2, 3)  # three is more workers than a 2-CPU host has
ALL_VULNERABILITIES_TRANSCRIPT_SHA256 = (
    "2dbc4fe6fead0a5eee4c17d43e0a230fea8f58e6ea9cfcf4c77f019a7531c6bd")
SEIZE_LEADER_TRANSCRIPT_SHA256 = (
    "e699b68b61a2a9ba959562815bac517ce4a71ef4d3601aece8bcfbd5edb1141a")
# learn --seed 1 takes 8,143 sessions, the last 6,834 of them the final suite.
BUDGET_IN_FINAL_SUITE = 5_000


def children_reaped() -> bool:
    """Whether this process has no child process left, running or not
    reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def learn(workers, vulns=frozenset(), votes=1, budget=None, wrap=None):
    """Learn the cluster as ``statefuzz learn --seed 1`` does, with the
    suite asked on ``workers`` forked workers (none for 0).  ``wrap`` may
    wrap the proxy's ``query``.  Returns the transcript, the oracle and the
    result, or the error the learn raised."""
    ccfg = ClusterConfig(seed=1, vulnerabilities=frozenset(vulns))
    acfg = default_alphabet(ccfg, self_id="dummy", unknown_id="nz")
    proxy = ClusterProxy(spawn_cluster(ccfg), acfg)
    query = proxy.query if wrap is None else wrap(proxy.query)
    transcript = io.StringIO()
    oracle = MembershipOracle(query, votes=votes, max_trials=budget,
                              transcript=transcript)
    try:
        with SuitePool(oracle, workers) if workers else contextlib.nullcontext() as pool:
            result = lstar_learn(
                oracle, tuple(enumerate_input_alphabet(acfg)),
                lambda m: wmethod_counterexample(m, oracle, depth=1, pool=pool))
    except Exception as exc:  # the learn's outcome, compared by the test
        result = exc
    assert children_reaped()
    return transcript.getvalue(), oracle, result


@pytest.fixture(scope="module")
def without_workers():
    """``learn(0, **options)``, run once per set of options."""
    runs = {}

    def run(**options):
        key = tuple(sorted(options.items()))
        if key not in runs:
            runs[key] = learn(0, **options)
        return runs[key]

    return run


@pytest.fixture(scope="module")
def sequential(without_workers):
    """The reference learn without workers."""
    return without_workers()


def final_suite_word(transcript: str, index: int) -> tuple:
    """The word of the ``index``-th session the final suite resolves."""
    lines = transcript.splitlines()
    start = max(i for i, line in enumerate(lines) if '"hypothesis"' in line)
    queries = [json.loads(line) for line in lines[start:] if '"query"' in line]
    return tuple(word_from_obj(queries[index]["word"]))


class TestSameArtifacts:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_reference_learn(self, workers):
        transcript, oracle, result = learn(workers)
        assert digest(transcript) == LEARN_SEED1_TRANSCRIPT_SHA256
        assert result.machine.to_json() == REFERENCE_MACHINE.read_text(encoding="utf-8")
        assert oracle.trials == 8_143

    @pytest.mark.parametrize("workers", WORKERS)
    def test_all_vulnerabilities(self, workers):
        transcript, oracle, result = learn(workers, ALL_VULNERABILITIES)
        assert len(result.machine.states) == 29
        assert oracle.trials == 39_622
        assert digest(transcript) == ALL_VULNERABILITIES_TRANSCRIPT_SHA256

    @pytest.mark.parametrize("workers", WORKERS)
    def test_seize_leader(self, workers):
        transcript, oracle, _ = learn(workers, {"seize_leader"})
        assert oracle.trials == 19_394
        assert digest(transcript) == SEIZE_LEADER_TRANSCRIPT_SHA256

    @pytest.mark.parametrize("workers", WORKERS)
    def test_budget_stops_at_the_same_word(self, without_workers, sequential, workers):
        expected = without_workers(budget=BUDGET_IN_FINAL_SUITE)
        transcript, oracle, error = learn(workers, budget=BUDGET_IN_FINAL_SUITE)
        assert isinstance(error, PartialResultError)
        assert oracle.trials == expected[1].trials == BUDGET_IN_FINAL_SUITE
        assert transcript == expected[0]
        assert error.hypothesis.to_json() == expected[2].hypothesis.to_json()
        assert str(error) == str(expected[2])
        # The budget ran out inside the final suite, on the final hypothesis.
        assert len(error.hypothesis.states) == len(sequential[2].machine.states)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_three_votes(self, without_workers, workers):
        expected = without_workers(votes=3)
        transcript, oracle, result = learn(workers, votes=3)
        assert transcript == expected[0]
        assert oracle.trials == expected[1].trials
        assert result.machine.to_json() == expected[2].machine.to_json()


@dataclass(frozen=True)
class FailingOn:
    """A ``query`` wrapper that fails on one word: it raises a
    ``TransportError`` or a ``RuntimeError``, or answers the word
    differently every time it is asked."""

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
            calls.append(None)
            return query(asked)[:-1] + ((Symbol("Jitter", (len(calls),)),),)

        return failing


class TestFailuresSurfaceAtTheirWord:
    """A worker's error is raised by the parent at the word where the learn
    without workers raises it: same error, same sessions, same transcript."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("kind", ["transport", "backend", "nondeterminism"])
    def test_error_in_final_suite(self, without_workers, sequential, workers, kind):
        word = final_suite_word(sequential[0], 2_000)
        wrap = FailingOn(kind, word)
        votes = 3 if kind == "nondeterminism" else 1
        expected = without_workers(votes=votes, wrap=wrap)
        transcript, oracle, error = learn(workers, votes=votes, wrap=wrap)
        assert type(error) is type(expected[2])
        assert str(error) == str(expected[2])
        assert type(error.__cause__) is type(expected[2].__cause__)
        assert oracle.trials == expected[1].trials
        assert transcript == expected[0]
        if kind == "transport":
            assert isinstance(error, PartialResultError)
            assert isinstance(error.__cause__, TransportError)
            assert error.hypothesis.to_json() == expected[2].hypothesis.to_json()
        elif kind == "nondeterminism":
            assert isinstance(error, NondeterminismError)
            assert error.word == expected[2].word == word
            assert len(error.observations) == 3

    @pytest.mark.parametrize("workers", WORKERS)
    def test_dead_worker_is_a_transport_failure(self, sequential, workers):
        parent = os.getpid()
        word = final_suite_word(sequential[0], 100)

        def wrap(query):
            def dying(asked):
                if os.getpid() != parent and tuple(asked) == word:
                    os._exit(3)
                return query(asked)
            return dying

        _, _, error = learn(workers, wrap=wrap)
        assert isinstance(error, PartialResultError)
        assert isinstance(error.__cause__, TransportError)
        assert "exited" in str(error)

    def test_workers_ignore_sigint(self):
        ccfg = ClusterConfig(seed=1)
        acfg = default_alphabet(ccfg, self_id="dummy", unknown_id="nz")
        query = ClusterProxy(spawn_cluster(ccfg), acfg).query
        letters = tuple(enumerate_input_alphabet(acfg))
        oracle = MembershipOracle(query, votes=1)
        with SuitePool(oracle, 2) as pool:
            machine = lstar_learn(
                oracle, letters,
                lambda m: wmethod_counterexample(m, oracle, 1, pool)).machine
            for worker in pool._workers:
                os.kill(worker.pid, signal.SIGINT)
            fresh = MembershipOracle(query, votes=1)
            assert wmethod_counterexample(machine, fresh, 1, pool) is None
            assert fresh.trials > 6_000
        assert children_reaped()


# ---------------------------------------------------------------------------
# The command line: one worker per CPU, reaped on every exit path
# ---------------------------------------------------------------------------

@pytest.fixture
def ladder_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"learner": {"letters": word_to_obj(LADDER_ALPHABET)}}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def cluster_dying_in_workers():
    parent = os.getpid()

    class DyingCluster(ClusterHandle):
        def reset(self):
            if os.getpid() != parent:
                os._exit(3)
            return super().reset()

    return DyingCluster


class TestCommandLine:
    def test_dead_worker_exits_transport_with_partial_model(
            self, ladder_config, tmp_path, monkeypatch, two_cpus, capsys):
        monkeypatch.setattr(cli, "spawn_cluster", cluster_dying_in_workers())
        out = tmp_path / "out"
        assert main(["learn", "--config", ladder_config,
                     "--out-dir", str(out)]) == EXIT_TRANSPORT
        assert "exited" in capsys.readouterr().err
        assert not (out / "machine.json").exists()
        MealyMachine.from_json((out / "machine-partial.json").read_text())
        assert children_reaped()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_no_workers_on_one_cpu_or_beside_a_thread(
            self, ladder_config, tmp_path, monkeypatch, cpus):
        # Every worker dies at once, so a learn that passes forked none.
        monkeypatch.setattr(cli, "spawn_cluster", cluster_dying_in_workers())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        done = threading.Event()
        thread = None
        if len(cpus) > 1:
            thread = threading.Thread(target=done.wait)
            thread.start()
        try:
            assert main(["learn", "--config", ladder_config,
                         "--out-dir", str(tmp_path)]) == EXIT_OK
        finally:
            done.set()
            if thread is not None:
                thread.join(timeout=10)
        assert thread is None or not thread.is_alive()

    @pytest.mark.parametrize("extra, cluster, code", [
        ([], None, EXIT_OK),
        (["--budget", "200"], None, EXIT_BUDGET_EXHAUSTED),
        ([], "answering-nothing", EXIT_NONDETERMINISM),
        ([], "dying", EXIT_TRANSPORT),
        ([], "interrupting", EXIT_INTERRUPTED),
    ])
    def test_every_exit_path_reaps_the_workers(
            self, ladder_config, tmp_path, monkeypatch, two_cpus, capsys,
            extra, cluster, code):
        parent = os.getpid()

        class AnsweringNothing(ClusterHandle):
            # Workers hear no reply at all, which contradicts the tree.
            def exchange(self, msg):
                window = super().exchange(msg)
                return [] if os.getpid() != parent else window

        class Interrupting(ClusterHandle):
            resets = 0

            def reset(self):
                Interrupting.resets += 1
                if os.getpid() == parent and Interrupting.resets == 100:
                    raise KeyboardInterrupt
                return super().reset()

        clusters = {"answering-nothing": AnsweringNothing,
                    "dying": cluster_dying_in_workers(),
                    "interrupting": Interrupting}
        if cluster is not None:
            monkeypatch.setattr(cli, "spawn_cluster", clusters[cluster])
        assert main(["learn", "--config", ladder_config, *extra,
                     "--out-dir", str(tmp_path)]) == code
        assert children_reaped()


def test_ctrl_c_exits_interrupted_and_leaves_no_process(tmp_path):
    """SIGINT to the whole process group, as a terminal sends it: the
    workers ignore it, the learn saves its partial model and exits 130."""
    out = tmp_path / "out"
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from statefuzz.cli import main; "
              f"sys.exit(main(['learn', '--vulns', 'all', '--out-dir', {str(out)!r}]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            start_new_session=True, stderr=subprocess.PIPE, text=True)
    try:
        transcript = out / "transcript.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            if transcript.exists() and transcript.read_text().count('"suite"') >= 2:
                break
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert "interrupted" in err
    assert (out / "machine-partial.json").exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
