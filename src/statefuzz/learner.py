"""Active inference of a reactive state machine from query access.

The learner builds an observation table from membership queries (each a
reset-isolated word sent through the proxy), closes it, and proposes a
hypothesis machine.  An HSI-method conformance suite over the hypothesis
hunts for counterexamples; every suffix of a counterexample becomes a new
distinguishing experiment (Maler and Pnueli).  The loop ends when the suite
finds no disagreement, and the result is the minimized hypothesis, so state
names do not depend on which counterexamples led to it.

The suite identifies the state each test word reaches with one word: the
state's path through a greedy adaptive distinguishing sequence (ADS) of the
hypothesis.  Where the ADS gets stuck, the states it has not told apart
fall back to separating suffixes, which is the identification sets when it
gets stuck at once.  Either way the identifiers are harmonized, which keeps
the suite complete for targets with up to ``depth`` extra states.

The table needs no consistency check.  A prefix joins the table only when
its row differs from every row already there, and experiments are only ever
appended, so two distinct rows stay distinct.  The rows of the prefixes are
therefore pairwise distinct, and an inconsistency needs two equal ones.

Noise handling: every distinct word is asked up to ``votes`` times (odd),
stopping early once one reaction transcript holds a strict majority.  If
no majority emerges, or two resolved queries contradict each other on a
shared prefix, a ``NondeterminismError`` surfaces the evidence instead of
learning a wrong machine.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .alphabet import symbol_sort_key, word_to_obj
from .mealy import MealyMachine, minimize


class NondeterminismError(RuntimeError):
    """The target answered the same word in conflicting ways."""

    def __init__(self, word, observations):
        self.word = tuple(word)
        self.observations = tuple(observations)
        super().__init__(
            f"no majority reaction for word of length {len(self.word)}: "
            f"{len(self.observations)} conflicting transcripts"
        )


class PartialResultError(RuntimeError):
    """Learning stopped early; the best hypothesis so far is attached."""

    def __init__(self, reason, hypothesis, stats):
        self.hypothesis = hypothesis
        self.stats = dict(stats)
        super().__init__(reason)


class _BudgetExhausted(Exception):
    pass


def _emit(sink, obj):
    if sink is not None:
        sink.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class MembershipOracle:
    """Caching, majority-voting frontend over ``query_fn(word) -> outputs``.

    ``query_fn`` must answer with one reaction word per input position from
    a fresh session.  Results are cached per word, and every prefix of a
    resolved word is filled in for free.  ``max_trials`` bounds the total
    number of reset-isolated sessions spent.
    """

    def __init__(self, query_fn, votes: int = 3, max_trials: int | None = None,
                 transcript=None):
        if votes < 1 or votes % 2 == 0:
            raise ValueError("votes must be a positive odd number")
        self.query_fn = query_fn
        self.votes = votes
        self.max_trials = max_trials
        self.transcript = transcript
        self.cache: dict = {(): ()}
        self.trials = 0
        self.resolved = 0
        self.cache_hits = 0

    def query(self, word) -> tuple:
        word = tuple(word)
        if word in self.cache:
            self.cache_hits += 1
            return self.cache[word]
        counts: dict = {}
        needed = self.votes // 2 + 1
        outcome = None
        attempts = 0
        for _ in range(self.votes):
            if self.max_trials is not None and self.trials >= self.max_trials:
                raise _BudgetExhausted()
            self.trials += 1
            attempts += 1
            result = tuple(self.query_fn(word))
            if len(result) != len(word):
                raise ValueError("query backend returned wrong number of reactions")
            counts[result] = counts.get(result, 0) + 1
            if counts[result] >= needed:
                outcome = result
                break
            remaining = self.votes - attempts
            if max(counts.values()) + remaining < needed:
                break
        if outcome is None:
            raise NondeterminismError(word, tuple(counts))
        self._store(word, outcome)
        self.resolved += 1
        _emit(self.transcript, {
            "event": "query",
            "word": word_to_obj(word),
            "outputs": [word_to_obj(out) for out in outcome],
            "trials": attempts,
        })
        return outcome

    def _store(self, word, outcome):
        for i in range(len(word), 0, -1):
            prefix = word[:i]
            known = self.cache.get(prefix)
            if known is None:
                self.cache[prefix] = outcome[:i]
            elif known != outcome[:i]:
                raise NondeterminismError(prefix, (known, outcome[:i]))

    @property
    def stats(self) -> dict:
        return {
            "trials": self.trials,
            "resolved_queries": self.resolved,
            "cache_hits": self.cache_hits,
        }


class ObservationTable:
    """Classic prefix/suffix table with reaction-word cells."""

    def __init__(self, alphabet, oracle: MembershipOracle):
        self.alphabet = tuple(sorted(alphabet, key=symbol_sort_key))
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        self.oracle = oracle
        self.prefixes = [()]
        self.suffixes = [(a,) for a in self.alphabet]

    def cell(self, prefix, suffix) -> tuple:
        outputs = self.oracle.query(prefix + suffix)
        return tuple(outputs[len(prefix):])

    def row(self, prefix) -> tuple:
        return tuple(self.cell(prefix, e) for e in self.suffixes)

    def stabilize(self):
        """Extend until the table is closed: one pass over the growing
        prefix list, which admits each one-letter extension whose row is new.
        """
        known = {self.row(s) for s in self.prefixes}
        for s in self.prefixes:
            for a in self.alphabet:
                row = self.row(s + (a,))
                if row not in known:
                    known.add(row)
                    self.prefixes.append(s + (a,))

    def add_distinguishing_suffixes(self, word):
        """Install every suffix of a counterexample as an experiment."""
        for i in range(len(word)):
            suffix = tuple(word[i:])
            if suffix and suffix not in self.suffixes:
                self.suffixes.append(suffix)

    def hypothesis(self) -> MealyMachine:
        """One state per prefix: their rows are pairwise distinct."""
        state = {self.row(s): f"q{i}" for i, s in enumerate(self.prefixes)}
        transitions = {}
        for name, s in zip(state.values(), self.prefixes):
            for a in self.alphabet:
                target = state[self.row(s + (a,))]
                output = self.oracle.query(s + (a,))[len(s)]
                transitions[(name, a)] = (target, tuple(output))
        return MealyMachine(
            states=tuple(state.values()),
            initial="q0",
            input_alphabet=self.alphabet,
            transitions=transitions,
        )


@dataclass
class LearnResult:
    machine: MealyMachine
    rounds: int
    stats: dict = field(default_factory=dict)


def lstar_learn(oracle: MembershipOracle, alphabet, find_counterexample,
                max_rounds: int = 100, transcript=None) -> LearnResult:
    """Refine hypotheses until ``find_counterexample`` comes up empty.

    ``find_counterexample(machine)`` returns a disagreeing input word or
    ``None``.  On budget exhaustion or round overrun the best hypothesis is
    attached to a ``PartialResultError``.
    """
    table = ObservationTable(alphabet, oracle)
    _emit(transcript, {"event": "start",
                       "alphabet": word_to_obj(table.alphabet),
                       "votes": oracle.votes})
    hypothesis = None
    rounds = 0
    try:
        while True:
            if rounds >= max_rounds:
                raise PartialResultError(
                    f"no stable model after {max_rounds} refinement rounds",
                    hypothesis, oracle.stats)
            rounds += 1
            table.stabilize()
            hypothesis = table.hypothesis()
            _emit(transcript, {"event": "hypothesis", "round": rounds,
                               "states": len(hypothesis.states)})
            cex = find_counterexample(hypothesis)
            if cex is None:
                _emit(transcript, {"event": "done", "rounds": rounds,
                                   "states": len(hypothesis.states)})
                return LearnResult(machine=minimize(hypothesis),
                                   rounds=rounds, stats=oracle.stats)
            cex = tuple(cex)
            _emit(transcript, {"event": "counterexample", "round": rounds,
                               "word": word_to_obj(cex)})
            table.add_distinguishing_suffixes(cex)
    except _BudgetExhausted:
        raise PartialResultError(
            f"query budget of {oracle.max_trials} trials exhausted",
            hypothesis, oracle.stats) from None


# ---------------------------------------------------------------------------
# Conformance suite
# ---------------------------------------------------------------------------

def _word_key(word) -> tuple:
    return (len(word), tuple(symbol_sort_key(s) for s in word))


def _separating_suffixes(m: MealyMachine) -> dict:
    """For every pair of states of the minimal machine ``m``, a shortest
    suffix on which they answer differently, keyed by the pair's frozenset."""
    states = list(m.states)
    sep: dict = {}
    pending = {frozenset((p, q)) for i, p in enumerate(states)
               for q in states[i + 1:]}
    for pair in sorted(pending, key=sorted):
        p, q = sorted(pair)
        for a in m.input_alphabet:
            if m.transitions[(p, a)][1] != m.transitions[(q, a)][1]:
                sep[pair] = (a,)
                break
    changed = True
    while changed and len(sep) < len(pending):
        changed = False
        for pair in sorted(pending - set(sep), key=sorted):
            p, q = sorted(pair)
            for a in m.input_alphabet:
                np, nq = m.transitions[(p, a)][0], m.transitions[(q, a)][0]
                follow = frozenset((np, nq))
                if np != nq and follow in sep:
                    sep[pair] = (a,) + sep[follow]
                    changed = True
                    break
    if len(sep) < len(pending):
        raise ValueError("machine has equivalent states after minimization")
    return sep


def _identification_sets(m: MealyMachine) -> dict:
    """For every state of the minimal machine ``m``, its identification set:
    one separating suffix against each other state.  A single-state
    machine's only state gets ``{()}``."""
    if len(m.states) < 2:
        return {s: {()} for s in m.states}
    ident = {s: set() for s in m.states}
    for pair, suffix in _separating_suffixes(m).items():
        for s in pair:
            ident[s].add(suffix)
    return ident


def _state_cover(machine: MealyMachine) -> dict:
    """Shortest access word of every reachable state, breadth first."""
    access = {machine.initial: ()}
    frontier = [machine.initial]
    while frontier:
        nxt = []
        for state in frontier:
            for a in machine.input_alphabet:
                target = machine.transitions[(state, a)][0]
                if target not in access:
                    access[target] = access[state] + (a,)
                    nxt.append(target)
        frontier = nxt
    return access


def _splitting_word(m: MealyMachine, block: frozenset):
    """Shortest input word, first in canonical letter order, on which the
    states of ``block`` do not all answer alike while no two that answer
    alike end in the same state; ``None`` if no such word exists.

    Until a word splits the block every state answers alike, so a prefix is
    useless once two states merge, and a prefix that reaches a set of states
    an earlier prefix reached cannot lead to an earlier word."""
    frontier = [((), block)]
    seen = {block}
    while frontier:
        nxt = []
        for word, current in frontier:
            for a in m.input_alphabet:
                ends: dict = {}
                for s in current:
                    dst, out = m.transitions[(s, a)]
                    ends.setdefault(out, set()).add(dst)
                if sum(map(len, ends.values())) < len(current):
                    continue  # two states that answer alike merge
                if len(ends) > 1:
                    return word + (a,)
                targets = frozenset(*ends.values())
                if targets not in seen:
                    seen.add(targets)
                    nxt.append((word + (a,), targets))
        frontier = nxt
    return None


def _harmonized_identifiers(m: MealyMachine) -> dict:
    """Harmonized state identifiers of the minimal machine ``m``: any two
    states have words in their identifiers whose common prefix separates
    them.

    The identifiers come from a greedy adaptive distinguishing sequence (ADS;
    Lee and Yannakakis, IEEE Trans. Computers 1994).  Starting from all
    states, each block of states that no output has told apart yet applies
    its :func:`_splitting_word` and falls apart into one block per output
    class, each state moving to where the word took it.  A state alone in
    its block is identified by the one word that led it there; two such
    words agree up to the split that separated their states.  A block with
    no splitting word falls back to separating suffixes: each pair of its
    states shares the block's word followed by a suffix that separates the
    states they reached.  When that happens to the block of all states, the
    identifiers are the identification sets."""
    ident = {s: set() for s in m.states}
    separators = None
    blocks = [({s: s for s in m.states}, ())]  # (origin -> reached, word)
    while blocks:
        block, word = blocks.pop()
        if len(block) == 1:
            ident[next(iter(block))].add(word)
            continue
        split = _splitting_word(m, frozenset(block.values()))
        if split is None:
            if separators is None:
                separators = _separating_suffixes(m)
            for (p, p_now), (q, q_now) in itertools.combinations(block.items(), 2):
                test = word + separators[frozenset((p_now, q_now))]
                ident[p].add(test)
                ident[q].add(test)
            continue
        classes: dict = {}
        for origin, current in block.items():
            classes.setdefault(m.run_outputs(split, current), {})[origin] = (
                m.state_after(split, current))
        blocks.extend((cls, word + split) for cls in classes.values())
    return ident


def wmethod_suite(machine: MealyMachine, depth: int = 2) -> tuple:
    """Deterministically ordered conformance test words, built by the HSI
    method (harmonized state identifiers; Dorofeeva et al., IST 2010).

    ``depth`` bounds how many extra states the real system may hide beyond
    the hypothesis.  Each word of the state cover extended by up to
    ``depth + 1`` letters gets the harmonized identifier of the state it
    reaches in the minimized hypothesis (:func:`_harmonized_identifiers`):
    one adaptive-distinguishing-sequence word per state where the greedy ADS
    tells the states apart, separating suffixes where it gets stuck.  Any
    target with at most ``depth`` extra states that disagrees with the
    hypothesis disagrees on some suite word.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    m = minimize(machine)
    ident = _harmonized_identifiers(m)
    layer = {q: m.state_after(q) for q in _state_cover(m).values()}
    words = set()
    for extra in range(depth + 2):
        for head, state in layer.items():
            for suffix in ident[state]:
                if head or suffix:
                    words.add(head + suffix)
        if extra <= depth:
            layer = {head + (a,): m.transitions[(state, a)][0]
                     for head, state in layer.items() for a in m.input_alphabet}
    return tuple(sorted(words, key=_word_key))


def wmethod_counterexample(machine: MealyMachine, oracle: MembershipOracle,
                           depth: int = 2):
    """First word of the HSI-method suite (:func:`wmethod_suite`) on which the
    target and the hypothesis disagree, or ``None`` if the whole suite
    matches position by position."""
    for word in wmethod_suite(machine, depth):
        expected = machine.run_outputs(word)
        actual = oracle.query(word)
        if tuple(actual) != tuple(expected):
            return word
    return None
