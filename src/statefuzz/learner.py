"""Active inference of a reactive state machine from query access.

The learner is L# (Vaandrager, Garhewal, Rot and Wissmann, TACAS 2022).
Every answered word lives in one observation tree: a prefix trie whose nodes
hold the output of their incoming letter.  Two nodes are *apart* when some
word answered from both gets different outputs; answers are never withdrawn,
so apartness is final.  The learner keeps a *basis* of pairwise apart nodes,
starting with the root, and its *frontier*: the one-letter extensions of the
basis outside it.  Each frontier node keeps its candidates, the basis nodes
it is not apart from.  The rules:

- extension asks every one-letter extension of a node that joins the basis;
- promotion moves a frontier node that is apart from the whole basis into it;
- separation asks a frontier node with two candidates for a word that tells
  the two apart, which rules out at least one of them;
- once every frontier node has exactly one candidate, the hypothesis has one
  state per basis node and sends each frontier node to its candidate.

Candidates are kept incrementally: a frontier node is re-tested after a
separation query extended it, every frontier node is tested against a node
promoted into the basis, and once per hypothesis every frontier node is
re-tested against its candidate, because basis subtrees grow too.  Every
hypothesis is checked against the whole tree by one breadth-first walk
before the conformance suite sees it.  A counterexample from the suite is
only asked: it joins the tree, the rules run on it, and the walk finds the
shortest disagreement left, so each disagreement is found in one place.  A
disagreement is processed by binary search (Rivest and Schapire, Inf. &
Comp. 1993, in the form L# gives it), one session per halving, down to a
frontier node that is apart from its candidate.  The loop ends when the
suite finds no disagreement, and the result is the minimized hypothesis, so
state names do not depend on which counterexamples led to it.

The suite identifies the state each test word reaches with one word: the
state's path through a greedy adaptive distinguishing sequence (ADS) of the
hypothesis.  Where the ADS gets stuck, each pair of the states it has not
told apart falls back to the pair's shortest separating word, which is the
identification sets when it gets stuck at once.  Either way the identifiers
are harmonized, which keeps the suite complete for targets with up to
``depth`` extra states.  The suite is built, sorted, asked and checked over
the letter ids and state indices of the hypothesis's int tables, and only a
counterexample becomes letters.  Suite words the tree already holds cost no
session.  The suite is asked in a seeded order derived from the hypothesis
(its number of states), not shortest first: counterexamples tend to be long
words, so a failing suite stops sooner, while completeness rests on the set
of words, not on their order.  The suite's sessions may run on forked
workers (:class:`SuitePool`) that vote on the words the tree lacks ahead of
the loop.  The loop still asks every word in the seeded order and alone
charges the sessions, stores the answers and writes the transcript, so the
words asked, the transcript and the session count do not depend on the
number of workers, and a worker's error is raised at the word where a loop
without workers raises it.

The oracle holds the alphabet, and a letter's id is its rank by
``symbol_sort_key`` in the tree, the learner, each hypothesis's tables and
the suite alike; letters appear only where a word goes to the target, in
errors and in artifacts.  Every resolved word writes one ``query`` line to
the transcript, assembled from the JSON of each letter and distinct output
word, which is built once.

Noise handling: every distinct word is asked up to ``votes`` times (odd),
stopping early once one reaction transcript holds a strict majority.  If
no majority emerges, or two resolved queries contradict each other on a
shared prefix, a ``NondeterminismError`` surfaces the evidence instead of
learning a wrong machine.
"""
from __future__ import annotations

import gc
import itertools
import json
import mmap
import os
import pickle
import random
import signal
import socket
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .alphabet import symbol_sort_key, symbol_to_obj, word_to_obj
from .mealy import MealyMachine, _Tables, minimize
from .proxy import TransportError


class NondeterminismError(RuntimeError):
    """The target answered the same word in conflicting ways."""

    hypothesis = None  # lstar_learn attaches its last hypothesis, if any

    def __init__(self, word, observations):
        self.word = tuple(word)
        self.observations = tuple(observations)
        super().__init__(
            f"no majority reaction for word of length {len(self.word)}: "
            f"{len(self.observations)} conflicting transcripts"
        )

    def __reduce__(self):
        return type(self), (self.word, self.observations)


class PartialResultError(RuntimeError):
    """Learning stopped early; the best hypothesis so far is attached."""

    def __init__(self, reason, hypothesis):
        self.hypothesis = hypothesis
        super().__init__(reason)


class _BudgetExhausted(Exception):
    pass


# ``json.dumps`` with options builds a new encoder on every call.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(sink, obj):
    if sink is not None:
        sink.write(_json(obj) + "\n")


def _answer(query_fn, word) -> tuple:
    """One session's answer to ``word``: one reaction word per letter."""
    result = tuple(query_fn(word))
    if len(result) != len(word):
        raise ValueError("query backend returned wrong number of reactions")
    return result


def _vote(session, word, votes: int) -> tuple:
    """The answer to ``word`` that a strict majority of up to ``votes`` calls
    of ``session`` give, and how many calls it took.  Stops as soon as one
    answer holds a majority, and raises ``NondeterminismError`` as soon as
    none can."""
    if votes == 1:
        return session(word), 1
    counts: dict = {}
    needed = votes // 2 + 1
    for attempts in range(1, votes + 1):
        result = session(word)
        count = counts[result] = counts.get(result, 0) + 1
        if count >= needed:
            return result, attempts
        if max(counts.values()) + votes - attempts < needed:
            break
    raise NondeterminismError(word, tuple(counts))


# ``ObservationTree._one_letter`` of a node without children, and of a node
# with more than one.  Letter ids are never negative.
_LEAF = -1
_BRANCH = -2


class ObservationTree:
    """Every resolved word, prefix-shared.

    Node 0 is the empty word; every other node holds the output of the letter
    that leads to it, so each distinct prefix is stored once.  Words are
    tuples of indices into ``letters``, which only names the word of a
    ``NondeterminismError``.  Outputs are interned to one object per distinct
    value: a walk looks children up by int and compares outputs by identity.

    Most nodes have one child: 19,571 of the 27,557 after the reference
    learn, against 575 that branch.  So a node's one child is kept in two
    arrays, its letter id in ``_one_letter`` and its node in ``_one_child``,
    and only a node that branches keeps a dict in ``_branches``, which holds
    all of its children in insertion order.  A dict of one child takes 224
    bytes on 64-bit CPython, a node's two array slots 16, so on the
    largest learns the tree takes about a seventh of the memory a dict per
    node would.  The slots are 64-bit, so the layout caps neither the
    alphabet nor the node count.  :meth:`child` and :meth:`children` read
    the layout for the learner and for :meth:`_witness`; :meth:`_find` and
    :meth:`_insert` are the only other code that reads or writes it.
    """

    def __init__(self, letters):
        self._letters = tuple(letters)
        # node -> letter id of its one child, or _LEAF, or _BRANCH
        self._one_letter = array("q", (_LEAF,))
        self._one_child = array("q", (0,))  # node -> its one child
        self._branches: dict = {}  # branching node -> {letter id: child}
        self._out: list = [None]   # node -> output of its incoming letter
        self._outputs: dict = {}

    def __len__(self):
        return len(self._out)

    def child(self, node, letter):
        """The child of ``node`` by the letter with id ``letter``, or
        ``None``."""
        a = self._one_letter[node]
        if a == letter:
            return self._one_child[node]
        if a == _BRANCH:
            return self._branches[node].get(letter)
        return None

    def children(self, node):
        """``(letter id, child)`` of every child of ``node``, in the order
        they were inserted."""
        a = self._one_letter[node]
        if a >= 0:
            return ((a, self._one_child[node]),)
        if a == _LEAF:
            return ()
        return self._branches[node].items()

    def _find(self, ids):
        """The node of the longest prefix of the word that the tree holds,
        and the outputs along that prefix, as a list."""
        one_letter, one_child, out = self._one_letter, self._one_child, self._out
        node = 0
        outputs = []
        for a in ids:
            b = one_letter[node]
            if b == a:
                node = one_child[node]
            elif b == _BRANCH:
                child = self._branches[node].get(a)
                if child is None:
                    break
                node = child
            else:
                break
            outputs.append(out[node])
        return node, outputs

    def _lookup(self, ids):
        """The word's outputs, or ``None`` unless the tree holds all of it."""
        outputs = self._find(ids)[1]
        return tuple(outputs) if len(outputs) == len(ids) else None

    def _insert(self, ids, outcome, found=None):
        """Store a resolved word and return its outputs as the tree holds
        them, or raise ``NondeterminismError`` if it contradicts a stored
        prefix; nothing is stored then.  ``found`` is what :meth:`_find`
        gives for ``ids``, if the caller asked for it after the tree last
        changed."""
        node, held = self._find(ids) if found is None else found
        depth = len(held)
        if held != list(outcome[:depth]):
            depth = 1 + next(i for i, output in enumerate(held) if output != outcome[i])
            raise NondeterminismError(
                tuple(map(self._letters.__getitem__, ids[:depth])),
                (tuple(held[:depth]), tuple(outcome[:depth])))
        if depth == len(ids):
            return tuple(held)
        # The rest of the word is a chain of new nodes below ``node``, each
        # the one child of the one before; the last is a leaf.
        one_letter, one_child, out = self._one_letter, self._one_child, self._out
        first, a = len(out), ids[depth]
        b = one_letter[node]
        if b == _LEAF:
            one_letter[node] = a
            one_child[node] = first
        elif b == _BRANCH:
            self._branches[node][a] = first
        else:
            self._branches[node] = {b: one_child[node], a: first}
            one_letter[node] = _BRANCH
        one_letter.extend(ids[depth + 1:])
        one_letter.append(_LEAF)
        one_child.extend(range(first + 1, first + len(ids) - depth))
        one_child.append(0)
        intern = self._outputs.setdefault
        new = [intern(output, output) for output in outcome[depth:]]
        out.extend(new)
        return tuple(held + new)

    def _witness(self, p, q):
        """A shortest word on which the two nodes answer differently, as
        letter ids, or ``None`` if they are not apart: the nodes are apart
        when some word answered from both gets different outputs.  Of the
        shortest, the first in the insertion order of ``p``'s children,
        level by level."""
        out = self._out
        level = [(p, q, ())]
        while level:
            deeper = []
            for p, q, word in level:
                for a, pc in self.children(p):
                    qc = self.child(q, a)
                    if qc is None:
                        continue
                    if out[pc] is not out[qc]:
                        return word + (a,)
                    deeper.append((pc, qc, word + (a,)))
            level = deeper
        return None


class MembershipOracle:
    """Majority-voting frontend over ``query_fn(word) -> outputs``.

    ``letters`` is the alphabet sorted by ``symbol_sort_key``, and a letter's
    id is its index there.  A word is asked as a tuple of letter ids, which
    :meth:`ids` gives for a word of letters; ``query_fn`` gets the letters.
    It must answer with one reaction word per input position from a fresh
    session.  Resolved words go into an :class:`ObservationTree`, the
    oracle's only store, which answers every prefix of a resolved word for
    free.  ``max_trials`` bounds the total number of reset-isolated sessions
    spent.
    """

    def __init__(self, query_fn, alphabet, votes: int,
                 max_trials: int | None = None, transcript=None):
        if votes < 1 or votes % 2 == 0:
            raise ValueError("votes must be a positive odd number")
        self.letters = tuple(sorted(alphabet, key=symbol_sort_key))
        self._rank = {a: i for i, a in enumerate(self.letters)}
        if not self.letters or len(self._rank) != len(self.letters):
            raise ValueError("the alphabet must name at least one letter, each once")
        self.query_fn = query_fn
        self.votes = votes
        self.max_trials = max_trials
        self.transcript = transcript
        self.tree = ObservationTree(self.letters)
        self.trials = 0
        self.cache_hits = 0
        self._letter_json = [_json(symbol_to_obj(a)) for a in self.letters]
        self._output_json: dict = {}  # id of a tree-held output word -> its JSON

    def ids(self, word) -> tuple:
        """The letter ids of a word of letters, as :meth:`query` takes it.
        ``ValueError`` for a letter outside the alphabet."""
        try:
            return tuple(map(self._rank.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"letter outside the alphabet: {exc.args[0]!r}") from None

    def query(self, ids, voted=None) -> tuple:
        """The outputs of the word with these letter ids, one reaction word
        per letter, from the tree or from as many sessions as the vote
        takes.

        ``voted``, if given, is called when the tree lacks the word, for a
        vote held elsewhere (by a :class:`SuitePool` worker): it returns
        ``(attempts, outcome, error)``, the sessions the vote took and its
        outcome or the error it raised, or ``None`` to vote here.  The
        sessions are charged as the vote here would charge them before
        ``error`` is raised or ``outcome`` stored."""
        tree = self.tree
        found = tree._find(ids)
        if len(found[1]) == len(ids):
            self.cache_hits += 1
            return tuple(found[1])
        reply = None if voted is None else voted()
        if reply is None:
            word = tuple(map(self.letters.__getitem__, ids))
            outcome, attempts = _vote(self._session, word, self.votes)
        else:
            attempts, outcome, error = reply
            self._charge(attempts)
            if error is not None:
                raise error
        # Nothing stores into the tree during a vote, so the prefix found
        # before it still holds: the word's path is walked once.
        outcome = tree._insert(ids, outcome, found)
        if self.transcript is not None:
            self._record(ids, outcome, attempts)
        return outcome

    def _charge(self, sessions: int):
        """Spend sessions of the budget, one at a time."""
        for _ in range(sessions):
            if self.max_trials is not None and self.trials >= self.max_trials:
                raise _BudgetExhausted()
            self.trials += 1

    def _session(self, word) -> tuple:
        """The target's answer to ``word`` from one session of the budget."""
        self._charge(1)
        return _answer(self.query_fn, word)

    def _record(self, ids, outcome, attempts):
        """Write the ``query`` event of a resolved word.  The line is what
        :func:`_emit` writes for ``{"event": "query", "outputs": ...,
        "trials": ..., "word": ...}``, assembled from the JSON of each
        letter and distinct output word, which is built once.  ``outcome``
        holds the tree's own output words, so each is found by identity."""
        letters = self._letter_json
        outputs = self._output_json
        parts = []
        for out in outcome:
            text = outputs.get(id(out))
            if text is None:
                text = outputs[id(out)] = _json(word_to_obj(out))
            parts.append(text)
        self.transcript.write(
            '{"event":"query","outputs":[' + ",".join(parts)
            + '],"trials":' + str(attempts)
            + ',"word":[' + ",".join([letters[a] for a in ids]) + "]}\n")


class _LSharp:
    """Basis, frontier and hypothesis over the oracle's observation tree.

    Words are tuples of the oracle's letter ids.  ``frontier`` maps each
    frontier node to its candidates in basis order; the root starts there
    with none, so the first promotion makes it the basis.
    """

    def __init__(self, oracle: MembershipOracle):
        self.oracle = oracle
        self.tree = oracle.tree
        self.letters = range(len(oracle.letters))
        self.basis: dict = {}      # basis node -> state name, in promotion order
        self.frontier: dict = {0: []}
        self.access: dict = {0: ()}  # basis or frontier node -> its word
        self.separators: dict = {}
        self.rows: dict = {}       # basis node -> [(basis node, output) per letter id]

    def _refresh(self, node):
        """Drop the candidates the frontier node has become apart from."""
        witness = self.tree._witness
        self.frontier[node] = [b for b in self.frontier[node] if witness(node, b) is None]

    def _promote(self, node):
        """Move a frontier node into the basis and ask its extensions."""
        tree = self.tree
        del self.frontier[node]
        self.basis[node] = f"q{len(self.basis)}"
        for other, candidates in self.frontier.items():
            if tree._witness(other, node) is None:
                candidates.append(node)
        head = self.access[node]
        for a in self.letters:
            child = tree.child(node, a)
            if child is None:
                self.oracle.query(head + (a,))
                child = tree.child(node, a)
            self.access[child] = head + (a,)
            self.frontier[child] = [b for b in self.basis
                                    if tree._witness(child, b) is None]

    def _separate(self, node):
        """Ask the frontier node for a word that tells its first two
        candidates apart."""
        pair = tuple(self.frontier[node][:2])
        if pair not in self.separators:
            self.separators[pair] = self.tree._witness(*pair)
        self.oracle.query(self.access[node] + self.separators[pair])
        self._refresh(node)

    def _settle(self):
        """Promote, extend and separate until every frontier node has exactly
        one candidate, re-testing all of them against the whole tree last."""
        while True:
            unsettled = [n for n, c in self.frontier.items() if len(c) != 1]
            if not unsettled:
                for node in self.frontier:
                    self._refresh(node)
                if all(self.frontier.values()):
                    return
                continue
            for node in sorted(unsettled, key=lambda n: bool(self.frontier[n])):
                self._refresh(node)
                while len(self.frontier[node]) > 1:
                    self._separate(node)
                if not self.frontier[node]:
                    self._promote(node)
                    break

    def _hypothesis(self) -> MealyMachine:
        child_of, out = self.tree.child, self.tree._out
        transitions = {}
        for b, name in self.basis.items():
            row = self.rows[b] = []
            for a, letter in enumerate(self.oracle.letters):
                child = child_of(b, a)
                target = child if child in self.basis else self.frontier[child][0]
                row.append((target, out[child]))
                transitions[(name, letter)] = (self.basis[target], out[child])
        return MealyMachine(states=tuple(self.basis.values()), initial="q0",
                            input_alphabet=self.oracle.letters,
                            transitions=transitions)

    def _inconsistency(self):
        """A shortest word on which the tree and the hypothesis disagree, as
        ``(prefix, (letter,))``, or ``None``: one breadth-first walk."""
        children, out, rows = self.tree.children, self.tree._out, self.rows
        level = [(0, 0, None)]  # (node, state, (letter, parent's path))
        while level:
            deeper = []
            for node, state, path in level:
                row = rows[state]
                for a, child in children(node):
                    step = row[a]
                    if out[child] is not step[1]:
                        prefix = []
                        while path is not None:
                            prefix.append(path[0])
                            path = path[1]
                        return tuple(reversed(prefix)), (a,)
                    deeper.append((child, step[0], (a, path)))
            level = deeper
        return None

    def _process(self, word, witness):
        """Counterexample processing by binary search.

        Invariant: the node of ``word`` is apart from its hypothesis state,
        which ``witness`` shows.  Each step asks one word: the hypothesis
        state ``r`` of the first half, then the rest and the witness.  If the
        first half's node is now apart from ``r`` it is the shorter
        counterexample; otherwise the node of ``access(r)`` and the rest is
        apart from the old state, and shorter past the basis.  It ends at a
        frontier node apart from its candidate.
        """
        tree, rows = self.tree, self.rows
        while True:
            node = depth = 0
            while depth < len(word) and node in self.basis:
                node = tree.child(node, word[depth])
                depth += 1
            if depth == len(word):
                break
            half = (depth + len(word)) // 2
            head, tail = word[:half], word[half:]
            state = 0
            for a in head:
                state = rows[state][a][0]
            self.oracle.query(self.access[state] + tail + witness)
            shorter = tree._witness(tree._find(head)[0], state)
            if shorter is not None:
                word, witness = head, shorter
            else:
                word = self.access[state] + tail
        self._refresh(node)


@dataclass
class LearnResult:
    machine: MealyMachine
    rounds: int


def lstar_learn(oracle: MembershipOracle, find_counterexample,
                max_rounds: int = 100) -> LearnResult:
    """Refine L# hypotheses until ``find_counterexample`` comes up empty.

    ``find_counterexample(machine)`` returns a disagreeing word over the
    oracle's alphabet, or ``None``.  Events go to the oracle's transcript.
    On budget exhaustion, round overrun, a failed transport or an interrupt
    the best hypothesis is attached to a ``PartialResultError``, and on a
    contradicting answer to the ``NondeterminismError``.
    """
    learner = _LSharp(oracle)
    transcript = oracle.transcript
    _emit(transcript, {"event": "start",
                       "alphabet": word_to_obj(oracle.letters),
                       "votes": oracle.votes})
    hypothesis = None
    rounds = 0
    try:
        while True:
            learner._settle()
            hypothesis = learner._hypothesis()
            split = learner._inconsistency()
            if split is not None:
                learner._process(*split)
                continue
            if rounds >= max_rounds:
                raise PartialResultError(
                    f"no stable model after {max_rounds} refinement rounds",
                    hypothesis)
            rounds += 1
            _emit(transcript, {"event": "hypothesis", "round": rounds,
                               "states": len(hypothesis.states)})
            cex = find_counterexample(hypothesis)
            if cex is None:
                _emit(transcript, {"event": "done", "rounds": rounds,
                                   "states": len(hypothesis.states)})
                return LearnResult(machine=minimize(hypothesis), rounds=rounds)
            ids = oracle.ids(cex)
            _emit(transcript, {"event": "counterexample", "round": rounds,
                               "word": word_to_obj(cex)})
            oracle.query(ids)
    except _BudgetExhausted:
        raise PartialResultError(
            f"query budget of {oracle.max_trials} trials exhausted",
            hypothesis) from None
    except TransportError as exc:
        raise PartialResultError(f"transport failed: {exc}", hypothesis) from exc
    except KeyboardInterrupt as exc:
        raise PartialResultError("interrupted", hypothesis) from exc
    except NondeterminismError as exc:
        exc.hypothesis = hypothesis
        raise


# ---------------------------------------------------------------------------
# Conformance suite
# ---------------------------------------------------------------------------

def _state_cover(t: _Tables) -> list:
    """Shortest access word of every state, first in letter order, breadth
    first."""
    access = [None] * len(t.delta)
    access[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for a, target in enumerate(t.delta[state]):
                if access[target] is None:
                    access[target] = access[state] + (a,)
                    nxt.append(target)
        frontier = nxt
    return access


def _splitting_word(t: _Tables, block: frozenset):
    """Shortest input word, first in letter order, on which the states of
    ``block`` do not all answer alike while no two that answer alike end in
    the same state; ``None`` if no such word exists.

    Until a word splits the block every state answers alike, so a prefix is
    useless once two states merge, and a prefix that reaches a set of states
    an earlier prefix reached cannot lead to an earlier word."""
    delta, out = t.delta, t.out
    letters = range(len(t.letters))
    frontier = [((), block)]
    seen = {block}
    while frontier:
        nxt = []
        for word, current in frontier:
            for a in letters:
                ends: dict = {}
                for s in current:
                    ends.setdefault(out[s][a], set()).add(delta[s][a])
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


def _harmonized_identifiers(t: _Tables) -> list:
    """Harmonized state identifiers of the minimal machine ``t``, one set of
    words per state: any two states have words in their identifiers whose
    common prefix separates them.

    The identifiers come from a greedy adaptive distinguishing sequence (ADS;
    Lee and Yannakakis, IEEE Trans. Computers 1994).  Starting from all
    states, each block of states that no output has told apart yet applies
    its :func:`_splitting_word` and falls apart into one block per output
    class, each state moving to where the word took it.  A state alone in
    its block is identified by the one word that led it there; two such
    words agree up to the split that separated their states.  A block with
    no splitting word falls back to separating words: each pair of its
    states shares the block's word followed by the shortest word that
    separates the states they reached, first in letter order (the
    :func:`_splitting_word` of that two-state block).  When that happens to
    the block of all states, the identifiers are the identification sets."""
    states = range(len(t.delta))
    ident = [set() for _ in states]
    blocks = [({s: s for s in states}, ())]  # (origin -> reached, word)
    while blocks:
        block, word = blocks.pop()
        if len(block) == 1:
            ident[next(iter(block))].add(word)
            continue
        split = _splitting_word(t, frozenset(block.values()))
        if split is None:
            for (p, p_now), (q, q_now) in itertools.combinations(block.items(), 2):
                test = word + _splitting_word(t, frozenset((p_now, q_now)))
                ident[p].add(test)
                ident[q].add(test)
            continue
        classes: dict = {}
        for origin, current in block.items():
            outputs, end = t.run(split, current)
            classes.setdefault(outputs, {})[origin] = end
        blocks.extend((cls, word + split) for cls in classes.values())
    return ident


class _Suite(Sequence):
    """The words of a conformance suite, read as words of letters.

    ``words`` holds them as tuples of letter indices into ``tables``, the
    minimized hypothesis they were built on; a word becomes letters only
    when it is read."""

    def __init__(self, tables: _Tables, words: list):
        self.tables = tables
        self.words = words

    def __len__(self):
        return len(self.words)

    def __getitem__(self, index):
        letters = self.tables.letters.__getitem__
        if isinstance(index, slice):
            return tuple(tuple(map(letters, w)) for w in self.words[index])
        return tuple(map(letters, self.words[index]))

    def __eq__(self, other):
        """Equal to a suite or a tuple of the same words of letters, as the
        tuple of its words would be."""
        if isinstance(other, (_Suite, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented


def wmethod_suite(machine: MealyMachine, depth: int) -> _Suite:
    """Deterministically ordered conformance test words, built by the HSI
    method (harmonized state identifiers; Dorofeeva et al., IST 2010).

    ``depth`` bounds how many extra states the real system may hide beyond
    the hypothesis.  Each word of the state cover extended by up to
    ``depth + 1`` letters gets the harmonized identifier of the state it
    reaches in the minimized hypothesis (:func:`_harmonized_identifiers`):
    one adaptive-distinguishing-sequence word per state where the greedy ADS
    tells the states apart, each pair's shortest separating word where it
    gets stuck.  Any target with at most ``depth`` extra states that
    disagrees with the hypothesis disagrees on some suite word.

    The suite is built over letter and state indices of the minimized
    hypothesis (:class:`_Tables`) and sorted as such: shortest first, then
    lexicographically by letter rank, so the order does not depend on the
    hash seed.  It is a sequence of words of letters, which slices and
    compares with ``==`` as the tuple of its words does, and keeps the index
    words and their tables, on which :func:`wmethod_counterexample` runs.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    t = _Tables(machine)
    ident = _harmonized_identifiers(t)
    layer = [(head, state) for state, head in enumerate(_state_cover(t))]
    words = set()
    for extra in range(depth + 2):
        for head, state in layer:
            for suffix in ident[state]:
                if head or suffix:
                    words.add(head + suffix)
        if extra <= depth:
            layer = [(head + (a,), target) for head, state in layer
                     for a, target in enumerate(t.delta[state])]
    ordered = sorted(words)
    ordered.sort(key=len)
    return _Suite(t, ordered)


def wmethod_counterexample(machine: MealyMachine, oracle: MembershipOracle,
                           depth: int, pool: SuitePool | None = None):
    """First word of the HSI-method suite (:func:`wmethod_suite`) on which the
    target and the hypothesis disagree, or ``None`` if the whole suite
    matches position by position.

    The words are asked in a seeded order derived from the hypothesis: the
    canonical order shuffled by a generator seeded with its number of
    states, so the order is the same on every run and under every hash seed.
    The suite is almost prefix-free, so a passing suite costs the same in
    any order, while a failing one stops sooner than shortest first.
    Completeness rests on the set of words, not on their order.  The words
    stay letter ids, which the tables share with the oracle (else
    ``ValueError``), and only a counterexample becomes letters.  Each call
    writes one ``suite`` event: the suite's size, the words asked, the
    sessions they cost and whether one disagreed.

    With a ``pool``, made for this oracle, its workers vote on the words
    the tree lacks ahead of this loop, which still asks every word in the
    same order, so the tree, the transcript and the sessions charged are
    the same.
    """
    suite = wmethod_suite(machine, depth)
    t = suite.tables
    if t.letters != oracle.letters:
        raise ValueError("the machine's input alphabet is not the oracle's")
    if pool is not None and pool._tree is not oracle.tree:
        raise ValueError("the suite pool serves another oracle")
    words = list(suite.words)
    random.Random(len(machine.states)).shuffle(words)
    trials = oracle.trials
    found, asked = None, 0
    try:
        if pool is not None and not pool._begin(t, words):
            pool = None
        for asked, word in enumerate(words, 1):
            # With a pool, ``query`` looks the word up again, though the pool
            # did when it handed the word out: a word that missed then may
            # be a tree hit by now, and a hit costs no session.
            answers = (oracle.query(word) if pool is None else
                       oracle.query(word, lambda: pool._reply(asked - 1, word)))
            if not t.agrees(word, answers):
                found = tuple(map(t.letters.__getitem__, word))
                break
        if pool is not None:
            pool._end()
    except BaseException:
        if pool is not None:
            pool.close()
        raise
    _emit(oracle.transcript, {"event": "suite", "words": len(words),
                              "asked": asked, "sessions": oracle.trials - trials,
                              "counterexample": found is not None})
    return found


# ---------------------------------------------------------------------------
# Suite workers
# ---------------------------------------------------------------------------

# Chunks of suite words start at one word, so a suite that fails at once
# wastes little, and double up to this many, so a passing suite's replies
# are few.
_MAX_CHUNK = 64


class _Worker:
    """The parent's end of one worker: its process, its socket, and how many
    chunks it holds."""

    def __init__(self, pid: int, sock: socket.socket):
        self.pid = pid
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.chunks = 0

    def send(self, data: bytes):
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"suite worker {self.pid} exited") from exc

    def receive(self):
        try:
            return pickle.load(self.reader)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise TransportError(f"suite worker {self.pid} exited") from exc

    def close(self):
        self.reader.close()
        self.sock.close()


class SuitePool:
    """Forked processes that vote on conformance-suite words ahead of
    :func:`wmethod_counterexample`.

    Each worker is a fork of the process that makes the pool and votes with
    its own copy of the oracle's ``query_fn``, so the target must live in
    that process (the simulator, not a socket) and start every session from
    one fixed baseline: then a copy answers each word as the original
    would.  Workers ignore SIGINT; the parent's interrupt ends them through
    :meth:`close`.

    Per suite, the parent hands out the words that the tree of the pool's
    oracle lacks in the seeded order, in chunks that start at one word and
    double, at most one more chunk than there are workers at a time.  A
    worker checks each answer against the hypothesis and sends back only
    how many sessions each vote took, and the answer that disagrees or the
    error that ends its chunk; the parent rebuilds an agreeing answer from
    the hypothesis's tables, whose output words are the tree's own.  A
    shared counter, the generation of work still wanted, stops every worker
    within one session once the suite is decided.
    """

    def __init__(self, oracle: MembershipOracle, workers: int):
        if workers < 1:
            raise ValueError("a suite pool needs at least one worker")
        self._generation = 0
        self._shared = mmap.mmap(-1, 8)
        self._wanted = memoryview(self._shared).cast("Q")
        self._workers: list = []
        self._pending: deque = deque()  # (worker, positions), oldest first
        self._replies: dict = {}
        self._tree = oracle.tree
        try:
            for _ in range(workers):
                self._fork(oracle)
        except BaseException:
            self.close()
            raise

    def _fork(self, oracle):
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # The parent's objects, garbage included, are never collected
                # here, so no finalizer of theirs runs twice.
                gc.freeze()
                ours.close()
                for worker in self._workers:
                    worker.close()
                _serve(theirs, oracle.query_fn, oracle.votes, self._wanted)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        self._workers.append(_Worker(pid, ours))

    def __enter__(self) -> "SuitePool":
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Stop and reap every worker.  Idempotent."""
        if not self._workers:
            return
        self._generation += 1
        self._wanted[0] = self._generation
        for worker in self._workers:
            worker.close()
        for worker in self._workers:
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass
        self._workers = []
        self._pending.clear()
        self._replies.clear()
        self._wanted.release()
        self._shared.close()

    def _begin(self, tables, words) -> bool:
        """Start on a suite: ``words`` in letter ids, asked in this order.
        ``False`` if the pool is closed."""
        if not self._workers:
            return False
        self._tables, self._words = tables, words
        self._next = 0   # the first position not yet handed out
        self._size = 1
        data = pickle.dumps(tables)
        for worker in self._workers:
            worker.send(data)
        self._hand_out()
        return True

    def _hand_out(self):
        """Hand out chunks of the words the tree lacks, in the seeded order,
        until one more chunk than there are workers is out."""
        words, lookup = self._words, self._tree._lookup
        while len(self._pending) <= len(self._workers) and self._next < len(words):
            positions = []
            while len(positions) < self._size and self._next < len(words):
                if lookup(words[self._next]) is None:
                    positions.append(self._next)
                self._next += 1
            if not positions:
                return
            worker = min(self._workers, key=lambda w: w.chunks)
            worker.send(pickle.dumps((self._generation, [words[p] for p in positions])))
            worker.chunks += 1
            self._pending.append((worker, positions))
            self._size = min(2 * self._size, _MAX_CHUNK)

    def _receive(self):
        """Take the reply to the oldest chunk out."""
        worker, positions = self._pending.popleft()
        attempts, wrong, error = worker.receive()
        worker.chunks -= 1
        self._hand_out()
        replies = self._replies
        for position, n in zip(positions, attempts):
            replies[position] = (n, None, None)
        if wrong is not None:
            replies[positions[len(attempts) - 1]] = (attempts[-1], wrong, None)
        if error is not None:
            replies[positions[len(attempts)]] = (error[0], None, error[1])

    def _reply(self, position: int, word) -> tuple | None:
        """``(attempts, outcome, error)`` of a worker's vote on the suite
        word at ``position``, as :meth:`MembershipOracle.query` takes it, or
        ``None`` if no worker voted on it."""
        while self._pending and self._pending[0][1][0] <= position:
            self._receive()
        reply = self._replies.pop(position, None)
        if reply is not None and reply[1] is None and reply[2] is None:
            t = self._tables
            reply = (reply[0], tuple(map(t.outputs.__getitem__, t.run(word, 0)[0])), None)
        return reply

    def _end(self):
        """Stop the workers on the suite and drop what they still send."""
        self._generation += 1
        self._wanted[0] = self._generation
        while self._pending:
            worker, _ = self._pending.popleft()
            worker.receive()
            worker.chunks -= 1
        self._replies.clear()


def _serve(sock, query_fn, votes: int, wanted):
    """A worker's loop: take a suite's tables, then vote on the words of
    each chunk until the chunk ends, a vote raises or ``wanted`` moves past
    the chunk's generation, and reply once per chunk."""
    reader = sock.makefile("rb")
    tables = None
    calls = 0

    def session(word):
        nonlocal calls
        calls += 1
        return _answer(query_fn, word)

    while True:
        try:
            message = pickle.load(reader)
        except EOFError:
            return
        if isinstance(message, _Tables):
            tables = message
            continue
        generation, words = message
        letters = tables.letters
        attempts, wrong, error = [], None, None
        for word in words:
            if wanted[0] != generation:
                break
            calls = 0
            try:
                outcome, n = _vote(session, tuple(map(letters.__getitem__, word)), votes)
            except BaseException as exc:  # raised again by the parent, at this word
                error = (calls, exc)
                break
            attempts.append(n)
            if not tables.agrees(word, outcome):
                wrong = outcome  # the suite fails here at the latest
                break
        sock.sendall(pickle.dumps((attempts, wrong, error)))
