"""Deterministic finite-state transducers (Mealy machines) over message symbols.

A machine is total: every (state, input letter) pair has exactly one
transition, carrying a possibly multi-letter output word.  Pruning hides
self-loops and designated "others" letters from graph traversal without
touching execution, so sequence extraction sees a smaller graph while
execution keeps full semantics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .alphabet import (
    Symbol, symbol_from_obj, symbol_label, symbol_sort_key,
    symbol_to_obj, word_from_obj, word_to_obj,
)

SCHEMA_VERSION = 1


class ModelError(ValueError):
    """Violation of a machine contract (unknown state, partial table, ...)."""


@dataclass(frozen=True)
class PrunePolicy:
    """Keep-alive style letters to hide from traversal; self-loops are
    always hidden."""

    others_labels: frozenset = frozenset()

    def is_other(self, letter: Symbol) -> bool:
        return letter in self.others_labels or letter.tag in self.others_labels


@dataclass
class MealyMachine:
    """Immutable-by-convention deterministic transducer.

    ``transitions`` maps (state, input) to (next_state, output_word) and must
    be total over ``states`` x ``input_alphabet``.  ``traversal_mask`` is the
    set of (state, input) edges visible to traversal; ``None`` means all.
    """

    states: tuple
    initial: str
    input_alphabet: tuple
    transitions: dict
    traversal_mask: frozenset | None = None

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ModelError("duplicate states")
        if self.initial not in state_set:
            raise ModelError(f"initial state {self.initial!r} not in states")
        letter_set = set(self.input_alphabet)
        if len(letter_set) != len(self.input_alphabet):
            raise ModelError("duplicate input letters")
        for s in self.states:
            for a in self.input_alphabet:
                if (s, a) not in self.transitions:
                    raise ModelError(f"transition table not total: missing {(s, a)!r}")
        for (s, a), (nxt, out) in self.transitions.items():
            if s not in state_set or nxt not in state_set:
                raise ModelError(f"transition {(s, a)!r} touches unknown state")
            if a not in letter_set:
                raise ModelError(f"transition {(s, a)!r} is on a letter outside the alphabet")
            if not isinstance(out, tuple):
                raise ModelError(f"output of {(s, a)!r} must be a tuple word")

    # -- execution ---------------------------------------------------------

    def step(self, state, letter):
        """One transition: (state, input) -> (next_state, output_word)."""
        try:
            return self.transitions[(state, letter)]
        except KeyError:
            raise ModelError(f"no transition for {(state, letter)!r}") from None

    def run_outputs(self, word):
        """Per-position output words (one tuple per input letter)."""
        state = self.initial
        out = []
        for letter in word:
            state, piece = self.step(state, letter)
            out.append(piece)
        return tuple(out)

    def state_after(self, word):
        state = self.initial
        for letter in word:
            state, _ = self.step(state, letter)
        return state

    # -- traversal view ----------------------------------------------------

    def traversal_edges(self, state):
        """Outgoing edges visible to traversal, in alphabet order."""
        for a in self.input_alphabet:
            if self.traversal_mask is not None and (state, a) not in self.traversal_mask:
                continue
            nxt, out = self.transitions[(state, a)]
            yield a, nxt, out

    def prune(self, policy: PrunePolicy | None = None) -> "MealyMachine":
        """Hide self-loops and "others" letters from traversal.  Idempotent;
        execution through ``step`` is unaffected."""
        policy = policy or PrunePolicy()
        mask = frozenset(
            (s, a)
            for (s, a), (nxt, _) in self.transitions.items()
            if nxt != s and not policy.is_other(a)
        )
        return replace(self, traversal_mask=mask)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        edges = []
        for s in self.states:
            for a in self.input_alphabet:
                nxt, out = self.transitions[(s, a)]
                edges.append(
                    {
                        "src": s,
                        "input": symbol_to_obj(a),
                        "dst": nxt,
                        "output": word_to_obj(out),
                    }
                )
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "mealy",
            "states": list(self.states),
            "initial": self.initial,
            "alphabet": [symbol_to_obj(a) for a in self.input_alphabet],
            "transitions": edges,
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MealyMachine":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("kind") != "mealy":
            raise ModelError("not a serialized mealy machine")
        alphabet = tuple(symbol_from_obj(o) for o in doc["alphabet"])
        transitions = {}
        for e in doc["transitions"]:
            transitions[(e["src"], symbol_from_obj(e["input"]))] = (
                e["dst"],
                word_from_obj(e["output"]),
            )
        return cls(
            states=tuple(doc["states"]),
            initial=doc["initial"],
            input_alphabet=alphabet,
            transitions=transitions,
        )

    def to_dot(self) -> str:
        """Byte-stable GraphViz rendering; pruned edges drawn dashed."""
        lines = [
            "digraph mealy {",
            "  rankdir=LR;",
            '  node [shape=circle fontsize=10];',
            '  "__start" [shape=point];',
            f'  "__start" -> "{self.initial}";',
        ]
        for s in self.states:
            shape = ' [shape=doublecircle]' if s == self.initial else ""
            lines.append(f'  "{s}"{shape};')
        for s in self.states:
            for a in self.input_alphabet:
                nxt, out = self.transitions[(s, a)]
                label = f"{symbol_label(a)}/{_word_label(out)}"
                style = ""
                if self.traversal_mask is not None and (s, a) not in self.traversal_mask:
                    style = " style=dashed color=gray"
                lines.append(f'  "{s}" -> "{nxt}" [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _word_label(word) -> str:
    if not word:
        return "-"
    return ",".join(symbol_label(x) for x in word)


# ---------------------------------------------------------------------------
# Minimization and isomorphism
# ---------------------------------------------------------------------------

def _classes(keys) -> list:
    """The index of each key among the distinct keys, in order of first
    appearance."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys]


class _Tables:
    """A machine, minimized, over state and letter indices.

    A letter is its index in ``letters``, the input alphabet in canonical
    order.  States are numbered breadth first from the initial one, state 0,
    over the letters in order; :func:`minimize` names state i ``q<i>``.
    ``delta[s][a]`` is the state letter ``a`` leads to from state ``s``, and
    ``out[s][a]`` the index of its output word in ``outputs``, which holds
    each distinct output word once.
    """

    def __init__(self, machine: MealyMachine):
        letters = tuple(sorted(machine.input_alphabet, key=symbol_sort_key))
        number = {s: i for i, s in enumerate(machine.states)}
        rank = {a: i for i, a in enumerate(letters)}
        index: dict = {}  # output word -> its index in outputs
        delta = [[0] * len(letters) for _ in machine.states]
        out = [[0] * len(letters) for _ in machine.states]
        for (s, a), (dst, word) in machine.transitions.items():
            i, c = rank[a], index.setdefault(word, len(index))
            delta[number[s]][i] = number[dst]
            out[number[s]][i] = c
        # Moore's partition refinement, then the blocks the initial state
        # reaches, numbered breadth first over the letters in order.
        block = _classes(tuple(row) for row in out)
        while True:
            finer = _classes((block[s], tuple(block[d] for d in row))
                             for s, row in enumerate(delta))
            if max(finer) == max(block):
                break
            block = finer
        initial = number[machine.initial]
        name = {block[initial]: 0}
        reps = [initial]
        for s in reps:
            for d in delta[s]:
                if block[d] not in name:
                    name[block[d]] = len(reps)
                    reps.append(d)
        self.letters = letters
        self.outputs = list(index)
        self.delta = [[name[block[d]] for d in delta[s]] for s in reps]
        self.out = [out[s] for s in reps]

    def run(self, word, state: int):
        """The output indices of ``word`` from ``state``, and its end state."""
        delta, out = self.delta, self.out
        outputs = []
        for a in word:
            outputs.append(out[state][a])
            state = delta[state][a]
        return tuple(outputs), state

    def agrees(self, word, answers) -> bool:
        """Whether ``answers`` are the output words of ``word`` from the
        initial state."""
        delta, out, outputs = self.delta, self.out, self.outputs
        state = 0
        for a, answer in zip(word, answers):
            if answer != outputs[out[state][a]]:
                return False
            state = delta[state][a]
        return True


def minimize(m: MealyMachine) -> MealyMachine:
    """Reachable, merged-equivalent-states machine with canonical q0..qN names
    assigned in breadth-first order over a sorted alphabet."""
    t = _Tables(m)
    names = [f"q{i}" for i in range(len(t.delta))]
    transitions = {}
    for s, (row, outs) in enumerate(zip(t.delta, t.out)):
        for a, letter in enumerate(t.letters):
            transitions[(names[s], letter)] = (names[row[a]], t.outputs[outs[a]])
    return MealyMachine(
        states=tuple(names),
        initial="q0",
        input_alphabet=t.letters,
        transitions=transitions,
    )


def isomorphic(a: MealyMachine, b: MealyMachine) -> bool:
    """True iff the reachable, minimized machines are identical up to state
    renaming.  Machines over different input alphabets are never isomorphic."""
    if set(a.input_alphabet) != set(b.input_alphabet):
        return False
    ca, cb = minimize(a), minimize(b)
    if len(ca.states) != len(cb.states):
        return False
    return ca.transitions == cb.transitions
