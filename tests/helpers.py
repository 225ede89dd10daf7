"""Shared fixtures and independent oracles used across the test suite."""
from __future__ import annotations

import copy
import itertools
import random

from statefuzz.alphabet import (
    ALIVE, KNOWN, NO_RESPONSE, PREQ, PRES, RAREQ, RJREQ, RJRES, BRES, UNKNOWN,
    NodeRef, Symbol,
)
from statefuzz.fuzzer import sdfs_extract
from statefuzz.learner import _harmonized_identifiers, _splitting_word
from statefuzz.mealy import MealyMachine, _Tables, minimize

T0_PROBE = Symbol(PREQ, (NodeRef("A", KNOWN),))
T0_PROBE_ACK = Symbol(PRES, (NodeRef("A", KNOWN), ALIVE))
T0_JOIN = Symbol(RJREQ, (NodeRef("A", KNOWN),))
T0_JOIN_ACK = Symbol(RJRES)
T0_HEARTBEAT = Symbol(RAREQ)
T0_ALPHABET = (T0_PROBE, T0_JOIN, T0_HEARTBEAT)


def message(cluster_id: str, sender: str, ts: int, msg_type: str, payload: dict) -> dict:
    """A concrete message: the object its frame carries."""
    return {"cluster_id": cluster_id, "sender": sender, "ts": ts, "type": msg_type,
            "payload": payload}


def build_t0() -> MealyMachine:
    """Tiny three-state fixture: probe moves q0->q1, join moves q1->q2."""
    nr = (NO_RESPONSE,)
    t = {}
    for q in ("q0", "q1", "q2"):
        for a in T0_ALPHABET:
            t[(q, a)] = (q, nr)
    t[("q0", T0_PROBE)] = ("q1", (T0_PROBE_ACK,))
    t[("q1", T0_JOIN)] = ("q2", (T0_JOIN_ACK,))
    return MealyMachine(
        states=("q0", "q1", "q2"),
        initial="q0",
        input_alphabet=T0_ALPHABET,
        transitions=t,
    )


JOIN_REQ_SELF = Symbol(RJREQ, (NodeRef("X", UNKNOWN),))
JOIN_CONFIG = Symbol(BRES, (("A", "B", "C", "X"),))


def build_join_fixture() -> MealyMachine:
    """Join progression fixture: V0 -RJReq-> V1 -BRes-> V4, ack on the last hop."""
    nr = (NO_RESPONSE,)
    alphabet = (JOIN_REQ_SELF, JOIN_CONFIG)
    t = {}
    for q in ("V0", "V1", "V4"):
        for a in alphabet:
            t[(q, a)] = (q, nr)
    t[("V0", JOIN_REQ_SELF)] = ("V1", nr)
    t[("V1", JOIN_CONFIG)] = ("V4", (Symbol(RJRES),))
    return MealyMachine(
        states=("V0", "V1", "V4"), initial="V0", input_alphabet=alphabet, transitions=t
    )


GENERIC_OUTPUTS = (
    (NO_RESPONSE,),
    (Symbol("out_x"),),
    (Symbol("out_y"),),
    (Symbol("out_x"), Symbol("out_y")),
)


def random_machine(rng: random.Random, max_states: int = 8, max_inputs: int = 5) -> MealyMachine:
    """Random total machine where every state is reachable (spanning tree plus
    random extra edges), with outputs drawn from a small pool."""
    n = rng.randint(2, max_states)
    k = rng.randint(1, max_inputs)
    states = tuple(f"s{i}" for i in range(n))
    alphabet = tuple(Symbol(f"in_{chr(ord('a') + i)}") for i in range(k))
    t = {}
    for i, s in enumerate(states[1:], start=1):
        free = [(p, a) for p in states[:i] for a in alphabet if (p, a) not in t]
        parent, letter = rng.choice(free)
        t[(parent, letter)] = (s, rng.choice(GENERIC_OUTPUTS))
    for s in states:
        for a in alphabet:
            if (s, a) not in t:
                t[(s, a)] = (rng.choice(states), rng.choice(GENERIC_OUTPUTS))
    return MealyMachine(states=states, initial=states[0], input_alphabet=alphabet, transitions=t)


def relabel_machine(m: MealyMachine, rng: random.Random) -> MealyMachine:
    """Same machine under a random bijective state renaming."""
    new_names = [f"r{i}" for i in range(len(m.states))]
    rng.shuffle(new_names)
    mapping = dict(zip(m.states, new_names))
    return MealyMachine(
        states=tuple(mapping[s] for s in m.states),
        initial=mapping[m.initial],
        input_alphabet=m.input_alphabet,
        transitions={
            (mapping[s], a): (mapping[nxt], out)
            for (s, a), (nxt, out) in m.transitions.items()
        },
    )


def iterative_first_visit_walk(m: MealyMachine) -> tuple:
    """Independent reimplementation of feasible-sequence extraction using an
    explicit stack instead of recursion; used to cross-check the package's
    traversal on random machines."""
    sequences = []
    visited = {m.initial}
    stack = [(iter(list(m.traversal_edges(m.initial))), ())]
    while stack:
        edges, path = stack[-1]
        for sym, target, _out in edges:
            if target not in visited:
                visited.add(target)
                extended = path + (sym,)
                sequences.append(extended)
                stack.append((iter(list(m.traversal_edges(target))), extended))
                break
        else:
            stack.pop()
    return tuple(sequences)


def counted_sdfs_extract(m: MealyMachine) -> tuple:
    """``sdfs_extract(m)`` and its operation count: one per state for the
    visited set plus one per edge the walk scans, counted by a wrapper
    around ``traversal_edges``."""
    scanned = 0
    edges = m.traversal_edges

    def counting_edges(state):
        nonlocal scanned
        for edge in edges(state):
            scanned += 1
            yield edge

    counted = copy.copy(m)
    counted.traversal_edges = counting_edges
    seeds = sdfs_extract(counted)
    return seeds, len(m.states) + scanned


def tables(m: MealyMachine):
    """The int tables (``mealy._Tables``) of ``m``, which must be a machine
    as ``minimize`` returns it: then state i of the tables is
    ``m.states[i]`` and letter i is ``m.input_alphabet[i]``."""
    assert minimize(m) == m
    return _Tables(m)


def splitting_word(m: MealyMachine, states):
    """``learner._splitting_word`` of a block of states of ``m`` (see
    :func:`tables`), as a word of letters, or ``None``."""
    word = _splitting_word(tables(m), frozenset(map(m.states.index, states)))
    return None if word is None else tuple(m.input_alphabet[a] for a in word)


def harmonized_identifiers(m: MealyMachine) -> dict:
    """``learner._harmonized_identifiers`` of ``m`` (see :func:`tables`) by
    state name, as words of letters."""
    return {m.states[s]: {tuple(m.input_alphabet[a] for a in w) for w in words}
            for s, words in enumerate(_harmonized_identifiers(tables(m)))}


def identification_sets(m: MealyMachine) -> dict:
    """For every state of the minimal machine ``m`` (see :func:`tables`), its
    identification set: against each other state, the shortest word that
    separates the two, first in letter order.  A single-state machine's only
    state gets ``{()}``."""
    if len(m.states) < 2:
        return {s: {()} for s in m.states}
    ident = {s: set() for s in m.states}
    for p, q in itertools.combinations(m.states, 2):
        word = splitting_word(m, (p, q))
        ident[p].add(word)
        ident[q].add(word)
    return ident
