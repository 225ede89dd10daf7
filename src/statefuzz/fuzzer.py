"""Feasible-sequence extraction, mutation, and fuzzing campaigns.

Seeds come from a depth-first walk of the learned model: every first visit
of a state appends the input that reached it, and the path so far is
recorded as one feasible message sequence.  Self-loops and masked
housekeeping edges never extend the walk, keeping seeds short and
state-changing.

Each campaign case picks a seed (biased toward rarely exercised end
states), applies one to three random mutations, injects the mutant through
the proxy from a fresh session, and hands the collected reactions plus the
cluster health snapshot to the detector.  The proxy takes the cases in
batches, so that over TCP a batch costs one request.  Every random decision
is recorded so any case can be replayed exactly, with no random number
generator, from its report entry.
"""
from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field

from .alphabet import (
    DecodeError, Symbol, _is_int, symbol_from_obj, symbol_to_obj,
    word_from_obj, word_to_obj,
)
from .detector import Detector
from .mealy import MealyMachine
from .proxy import TransportError

MUT_DUPLICATE = "duplicate"
MUT_REMOVE = "remove"
MUT_REPLACE = "replace"
MUT_SWAP_ARG = "swap-arg"

ALL_MUTATIONS = (MUT_DUPLICATE, MUT_REMOVE, MUT_REPLACE, MUT_SWAP_ARG)

# Structural edits dominate; argument swaps explore a letter's value space.
DEFAULT_CAMPAIGN_WEIGHTS = {
    MUT_DUPLICATE: 3,
    MUT_REMOVE: 3,
    MUT_REPLACE: 3,
    MUT_SWAP_ARG: 1,
}

MIN_MUTATIONS_PER_CASE = 1
MAX_MUTATIONS_PER_CASE = 3
MIN_COPIES = 2
MAX_COPIES = 5


# ---------------------------------------------------------------------------
# Seed extraction
# ---------------------------------------------------------------------------

def sdfs_extract(machine: MealyMachine) -> tuple:
    """Feasible sequences from a stateful depth-first traversal.

    The walk starts at the initial state with that state already marked
    visited, scans outgoing edges in canonical input order (masked edges
    skipped), and emits the accumulated input path each time an edge reaches
    a state not seen before.  The result is one sequence per discovered
    state, prefix-closed along the traversal tree.
    """
    visited = {machine.initial}
    sequences = []
    path = []

    def walk(state):
        for sym, target, _out in machine.traversal_edges(state):
            if target not in visited:
                visited.add(target)
                path.append(sym)
                sequences.append(tuple(path))
                walk(target)
                path.pop()

    walk(machine.initial)
    return tuple(sequences)


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MutationRecord:
    """One applied mutation, replayable without any randomness.

    ``position`` is 1-based within the sequence as it was *before* this
    mutation.  ``copies`` (duplicate) is the total number of copies left
    behind; ``source`` (replace) is the 1-based position the substitute was
    taken from; ``symbol`` (swap-arg) is the redrawn letter.
    """

    position: int
    action: str
    copies: int = 0
    source: int = 0
    symbol: Symbol | None = None

    def to_obj(self) -> dict:
        doc = {"position": self.position, "action": self.action}
        if self.action == MUT_DUPLICATE:
            doc["copies"] = self.copies
        elif self.action == MUT_REPLACE:
            doc["source"] = self.source
        elif self.action == MUT_SWAP_ARG:
            doc["symbol"] = symbol_to_obj(self.symbol)
        return doc

    @classmethod
    def from_obj(cls, doc: dict) -> "MutationRecord":
        """Parse a stored record; a field of the wrong type, an unknown
        action or an argument swap without a symbol is a ``ValueError``."""
        if doc["action"] not in ALL_MUTATIONS:
            raise ValueError(f"unknown mutation action: {doc['action']!r}")
        counts = {"position": doc["position"], "copies": doc.get("copies", 0),
                  "source": doc.get("source", 0)}
        for key, value in counts.items():
            if not _is_int(value):
                raise ValueError(f"mutation {key} must be an integer, not {value!r}")
        if doc["action"] == MUT_SWAP_ARG and "symbol" not in doc:
            raise ValueError("swap-arg record carries no symbol")
        return cls(action=doc["action"], **counts,
                   symbol=symbol_from_obj(doc["symbol"]) if "symbol" in doc else None)


def apply_mutation(seq, record: MutationRecord) -> tuple:
    """Pure application of one recorded mutation."""
    seq = tuple(seq)
    if not 1 <= record.position <= len(seq):
        raise ValueError(f"mutation position {record.position} outside sequence "
                         f"of length {len(seq)}")
    i = record.position - 1
    if record.action == MUT_DUPLICATE:
        if record.copies < MIN_COPIES:
            raise ValueError("duplicate needs at least two total copies")
        return seq[:i + 1] + (seq[i],) * (record.copies - 1) + seq[i + 1:]
    if record.action == MUT_REMOVE:
        return seq[:i] + seq[i + 1:]
    if record.action == MUT_REPLACE:
        if not 1 <= record.source <= len(seq):
            raise ValueError("replace source outside sequence")
        return seq[:i] + (seq[record.source - 1],) + seq[i + 1:]
    if record.action == MUT_SWAP_ARG:
        if record.symbol is None:
            raise ValueError("swap-arg record carries no symbol")
        return seq[:i] + (record.symbol,) + seq[i + 1:]
    raise ValueError(f"unknown mutation action: {record.action!r}")


def mutate(seq, rng: random.Random, domains: dict,
           weights: dict = DEFAULT_CAMPAIGN_WEIGHTS):
    """One random mutation of ``seq``; returns ``(new_seq, record)``.

    Draws, in order: the position (uniform over the sequence), the action
    (per ``weights``, over the available actions), then any
    action-specific values.  ``domains`` maps a letter tag to its parameter
    tuples and decides whether an argument swap is possible at the chosen
    position.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("cannot mutate an empty sequence")
    position = rng.randint(1, len(seq))
    letter = seq[position - 1]
    alternatives = [p for p in domains.get(letter.tag, ()) if p != letter.params]
    available = [MUT_DUPLICATE, MUT_REMOVE]
    if len(seq) >= 2:
        available.append(MUT_REPLACE)
    if alternatives:
        available.append(MUT_SWAP_ARG)
    action = rng.choices(available, weights=[weights[a] for a in available])[0]
    if action == MUT_DUPLICATE:
        record = MutationRecord(position, action, copies=rng.randint(MIN_COPIES, MAX_COPIES))
    elif action == MUT_REMOVE:
        record = MutationRecord(position, action)
    elif action == MUT_REPLACE:
        others = [p for p in range(1, len(seq) + 1) if p != position]
        record = MutationRecord(position, action, source=rng.choice(others))
    else:
        params = alternatives[rng.randrange(len(alternatives))]
        record = MutationRecord(position, action, symbol=Symbol(letter.tag, params))
    return apply_mutation(seq, record), record


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    """Everything needed to reproduce one injected sequence exactly."""

    case_id: int
    seed_index: int
    base: tuple
    mutations: tuple
    word: tuple

    def to_obj(self) -> dict:
        return {
            "case_id": self.case_id,
            "seed_index": self.seed_index,
            "base": word_to_obj(self.base),
            "mutations": [m.to_obj() for m in self.mutations],
            "word": word_to_obj(self.word),
        }

    @classmethod
    def from_obj(cls, doc: dict) -> "FuzzCase":
        for key in ("case_id", "seed_index"):
            if not _is_int(doc[key]):
                raise ValueError(f"{key} must be an integer, not {doc[key]!r}")
        return cls(
            case_id=doc["case_id"],
            seed_index=doc["seed_index"],
            base=tuple(word_from_obj(doc["base"])),
            mutations=tuple(MutationRecord.from_obj(m) for m in doc["mutations"]),
            word=tuple(word_from_obj(doc["word"])),
        )


@dataclass
class CampaignReport:
    origin: str
    rng_seed: int
    cases_run: int
    findings: tuple  # ((FuzzCase, Finding), ...)
    errors: tuple    # ((case_id, message), ...)
    stats: dict = field(default_factory=dict)

    def criteria_found(self) -> frozenset:
        found = set()
        for _, finding in self.findings:
            found.update(finding.criteria)
        return frozenset(found)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "fuzz-report",
            "origin": self.origin,
            "seed": self.rng_seed,
            "cases_run": self.cases_run,
            "findings": [
                {**case.to_obj(), **finding.to_dict()}
                for case, finding in self.findings
            ],
            "errors": [{"case_id": cid, "message": msg} for cid, msg in self.errors],
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C ended a campaign; ``report`` holds the cases that finished."""

    def __init__(self, report: CampaignReport):
        super().__init__("interrupted")
        self.report = report


def run_campaign(proxy, machine: MealyMachine, detector: Detector, *,
                 rng_seed: int, max_cases: int, domains: dict,
                 weights: dict | None = None,
                 until_criteria=None) -> CampaignReport:
    """Mutation-based injection campaign against the proxied cluster.

    Seeds are extracted from ``machine``; case scheduling favors seeds whose
    traversal end state has been exercised least.  Stops after ``max_cases``
    or once ``until_criteria`` (a set of criterion names) have all been
    witnessed.  A case whose reply does not decode is recorded and skipped;
    the campaign continues.  Cases are built as the proxy takes them for its
    batches (``ClusterProxy.run_cases``), ahead of the results of the cases
    before them, which none depends on: the end-state counts and both random
    number generators move as a case is built.  An interrupt raises
    ``CampaignInterrupted`` with the report of the cases evaluated before
    it; a ``TransportError`` is raised with that report as its ``report``.
    """
    if max_cases < 1:
        raise ValueError("max_cases must be positive")
    seeds = sdfs_extract(machine)
    if not seeds:
        raise ValueError("model yields no feasible sequences to mutate")
    if weights is None:
        weights = dict(DEFAULT_CAMPAIGN_WEIGHTS)
    end_states = [machine.state_after(seed) for seed in seeds]
    hits = {state: 0 for state in end_states}
    scheduler = random.Random(rng_seed)
    built = deque()  # the cases whose words the proxy took, not yet evaluated

    def schedule():
        for case_id in range(max_cases):
            bias = [1.0 / (1 + hits[state]) for state in end_states]
            seed_index = scheduler.choices(range(len(seeds)), weights=bias)[0]
            hits[end_states[seed_index]] += 1
            case_rng = random.Random((rng_seed << 32) ^ case_id)
            word = seeds[seed_index]
            records = []
            for _ in range(case_rng.randint(MIN_MUTATIONS_PER_CASE, MAX_MUTATIONS_PER_CASE)):
                if not word:
                    break
                word, record = mutate(word, case_rng, domains, weights)
                records.append(record)
            built.append(FuzzCase(case_id=case_id, seed_index=seed_index,
                                  base=seeds[seed_index], mutations=tuple(records),
                                  word=word))
            yield word

    findings = []
    errors = []
    wanted = frozenset(until_criteria) if until_criteria else None
    found = set()
    cases_run = 0
    interrupt = None
    try:
        for result in proxy.run_cases(schedule()):
            case = built.popleft()
            if isinstance(result, DecodeError):
                errors.append((case.case_id, str(result)))
                finding = None
            else:
                finding = detector.evaluate(result[1], received=result[0])
            if finding is not None:
                findings.append((case, finding))
                found.update(finding.criteria)
            cases_run += 1
            if wanted is not None and wanted <= found:
                break
    except (KeyboardInterrupt, TransportError) as exc:
        interrupt = exc
    stats = {
        "cases": cases_run,
        "findings": len(findings),
        "errors": len(errors),
        "symbols_sent": proxy.symbols_sent,
        "resets": proxy.resets,
        "virtual_ticks": proxy.ticks_advanced,
    }
    report = CampaignReport(origin=detector.baseline.origin, rng_seed=rng_seed,
                            cases_run=cases_run, findings=tuple(findings),
                            errors=tuple(errors), stats=stats)
    if isinstance(interrupt, TransportError):
        interrupt.report = report
        raise interrupt
    if interrupt is not None:
        raise CampaignInterrupted(report) from interrupt
    return report


def replay_case(proxy, detector: Detector, case: FuzzCase):
    """Re-run one case exactly as recorded; returns ``(outputs, finding)``.

    The stored mutation chain is re-applied to the stored base sequence and
    must reproduce the stored word, guarding against tampered or stale
    reports.  A reply that does not decode raises its ``DecodeError``.
    """
    word = case.base
    for record in case.mutations:
        word = apply_mutation(word, record)
    if word != case.word:
        raise ValueError("mutation chain does not reproduce the recorded word")
    result = next(proxy.run_cases([case.word]))
    if isinstance(result, DecodeError):
        raise result
    outputs, observation = result
    return outputs, detector.evaluate(observation, received=outputs)
