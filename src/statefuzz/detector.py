"""Behavioral attack detection for injected message sequences.

A baseline snapshot of the healthy converged cluster is compared against
the snapshot taken after a candidate sequence ran.  Five independent
criteria classify what, if anything, went wrong:

``config-leak``
    The peer received configuration-bearing bootstrap traffic naming real
    members while the baseline says it is not part of the cluster.
``cluster-state-change``
    Leader identity, term, membership roster, or link topology moved.
``app-store-change``
    The replicated application store no longer matches the baseline.
``reachability-change``
    Any pairwise controller reachability verdict flipped.
``resource-exhaustion``
    Open sessions exceed a multiple of the member count, or some node's
    resource load exceeds a multiple of its baseline value.

Each criterion reports its own evidence; a finding carries every criterion
that fired, so one sequence can witness several failure classes at once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .alphabet import BREQ, BRES, Symbol, _is_list, _is_str
from .sulsim import ClusterObservation

CRIT_CONFIG_LEAK = "config-leak"
CRIT_STATE_CHANGE = "cluster-state-change"
CRIT_APP_CHANGE = "app-store-change"
CRIT_REACH_CHANGE = "reachability-change"
CRIT_EXHAUSTION = "resource-exhaustion"

ALL_CRITERIA = (
    CRIT_CONFIG_LEAK,
    CRIT_STATE_CHANGE,
    CRIT_APP_CHANGE,
    CRIT_REACH_CHANGE,
    CRIT_EXHAUSTION,
)

SESSION_FACTOR = 4
LOAD_FACTOR = 3


class BaselineMismatchError(RuntimeError):
    """Observations from two different cluster instances were compared."""


@dataclass(frozen=True)
class Baseline:
    """Reference snapshot of the healthy cluster plus identity of origin."""

    observation: ClusterObservation

    @property
    def origin(self) -> str:
        return self.observation.origin

    @classmethod
    def capture(cls, source) -> "Baseline":
        """Snapshot from anything with ``observe()`` (proxy, transport, handle)."""
        return cls(observation=source.observe())


@dataclass
class Finding:
    """One detected deviation: which criteria fired and their evidence."""

    criteria: tuple
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"criteria": list(self.criteria),
                "evidence": {k: self.evidence[k] for k in sorted(self.evidence)}}

    @classmethod
    def from_dict(cls, doc: dict) -> "Finding":
        criteria, evidence = doc["criteria"], doc["evidence"]
        if not _is_list(criteria, lambda c: _is_str(c) and c in ALL_CRITERIA):
            raise ValueError(f"criteria must be a list of {list(ALL_CRITERIA)}, "
                             f"not {criteria!r}")
        if not isinstance(evidence, dict):
            raise ValueError(f"evidence must be an object, not {evidence!r}")
        return cls(criteria=tuple(criteria), evidence=dict(evidence))

    def signature(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class Detector:
    """Evaluate post-sequence snapshots against a fixed baseline."""

    def __init__(self, baseline: Baseline):
        self.baseline = baseline

    def evaluate(self, observation: ClusterObservation, received=()) -> Finding | None:
        """``received`` is every output word the peer collected while the
        candidate sequence ran; it feeds the configuration-leak criterion."""
        base = self.baseline.observation
        if observation.origin != base.origin:
            raise BaselineMismatchError(
                f"observation origin {observation.origin} does not match "
                f"baseline origin {base.origin}")
        criteria = []
        evidence = {}

        leak = self._config_leak(received)
        if leak:
            criteria.append(CRIT_CONFIG_LEAK)
            evidence[CRIT_CONFIG_LEAK] = leak

        state = self._state_change(base, observation)
        if state:
            criteria.append(CRIT_STATE_CHANGE)
            evidence[CRIT_STATE_CHANGE] = state

        if observation.apps != base.apps:
            criteria.append(CRIT_APP_CHANGE)
            evidence[CRIT_APP_CHANGE] = {
                "before": list(base.apps), "after": list(observation.apps)}

        flips = self._reachability_flips(base, observation)
        if flips:
            criteria.append(CRIT_REACH_CHANGE)
            evidence[CRIT_REACH_CHANGE] = flips

        exhaustion = self._exhaustion(base, observation)
        if exhaustion:
            criteria.append(CRIT_EXHAUSTION)
            evidence[CRIT_EXHAUSTION] = exhaustion

        if not criteria:
            return None
        return Finding(criteria=tuple(criteria), evidence=evidence)

    # -- individual criteria ---------------------------------------------

    def _config_leak(self, received):
        # A healthy baseline roster never contains the fuzzing identity, so
        # any bootstrap payload disclosing real members is a leak to an
        # outsider.
        peer_ids = set(self.baseline.observation.membership)
        for word in received:
            for sym in word:
                if isinstance(sym, Symbol) and sym.tag in (BREQ, BRES):
                    nodes = sym.params[0] if sym.params else ()
                    disclosed = [n for n in nodes if n in peer_ids]
                    if disclosed:
                        return {"message": sym.tag, "nodes": sorted(disclosed)}
        return None

    @staticmethod
    def _state_change(base, obs):
        diff = {}
        if obs.leader != base.leader:
            diff["leader"] = {"before": base.leader, "after": obs.leader}
        if obs.term != base.term:
            diff["term"] = {"before": base.term, "after": obs.term}
        if obs.membership != base.membership:
            diff["membership"] = {
                "before": dict(sorted(base.membership.items())),
                "after": dict(sorted(obs.membership.items()))}
        if set(obs.links) != set(base.links):
            added = sorted(set(obs.links) - set(base.links))
            removed = sorted(set(base.links) - set(obs.links))
            diff["links"] = {"added": [list(l) for l in added],
                            "removed": [list(l) for l in removed]}
        return diff or None

    @staticmethod
    def _reachability_flips(base, obs):
        flips = []
        for a, row in sorted(base.reachability.items()):
            for b, ok in sorted(row.items()):
                after = obs.reachability.get(a, {}).get(b, ok)
                if after != ok:
                    flips.append({"pair": [a, b], "before": ok, "after": after})
        return flips or None

    def _exhaustion(self, base, obs):
        problems = {}
        member_count = len(base.membership)
        session_limit = SESSION_FACTOR * member_count
        if obs.sessions_open > session_limit:
            problems["sessions"] = {"open": obs.sessions_open, "limit": session_limit}
        overloaded = {}
        for node, load in sorted(obs.resource_load.items()):
            base_load = base.resource_load.get(node, 1)
            if load > LOAD_FACTOR * base_load:
                overloaded[node] = {"load": load, "limit": LOAD_FACTOR * base_load}
        if overloaded:
            problems["load"] = overloaded
        return problems or None

