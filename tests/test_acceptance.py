"""End-to-end acceptance gate.

Each test here checks one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured numbers; a failed
assertion marks the corresponding guarantee FAIL in the pytest report.

Guarantees covered, one test each:

1.  Model learning on the reference cluster is exact: the learned machine
    is isomorphic to an independently product-constructed ground truth, in
    under 60 seconds and at most 8,500 sessions.  So is learning with each
    of the vulnerability flags session_flood, clear_store, fake_link,
    fake_member, unauth_join and seize_leader on its own, each in its
    pinned number of sessions, and with all six at once (29 states, at
    most 45,000 sessions); the seize_leader and all-six transcripts are
    pinned too.  The model does not grow with the cluster: with 3, 5 and 7
    members it is exact for that membership and, letters mapped by rank,
    isomorphic to the 4-member model, in the same number of sessions.
2.  Seed extraction agrees with a brute-force first-visit walk on 1,000
    random pruned machines, yields exactly (reachable states - 1) seeds,
    and its instrumented cost grows linearly in |V|+|E| (R^2 > 0.99).
3.  With all six seeded vulnerability classes enabled, one campaign of at
    most 50,000 cases witnesses every detection criterion in under 10
    minutes, and a hand-written exploit trace per class triggers its
    finding in a single replay.
4.  With every vulnerability disabled, a 10,000-case campaign produces
    zero findings.
5.  Learn, fuzz, and replay produce byte-identical outputs across reruns
    with identical seeds, and 100 replays of a stored finding agree.  The
    reference learn's transcript and machine, and what one campaign against
    every vulnerability writes, also match what an earlier build wrote.
6.  Proxy guarantees hold over >= 1,000 randomized trials each: output
    words follow reply-tick order under adversarial receiver
    interleavings, keep-alive traffic never changes any output word, and a
    reset session answers exactly like a freshly spawned cluster.
7.  The message codec round-trips every letter of the enumerated input
    alphabet exactly, and random frame corruption always yields a clean
    decode error or a valid message, never a crash.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import time
from pathlib import Path

import numpy
import pytest

from statefuzz import learner
from statefuzz.alphabet import (
    APPROVED, BREQ, BRES, DATA_APP, DATA_TOPO, DEAD, KNOWN, NO_RESPONSE,
    OP_ADD, OP_REMOVE, PREQ, PRES, RCOMREQ, RCOMRES, RCONREQ, RCONRES,
    RJREQ, RJRES, RVREQ, RVRES, TERM_HIGHER, UNKNOWN, DecodeError, NodeRef,
    Symbol, decode, encode, enumerate_input_alphabet, frame_decode,
    frame_encode, input_domains,
)
from statefuzz.detector import (
    ALL_CRITERIA, CRIT_APP_CHANGE, CRIT_CONFIG_LEAK, CRIT_EXHAUSTION,
    CRIT_REACH_CHANGE, CRIT_STATE_CHANGE, Baseline, Detector,
)
from statefuzz.fuzzer import FuzzCase, replay_case, run_campaign
from statefuzz.learner import MembershipOracle, lstar_learn, wmethod_counterexample
from statefuzz.mealy import MealyMachine, PrunePolicy, isomorphic, minimize
from statefuzz.proxy import ClusterProxy, SessionContext
from statefuzz.sulsim import (
    ALL_VULNERABILITIES, ClusterConfig, ClusterHandle, default_alphabet,
    spawn_cluster,
)
from statefuzz.cli import main as cli_main

from helpers import counted_sdfs_extract, iterative_first_visit_walk, random_machine

MEMBERS = ("n1", "n2", "n3", "n4")
ALPHABET_CFG = default_alphabet(ClusterConfig(members=MEMBERS))
FULL_ALPHABET = tuple(enumerate_input_alphabet(ALPHABET_CFG))
DOMAINS = input_domains(ALPHABET_CFG)


def fresh_proxy(vulns=(), cluster=spawn_cluster, members=MEMBERS):
    ccfg = ClusterConfig(members=members, vulnerabilities=frozenset(vulns))
    handle = cluster(ccfg)
    return ClusterProxy(handle, default_alphabet(ccfg)), handle


def learn_machine(vulns=(), transcript=None, members=MEMBERS):
    proxy, _ = fresh_proxy(vulns, members=members)
    oracle = MembershipOracle(proxy.query, enumerate_input_alphabet(proxy.cfg),
                              votes=1, transcript=transcript)
    result = lstar_learn(oracle, lambda m: wmethod_counterexample(m, oracle, depth=1))
    return result.machine, oracle


def ground_truth_machine(vulns=(), members=MEMBERS):
    """Exhaustive product construction: breadth-first exploration of the
    cluster's session states, identified by their full internal fingerprint,
    querying the live system for every single transition."""
    proxy, handle = fresh_proxy(vulns, members=members)
    alphabet = tuple(enumerate_input_alphabet(proxy.cfg))
    proxy.reset_session()
    initial = handle.session_fingerprint()
    names = {initial: "g0"}
    order = [initial]
    transitions = {}
    frontier = [((), initial)]
    while frontier:
        access, fingerprint = frontier.pop(0)
        for letter in alphabet:
            word = access + (letter,)
            outputs = proxy.query(word)
            landed = handle.session_fingerprint()
            if landed not in names:
                names[landed] = f"g{len(order)}"
                order.append(landed)
                frontier.append((word, landed))
            transitions[(names[fingerprint], letter)] = (names[landed], outputs[-1])
    return MealyMachine(
        states=tuple(names[f] for f in order),
        initial="g0",
        input_alphabet=alphabet,
        transitions=transitions,
    )


@pytest.fixture(scope="session")
def reference_learn():
    started = time.monotonic()
    machine, oracle = learn_machine()
    return machine, oracle, time.monotonic() - started


# ---------------------------------------------------------------------------
# 1. Learner exactness on the reference cluster
# ---------------------------------------------------------------------------

def test_learner_exactness_on_reference_cluster(reference_learn):
    learned, oracle, elapsed = reference_learn
    truth = minimize(ground_truth_machine())
    assert isomorphic(learned, truth)
    assert len(learned.states) == len(truth.states) == 6
    assert elapsed < 60.0
    # L# with the suite asked in its seeded order learns it in 8,143
    # sessions.  6,834 of them are the final, passing suite, which costs the
    # same in any order; the rest is the tree and the failing suites.
    assert oracle.trials <= 8_500
    print(f"PASS learner exactness: {len(learned.states)} states isomorphic "
          f"to product-constructed ground truth in {oracle.trials} sessions, "
          f"{elapsed:.1f}s", flush=True)


# Sessions each single-flag learn takes.  The learn is deterministic, so a
# change to the learner or the suite shows here even when the model stays
# exact.  seize_leader's is the one whose greedy ADS gets stuck.
SINGLE_VULNERABILITY_SESSIONS = {
    "session_flood": 6_707, "clear_store": 8_273, "fake_link": 8_347,
    "fake_member": 10_879, "unauth_join": 16_125, "seize_leader": 19_394,
}
SEIZE_LEADER_TRANSCRIPT_SHA256 = (
    "e699b68b61a2a9ba959562815bac517ce4a71ef4d3601aece8bcfbd5edb1141a")


@pytest.mark.parametrize("vuln", ["session_flood", "clear_store", "fake_link",
                                  "fake_member", "unauth_join", "seize_leader"])
def test_learner_exactness_on_single_vulnerability_clusters(vuln):
    """Exactness beyond the reference: one vulnerability flag at a time."""
    started = time.monotonic()
    transcript = io.StringIO()
    learned, oracle = learn_machine((vuln,), transcript)
    elapsed = time.monotonic() - started
    truth = minimize(ground_truth_machine((vuln,)))
    assert isomorphic(learned, truth)
    assert oracle.trials == SINGLE_VULNERABILITY_SESSIONS[vuln]
    # The learn whose ADS gets stuck, pinned across builds.
    if vuln == "seize_leader":
        assert hashlib.sha256(transcript.getvalue().encode()).hexdigest() == (
            SEIZE_LEADER_TRANSCRIPT_SHA256)
    print(f"PASS learner exactness with {vuln}: {len(learned.states)} states in "
          f"{oracle.trials} sessions, {elapsed:.1f}s", flush=True)


def test_learner_exactness_on_all_vulnerabilities():
    """Exactness with every vulnerability flag at once: the largest model."""
    started = time.monotonic()
    transcript = io.StringIO()
    learned, oracle = learn_machine(ALL_VULNERABILITIES, transcript)
    elapsed = time.monotonic() - started
    truth = minimize(ground_truth_machine(ALL_VULNERABILITIES))
    assert isomorphic(learned, truth)
    assert len(learned.states) == len(truth.states) == 29
    # 27,841 of the sessions are the final, passing suite.  The peer gets
    # admitted here, so sessions meet the liveness timers; the transcript is
    # pinned across builds.
    assert oracle.trials == 39_622
    assert hashlib.sha256(transcript.getvalue().encode()).hexdigest() == (
        "2dbc4fe6fead0a5eee4c17d43e0a230fea8f58e6ea9cfcf4c77f019a7531c6bd")
    print(f"PASS learner exactness with every vulnerability: "
          f"{len(learned.states)} states in {oracle.trials} sessions, "
          f"{elapsed:.1f}s", flush=True)


@pytest.mark.parametrize("size", [3, 5, 7])
def test_model_does_not_grow_with_the_cluster(reference_learn, size):
    """The paper's "single and relatively simple state machine": the member
    count changes only the member names inside the letters, so with the
    letters mapped by rank the model is the 4-member one."""
    reference, reference_oracle, _ = reference_learn
    members = tuple(f"n{i}" for i in range(1, size + 1))
    started = time.monotonic()
    learned, oracle = learn_machine(members=members)
    elapsed = time.monotonic() - started
    assert isomorphic(learned, minimize(ground_truth_machine(members=members)))
    assert len(oracle.letters) == len(reference_oracle.letters) == 34
    rank = dict(zip(oracle.letters, reference_oracle.letters))
    renamed = MealyMachine(
        states=learned.states, initial=learned.initial,
        input_alphabet=tuple(rank[a] for a in learned.input_alphabet),
        transitions={(s, rank[a]): t for (s, a), t in learned.transitions.items()})
    assert isomorphic(renamed, reference)
    assert oracle.trials == reference_oracle.trials == 8_143
    print(f"PASS model size independent of membership: {size} members learn the "
          f"4-member model's {len(learned.states)} states in {oracle.trials} "
          f"sessions, {elapsed:.1f}s", flush=True)


# ---------------------------------------------------------------------------
# 2. Seed extraction vs. brute-force oracle, with linear cost
# ---------------------------------------------------------------------------

def traversal_reachable(machine):
    seen = {machine.initial}
    queue = [machine.initial]
    while queue:
        state = queue.pop()
        for _sym, target, _out in machine.traversal_edges(state):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def test_seed_extraction_matches_oracle_with_linear_cost():
    rng = random.Random(20240817)
    sizes = []
    costs = []
    for index in range(1000):
        machine = random_machine(rng).prune(PrunePolicy())
        if index % 3 == 0:  # also exercise additionally-masked machines
            keep = frozenset(k for k in machine.traversal_mask
                             if rng.random() < 0.8)
            machine = MealyMachine(
                states=machine.states, initial=machine.initial,
                input_alphabet=machine.input_alphabet,
                transitions=machine.transitions, traversal_mask=keep)
        seeds, ops = counted_sdfs_extract(machine)
        assert seeds == iterative_first_visit_walk(machine)
        reached = traversal_reachable(machine)
        assert len(seeds) == len(reached) - 1
        edges = sum(len(list(machine.traversal_edges(s))) for s in reached)
        sizes.append(len(machine.states) + edges)
        costs.append(ops)
    slope, intercept = numpy.polyfit(sizes, costs, 1)
    predicted = numpy.polyval([slope, intercept], sizes)
    residual = numpy.sum((numpy.array(costs) - predicted) ** 2)
    total = numpy.sum((numpy.array(costs) - numpy.mean(costs)) ** 2)
    r_squared = 1.0 - residual / total
    assert r_squared > 0.99
    print(f"PASS seed extraction: 1000 machines match the brute-force walk; "
          f"cost fit slope {slope:.3f}, R^2 {r_squared:.4f}", flush=True)


# ---------------------------------------------------------------------------
# 3. Six-class rediscovery
# ---------------------------------------------------------------------------

PRES_DEAD = Symbol(PRES, (NodeRef("n1", KNOWN), DEAD))
BREQ_FULL = Symbol(BREQ, (MEMBERS,))
RJREQ_SELF = Symbol(RJREQ, (NodeRef("dummy", UNKNOWN),))
RVREQ_SELF_HI = Symbol(RVREQ, (NodeRef("dummy", UNKNOWN), TERM_HIGHER))
RCOM_ADD = Symbol(RCOMREQ, (DATA_APP, OP_ADD))
RCOM_CLEAR = Symbol(RCOMREQ, (DATA_APP, OP_REMOVE))
RCOM_LINK = Symbol(RCOMREQ, (DATA_TOPO, OP_ADD))

EXPLOIT_TRACES = {
    "unauth_join": ((BREQ_FULL, RJREQ_SELF), CRIT_CONFIG_LEAK),
    "seize_leader": ((RVREQ_SELF_HI,), CRIT_STATE_CHANGE),
    "session_flood": ((RCOM_ADD,) * 40, CRIT_EXHAUSTION),
    "clear_store": ((RCOM_CLEAR,), CRIT_APP_CHANGE),
    "fake_member": ((PRES_DEAD,), CRIT_STATE_CHANGE),
    "fake_link": ((RCOM_LINK,), CRIT_REACH_CHANGE),
}


def test_campaign_rediscovers_all_six_seeded_attacks(reference_learn):
    # The campaign is driven by the model of the reference deployment: its
    # seeds walk the admission ladder, whose store-sync step carries the
    # command letters that argument swaps can turn into every store and
    # topology attack.  A model learned from the vulnerable deployment
    # itself extracts seeds that never need command letters (presence,
    # bootstrap and vote letters alone reach every one of its states), and
    # no mutation introduces a letter tag absent from the sequence.
    model, _, _ = reference_learn
    proxy, _ = fresh_proxy(ALL_VULNERABILITIES)
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    started = time.monotonic()
    report = run_campaign(
        proxy, model.prune(PrunePolicy()), detector,
        rng_seed=7, max_cases=50_000, domains=DOMAINS,
        until_criteria=ALL_CRITERIA)
    elapsed = time.monotonic() - started
    assert set(ALL_CRITERIA) <= report.criteria_found()
    assert report.cases_run <= 50_000
    assert elapsed < 600.0

    for flag, (trace, criterion) in EXPLOIT_TRACES.items():
        trace_proxy, _ = fresh_proxy([flag])
        trace_proxy.reset_session()
        trace_detector = Detector(Baseline.capture(trace_proxy))
        case = FuzzCase(case_id=0, seed_index=0, base=trace, mutations=(),
                        word=trace)
        _, finding = replay_case(trace_proxy, trace_detector, case)
        assert finding is not None and criterion in finding.criteria, flag
    print(f"PASS six-class rediscovery: all criteria witnessed in "
          f"{report.cases_run} cases ({elapsed:.1f}s); every exploit trace "
          f"reproduces in one replay", flush=True)


# ---------------------------------------------------------------------------
# 4. False-positive bound on the hardened cluster
# ---------------------------------------------------------------------------

def test_hardened_cluster_produces_zero_findings(reference_learn):
    learned, _, _ = reference_learn
    proxy, _ = fresh_proxy()
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    report = run_campaign(proxy, learned.prune(PrunePolicy()), detector,
                          rng_seed=11, max_cases=10_000, domains=DOMAINS)
    assert report.cases_run == 10_000
    assert report.findings == ()
    assert report.errors == ()
    print("PASS false-positive bound: 10000 hardened-cluster cases, "
          "0 findings", flush=True)


# ---------------------------------------------------------------------------
# 5. End-to-end determinism
# ---------------------------------------------------------------------------

def test_end_to_end_determinism(tmp_path, capsys):
    learn_outputs = []
    for name in ("learn-a", "learn-b"):
        out = tmp_path / name
        assert cli_main(["learn", "--out-dir", str(out)]) == 0
        learn_outputs.append({f: (out / f).read_bytes()
                              for f in ("machine.json", "machine.dot",
                                        "transcript.jsonl")})
    assert learn_outputs[0] == learn_outputs[1]
    machine_file = str(tmp_path / "learn-a" / "machine.json")

    fuzz_outputs = []
    for name in ("fuzz-a", "fuzz-b"):
        out = tmp_path / name
        assert cli_main(["fuzz", machine_file, "--vulns", "all",
                         "--seed", "7", "--budget", "2000",
                         "--out-dir", str(out)]) == 0
        fuzz_outputs.append((out / "report.json").read_bytes())
    assert fuzz_outputs[0] == fuzz_outputs[1]
    case_files = sorted((tmp_path / "fuzz-a").glob("case-*.json"))
    assert case_files, "determinism check needs at least one stored finding"

    case_doc = json.loads(case_files[0].read_text())
    case = FuzzCase.from_obj(case_doc)
    proxy, _ = fresh_proxy(ALL_VULNERABILITIES)
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    replays = set()
    for _ in range(100):
        outputs, finding = replay_case(proxy, detector, case)
        replays.add((outputs, finding.signature() if finding else None))
    assert len(replays) == 1

    capsys.readouterr()
    replay_stdout = []
    for _ in range(2):
        assert cli_main(["replay", str(case_files[0]), "--vulns", "all"]) == 0
        replay_stdout.append(capsys.readouterr().out)
    assert replay_stdout[0] == replay_stdout[1]
    print("PASS determinism: learn/fuzz/replay outputs byte-identical "
          "across reruns; 100 replays of one finding agree", flush=True)


# Recorded from an earlier build.  Two runs of one build cannot show that a
# change altered what ``learn`` writes; these pins can.
LEARN_SEED1_TRANSCRIPT_SHA256 = (
    "d6a360014e64816791bda34acfbc80bba720affaf190837d45ed78ef1e715202")
REFERENCE_MACHINE = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "reference" / "machine.json")


def test_learn_artifacts_pinned_across_builds(tmp_path):
    out = tmp_path / "learn"
    assert cli_main(["learn", "--seed", "1", "--out-dir", str(out)]) == 0
    transcript = (out / "transcript.jsonl").read_bytes()
    assert hashlib.sha256(transcript).hexdigest() == LEARN_SEED1_TRANSCRIPT_SHA256
    assert (out / "machine.json").read_bytes() == REFERENCE_MACHINE.read_bytes()
    print("PASS pinned artifacts: learn --seed 1 transcript digest and "
          "machine.json match the earlier build", flush=True)


def test_reference_learn_tree_keeps_a_dict_only_where_it_branches(tmp_path, monkeypatch):
    # The tree's layout as counts, which do not drift as RSS readings do:
    # one dict for each of the 575 branching nodes of the reference learn's
    # tree, and none for its 19,571 nodes with one child or 7,411 leaves.
    trees = []
    learn = learner.lstar_learn

    def recording(oracle, *args, **kwargs):
        trees.append(oracle.tree)
        return learn(oracle, *args, **kwargs)

    monkeypatch.setattr(learner, "lstar_learn", recording)
    assert cli_main(["learn", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    (tree,) = trees
    assert len(tree) == 27_557
    fanout = [len(tree.children(node)) for node in range(len(tree))]
    branching = {node for node, n in enumerate(fanout) if n > 1}
    assert (len(branching), fanout.count(1), fanout.count(0)) == (575, 19_571, 7_411)
    assert sorted(tree._branches) == sorted(branching)


# Recorded from an earlier build, as the learn pin above.  The campaign asks
# 2,000 mutated words of the cluster with every vulnerability and writes
# what the detector finds, so this pin reaches reply decoding on long,
# repetitive words, the detector and the case files, where no learn pin goes.
FUZZ_SEED7_OUTPUT_SHA256 = (
    "9749993c8dc8dff3addf9c80fa5987f6625c579211be96a6b846c5c926543bc8")


def test_fuzz_artifacts_pinned_across_builds(tmp_path, capsys):
    out = tmp_path / "fuzz"
    capsys.readouterr()
    assert cli_main(["fuzz", str(REFERENCE_MACHINE), "--vulns", "all", "--seed", "7",
                     "--budget", "2000", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    cases = sorted(out.glob("case-*.json"))
    assert len(cases) == 1_228 and len(list(out.iterdir())) == 1_229
    sink = hashlib.sha256(stdout.encode())
    for path in [out / "report.json", *cases]:
        sink.update(path.name.encode() + b"\0" + path.read_bytes())
    assert sink.hexdigest() == FUZZ_SEED7_OUTPUT_SHA256
    print("PASS pinned artifacts: fuzz --vulns all --seed 7 writes the "
          "earlier build's 1,229 files and stdout", flush=True)


# ---------------------------------------------------------------------------
# 6. Proxy ordering, keep-alive transparency, reset equivalence
# ---------------------------------------------------------------------------

class WindowStub:
    """Transport stub replaying one prepared reply window per exchange."""

    window_ticks = 5

    def __init__(self, windows):
        self.windows = list(windows)
        self.position = 0

    def reset(self):
        self.position = 0
        return 0

    def exchange(self, _msg):
        window = self.windows[self.position]
        self.position += 1
        return window

    run = ClusterHandle.run  # one exchange at a time, as the simulator runs

    def observe(self):
        return type("Obs", (), {"term": 0})()


OUTPUT_POOL = (
    Symbol(RVRES, (APPROVED,)),
    Symbol(RCOMRES),
    Symbol(RJRES),
    Symbol(RCONRES),
    Symbol(BRES, (("n1", "n2"),)),
)


def test_proxy_ordering_transparency_and_reset_equivalence():
    rng = random.Random(424242)
    builder = SessionContext(cluster_id="sdwan", self_id="dummy")

    # (a) Reply-tick order under adversarial receiver interleavings.
    for _ in range(1000):
        count = rng.randint(0, 6)
        stamps = rng.sample(range(100), count)
        window = [(ts, encode(rng.choice(OUTPUT_POOL), builder))
                  for ts in stamps]
        shuffled = list(window)
        rng.shuffle(shuffled)
        proxy = ClusterProxy(WindowStub([shuffled]), ALPHABET_CFG)
        word = proxy.query((Symbol(RCONREQ),))[0]
        expected = tuple(
            decode(msg, ALPHABET_CFG)
            for _, msg in sorted(window, key=lambda pair: pair[0]))
        assert word == (expected or (NO_RESPONSE,))

        # Interleaving independence holds for tied timestamps too.
        tied = [(ts // 2, msg) for ts, msg in window]
        words = set()
        for _ in range(3):
            rng.shuffle(tied)
            proxy = ClusterProxy(WindowStub([list(tied)]), ALPHABET_CFG)
            words.add(proxy.query((Symbol(RCONREQ),))[0])
        assert len(words) == 1

    # (b) Keep-alive transparency on the live cluster: a cluster that sends
    # keep-alives and one that never probes answer every query with the same
    # output words.
    class SilentCluster(ClusterHandle):
        def _swim_round(self):
            pass

    loud, _ = fresh_proxy(["unauth_join"])
    quiet, _ = fresh_proxy(["unauth_join"], cluster=SilentCluster)
    letters = [Symbol(PREQ, (NodeRef("dummy", UNKNOWN),)),
               BREQ_FULL, RJREQ_SELF, RCOM_ADD,
               Symbol(RVREQ, (NodeRef("n1", KNOWN), TERM_HIGHER))]
    for _ in range(1000):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        assert loud.query(word) == quiet.query(word)
    answered = loud.keepalives_answered
    assert quiet.keepalives_answered == 0 < answered

    # (c) Reset equivalence against freshly spawned clusters.
    seasoned, _ = fresh_proxy()
    for _ in range(1000):
        word = tuple(rng.choice(FULL_ALPHABET) for _ in range(rng.randint(1, 4)))
        fresh, _ = fresh_proxy()
        assert seasoned.query(word) == fresh.query(word)
    print("PASS proxy properties: 1000 interleaving trials, 1000 keep-alive "
          f"transparency trials ({answered} keep-alives answered), "
          "1000 reset-equivalence trials", flush=True)


# ---------------------------------------------------------------------------
# 7. Codec round-trip and corruption robustness
# ---------------------------------------------------------------------------

def test_codec_roundtrip_and_corruption_robustness():
    ctx = SessionContext(cluster_id="sdwan", self_id="dummy")
    ctx.observed_leader_term = 3
    frames = []
    for sym in FULL_ALPHABET:
        msg = encode(sym, ctx)
        data = frame_encode(msg)
        frames.append(data)
        recovered = frame_decode(data)
        assert recovered == msg
        assert decode(recovered, ALPHABET_CFG) == sym

    rng = random.Random(7777)
    corruptions = 0
    for _ in range(10_000):
        base = bytearray(rng.choice(frames))
        op = rng.randrange(3)
        if op == 0:
            for _ in range(rng.randint(1, 8)):
                base[rng.randrange(len(base))] = rng.randrange(256)
        elif op == 1:
            del base[rng.randrange(len(base)):]
        else:
            base = bytearray(rng.randbytes(rng.randint(0, 64)))
        try:
            message = frame_decode(bytes(base))
            decode(message, ALPHABET_CFG)
        except DecodeError:
            pass  # the contract: clean decode error, never a crash
        corruptions += 1
    assert corruptions == 10_000
    print(f"PASS codec: {len(FULL_ALPHABET)} letters round-trip exactly; "
          f"{corruptions} corrupted frames all handled cleanly", flush=True)
