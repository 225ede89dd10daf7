"""Command-line front end: learn a cluster model, fuzz against it, replay
stored findings.

Subcommands
-----------
learn
    Infer the cluster's protocol state machine; writes ``machine.json``,
    ``machine.dot``, and ``transcript.jsonl`` into the output directory.
fuzz
    Run a mutation campaign against a stored machine; writes ``report.json``
    plus one case file per finding and prints a per-criterion summary.
replay
    Re-execute one stored case and check that its recorded verdict
    reproduces.

All outputs are deterministic for fixed inputs and seeds; nothing ever
writes back into an input file.  Every output but the streamed transcript
is written atomically, so none is ever left half written.  The
``STATEFUZZ_LOG`` environment variable (debug/info/warning/error) controls
diagnostic verbosity on stderr.

Exit codes: 0 success; 1 replay verdict mismatch or --fail-on-finding
triggered; 2 bad usage, configuration, or input files; 3 learning budget
exhausted; 4 nondeterministic target; 5 transport failure while learning;
130 interrupted (Ctrl-C).  Exits 3, 4, 5 and 130 of ``learn`` save
``machine-partial.json`` when a hypothesis exists; exit 130 of ``fuzz``
saves ``report-partial.json`` and the case files of the finished cases.
Those exits 130 come from an interrupt in the learning or campaign loop;
one anywhere else, before it or while the outputs are written, prints
``interrupted`` and saves nothing more.  ``machine.json`` is written after
``machine.dot``, and a report after its case files, so either exists only
when its whole set does.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .alphabet import (
    NORESPONSE, TAG_ORDER, ConfigError, _is_int, _is_list, _is_str,
    enumerate_input_alphabet, input_domains, symbol_label, word_from_obj,
)
from .detector import ALL_CRITERIA, Baseline, Detector, Finding
from .fuzzer import (
    ALL_MUTATIONS, MUT_DUPLICATE, MUT_REMOVE, CampaignInterrupted,
    CampaignReport, FuzzCase, replay_case, run_campaign, sdfs_extract,
)
from .mealy import MealyMachine, PrunePolicy
from .proxy import ClusterProxy, TransportError
from .sulsim import (
    ALL_VULNERABILITIES, ClusterConfig, default_alphabet, spawn_cluster,
)

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET_EXHAUSTED = 3
EXIT_NONDETERMINISM = 4
EXIT_TRANSPORT = 5
EXIT_INTERRUPTED = 130

log = logging.getLogger("statefuzz")


class ConfigFileError(ValueError):
    """Unusable run configuration or input file; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_INPUT_TAGS = tuple(tag for tag in TAG_ORDER if tag != NORESPONSE)


def _weights(value) -> bool:
    # The campaign draws with random.choices, which needs a positive, finite
    # total at every position; duplicate and remove are the only actions
    # open at every position.
    if not (isinstance(value, dict) and set(value) == set(ALL_MUTATIONS)
            and all(isinstance(w, (int, float)) and not isinstance(w, bool)
                    and 0 <= w <= sys.float_info.max for w in value.values())):
        return False
    return (value[MUT_DUPLICATE] + value[MUT_REMOVE] > 0
            and math.isfinite(sum(map(float, value.values()))))


_NAME = ("a non-empty string", lambda v: _is_str(v) and v != "")
_AT_LEAST_1 = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_INT = ("an integer", _is_int)
_STRINGS = ("a list of strings", lambda v: _is_list(v, _is_str))

# section -> key -> (what the value must be, check) for every setting of the
# run configuration.
SETTINGS = {
    "cluster": {
        "members": _STRINGS,
        "cluster_id": ("a string", _is_str),
        "heartbeat_threshold": _INT,
        "election_timeout_range": (
            "two integers", lambda v: _is_list(v, _is_int) and len(v) == 2),
        "vulnerabilities": (
            f"a list of names from {sorted(ALL_VULNERABILITIES)}",
            lambda v: _is_list(v, _is_str) and set(v) <= ALL_VULNERABILITIES),
        "seed": _INT,
        "apps": _STRINGS,
    },
    "alphabet": {"self_id": _NAME, "unknown_id": _NAME},
    "learner": {
        "votes": ("a positive odd integer",
                  lambda v: _is_int(v) and v >= 1 and v % 2 == 1),
        "eq_depth": _AT_LEAST_1,
        "max_rounds": _AT_LEAST_1,
        "max_queries": ("an integer >= 0 or null",
                        lambda v: v is None or _is_int(v) and v >= 0),
        "letters": ("a list of letters or null",
                    lambda v: v is None or isinstance(v, list)),
    },
    "fuzz": {
        "budget": _AT_LEAST_1,
        "seed": _INT,
        "weights": (f"null or an object giving each of {list(ALL_MUTATIONS)} "
                    f"a non-negative number, with {MUT_DUPLICATE} + {MUT_REMOVE} > 0 "
                    "and a finite total",
                    lambda v: v is None or _weights(v)),
        "prune_others": (f"a list of input tags from {list(_INPUT_TAGS)}",
                         lambda v: isinstance(v, list)
                         and all(tag in _INPUT_TAGS for tag in v)),
    },
}

DEFAULTS = {
    "cluster": ClusterConfig().to_dict(),
    "alphabet": {"self_id": "dummy", "unknown_id": "nz"},
    "learner": {"votes": 1, "eq_depth": 1, "max_rounds": 100,
                "max_queries": None, "letters": None},
    "fuzz": {"budget": 2000, "seed": 42, "weights": None, "prune_others": []},
}


def load_config(path: str | None) -> dict:
    """Parse the run configuration: check every given setting against
    :data:`SETTINGS` and fill the rest from :data:`DEFAULTS`.

    A key that a section does not define is an error, so a misspelt setting
    cannot silently fall back to its default."""
    if path is None:
        doc = {}
    else:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigFileError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigFileError("config root must be a JSON object")
    unknown = set(doc) - {"schema_version", *SETTINGS}
    if unknown:
        raise ConfigFileError(f"unknown config sections: {sorted(unknown)}")
    config = {}
    for section, rules in SETTINGS.items():
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ConfigFileError(f"config section {section!r} must be an object")
        unknown = set(given) - set(rules)
        if unknown:
            raise ConfigFileError(f"bad {section} section: "
                                  f"unknown {section} settings: {sorted(unknown)}")
        for key, value in given.items():
            what, ok = rules[key]
            if not ok(value):
                raise ConfigFileError(f"bad {section} section: "
                                      f"{section}.{key} must be {what}, not {value!r}")
        config[section] = {**DEFAULTS[section], **given}
    return config


def parse_vulns(text: str) -> frozenset:
    if text in ("", "none"):
        return frozenset()
    if text == "all":
        return ALL_VULNERABILITIES
    names = frozenset(part.strip() for part in text.split(",") if part.strip())
    bad = names - ALL_VULNERABILITIES
    if bad:
        raise ConfigFileError(
            f"unknown vulnerability flags {sorted(bad)}; "
            f"known: {sorted(ALL_VULNERABILITIES)}")
    return names


def cluster_from_config(config: dict, args) -> ClusterConfig:
    kw = {key: tuple(value) if isinstance(value, list) else value
          for key, value in config["cluster"].items()}
    kw["vulnerabilities"] = (frozenset(kw["vulnerabilities"]) if args.vulns is None
                             else parse_vulns(args.vulns))
    if args.command == "learn" and args.seed is not None:
        kw["seed"] = args.seed
    try:
        return ClusterConfig(**kw)
    except ConfigError as exc:
        raise ConfigFileError(f"bad cluster section: {exc}") from exc


def alphabet_from(ccfg: ClusterConfig, section: dict):
    try:
        return default_alphabet(ccfg, self_id=section["self_id"],
                                unknown_id=section["unknown_id"])
    except ConfigError as exc:
        raise ConfigFileError(f"bad alphabet section: {exc}") from exc


def outside_alphabet(letters, acfg) -> list:
    """Labels of the ``letters`` that are not input letters of ``acfg``."""
    alphabet = set(enumerate_input_alphabet(acfg))
    return sorted({symbol_label(s) for s in letters if s not in alphabet})


def learner_letters(lcfg: dict, acfg) -> tuple:
    """The letters to learn over: ``learner.letters``, or the whole input
    alphabet when it is empty."""
    if not lcfg["letters"]:
        return tuple(enumerate_input_alphabet(acfg))
    try:
        letters = tuple(word_from_obj(lcfg["letters"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigFileError(f"bad learner.letters: {exc}") from exc
    stray = outside_alphabet(letters, acfg)
    if stray:
        raise ConfigFileError(f"learner.letters outside the input alphabet: {stray}")
    if len(set(letters)) != len(letters):
        raise ConfigFileError("learner.letters names a letter twice")
    return letters


def write_artifact(path: Path, text: str):
    """Write ``text`` to ``path`` atomically: into a temporary file in the
    same directory, which then replaces ``path``.  A write that fails or is
    interrupted leaves ``path`` as it was and no temporary file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def cmd_learn(args) -> int:
    # Imported here, not at module load: fuzz and replay never learn.
    from .learner import (
        MembershipOracle, NondeterminismError, PartialResultError,
        lstar_learn, wmethod_counterexample,
    )

    config = load_config(args.config)
    lcfg = config["learner"]
    ccfg = cluster_from_config(config, args)
    acfg = alphabet_from(ccfg, config["alphabet"])
    letters = learner_letters(lcfg, acfg)
    if args.budget is not None and args.budget < 0:
        raise ConfigFileError(f"--budget must be >= 0, not {args.budget}")
    budget = args.budget if args.budget is not None else lcfg["max_queries"]
    proxy = ClusterProxy(spawn_cluster(ccfg), acfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("learning over %d letters (votes=%s, depth=%s, budget=%s)",
             len(letters), lcfg["votes"], lcfg["eq_depth"], budget)
    with open(out_dir / "transcript.jsonl", "w", encoding="utf-8") as transcript:
        oracle = MembershipOracle(proxy.query, letters, votes=lcfg["votes"],
                                  max_trials=budget, transcript=transcript)
        try:
            result = lstar_learn(
                oracle,
                lambda m: wmethod_counterexample(m, oracle, depth=lcfg["eq_depth"]),
                max_rounds=lcfg["max_rounds"])
        except (PartialResultError, NondeterminismError) as exc:
            if exc.hypothesis is not None:
                write_artifact(out_dir / "machine-partial.json",
                               exc.hypothesis.to_json())
            if isinstance(exc, NondeterminismError):
                print(f"target answered nondeterministically: {exc}", file=sys.stderr)
                return EXIT_NONDETERMINISM
            print(f"learning stopped early: {exc}", file=sys.stderr)
            if isinstance(exc.__cause__, TransportError):
                return EXIT_TRANSPORT
            if isinstance(exc.__cause__, KeyboardInterrupt):
                return EXIT_INTERRUPTED
            return EXIT_BUDGET_EXHAUSTED
    machine = result.machine
    # machine.json last, so that it exists only once machine.dot does.
    write_artifact(out_dir / "machine.dot", machine.to_dot())
    write_artifact(out_dir / "machine.json", machine.to_json())
    print(f"learned {len(machine.states)} states in {result.rounds} rounds "
          f"({oracle.trials} sessions); wrote {out_dir / 'machine.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def load_machine(path: str) -> MealyMachine:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read machine {path}: {exc}") from exc
    try:
        return MealyMachine.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigFileError(f"invalid machine file {path}: {exc}") from exc


def print_summary(report: CampaignReport):
    counts = {criterion: 0 for criterion in ALL_CRITERIA}
    for _, finding in report.findings:
        for criterion in finding.criteria:
            counts[criterion] += 1
    width = max(len(criterion) for criterion in counts)
    for criterion in ALL_CRITERIA:
        print(f"{criterion:<{width}}  {counts[criterion]}")
    print(f"cases {report.cases_run}  findings {len(report.findings)}  "
          f"errors {len(report.errors)}")


def case_document(origin: str, case: FuzzCase, finding: Finding) -> str:
    doc = {"schema_version": 1, "kind": "fuzz-case", "origin": origin,
           **case.to_obj(), **finding.to_dict()}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def cmd_fuzz(args) -> int:
    config = load_config(args.config)
    fcfg = config["fuzz"]
    if args.budget is not None and args.budget < 1:
        raise ConfigFileError(f"--budget must be >= 1, not {args.budget}")
    machine = load_machine(args.machine)
    ccfg = cluster_from_config(config, args)
    acfg = alphabet_from(ccfg, config["alphabet"])
    stray = outside_alphabet(machine.input_alphabet, acfg)
    if stray:
        raise ConfigFileError(
            f"machine {args.machine} has letters outside the input alphabet of "
            f"this configuration: {stray}")
    seed = args.seed if args.seed is not None else fcfg["seed"]
    budget = args.budget if args.budget is not None else fcfg["budget"]
    pruned = machine.prune(PrunePolicy(others_labels=frozenset(fcfg["prune_others"])))
    if not sdfs_extract(pruned):
        raise ConfigFileError("campaign cannot run: model yields no feasible sequences to mutate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    proxy = ClusterProxy(spawn_cluster(ccfg), acfg)
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    log.info("campaign: %d cases, seed %d", budget, seed)
    try:
        report = run_campaign(proxy, pruned, detector, rng_seed=seed, max_cases=budget,
                              domains=input_domains(acfg), weights=fcfg["weights"])
        name = "report.json"
    except CampaignInterrupted as exc:
        report, name = exc.report, "report-partial.json"
    # The report last, so that it exists only once all its case files do.
    for case, finding in report.findings:
        write_artifact(out_dir / f"case-{case.case_id:05d}.json",
                       case_document(report.origin, case, finding))
    write_artifact(out_dir / name, report.to_json())
    if name != "report.json":
        print(f"fuzzing interrupted after {report.cases_run} cases; "
              f"wrote {out_dir / name}", file=sys.stderr)
        return EXIT_INTERRUPTED
    print_summary(report)
    if args.fail_on_finding and report.findings:
        return EXIT_VERDICT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def cmd_replay(args) -> int:
    config = load_config(args.config)
    try:
        doc = json.loads(Path(args.case).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigFileError(f"cannot read case {args.case}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"case {args.case} is not valid JSON: {exc}") from exc
    try:
        case = FuzzCase.from_obj(doc)
        stored = Finding.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigFileError(f"case {args.case} is malformed: {exc}") from exc

    ccfg = cluster_from_config(config, args)
    acfg = alphabet_from(ccfg, config["alphabet"])
    swapped = [m.symbol for m in case.mutations if m.symbol is not None]
    stray = outside_alphabet((*case.base, *case.word, *swapped), acfg)
    if stray:
        raise ConfigFileError(
            f"case {args.case} has letters outside the input alphabet: {stray}")
    proxy = ClusterProxy(spawn_cluster(ccfg), acfg)
    proxy.reset_session()
    detector = Detector(Baseline.capture(proxy))
    if "origin" in doc and doc["origin"] != detector.baseline.origin:
        raise ConfigFileError(
            "case was recorded against a different cluster configuration "
            f"(origin {doc['origin']} vs {detector.baseline.origin})")
    try:
        _, finding = replay_case(proxy, detector, case)
    except ValueError as exc:
        raise ConfigFileError(f"case cannot be replayed: {exc}") from exc

    replayed = finding if finding is not None else Finding(criteria=())
    reproduced = replayed.signature() == stored.signature()
    print(json.dumps({
        "schema_version": 1,
        "kind": "replay-report",
        "case_id": case.case_id,
        "recorded": stored.to_dict(),
        "replayed": replayed.to_dict(),
        "reproduced": reproduced,
    }, indent=1, sort_keys=True))
    return EXIT_OK if reproduced else EXIT_VERDICT_MISMATCH


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statefuzz",
        description="Protocol-state fuzzing for distributed controller "
                    "clusters: learn, fuzz, replay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="JSON run configuration; defaults apply when omitted")
        p.add_argument("--vulns", metavar="LIST",
                       help="override seeded vulnerability flags: comma list, "
                            "'all', or 'none'")

    learn = sub.add_parser("learn", help="infer the protocol state machine")
    common(learn)
    learn.add_argument("--seed", type=int, help="override the cluster seed")
    learn.add_argument("--budget", type=int,
                       help="maximum number of query sessions")
    learn.add_argument("--out-dir", default="out", metavar="DIR")

    fuzz = sub.add_parser("fuzz", help="mutation campaign against a machine")
    fuzz.add_argument("machine", help="machine JSON written by learn")
    common(fuzz)
    fuzz.add_argument("--seed", type=int, help="override the campaign seed")
    fuzz.add_argument("--budget", type=int, help="total campaign cases")
    fuzz.add_argument("--out-dir", default="out", metavar="DIR")
    fuzz.add_argument("--fail-on-finding", action="store_true",
                      help="exit 1 when the campaign reports any finding")

    replay = sub.add_parser("replay", help="re-run one stored case")
    replay.add_argument("case", help="case JSON written by fuzz")
    common(replay)
    return parser


def setup_logging():
    name = os.environ.get("STATEFUZZ_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    setup_logging()
    args = build_parser().parse_args(argv)
    handler = {"learn": cmd_learn, "fuzz": cmd_fuzz, "replay": cmd_replay}[args.command]
    try:
        return handler(args)
    except ConfigFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # outside the learn or campaign loop: nothing more to save
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
