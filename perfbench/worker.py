"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, passing the monotonic
time at which it started the process; set-up time runs from that moment to
the first timed call.  The script prints one JSON object as its last line:
times, peak RSS, the work counters read from the artifacts, the output
checks and, with ``--trace``, the per-layer metrics.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload fuzz-vuln --seed 1 \\
        --spawned-at 0 --out-dir .perfbench_work/x [--trace] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_MODEL = HERE / "reference" / "machine.json"

# Workload sizes.  fuzz-vuln needs at least MIN_CASE_FILES findings so that
# the replay p99 has ten samples beyond it; about 60% of cases are findings.
VULN_BUDGET = 2400
MIN_CASE_FILES = 1000
TCP_BUDGET = 400

# Raw spans a traced repetition hands back for inspection, from the start.
KEPT_SPANS = 5000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("learn-ref", "fuzz-vuln", "fuzz-tcp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap every public statefuzz function in a span")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    return parser.parse_args(argv)


class Rep:
    """Results of one repetition, filled in as the workload runs."""

    def __init__(self):
        self.setup_s = None
        self.wall_s = None
        self.rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.counters = {}
        self.extra = {}

    def check(self, name: str, ok: bool, weight: int = 1):
        """Record a check; a failed one adds ``weight`` failed operations."""
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += weight


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cli_call(main, argv) -> tuple:
    """Run ``statefuzz.cli.main(argv)`` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def artifact_counters(out_dir: Path) -> dict:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {"artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files)}


def report_counters(report: dict, criteria) -> dict:
    """Deterministic counters of a campaign ``report.json``."""
    stats = report["stats"]
    counters = {
        "sessions": stats["resets"],
        "symbols": stats["symbols_sent"],
        "virtual_ticks": stats["virtual_ticks"],
        "cases": report["cases_run"],
        "findings": len(report["findings"]),
        "errors": len(report["errors"]),
    }
    for criterion in criteria:
        hits = [f["case_id"] for f in report["findings"] if criterion in f["criteria"]]
        counters[f"findings.{criterion}"] = len(hits)
        counters[f"first_hit_case.{criterion}"] = hits[0] if hits else -1
    return counters


# ---------------------------------------------------------------------------
# Workloads.  Each is a generator: it does its set-up and yields right
# before the first timed call, runs the timed operation and yields again,
# then checks the outputs and reads the work counters.
# ---------------------------------------------------------------------------

def learn_ref(rep: Rep, seed: int, out_dir: Path):
    from statefuzz import cli

    yield
    start = time.perf_counter()
    code, stdout = cli_call(cli.main, ["learn", "--seed", str(seed),
                                       "--out-dir", str(out_dir)])
    rep.wall_s = time.perf_counter() - start
    rep.rss_mb = peak_rss_mb()
    yield
    rep.attempted = 1
    rep.check("learn exit code 0", code == 0)
    machine = out_dir / "machine.json"
    rep.check("machine.json matches the reference model",
              machine.is_file() and machine.read_bytes() == REFERENCE_MODEL.read_bytes())
    sessions = symbols = queries = rounds = 0
    with open(out_dir / "transcript.jsonl", encoding="utf-8") as transcript:
        for line in transcript:
            event = json.loads(line)
            if event["event"] == "query":
                queries += 1
                sessions += event["trials"]
                symbols += event["trials"] * len(event["word"])
            elif event["event"] == "hypothesis":
                rounds += 1
    rep.check("transcript sessions match the learn summary",
              f"({sessions} sessions)" in stdout)
    rep.counters = {"sessions": sessions, "symbols": symbols,
                    "resolved_queries": queries, "rounds": rounds,
                    **artifact_counters(out_dir)}


def fuzz_vuln(rep: Rep, seed: int, out_dir: Path):
    from statefuzz import cli
    from statefuzz.detector import ALL_CRITERIA

    model = str(REFERENCE_MODEL)
    yield
    start = time.perf_counter()
    code, _ = cli_call(cli.main, ["fuzz", model, "--vulns", "all", "--shards", "2",
                                  "--seed", str(seed), "--budget", str(VULN_BUDGET),
                                  "--out-dir", str(out_dir)])
    fuzz_s = time.perf_counter() - start
    cases = sorted(out_dir.glob("case-*.json"))
    latencies = []
    unreproduced = 0
    for case in cases:
        call_start = time.perf_counter()
        replay_code, stdout = cli_call(cli.main, ["replay", str(case), "--vulns", "all"])
        latencies.append(time.perf_counter() - call_start)
        if replay_code != 0 or not json.loads(stdout)["reproduced"]:
            unreproduced += 1
    rep.wall_s = time.perf_counter() - start
    rep.rss_mb = peak_rss_mb()
    yield
    rep.check("fuzz exit code 0", code == 0)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    counters = report_counters(report, ALL_CRITERIA)
    rep.attempted = counters["cases"] + len(cases)
    rep.check("zero campaign errors", counters["errors"] == 0, weight=counters["errors"])
    rep.check("every case replays with reproduced: true", unreproduced == 0,
              weight=unreproduced)
    rep.check(f"at least {MIN_CASE_FILES} case files", len(cases) >= MIN_CASE_FILES)
    rep.check("one case file per finding", len(cases) == counters["findings"])
    rep.counters = {**counters, **artifact_counters(out_dir)}
    rep.extra.update({"cases_per_s": counters["cases"] / fuzz_s, "fuzz_s": fuzz_s,
                      "replay_s": latencies})


def fuzz_tcp(rep: Rep, seed: int, out_dir: Path):
    from statefuzz import cli
    from statefuzz.alphabet import input_domains
    from statefuzz.detector import ALL_CRITERIA, Baseline, Detector
    from statefuzz.fuzzer import run_campaign
    from statefuzz.mealy import MealyMachine, PrunePolicy
    from statefuzz.proxy import ClusterProxy, ClusterServer, TcpTransport
    from statefuzz.sulsim import ClusterConfig, default_alphabet, spawn_cluster

    # The same campaign `statefuzz fuzz` runs with its default configuration,
    # served over a loopback socket instead of in process.
    machine = MealyMachine.from_json(REFERENCE_MODEL.read_text(encoding="utf-8"))
    pruned = machine.prune(PrunePolicy())
    ccfg = ClusterConfig()
    acfg = default_alphabet(ccfg, self_id="dummy", unknown_id="nz")
    report_path = out_dir / "report.json"
    with ClusterServer(spawn_cluster(ccfg)) as server, \
            TcpTransport(server.address) as transport:
        proxy = ClusterProxy(transport, acfg)
        yield
        start = time.perf_counter()
        proxy.reset_session()
        detector = Detector(Baseline.capture(proxy))
        report = run_campaign(proxy, pruned, detector, rng_seed=seed,
                              max_cases=TCP_BUDGET, domains=input_domains(acfg))
        report_path.write_text(report.to_json(), encoding="utf-8")
        rep.wall_s = time.perf_counter() - start
    rep.rss_mb = peak_rss_mb()
    yield

    doc = json.loads(report_path.read_text(encoding="utf-8"))
    counters = report_counters(doc, ALL_CRITERIA)
    rep.attempted = counters["cases"]
    rep.check("zero campaign errors", counters["errors"] == 0, weight=counters["errors"])
    rep.check("zero findings on the hardened cluster", counters["findings"] == 0,
              weight=counters["findings"])
    rep.counters = {**counters, **artifact_counters(out_dir)}
    in_process = out_dir / "in-process"
    code, _ = cli_call(cli.main, ["fuzz", str(REFERENCE_MODEL), "--seed", str(seed),
                                  "--budget", str(TCP_BUDGET), "--out-dir", str(in_process)])
    rep.check("report.json equals the in-process campaign's byte for byte",
              code == 0 and (in_process / "report.json").read_bytes()
              == report_path.read_bytes())
    rep.extra["cases_per_s"] = counters["cases"] / rep.wall_s


WORKLOADS = {"learn-ref": learn_ref, "fuzz-vuln": fuzz_vuln, "fuzz-tcp": fuzz_tcp}


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rep = Rep()
    steps = WORKLOADS[args.workload](rep, args.seed, out_dir)
    next(steps)
    rep.setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        steps.close()
    elif not args.trace:
        next(steps)
        next(steps, None)
    else:
        import layers
        from tracer import Tracer
        with Tracer(keep_spans=KEPT_SPANS) as tracer:
            oracles = layers.install(tracer)
            next(steps)
        rep.extra["layers"] = layers.layer_metrics(tracer, oracles)
        rep.extra["spans"] = [dataclasses.asdict(span) for span in tracer.spans()]
        next(steps, None)
    print(json.dumps(vars(rep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
