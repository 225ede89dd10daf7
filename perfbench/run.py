"""statefuzz benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload learn-ref --seed 1 --seconds 60 --trace 0

Workloads (closed loop, one client, each repetition a fresh interpreter):

learn-ref
    ``statefuzz learn`` on the reference (hardened) cluster, cluster seed
    ``--seed``; ``machine.json`` must equal ``perfbench/reference``.
fuzz-tcp
    A campaign against the hardened cluster served by a loopback
    ``ClusterServer``/``TcpTransport`` pair; its ``report.json`` must equal
    an in-process ``statefuzz fuzz`` with the same seed.
fuzz-vuln
    ``statefuzz fuzz`` of the reference model against ``--vulns all`` with
    ``--shards 2``, campaign seed ``--seed``, then ``statefuzz replay`` of
    every case file it wrote; every replay must reproduce.  Runnable, but
    not declared in ``BENCHMARK.json`` (see ``NOTES.md``).

With ``--trace 0`` the workload repeats while another repetition fits in
``--seconds`` (at least once) and the end-to-end metrics are medians over
the repetitions.  With ``--trace 1`` it runs once untraced and once with
every public statefuzz function wrapped in a span, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Work counters must
repeat exactly between repetitions and between runs with the same seed; a
mismatch is a failed check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import percentile, tail_percentile

HERE = Path(__file__).resolve().parent
WORKLOADS = ("learn-ref", "fuzz-vuln", "fuzz-tcp")
WORK_DIR = Path(".perfbench_work")
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run, repetitions and checks included, ends within this

CRITERIA = ("config-leak", "cluster-state-change", "app-store-change",
            "reachability-change", "resource-exhaustion")
TIME_UNITS = ("s", "ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(root: Path, trace: int) -> list:
    """Names of the metrics the result line carries, from ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Run metadata and work-counter bookkeeping
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, root: Path) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "transport": "loopback" if args.workload == "fuzz-tcp" else "in-process",
        "load": "closed loop, 1 client",
    }


def source_digest(root: Path) -> str:
    """Digest of everything the work counters depend on."""
    digest = hashlib.sha256()
    files = sorted([*(root / "src" / "statefuzz").rglob("*.py"), *HERE.rglob("*.py"),
                    *HERE.rglob("*.json")])
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def counters_agree_with_earlier_runs(root: Path, workload: str, seed: int,
                                     counters: dict) -> bool:
    """Compare with the counters an earlier run of this seed stored; store
    them if no run of this code did yet."""
    path = root / WORK_DIR / "counters" / f"{workload}-seed{seed}.json"
    source = source_digest(root)
    try:
        earlier = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        earlier = None
    if earlier is not None and earlier.get("source") == source:
        return earlier["counters"] == counters
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "counters": counters},
                               indent=1, sort_keys=True), encoding="utf-8")
    return True


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def empty(directory: Path):
    """Delete the files under ``directory`` but keep the directories.

    Every repetition writes into the same emptied directory.  Creating
    files in freshly made directories cost anywhere from 0.02 to 0.6 ms per
    file on an ext4 virtual disk (2-vCPU VM), which made fuzz-vuln's 1,450
    case files the noisiest part of its wall time.
    """
    for path in sorted(directory.rglob("*"), reverse=True):
        if not path.is_dir():
            path.unlink()


def run_worker(root: Path, args, index: int, deadline: float, *, trace=False,
               setup_only=False) -> dict | None:
    """One repetition in a fresh interpreter; None if it crashed or hung."""
    out_dir = root / WORK_DIR / "out" / args.workload
    empty(out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out-dir", str(out_dir)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(command + ["--spawned-at", repr(spawned_at)], cwd=root,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition {index} hit the {RUN_LIMIT_S} s run limit",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: repetition {index} exited with {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.monotonic() - spawned_at
    return result


def run_reps(root: Path, args) -> tuple:
    """Timed repetitions, then set-up-only ones until there are enough
    set-up samples.  Returns ``(reps, setup samples, crashed count)``."""
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    reps = []
    crashed = 0
    if args.trace:
        for trace in (False, True):
            rep = run_worker(root, args, len(reps), deadline, trace=trace)
            if rep is None:
                crashed += 1
                break
            reps.append(rep)
        return reps, [rep["setup_s"] for rep in reps], crashed
    while True:
        rep = run_worker(root, args, len(reps), deadline)
        if rep is None:
            crashed += 1
            break
        reps.append(rep)
        # Start another repetition only if it should end within --seconds.
        if time.monotonic() - begin + rep["duration_s"] > args.seconds:
            break
    setups = [rep["setup_s"] for rep in reps]
    while reps and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - 10:
        probe = run_worker(root, args, len(reps) + len(setups), deadline, setup_only=True)
        if probe is None:
            crashed += 1
            break
        setups.append(probe["setup_s"])
    return reps, setups, crashed


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def show(name, value, unit, note=""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<6} {note}")


def end_to_end(reps, setups, counters) -> dict:
    walls = [rep["wall_s"] for rep in reps]
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} runs"),
        "sessions": (counters["sessions"], "count", "reset-isolated sessions"),
        "peak_rss_mb": (statistics.median(rep["rss_mb"] for rep in reps), "MB",
                        f"median of {len(reps)} runs"),
    }
    rates = [rep["extra"]["cases_per_s"] for rep in reps if "cases_per_s" in rep["extra"]]
    if rates:
        metrics["cases_per_s"] = (statistics.median(rates), "1/s",
                                  f"campaign cases / campaign wall, median of {len(rates)}")
    replays = [s for rep in reps for s in rep["extra"].get("replay_s", ())]
    if replays:
        tail = tail_percentile(len(replays))
        metrics["replay_p50_ms"] = (percentile(replays, 50) * 1e3, "ms",
                                    f"n={len(replays)} replay calls")
        metrics["replay_p99_ms"] = (percentile(replays, 99) * 1e3, "ms",
                                    f"n={len(replays)}; highest valid percentile p{tail:g}")
    metrics["artifact_mb"] = (counters["artifact_bytes"] / 1e6, "MB",
                              f"{counters['artifact_files']} files")
    return metrics


def per_layer(reps, counters) -> dict:
    untraced, traced = reps
    metrics = {name: (value, unit, "") for name, (value, unit) in
               traced["extra"]["layers"].items()}
    for key in ("cases", "errors", "findings"):
        metrics[f"fuzzer.{key}"] = (counters.get(key, 0), "count", "")
    for criterion in CRITERIA:
        key = f"first_hit_case.{criterion}"
        metrics[f"fuzzer.{key}"] = (counters.get(key, -1), "case_id", "-1: never hit")
    metrics["cli.artifact_files"] = (counters["artifact_files"], "count", "")
    metrics["artifact_mb"] = (counters["artifact_bytes"] / 1e6, "MB", "")
    metrics["trace.wall_s"] = (traced["wall_s"], "s", "traced run")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s",
                                   "traced wall_s minus untraced wall_s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "statefuzz" / "__init__.py").is_file():
        return fail("run from a statefuzz checkout: src/statefuzz is missing")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    declared = declared_metrics(root, args.trace)

    meta = metadata(args, root)
    try:
        reps, setups, crashed = run_reps(root, args)
    finally:
        empty(root / WORK_DIR / "out" / args.workload)
    if len(reps) < (2 if args.trace else 1):
        return fail("no repetition completed" if not reps else
                    "the traced repetition did not complete")
    checks = {}
    failed = crashed
    attempted = crashed
    for rep in reps:
        attempted += rep["attempted"]
        failed += rep["failed"]
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    counters = reps[0]["counters"]
    same_in_run = all(rep["counters"] == counters for rep in reps)
    same_as_before = counters_agree_with_earlier_runs(root, args.workload, args.seed,
                                                      counters)
    checks["work counters equal in every repetition"] = same_in_run
    checks["work counters equal to earlier runs of this seed"] = same_as_before
    failed += (not same_in_run) + (not same_as_before)
    if args.trace:
        layer = per_layer(reps, counters)
        # Counts seen only through the wrappers must repeat across traced runs.
        traced_counts = {name: value for name, (value, unit, _) in layer.items()
                         if unit not in TIME_UNITS}
        same_traced = counters_agree_with_earlier_runs(
            root, f"{args.workload}-traced", args.seed, traced_counts)
        checks["traced counts equal to earlier traced runs of this seed"] = same_traced
        failed += not same_traced
    correct = failed == 0 and all(checks.values())

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)}")
    print("run: " + json.dumps(meta, sort_keys=True))
    print("end to end:")
    e2e = end_to_end(reps[:1] if args.trace else reps, setups, counters)
    for name, (value, unit, note) in e2e.items():
        show(name, value, unit, note)
    for name in ("cases_per_s", "replay_p50_ms", "replay_p99_ms"):
        if name not in e2e:
            print(f"  {name:<34} {'n/a':>14}        not run by this workload")
    show("fail_ratio", failed / attempted, "ratio", f"{failed} failed / {attempted} attempted")
    if args.trace:
        print("per layer (traced repetition):")
        for name, (value, unit, note) in sorted(layer.items()):
            show(name, value, unit, note)
    print("counters: " + json.dumps(counters, sort_keys=True))
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")

    table = layer if args.trace else e2e
    metrics = {name: {"value": table[name][0], "unit": table[name][1]}
               for name in declared}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for span in reps[-1]["extra"]["spans"]:
                out.write(json.dumps(span) + "\n")
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"run": meta, "result": result, "counters": counters, "checks": checks,
                    "reps": [{k: v for k, v in rep.items() if k != "extra"} for rep in reps]},
                   indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
