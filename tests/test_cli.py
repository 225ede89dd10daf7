"""Command-line workflows: learn/fuzz/replay round trips, exit codes,
deterministic outputs, partial results, and config validation."""
from __future__ import annotations

import argparse
import ast
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from statefuzz.alphabet import word_to_obj
from statefuzz import cli
from statefuzz.detector import ALL_CRITERIA
from statefuzz.cli import (
    EXIT_BUDGET_EXHAUSTED, EXIT_INTERRUPTED, EXIT_NONDETERMINISM, EXIT_OK,
    EXIT_TRANSPORT, DEFAULTS, EXIT_USAGE, EXIT_VERDICT_MISMATCH, SETTINGS, cluster_from_config,
    load_config, main,
)
from statefuzz.mealy import MealyMachine
from statefuzz.proxy import TransportError
from statefuzz.sulsim import VULN_FAKE_LINK, ClusterConfig, ClusterHandle

from test_learner import LADDER_ALPHABET

SWAP_HEAVY = {"duplicate": 1, "remove": 1, "replace": 1, "swap-arg": 7}
REPO_ROOT = Path(__file__).resolve().parents[1]


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One learned model shared by the fuzz/replay tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_json(root / "config.json",
                        {"learner": {"letters": word_to_obj(LADDER_ALPHABET)}})
    rc = main(["learn", "--config", config, "--out-dir", str(root / "model")])
    assert rc == EXIT_OK
    return root


def machine_path(workspace):
    return str(workspace / "model" / "machine.json")


def config_path(workspace):
    return str(workspace / "config.json")


class TestLearn:
    def test_writes_machine_dot_and_transcript(self, workspace):
        out = workspace / "model"
        machine = MealyMachine.from_json((out / "machine.json").read_text())
        assert len(machine.states) == 6
        dot = (out / "machine.dot").read_text()
        assert dot.startswith("digraph") and dot.endswith("}\n")
        lines = (out / "transcript.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        events = [json.loads(line)["event"] for line in lines]
        assert events[0] == "start" and "done" in events

    def test_outputs_are_byte_identical_across_reruns(self, workspace, tmp_path):
        rc = main(["learn", "--config", config_path(workspace),
                   "--out-dir", str(tmp_path / "again")])
        assert rc == EXIT_OK
        for name in ("machine.json", "machine.dot", "transcript.jsonl"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (workspace / "model" / name).read_bytes())

    def test_missing_config_file_exits_usage(self, tmp_path, capsys):
        rc = main(["learn", "--config", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_config_syntax_error_exits_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["learn", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_section_exits_usage(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"fuzzing": {}})
        assert main(["learn", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_even_vote_count_exits_usage(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"learner": {"votes": 2}})
        assert main(["learn", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("learner", [
        {"letters": [{"tag": "Bogus", "params": []}]},
        {"letters": word_to_obj(LADDER_ALPHABET[:1] * 2)},
        {"votes": "3"},
        {"votes": True},
        {"eq_depth": 0},
        {"max_rounds": 2.5},
        {"max_rounds": 0},
        {"max_queries": "100"},
        {"votes": 2},
        {"max_queries": -3},
        {"letters": [{"tag": ["x"]}]},
    ])
    def test_malformed_learner_section_exits_usage_before_any_session(
            self, tmp_path, capsys, learner):
        cfg = write_json(tmp_path / "c.json", {"learner": learner})
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out-dir", str(out)]) == EXIT_USAGE
        assert "learner." in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["learn", "--budget", "-1"],
        ["fuzz", str(REPO_ROOT / "perfbench" / "reference" / "machine.json"),
         "--budget", "0"],
    ], ids=["learn", "fuzz"])
    def test_budget_out_of_range_exits_usage_before_any_session(
            self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
        assert "--budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cluster", [
        {"members": ["n1", "n2", "n3", 4]},
        {"members": "abcd"},
        {"election_timeout_range": [10]},
        {"apps": "fwd"},
        {"cluster_id": 7},
        # Settings removed from ClusterConfig are unknown keys now.
        {"suppress_keepalives": False},
        {"fake_link_pair": ["a2", "b2"]},
        {"session_ttl": 0},
        {"session_reap_interval": 0},
        {"heartbeat_threshold": 5.0},
        {"seed": "x"},
        {"election_timeout_range": [10, "20"]},
        {"vulnerabilities": "unauth_join"},
        {"members": ["n1", "n2", None]},
        {"seed": False},
        {"member": ["n1", "n2", "n3"]},
        {"vulnerabilities": ["nosuch"]},
        {"members": ["n1", "n1", "n2"]},
    ])
    def test_malformed_cluster_section_exits_usage_before_any_session(
            self, tmp_path, capsys, cluster):
        cfg = write_json(tmp_path / "c.json", {"cluster": cluster})
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--budget", "40",
                     "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad cluster section" in err
        assert ("unknown cluster settings" in err) == (
            not set(cluster) <= set(ClusterConfig().to_dict()))
        assert not out.exists()

    def test_cluster_section_round_trips(self):
        ccfg = ClusterConfig(vulnerabilities=frozenset({VULN_FAKE_LINK}), seed=9)
        config = {"cluster": json.loads(json.dumps(ccfg.to_dict()))}
        args = argparse.Namespace(command="learn", vulns=None, seed=None)
        assert cluster_from_config(config, args) == ccfg

    def test_readme_shows_the_defaults(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Run configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        assert json.loads(block) == load_config(None)

    def test_readme_library_example_runs(self, capsys):
        # The first example under "Library use" learns, fuzzes and replays
        # through the library alone; a stale import or call fails here.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
        first = capsys.readouterr().out.splitlines()[0]
        assert ast.literal_eval(first) == sorted(ALL_CRITERIA)

    def test_every_setting_has_a_default_that_passes_its_check(self):
        assert {section: set(rows) for section, rows in SETTINGS.items()} == {
            section: set(values) for section, values in DEFAULTS.items()}
        for section, rows in SETTINGS.items():
            for key, (what, ok) in rows.items():
                assert ok(DEFAULTS[section][key]), f"{section}.{key} is not {what}"

    @pytest.mark.parametrize("command", ["learn", "fuzz"])
    @pytest.mark.parametrize("alphabet", [
        {"self_id": "n1"},
        {"self_id": 5},
        {"self_id": ""},
        {"unknown_id": "dummy"},
        {"unknown_id": None},
    ])
    def test_malformed_alphabet_section_exits_usage_before_any_session(
            self, workspace, tmp_path, capsys, command, alphabet):
        cfg = write_json(tmp_path / "c.json", {"alphabet": alphabet})
        out = tmp_path / "out"
        argv = ["learn"] if command == "learn" else ["fuzz", machine_path(workspace)]
        assert main([*argv, "--config", cfg, "--out-dir", str(out)]) == EXIT_USAGE
        assert "alphabet" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_learner_setting_exits_usage_before_any_session(
            self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"learner": {"eq_dept": 3, "max_querie": 5}})
        out = tmp_path / "out"
        assert main(["learn", "--config", cfg, "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown learner settings" in err
        assert "eq_dept" in err and "max_querie" in err
        assert not out.exists()

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Sets of states and words must never decide an order: two
        # interpreters with different string hashing learn the same bytes.
        cfg = write_json(tmp_path / "c.json",
                         {"learner": {"letters": word_to_obj(LADDER_ALPHABET)}})
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"out-{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            proc = subprocess.run(
                [sys.executable, "-m", "statefuzz.cli", "learn",
                 "--config", cfg, "--out-dir", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append({name: (out / name).read_bytes()
                            for name in ("machine.json", "transcript.jsonl")})
        assert outputs[0] == outputs[1]

    def test_exhausted_budget_exits_with_budget_code(self, workspace, tmp_path,
                                                     capsys):
        rc = main(["learn", "--config", config_path(workspace), "--budget", "1",
                   "--out-dir", str(tmp_path / "b")])
        assert rc == EXIT_BUDGET_EXHAUSTED
        assert "stopped early" in capsys.readouterr().err
        assert not (tmp_path / "b" / "machine.json").exists()

    @pytest.mark.parametrize("sessions, error, code, message", [
        pytest.param(0, TransportError("connection lost"), EXIT_TRANSPORT,
                     "connection lost", id="0"),
        pytest.param(100, TransportError("connection lost"), EXIT_TRANSPORT,
                     "connection lost", id="100"),
        pytest.param(100, KeyboardInterrupt(), EXIT_INTERRUPTED, "interrupted",
                     id="interrupted"),
    ])
    def test_transport_failure_exits_transport_with_partial_model(
            self, workspace, tmp_path, monkeypatch, capsys, sessions, error, code,
            message):
        # The transport drops, or the user interrupts, after the given number
        # of sessions: before the first hypothesis (nothing to save) or after
        # a few of them.
        class DroppingCluster(ClusterHandle):
            resets = 0

            def reset(self):
                if DroppingCluster.resets == sessions:
                    raise error
                DroppingCluster.resets += 1
                return super().reset()

        monkeypatch.setattr(cli, "spawn_cluster", DroppingCluster)
        out = tmp_path / "t"
        rc = main(["learn", "--config", config_path(workspace),
                   "--out-dir", str(out)])
        assert rc == code
        assert message in capsys.readouterr().err
        assert not (out / "machine.json").exists()
        partial = out / "machine-partial.json"
        assert partial.exists() == (sessions > 0)
        if sessions:
            machine = MealyMachine.from_json(partial.read_text())
            assert 1 < len(machine.states) < 6

    def test_nondeterministic_target_exits_nondeterminism_with_partial_model(
            self, workspace, tmp_path, monkeypatch, capsys):
        # The cluster falls silent after 300 sessions, which contradicts the
        # answers stored before; the learn has a hypothesis by then.
        class FallingSilent(ClusterHandle):
            resets = 0

            def reset(self):
                FallingSilent.resets += 1
                return super().reset()

            def exchange(self, msg):
                window = super().exchange(msg)
                return window if FallingSilent.resets <= 300 else []

        monkeypatch.setattr(cli, "spawn_cluster", FallingSilent)
        out = tmp_path / "t"
        rc = main(["learn", "--config", config_path(workspace),
                   "--out-dir", str(out)])
        assert rc == EXIT_NONDETERMINISM
        assert "nondeterministically" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "machine-partial.json", "transcript.jsonl"]
        machine = MealyMachine.from_json((out / "machine-partial.json").read_text())
        events = [json.loads(line)
                  for line in (out / "transcript.jsonl").read_text().splitlines()]
        hypotheses = [e for e in events if e.get("event") == "hypothesis"]
        assert hypotheses and hypotheses[-1]["states"] == len(machine.states) > 1

    def test_unknown_vulnerability_flag_exits_usage(self, workspace, tmp_path,
                                                    capsys):
        rc = main(["learn", "--config", config_path(workspace),
                   "--vulns", "definitely_not_a_flag",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "unknown vulnerability flags" in capsys.readouterr().err


def fuzz_config(workspace, tmp_path, **fuzz_overrides):
    doc = {"learner": {"letters": word_to_obj(LADDER_ALPHABET)},
           "fuzz": {"seed": 5, "budget": 400, "weights": SWAP_HEAVY,
                    **fuzz_overrides}}
    return write_json(tmp_path / "fuzz-config.json", doc)


class TestFuzz:
    def test_campaign_writes_report_and_case_files(self, workspace, tmp_path,
                                                   capsys):
        cfg = fuzz_config(workspace, tmp_path)
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--vulns", "clear_store", "--out-dir", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1 and report["kind"] == "fuzz-report"
        assert report["findings"], "expected the store-clearing hit"
        case_files = sorted(out.glob("case-*.json"))
        assert len(case_files) == len(report["findings"])
        stdout = capsys.readouterr().out
        assert "app-store-change" in stdout and "cases 400" in stdout

    def test_findings_do_not_fail_unless_flag_given(self, workspace, tmp_path):
        cfg = fuzz_config(workspace, tmp_path)
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--vulns", "clear_store", "--fail-on-finding",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_VERDICT_MISMATCH

    def test_hardened_cluster_yields_empty_report(self, workspace, tmp_path,
                                                  capsys):
        cfg = fuzz_config(workspace, tmp_path)
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--budget", "50", "--fail-on-finding", "--out-dir", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["findings"] == [] and report["errors"] == []
        assert not list(out.glob("case-*.json"))
        assert "findings 0" in capsys.readouterr().out

    def test_reports_are_byte_identical_across_reruns(self, workspace, tmp_path):
        cfg = fuzz_config(workspace, tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                       "--vulns", "clear_store", "--out-dir", str(out)])
            assert rc == EXIT_OK
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_interrupt_exits_interrupted_with_the_finished_cases(
            self, workspace, tmp_path, monkeypatch, capsys):
        # Ctrl-C in the reset of the 200th case: one reset took the
        # baseline, so 199 cases finished.
        class InterruptingCluster(ClusterHandle):
            resets = 0

            def reset(self):
                if InterruptingCluster.resets == 200:
                    raise KeyboardInterrupt
                InterruptingCluster.resets += 1
                return super().reset()

        monkeypatch.setattr(cli, "spawn_cluster", InterruptingCluster)
        cfg = fuzz_config(workspace, tmp_path)
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--vulns", "clear_store", "--out-dir", str(out)])
        assert rc == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert "interrupted" in captured.err and captured.out == ""
        report = json.loads((out / "report-partial.json").read_text())
        assert report["cases_run"] == report["stats"]["cases"] == 199
        assert report["findings"], "expected the store-clearing hit"
        case_files = {f"case-{f['case_id']:05d}.json" for f in report["findings"]}
        assert all(f["case_id"] < 199 for f in report["findings"])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            {"report-partial.json", *case_files})

    def test_corrupt_machine_file_exits_usage(self, workspace, tmp_path, capsys):
        bad = tmp_path / "machine.json"
        bad.write_text("{}")
        rc = main(["fuzz", str(bad), "--config", config_path(workspace),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "invalid machine file" in capsys.readouterr().err

    def test_missing_machine_file_exits_usage(self, workspace, tmp_path):
        rc = main(["fuzz", str(tmp_path / "missing.json"),
                   "--config", config_path(workspace),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("fuzz", [
        {"weights": {"duplicate": 1}},
        {"weights": {**SWAP_HEAVY, "shuffle": 1}},
        {"weights": {**SWAP_HEAVY, "remove": -1}},
        {"weights": {**SWAP_HEAVY, "remove": "1"}},
        {"weights": [1, 1, 1, 1]},
        {"budget": "5"},
        {"seed": 1.5},
        # Settings removed from the fuzz section are unknown keys now.
        {"mutations": [1, 3]},
        {"dedupe": False},
        # Duplicate and remove are the only actions open at every position.
        {"weights": {"duplicate": 0, "remove": 0, "replace": 0, "swap-arg": 0}},
        {"weights": {"duplicate": 0, "remove": 0, "replace": 1, "swap-arg": 1}},
        {"weights": {**SWAP_HEAVY, "swap-arg": True}},
        {"weights": {**SWAP_HEAVY, "replace": float("inf")}},
        {"weights": {**SWAP_HEAVY, "duplicate": 1e308, "remove": 1e308}},
        {"weights": {**SWAP_HEAVY, "remove": 10 ** 400}},
        {"budget": None},
        {"budget": 0},
        {"seed": True},
        {"prune_others": "RAReq"},
        {"prune_others": ["Bogus"]},
        {"prune_others": ["NoResponse"]},
    ])
    def test_malformed_fuzz_section_exits_usage(self, workspace, tmp_path,
                                                capsys, fuzz):
        cfg = fuzz_config(workspace, tmp_path, **fuzz)
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad fuzz section" in err
        unknown = not set(fuzz) <= set(SETTINGS["fuzz"])
        assert ("unknown fuzz settings" in err) == unknown
        assert ("fuzz." in err) == (not unknown)
        assert not out.exists()

    def test_machine_of_another_cluster_exits_usage(self, tmp_path, capsys):
        # The reference model with member n1 renamed: its PReq letter names a
        # node this cluster does not have.
        doc = json.loads((REPO_ROOT / "perfbench" / "reference" / "machine.json")
                         .read_text(encoding="utf-8"))
        for sym in [*doc["alphabet"], *(edge["input"] for edge in doc["transitions"])]:
            if sym["tag"] == "PReq" and sym["params"][0]["node"] == "n1":
                sym["params"][0]["node"] = "zz"
        foreign = write_json(tmp_path / "machine.json", doc)
        out = tmp_path / "out"
        rc = main(["fuzz", foreign, "--budget", "50", "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "outside the input alphabet" in captured.err and "zz" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_machine_with_a_transition_outside_its_alphabet_exits_usage(
            self, tmp_path, capsys):
        # The reference model with RARes dropped from its alphabet but not
        # from its transitions.
        doc = json.loads((REPO_ROOT / "perfbench" / "reference" / "machine.json")
                         .read_text(encoding="utf-8"))
        doc["alphabet"].remove({"tag": "RARes", "params": []})
        stray = write_json(tmp_path / "machine.json", doc)
        out = tmp_path / "out"
        rc = main(["fuzz", stray, "--budget", "50", "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid machine file" in captured.err and "RARes" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_machine_with_no_feasible_seeds_exits_usage(self, workspace, tmp_path, capsys):
        cfg = fuzz_config(workspace, tmp_path, prune_others=list(cli._INPUT_TAGS))
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "no feasible sequences" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_misspelt_fuzz_setting_exits_usage(self, workspace, tmp_path, capsys):
        cfg = fuzz_config(workspace, tmp_path, budgte=5)
        out = tmp_path / "out"
        rc = main(["fuzz", machine_path(workspace), "--config", cfg,
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert "unknown fuzz settings: ['budgte']" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def finding_case(workspace, tmp_path_factory):
    """A stored finding produced by a seeded campaign."""
    tmp = tmp_path_factory.mktemp("case")
    cfg = fuzz_config(workspace, tmp)
    out = tmp / "out"
    rc = main(["fuzz", machine_path(workspace), "--config", cfg,
               "--vulns", "clear_store", "--out-dir", str(out)])
    assert rc == EXIT_OK
    case_files = sorted(out.glob("case-*.json"))
    assert case_files
    return cfg, case_files[0]


class TestReplay:
    def test_stored_case_reproduces(self, finding_case, capsys):
        cfg, case_file = finding_case
        rc = main(["replay", str(case_file), "--config", cfg,
                   "--vulns", "clear_store"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "replay-report" and doc["reproduced"] is True
        assert "app-store-change" in doc["replayed"]["criteria"]

    def test_hand_edited_benign_verdict_mismatches(self, finding_case, tmp_path,
                                                   capsys):
        cfg, case_file = finding_case
        doc = json.loads(case_file.read_text())
        doc["criteria"] = []
        doc["evidence"] = {}
        edited = write_json(tmp_path / "benign.json", doc)
        rc = main(["replay", edited, "--config", cfg, "--vulns", "clear_store"])
        assert rc == EXIT_VERDICT_MISMATCH
        assert json.loads(capsys.readouterr().out)["reproduced"] is False

    def test_cluster_mismatch_exits_usage(self, finding_case, capsys):
        cfg, case_file = finding_case
        rc = main(["replay", str(case_file), "--config", cfg])  # flags off
        assert rc == EXIT_USAGE
        assert "different cluster configuration" in capsys.readouterr().err

    def test_tampered_word_exits_usage(self, finding_case, tmp_path, capsys):
        cfg, case_file = finding_case
        doc = json.loads(case_file.read_text())
        doc["word"] = []
        edited = write_json(tmp_path / "tampered.json", doc)
        rc = main(["replay", edited, "--config", cfg, "--vulns", "clear_store"])
        assert rc == EXIT_USAGE
        assert "cannot be replayed" in capsys.readouterr().err

    @pytest.mark.parametrize("verdict", [
        {"criteria": "ab"},
        {"criteria": ["no-such-criterion"]},
        {"evidence": "x"},
        {"evidence": None},
    ])
    def test_malformed_stored_verdict_exits_usage(self, finding_case, tmp_path,
                                                  capsys, verdict):
        cfg, case_file = finding_case
        doc = {**json.loads(case_file.read_text()), **verdict}
        edited = write_json(tmp_path / "verdict.json", doc)
        rc = main(["replay", edited, "--config", cfg, "--vulns", "clear_store"])
        assert rc == EXIT_USAGE
        assert "is malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"mutations": [{"position": "1", "action": "remove"}]}, "is malformed"),
        ({"mutations": [{"position": 1, "action": "duplicate", "copies": "3"}]},
         "is malformed"),
        ({"base": [{"tag": "PReq", "params": []}], "mutations": [],
          "word": [{"tag": "PReq", "params": []}]}, "outside the input alphabet"),
        ({"word": [{"tag": ["x"]}]}, "is malformed"),
        ({"word": [{"tag": "PReq", "params": [{"node": 5}]}]}, "is malformed"),
        ({"case_id": "x"}, "is malformed"),
        ({"seed_index": True}, "is malformed"),
    ], ids=["position", "copies", "arity", "list-tag", "int-node", "case-id",
            "seed-index"])
    def test_malformed_case_exits_usage(self, finding_case, tmp_path, capsys,
                                        edit, message):
        cfg, case_file = finding_case
        doc = {**json.loads(case_file.read_text()), **edit}
        edited = write_json(tmp_path / "case.json", doc)
        rc = main(["replay", edited, "--config", cfg, "--vulns", "clear_store"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_seed_option_is_not_accepted(self, finding_case, capsys):
        # A replay runs on the recorded cluster; a seed would be ignored.
        cfg, case_file = finding_case
        with pytest.raises(SystemExit) as info:
            main(["replay", str(case_file), "--config", cfg, "--seed", "123456"])
        assert info.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_missing_case_file_exits_usage(self, finding_case, tmp_path):
        cfg, _ = finding_case
        rc = main(["replay", str(tmp_path / "gone.json"), "--config", cfg])
        assert rc == EXIT_USAGE


class TestArtifactWrites:
    """Outputs are written atomically: a failed write leaves the old file, or
    none, and no temporary file."""

    @staticmethod
    def fail_halfway(monkeypatch):
        """Make every ``Path.write_text`` write half its text, then fail."""
        def write_half(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as handle:
                handle.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(Path, "write_text", write_half)

    @pytest.mark.parametrize("before", [None, "old\n"])
    def test_write_failing_partway_leaves_no_partial_or_temp_file(
            self, tmp_path, monkeypatch, before):
        target = tmp_path / "report.json"
        if before is not None:
            target.write_text(before, encoding="utf-8")
        self.fail_halfway(monkeypatch)
        with pytest.raises(OSError):
            cli.write_artifact(target, '{"findings": []}\n' * 100)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else [target.name])
        if before is not None:
            assert target.read_text(encoding="utf-8") == before

    def test_interrupt_before_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.write_artifact(tmp_path / "machine.json", "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_write_replaces_existing_file(self, tmp_path):
        target = tmp_path / "machine.dot"
        target.write_text("old", encoding="utf-8")
        cli.write_artifact(target, "digraph {}\n")
        assert target.read_text(encoding="utf-8") == "digraph {}\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_fuzz_failing_on_a_case_file_leaves_only_whole_files(
            self, workspace, tmp_path, monkeypatch):
        cfg = fuzz_config(workspace, tmp_path)
        out = tmp_path / "out"
        write = cli.write_artifact
        written = []

        def fail_third(path, text):
            if len(written) == 2:
                self.fail_halfway(monkeypatch)
            written.append(path.name)
            write(path, text)
        monkeypatch.setattr(cli, "write_artifact", fail_third)
        with pytest.raises(OSError):
            main(["fuzz", machine_path(workspace), "--config", cfg,
                  "--vulns", "clear_store", "--out-dir", str(out)])
        monkeypatch.undo()
        # The report comes last, so a failure on a case file leaves none.
        assert "report.json" not in written and len(written) == 3
        assert sorted(p.name for p in out.iterdir()) == sorted(written[:2])
        for name in written[:2]:
            json.loads((out / name).read_text(encoding="utf-8"))


class TestInterruptOutsideTheLoop:
    """A Ctrl-C before the learning or campaign loop, or while the outputs
    are written, exits 130 without a traceback or a temporary file, and
    ``machine.json`` or ``report.json`` only ever comes last."""

    @staticmethod
    def argv(command, workspace, tmp_path, out):
        if command == "learn":
            return ["learn", "--config", config_path(workspace), "--out-dir", str(out)]
        return ["fuzz", machine_path(workspace), "--config",
                fuzz_config(workspace, tmp_path), "--vulns", "clear_store",
                "--out-dir", str(out)]

    @pytest.mark.parametrize("command", ["learn", "fuzz"])
    @pytest.mark.parametrize("when", ["spawn", "write", "second-write"])
    def test_interrupt_exits_interrupted(self, workspace, tmp_path, monkeypatch,
                                         capsys, command, when):
        def interrupted(*args):
            raise KeyboardInterrupt
        if when == "spawn":
            monkeypatch.setattr(cli, "spawn_cluster", interrupted)
        else:
            replace, replaced = os.replace, []

            def replace_until_interrupted(*args):
                if len(replaced) == (when == "second-write"):
                    raise KeyboardInterrupt
                replaced.append(args)
                replace(*args)
            monkeypatch.setattr(os, "replace", replace_until_interrupted)
        out = tmp_path / "out"
        try:
            rc = main(self.argv(command, workspace, tmp_path, out))
        except KeyboardInterrupt:  # would end the test run, not fail the test
            pytest.fail("the interrupt escaped main")
        monkeypatch.undo()
        assert rc == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n" and captured.out == ""
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if when == "spawn":
            assert written == []
        elif command == "learn":
            assert written == (["machine.dot", "transcript.jsonl"]
                               if when == "second-write" else ["transcript.jsonl"])
        else:
            assert len(written) == (when == "second-write")
            assert all(name.startswith("case-") for name in written)


def test_ctrl_c_exits_interrupted_and_leaves_no_process(tmp_path):
    """SIGINT to the whole process group, as a terminal sends it, during
    ``learn --vulns all``: the learn saves its partial model and exits 130."""
    out = tmp_path / "out"
    script = ("import sys; from statefuzz.cli import main; "
              f"sys.exit(main(['learn', '--vulns', 'all', '--out-dir', {str(out)!r}]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            start_new_session=True, stderr=subprocess.PIPE, text=True)
    try:
        transcript = out / "transcript.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            if transcript.exists() and transcript.read_text().count('"suite"') >= 2:
                break
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert "interrupted" in err
    assert (out / "machine-partial.json").exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


class TestEntryPoint:
    def test_installed_script_help(self):
        """The declared `statefuzz` script starts the CLI of this checkout.

        Runs the `[project.scripts]` target the way an installer's
        console-script wrapper does (argv[0] set, `main()` called with no
        arguments), so no install step or PATH lookup is involved."""
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        project = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        target = project["project"]["scripts"]["statefuzz"]
        assert re.fullmatch(r"[\w.]+:\w+", target), target
        module, attr = target.split(":")
        wrapper = ("import sys; sys.argv[0] = 'statefuzz'; "
                   f"from {module} import {attr}; sys.exit({attr}())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "learn" in proc.stdout and "replay" in proc.stdout
        # The parser description names the subcommands too, so also check
        # the usage line's choices.
        usage = re.search(r"^usage: statefuzz .*\{([\w,]+)\}", proc.stdout,
                          re.MULTILINE)
        assert usage, proc.stdout
        assert {"learn", "replay"} <= set(usage.group(1).split(","))

        # The script must ship with the package it imports.
        setuptools = pytest.importorskip("setuptools")
        find = project["tool"]["setuptools"]["packages"]["find"]
        packages = {pkg for where in find["where"]
                    for pkg in setuptools.find_packages(str(REPO_ROOT / where))}
        assert module.split(".")[0] in packages

    def test_log_env_var_enables_diagnostics(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"learner": {"letters": word_to_obj(LADDER_ALPHABET)}}))
        env = {**os.environ, "STATEFUZZ_LOG": "info",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "statefuzz.cli", "learn",
             "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, cwd=str(tmp_path))
        assert proc.returncode == 0
        assert "INFO statefuzz" in proc.stderr
        assert "learned 6 states" in proc.stdout

    def test_importing_the_cli_loads_neither_the_learner_nor_a_process_pool(self):
        # fuzz and replay never learn, so neither the learner nor a process
        # pool module may count in their start-up time and memory.
        code = ("import sys, statefuzz.cli; print(sorted(m for m in "
                "('statefuzz.learner', 'multiprocessing') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
