"""Self-tests of the session benchmark: its inputs, output checks and span
arithmetic. Sessions here use one k value to stay small."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
from bench_session import (  # noqa: E402
    WORKLOADS,
    check_session,
    expected_keys,
    input_digests,
    reference_problems,
    run_command,
    run_step,
    setup_commands,
    sha256_file,
)


def small(workload_name: str):
    workload = WORKLOADS[workload_name]
    return dataclasses.replace(workload, ks=workload.ks[:1])


def set_up(workload, seed: int, rep_dir: Path) -> Path:
    rep_dir.mkdir(parents=True, exist_ok=True)
    for i, args in enumerate(setup_commands(workload, seed)):
        assert run_step(args, rep_dir, f"setup{i}").code == 0
    return rep_dir


def run_session(workload, rep_dir: Path, session: str = "session", trace: Path | None = None) -> Path:
    step = run_step(
        run_command(workload, session), rep_dir, f"run-{session}",
        http=workload.backend == "http", trace=trace,
    )
    assert step.code == 0, (rep_dir / f"run-{session}.log").read_text()
    return rep_dir / session


@pytest.fixture(scope="module")
def clean_session(tmp_path_factory):
    workload = small("clean_sweep")
    rep_dir = set_up(workload, 2, tmp_path_factory.mktemp("clean"))
    return workload, rep_dir, run_session(workload, rep_dir)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    workload = WORKLOADS["clean_sweep"]
    first = input_digests(set_up(workload, 1, tmp_path / "a"))
    again = input_digests(set_up(workload, 1, tmp_path / "b"))
    other = input_digests(set_up(workload, 2, tmp_path / "c"))
    assert first == again
    assert first["questions.jsonl"] != other["questions.jsonl"]


@pytest.mark.parametrize("name", ["adversarial_k16", "docs_pager_http"])
def test_second_seed_gives_feasible_workload(tmp_path, name):
    workload = small(name)
    rep_dir = set_up(workload, 2, tmp_path)
    expected = expected_keys(workload, rep_dir / "questions.jsonl")
    problems, failed = check_session(run_session(workload, rep_dir), expected)
    assert problems == [] and failed == 0


def test_clean_session_passes_checks(clean_session):
    workload, rep_dir, session = clean_session
    expected = expected_keys(workload, rep_dir / "questions.jsonl")
    assert len(expected) == 45 * 4
    assert check_session(session, expected) == ([], 0)


def test_output_check_rejects_one_byte_change(clean_session, tmp_path):
    workload, rep_dir, session = clean_session
    runs_path = session / "system_runs.jsonl"
    reference = {"inputs": {}, "runs_sha256": sha256_file(runs_path), "report_sha256": ""}
    changed = tmp_path / "session"
    changed.mkdir()
    data = bytearray(runs_path.read_bytes())
    at = data.index(b'"prompt_version": "') + len(b'"prompt_version": "')
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    (changed / "system_runs.jsonl").write_bytes(bytes(data))
    expected = expected_keys(workload, rep_dir / "questions.jsonl")
    # The change keeps every run key, so only the byte comparison sees it.
    assert check_session(changed, expected) == ([], 0)
    rep = dict(reference, runs_sha256=sha256_file(changed / "system_runs.jsonl"))
    assert reference_problems(rep, reference) == ["runs_sha256 differs from the first repetition"]


def test_output_check_counts_missing_and_failed_runs(clean_session, tmp_path):
    workload, rep_dir, session = clean_session
    lines = (session / "system_runs.jsonl").read_text(encoding="utf-8").splitlines()
    failed_run = json.loads(lines[1])
    failed_run["failure"] = "backend_error: injected"
    broken = tmp_path / "session"
    broken.mkdir()
    (broken / "system_runs.jsonl").write_text(
        "\n".join([json.dumps(failed_run)] + lines[2:]) + "\n", encoding="utf-8"
    )
    expected = expected_keys(workload, rep_dir / "questions.jsonl")
    problems, failed = check_session(broken, expected)
    assert problems == ["1 expected runs missing"]
    assert failed == 2


def test_traced_run_leaves_outputs_unchanged(clean_session):
    workload, rep_dir, session = clean_session
    trace_path = rep_dir / "trace.json"
    traced = run_session(workload, rep_dir, "traced", trace=trace_path)
    assert sha256_file(traced / "system_runs.jsonl") == sha256_file(session / "system_runs.jsonl")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    metrics = tracing.layer_metrics(trace)
    assert metrics["retrieval.retrieve.calls"] > 0
    assert metrics["retrieval.build_index.pages_embedded"] == 900
    assert metrics["planlang.parse.calls"] == 2 * 45
    for system_id in tracing.SYSTEM_IDS:
        assert metrics[f"qasystems.run_system.{system_id}.p50_ms"] > 0
    assert len(trace["runs"]) == 45 * 4
    assert 0 <= tracing.unattributed_s(trace) < trace["wall_s"]


def test_self_time_on_hand_built_span_tree():
    # name, start, end, parent, run, n
    spans = [
        [0, 0.0, 10.0, -1, -1, 0],  # root
        [1, 1.0, 4.0, 0, -1, 0],  # child a
        [1, 3.0, 6.0, 0, -1, 0],  # child b, overlaps a
        [2, 2.0, 3.0, 1, -1, 0],  # grandchild under a
        [1, 9.0, 12.0, 0, -1, 0],  # child c, runs past the root's end
    ]
    # Root: children cover [1, 6] and [9, 10], 6 of its 10 seconds.
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    trace = {
        "wall_s": 11.0, "names": ["root", "child", "leaf"], "runs": [], "spans": spans,
        "totals": {}, "distinct": {},
    }
    assert tracing.unattributed_s(trace) == 1.0
    assert tracing.total_s(trace, "child") == 9.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert tracing.percentile(values, 50) == 5.0
    assert tracing.percentile(values, 99) == 10.0
    assert tracing.percentile([], 50) == 0.0
