from __future__ import annotations

import contextlib
import fcntl
import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import reference_retrieve

from mdqa import backends, cli, oracle, qasystems
from mdqa.backends import HashedBowEmbedder, VectorStore, text_key
from mdqa.cli import main
from mdqa.corpus import load_collection
from mdqa.files import AppendLog, jsonl_line, write_json
from mdqa.oracle import OracleChatBackend
from mdqa.qasystems import SYSTEM_IDS
from mdqa.records import RUN_FORMAT, SystemRun
from mdqa.retrieval import EMBED_INPUT_MAX_CHARS, PageIndex


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic corpus plus a generated question set."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    result = runner.invoke(
        main, ["synth", str(root / "corpus"), "--kind", "clean", "--companies", "6"]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        [
            "gen",
            "--corpus", str(root / "corpus"),
            "--out", str(root / "questions.jsonl"),
            "--templates", "ve2,md1,md4",
            "--count", "3",
            "--dataset-year", "2023",
            "--seed", "7",
            "--metrics", "md1=dividends_paid",
        ],
    )
    assert result.exit_code == 0, result.output
    return root


def test_synth_and_ingest_summary(runner, tmp_path):
    result = runner.invoke(
        main, ["synth", str(tmp_path / "c"), "--kind", "clean", "--companies", "3"]
    )
    assert result.exit_code == 0
    assert result.output.strip() == "docs=30 pages=150 facts=90"
    ingest = runner.invoke(main, ["ingest", str(tmp_path / "c")])
    assert ingest.exit_code == 0
    assert ingest.output == result.output
    again = runner.invoke(main, ["ingest", str(tmp_path / "c")])
    assert again.output == ingest.output


def test_ingest_full_bundle_counts(runner, tmp_path):
    result = runner.invoke(main, ["synth", str(tmp_path / "full")])
    assert result.exit_code == 0
    assert result.output.strip() == "docs=180 pages=900 facts=540"


def test_ingest_missing_facts_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["synth", str(tmp_path / "c"), "--companies", "2"])
    assert result.exit_code == 0
    (tmp_path / "c" / "facts.jsonl").unlink()
    result = runner.invoke(main, ["ingest", str(tmp_path / "c")])
    assert result.exit_code == 2
    assert "facts" in result.output


def test_ingest_non_string_formula_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["synth", str(tmp_path / "c"), "--companies", "3"])
    assert result.exit_code == 0
    metrics_path = tmp_path / "c" / "metrics.json"
    metrics = json.loads(metrics_path.read_text())
    compound = next(m for m in metrics if m["kind"] == "compound")
    compound["formula"] = 7
    metrics_path.write_text(json.dumps(metrics))
    result = runner.invoke(main, ["ingest", str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert f"{metrics_path}: metric {compound['metric_id']!r}: formula must be a string" in (
        result.output
    )


@pytest.mark.parametrize(
    "formula",
    [" + ".join(["total_revenue"] * 3000), "(" * 2000 + "total_revenue" + ")" * 2000],
    ids=["3000-terms", "2000-parentheses"],
)
def test_ingest_too_deep_formula_exits_2(runner, tmp_path, formula):
    result = runner.invoke(main, ["synth", str(tmp_path / "c"), "--companies", "3"])
    assert result.exit_code == 0
    metrics_path = tmp_path / "c" / "metrics.json"
    metrics = json.loads(metrics_path.read_text())
    compound = next(m for m in metrics if m["kind"] == "compound")
    compound["formula"] = formula
    metrics_path.write_text(json.dumps(metrics))
    result = runner.invoke(main, ["ingest", str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: compound metric {compound['metric_id']!r}: ")


def test_gen_is_deterministic(runner, workspace, tmp_path):
    args = [
        "gen",
        "--corpus", str(workspace / "corpus"),
        "--out", str(tmp_path / "a.jsonl"),
        "--templates", "ve2,md1",
        "--count", "3",
        "--dataset-year", "2023",
        "--seed", "7",
        "--metrics", "md1=dividends_paid",
    ]
    assert runner.invoke(main, args).exit_code == 0
    args[4] = str(tmp_path / "b.jsonl")
    assert runner.invoke(main, args).exit_code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_gen_variant_mode_constant_templates_and_companies(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        [
            "gen",
            "--corpus", str(workspace / "corpus"),
            "--out", str(tmp_path / "q.jsonl"),
            "--templates", "ve2",
            "--count", "4",
            "--dataset-year", "2023",
            "--seed", "3",
            "--variant-years", "2021:2023",
        ],
    )
    assert result.exit_code == 0, result.output
    files = sorted(tmp_path.glob("q-*.jsonl"))
    assert [f.name for f in files] == ["q-2021.jsonl", "q-2022.jsonl", "q-2023.jsonl"]
    per_variant = []
    for f in files:
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        per_variant.append(
            (
                {r["template_id"] for r in rows},
                {r["slots"]["company_symbol"] for r in rows},
            )
        )
    templates = {t for tset, _ in per_variant for t in tset}
    assert templates == {"ve2"}
    # Same seed means the same company stream per variant.
    assert per_variant[0][1] == per_variant[1][1] == per_variant[2][1]


def test_run_grid_and_eval(runner, workspace, tmp_path):
    session = tmp_path / "sess"
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(workspace / "corpus"),
            "--questions", str(workspace / "questions.jsonl"),
            "--session", str(session),
            "--systems", "vanilla_rag,multi_query_rag,codegen_pager,codegen_docs_pager",
            "--k-grid", "4,32",
        ],
    )
    assert result.exit_code == 0, result.output
    runs = [json.loads(l) for l in (session / "system_runs.jsonl").read_text().splitlines()]
    groups = {(r["system_id"], r["k"]) for r in runs}
    assert len(groups) == 8
    assert (session / "ledger.json").exists()
    assert (session / "config.json").exists()

    evaluated = runner.invoke(main, ["eval", str(session)])
    assert evaluated.exit_code in (0, 1), evaluated.output
    report = json.loads((session / "report.json").read_text())
    docs_cells = [
        c for c in report["cells"] if c["system_id"] == "codegen_docs_pager"
    ]
    assert docs_cells and all(c["accuracy"] == 1.0 for c in docs_cells)
    first = (session / "report.json").read_bytes()
    evaluated = runner.invoke(main, ["eval", str(session)])
    assert (session / "report.json").read_bytes() == first


def test_run_resume_skips_completed(runner, workspace, tmp_path):
    session = tmp_path / "resume"
    args = [
        "run",
        "--corpus", str(workspace / "corpus"),
        "--questions", str(workspace / "questions.jsonl"),
        "--session", str(session),
        "--systems", "vanilla_rag",
        "--k-grid", "4",
    ]
    first = runner.invoke(main, args)
    assert first.exit_code == 0
    assert "0 resumed" in first.output
    n_runs = len((session / "system_runs.jsonl").read_text().splitlines())
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert "0 new" in second.output
    assert f"{n_runs} resumed" in second.output
    assert len((session / "system_runs.jsonl").read_text().splitlines()) == n_runs


def test_run_from_toml_config(runner, workspace, tmp_path):
    session = tmp_path / "toml-sess"
    config = tmp_path / "run.toml"
    config.write_text(
        "\n".join(
            [
                "[run]",
                f'corpus = "{workspace / "corpus"}"',
                f'questions = "{workspace / "questions.jsonl"}"',
                f'session = "{session}"',
                'systems = "vanilla_rag"',
                'k_grid = "4"',
            ]
        )
    )
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert (session / "system_runs.jsonl").exists()


def _toml_run(runner, workspace, config, extra_lines, *flags):
    config.write_text(
        "\n".join(
            [
                "[run]",
                f'corpus = "{workspace / "corpus"}"',
                f'questions = "{workspace / "questions.jsonl"}"',
                f'session = "{config.parent / "session"}"',
                'systems = "vanilla_rag"',
                'k_grid = "4"',
                *extra_lines,
            ]
        )
    )
    return runner.invoke(main, ["run", "--config", str(config), *flags])


def test_run_config_precedence_flag_then_toml_then_default(runner, workspace, tmp_path):
    config = tmp_path / "run.toml"
    result = _toml_run(
        runner, workspace, config,
        ['oracle_mode = "textual"', "jobs = 2", "n_queries = 2"],
        "--oracle-mode", "perfect",  # explicit, and equal to the default
    )
    assert result.exit_code == 0, result.output
    effective = json.loads((tmp_path / "session" / "config.json").read_text())
    assert effective["oracle_mode"] == "perfect"  # flag beats TOML
    assert (effective["jobs"], effective["n_queries"]) == (2, 2)  # TOML beats default
    assert effective["backend"] == "oracle"  # default when neither sets it


@pytest.mark.parametrize(
    "lines,message",
    [
        (None, "does not exist"),
        (["[run"], "cannot read"),
        (["k_gird = '4'"], "no run option named k_gird"),
        (["jobs = 'many'"], "'many' is not a valid integer"),
    ],
    ids=["missing", "unparseable", "unknown_key", "bad_value"],
)
def test_run_bad_config_exits_2(runner, workspace, tmp_path, lines, message):
    config = tmp_path / "run.toml"
    if lines is None:
        result = runner.invoke(main, ["run", "--config", str(config)])
    else:
        result = _toml_run(runner, workspace, config, lines)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "session").exists()


def test_run_requires_paths(runner):
    result = runner.invoke(main, ["run"])
    assert result.exit_code == 2


def test_run_parallel_jobs_byte_identical(runner, workspace, tmp_path):
    outputs = []
    for jobs in ("1", "4"):
        session = tmp_path / f"jobs-{jobs}"
        result = runner.invoke(
            main,
            [
                "run",
                "--corpus", str(workspace / "corpus"),
                "--questions", str(workspace / "questions.jsonl"),
                "--session", str(session),
                "--systems", "vanilla_rag,codegen_docs_pager",
                "--k-grid", "4",
                "--jobs", jobs,
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append((session / "system_runs.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_parallel_jobs_byte_identical_across_a_k_sweep(runner, workspace, tmp_path):
    """Every system over a k sweep, so threads share memoised rankings."""
    outputs = []
    for jobs in ("1", "4"):
        session = tmp_path / f"jobs-{jobs}"
        result = runner.invoke(main, [
            "run",
            "--corpus", str(workspace / "corpus"),
            "--questions", str(workspace / "questions.jsonl"),
            "--session", str(session),
            "--systems", ",".join(SYSTEM_IDS),
            "--k-grid", "4,8,16",
            "--jobs", jobs,
        ])
        assert result.exit_code == 0, result.output
        outputs.append((session / "system_runs.jsonl").read_bytes())
    assert len(outputs[0].splitlines()) == 4 * 3 * 9
    assert outputs[0] == outputs[1]


def test_run_journals_each_questions_ks_back_to_back(workspace, unfinished_session):
    questions = [
        json.loads(line)["question_id"]
        for line in (workspace / "questions.jsonl").read_text().splitlines()
    ]
    journal = (unfinished_session / "journal.jsonl").read_text().splitlines()
    assert [(r["system_id"], r["question_id"], r["k"]) for r in map(json.loads, journal)] == [
        (system_id, q, k)
        for q in questions
        for system_id in ("vanilla_rag", "codegen_docs_pager")
        for k in (4, 8)
    ]


def _oracle_transport(workspace):
    """A ``Transport`` answering like the oracle backends, in process."""
    from mdqa.corpus import load_collection, load_fact_table
    from mdqa.questiongen import read_questions
    from mdqa.synth import ORACLE_METRIC_ALIASES

    collection = load_collection(workspace / "corpus")
    table = load_fact_table(workspace / "corpus", collection)
    questions = read_questions(workspace / "questions.jsonl")
    chat = OracleChatBackend(
        table, 2023, questions=questions, metric_aliases=ORACLE_METRIC_ALIASES
    )
    embedder = HashedBowEmbedder()

    def transport(url, body, headers, timeout):
        if url.endswith("/chat/completions"):
            reply = chat.chat(body["messages"])
            return 200, {"choices": [{"message": {"content": reply}}]}
        vectors = embedder.embed(body["input"])
        return 200, {"data": [{"embedding": v.tolist()} for v in vectors]}

    return transport


def test_http_session_parallel_jobs_byte_identical(
    runner, workspace, finished_session, tmp_path, monkeypatch
):
    """Threads share the HTTP caches' logs; the runs must not notice."""
    monkeypatch.setenv("MDQA_API_KEY", "k")
    monkeypatch.setattr(backends, "_requests_transport", _oracle_transport(workspace))
    outputs, ledgers = [], []
    for jobs in ("1", "4"):
        session = tmp_path / f"jobs-{jobs}"
        result = runner.invoke(main, _run_args(
            workspace, session, "--backend", "http", "--endpoint", "http://localhost:9/v1",
            "--model", "m", "--jobs", jobs,
        ))
        assert result.exit_code == 0, result.output
        outputs.append((session / "system_runs.jsonl").read_bytes())
        ledgers.append((session / "ledger.json").read_bytes())
    assert outputs[0] == outputs[1] == (finished_session / "system_runs.jsonl").read_bytes()
    # Two threads that miss one reply at once may both send it; the chat log
    # keeps it once, and the ledger counts what the logs and runs hold.
    assert ledgers[0] == ledgers[1]


def test_eval_missing_session_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["eval", str(tmp_path / "missing")])
    assert result.exit_code == 2


def test_cost_command(runner, workspace, tmp_path):
    session = tmp_path / "cost-sess"
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(workspace / "corpus"),
            "--questions", str(workspace / "questions.jsonl"),
            "--session", str(session),
            "--systems", "vanilla_rag,codegen_docs_pager",
            "--k-grid", "4",
        ],
    )
    assert result.exit_code == 0
    cost = runner.invoke(main, ["cost", str(session)])
    assert cost.exit_code == 0
    assert "vanilla_rag: mean_chat_calls=1.00 ratio_vs_vanilla=1.00" in cost.output
    assert (session / "cost.json").exists()


def test_trace_command(runner, workspace, tmp_path):
    session = tmp_path / "trace-sess"
    runner.invoke(
        main,
        [
            "run",
            "--corpus", str(workspace / "corpus"),
            "--questions", str(workspace / "questions.jsonl"),
            "--session", str(session),
            "--systems", "codegen_docs_pager",
            "--k-grid", "4",
        ],
    )
    question_id = json.loads(
        (session / "questions.jsonl").read_text().splitlines()[0]
    )["question_id"]
    result = runner.invoke(main, ["trace", str(session), question_id, "codegen_docs_pager", "4"])
    assert result.exit_code == 0, result.output
    assert "Retrieved pages:" in result.output
    assert "matched=yes" in result.output
    assert "Plan source:" in result.output
    missing = runner.invoke(main, ["trace", str(session), "nope", "codegen_docs_pager", "4"])
    assert missing.exit_code == 2


def test_trace_flags_wrong_fiscal_year(runner, tmp_path):
    # On the adversarial corpus the vanilla retrieval lands on wrong-year
    # pages; the dump marks every mismatching field.
    corpus = tmp_path / "adv"
    runner.invoke(main, ["synth", str(corpus), "--kind", "adversarial", "--companies", "6"])
    questions = tmp_path / "q.jsonl"
    result = runner.invoke(
        main,
        [
            "gen",
            "--corpus", str(corpus),
            "--out", str(questions),
            "--templates", "ve2",
            "--count", "2",
            "--dataset-year", "2023",
            "--seed", "13",
            "--metrics", "ve2=total_revenue",
            "--years", "2019,2020,2021,2022",
        ],
    )
    assert result.exit_code == 0, result.output
    session = tmp_path / "sess"
    result = runner.invoke(
        main,
        [
            "run",
            "--corpus", str(corpus),
            "--questions", str(questions),
            "--session", str(session),
            "--systems", "vanilla_rag",
            "--k-grid", "4",
            "--oracle-mode", "textual",
        ],
    )
    assert result.exit_code == 0, result.output
    question_id = json.loads((session / "questions.jsonl").read_text().splitlines()[0])[
        "question_id"
    ]
    trace = runner.invoke(main, ["trace", str(session), question_id, "vanilla_rag", "4"])
    assert trace.exit_code == 0
    assert "wrong:fiscal_year" in trace.output
    assert "matched=no" in trace.output


def test_textual_md4_lowest_session_completes(runner, tmp_path):
    # On the default corpus the pages vanilla_rag retrieves for this question
    # make another company than the true one show the lowest revenue; the
    # direct answer is that company's head count, which the pages also show.
    corpus, questions = tmp_path / "corpus", tmp_path / "questions.jsonl"
    assert runner.invoke(main, ["synth", str(corpus)]).exit_code == 0
    result = runner.invoke(
        main,
        [
            "gen", "--corpus", str(corpus), "--out", str(questions),
            "--templates", "md4_lowest", "--count", "20", "--dataset-year", "2023",
            "--seed", "7",
        ],
    )
    assert result.exit_code == 0, result.output
    lines = questions.read_text().splitlines(keepends=True)
    questions.write_text("".join(l for l in lines if '"md4_lowest-0013"' in l))
    sessions = [tmp_path / "first", tmp_path / "second"]
    for session in sessions:
        result = runner.invoke(
            main,
            [
                "run", "--corpus", str(corpus), "--questions", str(questions),
                "--session", str(session), "--systems", "vanilla_rag", "--k-grid", "48",
                "--oracle-mode", "textual",
            ],
        )
        assert result.exit_code == 0, result.output
    (run,) = [json.loads(l) for l in (sessions[0] / "system_runs.jsonl").read_text().splitlines()]
    assert run["failure"] is None
    assert run["predicted"]["value"] == 194839.0  # KLVR's 2023 head count
    for name in ("system_runs.jsonl", "ledger.json"):
        assert (sessions[0] / name).read_bytes() == (sessions[1] / name).read_bytes()


def test_stability_command_sigma_zero(runner, tmp_path):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["synth", str(corpus), "--kind", "clean", "--companies", "6"])
    session = tmp_path / "stab"
    result = runner.invoke(
        main,
        [
            "stability",
            "--corpus", str(corpus),
            "--session", str(session),
            "--variant-years", "2021:2023",
            "--templates", "ve2",
            "--count", "3",
            "--systems", "codegen_docs_pager",
        ],
    )
    assert result.exit_code == 0, result.output
    stability = json.loads((session / "stability.json").read_text())
    assert stability["stddev"] == 0.0
    assert set(stability["per_variant"]) == {"2021", "2022", "2023"}


# ---------------------------------------------------------------------------
# Crash safety and bad input
# ---------------------------------------------------------------------------


def _run_args(workspace, session, *extra):
    return [
        "run",
        "--corpus", str(workspace / "corpus"),
        "--questions", str(workspace / "questions.jsonl"),
        "--session", str(session),
        "--systems", "vanilla_rag,codegen_docs_pager",
        "--k-grid", "4,8",
        *extra,
    ]


@pytest.fixture(scope="module")
def finished_session(workspace, tmp_path_factory):
    session = tmp_path_factory.mktemp("finished") / "session"
    result = CliRunner().invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0, result.output
    return session


class _Stopped(Exception):
    """Raised in place of a step of ``mdqa run``, as a crash would stop it."""


def _stop(*args, **kwargs):
    raise _Stopped


def _unfinished_run(workspace, session, *extra):
    """``mdqa run`` stopped after its last run, before ``system_runs.jsonl``
    is written."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_write_runs", _stop)
        result = CliRunner().invoke(main, _run_args(workspace, session, *extra))
    assert isinstance(result.exception, _Stopped), result.output


@pytest.fixture(scope="module")
def unfinished_session(workspace, tmp_path_factory):
    """``finished_session``'s run, stopped before the final write: its journal
    holds every run in the order they finished."""
    session = tmp_path_factory.mktemp("unfinished") / "session"
    _unfinished_run(workspace, session)
    return session


def _copy_session(finished_session, tmp_path):
    session = tmp_path / "session"
    shutil.copytree(finished_session, session)
    return session


def _journal_cuts(size: int, first_line: int) -> dict[str, int]:
    rng = random.Random(4)
    cuts = {
        "empty": 0,
        "mid_first_line": first_line // 2,
        "line_boundary": first_line,
        "one_byte_short": size - 1,
    }
    cuts.update({f"random{i}": rng.randrange(1, size) for i in range(4)})
    return cuts


@pytest.mark.parametrize(
    "cut",
    ["empty", "mid_first_line", "line_boundary", "one_byte_short"]
    + [f"random{i}" for i in range(4)],
)
def test_resume_after_journal_cut_is_byte_identical(
    runner, workspace, finished_session, unfinished_session, tmp_path, cut
):
    """A crash leaves the journal cut at any byte; the resumed session
    redoes the torn run and ends with the same files."""
    session = _copy_session(unfinished_session, tmp_path)
    journal = (unfinished_session / "journal.jsonl").read_bytes()
    offset = _journal_cuts(len(journal), journal.index(b"\n") + 1)[cut]
    (session / "journal.jsonl").write_bytes(journal[:offset])

    _unfinished_run(workspace, session)
    assert (session / "journal.jsonl").read_bytes() == journal
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0, result.output
    assert (session / "system_runs.jsonl").read_bytes() == (
        finished_session / "system_runs.jsonl"
    ).read_bytes()


def test_finished_session_keeps_its_runs_in_one_file(finished_session, unfinished_session):
    """The journal is emptied, not deleted, once ``system_runs.jsonl`` holds
    its lines, sorted by (system, k, question)."""
    assert (finished_session / "journal.jsonl").read_bytes() == b""
    lines = (finished_session / "system_runs.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 * 9 * 2
    assert sorted(lines) == sorted(
        (unfinished_session / "journal.jsonl").read_bytes().splitlines(keepends=True)
    )
    keys = [(r["system_id"], r["k"], r["question_id"]) for r in map(json.loads, lines)]
    assert keys == sorted(keys)


def test_crash_before_the_journal_is_emptied_resumes_to_the_same_bytes(
    runner, workspace, finished_session, tmp_path
):
    """Between the final write and emptying the journal, both files hold
    the same runs; the resume reads their union once."""
    session = tmp_path / "session"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AppendLog, "clear", _stop)
        result = runner.invoke(main, _run_args(workspace, session))
    assert isinstance(result.exception, _Stopped), result.output
    runs = (finished_session / "system_runs.jsonl").read_bytes()
    assert (session / "system_runs.jsonl").read_bytes() == runs
    assert sorted((session / "journal.jsonl").read_bytes().splitlines()) == sorted(
        runs.splitlines()
    )

    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0, result.output
    assert "(0 new, 36 resumed)" in result.output
    assert (session / "system_runs.jsonl").read_bytes() == runs
    assert (session / "journal.jsonl").read_bytes() == b""


def test_resume_parses_each_run_line_once(
    runner, workspace, finished_session, tmp_path, monkeypatch
):
    """The journal's key function keeps each resumed run's call counts, so a
    resume parses each line it reads once and writes the same ledger."""
    session = _copy_session(finished_session, tmp_path)
    parsed = []

    class CountingJson:
        @staticmethod
        def loads(line):
            parsed.append(line)
            return json.loads(line)

    monkeypatch.setattr(cli, "json", CountingJson)
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0 and "(0 new, 36 resumed)" in result.output, result.output
    runs = (finished_session / "system_runs.jsonl").read_bytes()
    assert sorted(parsed) == sorted(runs.splitlines(keepends=True))
    for name in ("system_runs.jsonl", "ledger.json"):
        assert (session / name).read_bytes() == (finished_session / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_resume_with_a_wider_k_grid_equals_a_fresh_session(
    runner, workspace, finished_session, tmp_path, jobs
):
    session = tmp_path / "session"
    for k_grid in ("4", "4,8"):
        args = _run_args(workspace, session, "--jobs", jobs)
        args[args.index("--k-grid") + 1] = k_grid
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert "(18 new, 18 resumed)" in result.output
    assert (session / "system_runs.jsonl").read_bytes() == (
        finished_session / "system_runs.jsonl"
    ).read_bytes()


def test_eval_of_unfinished_session_exits_2(runner, unfinished_session):
    result = runner.invoke(main, ["eval", str(unfinished_session)])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {unfinished_session} is not a completed session directory\n"


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_no_run_is_held_in_memory_at_the_final_write(
    runner, workspace, tmp_path, monkeypatch, jobs
):
    """Each run lives until its journal line is written, not to the end."""
    made, alive = [], []
    run_system, write_runs = cli.run_system, cli._write_runs

    def tracked_run_system(*args, **kwargs):
        run = run_system(*args, **kwargs)
        made.append(weakref.ref(run))
        return run

    def checked_write_runs(journal, path):
        gc.collect()
        alive.extend(ref for ref in made if ref() is not None)
        return write_runs(journal, path)

    monkeypatch.setattr(cli, "run_system", tracked_run_system)
    monkeypatch.setattr(cli, "_write_runs", checked_write_runs)
    result = runner.invoke(main, _run_args(workspace, tmp_path / "session", "--jobs", jobs))
    assert result.exit_code == 0, result.output
    assert len(made) == 36 and alive == []


def _http_invoke(workspace, session, transport, *extra):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDQA_API_KEY", "secret-key-value")
        mp.setattr(backends, "_requests_transport", transport)
        return CliRunner().invoke(main, _run_args(
            workspace, session, "--backend", "http", "--endpoint", "http://localhost:9/v1",
            "--model", "m", *extra,
        ))


def _http_run(workspace, session, transport, *extra):
    result = _http_invoke(workspace, session, transport, *extra)
    assert result.exit_code == 0, result.output


def test_http_index_build_failure_exits_2(workspace, tmp_path):
    """A backend error while the page index is built is reported, not raised."""
    requests = []

    def unauthorized(url, body, headers, timeout):
        requests.append(url)
        return 401, {"error": "invalid api key"}

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDQA_API_KEY", "secret-key-value")
        mp.setattr(backends, "_requests_transport", unauthorized)
        result = CliRunner().invoke(main, _run_args(
            workspace, tmp_path / "session", "--backend", "http",
            "--endpoint", "http://localhost:9/v1", "--model", "m",
        ))
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: the page index could not be built: ")
    assert "failed after 1 attempt: HTTP 401" in result.output
    assert "Traceback" not in result.output
    assert requests and all(url.endswith("/embeddings") for url in requests)


def _recording(transport, requests: list):
    def record(url, body, headers, timeout):
        requests.append((url, body))
        return transport(url, body, headers, timeout)

    return record


@pytest.fixture(scope="module")
def http_session(workspace, tmp_path_factory):
    session = tmp_path_factory.mktemp("http") / "session"
    _http_run(workspace, session, _oracle_transport(workspace))
    return session


def test_http_session_keeps_one_file_per_cache(http_session):
    assert sorted(p.name for p in (http_session / "http_cache").iterdir()) == ["chat.jsonl"]
    assert sorted(p.name for p in (http_session / "index_cache").iterdir()) == [
        "manifest.json", "vectors.f4",
    ]


def test_log_wire_keeps_one_record_per_request(workspace, tmp_path):
    requests = []
    session = tmp_path / "session"
    transport = _recording(_oracle_transport(workspace), requests)
    _http_run(workspace, session, transport, "--log-wire", "--jobs", "4")
    wire = (session / "wire.jsonl").read_text()
    records = [json.loads(line) for line in wire.splitlines()]
    assert {url.rsplit("/", 1)[1] for url, _ in requests} == {"completions", "embeddings"}
    as_text = lambda url, body: json.dumps([url, body], sort_keys=True)  # noqa: E731
    assert sorted(as_text(r["url"], r["request"]) for r in records) == sorted(
        as_text(url, body) for url, body in requests
    )
    assert all(r["status"] == 200 for r in records)
    assert "secret-key-value" not in wire
    assert not (session / "wire").exists()


@pytest.mark.parametrize("cache", ["http_cache/chat.jsonl", "index_cache/vectors.f4"])
def test_resume_after_cache_cut_fetches_only_the_cut_entry(
    workspace, http_session, tmp_path, cache
):
    """A crash cuts a cache's last record short. The resumed session redoes
    its runs from the caches, fetches only the cut entry again, re-appends it
    as it was, and ends with the same runs."""
    data = (http_session / cache).read_bytes()
    if cache.endswith(".jsonl"):
        last = len(data) - data.rstrip(b"\n").rindex(b"\n") - 1
    else:
        last = 32 + 4 * json.loads((http_session / "index_cache/manifest.json").read_text())["dim"]
    ledgers, sent = {}, {}
    for cut in (False, True):
        session = tmp_path / f"cut-{cut}"
        shutil.copytree(http_session, session)
        for name in ("system_runs.jsonl", "ledger.json", "journal.jsonl"):
            (session / name).unlink()  # every run is redone
        if cut:
            (session / cache).write_bytes(data[:len(data) - last // 2])
        sent[cut] = []
        _http_run(workspace, session, _recording(_oracle_transport(workspace), sent[cut]))
        assert (session / "system_runs.jsonl").read_bytes() == (
            http_session / "system_runs.jsonl"
        ).read_bytes()
        assert (session / cache).read_bytes() == data
        ledgers[cut] = json.loads((session / "ledger.json").read_text())
    assert sent[False] == []
    (url, body), = sent[True]
    torn = data[-last:]
    if cache.endswith(".jsonl"):
        assert json.loads(torn)["key"] == backends._hash_request(body)
    else:
        assert [text_key(text) for text in body["input"]] == [torn[:32]]
    # The ledger is a fold of the runs and the logs, which end as they were.
    assert ledgers[True] == ledgers[False]
    chat_log = (http_session / "http_cache/chat.jsonl").read_bytes()
    assert ledgers[False]["network_chat_total"] == chat_log.count(b"\n") > 0


def test_crash_at_run_n_leaves_n_minus_1_journal_lines(runner, workspace, tmp_path, monkeypatch):
    """Each run's journal line is on disk before the next run starts."""
    session = tmp_path / "session"
    crash_at = 5
    seen_at_crash = []

    class CrashingOracle(OracleChatBackend):
        calls = 0

        def chat(self, messages, **params):
            self.calls += 1
            if self.calls == crash_at:  # vanilla_rag: one chat per run
                seen_at_crash.append((session / "journal.jsonl").read_bytes())
                raise RuntimeError("backend crashed")
            return super().chat(messages, **params)

    monkeypatch.setattr(oracle, "OracleChatBackend", CrashingOracle)
    result = runner.invoke(main, _run_args(workspace, session, "--systems", "vanilla_rag"))
    assert isinstance(result.exception, RuntimeError), result.output
    journal = (session / "journal.jsonl").read_bytes()
    assert seen_at_crash == [journal]
    assert journal.endswith(b"\n") and journal.count(b"\n") == crash_at - 1
    assert all(json.loads(line) for line in journal.splitlines())


def test_resume_then_eval_keeps_the_call_ledger(runner, workspace, tmp_path):
    reports = []
    for resumed in (False, True):
        session = tmp_path / f"resumed-{resumed}"
        args = _run_args(workspace, session)
        assert runner.invoke(main, args).exit_code == 0
        if resumed:
            again = runner.invoke(main, args)
            assert again.exit_code == 0 and "0 new" in again.output, again.output
        evaluated = runner.invoke(main, ["eval", str(session)])
        assert evaluated.exit_code in (0, 1), evaluated.output
        reports.append((session / "report.json").read_bytes())
    assert json.loads(reports[0])["ledger"]["chat_total"] > 0
    assert reports[0] == reports[1]


def _replace_line(path, line_no, text):
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no - 1] = text + "\n"
    path.write_text("".join(lines))


def test_bad_journal_line_exits_2(runner, workspace, unfinished_session, tmp_path):
    session = _copy_session(unfinished_session, tmp_path)
    _replace_line(session / "journal.jsonl", 2, '{"system_id": "vanilla')
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 2, result.output
    assert f"{session / 'journal.jsonl'}:2: not JSON" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("field, value", [("system_id", 5), ("question_id", None)])
@pytest.mark.parametrize("file", ["system_runs.jsonl", "journal.jsonl"])
def test_resume_reads_a_runs_ids_by_type(
    runner, workspace, finished_session, unfinished_session, tmp_path, file, field, value
):
    """A resume keys runs by (system, question, k): an id that is not a
    string is a bad record, in a finished session and in a journal."""
    source = finished_session if file == "system_runs.jsonl" else unfinished_session
    session = _copy_session(source, tmp_path)
    record = json.loads((session / file).read_text().splitlines()[1])
    _replace_line(session / file, 2, json.dumps({**record, field: value}))
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 2, result.output
    assert f"{session / file}:2: bad record: {field} must be str" in result.output


def test_bad_questions_line_exits_2(runner, workspace, tmp_path):
    questions = tmp_path / "questions.jsonl"
    questions.write_text((workspace / "questions.jsonl").read_text() + "{oops\n")
    n_lines = len(questions.read_text().splitlines())
    args = _run_args(workspace, tmp_path / "session")
    args[args.index("--questions") + 1] = str(questions)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"{questions}:{n_lines}: not JSON" in result.output


def test_bad_facts_line_exits_2(runner, workspace, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    _replace_line(corpus / "facts.jsonl", 3, '{"stock_symbol": ')
    result = runner.invoke(main, ["ingest", str(corpus)])
    assert result.exit_code == 2, result.output
    assert f"{corpus / 'facts.jsonl'}:3: not JSON" in result.output


def test_run_record_without_system_id_exits_2(runner, finished_session, tmp_path):
    session = _copy_session(finished_session, tmp_path)
    runs = session / "system_runs.jsonl"
    record = json.loads(runs.read_text().splitlines()[4])
    del record["system_id"]
    _replace_line(runs, 5, json.dumps(record))
    result = runner.invoke(main, ["eval", str(session)])
    assert result.exit_code == 2, result.output
    assert f"{runs}:5: missing field 'system_id'" in result.output


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("eval", {"system_id": 7}, "system_id must be a string, got 7"),
        ("cost", {"system_id": 7}, "system_id must be a string, got 7"),
        ("eval", {"question_id": None}, "question_id must be a string, got None"),
        ("eval", {"trace": [1]}, "trace must be a dict or null, got [1]"),
        ("eval", {"plan_source": 7}, "plan_source must be a str or null, got 7"),
        ("eval", {"retrieved_pages": [[[1], 2]]}, "retrieved_pages entries must be"),
        ("eval", {"retrieved_pages": [["d", "2"]]}, "retrieved_pages entries must be"),
        ("eval", {"predicted": {"kind": "yesno", "value": 5, "raw_text": "5"}},
         "a yesno answer must be 'Yes' or 'No', got 5"),
        ("eval", {"predicted": {"kind": "count", "value": 5, "raw_text": "5"}},
         "unknown answer kind 'count'"),
        ("eval", {"predicted": {"kind": "multi", "value": [["A", 1.0]], "raw_text": "A: 1"}},
         "a multi answer requires at least 2 labeled values"),
    ],
    ids=["eval_system_id", "cost_system_id", "question_id", "trace", "plan_source",
         "page_doc_id", "page_number", "yesno_label", "answer_kind", "multi_one_part"],
)
def test_bad_run_record_field_exits_2(
    runner, finished_session, tmp_path, command, fields, message
):
    """A run record's fields are checked where ``eval`` and ``cost`` read it."""
    session = _copy_session(finished_session, tmp_path)
    runs = session / "system_runs.jsonl"
    record = json.loads(runs.read_text().splitlines()[4])
    _replace_line(runs, 5, json.dumps({**record, **fields}))
    result = runner.invoke(main, [command, str(session)])
    assert result.exit_code == 2, result.output
    assert f"error: {runs}:5: bad record: {message}" in result.output


def _codegen_run_and_its_question(session: Path) -> tuple[int, dict, int, dict]:
    """The 1-based line and record of the session's first codegen_docs_pager
    run, and those of its question."""
    runs, questions = (
        [json.loads(line) for line in (session / name).read_text().splitlines()]
        for name in ("system_runs.jsonl", "questions.jsonl")
    )
    run_line = next(i for i, r in enumerate(runs, 1) if r["system_id"] == "codegen_docs_pager")
    run = runs[run_line - 1]
    question_line = next(
        i for i, q in enumerate(questions, 1) if q["question_id"] == run["question_id"]
    )
    return run_line, run, question_line, questions[question_line - 1]


@pytest.mark.parametrize(
    "file, fields, exit_code, expected",
    [
        ("system_runs.jsonl", {"trace": {"builtin_calls": [[1], 2]}}, 2,
         "bad record: trace.builtin_calls must be [name, args, result] string triples, "
         "got [[1], 2]"),
        ("system_runs.jsonl", {"trace": {"builtin_calls": [["a", "b"]]}}, 2,
         "bad record: trace.builtin_calls must be"),
        ("system_runs.jsonl", {"trace": {"builtin_calls": {}}}, 2,
         "bad record: trace.builtin_calls must be"),
        ("questions.jsonl", {"text": ""}, 0, "Question: \nGold: "),
    ],
    ids=["builtin_calls_not_triples", "builtin_call_pair", "builtin_calls_map", "empty_text"],
)
def test_trace_of_an_odd_record(
    runner, finished_session, tmp_path, file, fields, exit_code, expected
):
    """``trace`` prints a run's builtin calls and its question's first line:
    a record it cannot print is a bad record, and an empty question prints
    an empty line."""
    session = _copy_session(finished_session, tmp_path)
    run_line, run, question_line, question = _codegen_run_and_its_question(session)
    line, record = (run_line, run) if file == "system_runs.jsonl" else (question_line, question)
    _replace_line(session / file, line, json.dumps({**record, **fields}))
    result = runner.invoke(
        main, ["trace", str(session), run["question_id"], run["system_id"], str(run["k"])]
    )
    assert result.exit_code == exit_code, result.output
    assert expected in result.output
    if exit_code == 2:
        assert f"error: {session / file}:{line}: " in result.output


@pytest.mark.parametrize(
    "corpus", [5, True, ["a"], "", None], ids=["int", "bool", "list", "empty", "null"]
)
@pytest.mark.parametrize("command", ["eval", "trace"])
def test_a_session_config_without_a_corpus_path_exits_2(
    runner, finished_session, tmp_path, command, corpus
):
    """``eval`` and ``trace`` read the corpus that ``config.json`` names when
    no ``--corpus`` is given: anything but a path there exits 2."""
    session = _copy_session(finished_session, tmp_path)
    config = json.loads((session / "config.json").read_text())
    (session / "config.json").write_text(json.dumps({**config, "corpus": corpus}))
    _, run, _, _ = _codegen_run_and_its_question(session)
    args = [command, str(session)]
    if command == "trace":
        args += [run["question_id"], run["system_id"], str(run["k"])]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "corpus path unknown; pass --corpus" in result.output


def test_eval_and_trace_read_only_the_collection(runner, workspace, finished_session, tmp_path):
    """``eval`` and ``trace`` read only the corpus's ``collection.jsonl``: a
    corpus directory without the fact table scores the same bytes."""
    collection_only = tmp_path / "collection-only"
    collection_only.mkdir()
    shutil.copy(workspace / "corpus" / "collection.jsonl", collection_only)
    outputs = []
    for corpus in (workspace / "corpus", collection_only):
        session = tmp_path / corpus.name / "session"
        shutil.copytree(finished_session, session)
        evaluated = runner.invoke(main, ["eval", "--corpus", str(corpus), str(session)])
        assert evaluated.exit_code == 0, evaluated.output
        _, run, _, _ = _codegen_run_and_its_question(session)
        traced = runner.invoke(
            main,
            ["trace", "--corpus", str(corpus), str(session),
             run["question_id"], run["system_id"], str(run["k"])],
        )
        assert traced.exit_code == 0, traced.output
        outputs.append(((session / "report.json").read_bytes(), traced.output))
    assert outputs[0] == outputs[1]


def test_eval_of_a_run_naming_a_page_not_in_the_corpus_exits_2(
    runner, finished_session, tmp_path
):
    session = _copy_session(finished_session, tmp_path)
    runs = session / "system_runs.jsonl"
    record = json.loads(runs.read_text().splitlines()[4])
    doc_id = record["retrieved_pages"][0][0]
    record["retrieved_pages"][0] = [doc_id, 999]
    _replace_line(runs, 5, json.dumps(record))
    result = runner.invoke(main, ["eval", str(session)])
    assert result.exit_code == 2, result.output
    assert f"doc '{doc_id}' has no page 999" in result.output
    assert "Traceback" not in result.output


_ODD_VALUES = (None, True, 3, 2.5, "", "x", [], {}, [[1], 2], ["a"])


def _field_paths(record: dict, prefix: tuple = ()) -> list[tuple]:
    """The path of every field of ``record``, fields of nested objects too."""
    paths = []
    for name, value in record.items():
        paths.append(prefix + (name,))
        if isinstance(value, dict):
            paths.extend(_field_paths(value, prefix + (name,)))
    return paths


def _with_field(record: dict, path: tuple, value) -> dict:
    record = json.loads(json.dumps(record))
    owner = record
    for name in path[:-1]:
        owner = owner[name]
    owner[path[-1]] = value
    return record


@pytest.fixture(scope="module")
def odd_value_cases(finished_session):
    """Every (file, line, record, field path) that the session-mutation test
    may change: one vanilla_rag run, one codegen_docs_pager run, the
    question both answer, and the top-level fields of ``config.json``
    (line None: the file is one JSON object)."""
    run_line, run, question_line, question = _codegen_run_and_its_question(finished_session)
    runs = (finished_session / "system_runs.jsonl").read_text().splitlines()
    vanilla_line, vanilla = next(
        (i, r) for i, r in enumerate(map(json.loads, runs), 1)
        if r["system_id"] == "vanilla_rag" and r["question_id"] == run["question_id"]
    )
    config = json.loads((finished_session / "config.json").read_text())
    return [
        (file, line, record, path)
        for file, line, record in (
            ("system_runs.jsonl", run_line, run),
            ("system_runs.jsonl", vanilla_line, vanilla),
            ("questions.jsonl", question_line, question),
        )
        for path in _field_paths(record)
    ] + [("config.json", None, config, (name,)) for name in config]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), value=st.sampled_from(_ODD_VALUES))
def test_a_session_with_one_odd_field_exits_0_1_or_2(
    workspace, finished_session, odd_value_cases, tmp_path_factory, data, value
):
    """Whatever one field of a run or question record or of the session's
    config holds, ``eval``, ``cost``, ``trace`` and a resuming ``run``
    finish with an exit code, never a traceback."""
    file, line, record, path = data.draw(st.sampled_from(odd_value_cases))
    session = tmp_path_factory.mktemp("odd")
    for name in ("config.json", "ledger.json", "questions.jsonl", "system_runs.jsonl"):
        shutil.copyfile(finished_session / name, session / name)
    changed = json.dumps(_with_field(record, path, value))
    if line is None:
        (session / file).write_text(changed)
    else:
        _replace_line(session / file, line, changed)
    # A changed question or config is traced through the first case's codegen run.
    run = record if file == "system_runs.jsonl" else odd_value_cases[0][2]
    runner = CliRunner()
    for args in (
        ["eval", str(session)],
        ["cost", str(session)],
        ["trace", str(session), run["question_id"], run["system_id"], str(run["k"])],
        _run_args(workspace, session),
    ):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, (SystemExit, type(None))), (path, value, args)
        assert result.exit_code in (0, 1, 2), result.output


def _read_corpus_file(path: Path) -> list[dict]:
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else list(map(json.loads, text.splitlines()))


def _write_corpus_file(path: Path, records: list[dict]) -> None:
    if path.suffix == ".json":
        path.write_text(json.dumps(records))
    else:
        path.write_text("".join(json.dumps(record) + "\n" for record in records))


@pytest.fixture(scope="module")
def odd_corpus_cases(tmp_path_factory):
    """A 3-company corpus with a compound-value and a multi-document
    question, and every (file, record, field path, value) that the
    corpus-mutation test may set. The fields are those of the compound
    question's gold document and its first page, of a fact its formula reads,
    of its compound metric and of a reported metric. The first cases make a
    compound metric's formula name the metric itself, which ``ingest`` and
    ``run`` must refuse with exit 2."""
    root = tmp_path_factory.mktemp("odd_corpus")
    runner = CliRunner()
    result = runner.invoke(main, ["synth", str(root / "corpus"), "--kind", "clean", "--companies", "3"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "gen", "--corpus", str(root / "corpus"), "--out", str(root / "questions.jsonl"),
        "--templates", "cve1,md1", "--count", "1", "--dataset-year", "2023", "--seed", "7",
        "--metrics", "cve1=total_debt",
    ])
    assert result.exit_code == 0, result.output
    question = json.loads((root / "questions.jsonl").read_text().splitlines()[0])
    assert question["template_id"] == "cve1"
    corpus = {
        name: _read_corpus_file(root / "corpus" / name)
        for name in ("collection.jsonl", "facts.jsonl", "metrics.json")
    }
    doc = next(i for i, d in enumerate(corpus["collection.jsonl"]) if d["doc_id"] == question["gold_docs"][0])
    fact = next(
        i for i, f in enumerate(corpus["facts.jsonl"])
        if (f["stock_symbol"], f["fiscal_year"], f["metric_id"])
        == (question["bindings"]["symbol"], question["dataset_year"], "short_term_debt")
    )
    metric = {m["metric_id"]: i for i, m in enumerate(corpus["metrics.json"])}
    fields = [
        ("collection.jsonl", doc, path) for path in _field_paths(corpus["collection.jsonl"][doc])
    ] + [
        ("collection.jsonl", doc, ("pages", 0, name)) for name in corpus["collection.jsonl"][doc]["pages"][0]
    ] + [
        ("facts.jsonl", fact, path) for path in _field_paths(corpus["facts.jsonl"][fact])
    ] + [
        ("metrics.json", metric[name], path)
        for name in ("total_debt", "short_term_debt")
        for path in _field_paths(corpus["metrics.json"][metric[name]])
    ]
    cases = [
        ("metrics.json", metric[name], ("formula",), formula, (2,))
        for name in ("total_debt", "revenue_per_employee")
        for formula in (f"{name} + 1", f"short_term_debt + {name}")
    ] + [
        (file, record, path, value, (0, 1, 2))
        for file, record, path in fields for value in _ODD_VALUES
    ]
    return root, corpus, cases


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_corpus_with_one_odd_field_exits_0_1_or_2(odd_corpus_cases, tmp_path_factory, data):
    """Whatever one field of a corpus document, page, fact or metric holds,
    ``ingest`` and a ``run`` of every system over the corpus finish with an
    exit code, never a traceback."""
    root, corpus, cases = odd_corpus_cases
    file, record, path, value, exit_codes = data.draw(st.sampled_from(cases))
    work = tmp_path_factory.mktemp("odd_corpus_case")
    for name, records in corpus.items():
        if name == file:
            records = list(records)
            records[record] = _with_field(records[record], path, value)
        _write_corpus_file(work / name, records)
    runner = CliRunner()
    for args in (
        ["ingest", str(work)],
        ["run", "--corpus", str(work), "--questions", str(root / "questions.jsonl"),
         "--session", str(work / "session"), "--k-grid", "4"],
    ):
        result = runner.invoke(main, args)
        assert isinstance(result.exception, (SystemExit, type(None))), (file, path, value, args)
        assert result.exit_code in exit_codes, result.output


def test_run_on_a_session_in_use_exits_2(runner, workspace, unfinished_session, tmp_path):
    """A session takes one ``mdqa run`` at a time. A ``flock`` lock belongs
    to an open file description, so this process can hold the lock that a
    second run finds taken."""
    session = _copy_session(unfinished_session, tmp_path)
    before = _files(session)
    fd = os.open(session, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        result = runner.invoke(main, _run_args(workspace, session))
    finally:
        os.close(fd)
    assert result.exit_code == 2, result.output
    assert f"error: session {session} is in use by another mdqa run" in result.output
    assert _files(session) == before
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("first, then", [("http", "oracle"), ("oracle", "http")])
def test_resume_with_other_backend_exits_2(
    runner, workspace, http_session, finished_session, tmp_path, first, then
):
    """One session never mixes backends: the resume stops before it writes."""
    session = _copy_session(http_session if first == "http" else finished_session, tmp_path)
    before = _files(session)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDQA_API_KEY", "k")
        mp.setattr(backends, "_requests_transport", None)  # no request is made
        result = runner.invoke(main, _run_args(
            workspace, session, "--backend", then, "--endpoint", "http://localhost:9/v1",
            "--model", "m",
        ))
    assert result.exit_code == 2, result.output
    assert f"{session} was run with --backend {first}" in result.output
    assert _files(session) == before


def test_index_cache_from_other_backend_exits_2(runner, workspace, http_session, tmp_path):
    session = _copy_session(http_session, tmp_path)
    manifest = session / "index_cache" / "manifest.json"
    manifest.write_text(json.dumps({"backend_fingerprint": "http:other", "dim": 512}))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDQA_API_KEY", "k")
        result = runner.invoke(main, _run_args(
            workspace, session, "--backend", "http", "--endpoint", "http://localhost:9/v1",
            "--model", "m",
        ))
    assert result.exit_code == 2, result.output
    assert f"{manifest}: cache built with 'http:other'" in result.output


def test_http_backend_without_endpoint_exits_2(runner, workspace, tmp_path):
    result = runner.invoke(main, _run_args(workspace, tmp_path / "session", "--backend", "http"))
    assert result.exit_code == 2, result.output
    assert "http backend requires endpoint and model" in result.output


@pytest.mark.parametrize(
    "args,message",
    [
        (["--k-grid", "4,x"], "--k-grid expects comma-separated integers, got '4,x'"),
        (["--k-grid", "4", "--systems", "vanilla_rag,nope"], "unknown system 'nope'"),
    ],
    ids=["k_grid", "systems"],
)
def test_run_bad_list_exits_2(runner, workspace, tmp_path, args, message):
    result = runner.invoke(main, _run_args(workspace, tmp_path / "session") + args)
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_gen_bad_num_years_exits_2(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        [
            "gen",
            "--corpus", str(workspace / "corpus"),
            "--out", str(tmp_path / "q.jsonl"),
            "--templates", "md1",
            "--dataset-year", "2023",
            "--num-years", "2,x",
        ],
    )
    assert result.exit_code == 2, result.output
    assert "--num-years expects comma-separated integers, got '2,x'" in result.output


def _gen_args(workspace, tmp_path, *extra):
    return [
        "gen",
        "--corpus", str(workspace / "corpus"),
        "--out", str(tmp_path / "q.jsonl"),
        "--dataset-year", "2023",
        *extra,
    ]


def _stability_args(workspace, tmp_path, *extra):
    return [
        "stability", "--corpus", str(workspace / "corpus"), "--session", str(tmp_path / "s"),
        *extra,
    ]


@pytest.mark.parametrize(
    "make_args,option",
    [
        (lambda ws, tmp: ["synth", str(tmp / "c"), "--years", "2023:2019"], "--years"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md4", "--company-list-size", "0"),
         "--company-list-size"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md4", "--company-list-size", "-2"),
         "--company-list-size"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md1", "--num-years", "0"),
         "--num-years"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--n-queries", "0"), "--n-queries"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--k-grid", "4,0"), "--k-grid"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md1", "--count", "0"), "--count"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md1", "--count", "-3"), "--count"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2022:2023",
                                         "--templates", "ve2", "--count", "0"),
         "--count"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2022:2023",
                                         "--templates", "ve2", "--k", "0"),
         "--k"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2023", "--templates", "ve2"),
         "--variant-years"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2023,2023",
                                         "--templates", "ve2"),
         "--variant-years"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--jobs", "0"), "--jobs"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--jobs", "-2"), "--jobs"),
        # Lists with an empty or repeated entry.
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--systems", "vanilla_rag,vanilla_rag"),
         "--systems"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--systems", ","), "--systems"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--k-grid", "4,4"), "--k-grid"),
        (lambda ws, tmp: _run_args(ws, tmp / "s", "--k-grid", "4,,8"), "--k-grid"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "ve1,ve1", "--count", "2"),
         "--templates"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "ve1,"), "--templates"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md1", "--num-years", "2,2"),
         "--num-years"),
        (lambda ws, tmp: _gen_args(ws, tmp, "--templates", "md1",
                                   "--metrics", "md1=dividends_paid,dividends_paid"),
         "--metrics"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2022:2023",
                                         "--templates", "ve2,ve2"),
         "--templates"),
        (lambda ws, tmp: _stability_args(ws, tmp, "--variant-years", "2022:2023",
                                         "--templates", "ve2",
                                         "--systems", "vanilla_rag,vanilla_rag"),
         "--systems"),
    ],
    ids=["years_reversed", "company_list_0", "company_list_neg", "num_years_0",
         "n_queries_0", "k_grid_0", "gen_count_0", "gen_count_neg",
         "stability_count_0", "stability_k_0", "stability_one_year", "stability_same_year",
         "jobs_0", "jobs_neg",
         "run_systems_repeated", "run_systems_empty", "k_grid_repeated", "k_grid_empty_entry",
         "gen_templates_repeated", "gen_templates_empty_entry", "num_years_repeated",
         "metrics_repeated", "stability_templates_repeated", "stability_systems_repeated"],
)
def test_bad_numeric_option_exits_2(runner, workspace, tmp_path, make_args, option):
    result = runner.invoke(main, make_args(workspace, tmp_path))
    assert result.exit_code == 2, result.output
    assert f"error: {option} " in result.output
    assert not (tmp_path / "q.jsonl").exists() and not (tmp_path / "s").exists()


def _second_question_exits_2(
    runner, workspace, finished_session, tmp_path, fields, message, run_only=False
):
    """Give the workspace's second question ``fields``: ``run``, ``eval`` and
    ``trace`` each exit 2 with ``message`` about line 2, and ``run`` writes
    nothing. With ``run_only`` (an edit of the bindings), only ``run``, which
    realises each question, exits 2: ``eval`` and ``trace`` read no bindings
    and exit 0."""
    lines = (workspace / "questions.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **fields})
    text = "\n".join(lines) + "\n"
    questions = tmp_path / "questions.jsonl"
    questions.write_text(text)
    session = _copy_session(finished_session, tmp_path)
    (session / "questions.jsonl").write_text(text)
    run_args = _run_args(workspace, tmp_path / "s")
    run_args[run_args.index("--questions") + 1] = str(questions)
    question_id = json.loads(lines[0])["question_id"]
    for args, path in (
        (run_args, questions),
        (["eval", str(session)], session / "questions.jsonl"),
        (["trace", str(session), question_id, "vanilla_rag", "4"], session / "questions.jsonl"),
    ):
        result = runner.invoke(main, args)
        if run_only and args is not run_args:
            assert result.exit_code == 0, result.output
            continue
        assert result.exit_code == 2, result.output
        assert f"error: {path}:2: {message}" in result.output
    assert not (tmp_path / "s").exists()


def test_repeated_question_id_exits_2(runner, workspace, finished_session, tmp_path):
    """A question set holds each ``question_id`` once."""
    question_id = json.loads((workspace / "questions.jsonl").read_text().splitlines()[0])[
        "question_id"
    ]
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path, {"question_id": question_id},
        f"bad record: question_id {question_id!r} is held twice",
    )


@pytest.mark.parametrize(
    "field, value", [("question_id", 7), ("template_id", None), ("text", ["q"])]
)
def test_non_string_question_field_exits_2(
    runner, workspace, finished_session, tmp_path, field, value
):
    """``question_id``, ``template_id`` and ``text`` are strings, checked when
    the file is read, before any run."""
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path, {field: value},
        f"bad record: {field} must be a string",
    )


@pytest.mark.parametrize("name", ["symbol", "metric"])
def test_question_without_a_binding_its_rule_reads_exits_2(
    runner, workspace, finished_session, tmp_path, name
):
    """``run`` refuses a question whose bindings lack a name its template
    reads, before any run."""
    second = json.loads((workspace / "questions.jsonl").read_text().splitlines()[1])
    assert second["template_id"] == "ve2"
    bindings = {key: value for key, value in second["bindings"].items() if key != name}
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path, {"bindings": bindings},
        f"missing field 'bindings.{name}'", run_only=True,
    )


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("symbol", None, "unknown stock symbol None"),
        ("symbol", True, "unknown stock symbol True"),
        ("metric", 3, "unknown metric_id 3"),
        ("year", True, "no fact for ({symbol}, True, {metric})"),
        ("year", "2023", "no fact for ({symbol}, '2023', {metric})"),
    ],
    ids=["symbol-None", "symbol-True", "metric-3", "year-True", "year-2023"],
)
def test_question_binding_of_the_wrong_type_exits_2(
    runner, workspace, finished_session, tmp_path, name, value, message
):
    """``run`` refuses a question with a binding of a type no fact is held
    under, naming the value, before any run."""
    second = json.loads((workspace / "questions.jsonl").read_text().splitlines()[1])
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path,
        {"bindings": {**second["bindings"], name: value}},
        "bad record: " + message.format(**second["bindings"]), run_only=True,
    )


# The fields of a question record that ``realise_question`` computes.
_REALISED_FIELDS = ("text", "slots", "gold", "gold_docs", "gold_pages")
_DROPPED = object()


@pytest.fixture(scope="module")
def question_values(workspace):
    """The workspace's question records, and the values each realised field
    and each binding name holds across them."""
    records = [json.loads(line) for line in (workspace / "questions.jsonl").read_text().splitlines()]
    values: dict = {}
    for record in records:
        for name in _REALISED_FIELDS:
            values.setdefault(name, []).append(record[name])
        for name, value in record["bindings"].items():
            values.setdefault(name, []).append(value)
    return records, values


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_question_that_is_not_its_realisation_exits_2(
    workspace, question_values, tmp_path_factory, data
):
    """A question with one realised field or one binding replaced (by another
    question's value or an odd one) or dropped is no longer what its
    template and bindings make of the corpus: ``run`` exits 2 naming the
    record's ``path:line`` and creates no session. ``extreme`` is only
    replaced, not dropped: an md4 question without it is the same question."""
    records, values = question_values
    line = data.draw(st.integers(1, len(records)), label="line")
    record = json.loads(json.dumps(records[line - 1]))
    bindings = record["bindings"]
    name = data.draw(st.sampled_from([*_REALISED_FIELDS, *bindings]), label="field or binding")
    owner = record if name in _REALISED_FIELDS else bindings
    old = owner[name]
    new = data.draw(
        st.sampled_from([_DROPPED, *_ODD_VALUES, *values[name]]).filter(
            lambda value: value != old if value is not _DROPPED else name != "extreme"
        ),
        label="value",
    )
    if new is _DROPPED:
        del owner[name]
    else:
        owner[name] = new
    work = tmp_path_factory.mktemp("edited")
    questions = work / "questions.jsonl"
    lines = [json.dumps(r) for r in records]
    lines[line - 1] = json.dumps(record)
    questions.write_text("\n".join(lines) + "\n")
    args = _run_args(workspace, work / "s")
    args[args.index("--questions") + 1] = str(questions)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"error: {questions}:{line}: " in result.output
    assert not (work / "s").exists()


def test_a_question_over_a_million_years_exits_2_at_once(runner, workspace, tmp_path):
    """An md1 question whose ``num_year`` is 1,000,000 reads a fact the
    corpus does not hold: ``run`` refuses it as it reads the file, instead
    of answering it with a reply of a million lines."""
    lines = (workspace / "questions.jsonl").read_text().splitlines()
    line, record = next(
        (i, r) for i, r in enumerate(map(json.loads, lines), 1) if r["template_id"] == "md1"
    )
    record["bindings"]["num_year"] = 1_000_000
    lines[line - 1] = json.dumps(record)
    questions = tmp_path / "questions.jsonl"
    questions.write_text("\n".join(lines) + "\n")
    args = _run_args(workspace, tmp_path / "s")
    args[args.index("--questions") + 1] = str(questions)
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 2, result.output
    bindings = record["bindings"]
    first_year = record["dataset_year"] - 1_000_000 + 1
    assert (
        f"error: {questions}:{line}: bad record: no fact for "
        f"({bindings['symbol']}, {first_year}, {bindings['metric']})"
    ) in result.output
    assert not (tmp_path / "s").exists()


def _edited_question_exits_2(
    runner, workspace, tmp_path, template_id, name, edit, message, owner="bindings"
):
    """Replace ``owner.name`` of the workspace's first ``template_id``
    question by ``edit`` of its value: ``run`` exits 2 with ``message`` about
    its line and creates no session."""
    lines = (workspace / "questions.jsonl").read_text().splitlines()
    line, record = next(
        (i, r) for i, r in enumerate(map(json.loads, lines), 1) if r["template_id"] == template_id
    )
    record[owner][name] = edit(record[owner][name])
    lines[line - 1] = json.dumps(record)
    questions = tmp_path / "questions.jsonl"
    questions.write_text("\n".join(lines) + "\n")
    args = _run_args(workspace, tmp_path / "s")
    args[args.index("--questions") + 1] = str(questions)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"error: {questions}:{line}: bad record: {message}" in result.output
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("convert", [int, float])
def test_a_binding_equal_but_of_another_type_exits_2(runner, workspace, tmp_path, convert):
    """A binding is compared with its realisation by JSON type too: an md4
    ``tie`` of ``0`` is not ``false``, though Python finds them equal."""
    _edited_question_exits_2(
        runner, workspace, tmp_path, "md4", "tie", convert,
        "bindings is not what its template and bindings make",
    )


def test_a_slot_equal_but_of_another_type_exits_2(runner, workspace, tmp_path):
    """Slots are compared with their realisation by JSON type too: a ve2
    ``slots.year`` of ``2023.0`` is not ``2023``."""
    _edited_question_exits_2(
        runner, workspace, tmp_path, "ve2", "year", float,
        "slots is not what its template and bindings make", owner="slots",
    )


@pytest.mark.parametrize(
    "template_id, name, value, error",
    [
        ("md1", "num_year", "3", "unsupported operand type(s) for -: 'int' and 'str'"),
        ("md4", "symbols", 5, "'int' object is not iterable"),
        ("ve2", "year", [2023], "unhashable type: 'list'"),
    ],
    ids=["md1-num_year-string", "md4-symbols-int", "ve2-year-list"],
)
def test_a_binding_its_template_cannot_read_exits_2(
    runner, workspace, tmp_path, template_id, name, value, error
):
    """A binding of a type its template cannot compute with is refused in
    words that name the bindings and the template."""
    _edited_question_exits_2(
        runner, workspace, tmp_path, template_id, name, lambda _: value,
        f"bindings do not fit template {template_id}: {error}",
    )


@pytest.mark.parametrize("value", ["x", "lowest", None, True])
def test_an_extreme_other_than_the_templates_own_exits_2(runner, workspace, tmp_path, value):
    """md4 asks for the highest: an ``extreme`` binding that says anything
    else is refused, though the lookup reads anything but ``"lowest"`` as
    highest."""
    _edited_question_exits_2(
        runner, workspace, tmp_path, "md4", "extreme", lambda _: value,
        f"bindings.extreme must be 'highest', got {value!r}",
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"template_id": "ve9"}, "template_id 've9' names no template"),
        ({"gold_pages": [[["d"], 2]]},
         "gold_pages entries must be [doc_id, page_number], got [['d'], 2]"),
    ],
    ids=["no_template", "gold_page_doc_id"],
)
def test_bad_question_field_exits_2(
    runner, workspace, finished_session, tmp_path, fields, message
):
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path, fields, f"bad record: {message}"
    )


_NUMBER_12 = {"kind": "number", "value": "12", "raw_text": "12"}


@pytest.mark.parametrize(
    "name, line, fields, command, message",
    [
        ("session/system_runs.jsonl", 5, {"k": "4"}, "eval", "k must be int, got '4'"),
        ("session/system_runs.jsonl", 5, {"k": 4.7}, "eval", "k must be int, got 4.7"),
        ("session/system_runs.jsonl", 5, {"k": "4"}, "run", "k must be int, got '4'"),
        ("session/system_runs.jsonl", 5, {"chat_calls": "1"}, "cost",
         "chat_calls must be int, got '1'"),
        ("session/system_runs.jsonl", 5, {"embed_calls": True}, "eval",
         "embed_calls must be int, got True"),
        ("session/system_runs.jsonl", 5, {"predicted": _NUMBER_12}, "eval",
         "value must be int or float, got '12'"),
        ("session/system_runs.jsonl", 5, {"predicted": {**_NUMBER_12, "value": True}}, "eval",
         "value must be int or float, got True"),
        ("session/questions.jsonl", 2, {"dataset_year": "2023"}, "eval",
         "dataset_year must be int, got '2023'"),
        ("session/questions.jsonl", 2, {"complexity_tags": "x"}, "eval",
         "complexity_tags must be list, got 'x'"),
        ("session/questions.jsonl", 2, {"gold_docs": "abcd-10k-2023"}, "eval",
         "questions.jsonl:2: bad record: gold_docs must be list, got 'abcd-10k-2023'"),
        ("corpus/facts.jsonl", 3, {"fiscal_year": "2019"}, "ingest",
         "record 3: fiscal_year must be int, got '2019'"),
        ("corpus/facts.jsonl", 3, {"source_pages": "4"}, "ingest",
         "record 3: source_pages must be list, got '4'"),
        ("corpus/facts.jsonl", 3, {"stock_symbol": 5}, "ingest",
         "record 3: stock_symbol must be str, got 5"),
        ("corpus/facts.jsonl", 3, {"metric_id": 5}, "ingest",
         "record 3: metric_id must be str, got 5"),
        ("corpus/facts.jsonl", 3, {"source_doc_id": 5}, "ingest",
         "record 3: source_doc_id must be str, got 5"),
        ("corpus/collection.jsonl", 1, {"company_name": None}, "ingest",
         "collection.jsonl:1: bad record: company_name must be str, got None"),
    ],
    ids=["k_string", "k_float", "resume_k_string", "chat_calls", "embed_calls_bool",
         "number_string", "number_bool", "dataset_year", "complexity_tags", "gold_docs",
         "fiscal_year", "source_pages", "fact_stock_symbol", "fact_metric_id",
         "fact_source_doc_id", "company_name"],
)
def test_a_value_of_the_wrong_type_exits_2(
    runner, workspace, finished_session, tmp_path, name, line, fields, command, message
):
    """Numbers and strings are read by type: an integer is an ``int`` and not
    a ``bool``, and nothing is coerced."""
    session = _copy_session(finished_session, tmp_path)
    shutil.copytree(workspace / "corpus", tmp_path / "corpus")
    path = tmp_path / name
    record = json.loads(path.read_text().splitlines()[line - 1])
    _replace_line(path, line, json.dumps({**record, **fields}))
    args = {
        "eval": ["eval", str(session)],
        "cost": ["cost", str(session)],
        "run": _run_args(workspace, session),
        "ingest": ["ingest", str(tmp_path / "corpus")],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("field", ["metric_id", "display_name", "kind"])
def test_a_metric_field_that_is_not_a_string_exits_2(runner, workspace, tmp_path, field):
    shutil.copytree(workspace / "corpus", tmp_path / "corpus")
    path = tmp_path / "corpus" / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics[0][field] = 5
    path.write_text(json.dumps(metrics))
    result = runner.invoke(main, ["ingest", str(tmp_path / "corpus")])
    assert result.exit_code == 2, result.output
    assert f"metrics.json: {field} must be str, got 5" in result.output


def test_question_with_bindings_not_an_object_exits_2(
    runner, workspace, finished_session, tmp_path
):
    _second_question_exits_2(
        runner, workspace, finished_session, tmp_path, {"bindings": ["symbol"]},
        "bad record: bindings must be an object",
    )


def _child_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a new interpreter that imports this mdqa."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


# What only ``run`` and ``stability`` execute: the pipelines and the oracle.
_RUN_ONLY_MODULES = ("mdqa.qasystems", "mdqa.planlang", "mdqa.oracle", "mdqa.prompts")


def test_cli_import_leaves_numpy_out():
    """The session benchmark's launcher imports these two modules before
    every command; only a command that embeds or ranks loads numpy, only
    ``run`` and ``stability`` load the pipelines and the oracle, and only
    those and ``synth`` load ``mdqa.synth``."""
    code = (
        "import json, sys, mdqa.backends, mdqa.cli\n"
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('mdqa.')]))"
    )
    result = _child_python(code)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert not loaded & {"numpy", "mdqa.synth", *_RUN_ONLY_MODULES}, sorted(loaded)


@pytest.mark.parametrize(
    "chosen, openblas",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "4"}, "4"), ({"GOTO_NUM_THREADS": "2"}, "None"),
     ({"OMP_NUM_THREADS": "2"}, "None")],
    ids=["none", "openblas", "goto", "omp"],
)
def test_cli_import_pins_one_blas_thread_unless_one_was_chosen(monkeypatch, chosen, openblas):
    """mdqa does no threaded BLAS work, so importing the CLI asks OpenBLAS
    for one thread, unless one of the variables that choose its thread count
    is set."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in chosen.items():
        monkeypatch.setenv(name, value)
    result = _child_python('import os, mdqa.cli; print(os.environ.get("OPENBLAS_NUM_THREADS"))')
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{openblas}\n"


def test_readers_import_no_pipeline_code():
    """Scoring a session loads no pipeline, and the backends load only the
    file helpers."""
    code = (
        "import importlib, json, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mdqa.'))))"
    )
    loaded = {}
    for module in ("mdqa.evaluation", "mdqa.backends"):
        result = _child_python(code, module)
        assert result.returncode == 0, result.stderr
        loaded[module] = set(json.loads(result.stdout)) - {module}
    pipelines = {"mdqa.qasystems", "mdqa.planlang", "mdqa.retrieval", "mdqa.backends"}
    assert not loaded["mdqa.evaluation"] & pipelines, loaded["mdqa.evaluation"]
    assert loaded["mdqa.backends"] == {"mdqa.files"}


# Runs each command of argv[1] (a JSON list of argument lists) in process,
# with the modules of argv[2] (a JSON list of names) made unimportable, and
# exits with the first nonzero exit code.
_WITHOUT_MODULES = """
import json, sys
for name in json.loads(sys.argv[2]):
    sys.modules[name] = None  # an import of it now raises ImportError
from mdqa.cli import main
for args in json.loads(sys.argv[1]):
    try:
        main.main(args=args, prog_name="mdqa", standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            sys.exit(f"mdqa {args[0]} exited {exc.code}")
"""


def _run_without(modules: tuple[str, ...], finished_session, tmp_path) -> None:
    """Run ``synth``, ``gen``, ``ingest``, ``eval``, ``cost`` and ``trace``
    in one child process in which ``modules`` cannot be imported."""
    session = _copy_session(finished_session, tmp_path)
    question_id = json.loads((session / "questions.jsonl").read_text().splitlines()[0])[
        "question_id"
    ]
    corpus = str(tmp_path / "corpus")
    commands = [
        ["synth", corpus, "--companies", "3"],
        ["gen", "--corpus", corpus, "--out", str(tmp_path / "q.jsonl"), "--templates", "ve1",
         "--count", "2", "--dataset-year", "2023"],
        ["ingest", corpus],
        ["eval", str(session)],
        ["cost", str(session)],
        ["trace", str(session), question_id, "vanilla_rag", "4"],
    ]
    result = _child_python(_WITHOUT_MODULES, json.dumps(commands), json.dumps(modules))
    assert result.returncode == 0, result.stderr[-2000:]
    assert (session / "report.json").exists() and (session / "cost.json").exists()


def test_commands_that_compute_no_vector_run_without_numpy(finished_session, tmp_path):
    _run_without(("numpy",), finished_session, tmp_path)


def test_commands_that_run_no_pipeline_run_without_the_pipelines(finished_session, tmp_path):
    _run_without(_RUN_ONLY_MODULES, finished_session, tmp_path)


def _toml_list_run(runner, workspace, tmp_path, systems, k_grid):
    config = tmp_path / "run.toml"
    config.write_text(
        "\n".join(
            [
                "[run]",
                f'corpus = "{workspace / "corpus"}"',
                f'questions = "{workspace / "questions.jsonl"}"',
                f'session = "{tmp_path / "session"}"',
                f"systems = {systems}",
                f"k_grid = {k_grid}",
            ]
        )
    )
    return runner.invoke(main, ["run", "--config", str(config)])


def test_run_toml_lists(runner, workspace, tmp_path):
    result = _toml_list_run(
        runner, workspace, tmp_path, '["vanilla_rag", "codegen_pager"]', "[4, 8]"
    )
    assert result.exit_code == 0, result.output
    effective = json.loads((tmp_path / "session" / "config.json").read_text())
    assert effective["systems"] == ["vanilla_rag", "codegen_pager"]
    assert effective["k_grid"] == [4, 8]


def test_run_toml_bad_list_exits_2(runner, workspace, tmp_path):
    result = _toml_list_run(runner, workspace, tmp_path, '["vanilla_rag"]', '[4, "x"]')
    assert result.exit_code == 2, result.output
    assert "--k-grid expects comma-separated integers, got '4,x'" in result.output


# ---------------------------------------------------------------------------
# Run record format
# ---------------------------------------------------------------------------

# sha256 of ``finished_session``'s system_runs.jsonl in run record format 1.
FORMAT_1_RUNS_SHA256 = "4e10a920a3dcf485dea0c132802c22b0b9244adb71412471ed81d1c6da97700d"

# ``mdqa trace`` of two runs of ``finished_session``, as format 1 printed them.
_PINNED_TRACES = {
    ('md1-0002', 'vanilla_rag', '4'): """\
Question: How much Dividends Paid did Boltara pay in the last 3 years in US dollars?
Gold: 965000000.0  docs=blta-10k-2021, blta-10k-2022, blta-10k-2023
Predicted: 0.0  failure=None
Retrieved pages:
  page blta-10k-2019#4  form=10-K company=BLTA fiscal_year=2019 period_end=2019-02-28 matched=no wrong:fiscal_year
  page blta-10k-2020#4  form=10-K company=BLTA fiscal_year=2020 period_end=2020-02-28 matched=no wrong:fiscal_year
  page blta-10k-2021#4  form=10-K company=BLTA fiscal_year=2021 period_end=2021-02-28 matched=yes
  page blta-10k-2022#4  form=10-K company=BLTA fiscal_year=2022 period_end=2022-02-28 matched=yes
""",
    ('ve2-0000', 'codegen_docs_pager', '8'): """\
Question: What is Fornax's Short Term Debt in 2023?
Gold: 256700000.0  docs=frnx-10k-2023
Predicted: 256700000.0  failure=None
Retrieved pages:
  page frnx-10k-2023#6  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=yes
  page frnx-10k-2023#7  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
  page frnx-10k-2023#3  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
  page frnx-10k-2023#4  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
  page frnx-10k-2023#1  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
  page frnx-10k-2023#5  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
  page frnx-10k-2023#2  form=10-K company=FRNX fiscal_year=2023 period_end=2023-06-28 matched=no
Plan source:
  question = "What is the Short Term Debt of Fornax (FRNX) in 2023 in US dollars?"
  documents = select_documents(stock_symbols=["FRNX"], form_types=["10-K"], fiscal_years=[2023])
  pages = retrieve_relevant_pages(question, documents)
  value = extract_value(question, pages)
  emit(float(value))
Builtin calls:
  select_documents([{stock_symbols: <list n=1>, form_types: <list n=1>, fiscal_years: <list n=1>}]) -> [<doc frnx-10k-2023>]
  retrieve_relevant_pages([What is the Short Term Debt of Fornax (FRNX) in 2023 in U..., [<doc frnx-10k-2023>]]) -> [<page frnx-10k-2023#6>, <page frnx-10k-2023#7>, <page frnx-10k-2023#3>, <page frnx-10k-2023#4>, <page frnx-10k-2023#1>, <page frnx-10k-2023#5>, ...]
  extract_value([What is the Short Term Debt of Fornax (FRNX) in 2023 in U..., [<page frnx-10k-2023#6>, <page frnx-10k-2023#7>, <page frnx-10k-2023#3>, <page frnx-10k-2023#4>, <page frnx-10k-2023#1>, <page frnx-10k-2023#5>, ...]]) -> 256700000
  float([256700000]) -> 256700000
""",
}


def _as_format_1(session: Path) -> None:
    """Rewrite a finished session as run record format 1 held it: each run
    also lists its documents' signatures, first seen first, and each trace
    its pages; ``config.json`` names no format."""
    config = json.loads((session / "config.json").read_text())
    del config["format"]
    collection = load_collection(config["corpus"])
    lines = []
    runs_path = session / "system_runs.jsonl"
    for record in map(json.loads, runs_path.read_text().splitlines()):
        signatures = map(collection.page_signature, map(tuple, record["retrieved_pages"]))
        record["retrieved_docs"] = [list(sig) for sig in dict.fromkeys(signatures)]
        if record["trace"] is not None:
            record["trace"]["retrieved_pages"] = record["retrieved_pages"]
        lines.append(jsonl_line(record))
    runs_path.write_text("".join(lines))
    write_json(session / "config.json", config)


@pytest.fixture(scope="module")
def format_1_session(finished_session, tmp_path_factory):
    session = tmp_path_factory.mktemp("format1") / "session"
    shutil.copytree(finished_session, session)
    _as_format_1(session)
    return session


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_record_holds_no_derivable_field(finished_session):
    """Document signatures and a trace's pages derive from the run's
    ``retrieved_pages``, so no run line holds them."""
    lines = (finished_session / "system_runs.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    traces = [r["trace"] for r in records if r["trace"] is not None]
    assert len(traces) == len(records) // 2  # every codegen_docs_pager run
    assert not any("retrieved_docs" in r for r in records)
    assert not any("retrieved_pages" in t for t in traces)
    config = json.loads((finished_session / "config.json").read_text())
    assert config["format"] == RUN_FORMAT


def test_format_1_session_is_the_old_bytes(format_1_session):
    runs = (format_1_session / "system_runs.jsonl").read_bytes()
    assert hashlib.sha256(runs).hexdigest() == FORMAT_1_RUNS_SHA256


def test_resume_of_a_format_1_session_exits_2_and_changes_nothing(
    runner, workspace, format_1_session, tmp_path
):
    session = _copy_session(format_1_session, tmp_path)
    before = _files(session)
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 2, result.output
    assert (
        f"holds run records of format 1; this mdqa writes format {RUN_FORMAT}" in result.output
    )
    assert _files(session) == before


@pytest.mark.parametrize("command", ["eval", "cost"])
def test_format_1_session_scores_the_same(
    runner, finished_session, format_1_session, tmp_path, command
):
    """``eval`` and ``cost`` ignore the keys format 1 also held."""
    outputs = []
    for name, source in (("current", finished_session), ("format_1", format_1_session)):
        session = tmp_path / name
        shutil.copytree(source, session)
        result = runner.invoke(main, [command, str(session)])
        assert result.exit_code == 0, result.output
        written = "report.json" if command == "eval" else "cost.json"
        outputs.append((result.output.replace(str(session), "<session>"),
                        (session / written).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("session_fixture", ["finished_session", "format_1_session"])
@pytest.mark.parametrize("key", list(_PINNED_TRACES), ids=lambda key: key[1])
def test_trace_prints_the_pinned_dump(runner, request, session_fixture, key):
    session = request.getfixturevalue(session_fixture)
    result = runner.invoke(main, ["trace", str(session), *key])
    assert result.exit_code == 0, result.output
    assert result.output == _PINNED_TRACES[key]


def test_multi_query_rag_reuses_vanilla_rags_ranking(runner, workspace, tmp_path, monkeypatch):
    """With 36 questions one system's sweep outgrows the ranking memo's 32
    entries. A question's systems run back to back, so multi_query_rag's
    first query, the question itself, finds vanilla_rag's ranking of it
    still in the memo: no ranking vanilla_rag made is made again."""
    result = runner.invoke(main, _gen_args(
        workspace, tmp_path, "--templates", "ve2,md1,md4", "--count", "12", "--seed", "7"
    ))
    assert result.exit_code == 0, result.output
    system, ranked = [None], []
    run_system, rank_all = cli.run_system, PageIndex._rank_all

    def tracked_run_system(system_id, *args, **kwargs):
        system[0] = system_id
        return run_system(system_id, *args, **kwargs)

    def counted_rank_all(index, q, runs):
        ranked.append((system[0], (q.tobytes(), runs)))
        return rank_all(index, q, runs)

    monkeypatch.setattr(cli, "run_system", tracked_run_system)
    monkeypatch.setattr(PageIndex, "_rank_all", counted_rank_all)
    args = _run_args(workspace, tmp_path / "session", "--systems", ",".join(SYSTEM_IDS))
    args[args.index("--questions") + 1] = str(tmp_path / "q.jsonl")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    by_vanilla = {key for system_id, key in ranked if system_id == "vanilla_rag"}
    assert len(by_vanilla) == 36
    again = [key for system_id, key in ranked if system_id != "vanilla_rag" and key in by_vanilla]
    assert again == []


# ---------------------------------------------------------------------------
# Where page vectors are kept
# ---------------------------------------------------------------------------


def test_oracle_session_stores_no_vectors(finished_session):
    """Local vectors are rebuilt by each invocation; ``index_cache/`` is the
    HTTP embedder's store."""
    assert not [p for p in finished_session.rglob("*") if "index_cache" in p.parts[:-1]]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _page_texts(corpus_dir) -> list[str]:
    """The distinct texts of a corpus's pages as the index embeds them, in
    key order."""
    collection = load_collection(corpus_dir)
    return sorted({
        f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS]
        for doc in collection.documents for page in doc.pages
    }, key=text_key)


def _with_old_index_cache(session: Path) -> None:
    """Give an oracle session the ``index_cache/`` it held while oracle
    sessions stored their page vectors: one record per distinct page text,
    in key order (sha256 pinned to what that mdqa wrote for this session)."""
    texts = _page_texts(json.loads((session / "config.json").read_text())["corpus"])
    embedder = HashedBowEmbedder()
    with VectorStore(session / "index_cache", "hashed-bow-512/1") as store:
        for text, vector in zip(texts, embedder.embed(texts)):
            store.put(text_key(text), vector)
    assert {p.name: _sha256(p) for p in (session / "index_cache").iterdir()} == {
        "manifest.json": "22a9fffa0387b36b2ab28e2f02640421340b3e1c511eafa0b36a1d9dba964c8c",
        "vectors.f4": "616c3cf3b35a5c3cfcbbe094548c2b80d01151610a7a20bd361675289db4d965",
    }


def test_oracle_session_with_old_index_cache_resumes_to_the_same_bytes(
    runner, workspace, finished_session, tmp_path
):
    """The old vectors are left unread and untouched; the resume rewrites the
    runs, the ledger and, after ``eval``, the report to the same bytes."""
    session = _copy_session(finished_session, tmp_path)
    _with_old_index_cache(session)
    assert runner.invoke(main, ["eval", str(session)]).exit_code in (0, 1)
    before = _files(session)
    result = runner.invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0 and "0 new" in result.output, result.output
    assert runner.invoke(main, ["eval", str(session)]).exit_code in (0, 1)
    assert _files(session) == before


@contextlib.contextmanager
def _stopped_after(n_runs: int):
    """Stop ``mdqa run`` as a crash would, once ``n_runs`` runs are done."""
    started = []
    run_system = cli.run_system

    def run_or_stop(*args, **kwargs):
        if len(started) == n_runs:
            raise _Stopped
        started.append(args)
        return run_system(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_system", run_or_stop)
        yield


def test_killed_oracle_session_counts_its_index_build(workspace, finished_session, tmp_path):
    """A killed invocation writes no ``ledger.json``. The resume folds its
    ledger from all the runs and its own index build, so it writes the
    finished session's ledger."""
    session = tmp_path / "session"
    with _stopped_after(5):
        result = CliRunner().invoke(main, _run_args(workspace, session))
    assert isinstance(result.exception, _Stopped), result.output
    assert not (session / "ledger.json").exists()
    result = CliRunner().invoke(main, _run_args(workspace, session))
    assert result.exit_code == 0 and "5 resumed" in result.output, result.output
    resumed, finished = (
        json.loads((s / "ledger.json").read_text()) for s in (session, finished_session)
    )
    assert resumed == finished
    assert finished["chat_total"] > 0 and finished["network_chat_total"] == 0
    assert finished["embed_by_scope"]["-/-"] == len(_page_texts(workspace / "corpus"))


def test_killed_http_session_resumes_to_the_same_ledger(workspace, http_session, tmp_path):
    """The replies and vectors that a killed invocation fetched stay in the
    caches, so the resume writes an uninterrupted session's runs and ledger."""
    session = tmp_path / "session"
    with _stopped_after(5):
        result = _http_invoke(workspace, session, _oracle_transport(workspace))
    assert isinstance(result.exception, _Stopped), result.output
    assert not (session / "ledger.json").exists()
    _http_run(workspace, session, _oracle_transport(workspace))
    for name in ("system_runs.jsonl", "ledger.json"):
        assert (session / name).read_bytes() == (http_session / name).read_bytes()


def test_http_resume_counts_the_vectors_it_fetches_again(workspace, http_session, tmp_path):
    """A resume that has lost the vector cache pays for the page vectors
    again and caches each once; its ledger, a fold of the runs, the index
    build and the chat log, is the session's."""
    session = _copy_session(http_session, tmp_path)
    (session / "index_cache" / "vectors.f4").unlink()
    sent = []
    _http_run(workspace, session, _recording(_oracle_transport(workspace), sent))
    fetched = sum(len(body["input"]) for url, body in sent if url.endswith("/embeddings"))
    before, after = (
        json.loads((s / "ledger.json").read_text()) for s in (http_session, session)
    )
    assert after == before
    # The pages' vectors again, as the first invocation wrote them before its
    # query vectors: one record per vector paid for.
    vectors = (session / "index_cache" / "vectors.f4").read_bytes()
    assert (http_session / "index_cache" / "vectors.f4").read_bytes().startswith(vectors)
    dim = json.loads((session / "index_cache" / "manifest.json").read_text())["dim"]
    assert len(vectors) == fetched * (32 + 4 * dim)
    assert fetched == before["embed_by_scope"]["-/-"] > 0


def test_killed_index_build_keeps_the_batches_it_stored(workspace, http_session, tmp_path):
    """A crash in the index build's 4th embeddings request leaves the 3
    batches before it in the vector store. The resume sends only the page
    texts not stored and ends with an uninterrupted session's files."""
    oracle = _oracle_transport(workspace)
    batches = []

    def crashes_in_fourth_batch(url, body, headers, timeout):
        if url.endswith("/embeddings"):
            batches.append(body["input"])
            if len(batches) == 4:
                raise _Stopped
        return oracle(url, body, headers, timeout)

    session = tmp_path / "session"
    result = _http_invoke(workspace, session, crashes_in_fourth_batch)
    assert isinstance(result.exception, _Stopped), result.output
    dim = json.loads((session / "index_cache/manifest.json").read_text())["dim"]
    record = 32 + 4 * dim
    stored = (session / "index_cache/vectors.f4").read_bytes()
    assert len(stored) == 3 * backends.EMBED_BATCH * record
    stored_keys = [stored[i : i + 32] for i in range(0, len(stored), record)]
    assert stored_keys == [text_key(text) for batch in batches[:3] for text in batch]
    pages = _page_texts(workspace / "corpus")
    left = [text for text in pages if text_key(text) not in stored_keys]
    assert len(left) == len(pages) - 3 * backends.EMBED_BATCH > 0
    sent = []
    _http_run(workspace, session, _recording(oracle, sent))
    texts = [text for url, body in sent if url.endswith("/embeddings") for text in body["input"]]
    assert texts[: len(left)] == left
    assert not set(stored_keys) & set(map(text_key, texts))
    for name in ("index_cache/vectors.f4", "system_runs.jsonl", "ledger.json"):
        assert (session / name).read_bytes() == (http_session / name).read_bytes(), name


# sha256 of an HTTP ``--log-wire`` session's vector cache, wire log and
# ledger, then of the same files after a resume onto a wider k grid.
_HTTP_SESSION_SHA256 = {
    "4,8": {
        "index_cache/vectors.f4": "9eec5519300751d9bfc4e4e6350bb54380d72c9b7b94c6e410355c853f26aa16",
        "wire.jsonl": "151a916310089ac403ce0177b4e1f2aa004b2a2fe95b3f1f83b7c2e4a70dabd7",
        "ledger.json": "d1ca57643dad271f383c8e4a543ef5f03ea787ba6b7513424147ca760bcb330d",
    },
    "4,8,16": {
        "index_cache/vectors.f4": "9eec5519300751d9bfc4e4e6350bb54380d72c9b7b94c6e410355c853f26aa16",
        "wire.jsonl": "3ce35fdb4aa4f90caa9bb729071feb54a8eb67900a927eb7fc4044b56a25fac2",
        "ledger.json": "820a081f69b11a281e4010ca6c7dba40ceeed9df8666acfb9c80b3aebf5f5ebc",
    },
}


def test_http_session_cache_wire_and_ledger_are_pinned(workspace, tmp_path):
    session = tmp_path / "session"
    for k_grid, expected in _HTTP_SESSION_SHA256.items():
        _http_run(workspace, session, _oracle_transport(workspace), "--log-wire", "--k-grid", k_grid)
        assert {name: _sha256(session / name) for name in expected} == expected


# ---------------------------------------------------------------------------
# Session bytes
# ---------------------------------------------------------------------------

# sha256 of each small session's runs, report and ledger. A change that moves
# a byte of a session changes its pin here, and CHANGES.md says why.
_SESSION_SHA256 = {
    "finished_session": {
        "system_runs.jsonl": "78661fb03f35f839c64c8a2c1b353e693f55498cd9bb19ae3a9dc869af7156a1",
        "report.json": "55c156e8b0dae648bfdd7b21faf87c6431f50709ff4f825a08ffa3835b39d874",
        "ledger.json": "626c48cbc4ff97c8acb869cdc794bd0edaa5e4013b5333a9890483c3b4e30447",
    },
    "http_session": {
        "system_runs.jsonl": "78661fb03f35f839c64c8a2c1b353e693f55498cd9bb19ae3a9dc869af7156a1",
        "report.json": "e5b969999393f6f805a92857ad753cf040f56fbf72f6cdcaca9fc9de14324677",
        "ledger.json": "d1ca57643dad271f383c8e4a543ef5f03ea787ba6b7513424147ca760bcb330d",
    },
    "textual_session": {
        "system_runs.jsonl": "61587f05af63950512241ed87ef4c2c76c22e5ae094841c803bbbe5edabdd127",
        "report.json": "326ff5dc588693688abbb5a27c73ae35549ca4ffcda0510c9b3cedc5b846b006",
        "ledger.json": "b696c007f8650fc7535bfc478bafcd8cd770b6cd62939e733d0340202de7efae",
    },
}


@pytest.fixture(scope="module")
def textual_session(tmp_path_factory):
    """Every template once, every system at one k, on the adversarial corpus
    with the textual oracle: its plans hold an ``elif`` (yn1) and an
    expanded compound-metric formula (cve1)."""
    root = tmp_path_factory.mktemp("textual")
    corpus, questions = str(root / "corpus"), str(root / "questions.jsonl")
    runner = CliRunner()
    for args in (
        ["synth", corpus, "--kind", "adversarial", "--companies", "6"],
        ["gen", "--corpus", corpus, "--out", questions, "--count", "1", "--dataset-year", "2023",
         "--templates", "ve1,ve2,cve1,md1,md2,md3,md4,yn1,mo1", "--seed", "7"],
        ["run", "--corpus", corpus, "--questions", questions, "--session", str(root / "session"),
         "--k-grid", "8", "--oracle-mode", "textual"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    return root / "session"


@pytest.mark.parametrize("session_fixture", list(_SESSION_SHA256))
def test_session_bytes_are_pinned(runner, request, session_fixture, tmp_path):
    session = _copy_session(request.getfixturevalue(session_fixture), tmp_path)
    assert runner.invoke(main, ["eval", str(session)]).exit_code in (0, 1)
    assert {name: _sha256(session / name) for name in _SESSION_SHA256[session_fixture]} == (
        _SESSION_SHA256[session_fixture]
    )


# ---------------------------------------------------------------------------
# k sweeps: a k-free run is the run at every larger k
# ---------------------------------------------------------------------------

_SWEEP = "4,8,16,128"


def _sweep_invoke(workspace, session, k_grid, mode, systems=SYSTEM_IDS):
    """``mdqa run`` of ``systems`` over ``k_grid`` on the oracle in ``mode``
    (``perfect`` or ``textual``), or on the HTTP backend over a fake
    transport (``http``)."""
    args = _run_args(workspace, session, "--jobs", "1")
    args[args.index("--systems") + 1] = ",".join(systems)
    args[args.index("--k-grid") + 1] = k_grid
    with pytest.MonkeyPatch.context() as mp:
        if mode == "http":
            mp.setenv("MDQA_API_KEY", "k")
            mp.setattr(backends, "_requests_transport", _oracle_transport(workspace))
            args += ["--backend", "http", "--endpoint", "http://localhost:9/v1", "--model", "m"]
        else:
            args += ["--oracle-mode", mode]
        return CliRunner().invoke(main, args)


def _run_lines(session: Path) -> list[bytes]:
    return (session / "system_runs.jsonl").read_bytes().splitlines(keepends=True)


def _sorted_key(line: bytes) -> tuple[str, int, str]:
    record = json.loads(line)
    return record["system_id"], record["k"], record["question_id"]


@pytest.mark.parametrize("mode", ["perfect", "textual", "http"])
def test_k_sweep_equals_its_single_k_sessions(workspace, tmp_path, mode):
    """A sweep writes some runs without executing them; each must be, byte
    for byte, the run a session at that k alone executes."""
    single = []
    for k in _SWEEP.split(","):
        result = _sweep_invoke(workspace, tmp_path / f"k{k}", k, mode)
        assert result.exit_code == 0, result.output
        single += _run_lines(tmp_path / f"k{k}")
    result = _sweep_invoke(workspace, tmp_path / "sweep", _SWEEP, mode)
    assert result.exit_code == 0, result.output
    assert len(single) == 4 * 9 * 4
    assert _run_lines(tmp_path / "sweep") == sorted(single, key=_sorted_key)


@pytest.mark.parametrize(
    "kind, seed",
    [("clean", 1), ("clean", 2), ("clean", 3), ("adversarial", 4), ("adversarial", 5),
     ("clean", 6)],
)
def test_sessions_over_many_corpora(tmp_path, kind, seed):
    """Over the corpora of several synth seeds: a rerun writes the same
    bytes, a k sweep equals its single-k sessions line for line, and
    vanilla_rag's pages are the reference ranking's, ties in (doc_id,
    page_number) order. Every run goes through the session's query and
    ranking memos."""
    corpus, questions = tmp_path / "corpus", tmp_path / "questions.jsonl"
    runner = CliRunner()
    for args in (
        ["synth", str(corpus), "--kind", kind, "--companies", "3", "--seed", str(seed)],
        ["gen", "--corpus", str(corpus), "--out", str(questions), "--templates", "ve1,md2,md4",
         "--count", "2", "--dataset-year", "2023", "--seed", str(seed),
         "--company-list-size", "3"],
    ):
        assert runner.invoke(main, args).exit_code == 0

    def session(name: str, k_grid: str) -> Path:
        args = ["run", "--corpus", str(corpus), "--questions", str(questions),
                "--session", str(tmp_path / name), "--k-grid", k_grid]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return tmp_path / name

    sweep, again = session("sweep", _SWEEP), session("again", _SWEEP)
    for name in ("system_runs.jsonl", "ledger.json"):
        assert (sweep / name).read_bytes() == (again / name).read_bytes()
    single = [line for k in _SWEEP.split(",") for line in _run_lines(session(f"k{k}", k))]
    assert _run_lines(sweep) == sorted(single, key=_sorted_key)

    documents = load_collection(corpus).documents
    embedder = HashedBowEmbedder()
    texts = {q["question_id"]: q["text"] for q in map(json.loads, questions.read_text().splitlines())}
    rankings = {qid: reference_retrieve(text, documents, 128, embedder) for qid, text in texts.items()}
    ties = 0
    for record in map(json.loads, _run_lines(sweep)):
        if record["system_id"] == "vanilla_rag":
            want = rankings[record["question_id"]][: record["k"]]
            assert record["retrieved_pages"] == [list(scored.page_ref) for scored in want]
            ties += sum(a.score == b.score for a, b in zip(want, want[1:]))
    assert ties


def _counting(monkeypatch) -> Counter:
    """Count ``cli.run_system`` executions by (system, question)."""
    executed: Counter = Counter()
    run_system = cli.run_system

    def counted(system_id, question_id, *args, **kwargs):
        executed[system_id, question_id] += 1
        return run_system(system_id, question_id, *args, **kwargs)

    monkeypatch.setattr(cli, "run_system", counted)
    return executed


def test_k_sweep_executes_runs_only_until_one_is_k_free(workspace, tmp_path, monkeypatch):
    """vanilla_rag retrieves from the whole collection, so each of its runs
    cuts; codegen_docs_pager's pools are a few pages, so its sweeps stop
    early."""
    executed = _counting(monkeypatch)
    result = _sweep_invoke(workspace, tmp_path / "session", _SWEEP, "perfect")
    assert result.exit_code == 0, result.output
    assert "144 runs (144 new, 0 resumed)" in result.output
    per_system: Counter = Counter()
    for (system_id, _), n in executed.items():
        per_system[system_id] += n
        if system_id == "vanilla_rag":
            assert n == 4
    assert per_system["vanilla_rag"] == 9 * 4
    assert per_system["codegen_docs_pager"] < 9 * 4
    assert len(_run_lines(tmp_path / "session")) == 4 * 9 * 4


def _scripted_run_system(pools: dict, failing: set, executed: list):
    """A stand-in for ``run_system`` whose one top-k cut, over a pool of
    ``pools[question_id]`` pages (2 if not given), goes through the
    pipelines' own cut helper. The (question, k) runs in ``failing`` fail."""

    def run_system(system_id, question_id, question_text, collection, index, backends_, k,
                   dataset_year, n_queries=3):
        executed.append((question_id, k))
        run = SystemRun(system_id, question_id, k, None, [], 1, 0)
        qasystems._cut(run, list(range(min(k, pools.get(question_id, 2)))))
        if (question_id, k) in failing:
            run.failure = "backend_error: unavailable"
        return run

    return run_system


def test_k_sweep_executes_again_after_a_failed_or_full_cut(workspace, tmp_path, monkeypatch):
    """A failed run may be transient, and a cut that returned exactly k pages
    may have dropped some: either way the next k is executed."""
    executed = []
    monkeypatch.setattr(cli, "run_system", _scripted_run_system(
        pools={"md1-0000": 8}, failing={("md4-0000", 4)}, executed=executed,
    ))
    result = _sweep_invoke(workspace, tmp_path / "session", "4,8,16,32", "perfect",
                           systems=("vanilla_rag",))
    assert result.exit_code == 0, result.output
    by_question: dict[str, list[int]] = {}
    for question_id, k in executed:
        by_question.setdefault(question_id, []).append(k)
    assert by_question.pop("md1-0000") == [4, 8, 16]
    assert by_question.pop("md4-0000") == [4, 8]
    assert set(map(tuple, by_question.values())) == {(4,)}
    records = {(r["question_id"], r["k"]): r for r in map(json.loads, _run_lines(tmp_path / "session"))}
    assert len(records) == 9 * 4
    assert records["md4-0000", 4]["failure"] == "backend_error: unavailable"
    assert [records["md4-0000", k]["failure"] for k in (8, 16, 32)] == [None] * 3


def test_jobs_run_the_ks_of_one_sweep_at_once(workspace, tmp_path, monkeypatch):
    """With fewer sweeps than ``--jobs``, the ks of a sweep whose runs all
    cut are executed at once, not one after another."""
    first = (workspace / "questions.jsonl").read_bytes().splitlines(keepends=True)[0]
    (tmp_path / "questions.jsonl").write_bytes(first)
    question_id = json.loads(first)["question_id"]
    executed = []
    scripted = _scripted_run_system(pools={question_id: 100}, failing=set(), executed=executed)
    together = threading.Barrier(4, timeout=10)

    def run_system(*args, **kwargs):
        together.wait()
        return scripted(*args, **kwargs)

    monkeypatch.setattr(cli, "run_system", run_system)
    args = _run_args(workspace, tmp_path / "session", "--jobs", "4")
    args[args.index("--questions") + 1] = str(tmp_path / "questions.jsonl")
    args[args.index("--systems") + 1] = "vanilla_rag"
    args[args.index("--k-grid") + 1] = "4,8,16,32"
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert sorted(executed) == [(question_id, k) for k in (4, 8, 16, 32)]


@pytest.fixture(scope="module")
def finished_sweep(workspace, tmp_path_factory):
    session = tmp_path_factory.mktemp("sweep") / "session"
    result = _sweep_invoke(workspace, session, _SWEEP, "perfect")
    assert result.exit_code == 0, result.output
    return session


def test_resume_after_a_journal_cut_mid_sweep_is_byte_identical(
    workspace, finished_sweep, tmp_path, monkeypatch
):
    """Cut the journal inside a codegen_docs_pager sweep, at and inside the
    lines of runs that were written without being executed. The resume
    executes the sweep's remaining ks from the smallest one and ends with the
    same bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_write_runs", _stop)
        result = _sweep_invoke(workspace, tmp_path / "unfinished", _SWEEP, "perfect")
    assert isinstance(result.exception, _Stopped), result.output
    journal = (tmp_path / "unfinished" / "journal.jsonl").read_bytes()
    lines = journal.splitlines(keepends=True)
    keys = [(r["system_id"], r["question_id"], r["k"]) for r in map(json.loads, lines)]
    first = keys[0][1]
    at = dict(zip(keys, itertools.accumulate(map(len, lines), initial=0)))
    # The cut, and the one k of the sweep the resume executes: k=8 was
    # k-free, so the k it resumes at is k-free too.
    cuts = {
        "before_k16": (at["codegen_docs_pager", first, 16], 16),
        "inside_k16": (at["codegen_docs_pager", first, 16] + 10, 16),
        "before_k128": (at["codegen_docs_pager", first, 128], 128),
    }
    executed = []
    run_system = cli.run_system

    def recorded(system_id, question_id, question_text, collection, index, backends_, k,
                 *args, **kwargs):
        executed.append((system_id, question_id, k))
        return run_system(system_id, question_id, question_text, collection, index,
                          backends_, k, *args, **kwargs)

    monkeypatch.setattr(cli, "run_system", recorded)
    for name, (offset, resumed_k) in cuts.items():
        session = tmp_path / name
        shutil.copytree(tmp_path / "unfinished", session)
        (session / "journal.jsonl").write_bytes(journal[:offset])
        executed.clear()
        result = _sweep_invoke(workspace, session, _SWEEP, "perfect")
        assert result.exit_code == 0, result.output
        assert _run_lines(session) == _run_lines(finished_sweep), name
        ran = [k for system_id, q, k in executed if (system_id, q) == ("codegen_docs_pager", first)]
        assert ran == [resumed_k], name
