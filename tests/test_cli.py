from __future__ import annotations

import gc
import json
import random
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mdqa import backends, cli
from mdqa.backends import HashedBowEmbedder
from mdqa.cli import main
from mdqa.corpus import load_collection
from mdqa.files import AppendLog
from mdqa.oracle import OracleChatBackend
from mdqa.qasystems import SYSTEM_IDS
from mdqa.retrieval import EMBED_INPUT_MAX_CHARS, text_key


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
        for system_id in ("vanilla_rag", "codegen_docs_pager")
        for q in questions
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
    outputs = []
    for jobs in ("1", "4"):
        session = tmp_path / f"jobs-{jobs}"
        result = runner.invoke(main, _run_args(
            workspace, session, "--backend", "http", "--endpoint", "http://localhost:9/v1",
            "--model", "m", "--jobs", jobs,
        ))
        assert result.exit_code == 0, result.output
        outputs.append((session / "system_runs.jsonl").read_bytes())
    assert outputs[0] == outputs[1] == (finished_session / "system_runs.jsonl").read_bytes()


def test_index_command_builds_cache(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        ["index", "--corpus", str(workspace / "corpus"), "--cache", str(tmp_path / "cache")],
    )
    assert result.exit_code == 0, result.output
    assert "indexed" in result.output
    cache = tmp_path / "cache"
    assert sorted(p.name for p in cache.iterdir()) == ["manifest.json", "vectors.f4"]
    dim = json.loads((cache / "manifest.json").read_text())["dim"]
    data = (cache / "vectors.f4").read_bytes()
    record = 32 + 4 * dim
    texts = {
        f"{page.title}\n{page.content}"[:EMBED_INPUT_MAX_CHARS]
        for doc in load_collection(workspace / "corpus").documents
        for page in doc.pages
    }
    assert len(data) == len(texts) * record
    embedded = HashedBowEmbedder(dim=dim)
    by_key = {text_key(text): text for text in texts}
    for offset in range(0, len(data), record):
        key, row = data[offset:offset + 32], data[offset + 32:offset + record]
        expected = embedded.embed([by_key[key]])[0]
        assert np.array_equal(np.frombuffer(row, dtype="<f4"), expected)


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


def _http_run(workspace, session, transport, *extra):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDQA_API_KEY", "secret-key-value")
        mp.setattr(backends, "_requests_transport", transport)
        result = CliRunner().invoke(main, _run_args(
            workspace, session, "--backend", "http", "--endpoint", "http://localhost:9/v1",
            "--model", "m", *extra,
        ))
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
    torn, expected = data[-last:], ledgers[False]
    if cache.endswith(".jsonl"):
        assert json.loads(torn)["key"] == backends._hash_request(body)
        expected["network_chat_total"] += 1
    else:
        assert [text_key(text) for text in body["input"]] == [torn[:32]]
        (scope, n), = ledgers[True]["embed_by_scope"].items()
        assert n == 1 and expected["embed_by_scope"] == {}
        expected["embed_by_scope"] = {scope: 1}
        expected["embed_total"] += 1
    # The ledger counts that one fetch and nothing else.
    assert ledgers[True] == expected


def test_crash_at_run_n_leaves_n_minus_1_journal_lines(runner, workspace, tmp_path, monkeypatch):
    """Each run's journal line is on disk before the next run starts."""
    session = tmp_path / "session"
    crash_at = 5
    seen_at_crash = []

    class CrashingOracle(OracleChatBackend):
        def chat(self, messages, **params):
            if self.call_count + 1 == crash_at:  # vanilla_rag: one chat per run
                seen_at_crash.append((session / "journal.jsonl").read_bytes())
                raise RuntimeError("backend crashed")
            return super().chat(messages, **params)

    monkeypatch.setattr(cli, "OracleChatBackend", CrashingOracle)
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


def test_index_cache_from_other_backend_exits_2(runner, workspace, finished_session, tmp_path):
    session = _copy_session(finished_session, tmp_path)
    manifest = session / "index_cache" / "manifest.json"
    manifest.write_text(json.dumps({"backend_fingerprint": "http:other", "dim": 512}))
    result = runner.invoke(main, _run_args(workspace, session))
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
