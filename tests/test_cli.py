from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mdqa.cli import main


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


def test_index_command_builds_cache(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        ["index", "--corpus", str(workspace / "corpus"), "--cache", str(tmp_path / "cache")],
    )
    assert result.exit_code == 0, result.output
    assert "indexed" in result.output
    assert (tmp_path / "cache" / "manifest.json").exists()
    assert list((tmp_path / "cache").glob("*.vec"))


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
