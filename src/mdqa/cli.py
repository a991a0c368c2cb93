"""Command-line orchestration: ingest, synth, gen, index, run, eval,
stability, cost, trace.

Sessions live under an output directory: the effective config, the question
set, an append-only journal of completed runs (so interrupted sessions
resume), the sorted run records, call ledger, and reports. Everything a
report needs is recorded in the session, and identical inputs with oracle
backends reproduce identical outputs byte for byte.

Exit codes: 0 success; 1 evaluation completed but found pipeline failures;
2 usage or validation error.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import synth as synth_mod
from .backends import (
    BackendConfig,
    CallLedger,
    HashedBowEmbedder,
    HttpChatBackend,
    HttpEmbedBackend,
)
from .corpus import (
    CorpusError,
    DocumentCollection,
    FactTable,
    doc_signature,
    load_collection,
    load_fact_table,
)
from .evaluation import (
    EvaluationError,
    build_report,
    cost_report,
    stability_report,
    write_report,
)
from .oracle import OracleChatBackend
from .qasystems import SYSTEM_IDS, Backends, SystemRun, run_system
from .questiongen import (
    GenConfig,
    Question,
    QuestionGenError,
    generate_questions,
    read_questions,
    write_questions,
)
from .retrieval import build_index

try:
    import tomllib
except ImportError:  # Python < 3.11
    try:
        import tomli as tomllib
    except ImportError:  # pragma: no cover
        tomllib = None


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_year_span(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in text.split(",") if p)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


def _load_corpus(corpus_dir: str) -> tuple[DocumentCollection, FactTable]:
    collection = load_collection(corpus_dir)
    table = load_fact_table(corpus_dir, collection)
    return collection, table


@click.group()
def main() -> None:
    """Multi-document QA benchmark harness."""


# ---------------------------------------------------------------------------
# ingest / synth / gen / index
# ---------------------------------------------------------------------------


@main.command()
@click.argument("corpus_dir", type=click.Path(file_okay=False))
def ingest(corpus_dir: str) -> None:
    """Validate a corpus directory and print its summary."""
    try:
        collection, table = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    click.echo(
        f"docs={len(collection)} pages={collection.page_count} facts={len(table.records)}"
    )


@main.command()
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--kind", type=click.Choice(["clean", "adversarial"]), default="clean")
@click.option("--companies", type=int, default=18, show_default=True)
@click.option("--years", default="2019:2023", show_default=True)
@click.option("--seed", type=int, default=11, show_default=True)
def synth(out_dir: str, kind: str, companies: int, years: str, seed: int) -> None:
    """Write a synthetic corpus bundle."""
    try:
        collection, table = synth_mod.write_bundle(
            out_dir, kind=kind, n_companies=companies,
            years=_parse_year_span(years), seed=seed,
        )
    except ValueError as exc:
        _fail(str(exc))
    click.echo(
        f"docs={len(collection)} pages={collection.page_count} facts={len(table.records)}"
    )


def _metrics_option_to_map(values: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    out = {}
    for item in values:
        if "=" not in item:
            _fail(f"--metrics expects template=metric,metric..., got {item!r}")
        template_id, metric_csv = item.split("=", 1)
        out[template_id] = tuple(m for m in metric_csv.split(",") if m)
    return out


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--templates", required=True, help="comma-separated template ids")
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--dataset-year", type=int, required=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--metrics", multiple=True, help="template=metric,... slot pool override")
@click.option("--years", default=None, help="slot pool for {year}, e.g. 2019:2022")
@click.option("--num-years", default="2,3", show_default=True)
@click.option("--company-list-size", type=int, default=5, show_default=True)
@click.option(
    "--variant-years",
    default=None,
    help="build one question file per dataset year, e.g. 2019:2023",
)
def gen(
    corpus_dir: str,
    out_path: str,
    templates: str,
    count: int,
    dataset_year: int,
    seed: int,
    metrics: tuple[str, ...],
    years: str | None,
    num_years: str,
    company_list_size: int,
    variant_years: str | None,
) -> None:
    """Generate a question set (or one per year variant)."""
    try:
        collection, table = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    template_ids = tuple(t for t in templates.split(",") if t)
    metrics_map = _metrics_option_to_map(metrics)
    variants = _parse_year_span(variant_years) if variant_years else (dataset_year,)
    out_path = Path(out_path)
    for year in variants:
        config = GenConfig(
            template_ids=template_ids,
            count_per_template=count,
            dataset_year=year,
            rng_seed=seed,
            metrics_by_template=metrics_map,
            years=_parse_year_span(years) if years else None,
            num_years=_parse_int_list(num_years),
            company_list_size=company_list_size,
        )
        try:
            questions = generate_questions(table, collection, config)
        except QuestionGenError as exc:
            _fail(str(exc))
        target = (
            out_path
            if len(variants) == 1
            else out_path.with_name(f"{out_path.stem}-{year}{out_path.suffix}")
        )
        write_questions(questions, target)
        click.echo(f"{target}: {len(questions)} questions")


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(file_okay=False))
@click.option("--cache", "cache_dir", required=True, type=click.Path(file_okay=False))
@click.option("--embed-dim", type=int, default=512, show_default=True)
def index(corpus_dir: str, cache_dir: str, embed_dim: int) -> None:
    """Build (or refresh) the page embedding cache with the mock embedder."""
    try:
        collection, _ = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    embedder = HashedBowEmbedder(dim=embed_dim)
    page_index = build_index(collection, embedder, cache_dir=cache_dir)
    click.echo(f"indexed {len(page_index)} pages (dim={page_index.embedding_dim})")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _build_backends(
    backend: str,
    oracle_mode: str,
    table: FactTable,
    questions: list[Question],
    dataset_year: int,
    ledger: CallLedger,
    session_dir: Path,
    log_wire: bool,
    endpoint: str,
    model: str,
    auth_env: str,
) -> Backends:
    if backend == "oracle":
        chat = OracleChatBackend(
            table,
            dataset_year,
            questions=questions,
            mode=oracle_mode,
            metric_aliases=synth_mod.ORACLE_METRIC_ALIASES,
            ledger=ledger,
        )
        embed = HashedBowEmbedder(ledger=ledger)
        return Backends(chat=chat, embed=embed, ledger=ledger)
    wire_dir = session_dir / "wire" if log_wire else None
    config = BackendConfig(
        kind="http_openai_compatible",
        endpoint=endpoint,
        model=model,
        auth_env=auth_env,
        cache_dir=session_dir / "http_cache",
    )
    chat = HttpChatBackend(config, ledger=ledger, wire_log_dir=wire_dir)
    embed = HttpEmbedBackend(config, ledger=ledger, wire_log_dir=wire_dir)
    return Backends(chat=chat, embed=embed, ledger=ledger)


def _read_journal(path: Path) -> dict[tuple[str, str, int], SystemRun]:
    done = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                run = SystemRun.from_json_dict(json.loads(line))
                done[(run.system_id, run.question_id, run.k)] = run
    return done


def _load_run_config(ctx: click.Context, param: click.Parameter, path: str | None):
    """Make the ``[run]`` table of a TOML file (or its top level) the defaults
    of ``run``'s other options: a flag beats the file, the file beats the
    built-in default. Keys are option names with underscores (``k_grid``)."""
    if path is None:
        return None
    if tomllib is None:
        raise click.BadParameter("tomli is required for --config files on Python < 3.11")
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise click.BadParameter(f"cannot read {path}: {exc}")
    table = data.get("run", data)
    if not isinstance(table, dict):
        raise click.BadParameter(f"{path}: [run] must be a table")
    names = {
        opt.opts[0].lstrip("-").replace("-", "_"): opt.name
        for opt in ctx.command.params
        if isinstance(opt, click.Option) and opt is not param
    }
    unknown = sorted(set(table) - set(names))
    if unknown:
        raise click.BadParameter(f"{path}: no run option named {', '.join(unknown)}")
    ctx.default_map = {names[key]: value for key, value in table.items()}
    return path


# Full sweep grid; override with a single k for quick sessions.
DEFAULT_K_GRID = "4,8,16,32,48,64,128"


@main.command(name="run")
@click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_run_config,
    help="TOML file with defaults for the other options",
)
@click.option("--corpus", "corpus_dir", default=None, type=click.Path(file_okay=False))
@click.option("--questions", "questions_path", default=None, type=click.Path(dir_okay=False))
@click.option("--session", "session_dir", default=None, type=click.Path(file_okay=False))
@click.option("--systems", default=",".join(SYSTEM_IDS), show_default=True)
@click.option("--k-grid", default=DEFAULT_K_GRID, show_default=True)
@click.option("--backend", type=click.Choice(["oracle", "http"]), default="oracle")
@click.option("--oracle-mode", type=click.Choice(["perfect", "textual"]), default="perfect")
@click.option("--dataset-year", type=int, default=None)
@click.option("--n-queries", type=int, default=3, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--log-wire", is_flag=True, default=False)
@click.option("--endpoint", default="", help="http backend endpoint URL")
@click.option("--model", default="", help="http backend model name")
@click.option("--auth-env", default="MDQA_API_KEY", show_default=True)
def run_cmd(
    corpus_dir,
    questions_path,
    session_dir,
    systems,
    k_grid,
    backend,
    oracle_mode,
    dataset_year,
    n_queries,
    jobs,
    log_wire,
    endpoint,
    model,
    auth_env,
) -> None:
    """Run systems over a question set and persist a session."""
    if not corpus_dir or not questions_path or not session_dir:
        _fail("run requires --corpus, --questions, and --session (flags or config)")
    try:
        collection, table = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    if not Path(questions_path).exists():
        _fail(f"questions file not found: {questions_path}")
    questions = read_questions(questions_path)
    if not questions:
        _fail(f"questions file is empty: {questions_path}")
    if dataset_year is None:
        dataset_year = questions[0].dataset_year
    system_ids = tuple(s for s in systems.split(",") if s)
    for system_id in system_ids:
        if system_id not in SYSTEM_IDS:
            _fail(f"unknown system {system_id!r}")
    ks = _parse_int_list(k_grid)
    if not ks or any(k < 1 for k in ks):
        _fail("k grid must be non-empty with all values >= 1")

    session = Path(session_dir)
    session.mkdir(parents=True, exist_ok=True)
    write_questions(questions, session / "questions.jsonl")
    effective = {
        "corpus": str(corpus_dir),
        "questions": str(questions_path),
        "systems": list(system_ids),
        "k_grid": list(ks),
        "backend": backend,
        "oracle_mode": oracle_mode,
        "dataset_year": dataset_year,
        "n_queries": n_queries,
        "jobs": jobs,
        "log_wire": log_wire,
    }
    (session / "config.json").write_text(
        json.dumps(effective, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    ledger = CallLedger()
    backends = _build_backends(
        backend, oracle_mode, table, questions, dataset_year, ledger,
        session, log_wire, endpoint, model, auth_env,
    )
    page_index = build_index(collection, backends.embed, cache_dir=session / "index_cache")

    journal_path = session / "journal.jsonl"
    done = _read_journal(journal_path)
    todo = [
        (system_id, q, k)
        for system_id in system_ids
        for k in ks
        for q in questions
        if (system_id, q.question_id, k) not in done
    ]
    journal_lock = threading.Lock()

    def execute(item):
        system_id, question, k = item
        run = run_system(
            system_id,
            question.question_id,
            question.text,
            collection,
            page_index,
            backends,
            k,
            dataset_year,
            n_queries=n_queries,
        )
        with journal_lock:
            with open(journal_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(run.to_json_dict(), sort_keys=True) + "\n")
        return run

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            new_runs = list(pool.map(execute, todo))
    else:
        new_runs = [execute(item) for item in todo]

    all_runs = list(done.values()) + new_runs
    all_runs.sort(key=lambda r: (r.system_id, r.k, r.question_id))
    with open(session / "system_runs.jsonl", "w", encoding="utf-8") as fh:
        for run in all_runs:
            fh.write(json.dumps(run.to_json_dict(), sort_keys=True) + "\n")
    (session / "ledger.json").write_text(
        json.dumps(ledger.snapshot(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    click.echo(
        f"session {session}: {len(all_runs)} runs "
        f"({len(new_runs)} new, {len(done)} resumed), "
        f"chat_calls={ledger.chat_total}"
    )


# ---------------------------------------------------------------------------
# eval / stability / cost / trace
# ---------------------------------------------------------------------------


def _load_session(session_dir: str):
    session = Path(session_dir)
    runs_path = session / "system_runs.jsonl"
    questions_path = session / "questions.jsonl"
    config_path = session / "config.json"
    if not runs_path.exists() or not questions_path.exists():
        _fail(f"{session} is not a completed session directory")
    runs = []
    with open(runs_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                runs.append(SystemRun.from_json_dict(json.loads(line)))
    if not runs:
        _fail(f"{runs_path} holds no runs")
    questions = read_questions(questions_path)
    config = json.loads(config_path.read_text(encoding="utf-8")) if config_path.exists() else {}
    return session, runs, questions, config


@main.command(name="eval")
@click.argument("session_dir", type=click.Path(file_okay=False))
@click.option("--corpus", "corpus_dir", default=None, type=click.Path(file_okay=False))
def eval_cmd(session_dir: str, corpus_dir: str | None) -> None:
    """Score a session into report.json and report.csv."""
    session, runs, questions, config = _load_session(session_dir)
    corpus_dir = corpus_dir or config.get("corpus")
    if not corpus_dir:
        _fail("corpus path unknown; pass --corpus")
    try:
        collection, _ = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    ledger_path = session / "ledger.json"
    ledger_snapshot = (
        json.loads(ledger_path.read_text(encoding="utf-8")) if ledger_path.exists() else None
    )
    try:
        report = build_report(runs, questions, collection, ledger_snapshot=ledger_snapshot)
    except EvaluationError as exc:
        _fail(str(exc))
    json_path, csv_path = write_report(report, session)
    for cell in report["cells"]:
        click.echo(
            f"{cell['system_id']} k={cell['k']}: accuracy={cell['accuracy']:.3f} "
            f"pageR={cell['page_recall']:.3f} docR={cell['doc_recall']:.3f} "
            f"calls={cell['mean_chat_calls']:.2f}"
        )
    click.echo(f"wrote {json_path} and {csv_path}")
    if any(run.failure for run in runs):
        sys.exit(1)


@main.command()
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(file_okay=False))
@click.option("--session", "session_dir", required=True, type=click.Path(file_okay=False))
@click.option("--variant-years", required=True, help="e.g. 2019:2023")
@click.option("--templates", required=True)
@click.option("--count", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--systems", default="codegen_docs_pager", show_default=True)
@click.option("--k", type=int, default=4, show_default=True)
@click.option("--metrics", multiple=True)
@click.option("--oracle-mode", type=click.Choice(["perfect", "textual"]), default="perfect")
@click.pass_context
def stability(
    ctx,
    corpus_dir: str,
    session_dir: str,
    variant_years: str,
    templates: str,
    count: int,
    seed: int,
    systems: str,
    k: int,
    metrics: tuple[str, ...],
    oracle_mode: str,
) -> None:
    """Generate and run one benchmark variant per dataset year, then report
    the accuracy spread (templates and companies held constant)."""
    try:
        collection, table = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    session = Path(session_dir)
    session.mkdir(parents=True, exist_ok=True)
    template_ids = tuple(t for t in templates.split(",") if t)
    metrics_map = _metrics_option_to_map(metrics)
    variant_results = {}
    for year in _parse_year_span(variant_years):
        config = GenConfig(
            template_ids=template_ids,
            count_per_template=count,
            dataset_year=year,
            rng_seed=seed,
            metrics_by_template=metrics_map,
        )
        try:
            questions = generate_questions(table, collection, config)
        except QuestionGenError as exc:
            _fail(f"variant {year}: {exc}")
        variant_dir = session / f"variant-{year}"
        write_questions(questions, variant_dir / "questions.jsonl")
        ctx.invoke(
            run_cmd,
            corpus_dir=corpus_dir,
            questions_path=str(variant_dir / "questions.jsonl"),
            session_dir=str(variant_dir),
            systems=systems,
            k_grid=str(k),
            backend="oracle",
            oracle_mode=oracle_mode,
            dataset_year=year,
        )
        _, runs, qs, _ = _load_session(str(variant_dir))
        variant_results[str(year)] = (runs, qs)
    report = stability_report(variant_results)
    (session / "stability.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for variant, accuracy in report["per_variant"].items():
        click.echo(f"variant {variant}: accuracy={accuracy:.4f}")
    click.echo(f"mean={report['mean']:.4f} stddev={report['stddev']:.4f}")


@main.command()
@click.argument("session_dir", type=click.Path(file_okay=False))
def cost(session_dir: str) -> None:
    """Mean chat calls per system with ratios against vanilla."""
    session, runs, _, _ = _load_session(session_dir)
    report = cost_report(runs)
    (session / "cost.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for system_id, mean in report["mean_chat_calls"].items():
        line = f"{system_id}: mean_chat_calls={mean:.2f}"
        ratio = report.get("ratio_vs_vanilla", {}).get(system_id)
        if ratio is not None:
            line += f" ratio_vs_vanilla={ratio:.2f}"
        click.echo(line)


@main.command()
@click.argument("session_dir", type=click.Path(file_okay=False))
@click.argument("question_id")
@click.argument("system_id")
@click.argument("k", type=int)
@click.option("--corpus", "corpus_dir", default=None, type=click.Path(file_okay=False))
def trace(session_dir: str, question_id: str, system_id: str, k: int, corpus_dir) -> None:
    """Dump the retrieved pages of one run with per-field match flags, plus
    the plan source and trace for codegen systems."""
    session, runs, questions, config = _load_session(session_dir)
    corpus_dir = corpus_dir or config.get("corpus")
    if not corpus_dir:
        _fail("corpus path unknown; pass --corpus")
    try:
        collection, _ = _load_corpus(corpus_dir)
    except CorpusError as exc:
        _fail(str(exc))
    question = next((q for q in questions if q.question_id == question_id), None)
    if question is None:
        _fail(f"unknown question_id {question_id!r}")
    run = next(
        (
            r
            for r in runs
            if r.question_id == question_id and r.system_id == system_id and r.k == k
        ),
        None,
    )
    if run is None:
        _fail(f"no run for ({question_id}, {system_id}, k={k})")
    click.echo(f"Question: {question.text.splitlines()[0]}")
    gold_answer = question.gold.to_json_dict()
    click.echo(f"Gold: {gold_answer['value']}  docs={', '.join(question.gold_docs)}")
    predicted = run.predicted.to_json_dict()["value"] if run.predicted else None
    click.echo(f"Predicted: {predicted}  failure={run.failure}")
    gold_signatures = set()
    for doc_id in question.gold_docs:
        doc = collection.get_document(doc_id)
        gold_signatures.add(doc.signature())
    gold_pages = set(question.gold_pages)
    click.echo("Retrieved pages:")
    for ref in run.retrieved_pages:
        sym, form, year, period_end = doc_signature(ref, collection)
        wrong = []
        if not any(sym == g[0] for g in gold_signatures):
            wrong.append("company")
        if not any(sym == g[0] and form == g[1] for g in gold_signatures):
            wrong.append("form_type")
        if not any(sym == g[0] and year == g[2] for g in gold_signatures):
            wrong.append("fiscal_year")
        matched = "yes" if ref in gold_pages else "no"
        flag = f" wrong:{','.join(wrong)}" if wrong else ""
        click.echo(
            f"  page {ref[0]}#{ref[1]}  form={form} company={sym} "
            f"fiscal_year={year} period_end={period_end.isoformat()} "
            f"matched={matched}{flag}"
        )
    if run.plan_source:
        click.echo("Plan source:")
        for line in run.plan_source.rstrip().splitlines():
            click.echo(f"  {line}")
    if run.trace:
        click.echo("Builtin calls:")
        for name, args, result in run.trace.get("builtin_calls", []):
            click.echo(f"  {name}({args}) -> {result}")


if __name__ == "__main__":
    main()
