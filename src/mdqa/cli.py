"""Command-line orchestration: ingest, synth, gen, run, eval, stability,
cost, trace.

Sessions live under an output directory: the effective config, the question
set, the run records, call ledger, caches, and reports. ``mdqa run`` keeps no
run in memory: each completed run is appended to ``journal.jsonl`` (so an
interrupted session resumes), and at the end the journal's lines are copied,
sorted, into ``system_runs.jsonl`` and the journal is emptied. Everything a
report needs is recorded in the session, and identical inputs with oracle
backends reproduce identical outputs byte for byte.

Exit codes: 0 success; 1 evaluation completed but found pipeline failures;
2 usage or validation error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import sys
import threading
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import synth as synth_mod
from .backends import (
    BackendConfig,
    BackendConfigError,
    BackendError,
    HashedBowEmbedder,
    HttpChatBackend,
    HttpEmbedBackend,
)
from .corpus import (
    CorpusError,
    DocumentCollection,
    FactTable,
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
from .files import AppendLog, FileFormatError, atomic_open, jsonl_line, read_json, read_jsonl, write_json
from .oracle import OracleChatBackend
from .qasystems import RUN_FORMAT, SYSTEM_IDS, Backends, SystemRun, run_system
from .questiongen import (
    GenConfig,
    Question,
    QuestionGenError,
    generate_questions,
    read_questions,
    write_questions,
)
from .retrieval import RetrievalError, build_index

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


def _parse_id_list(text: str, option: str) -> tuple[str, ...]:
    """``a,b,c``. An empty entry or a repeated one exits 2."""
    ids = tuple(text.split(","))
    if "" in ids or len(set(ids)) < len(ids):
        _fail(f"{option} expects distinct comma-separated ids, got {text!r}")
    return ids


def _parse_systems(text: str) -> tuple[str, ...]:
    system_ids = _parse_id_list(text, "--systems")
    for system_id in system_ids:
        if system_id not in SYSTEM_IDS:
            _fail(f"unknown system {system_id!r}")
    return system_ids


def _parse_int_list(text: str, option: str, span: bool = False) -> tuple[int, ...]:
    """``4,8,16``, or with ``span`` an inclusive ``2019:2023``. A bad or empty
    list, an empty entry, a repeated value or one below 1 exits 2."""
    try:
        if span and ":" in text:
            lo, hi = text.split(":", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(p) for p in text.split(","))
    except ValueError:
        _fail(f"{option} expects comma-separated integers, got {text!r}")
    if not values or min(values) < 1 or len(set(values)) < len(values):
        _fail(f"{option} expects one or more distinct integers >= 1, got {text!r}")
    return values


def _require_positive(value: int, option: str) -> None:
    if value < 1:
        _fail(f"{option} must be >= 1, got {value}")


def _load_corpus(corpus_dir: str) -> tuple[DocumentCollection, FactTable]:
    collection = load_collection(corpus_dir)
    table = load_fact_table(corpus_dir, collection)
    return collection, table


class _Main(click.Group):
    # Errors that mean the input (corpus, questions, session, options) is bad.
    INPUT_ERRORS = (
        BackendConfigError, CorpusError, EvaluationError, FileFormatError,
        QuestionGenError, RetrievalError,
    )

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except self.INPUT_ERRORS as exc:
            _fail(str(exc))


@click.group(cls=_Main)
def main() -> None:
    """Multi-document QA benchmark harness."""


# ---------------------------------------------------------------------------
# ingest / synth / gen
# ---------------------------------------------------------------------------


@main.command()
@click.argument("corpus_dir", type=click.Path(file_okay=False))
def ingest(corpus_dir: str) -> None:
    """Validate a corpus directory and print its summary."""
    collection, table = _load_corpus(corpus_dir)
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
            years=_parse_int_list(years, "--years", span=True), seed=seed,
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
        out[template_id] = _parse_id_list(metric_csv, "--metrics")
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
    _require_positive(count, "--count")
    _require_positive(company_list_size, "--company-list-size")
    template_ids = _parse_id_list(templates, "--templates")
    collection, table = _load_corpus(corpus_dir)
    metrics_map = _metrics_option_to_map(metrics)
    variants = (
        _parse_int_list(variant_years, "--variant-years", span=True)
        if variant_years
        else (dataset_year,)
    )
    out_path = Path(out_path)
    for year in variants:
        config = GenConfig(
            template_ids=template_ids,
            count_per_template=count,
            dataset_year=year,
            rng_seed=seed,
            metrics_by_template=metrics_map,
            years=_parse_int_list(years, "--years", span=True) if years else None,
            num_years=_parse_int_list(num_years, "--num-years"),
            company_list_size=company_list_size,
        )
        questions = generate_questions(table, collection, config)
        target = (
            out_path
            if len(variants) == 1
            else out_path.with_name(f"{out_path.stem}-{year}{out_path.suffix}")
        )
        write_questions(questions, target)
        click.echo(f"{target}: {len(questions)} questions")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _build_backends(
    backend: str, oracle_mode: str, table: FactTable, questions: list[Question],
    dataset_year: int, session_dir: Path, log_wire: bool,
    endpoint: str, model: str, auth_env: str, files: contextlib.ExitStack,
) -> Backends:
    """The session's backends; ``files`` closes their logs. ``index_cache/``
    holds the HTTP embedder's vectors. The oracle's embedder is local and
    fast, so an oracle session stores no vectors."""
    index_cache = session_dir / "index_cache"
    if backend == "oracle":
        index_cache.mkdir(exist_ok=True)  # benchmarks/bench_session.py lists it
        chat = OracleChatBackend(
            table,
            dataset_year,
            questions=questions,
            mode=oracle_mode,
            metric_aliases=synth_mod.ORACLE_METRIC_ALIASES,
        )
        return Backends(chat=chat, embed=HashedBowEmbedder())
    config = BackendConfig(
        endpoint=endpoint,
        model=model,
        auth_env=auth_env,
        cache_dir=session_dir / "http_cache",
    )
    wire = files.enter_context(AppendLog(session_dir / "wire.jsonl")) if log_wire else None
    chat = files.enter_context(HttpChatBackend(config, wire_log=wire))
    embed = files.enter_context(HttpEmbedBackend(
        dataclasses.replace(config, cache_dir=index_cache), wire_log=wire
    ))
    return Backends(chat=chat, embed=embed)


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
    # A TOML array stands for a comma-separated list (k_grid = [4, 8]).
    ctx.default_map = {
        names[key]: ",".join(map(str, value)) if isinstance(value, list) else value
        for key, value in table.items()
    }
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
    collection, table = _load_corpus(corpus_dir)
    if not Path(questions_path).exists():
        _fail(f"questions file not found: {questions_path}")
    questions = read_questions(questions_path)
    if not questions:
        _fail(f"questions file is empty: {questions_path}")
    if dataset_year is None:
        dataset_year = questions[0].dataset_year
    system_ids = _parse_systems(systems)
    ks = _parse_int_list(k_grid, "--k-grid")
    _require_positive(n_queries, "--n-queries")
    _require_positive(jobs, "--jobs")

    session = Path(session_dir)
    _check_resumable(session, backend)
    session.mkdir(parents=True, exist_ok=True)
    write_questions(questions, session / "questions.jsonl")
    effective = {
        "format": RUN_FORMAT,
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
    write_json(session / "config.json", effective)

    with contextlib.ExitStack() as files:
        backends = _build_backends(
            backend, oracle_mode, table, questions, dataset_year,
            session, log_wire, endpoint, model, auth_env, files,
        )
        try:
            page_index = build_index(collection, backends.embed)
        except BackendError as exc:
            _fail(f"the page index could not be built: {exc}")
        # The journal holds each completed run once, by key: opening it cut
        # off a torn last line (that run is redone), and the runs of a
        # finished session that it lacks are appended to it. Each line read
        # is parsed once, and the first record of each key leaves its
        # ``_calls`` in ``resumed``.
        resumed: dict[tuple[str, str, int], tuple[str, str, int, int]] = {}
        journal = files.enter_context(
            AppendLog(session / "journal.jsonl", key=functools.partial(_run_key, resumed))
        )
        runs_path = session / "system_runs.jsonl"
        if runs_path.exists():
            journal.extend(runs_path)
        done = set(journal.keys())
        # A sweep is one (question, system) over the ks; sweeps go
        # question-major, then system-major, so the parse memo catches a
        # sweep's repeats and the ranking memo multi_query_rag's repeat of
        # vanilla_rag's. Runs are taken in blocks of ``jobs`` sweeps, k by k
        # in ascending order: one worker runs each sweep's ks in turn, and
        # more workers share a block's smaller ks before its larger ones.
        ascending = sorted(ks)
        sweeps = [(system_id, q) for q in questions for system_id in system_ids]
        todo = [
            (system_id, q, k)
            for start in range(0, len(sweeps), jobs)
            for k in ascending
            for system_id, q in sweeps[start : start + jobs]
            if (system_id, q.question_id, k) not in done
        ]
        # Per sweep, its runs left to write and the record of its first
        # k-free run; both are dropped with the sweep's last run.
        left = Counter((system_id, q.question_id) for system_id, q, _ in todo)
        k_free: dict[tuple[str, str], dict] = {}
        lock = threading.Lock()

        def execute(item) -> dict:
            """Run one (system, question, k), or, once a smaller k of its
            sweep was k-free, write that run's record with only ``k``
            changed. A k that starts before then is executed."""
            system_id, question, k = item
            sweep = system_id, question.question_id
            with lock:
                found = k_free.get(sweep)
            if found is not None and found["k"] < k:
                record, is_k_free = {**found, "k": k}, False
            else:
                run = run_system(
                    system_id, question.question_id, question.text, collection,
                    page_index, backends, k, dataset_year, n_queries=n_queries,
                )
                record, is_k_free = run.to_json_dict(), run.k_free
            journal.append(jsonl_line(record).encode("utf-8"), (*sweep, k))
            with lock:
                if is_k_free:
                    k_free.setdefault(sweep, record)
                left[sweep] -= 1
                if not left[sweep]:
                    del left[sweep]
                    k_free.pop(sweep, None)
            return record

        # Each run record comes back to this thread, which alone sums them.
        chat_log = backends.chat.cache if backend == "http" else None
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            new_records = pool.map(execute, todo) if jobs > 1 else map(execute, todo)
            calls = itertools.chain(resumed.values(), map(_calls, new_records))
            ledger = _ledger(calls, page_index.texts_embedded, chat_log)
        n_runs = _write_runs(journal, runs_path)

    write_json(session / "ledger.json", ledger)
    click.echo(
        f"session {session}: {n_runs} runs "
        f"({len(todo)} new, {len(done)} resumed), "
        f"chat_calls={ledger['chat_total']}"
    )


def _ledger(
    calls: Iterable[tuple[str, str, int, int]], index_texts: int, chat_log: AppendLog | None
) -> dict:
    """``ledger.json``, a fold of the session: chat and embed calls per
    (system, question) summed from the ``_calls`` of its run records, the
    ``index_texts`` its index build embedded as scope ``-/-``, and the
    replies in its chat log (each went over the network once; none without a
    log). Scopes are keyed ``system/question`` in sorted order; scopes of 0
    calls are left out."""
    chat: Counter[tuple[str, str]] = Counter()
    embed: Counter[tuple[str, str]] = Counter({("-", "-"): index_texts})
    for system_id, question_id, chat_calls, embed_calls in calls:
        chat[system_id, question_id] += chat_calls
        embed[system_id, question_id] += embed_calls

    def by_scope(counts: Counter) -> dict[str, int]:
        return {f"{s}/{q}": n for (s, q), n in sorted(counts.items()) if n}

    return {
        "chat_total": sum(chat.values()),
        "chat_by_scope": by_scope(chat),
        "embed_total": sum(embed.values()),
        "embed_by_scope": by_scope(embed),
        "network_chat_total": len(chat_log.keys()) if chat_log is not None else 0,
    }


def _check_resumable(session: Path, backend: str) -> None:
    """Exit 2 if ``session`` holds run records of another format (format 1
    if ``config.json`` names none) or of another backend, so that one session
    never mixes formats or backends. The HTTP embedder's store pins its
    model."""
    config = session / "config.json"
    if not config.exists():
        return
    found = read_json(config, dict)
    if found.get("format", 1) != RUN_FORMAT:
        _fail(f"{session} holds run records of format {found.get('format', 1)}; "
              f"this mdqa writes format {RUN_FORMAT} and cannot resume it")
    if found.get("backend", backend) != backend:
        _fail(f"{session} was run with --backend {found['backend']}; "
              f"it cannot be resumed with --backend {backend}")


def _calls(record: dict) -> tuple[str, str, int, int]:
    """(system, question, chat calls, embed calls) of a run record."""
    return record["system_id"], record["question_id"], record["chat_calls"], record["embed_calls"]


def _run_key(calls: dict, line: bytes) -> tuple[str, str, int]:
    """(system, question, k) of a run's JSON line. The first line of each
    key leaves its ``_calls`` in ``calls``."""
    record = json.loads(line)
    key = record["system_id"], record["question_id"], int(record["k"])
    calls.setdefault(key, _calls(record))
    return key


def _write_runs(journal: AppendLog, path: Path) -> int:
    """Copy the journal's runs into ``path``, sorted by (system, k,
    question), then empty the journal. A crash in between leaves both files
    holding the same runs; a resume reads their union. Returns the count."""
    keys = sorted(journal.keys(), key=lambda key: (key[0], key[2], key[1]))
    with atomic_open(path, "wb") as fh:
        fh.writelines(map(journal.read, keys))
    journal.clear()
    return len(keys)


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
    runs = read_jsonl(runs_path, SystemRun.from_json_dict)
    if not runs:
        _fail(f"{runs_path} holds no runs")
    questions = read_questions(questions_path)
    config = read_json(config_path, dict) if config_path.exists() else {}
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
    collection, _ = _load_corpus(corpus_dir)
    ledger_path = session / "ledger.json"
    ledger_snapshot = read_json(ledger_path) if ledger_path.exists() else None
    report = build_report(runs, questions, collection, ledger_snapshot=ledger_snapshot)
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
    _require_positive(count, "--count")
    _require_positive(k, "--k")
    years = _parse_int_list(variant_years, "--variant-years", span=True)
    if len(years) < 2:
        _fail(f"--variant-years needs at least 2 years, got {variant_years!r}")
    template_ids = _parse_id_list(templates, "--templates")
    _parse_systems(systems)  # run parses them again, after files are written
    metrics_map = _metrics_option_to_map(metrics)
    collection, table = _load_corpus(corpus_dir)
    session = Path(session_dir)
    session.mkdir(parents=True, exist_ok=True)
    variant_results = {}
    for year in years:
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
    write_json(session / "stability.json", report)
    for variant, accuracy in report["per_variant"].items():
        click.echo(f"variant {variant}: accuracy={accuracy:.4f}")
    click.echo(f"mean={report['mean']:.4f} stddev={report['stddev']:.4f}")


@main.command()
@click.argument("session_dir", type=click.Path(file_okay=False))
def cost(session_dir: str) -> None:
    """Mean chat calls per system with ratios against vanilla."""
    session, runs, _, _ = _load_session(session_dir)
    report = cost_report(runs)
    write_json(session / "cost.json", report)
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
    collection, _ = _load_corpus(corpus_dir)
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
    gold_signatures = set(map(collection.signature_of, question.gold_docs))
    gold_pages = set(question.gold_pages)
    click.echo("Retrieved pages:")
    for ref in run.retrieved_pages:
        sym, form, year, period_end = collection.page_signature(ref)
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
            f"fiscal_year={year} period_end={period_end} "
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
