"""Session benchmark for mdqa: synth -> gen -> run -> eval -> run (resume).

    python3 benchmarks/bench_session.py --workload clean_sweep --seed 1 --seconds 55 --trace 0

Each repetition drives the real ``mdqa`` CLI through one whole session in a
fresh directory, one child process per command (``launch.py``), with
``--jobs 1``. Repetitions continue until ``--seconds`` have passed (at least
``MIN_REPS``). Every repetition's outputs are checked before its timings are
used; see ``check_session``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over repetitions). With ``--trace 1`` the same untraced repetitions
run, then one more repetition with every layer wrapped in spans (see
``tracing.py``), and the last line holds the per-layer metrics. The line
before it is a JSON record of the environment, the per-repetition values and
the sha256 of ``system_runs.jsonl`` and ``report.json``.

BLAS threading is left at the user's default, not pinned: the second BLAS
thread on the retrieval mat-vec is part of what a user of ``mdqa run`` pays
today, and a fix for it must be able to show. The thread variables in effect
are recorded with each result.

Inputs come from ``--seed`` alone (it seeds ``gen``; the corpus is fixed), so
the same seed gives byte-identical inputs. Everything is written under
``.bench_work/`` of the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
WORK_ROOT = ROOT / ".bench_work"

TEMPLATES = "ve1,ve2,cve1,md1,md2,md3,md4,yn1,mo1"
ALL_SYSTEMS = ("vanilla_rag", "multi_query_rag", "codegen_pager", "codegen_docs_pager")
DEFAULT_KS = (4, 8, 16, 32, 48, 64, 128)
DATASET_YEAR = 2023
# A localhost endpoint: should the fake transport ever be missing, requests
# are refused locally instead of leaving the machine.
HTTP_ENDPOINT = "http://127.0.0.1:9/v1"

# The corpus is the CLI's default synthetic bundle (the ROADMAP baseline);
# --seed draws the question set. Many synth seeds (4, 12-16, 19, 21, ...)
# make ``synth`` loop forever while resampling a count series, a defect of
# the generator, so the corpus seed is not varied.
CORPUS_SEED = 11

MIN_REPS = 3
STEP_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_kind: str
    count: int
    systems: tuple[str, ...]
    ks: tuple[int, ...]
    oracle_mode: str
    backend: str


# Why each workload was chosen: see README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean_sweep", "clean", 5, ALL_SYSTEMS, DEFAULT_KS, "perfect", "oracle"),
        Workload("adversarial_k16", "adversarial", 35, ALL_SYSTEMS, (16,), "textual", "oracle"),
        Workload(
            "docs_pager_http", "clean", 35, ("codegen_docs_pager",), DEFAULT_KS, "perfect", "http"
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("session_s", "s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("session_mb", "MB"),
    ("accuracy", "ratio"),
    ("page_recall", "ratio"),
    ("ok_run_share", "ratio"),
)


# ---------------------------------------------------------------------------
# Commands of one session
# ---------------------------------------------------------------------------


def setup_commands(workload: Workload, seed: int) -> list[list[str]]:
    return [
        ["synth", "corpus", "--kind", workload.corpus_kind, "--seed", str(CORPUS_SEED)],
        [
            "gen", "--corpus", "corpus", "--out", "questions.jsonl",
            "--templates", TEMPLATES, "--count", str(workload.count),
            "--dataset-year", str(DATASET_YEAR), "--seed", str(seed),
        ],
    ]


def run_command(workload: Workload, session: str, backend: str | None = None) -> list[str]:
    backend = backend or workload.backend
    args = [
        "run", "--corpus", "corpus", "--questions", "questions.jsonl", "--session", session,
        "--systems", ",".join(workload.systems),
        "--k-grid", ",".join(str(k) for k in workload.ks),
        "--backend", backend, "--oracle-mode", workload.oracle_mode, "--jobs", "1",
    ]
    if backend == "http":
        args += ["--endpoint", HTTP_ENDPOINT, "--model", "bench-oracle"]
    return args


@dataclass
class Step:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_step(
    mdqa_args: list[str], cwd: Path, label: str, http: bool = False, trace: Path | None = None
) -> Step:
    """Run one mdqa command in a child process and wait for it.

    Wall time is measured around the whole child, as a user of the CLI sees
    it; CPU time and peak RSS are the child's own, from ``wait4``.
    """
    cmd = [sys.executable, str(LAUNCH)]
    env = dict(os.environ)
    if http:
        cmd += ["--http-oracle", "corpus", "questions.jsonl"]
        env["MDQA_API_KEY"] = "bench"
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", *mdqa_args]
    with open(cwd / f"{label}.log", "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return Step(
        code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_digests(rep_dir: Path) -> dict[str, str]:
    files = sorted((rep_dir / "corpus").iterdir()) + [rep_dir / "questions.jsonl"]
    return {f.relative_to(rep_dir).as_posix(): sha256_file(f) for f in files}


def expected_keys(workload: Workload, questions_path: Path) -> set[tuple[str, str, int]]:
    with open(questions_path, encoding="utf-8") as fh:
        qids = [json.loads(line)["question_id"] for line in fh if line.strip()]
    return {(s, q, k) for s in workload.systems for q in qids for k in workload.ks}


def check_session(session: Path, expected: set[tuple[str, str, int]]) -> tuple[list[str], int]:
    """Check one finished session's run records against the expected grid.

    Returns the problems found and the number of expected runs that are
    missing, duplicated or carry a ``failure``.
    """
    problems = []
    seen: dict[tuple[str, str, int], int] = {}
    failed = 0
    with open(session / "system_runs.jsonl", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                run = json.loads(line)
                key = (run["system_id"], run["question_id"], int(run["k"]))
            except (ValueError, KeyError, TypeError):
                problems.append(f"system_runs.jsonl:{line_no}: unreadable run record")
                failed += 1
                continue
            seen[key] = seen.get(key, 0) + 1
            if run.get("failure") and key in expected:
                failed += 1
    missing = expected - seen.keys()
    extra = seen.keys() - expected
    dups = [k for k, n in seen.items() if n > 1]
    if missing:
        problems.append(f"{len(missing)} expected runs missing")
        failed += len(missing)
    if extra:
        problems.append(f"{len(extra)} runs outside questions x systems x ks")
    if dups:
        problems.append(f"{len(dups)} duplicate run keys")
        failed += sum(seen[k] - 1 for k in dups)
    return problems, min(failed, len(expected))


def reference_problems(rep: dict, reference: dict) -> list[str]:
    """Inputs, ``system_runs.jsonl`` and ``report.json`` must be
    byte-identical to the first repetition's."""
    return [
        f"{key} differs from the first repetition"
        for key in ("inputs", "runs_sha256", "report_sha256")
        if rep[key] != reference[key]
    ]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def report_scores(report_path: Path) -> tuple[float, float, int]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    cells = report["cells"]
    n_runs = sum(c["n_runs"] for c in cells)
    accuracy = sum(c["n_correct"] for c in cells) / n_runs
    page_recall = fmean(c["page_recall"] for c in cells)
    return accuracy, page_recall, report["n_runs"]


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def session_rep(
    workload: Workload,
    seed: int,
    rep_dir: Path,
    reference: dict | None,
    trace_dir: Path | None = None,
) -> dict:
    """Set up, run, evaluate and resume one session; check it against the
    first repetition (``reference``) and return its measurements. With
    ``trace_dir`` every command is traced and the resume is skipped."""
    rep_dir.mkdir(parents=True)
    http = workload.backend == "http"
    problems: list[str] = []
    traces: dict[str, str] = {}

    def step(args, label, **kw):
        trace = trace_dir / f"{label}.json" if trace_dir else None
        if trace is not None:
            traces[label] = str(trace)
        result = run_step(args, rep_dir, label, trace=trace, **kw)
        if result.code != 0:
            problems.append(f"{label} exited {result.code} (see {label}.log)")
        return result

    setup = [step(args, f"setup{i}") for i, args in enumerate(setup_commands(workload, seed))]
    out: dict = {"setup_s": sum(s.wall_s for s in setup), "problems": problems, "traces": traces}
    if problems:
        return out
    out["inputs"] = input_digests(rep_dir)
    expected = expected_keys(workload, rep_dir / "questions.jsonl")
    session = rep_dir / "session"
    runs_path, report_path = session / "system_runs.jsonl", session / "report.json"
    cold = step(run_command(workload, "session"), "run", http=http)
    if problems:
        return out
    run_problems, failed = check_session(session, expected)
    problems.extend(run_problems)
    out["runs_sha256"] = sha256_file(runs_path)
    evaluated = step(["eval", "session"], "eval")
    if problems:
        return out
    out["report_sha256"] = sha256_file(report_path)
    out["session_bytes"] = dir_bytes(session)
    out["session_files"] = session_files(session)
    accuracy, page_recall, n_report = report_scores(report_path)
    if n_report != len(expected):
        problems.append(f"report.json counts {n_report} runs, expected {len(expected)}")
    if trace_dir is None:
        out["resume_s"] = step(run_command(workload, "session"), "resume", http=http).wall_s
        if sha256_file(runs_path) != out["runs_sha256"]:
            problems.append("resumed session rewrote system_runs.jsonl differently")
    if reference is not None:
        problems.extend(reference_problems(out, reference))
    out.update(
        runs=len(expected),
        failed=len(expected) if problems else failed,
        run_s=cold.wall_s,
        eval_s=evaluated.wall_s,
        peak_rss_mb=cold.peak_rss_mb,
        cpu_per_wall=cold.cpu_s / cold.wall_s,
        accuracy=accuracy,
        page_recall=page_recall,
    )
    return out


def session_files(session: Path) -> dict[str, float]:
    mb = 1e6
    cache = session / "index_cache"
    return {
        "session.journal_mb": (session / "journal.jsonl").stat().st_size / mb,
        "session.system_runs_mb": (session / "system_runs.jsonl").stat().st_size / mb,
        "session.index_cache_mb": dir_bytes(cache) / mb,
        "session.index_cache_files": float(sum(1 for f in cache.iterdir() if f.is_file())),
        "backends.http_cache.files": float(
            sum(1 for _ in (session / "http_cache").iterdir())
            if (session / "http_cache").is_dir() else 0
        ),
    }


def oracle_equivalence(workload: Workload, rep_dir: Path, runs_sha256: str) -> list[str]:
    """An oracle-backend session on the same inputs must give the same
    ``system_runs.jsonl`` as the HTTP backend over the fake transport."""
    result = run_step(run_command(workload, "session_oracle", backend="oracle"), rep_dir, "oracle")
    if result.code != 0:
        return [f"oracle reference session exited {result.code}"]
    if sha256_file(rep_dir / "session_oracle" / "system_runs.jsonl") != runs_sha256:
        return ["http session differs from the oracle-backend session"]
    return []


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        import numpy

        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        numpy_info = {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    except (ImportError, TypeError):
        numpy_info = {"numpy": None, "blas": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **numpy_info,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads": "user default (not pinned)",
        "jobs": 1,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, float]:
    """Medians over repetitions; ``session_s`` is the median cold ``run``
    plus the median ``eval``."""
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "session_s": median([r["run_s"] for r in reps]) + median([r["eval_s"] for r in reps]),
        "runs_per_s": median([r["runs"] / r["run_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "session_mb": median([r["session_bytes"] / 1e6 for r in reps]),
        "accuracy": median([r["accuracy"] for r in reps]),
        "page_recall": median([r["page_recall"] for r in reps]),
        "ok_run_share": 1.0 - failed / attempted,
    }


def per_layer(reps: list[dict], traced: dict) -> dict[str, float]:
    """Layer metrics of the traced repetition, plus those taken from the
    untraced ones."""
    traces = {
        label: json.loads(Path(path).read_text(encoding="utf-8"))
        for label, path in traced["traces"].items()
    }
    metrics = tracing.layer_metrics(tracing.merge_traces(list(traces.values())))
    run_trace = traces["run"]
    metrics["cli.session_io_s"] = (
        run_trace["wall_s"]
        - tracing.total_s(run_trace, "retrieval.build_index")
        - tracing.total_s(run_trace, "qasystems.run_system")
    )
    metrics["trace.run_s"] = run_trace["wall_s"]
    metrics["trace.unattributed_s"] = tracing.unattributed_s(run_trace)
    metrics["trace.overhead_s"] = traced["run_s"] - median([r["run_s"] for r in reps])
    metrics["process.cpu_per_wall"] = median([r["cpu_per_wall"] for r in reps])
    metrics["cli.eval_s"] = median([r["eval_s"] for r in reps])
    metrics["cli.resume_s"] = median([r["resume_s"] for r in reps])
    metrics.update(traced["session_files"])
    return metrics


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, dict | None]:
    """Run the repetitions (and, with ``trace``, the traced one). Returns the
    detail record and the result, or None for the result when not a single
    repetition completed."""
    start = perf_counter()
    reps: list[dict] = []
    problems: list[str] = []
    # Start another repetition while it would end closer to --seconds than
    # stopping now does.
    while len(reps) < MIN_REPS or (
        perf_counter() - start + (perf_counter() - start) / len(reps) / 2 < seconds
    ):
        rep = session_rep(workload, seed, work / f"rep{len(reps)}", reps[0] if reps else None)
        reps.append(rep)
        problems += [f"rep {len(reps) - 1}: {p}" for p in rep["problems"]]
        if "run_s" not in reps[0]:
            break
        if len(reps) > 1:
            shutil.rmtree(work / f"rep{len(reps) - 1}")
    measured_s = perf_counter() - start
    done = [r for r in reps if "run_s" in r]
    if done and workload.backend == "http":
        problems += oracle_equivalence(workload, work / "rep0", reps[0]["runs_sha256"])
    runs = reps[0].get("runs", 0)
    attempted = runs * len(reps)
    failed = sum(r.get("failed", runs) for r in reps)

    traced = None
    if trace and done:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = session_rep(workload, seed, work / "traced", reps[0], trace_dir=trace_dir)
        problems += [f"traced rep: {p}" for p in traced["problems"]]
        attempted += runs
        failed += traced.get("failed", runs)
        if "run_s" not in traced:
            traced = None

    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "measured_s": measured_s,
        "problems": problems,
        "runs_sha256": reps[0].get("runs_sha256"),
        "report_sha256": reps[0].get("report_sha256"),
        "reps": [{k: v for k, v in r.items() if k not in ("inputs", "problems", "traces")} for r in reps],
    }
    if not done or (trace and traced is None):
        return detail, None
    if problems:
        failed = max(failed, 1)
    metrics = per_layer(done, traced) if trace else end_to_end(done, attempted, failed)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mdqa" / "cli.py").is_file():
        print(f"error: no mdqa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        detail, result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    detail["environment"] = {
        **environment(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()
    }
    print(json.dumps(detail, sort_keys=True))
    if result is None:
        print("error: no repetition completed; see problems above", file=sys.stderr)
        return 1
    units = dict(END_TO_END)
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name, layer_unit(name))}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_s") or suffix == "s":
        return "s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_us"):
        return "us"
    if suffix.endswith("_mb"):
        return "MB"
    if suffix in ("hit_ratio", "cpu_per_wall"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
