"""Run one ``mdqa`` CLI command in this process, for the session benchmark.

    python3 benchmarks/launch.py [--http-oracle CORPUS QUESTIONS] [--trace FILE] -- ARGS...

``ARGS`` are the ``mdqa`` command line (``run --corpus ...``). The package is
imported from ``src/`` of the checkout holding this file.

``--http-oracle`` installs a fake ``Transport`` at
``mdqa.backends._requests_transport``: chat requests are answered by an
``OracleChatBackend`` over the given corpus and questions, embedding requests
by a ``HashedBowEmbedder``, with no injected latency. ``--http`` sessions then
run the real HTTP backend (request hashing, disk cache, call accounting)
without a network.

``--trace`` wraps each layer's public functions (see ``tracing.py``) and
writes the spans and the command's wall time to ``FILE`` when it ends.

The exit code is the command's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def oracle_transport(corpus_dir: str, questions_path: str):
    """An in-process ``Transport`` answering like the oracle backends."""
    from mdqa.backends import HashedBowEmbedder
    from mdqa.corpus import load_collection, load_fact_table
    from mdqa.oracle import OracleChatBackend
    from mdqa.questiongen import read_questions
    from mdqa.synth import ORACLE_METRIC_ALIASES

    collection = load_collection(corpus_dir)
    table = load_fact_table(corpus_dir, collection)
    questions = read_questions(questions_path)
    chat = OracleChatBackend(
        table,
        questions[0].dataset_year,
        questions=questions,
        mode="perfect",
        metric_aliases=ORACLE_METRIC_ALIASES,
    )
    embedder = HashedBowEmbedder()

    def transport(url: str, body: dict, headers: dict, timeout: float):
        if url.endswith("/chat/completions"):
            reply = chat.chat(body["messages"])
            return 200, {"choices": [{"message": {"content": reply}}]}
        if url.endswith("/embeddings"):
            vectors = embedder.embed(body["input"])
            return 200, {"data": [{"embedding": v.tolist()} for v in vectors]}
        return 404, {"error": f"no such route: {url}"}

    return transport


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--http-oracle", nargs=2, metavar=("CORPUS", "QUESTIONS"))
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("mdqa_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    mdqa_args = opts.mdqa_args[1:] if opts.mdqa_args[:1] == ["--"] else opts.mdqa_args

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mdqa.backends
    import mdqa.cli

    if opts.http_oracle:
        mdqa.backends._requests_transport = oracle_transport(*opts.http_oracle)
    tracer = None
    if opts.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    start = perf_counter()
    try:
        mdqa.cli.main.main(args=mdqa_args, prog_name="mdqa", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    wall_s = perf_counter() - start
    if tracer is not None:
        tracer.dump(opts.trace, wall_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
