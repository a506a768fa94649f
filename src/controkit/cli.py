"""Command-line entry points.

Subcommands: ``crawl``, ``split``, ``train``, ``eval``, ``experiment``,
``report``. Exit codes: 0 success, 2 usage error, 3 data/format error,
4 numeric failure. All randomness flows from the single ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import asdict

from . import __version__, reports
from .corpus import (
    CrawlFailure,
    CrawlPolicy,
    read_documents,
    read_edges,
    read_seeds,
    split_dataset,
    write_documents,
    write_edges,
    write_records,
)
from .errors import (
    DataFormatError,
    DimensionError,
    DomainError,
    IntegrityError,
    NumericError,
    UsageError,
    require_int,
)
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment
from .metrics import evaluate_predictions, prediction_set
from .models import MODEL_KINDS, TrainConfig, fit, load_classifier, predict, save_classifier
from .reports import dump_json
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_json(path) -> dict:
    """The JSON object a file holds; anything else is a ``DataFormatError``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def cmd_crawl(args) -> int:
    require_int("--negatives", args.negatives, 0)
    seeds = read_seeds(args.seeds)
    policy_data = _load_json(args.policy) if args.policy else {}
    server = None
    try:
        if args.fixture_server:
            from .fixture_wiki import FixtureServer, wiki_from_json

            wiki = wiki_from_json(_load_json(args.fixture_server))
            policy_data.setdefault("wikipedia_hosts", ["wiki.test"])
            policy_data.setdefault("per_host_delay", 0.0)
            policy = CrawlPolicy.from_json(policy_data)
            server = FixtureServer(wiki).start()
            fetcher = server.fetcher(policy)
        else:
            from .crawl import HttpFetcher

            policy = CrawlPolicy.from_json(policy_data)
            fetcher = HttpFetcher(policy, random_url=args.random_url)
        from .crawl import build_dataset

        result, all_seeds = build_dataset(
            seeds, policy, fetcher, args.snapshot_year,
            n_random_negatives=args.negatives)
    finally:
        if server is not None:
            server.stop()
    write_documents(args.out, result.documents)
    edges_path = args.edges_out or args.out + ".edges.jsonl"
    write_edges(edges_path, result.edges)
    failures_path = args.out + ".failures.jsonl"
    write_records(CrawlFailure, failures_path, result.failures)
    if args.seeds_out:
        from .corpus import write_seeds

        write_seeds(args.seeds_out, all_seeds)
    print(f"crawled {len(result.documents)} documents ({len(result.edges)} edges) "
          f"-> {args.out}")
    by_reason = Counter(reason for _, reason in result.failures).most_common()
    summary = ", ".join(f"{reason}: {count}" for reason, count in by_reason)
    print(f"{len(result.failures)} failures ({summary or 'none'}) -> {failures_path}")
    return EXIT_OK


def cmd_split(args) -> int:
    docs = read_documents(args.data)
    edges = read_edges(args.edges)
    seeds = read_seeds(args.seeds)
    counts = {"train": args.train, "validation": args.validation, "test": args.test}
    splits = split_dataset(docs, counts, args.seed, edges, seeds)
    os.makedirs(args.out_dir, exist_ok=True)
    by_id = {d.id: d for d in docs}
    for name, split in splits.items():
        write_documents(os.path.join(args.out_dir, f"{name}.jsonl"),
                        [by_id[i] for i in split.doc_ids])
    payload = {"kind": "split", "seed": args.seed,
               "splits": {name: asdict(split.stats) for name, split in splits.items()}}
    dump_json(os.path.join(args.out_dir, "stats.json"), payload)
    table = reports.render_report(payload)
    with open(os.path.join(args.out_dir, "stats.txt"), "w", encoding="utf-8") as f:
        f.write(table)
    print(table, end="")
    return EXIT_OK


def cmd_train(args) -> int:
    config_data = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        config_data["seed"] = args.seed
    config = TrainConfig.from_json(config_data)
    train_docs = read_documents(os.path.join(args.data, "train.jsonl"))
    validation_docs = read_documents(os.path.join(args.data, "validation.jsonl"))
    result = fit(args.model, train_docs, validation_docs, config)
    save_classifier(args.out, result.classifier)
    log_path = args.out + ".log.json"
    dump_json(log_path, {"model": args.model, "diverged": result.diverged,
                         "diagnostic": result.diagnostic, "log": result.log})
    status = "diverged (kept last good checkpoint)" if result.diverged else "done"
    print(f"train {args.model}: {status}; checkpoint -> {args.out}; log -> {log_path}")
    if result.diverged:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_eval(args) -> int:
    require_int("--n-resamples", args.n_resamples, 1)
    classifier = load_classifier(args.checkpoint)
    docs = read_documents(args.data)
    predictions = predict(classifier, docs)
    preds = prediction_set(predictions, docs, model_name=classifier.kind)
    report = evaluate_predictions([preds], n_resamples=args.n_resamples,
                                  seed=derive_seed(args.seed, "eval"))
    payload = {"kind": "eval", "version": __version__, "seed": args.seed,
               "checkpoint": args.checkpoint, "data": args.data, "report": report.to_json()}
    print(reports.render_report(payload), end="")
    if args.out:
        dump_json(args.out, payload)
        print(f"report -> {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec_data = _load_json(args.spec)
    if args.kind:
        spec_data["kind"] = args.kind
    if args.out_dir:
        spec_data["out_dir"] = args.out_dir
    if args.seed is not None:
        spec_data["seed"] = args.seed
    spec = ExperimentSpec.from_json(spec_data)
    run_experiment(spec)
    print(f"experiment {spec.kind}: report -> {os.path.join(spec.out_dir, 'report.json')}")
    return EXIT_OK


def cmd_report(args) -> int:
    payload = _load_json(args.input)
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
    else:
        print(reports.render_report(payload), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="controkit",
        description="Controversy-detection workbench: crawl, split, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"controkit {__version__}")
    parser.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                        default="warning", help="lowest level of log message shown")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crawl", help="snowball-crawl a seed list into a labeled dataset")
    p.add_argument("--seeds", required=True, help="seed JSONL (url, topic, polarity)")
    p.add_argument("--policy", help="crawl policy JSON")
    p.add_argument("--out", required=True, help="output dataset JSONL")
    p.add_argument("--edges-out", help="link-edge sidecar path (default: <out>.edges.jsonl)")
    p.add_argument("--seeds-out", help="write the full seed list (incl. sampled negatives)")
    p.add_argument("--fixture-server", help="serve this fixture wiki JSON locally and crawl it")
    p.add_argument("--random-url", help="random-article endpoint for negative sampling")
    p.add_argument("--negatives", type=int, default=0,
                   help="number of random negative seeds to sample")
    p.add_argument("--snapshot-year", type=int, default=2018)
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("split", help="partition a dataset by seed neighborhoods")
    p.add_argument("--data", required=True)
    p.add_argument("--edges", required=True, help="link-edge sidecar from crawl")
    p.add_argument("--seeds", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", type=int, required=True, help="train seed count")
    p.add_argument("--validation", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model on a split directory")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--data", required=True, help="split directory with train/validation.jsonl")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--n-resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full experiment from a spec file")
    p.add_argument("--kind", choices=tuple(EXPERIMENTS), help="override the spec's kind")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out-dir", help="override the spec's output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="print the table of a stored report.json or stats.json")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (UsageError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, IntegrityError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
