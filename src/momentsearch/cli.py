"""Command-line surface: gen, train, index, search, retrain-rerank, eval,
bench, and report printing.

Every subcommand is deterministic given --seed, writes its outputs to
files, and exits nonzero with a single-line `E_<CODE>: message` on stderr
when something fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bench import METHODS, BenchConfig, run_bench
from .core import Moment, TemporalSpan, VideoMeta
from .dataio import (
    Corpus,
    FormatError,
    SyntheticSpec,
    generate_synthetic,
    load_corpus,
    load_queries,
    read_checkpoint,
    read_kv_report,
    read_results,
    write_checkpoint,
    write_jsonl,
    write_kv_report,
    write_results,
)
from .enumeration import PRESETS, get_preset
from .evaluation import Prediction, build_report, single_video_eval
from .index import build_exact, build_ivf, load_index, save_index
from .model import ModelDims
from .retrieval import (
    RetrievalConfig,
    exhaustive_search,
    restrict_corpus,
    two_stage_search,
)
from .training import TrainConfig, TrainDataset, retrain_reranker, train


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def moment_from_span(video: VideoMeta, start: float, end: float) -> Moment:
    """Recover clip indices from a span that lies on the video's clip grid."""
    first = int(round(start / video.clip_length))
    last = int(math.ceil(end / video.clip_length - 1e-9)) - 1
    last = min(last, video.num_clips - 1)
    moment = Moment.from_clips(video, first, last)
    if abs(moment.span.start - start) > 1e-6 or abs(moment.span.end - end) > 1e-6:
        raise CliError("E_OFF_GRID", f"span [{start}, {end}] is not on {video.video_id}'s clip grid")
    return moment


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise CliError("E_NOT_FOUND", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError("E_FORMAT", f"{path}: invalid JSON: {e}")


def _train_config(args, preset, config_data: dict) -> TrainConfig:
    fields = {k: v for k, v in config_data.items() if k != "dims"}
    fields.setdefault("intra_iou_exclusion", preset.intra_iou_exclusion)
    fields["seed"] = args.seed
    fields["variant"] = args.variant
    try:
        return TrainConfig(**fields)
    except TypeError as e:
        raise CliError("E_CONFIG", f"bad training config: {e}")


def _model_dims(args, config_data: dict, corpus: Corpus, queries) -> ModelDims:
    dims_data = dict(config_data.get("dims", {}))
    visual_in = corpus.features_for(corpus.videos[0].video_id).shape[1]
    word_in = queries[0].word_vectors.shape[1]
    dims_data.setdefault("visual_in", visual_in)
    dims_data.setdefault("word_in", word_in)
    dims_data["use_tef"] = bool(args.tef or args.tef_only)
    dims_data["tef_only"] = bool(args.tef_only)
    try:
        return ModelDims(**dims_data)
    except TypeError as e:
        raise CliError("E_CONFIG", f"bad model dims: {e}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    data = _load_json(args.spec) if args.spec else {}
    preset_name = data.pop("preset", args.preset)
    if args.seed is not None:
        data["seed"] = args.seed
    spec = SyntheticSpec.from_dict(data)
    preset = get_preset(preset_name)
    os.makedirs(args.out, exist_ok=True)
    corpus, queries = generate_synthetic(spec, preset, args.out)
    print(f"generated {len(corpus)} videos, {len(queries)} queries in {args.out} "
          f"(seed={spec.seed})")
    return 0


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    queries = load_queries(os.path.join(args.corpus, "queries.jsonl"), args.corpus)
    preset = get_preset(args.preset)
    config_data = _load_json(args.config) if args.config else {}
    cfg = _train_config(args, preset, config_data)
    dims = _model_dims(args, config_data, corpus, queries)
    dataset = TrainDataset(corpus, queries, preset.enum)
    params, history = train(dataset, cfg, dims=dims)
    write_checkpoint(args.out, params, {
        "seed": args.seed, "variant": args.variant, "preset": preset.name,
    })
    loss_log = args.loss_log or args.out + ".loss.jsonl"
    write_jsonl(loss_log, [{"seed": args.seed, "preset": preset.name}] + history)
    final = f"final mean loss {history[-1]['mean_loss']:.6f}" if history else "no epochs run"
    print(f"trained {cfg.epochs} epochs, {final}; checkpoint at {args.out}")
    return 0


def cmd_index(args) -> int:
    corpus = load_corpus(args.corpus)
    params, _ = read_checkpoint(args.ckpt)
    if params.dims.use_tef:
        raise CliError("E_TEF_INDEX", "clip indexes need a moment-independent (non-TEF) model")
    if args.flavor == "exact":
        index = build_exact(corpus, params)
    else:
        index = build_ivf(corpus, params, partitions=args.partitions,
                          seed=args.seed, kmeans_iters=args.kmeans_iters)
    save_index(index, args.out)
    print(f"indexed {index.num_entries} clips ({args.flavor}, seed={args.seed}) to {args.out}")
    return 0


def cmd_search(args) -> int:
    if args.single_video and args.mode == "approx":
        raise CliError("E_INVALID", "--single-video cannot run --mode approx: the clip "
                       "index retrieves from the whole corpus, not the query's video")
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, args.corpus)
    preset = get_preset(args.preset)
    params, _ = read_checkpoint(args.ckpt)
    rerank_params = None
    if args.rerank_ckpt:
        rerank_params, _ = read_checkpoint(args.rerank_ckpt)
    index = None
    if args.index:
        index = load_index(args.index, tuple(v.video_id for v in corpus.videos))
        if index.dim != params.dims.embed:
            raise CliError("E_STALE_INDEX", f"{args.index} holds {index.dim}-d vectors, but "
                           f"{args.ckpt} embeds into {params.dims.embed}; rebuild it with `index`")
        # Each (video ordinal, clip) key of this corpus must appear exactly once.
        ordinal, clip = index.keys.astype(np.int64).T
        position = corpus.clip_offsets[ordinal] + clip
        if index.num_entries != corpus.total_clips or np.any(clip >= corpus.num_clips[ordinal]) \
                or np.any(np.bincount(position, minlength=corpus.total_clips) != 1):
            raise CliError("E_STALE_INDEX", f"{args.index} does not index this corpus's "
                           f"{corpus.total_clips} clips once each; rebuild it with `index`")
    if args.mode == "approx" and index is None:
        raise CliError("E_NO_INDEX", "approximate mode requires --index")

    cfg = RetrievalConfig(
        variant=args.variant,
        rerank_variant=args.rerank_variant,
        budget=args.budget,
        clip_budget=args.clip_budget,
        nms_iou=preset.nms_iou,
        top_k=args.top_k,
        nprobe=args.nprobe,
        dilation_clips=args.dilation,
    )

    mode = "approx" if args.mode == "approx" else "moment"
    results = []
    for query in queries:
        target = restrict_corpus(corpus, query.ground_truth.video_id) \
            if args.single_video else corpus
        if args.mode == "exhaustive":
            results.append(exhaustive_search(target, query, params, preset.enum, cfg))
        else:
            results.append(two_stage_search(target, index, query, params, rerank_params,
                                            preset.enum, cfg, mode=mode))
    universe = corpus.total_candidates(preset.enum)
    write_results(args.out, results, seed=args.seed, universe=universe, top_k=args.top_k)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as f:
            for r in results:
                f.write(json.dumps(
                    {"query_id": r.query_id, **r.stage_counters}, sort_keys=True) + "\n")
    print(f"searched {len(queries)} queries ({args.mode}) into {args.out}")
    return 0


def cmd_retrain_rerank(args) -> int:
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, args.corpus)
    preset = get_preset(args.preset)
    base_params, base_meta = read_checkpoint(args.base)
    config_data = _load_json(args.config) if args.config else {}
    args.variant = base_meta.get("variant", "cal")
    cfg = _train_config(args, preset, config_data)
    dataset = TrainDataset(corpus, queries, preset.enum)

    _, body = read_results(args.retrievals)
    retrieved: dict[str, list[Moment]] = {}
    for rec in body:
        moments = []
        for video_id, start, end, _cost in rec["ranked"]:
            moments.append(moment_from_span(corpus.video(video_id), start, end))
        retrieved[rec["query_id"]] = moments

    params, history = retrain_reranker(base_params, retrieved, dataset, cfg,
                                       rank_rate=args.rank_rate)
    write_checkpoint(args.out, params, {
        "seed": args.seed, "variant": args.variant, "preset": preset.name,
        "retrained_from": os.path.basename(args.base), "rank_rate": args.rank_rate,
    })
    loss_log = args.loss_log or args.out + ".loss.jsonl"
    write_jsonl(loss_log, [{"seed": args.seed, "preset": preset.name}] + history)
    print(f"re-trained re-ranker for {cfg.epochs} epochs; checkpoint at {args.out}")
    return 0


def cmd_eval(args) -> int:
    header, body = read_results(args.results)
    queries = load_queries(args.gt, os.path.dirname(args.gt) or ".")
    gts = {q.query_id: q.ground_truth for q in queries}
    results = {}
    for rec in body:
        results[rec["query_id"]] = [
            Prediction(video_id, TemporalSpan(start, end), cost)
            for video_id, start, end, cost in rec["ranked"]
        ]
    missing = [qid for qid in results if qid not in gts]
    if missing:
        raise CliError("E_NO_GT", f"no ground truth for queries: {missing[:3]}")
    preset = get_preset(args.preset)
    ks = tuple(int(k) for k in args.ks.split(","))
    ious = tuple(float(t) for t in args.ious.split(","))
    corpus = load_corpus(args.corpus) if args.corpus else None
    config_echo = {
        "preset": preset.name, "seed": header.get("seed"),
        "mode": "single_video" if args.single_video else "corpus",
    }
    if args.single_video:
        report = single_video_eval(results, gts, ks=ks, ious=ious,
                                   min_judgments=preset.min_judgments, config=config_echo)
    else:
        report = build_report(
            results, gts, ks=ks, ious=ious,
            min_judgments=preset.min_judgments,
            universe=header.get("universe"), declared_top_k=header.get("top_k"),
            corpus=corpus, enum_cfg=preset.enum if corpus else None,
            config=config_echo,
        )
    write_kv_report(args.out, report.to_kv())
    print(f"evaluated {report.query_count} queries into {args.out}")
    return 0


def cmd_bench(args) -> int:
    data = _load_json(args.spec) if args.spec else {}
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        cfg = BenchConfig(**data)
    except TypeError as e:
        raise CliError("E_CONFIG", f"bad bench spec: {e}")
    methods = tuple(m.strip() for m in args.methods.split(","))
    workdir = args.workdir or args.out + ".workdir"
    write_kv_report(args.out, run_bench(cfg, workdir, methods=methods))
    print(f"bench report written to {args.out}")
    return 0


def cmd_report_show(args) -> int:
    for key, value in read_kv_report(args.report).items():
        print(f"{key} = {value}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentsearch",
        description="Natural-language video moment retrieval over clip embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preset_names = sorted(PRESETS)

    p = sub.add_parser("gen", help="generate a synthetic corpus with planted ground truth")
    p.add_argument("--spec", help="JSON file with generator settings")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--preset", default="didemo", choices=preset_names)
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed from the settings file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train embedding heads with the ranking loss")
    p.add_argument("--corpus", required=True)
    p.add_argument("--preset", required=True, choices=preset_names)
    p.add_argument("--config", help="JSON training/model overrides")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--variant", default="cal", choices=("cal", "aggregate"))
    p.add_argument("--tef", action="store_true", help="append normalized endpoints to inputs")
    p.add_argument("--tef-only", action="store_true", help="mask visual inputs; endpoints only")
    p.add_argument("--loss-log", help="loss log path (default: <out>.loss.jsonl)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="build a clip-embedding index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--flavor", default="exact", choices=("exact", "ivf"))
    p.add_argument("--out", required=True)
    p.add_argument("--partitions", type=int, default=None,
                   help="IVF partition count (default: ceil(sqrt(entries)))")
    p.add_argument("--kmeans-iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="answer queries against the corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", help="clip index (required for --mode approx)")
    p.add_argument("--ckpt", required=True, help="stage-one model checkpoint")
    p.add_argument("--rerank-ckpt", help="re-ranking model checkpoint")
    p.add_argument("--queries", required=True)
    p.add_argument("--mode", default="exhaustive",
                   choices=("exhaustive", "two-stage", "approx"))
    p.add_argument("--preset", required=True, choices=preset_names)
    p.add_argument("--variant", default="cal", choices=("cal", "aggregate"))
    p.add_argument("--rerank-variant", default=None, choices=("cal", "aggregate"))
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--budget", type=int, default=200, help="stage-one moment budget")
    p.add_argument("--clip-budget", type=int, default=200, help="approximate-mode clip budget")
    p.add_argument("--nprobe", type=int, default=8)
    p.add_argument("--dilation", type=int, default=0,
                   help="widen clip containment by this many clips")
    p.add_argument("--single-video", action="store_true",
                   help="score each query only against its ground-truth video "
                        "(exhaustive and two-stage modes)")
    p.add_argument("--stats-out", help="write per-query stage counters here")
    p.add_argument("--out", required=True, help="results file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("retrain-rerank", help="fine-tune a re-ranking model from retrievals")
    p.add_argument("--base", required=True, help="base model checkpoint")
    p.add_argument("--retrievals", required=True, help="results file from the retrieval stage")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--preset", required=True, choices=preset_names)
    p.add_argument("--config", help="JSON training overrides")
    p.add_argument("--rank-rate", type=float, default=0.02,
                   help="exponential decay over retrieval rank")
    p.add_argument("--loss-log")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_retrain_rerank)

    p = sub.add_parser("eval", help="score a results file against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--gt", required=True, help="queries file with annotated spans")
    p.add_argument("--preset", required=True, choices=preset_names)
    p.add_argument("--corpus", help="corpus dir; enables the oracle upper bound")
    p.add_argument("--ks", default="1,10,100")
    p.add_argument("--ious", default="0.5,0.7")
    p.add_argument("--single-video", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run-time and index-size accounting")
    p.add_argument("--spec", help="JSON bench settings")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--workdir", help="scratch dir (default: <out>.workdir)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="re-print stored reports")
    report_sub = p.add_subparsers(dest="report_command", required=True)
    ps = report_sub.add_parser("show", help="print a key = value report")
    ps.add_argument("--report", required=True)
    ps.set_defaults(func=cmd_report_show)

    return parser


def main(argv=None) -> int:
    # MOMENTSEARCH_LOG is the only environment override: output verbosity.
    level = os.environ.get("MOMENTSEARCH_LOG", "warning").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        import logging

        logging.basicConfig(level=getattr(logging, level))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"E_FORMAT: {e}", file=sys.stderr)
        return 1
    except FloatingPointError as e:
        # Training's divergence guard and its non-finite loss or gradient
        # checks; raised before any checkpoint is written.
        print(f"E_DIVERGED: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"E_NOT_FOUND: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"E_INVALID: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
