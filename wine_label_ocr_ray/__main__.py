"""CLI entry points (the Ray Data analog of the reference's per-image
CLIs, ``hybrid.py:419-448`` / ``scan_and_store.py:186-196``):

    python -m wine_label_ocr_ray synth   --out DIR --docs N [--seed S]
    python -m wine_label_ocr_ray extract --corpus DIR --out DIR
        [--checkpointed] [--crop-label] [--no-skip-alignment]
        [--min-blob-area F] [--confidence F] [--debug-out DIR]
    python -m wine_label_ocr_ray verify  --corpus DIR
        (runs the pure-Python oracle and compares span sequences)

(Benchmarks live in the repo-root ``bench.py``, not here.)

Owns its Ray session (guarded init; the driver/test harness never goes
through this module).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus=None):
    import ray
    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="wine_label_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="generate a seeded corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--docs", type=int, required=True)
    sp.add_argument("--seed", type=int, default=42)

    ep = sub.add_parser("extract", help="run the flagship pipeline")
    ep.add_argument("--corpus", required=True)
    ep.add_argument("--out", required=True)
    ep.add_argument("--checkpointed", action="store_true")
    ep.add_argument("--sweep-max-variants", type=int, default=75)
    ep.add_argument("--crop-label", action="store_true")
    ep.add_argument("--no-skip-alignment", action="store_true")
    ep.add_argument("--min-blob-area", type=float, default=30.0)
    ep.add_argument("--confidence", type=float, default=0.01)
    ep.add_argument("--debug-out", default=None)
    ep.add_argument("--num-cpus", type=int, default=None)

    vp = sub.add_parser("verify", help="compare pipeline vs oracle")
    vp.add_argument("--corpus", required=True)

    args = p.parse_args(argv)

    if args.cmd == "synth":
        from .synth import generate_corpus
        generate_corpus(args.out, num_docs=args.docs, seed=args.seed)
        print(json.dumps({"corpus": args.out, "docs": args.docs}))
        return 0

    if args.cmd == "extract":
        _ray_init(args.num_cpus)
        from .config import PipelineConfig
        cfg = PipelineConfig(confidence_threshold=args.confidence,
                             min_blob_area=args.min_blob_area,
                             crop_label=args.crop_label,
                             skip_alignment=not args.no_skip_alignment,
                             sweep_max_variants=args.sweep_max_variants,
                             debug_out=args.debug_out)
        if args.checkpointed:
            from .stages.checkpoint import run_checkpointed
            summary = run_checkpointed(args.corpus, args.out, cfg)
            print(json.dumps(summary))
        else:
            from .pipelines.extract import build_extract_pipeline
            ds = build_extract_pipeline(args.corpus, cfg)
            ds.write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        import ray
        ray.shutdown()
        return 0

    if args.cmd == "verify":
        _ray_init()
        from .oracle import oracle_records
        from .pipelines.extract import build_extract_pipeline
        recs = build_extract_pipeline(args.corpus).take_all()
        expected = oracle_records(args.corpus)
        mismatches = 0
        for r in recs:
            o = expected[r["doc_id"]]
            got = [(s["kind"], s["text"], s["media_ref"], s["order"])
                   for s in r["spans"]]
            if got != [tuple(s) for s in o["spans"]]:
                mismatches += 1
        print(json.dumps({"records": len(recs),
                          "span_mismatches": mismatches}))
        import ray
        ray.shutdown()
        return 0 if mismatches == 0 else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
