"""Flagship extraction pipeline: read -> explode -> text extract ->
media actor pool -> per-doc assembly -> records.

One lazy ``ray.data.Dataset`` plan end to end (SURVEY.md section 3.1
"new engine" sketch); the streaming executor pipelines the stages with
backpressure. Consumers write/iterate — nothing here materializes the
full dataset.

Every stage carries one row per document (stages/spans.py): all spans
of a doc are born in its row and stay there, so each batch holds whole
documents and assembly is a plain map. The plan has no all-to-all
operator.
"""

from __future__ import annotations

import os
from typing import Optional

import ray.data

from ..config import PipelineConfig
from ..sources.documents import read_documents
from ..stages.media import DocMediaExtract
from ..stages.reassemble import assemble_docs
from ..stages.spans import text_doc_rows


def autosize_pool(total_cpus: int, num_cpus_per_actor: float = 1.0) -> int:
    """Actor-pool size for the media stage: half the cluster, but never
    the WHOLE cluster — the upstream ReadParquet task needs one free CPU
    slot or the stream deadlocks (observed at a 2-cpu session: 2 pinned
    actors + 1 unschedulable read task = zero progress forever).

    Raises ``ValueError`` when no pool can satisfy that invariant (a
    session so small that even ONE actor would hold every CPU) instead
    of returning a pool that deadlocks the stream."""
    cap = int((total_cpus - 1) / num_cpus_per_actor)
    if cap < 1:
        raise ValueError(
            f"session too small for the actor pool: {total_cpus} CPUs "
            f"cannot host one {num_cpus_per_actor}-cpu actor and still "
            f"leave the upstream read a schedulable slot")
    size = max(2, int(total_cpus * 0.5 / num_cpus_per_actor))
    return min(size, cap)


def build_extract_pipeline(corpus_dir: str,
                           cfg: Optional[PipelineConfig] = None,
                           doc_files: Optional[list] = None
                           ) -> "ray.data.Dataset":
    """Returns the lazy record Dataset (schema: schema.RECORD_SCHEMA).
    ``doc_files`` restricts the read to specific document shard files
    (the checkpointed runner's commit unit); each record then also
    carries its source shard in a ``path`` column, as given here."""
    from .._rayprep import ensure_serializable
    ensure_serializable()
    cfg = cfg or PipelineConfig()
    media_path = os.path.join(corpus_dir, "media")

    concurrency = cfg.media_concurrency
    if concurrency is None:
        import ray
        total_cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
        concurrency = autosize_pool(total_cpus, cfg.media_num_cpus)

    if doc_files is not None:
        import ray.data as rd
        docs = rd.read_parquet(doc_files, include_paths=True,
                               override_num_blocks=cfg.override_num_blocks)
    else:
        docs = read_documents(corpus_dir,
                              override_num_blocks=cfg.override_num_blocks)
    # the text leg takes the media stage's batches: fused into one
    # operator, the two then run once per batch of media_batch_size
    # docs, not the text leg once per read block
    docs = docs.map_batches(text_doc_rows, batch_format="pyarrow",
                            batch_size=cfg.media_batch_size)
    docs = docs.map_batches(
        DocMediaExtract,
        fn_constructor_kwargs=dict(
            media_path=media_path,
            confidence_threshold=cfg.confidence_threshold,
            pad=cfg.box_pad,
            min_blob_area=cfg.min_blob_area,
            crop_label=cfg.crop_label,
            skip_alignment=cfg.skip_alignment,
            engines=cfg.engines,
            sweep_max_variants=cfg.sweep_max_variants,
        ),
        batch_format="pyarrow",
        batch_size=cfg.media_batch_size,
        concurrency=concurrency,
        num_cpus=cfg.media_num_cpus,
    )
    if cfg.debug_out:
        from ..stages.debug_sink import DebugImageSink
        docs = docs.map_batches(
            DebugImageSink,
            fn_constructor_kwargs=dict(media_path=media_path,
                                       out_dir=cfg.debug_out,
                                       min_blob_area=cfg.min_blob_area),
            batch_format="pyarrow", concurrency=1)
    return docs.map_batches(assemble_docs, batch_format="pyarrow")
