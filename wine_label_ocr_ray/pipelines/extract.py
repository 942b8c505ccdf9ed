"""Flagship extraction pipeline: documents -> records in one lazy
``ray.data.Dataset`` plan, ``ReadParquet -> MapBatches(DocMediaExtract)``
(SURVEY.md section 3.1 "new engine" sketch). The actor explodes,
extracts, routes the media and assembles each batch of whole documents
in one call, so span rows never leave it and the plan has no all-to-all
operator. Consumers write/iterate — nothing here materializes the full
dataset.
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import PipelineConfig
from ..sources.documents import read_documents
from ..stages.media import MediaExtract
from ..stages.reassemble import assemble_docs
from ..stages.spans import explode_spans, extract_text_spans


class DocRecords(MediaExtract):
    """Documents -> RECORD_SCHEMA records. The batch's span rows go
    through the text leg, the span-row ``MediaExtract`` call (each row
    with its doc) and assembly."""

    def __call__(self, docs: pa.Table) -> pa.Table:
        doc = pc.list_parent_indices(docs.column("spans")).to_numpy()
        rows = extract_text_spans(explode_spans(docs))
        return assemble_docs(docs, super().__call__(rows, doc))


class DocMediaExtract:
    """The flagship's actor: a ``DocRecords`` built from an ObjectRef
    that lives as long as the Dataset. Ray Data passes an actor's class
    among its creation arguments, and ``DocRecords`` pickles by value to
    ~230 KB. Ray 2.49 frees a creation argument over its 100 KiB inline
    limit once the actor is up, so a restarted actor could not start."""

    def __init__(self, records_cls: "ray.ObjectRef", **kwargs):
        self._records = ray.get(records_cls)(**kwargs)

    def __call__(self, docs: pa.Table) -> pa.Table:
        return self._records(docs)


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
        total_cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
        concurrency = autosize_pool(total_cpus, cfg.media_num_cpus)

    if doc_files is not None:
        docs = ray.data.read_parquet(
            doc_files, include_paths=True,
            override_num_blocks=cfg.override_num_blocks)
    else:
        docs = read_documents(corpus_dir,
                              override_num_blocks=cfg.override_num_blocks)
    records = docs.map_batches(
        DocMediaExtract,
        fn_constructor_kwargs=dict(
            records_cls=ray.put(DocRecords),
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
        records = records.map_batches(
            DebugImageSink,
            fn_constructor_kwargs=dict(media_path=media_path,
                                       out_dir=cfg.debug_out,
                                       min_blob_area=cfg.min_blob_area),
            batch_format="pyarrow", concurrency=1)
    return records
