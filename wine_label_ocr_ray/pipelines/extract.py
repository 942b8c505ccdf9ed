"""Flagship extraction pipeline: documents -> records in one lazy
``ray.data.Dataset`` plan, ``ReadParquet -> MapBatches(DocMediaExtract)``
(SURVEY.md section 3.1 "new engine" sketch). The actor explodes,
extracts, routes the media and assembles each batch of whole documents
in one call, so span rows never leave it and the plan has no all-to-all
operator. Consumers write/iterate — nothing here materializes the full
dataset.

A parquet read plans blocks of about ``media_batch_size`` documents
(4,096) or fewer, in whole rounds of the actor pool (``read_blocks``),
from the shard footers, read once on the driver. The reader
(``sources/documents.py::DocumentShards``) groups whole shards into
that many read tasks, as evenly as whole shards allow, and Ray splits
each task's block when there are fewer shards than blocks. Each block
is one actor batch, so a batch pays the fixed cost of one read block,
one actor call and one write task, and every actor gets work. Memory
is bounded by media, not by documents: the actor cuts each batch
between documents into media passes of at most ``MEDIA_PASS_ROWS``
media spans (a document with more is a pass of its own), and each pass
runs the whole chain on its documents.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import PipelineConfig
from ..sources.documents import (DocumentShards, document_files,
                                 read_documents)
from ..stages.media import MediaExtract
from ..stages.reassemble import assemble_docs
from ..stages.spans import explode_spans, extract_text_spans, one_array

# media spans per pass of the media leg: what a 1,024-document batch of
# the synthetic corpus mix holds (~2.1 per doc), so the 4,096-document
# batch holds no more decoded media at a time than that batch did
MEDIA_PASS_ROWS = 2048


def media_passes(docs: pa.Table) -> np.ndarray:
    """Cut points of ``docs`` into passes of whole documents holding at
    most ``MEDIA_PASS_ROWS`` media spans each; a document with more is
    a pass of its own. Starts with 0 and ends with ``len(docs)``."""
    spans = one_array(docs.column("spans"))
    media = pc.equal(pc.struct_field(pc.list_flatten(spans), "kind"),
                     "media").to_numpy(zero_copy_only=False)
    # before[k]: the media spans of docs[:k]
    before = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(pc.list_parent_indices(spans).to_numpy()[media],
                          minlength=len(docs)), out=before[1:])
    cuts = [0]
    while cuts[-1] < len(docs):
        end = np.searchsorted(before, before[cuts[-1]] + MEDIA_PASS_ROWS,
                              side="right") - 1
        cuts.append(max(cuts[-1] + 1, int(end)))
    return np.array(cuts)


class DocRecords(MediaExtract):
    """Documents -> RECORD_SCHEMA records, one media pass at a time
    (``media_passes``). A pass's span rows go through the text leg, the
    span-row ``MediaExtract`` call (each row with its doc) and
    assembly."""

    def _pass(self, docs: pa.Table) -> pa.Table:
        doc = pc.list_parent_indices(docs.column("spans")).to_numpy()
        rows = extract_text_spans(explode_spans(docs))
        return assemble_docs(docs, super().__call__(rows, doc))

    def __call__(self, docs: pa.Table) -> pa.Table:
        cuts = media_passes(docs)
        return pa.concat_tables([self._pass(docs.slice(a, b - a))
                                 for a, b in zip(cuts[:-1], cuts[1:])])


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


def autosize_pool(total_cpus: int) -> int:
    """Actor-pool size for the media stage: half the cluster, but never
    the WHOLE cluster — the upstream ReadParquet task needs one free CPU
    slot or the stream deadlocks (observed at a 2-cpu session: 2 pinned
    actors + 1 unschedulable read task = zero progress forever).

    Raises ``ValueError`` when no pool can satisfy that invariant (a
    session so small that even ONE actor would hold every CPU) instead
    of returning a pool that deadlocks the stream."""
    if total_cpus < 2:
        raise ValueError(
            f"session too small for the actor pool: {total_cpus} CPUs "
            f"cannot host one actor and still leave the upstream read a "
            f"schedulable slot")
    return min(max(2, total_cpus // 2), total_cpus - 1)


def read_blocks(rows: int, batch: int, pool: int) -> int:
    """Read blocks for ``rows`` documents and a media pool of ``pool``
    actors: blocks of at most about ``batch`` documents, in whole
    rounds of the pool, so every actor gets work and none gets a round
    more than the others."""
    return pool * max(1, math.ceil(rows / (pool * batch)))


def build_extract_pipeline(corpus_dir: str,
                           cfg: Optional[PipelineConfig] = None,
                           doc_files: Optional[list] = None,
                           footers: Optional[list] = None
                           ) -> "ray.data.Dataset":
    """Returns the lazy record Dataset (schema: schema.RECORD_SCHEMA).
    ``doc_files`` restricts the read to specific document shard files
    (the checkpointed runner's commit unit); each record then also
    carries its source shard in a ``path`` column, as given here.
    ``footers``, the shards' ``pq.FileMetaData`` when the caller has
    read them already, plan the read."""
    from .._rayprep import ensure_serializable
    ensure_serializable()
    cfg = cfg or PipelineConfig()
    media_path = os.path.join(corpus_dir, "media")

    concurrency = cfg.media_concurrency
    if concurrency is None:
        total_cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
        concurrency = autosize_pool(total_cpus)

    files = document_files(corpus_dir) if doc_files is None else doc_files
    if files is None:
        # a Lance input: Ray's read, cut into batches of
        # ``media_batch_size`` documents
        docs, batch = read_documents(corpus_dir), cfg.media_batch_size
    else:
        # blocks of about one media batch, in whole rounds of the pool:
        # Ray's default plans up to 200 blocks, so each batch would pay
        # several blocks' and actor calls' fixed costs
        source = DocumentShards(files, footers,
                                include_paths=doc_files is not None)
        docs = ray.data.read_datasource(
            source, override_num_blocks=read_blocks(
                source.num_rows, cfg.media_batch_size, concurrency))
        # a block is one batch: a batch size would make Ray join blocks
        # smaller than it into one call
        batch = None
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
        batch_size=batch,
        # the actor never writes to its input: without this Ray copies
        # every batch that is one whole block
        zero_copy_batch=True,
        # Ray's default for actor pools (a killed actor restarts and its
        # batch is retried), stated so the read keeps its own task: Ray
        # fuses a read into an operator with equal remote arguments and
        # then calls the actor once per file, not once per block
        max_restarts=-1,
        concurrency=concurrency,
        num_cpus=1,
    )
    # a planned block is a whole batch: hand each to whichever actor is
    # free, not up to Ray's default of 4 queued per actor, which leaves
    # an actor that starts late with fewer blocks than the others
    records.context.max_tasks_in_flight_per_actor = 1
    if cfg.debug_out:
        from ..stages.debug_sink import DebugImageSink
        records = records.map_batches(
            DebugImageSink,
            fn_constructor_kwargs=dict(media_path=media_path,
                                       out_dir=cfg.debug_out,
                                       min_blob_area=cfg.min_blob_area),
            batch_format="pyarrow", concurrency=1)
    return records
