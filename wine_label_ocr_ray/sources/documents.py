"""Document-table reader (format-pluggable: Lance when available,
Parquet otherwise — identical schema, SURVEY.md section 1.2).

The reference's per-image ``cv2.imread`` source
(``final_run_ocr.py:388-396``) maps to reading the interleaved document
table; media payloads are resolved separately (sources/media.py).

Parquet shards are read by ``DocumentShards``, a reader planned on the
driver from the shard footers: each read task reads whole shards, once
each, grouped in order so that the groups' documents are as even as
whole shards allow, and carries their footers, so none is read twice.
No metadata or sampling task runs before the read.
"""

from __future__ import annotations

import functools
import os
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _has_lance() -> bool:
    try:
        import lance  # noqa: F401
        return True
    except ImportError:
        return False


def _listed(name: str) -> bool:
    # pyarrow's discovery skips names that start with "." or "_"
    return not name.startswith((".", "_"))


def document_files(path: str) -> Optional[List[str]]:
    """The parquet files ``read_documents`` reads at ``path``, sorted:
    a corpus's ``documents/`` shards, a directory's files (as pyarrow
    discovers them: recursively, skipping names that start with ``.``
    or ``_``) or the one file; None for a Lance dataset. Raises
    ``FileNotFoundError`` when ``path`` does not exist."""
    if path.endswith(".lance") and _has_lance():
        return None
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "documents")):
        path = os.path.join(path, "documents")
    if not os.path.isdir(path):
        return [path]
    files = []
    for root, dirs, names in os.walk(path):
        dirs[:] = [d for d in dirs if _listed(d)]
        files.extend(os.path.join(root, n) for n in names if _listed(n))
    return sorted(files)


def _read_shards(shards: Sequence, columns: Optional[List[str]],
                 include_paths: bool) -> Iterator[pa.Table]:
    """One block: the whole shards, ``(path, footer)`` each, in order;
    the footer the driver read is not read again."""
    parts = []
    for path, footer in shards:
        with pq.ParquetFile(path, metadata=footer) as f:
            part = f.read(columns=columns, use_threads=False)
        if include_paths:
            part = part.append_column(
                "path", pa.array([path] * part.num_rows, pa.string()))
        parts.append(part)
    yield pa.concat_tables(parts)


class DocumentShards(Datasource):
    """Parquet shards as read tasks planned from their footers
    (``pq.FileMetaData``, one per file; read here when not given).
    Asked for ``parallelism`` tasks, it groups the shards that hold
    documents, in order, cutting at the shard boundary nearest each
    even cut of the documents, so each shard is read once and the
    groups differ by at most about a shard; Ray splits each task's
    block when there are fewer tasks than asked. ``include_paths``
    adds each row's file as ``path``, as given in ``files``."""

    def __init__(self, files: Sequence[str],
                 footers: Optional[Sequence] = None,
                 columns: Optional[List[str]] = None,
                 include_paths: bool = False):
        if footers is None:
            footers = [pq.read_metadata(f) for f in files]
        self._held = held = [(f, m) for f, m in zip(files, footers)
                             if m.num_rows]
        # documents and uncompressed bytes before each shard, then all
        self._starts = np.cumsum([0] + [m.num_rows for _, m in held])
        self._bytes = np.cumsum([0] + [
            sum(m.row_group(i).total_byte_size
                for i in range(m.num_row_groups)) for _, m in held])
        self._columns = columns
        self._include_paths = include_paths
        self._schema = None
        if len(footers):
            schema = footers[0].schema.to_arrow_schema()
            if columns is not None:
                schema = pa.schema([schema.field(c) for c in columns])
            if include_paths:
                schema = schema.append(pa.field("path", pa.string()))
            self._schema = schema

    @property
    def num_rows(self) -> int:
        return int(self._starts[-1])

    def get_name(self) -> str:
        # keeps the operator named ReadParquet, as Ray's parquet read is
        return "Parquet"

    def estimate_inmemory_data_size(self) -> Optional[int]:
        return int(self._bytes[-1])

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        starts = self._starts
        if not self._held:
            return []
        even = np.arange(parallelism + 1) * starts[-1] / parallelism
        right = np.minimum(np.searchsorted(starts, even), len(starts) - 1)
        left = np.maximum(right - 1, 0)
        nearest = np.where(even - starts[left] <= starts[right] - even,
                           left, right)
        cuts = np.unique(nearest).tolist()
        tasks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            shards = self._held[a:b]
            meta = BlockMetadata(
                num_rows=int(starts[b] - starts[a]),
                size_bytes=int(self._bytes[b] - self._bytes[a]),
                input_files=[f for f, _ in shards], exec_stats=None)
            tasks.append(ReadTask(
                functools.partial(_read_shards, shards, self._columns,
                                  self._include_paths),
                meta, schema=self._schema))
        return tasks


def read_documents(path: Union[str, List[str]], *,
                   columns: Optional[List[str]] = None
                   ) -> "ray.data.Dataset":
    """Read the (doc_id, spans) table. ``path`` may be a directory of
    parquet files, a single file, a list of parquet files (as
    ``document_files`` gives) or a Lance dataset directory. Ray plans
    the parquet read's task count (``DocumentShards``)."""
    files = path if isinstance(path, list) else document_files(path)
    if files is None:
        kwargs = {} if columns is None else {"columns": columns}
        return ray.data.read_lance(path, **kwargs)
    # the read tasks call ``_read_shards``: it ships by value
    from .._rayprep import ensure_serializable
    ensure_serializable()
    return ray.data.read_datasource(DocumentShards(files, columns=columns))
