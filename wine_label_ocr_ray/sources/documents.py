"""Document-table reader (format-pluggable: Lance when available,
Parquet otherwise — identical schema, SURVEY.md section 1.2).

The reference's per-image ``cv2.imread`` source
(``final_run_ocr.py:388-396``) maps to reading the interleaved document
table; media payloads are resolved separately (sources/media.py).
"""

from __future__ import annotations

import os
from typing import List, Optional, Union

import pyarrow.dataset as pads
import ray.data


def _has_lance() -> bool:
    try:
        import lance  # noqa: F401
        return True
    except ImportError:
        return False


def document_files(path: str) -> Optional[List[str]]:
    """The parquet files ``read_documents`` reads at ``path``, sorted:
    a corpus's ``documents/`` shards, a directory's parquet files (as
    Ray lists them: recursively, skipping names that start with ``.``
    or ``_``) or the one file; None for a Lance dataset."""
    if path.endswith(".lance") and _has_lance():
        return None
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "documents")):
        path = os.path.join(path, "documents")
    return sorted(pads.dataset(path, format="parquet").files)


def read_documents(path: Union[str, List[str]], *,
                   columns: Optional[List[str]] = None,
                   override_num_blocks: Optional[int] = None,
                   include_paths: bool = False) -> "ray.data.Dataset":
    """Read the (doc_id, spans) table. ``path`` may be a directory of
    parquet files, a single file, a list of parquet files (as
    ``document_files`` gives) or a Lance dataset directory;
    ``include_paths`` adds each parquet row's file as ``path``."""
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = columns
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    files = path if isinstance(path, list) else document_files(path)
    if files is None:
        return ray.data.read_lance(path, **kwargs)
    return ray.data.read_parquet(files, include_paths=include_paths, **kwargs)
