"""Media payload store: keyed fetch of payload binaries by ``media_ref``.

At production scale media payloads live in object storage and workers
fetch exactly the refs in their batch — pixels never ride the shuffle
(SURVEY.md section 4.2). This store models that access path over the
corpus's parquet side table:

- fragment ROUTING once per actor: every file is opened once, and each
  row group's footer statistics give its (min, max) ``media_ref`` range
  (files are written sorted by ref), so a fetch reads only the row
  groups that can contain its refs, then keeps the rows it asked for;
- ``fetch_column`` returns the batch's payloads as the Arrow binary
  column the read produced, never as Python bytes objects, plus each
  ref's row in it (``fetch`` is the dict-of-bytes view of it). The
  column stays chunked as read: ``synth.decode_payloads`` joins the
  chunks as large_binary, so a batch's payloads may pass 2 GiB;
- reads run with ``use_threads=False`` — many actors each spinning up
  a full Arrow thread pool thrashes the node.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class MediaStore:
    def __init__(self, media_path: str):
        files = sorted(glob.glob(os.path.join(media_path, "*.parquet")))
        if not files:
            raise FileNotFoundError(f"media store not found: {media_path}")
        handles, ranges = [], []
        for f in files:
            pf = pq.ParquetFile(f)
            md = pf.metadata
            ref_idx = md.schema.to_arrow_schema().get_field_index("media_ref")
            groups = []
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ref_idx).statistics
                if st is None or not st.has_min_max:
                    groups.append(("", "\U0010ffff"))  # unknown: always read
                else:
                    groups.append((st.min, st.max))
            handles.append(pf)
            ranges.append(groups)
        # files in order of their smallest ref, row groups in file order
        order = sorted(range(len(files)), key=lambda i: min(
            [lo for lo, _ in ranges[i]], default=""))
        self._files = [handles[i] for i in order]
        self._groups = [(i, rg) for i in range(len(order))
                        for rg in range(len(ranges[order[i]]))]
        self._lo = np.array([lo for i in order for lo, _ in ranges[i]],
                            dtype=object)
        self._hi = np.array([hi for i in order for _, hi in ranges[i]],
                            dtype=object)

    def fetch_column(self, refs: pa.Array
                     ) -> Tuple[pa.ChunkedArray, pa.Array]:
        """Payloads of a batch of refs, without copying them: the
        (chunked) binary column holding the payload of every ref found,
        and, aligned with ``refs``, each ref's row in it (null where a
        ref is missing). Only the row groups whose [min, max] range
        covers a ref are read, each file once (ranges may overlap
        across shards); a ref stored in several files takes the first
        file's payload."""
        if isinstance(refs, pa.ChunkedArray):
            refs = refs.combine_chunks()
        keys = pc.unique(refs.drop_null())
        ordered = pc.array_take(keys, pc.sort_indices(keys)).to_numpy(
            zero_copy_only=False)
        hit = np.searchsorted(ordered, self._hi, side="right") \
            > np.searchsorted(ordered, self._lo, side="left")
        wanted: Dict[int, List[int]] = {}
        for g in np.flatnonzero(hit).tolist():
            i, rg = self._groups[g]
            wanted.setdefault(i, []).append(rg)
        parts = []
        for i, groups in wanted.items():
            t = self._files[i].read_row_groups(
                groups, columns=["media_ref", "payload"], use_threads=False)
            keep = pc.is_in(t.column("media_ref"), value_set=keys)
            # filtering copies the payloads: skip it when every row is
            # wanted, as in a batch that holds a whole shard's media
            parts.append(t if pc.all(keep).as_py() else t.filter(keep))
        if not parts:
            return (pa.chunked_array([], pa.binary()),
                    pa.nulls(len(refs), pa.int32()))
        found = pa.concat_tables(parts)
        return found.column("payload"), pc.index_in(
            refs, value_set=found.column("media_ref").combine_chunks())

    def fetch(self, refs: List[str]) -> Dict[str, bytes]:
        """Fetch payloads for a batch of refs. Missing refs are simply
        absent from the result; duplicate refs are fetched once."""
        uniq = sorted(set(refs))
        payloads, rows = self.fetch_column(pa.array(uniq, pa.string()))
        return {r: payloads[i].as_py()
                for r, i in zip(uniq, rows.to_pylist()) if i is not None}
