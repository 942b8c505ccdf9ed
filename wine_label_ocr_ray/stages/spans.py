"""Stateless span stages: explode documents into span rows and run the
vectorized text-span extractors.

Design note (single-pass routing): Ray Data datasets are lazy plans —
filtering one exploded dataset twice (text branch / media branch) would
re-execute the read+explode per branch. Instead every stage sees all
span rows; each stage transforms the rows of its kind and passes the
others through untouched, so the input is read once (SURVEY.md
section 7.2).

Span rows live only inside the flagship's one actor call
(``pipelines/extract.py::DocMediaExtract``), which turns a batch of
documents into records, so no span row crosses an operator boundary.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..schema import BLOB_STRUCT, RAW_TYPE

# Span-row schema shared by the text, media and assembly steps.
# raw + blob are TYPED Arrow columns (features only, never pixels —
# SURVEY.md section 4.2 "never shuffle wide rows"); no JSON
# serialize/parse anywhere on the flagship path.
#
# raw = the reference's ocr_raw candidate map in schema.RAW_TYPE's
# list-of-struct-with-bucket form (see schema.py for the encoding).
# blob = the media row's blob; given each row's doc, only the one each
# record keeps (its doc's first media row, by offset, whose payload
# decoded) is computed, every other media row's is null.
SPAN_ROW_FIELDS = [
    ("doc_id", pa.string()),
    ("offset", pa.int32()),
    ("kind", pa.string()),
    ("media_ref", pa.string()),
    ("span_text", pa.string()),
    ("text_year", pa.string()),
    ("maker_name", pa.string()),
    ("raw", RAW_TYPE),
    ("vintage_str", pa.string()),
    ("vintage_by_yolo", pa.bool_()),
    ("barcode", pa.string()),
    ("blob", BLOB_STRUCT),
]
SPAN_ROW_SCHEMA = pa.schema(SPAN_ROW_FIELDS)


def one_array(col) -> pa.Array:
    """A column as one Arrow array. Only a column of several chunks is
    copied: ``combine_chunks`` copies a single chunk too, which for
    the nested ``spans`` column costs ~0.1 ms per 1,000 docs."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def explode_spans(batch: pa.Table) -> pa.Table:
    """documents (doc_id, spans) -> one row per span, zero-copy Arrow
    list flatten + parent-index take."""
    spans = one_array(batch.column("spans"))
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans)
    doc_id = pc.take(one_array(batch.column("doc_id")), parent)
    n = len(flat)
    nulls = pa.nulls(n, pa.string())
    return pa.table({
        "doc_id": doc_id,
        "offset": pc.struct_field(flat, "offset"),
        "kind": pc.struct_field(flat, "kind"),
        "media_ref": pc.struct_field(flat, "media_ref"),
        "span_text": pc.struct_field(flat, "text"),
        "text_year": nulls,
        "maker_name": nulls,
        "raw": pa.nulls(n, RAW_TYPE),
        "vintage_str": nulls,
        "vintage_by_yolo": pa.array(np.zeros(n, dtype=bool)),
        "barcode": nulls,
        "blob": pa.nulls(n, BLOB_STRUCT),
    }, schema=SPAN_ROW_SCHEMA)


def _bytes(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """A string array's offsets and the value bytes they span, zero-copy
    (the bytes start at ``offsets[0]``)."""
    off = np.frombuffer(arr.buffers()[1], np.int32, len(arr) + 1,
                        arr.offset * 4)
    data = arr.buffers()[2]
    data = (np.frombuffer(data, np.uint8) if data is not None
            else np.zeros(0, np.uint8))
    return off, data[off[0]:off[-1]]


def _rows_with(arr: pa.Array, hits: Callable[[np.ndarray], np.ndarray]
               ) -> np.ndarray:
    """Indices of the rows of a string array holding a byte position
    that ``hits`` (value bytes -> sorted positions) returns. Costs a
    pass over the bytes plus one lookup per hit."""
    off, data = _bytes(arr)
    pos = hits(data) + off[0]
    return np.unique(np.searchsorted(off, pos, side="right") - 1)


def replace_rows(arr: pa.Array, rows: np.ndarray,
                 values: pa.Array) -> pa.Array:
    """``arr`` with its ``rows`` (sorted) replaced by ``values``."""
    mask = np.zeros(len(arr), dtype=bool)
    mask[rows] = True
    return pc.replace_with_mask(arr, pa.array(mask), values)


def _drop_tags(arr: pa.Array) -> pa.Array:
    """``strip_markup``'s tag pass with its ASCII whitespace collapsed:
    every match of its tag regex ``<[^>]{0,128}>`` becomes one space,
    as ``re.sub`` finds them, and every run of ASCII whitespace one
    space. A few passes over the value bytes; the work beyond them
    follows the tags and the runs. (RE2 runs the bounded repetition at
    ~3 us per tagged row and compiles it at ~1 ms per call.)

    ``re.sub`` scans for a ``<`` and matches it through the next ``>``
    when at most 128 characters lie between; a match resumes the scan
    after its ``>``. So of the ``<`` sharing one next ``>`` in a row,
    the first one close enough opens the match."""
    off, b = _bytes(arr)
    rel = off - off[0]
    lt = np.flatnonzero(b == 60)                    # "<"
    gt = np.flatnonzero(b == 62)                    # ">"
    nxt = np.searchsorted(gt, lt)
    lt = lt[nxt < len(gt)]
    gt = gt[nxt[nxt < len(gt)]]
    if len(lt) and b.max() >= 128:
        # characters, not bytes: count the UTF-8 lead bytes
        char = np.cumsum((b & 0xC0) != 0x80)
        gap = char[gt] - char[lt] - 1
    else:
        gap = gt - lt - 1
    close = (gt < rel[np.searchsorted(rel, lt, side="right")]) & (gap <= 128)
    lt, gt = lt[close], gt[close]
    opens = np.ones(len(gt), dtype=bool)
    opens[1:] = gt[1:] != gt[:-1]
    lt, gt = lt[opens], gt[opens]
    # kept: the "<" (as the space), not the rest of its tag
    bounds = np.empty(2 * len(lt) + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, len(b)
    bounds[1:-1:2], bounds[2:-1:2] = lt + 1, gt + 1
    keep = np.repeat(np.arange(len(bounds) - 1) % 2 == 0, np.diff(bounds))
    # str.isspace of an ASCII byte: \t-\r, \x1c-\x1f and the space
    space = (b <= 32) & ((b >= 28) | ((b >= 9) & (b <= 13)))
    space[lt] = True
    b = np.maximum(b, space.view(np.uint8) << 5)    # a space is 32
    b[lt] = 32
    # a space goes when the byte kept before it, in its row, is one
    after = np.zeros(len(b) + 1, dtype=bool)
    after[1:] = space
    after[gt + 1] = True
    after[rel] = False
    runs = np.flatnonzero(space & after[:-1] & keep)
    keep[runs] = False
    dropped = np.zeros(len(lt) + 1, dtype=np.int64)
    np.cumsum(gt - lt, out=dropped[1:])
    rel = (rel - dropped[np.searchsorted(lt, rel)]
           - np.searchsorted(runs, rel)).astype(np.int32)
    valid = pc.is_valid(arr).buffers()[1] if arr.null_count else None
    return pa.StringArray.from_buffers(len(arr), pa.py_buffer(rel),
                                       pa.py_buffer(b[keep]), valid,
                                       arr.null_count)


# Python's ``\s`` on str: the 29 characters of ``str.isspace``, of which
# RE2's ``\s`` knows only 5 (it lacks \v, \x1c-\x1f and the non-ASCII
# ones). A run of one space is left alone: only runs that change text
# match.
_WS = (r"\t-\r\x1c-\x1f\x{85}\x{a0}\x{1680}\x{2000}-\x{200a}\x{2028}"
       r"\x{2029}\x{202f}\x{205f}\x{3000}")
_WS_RUN = f"[ {_WS}]{{2,}}|[{_WS}]"


def _strip_markup_vec(arr: pa.Array) -> pa.Array:
    """Vectorized twin of functions.text.strip_markup. ``_drop_tags``
    replaces the tags and collapses the ASCII whitespace; rows holding
    a ``&`` or a non-ASCII byte then run the sequential entity passes
    and the full whitespace collapse (which the first collapse does not
    change: it keeps every run, and entities hold no whitespace)."""
    out = _drop_tags(arr)
    rest = _rows_with(arr, lambda b: np.flatnonzero((b == 38) | (b >= 128)))
    if len(rest):
        part = out.take(rest)
        for src, dst in T.ENTITY_ORDER:
            part = pc.replace_substring(part, pattern=src, replacement=dst)
        out = replace_rows(out, rest, pc.replace_substring_regex(
            part, pattern=_WS_RUN, replacement=" "))
    return pc.utf8_trim_whitespace(out)


# ``extract_year_from_text`` on ASCII text as RE2 passes, in its order:
# each pass reads the first match of its pattern in every row still
# unresolved and resolves the rows whose match is a year in range.
# On ASCII text Python's ``\d`` is [0-9], ``\b`` is RE2's, and ``\s``
# is the class below. The last pass is the any-4-digits fallback: the
# first in-range block among those ``findall`` cuts from the start of
# each digit run.
_S = r"[\t\n\x0b\f\r\x1c-\x1f ]"
_YEAR_PASSES = [
    r"\b(?P<y>19[0-9]{2}|20[0-9]{2})\b",
    r"(?i)(?:VIN|VINTAGE|VNT|V\.)" + _S + r"*(?P<y>[0-9]{4})",
    r"(?i)(?P<y>[0-9]{4})" + _S + r"*(?:VINTAGE|VIN)",
    r"[^0-9](?P<y>[0-9]{4})[^0-9]",
    r"(?:^|[^0-9])(?:[0-9]{4})*?(?P<y>19[0-9]{2}|20[0-2][0-9]|2030)",
]


def _runs_of_four(hit: np.ndarray) -> np.ndarray:
    """Where 4 bytes in a row for which ``hit`` holds start (a run may
    cross rows: a prefilter)."""
    pos = np.flatnonzero(hit)
    return pos[:-3][pos[3:] - pos[:-3] == 3]


_PLACES = np.array([1000, 100, 10, 1])


def _year_values(y: pa.Array) -> np.ndarray:
    """Each string of 4 ASCII digits in ``y`` as its int; -1 where null."""
    off, data = _bytes(y)
    out = np.full(len(y), -1, dtype=np.int64)
    has = np.flatnonzero(np.diff(off) == 4)
    out[has] = (data[(off[has] - off[0])[:, None] + np.arange(4)]
                - 48) @ _PLACES
    return out


def _text_years(cleaned: pa.Array, is_text: np.ndarray) -> pa.Array:
    r"""``extract_year_from_text`` of every text row of ``cleaned``
    (null elsewhere). Every pattern needs 4 digits in a row, so only
    rows holding 4 digit characters in a row can have a year. ASCII
    rows with 4 ASCII digits run ``_YEAR_PASSES``. A row with a
    non-ASCII character, where Python's ``\d``, ``\w`` and ``\s``
    reach beyond ASCII, runs the scalar function when it holds a run
    of 4 bytes that are ASCII digits or non-ASCII (every Unicode digit
    but 0-9 is non-ASCII)."""
    n = len(cleaned)
    non_ascii = _rows_with(cleaned, lambda b: np.flatnonzero(b >= 128))
    non_ascii = non_ascii[is_text[non_ascii]]
    rows = _rows_with(cleaned,
                      lambda b: _runs_of_four((b >= 48) & (b <= 57)))
    rows = rows[is_text[rows] & ~np.isin(rows, non_ascii)]
    if len(non_ascii):
        non_ascii = non_ascii[np.isin(non_ascii, _rows_with(
            cleaned, lambda b: _runs_of_four(((b >= 48) & (b <= 57))
                                             | (b >= 128))))]
    year = np.full(n, -1, dtype=np.int64)
    texts = cleaned.take(rows)
    for pattern in _YEAR_PASSES:
        if not len(rows):
            break
        v = _year_values(pc.struct_field(pc.extract_regex(texts, pattern),
                                         "y"))
        ok = (v >= 1900) & (v <= 2030)
        year[rows[ok]] = v[ok]
        rows = rows[~ok]
        texts = texts.filter(pa.array(~ok))
    has = year >= 0
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(has * 4, out=offsets[1:])
    digits = (year[has, None] // _PLACES % 10 + 48).astype(np.uint8)
    years = pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(digits),
        pa.array(has).buffers()[1], n - int(offsets[-1]) // 4)
    if len(non_ascii):
        years = replace_rows(years, non_ascii, pa.array(
            [T.extract_year_from_text(t)
             for t in cleaned.take(non_ascii).to_pylist()], pa.string()))
    return years


def extract_text_spans(batch: pa.Table) -> pa.Table:
    """Text-span extractors (vectorized): main-content strip + vintage
    regex (M3). Media rows pass through untouched.

    Byte-identical to the scalar spec (``strip_markup``, then
    ``extract_year_from_text``), at a cost that follows what each row
    holds: beyond a few passes over the text bytes, the strip's work
    follows the tags and whitespace runs, the entity passes run only
    on rows holding a ``&``, the vintage chain
    (``final_run_ocr.py:153-185``) runs as one RE2 pass per ordered
    pattern over the ASCII rows with 4 digits still unresolved, and
    only rows with a non-ASCII character run the scalar chain.
    """
    is_text = pc.equal(one_array(batch.column("kind")), "text")
    raw = one_array(batch.column("span_text"))
    cleaned = _strip_markup_vec(raw)
    span_text = pc.if_else(is_text, cleaned, raw)
    years = _text_years(cleaned, pc.fill_null(is_text, False).to_numpy(
        zero_copy_only=False))
    return batch.set_column(
        batch.schema.get_field_index("span_text"), "span_text", span_text
    ).set_column(
        batch.schema.get_field_index("text_year"), "text_year", years)
