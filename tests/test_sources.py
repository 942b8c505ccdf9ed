"""JSONL/TXT record source + sink parity tests (reference S4/S5/K1/K2),
plus the streaming-op queries without SQL oracles (EMA vs pandas ewm)."""

import os

import pandas as pd
import pytest

from wine_label_ocr_ray.sources.jsonl import read_records, write_records

REFERENCE_CELLAR = "/root/reference/storing_images/cellar.jsonl"


@pytest.mark.skipif(not os.path.exists(REFERENCE_CELLAR),
                    reason="reference checkout not present")
def test_read_reference_cellar_jsonl(ray_session):
    df = read_records(REFERENCE_CELLAR).to_pandas()
    assert len(df) == 7
    assert set(df.id) == {"27993750d37b", "0ab9dc89f8e9", "2e96fea6aea0",
                          "244218444cd3", "57aa51135d61", "dc297aee4512",
                          "7ec2a53364ad"}


def test_backfill_missing_key_and_id(ray_session, tmp_path):
    p = tmp_path / "db.jsonl"
    p.write_text('{"maker_norm": "OPUS ONE", "vintage": "2019"}\n'
                 '{"maker_norm": "MERLOT"}\n')
    df = read_records(str(p)).to_pandas().sort_values("maker_norm")
    assert list(df.key) == ["MERLOT|", "OPUS ONE|2019"]
    from wine_label_ocr_ray.functions.text import hash_id
    assert list(df.id) == [hash_id("MERLOT", None),
                           hash_id("OPUS ONE", "2019")]


def test_read_txt_keys(ray_session, tmp_path):
    p = tmp_path / "db.txt"
    p.write_text("# comment line\nOPUS ONE|2019\nMERLOT|\nBARE KEY\n\n")
    df = read_records(str(p)).to_pandas()
    assert len(df) == 3
    row = df[df.maker_norm == "OPUS ONE"].iloc[0]
    assert row.vintage == "2019" and row.key == "OPUS ONE|2019"
    bare = df[df.maker_norm == "BARE KEY"].iloc[0]
    assert bare.vintage is None or pd.isna(bare.vintage)


def test_write_and_roundtrip(ray_session, tmp_path):
    import ray.data as rd
    src = rd.from_items([
        {"maker_norm": "OPUS ONE", "vintage": "2019",
         "key": "OPUS ONE|2019", "id": "abc"},
        {"maker_norm": "MERLOT", "vintage": None,
         "key": "MERLOT|", "id": "def"},
    ])
    out = str(tmp_path / "out_jsonl")
    write_records(src, out)
    files = [os.path.join(out, f) for f in os.listdir(out)]
    back = pd.concat([read_records(f).to_pandas() for f in files])
    assert set(back.key) == {"OPUS ONE|2019", "MERLOT|"}


def test_events_ema_matches_pandas_ewm(ray_session):
    import duckdb

    from wine_label_ocr_ray.pipelines.queries import QUERIES
    out = QUERIES["events_ema"]("/root/testdata/sf0.01")
    events = duckdb.connect().execute(
        "select user_id, ts, value from "
        "'/root/testdata/sf0.01/events.parquet' order by user_id, ts").df()
    ref = (events.groupby("user_id")["value"]
           .apply(lambda s: round(float(
               s.ewm(alpha=0.25, adjust=False).mean().iloc[-1]), 6)))
    got = dict(zip(out.user_id, out.ema_value))
    for uid, expected in ref.items():
        assert got[uid] == pytest.approx(expected, abs=1e-9), uid


def test_simhash_near_dup_consistent(ray_session):
    from wine_label_ocr_ray.functions.textstats import hamming64, simhash64
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    import duckdb
    pairs = QUERIES["simhash_near_dup"]("/root/testdata/sf0.01")
    texts = dict(duckdb.connect().execute(
        "select doc_id, text from "
        "'/root/testdata/sf0.01/documents.parquet'").fetchall())
    for r in pairs.head(50).itertuples():
        ha = simhash64(texts[r.doc_a].lower().split())
        hb = simhash64(texts[r.doc_b].lower().split())
        assert hamming64(ha, hb) == r.hamming
        assert r.hamming <= 12


def test_backfill_integer_vintage_keys(ray_session, tmp_path):
    """Pandas float64 coercion must not leak into keys ('FOO|2019.0',
    'BAR|nan' regression)."""
    p = tmp_path / "db2.jsonl"
    p.write_text('{"maker_norm": "FOO", "vintage": 2019}\n'
                 '{"maker_norm": "BAR"}\n')
    df = read_records(str(p)).to_pandas().sort_values("maker_norm")
    assert list(df.key) == ["BAR|", "FOO|2019"]
    from wine_label_ocr_ray.functions.text import hash_id
    assert list(df.id) == [hash_id("BAR", None), hash_id("FOO", 2019)]


def test_media_store_overlapping_shards(tmp_path):
    """Routing must probe every shard whose range covers a ref, even
    when a later-starting shard's max is below it (overlap regression)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.sources.media import MediaStore
    d = tmp_path / "media"
    d.mkdir()
    pq.write_table(pa.table({"media_ref": ["m-000", "m-500", "m-999"],
                             "payload": [b"a", b"b", b"c"]}),
                   str(d / "wide.parquet"))
    pq.write_table(pa.table({"media_ref": ["m-100", "m-200"],
                             "payload": [b"d", b"e"]}),
                   str(d / "narrow.parquet"))
    store = MediaStore(str(d))
    got = store.fetch(["m-500", "m-100", "m-999"])
    assert got == {"m-500": b"b", "m-100": b"d", "m-999": b"c"}


def test_media_store_reads_only_covering_row_groups(tmp_path,
                                                   monkeypatch):
    """Row-group pruning: a fetch reads only the row groups whose
    [min, max] ref range covers one of its refs, and always reads a
    file written without statistics."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.sources.media import MediaStore
    d = tmp_path / "media"
    d.mkdir()
    refs = [f"m-{i:03d}" for i in range(8)]
    pq.write_table(pa.table({"media_ref": refs,
                             "payload": [r.encode() for r in refs]}),
                   str(d / "a.parquet"), row_group_size=2)
    pq.write_table(pa.table({"media_ref": ["m-900"], "payload": [b"z"]}),
                   str(d / "b.parquet"), write_statistics=False)
    read = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, groups, *args, **kwargs):
        read.append((self.metadata.num_rows, list(groups)))
        return real(self, groups, *args, **kwargs)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    store = MediaStore(str(d))
    got = store.fetch(["m-005", "m-004", "m-900", "m-777"])
    assert got == {"m-004": b"m-004", "m-005": b"m-005", "m-900": b"z"}
    # file a (8 rows): only the group holding m-004 and m-005; file b
    # (1 row, no statistics): its only group
    assert sorted(read) == [(1, [0]), (8, [2])]


def test_decode_payloads_chunked_large_binary():
    """A batch's payloads may arrive as several chunks of either binary
    type (a sliced chunk included); ``decode_payloads`` decodes them as
    one column, equal to decoding each payload on its own."""
    import numpy as np
    import pyarrow as pa

    from wine_label_ocr_ray.synth import (_doc_rng, _make_media_payload,
                                          decode_payload, decode_payloads)
    rng = _doc_rng(3, 0)
    payloads = [_make_media_payload(rng, "Opus One", 2019) for _ in range(5)]
    payloads[2] = b"{not json"
    for typ in (pa.large_binary(), pa.binary()):
        whole = pa.array([b"x"] + payloads, typ)
        column = pa.chunked_array([whole.slice(1, 2), whole.slice(3, 0),
                                   whole.slice(3)])
        dec = decode_payloads(column)
        assert dec.ok.tolist() == [True, True, False, True, True]
        for i, p in enumerate(payloads):
            if dec.ok[i]:
                header, gray = decode_payload(p)
                assert dec.headers[i] == header
                assert np.array_equal(dec.gray(i), gray)


def test_window_range_boundary_inclusive(ray_session, tmp_path):
    """Events exactly 30 minutes apart: the trailing window must
    INCLUDE the boundary event (RANGE-frame semantics)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    sfdir = tmp_path / "sf"
    sfdir.mkdir()
    df = pd.DataFrame({
        "event_id": [0, 1, 2],
        "user_id": [7, 7, 7],
        "ts": pd.to_datetime(["2024-01-01 10:00:00", "2024-01-01 10:30:00",
                              "2024-01-01 11:00:00"]),
        "value": [1.00, 5.00, 2.00],
    })
    pq.write_table(pa.Table.from_pandas(df), str(sfdir / "events.parquet"))
    from wine_label_ocr_ray.pipelines.queries import ORACLE_SQL, QUERIES
    got = QUERIES["events_window_range"](str(sfdir)).sort_values(
        "event_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sfdir}/events.parquet'")
    exp = con.execute(ORACLE_SQL["events_window_range"]).df().sort_values(
        "event_id").reset_index(drop=True)
    assert got.value_range.tolist() == exp.value_range.tolist() == \
        [0.0, 4.0, 3.0]


def test_read_documents_lance_dispatch(ray_session, monkeypatch, tmp_path):
    """The guarded Lance branch in read_documents must actually
    dispatch (path + column pruning forwarded, schema identical to the
    parquet read) — exercised via a fake ray.data.read_lance since the
    lance wheel is absent in this environment."""
    import ray.data

    from wine_label_ocr_ray.sources import documents as docs_mod
    from wine_label_ocr_ray.synth import generate_corpus

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=20, seed=3, num_shards=1)
    pq_ds = docs_mod.read_documents(corpus, columns=["doc_id", "spans"])

    calls = {}

    def fake_read_lance(path, *, columns=None, **kw):
        calls["path"] = path
        calls["columns"] = columns
        return pq_ds

    monkeypatch.setattr(docs_mod, "_has_lance", lambda: True)
    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance,
                        raising=False)
    out = docs_mod.read_documents("/fake/table.lance",
                                  columns=["doc_id", "spans"])
    assert calls["path"] == "/fake/table.lance"
    assert calls["columns"] == ["doc_id", "spans"]
    assert out.schema() == pq_ds.schema()

    # without lance importable, a .lance path must NOT hit read_lance
    monkeypatch.setattr(docs_mod, "_has_lance", lambda: False)
    calls.clear()
    try:
        docs_mod.read_documents("/fake/table.lance")
    except Exception:
        pass  # parquet reader rejects the fake path; dispatch is the point
    assert "path" not in calls

    # parquet branch still resolves the corpus documents/ subdir
    assert docs_mod.read_documents(corpus).count() == 20


def test_document_files_lists_what_pyarrow_discovers(tmp_path):
    """``document_files`` lists a directory as pyarrow's dataset
    discovery does: recursively, sorted, skipping files and directories
    whose names start with ``_`` or ``.``; a file lists only itself,
    a corpus lists its ``documents/`` shards, and a path that does not
    exist raises, as pyarrow's does."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.sources.documents import document_files

    root = tmp_path / "corpus" / "documents"
    table = pa.table({"doc_id": ["d"]})
    for rel in ("b.parquet", "a.parquet", "sub/c.parquet",
                "sub/deeper/d.parquet", "sub/_e.parquet", "_meta.parquet",
                ".hidden.parquet", "_tmp/f.parquet", ".git/g.parquet",
                "sub/.cache/h.parquet"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        pq.write_table(table, str(root / rel))

    def discovered(path):
        return sorted(pads.dataset(path, format="parquet").files)

    listed = document_files(str(root))
    assert listed == discovered(str(root))
    assert [os.path.relpath(f, root) for f in listed] == [
        "a.parquet", "b.parquet", "sub/c.parquet", "sub/deeper/d.parquet"]
    assert document_files(str(tmp_path / "corpus")) == listed
    one = str(root / "sub" / "c.parquet")
    assert document_files(one) == discovered(one) == [one]
    missing = str(tmp_path / "missing")
    for listing in (document_files, discovered):
        with pytest.raises(FileNotFoundError):
            listing(missing)
