"""Unit + golden conformance tests for the text post-processing ports.

Golden rows come from the reference's real recorded outputs
(``storing_images/cellar.jsonl``); the table here mirrors FIXTURES.md F4.
"""

import json
import os

import pytest

from wine_label_ocr_ray.functions import text as T

GOLDEN_CELLAR = [
    # (maker_norm, vintage, key, id)
    ("HIORENT AUIGUSTIN", None, "HIORENT AUIGUSTIN|", "27993750d37b"),
    ("MERLOT", None, "MERLOT|", "0ab9dc89f8e9"),
    ("CHATEAU PEYROUQUET SAINT-EI", None, "CHATEAU PEYROUQUET SAINT-EI|", "2e96fea6aea0"),
    ("LE BY EQ", "2019", "LE BY EQ|2019", "244218444cd3"),
    ("BLARD&FILS", "2020", "BLARD&FILS|2020", "57aa51135d61"),
    ("JHATEAU BEAUPRE DE", "2012", "JHATEAU BEAUPRE DE|2012", "dc297aee4512"),
    ("CHATEAU ALCEE", None, "CHATEAU ALCEE|", "7ec2a53364ad"),
]

REFERENCE_CELLAR = "/root/reference/storing_images/cellar.jsonl"


@pytest.mark.parametrize("maker_norm,vintage,key,id_", GOLDEN_CELLAR)
def test_golden_key_and_id(maker_norm, vintage, key, id_):
    assert T.canonical_key(maker_norm, vintage) == key
    assert T.hash_id(maker_norm, vintage) == id_


@pytest.mark.skipif(not os.path.exists(REFERENCE_CELLAR),
                    reason="reference checkout not present")
def test_golden_maker_norm_reproduces_from_raw():
    """maker_norm must reproduce from maker_name / ocr_raw via the
    normalize + best-from-raw chain (scan_and_store.py:10-44)."""
    with open(REFERENCE_CELLAR) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    assert len(rows) == 7
    for row in rows:
        maker_norm = T.normalize_maker(row["maker_name"]) if row["maker_name"] else ""
        if not maker_norm:
            raw = {k: [tuple(x) for x in v] for k, v in row["ocr_raw"].items()}
            maker_norm = T.extract_best_maker_from_raw(raw)
        assert maker_norm == row["maker_norm"]
        assert T.canonical_key(maker_norm, row["vintage"]) == row["key"]
        assert T.hash_id(maker_norm, row["vintage"]) == row["id"]


@pytest.mark.parametrize("txt,expected", [
    ("VINTAGE 2019", "2019"),
    ("VIN 2021", "2021"),
    ("Vin. 2005 Reserve", "2005"),
    ("1899", None),           # below range
    ("2031", None),           # above range
    ("x2015x", "2015"),       # isolated-4-digit pattern
    ("1234", None),           # not 19/20 prefixed
    ("great wine 2018", "2018"),
    ("", None),
    (None, None),
    ("19 55", None),          # split digits are NOT joined outside the sweep
])
def test_extract_year(txt, expected):
    assert T.extract_year_from_text(txt) == expected


def test_sweep_year_collapses_digit_splits():
    # single non-overlapping collapse pass (reference parity,
    # final_run_ocr.py:279): "2 0 1 9" -> "20 19" -> no vintage
    assert T.sweep_year_from_texts(["2 0 1 9"]) is None
    assert T.sweep_year_from_texts(["foo", "20 21 bar"]) == "2021"
    assert T.sweep_year_from_texts(["2 019 vintage"]) == "2019"
    assert T.sweep_year_from_texts(["no digits"]) is None
    # sweep prefers 202x over other matches (ordered patterns)
    assert T.sweep_year_from_texts(["1999 then 2023"]) == "2023"


def test_normalize_maker():
    assert T.normalize_maker("Château Margaux!") == "CHTEAU MARGAUX"  # non-ASCII dropped
    assert T.normalize_maker("  blard&fils  ") == "BLARD&FILS"
    assert T.normalize_maker(None) == ""
    # tab is not in the ALLOWED charset: dropped without inserting a space
    assert T.normalize_maker("a  b\tc") == "A BC"


def test_clean_maker_crop():
    assert T.clean_maker_crop(" opus: one! ") == "OPUS ONE"
    assert T.clean_maker_crop("d'Arenberg & co-op") == "D'ARENBERG & CO-OP"


def test_best_maker_from_raw_longest_wins():
    raw = {
        "maker_name_candidates": [("LACON", 0.9), ("HIORENT AUIGUSTIN", 0.83)],
        "distinct logo": [("", 0.0), ("", 0.0)],
    }
    assert T.extract_best_maker_from_raw(raw) == "HIORENT AUIGUSTIN"
    # other buckets contribute only len>=3 non-"." strings
    raw2 = {"maker_name_candidates": [], "distinct logo": [("AB", 1.0), (".", 1.0), ("CHATEAU X", 0.9)]}
    assert T.extract_best_maker_from_raw(raw2) == "CHATEAU X"
    assert T.extract_best_maker_from_raw({}) == ""


def test_to_int_year_and_custom_id():
    assert T.to_int_year("2019") == 2019
    assert T.to_int_year(" 2019 ") == 2019
    assert T.to_int_year("201") is None
    assert T.to_int_year("20191") is None
    assert T.to_int_year(None) is None
    assert T.custom_id("OPUS ONE", 2019) == "OPUS ONE|2019"
    assert T.custom_id("", 2019) is None
    assert T.custom_id("OPUS ONE", None) is None


def test_strip_markup():
    assert T.strip_markup("<div>hello <b>world</b></div>") == "hello world"
    assert T.strip_markup("a &amp; b") == "a & b"
    assert T.strip_markup("  x\n\ny  ") == "x y"
    assert T.strip_markup("") == ""


def _text_leg(text):
    """(span_text, text_year) of one text span through the vectorized
    text leg (``stages.spans.extract_text_spans``)."""
    import pyarrow as pa

    from wine_label_ocr_ray.schema import DOC_SCHEMA
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)

    docs = pa.Table.from_pylist([{"doc_id": "d", "spans": [
        {"kind": "text", "text": text, "media_ref": "", "offset": 0}]}],
        schema=DOC_SCHEMA)
    row = extract_text_spans(explode_spans(docs)).to_pylist()[0]
    return row["span_text"], row["text_year"]


# every character of str.isspace, which Python's \s matches; RE2's \s
# holds only \t, \n, \f, \r and the space
PY_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_text_leg_collapses_every_python_whitespace():
    assert len(PY_SPACES) == 29
    assert _text_leg("vin\xa02011") == ("vin 2011", "2011")
    for ch in PY_SPACES:
        text = f"{ch}a{ch}{ch}b {ch}c{ch}"
        assert _text_leg(text)[0] == T.strip_markup(text) == "a b c", \
            hex(ord(ch))


def test_text_leg_reads_non_ascii_digits():
    """Python's \\d matches every Unicode decimal digit, so the scalar
    chain reads a year the ASCII-only RE2 classes cannot see."""
    assert T.extract_year_from_text("bottled 19\u0669\u0660 x") == \
        "19\u0669\u0660"
    assert _text_leg("bottled 19\u0669\u0660 x") == (
        "bottled 19\u0669\u0660 x", "19\u0669\u0660")
