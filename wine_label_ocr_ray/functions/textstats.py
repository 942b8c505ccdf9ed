"""Text-analysis + dedup-sketch primitives for the documents pipeline.

These are the large-scale training-data operators (not present in the
reference, which has no bulk-text path): the stopword list,
language-ID heuristic, document fingerprinting, Jaccard, MinHash,
SimHash. All are deterministic, dependency-free, and designed
to be called per-batch from ``map_batches`` (list-of-strings in,
numpy arrays out).

Hash bases: MinHash/SimHash token hashes are md5-derived (first 8
bytes big-endian) so they are stable across processes and Python
versions (``hash()`` is salted per process and must never be used
here) AND bit-for-bit reproducible in the DuckDB oracle via
``('0x' || substr(md5(tok), 1, 16))::UBIGINT`` — which upgrades the
sketch queries from rows-only to hash-checked.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, List, Set, Tuple

import numpy as np

STOPWORDS = frozenset({
    "the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
    "that", "for", "on", "as", "with", "at", "by", "be", "this", "are",
})

# Deterministic marker-word lists for the language-ID heuristic. The
# scoring is intentionally SQL-expressible (count of marker hits per
# language, argmax with alphabetical tie-break) so the DuckDB oracle
# can reproduce it exactly.
LANG_MARKERS: dict[str, Tuple[str, ...]] = {
    "de": ("der", "die", "und", "nicht", "das", "ist", "du", "ich"),
    "en": ("the", "and", "of", "to", "a", "in", "is", "that"),
    "es": ("el", "la", "que", "de", "no", "los", "una", "es"),
    "fr": ("le", "la", "les", "des", "est", "une", "que", "et"),
    "zh": ("de", "shi", "bu", "le", "wo", "ni", "zai", "you"),
}


def lang_id(text: str) -> str:
    """Marker-word count argmax; ties broken alphabetically; no hits ->
    'und' (undetermined)."""
    toks = set(text.lower().split())
    best_lang, best_score = "und", 0
    for lang in sorted(LANG_MARKERS):
        s = sum(1 for w in LANG_MARKERS[lang] if w in toks)
        if s > best_score:
            best_lang, best_score = lang, s
    return best_lang


_ROLL_BASE = 1000003
_ROLL_MOD = (1 << 61) - 1


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Winnowing-style document fingerprint: min polynomial rolling hash
    over character windows (deterministic, order-sensitive)."""
    data = text.encode("utf-8")
    if len(data) <= window:
        h = 0
        for b in data:
            h = (h * _ROLL_BASE + b + 1) % _ROLL_MOD
        return h
    pw = pow(_ROLL_BASE, window - 1, _ROLL_MOD)
    h = 0
    for b in data[:window]:
        h = (h * _ROLL_BASE + b + 1) % _ROLL_MOD
    mn = h
    for i in range(window, len(data)):
        h = ((h - (data[i - window] + 1) * pw) * _ROLL_BASE + data[i] + 1) % _ROLL_MOD
        if h < mn:
            mn = h
    return mn


def jaccard(a: Set, b: Set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def _stable_hash64(token: str, salt: int = 0) -> int:
    """Stable 64-bit token hash = the first 16 hex chars of md5,
    read big-endian. md5 (not blake2b) so a DuckDB oracle can
    reproduce it exactly: ``('0x' || substr(md5(tok), 1, 16))::UBIGINT``
    — this is what lets simhash/minhash signature queries be
    hash-checked against SQL rather than rows-only. ``salt`` (used
    only for internal bucket derivations, never for oracle-visible
    values) prefixes the payload."""
    payload = token.encode("utf-8")
    if salt:
        payload = salt.to_bytes(8, "little") + payload
    return int.from_bytes(hashlib.md5(payload).digest()[:8], "big")


# 32-bit universal hash family (a*x + b) mod p with p prime > 2^32:
# keeping a, b, x below 2^32 lets a*x+b stay inside uint64 with no
# overflow, so the whole signature computes vectorized in numpy.
_MINHASH_P = np.uint64(4294967311)
_MINHASH_MAX_PERMS = 256
_rng = np.random.RandomState(0x5EED)
_MINHASH_A = _rng.randint(1, 1 << 32, size=_MINHASH_MAX_PERMS).astype(np.uint64)
_MINHASH_B = _rng.randint(0, 1 << 32, size=_MINHASH_MAX_PERMS).astype(np.uint64)


def minhash_signature(shingles: Iterable[str], num_perms: int = 128) -> np.ndarray:
    """MinHash signature via the standard (a*x+b) mod p universal-hash
    family over stable 64-bit shingle hashes (folded to 32 bits).
    Returns uint64[num_perms]; empty input -> all MAX."""
    base = np.fromiter((_stable_hash64(s) for s in shingles), dtype=np.uint64)
    if base.size == 0:
        return np.full(num_perms, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = (base & np.uint64(0xFFFFFFFF)) ^ (base >> np.uint64(32))
    a = _MINHASH_A[:num_perms, None]
    b = _MINHASH_B[:num_perms, None]
    vals = (a * x[None, :] + b) % _MINHASH_P
    return np.min(vals, axis=1)


def minhash_bands(sig: np.ndarray, num_bands: int = 32) -> List[int]:
    """Split a signature into LSH bands; each band -> stable 64-bit
    bucket hash."""
    rows = len(sig) // num_bands
    out = []
    for b in range(num_bands):
        chunk = sig[b * rows:(b + 1) * rows].tobytes()
        h = hashlib.blake2b(chunk, digest_size=8,
                            salt=b.to_bytes(8, "little")).digest()
        out.append(struct.unpack("<Q", h)[0])
    return out


def stable_hashes64(tokens: List[str]) -> np.ndarray:
    """``_stable_hash64`` over a flat token list -> uint64 array (one
    hashlib call per token — md5 itself is C; the point is that
    callers hash a whole BATCH's tokens in one pass and feed the
    batched numpy kernels below)."""
    return np.fromiter((_stable_hash64(t) for t in tokens),
                       dtype=np.uint64, count=len(tokens))


def minhash_signatures_batch(flat_hashes: np.ndarray,
                             offsets: np.ndarray,
                             num_perms: int = 128) -> np.ndarray:
    """MinHash signatures for MANY documents in one numpy pass:
    ``flat_hashes`` is the concatenation of every doc's shingle hashes,
    ``offsets`` (len = ndocs+1) the doc boundaries. Row i is exactly
    ``minhash_signature(doc_i_shingles)`` — the (a*x+b) mod p matrix is
    computed once for the whole batch and per-doc minima taken with
    ``np.minimum.reduceat``, replacing the per-document Python loop
    that was the most expensive bench query's hot spot (round-2
    verdict #6)."""
    ndocs = len(offsets) - 1
    out = np.full((ndocs, num_perms), np.iinfo(np.uint64).max,
                  dtype=np.uint64)
    if len(flat_hashes) == 0 or ndocs == 0:
        return out
    x = (flat_hashes & np.uint64(0xFFFFFFFF)) ^ \
        (flat_hashes >> np.uint64(32))
    vals = (_MINHASH_A[:num_perms, None] * x[None, :] +
            _MINHASH_B[:num_perms, None]) % _MINHASH_P
    nonempty = offsets[:-1] < offsets[1:]
    # reduceat over nonempty docs only: consecutive starts are then the
    # true doc boundaries (empty docs contribute no elements and keep
    # their all-MAX rows)
    starts = np.asarray(offsets[:-1][nonempty], dtype=np.intp)
    mins = np.minimum.reduceat(vals, starts, axis=1)
    out[nonempty] = mins.T
    return out


def band_buckets_mix(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """(ndocs, num_bands) uint64 LSH bucket ids via a vectorized
    splitmix-style multiply-xor fold of each band's signature chunk.
    GROUPING-INTERNAL ONLY (bucket ids never reach query output):
    equal chunks always collide, unequal chunks collide with ~2^-64
    probability — same contract as the blake2b banding in
    ``minhash_bands``, minus the per-doc-per-band hashlib calls."""
    ndocs, P = sigs.shape
    rows = P // num_bands
    chunks = sigs.reshape(ndocs, num_bands, rows)
    h = (np.arange(1, num_bands + 1, dtype=np.uint64) *
         np.uint64(0x9E3779B97F4A7C15))[None, :].repeat(ndocs, axis=0)
    for r in range(rows):
        h = h ^ chunks[:, :, r]
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        h = h ^ (h >> np.uint64(27))
    return h


def simhash64_batch(flat_hashes: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
    """SimHash for many documents in one pass: per-doc bit-sign sums
    via ``np.add.reduceat``. Element i equals
    ``simhash64(doc_i_tokens)`` exactly (empty doc -> 0)."""
    ndocs = len(offsets) - 1
    out = np.zeros(ndocs, dtype=np.uint64)
    if len(flat_hashes) == 0 or ndocs == 0:
        return out
    bits = ((flat_hashes[:, None] >>
             np.arange(64, dtype=np.uint64)[None, :]) &
            np.uint64(1)).astype(np.int32)
    signs = 2 * bits - 1
    nonempty = offsets[:-1] < offsets[1:]
    starts = np.asarray(offsets[:-1][nonempty], dtype=np.intp)
    acc = np.add.reduceat(signs, starts, axis=0)
    packed = np.packbits((acc > 0).astype(np.uint8), axis=1,
                         bitorder="little").view(np.uint64).ravel()
    out[nonempty] = packed
    return out


def simhash64(tokens: Iterable[str]) -> int:
    """64-bit SimHash over token stable-hashes (unweighted), vectorized
    across tokens."""
    hs = np.fromiter((_stable_hash64(t) for t in tokens), dtype=np.uint64)
    if hs.size == 0:
        return 0
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    return int(np.packbits((acc > 0).astype(np.uint8), bitorder="little")
               .view(np.uint64)[0])


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
