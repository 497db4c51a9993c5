"""Benchmark decontamination: flag corpus documents sharing word
n-grams with a benchmark/eval set.

The standard training-data hygiene step (strip eval-set leakage before
pretraining): a document is contaminated when any of its word n-grams
(default 8-grams, the common decontamination window) appears in the
benchmark set.

Scale shape — a broadcast semi-join, never a shuffle:

* the benchmark side is eval-set-sized (thousands of documents, at
  most ~10^7 distinct grams = 80 MB of sorted uint64): folded to a
  sorted hash array once and broadcast via ``ray.put``;
* the corpus side streams: each batch tokenizes once, hashes UNIQUE
  tokens only (dictionary-amortized blake2b), rolls n-gram hashes with
  one int64 window pass, and membership-tests via ``searchsorted`` —
  per-batch cost is O(tokens + grams log bench);
* distinct-hit counting is one lexsort over the MATCHED grams only
  (contamination is rare, so this is tiny).

64-bit gram hashes make the check exact up to hash collisions
(~n_grams^2 / 2^64 — negligible at any realistic benchmark size; the
driver oracle compares against exact string n-grams and agrees).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.sketches import _hash_bytes_array, _splitmix64
from .exchange import gather


def _word_ngram_hashes(texts, n):
    """All documents' word n-gram hashes in one batch pass.

    Tokenization is ``text.lower().split(' ')`` — exact parity with SQL
    ``string_split(lower(text), ' ')`` including empty-token behavior.
    Documents with fewer than ``n`` tokens contribute no grams (no
    padding — same as the SQL window).  Returns ``(hashes, n_grams)``
    where ``n_grams[i]`` is document i's gram count and ``hashes``
    holds the segments concatenated in document order."""
    import pandas as pd

    tok_lists = [(t.lower().split(' ') if t is not None else [])
                 for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    n_grams = np.maximum(lens - n + 1, 0)
    total = int(lens.sum())
    if total == 0 or int(n_grams.sum()) == 0:
        return np.zeros(0, dtype=np.uint64), n_grams
    flat = np.empty(total, dtype=object)
    pos = 0
    for toks in tok_lists:
        flat[pos:pos + len(toks)] = toks
        pos += len(toks)
    codes, uniques = pd.factorize(flat)
    th = _hash_bytes_array(list(uniques))[codes].view(np.int64)
    if len(th) < n:                         # single short doc edge
        th = np.pad(th, (0, n - len(th)))
    windows = np.lib.stride_tricks.sliding_window_view(th, n)
    powers = np.power(np.uint64(257),
                      np.arange(n, dtype=np.uint64)).view(np.int64)
    with np.errstate(over='ignore'):
        raw = (windows * powers).sum(axis=1)
    hashes = _splitmix64(raw.view(np.uint64))
    # Keep only windows fully inside one document's token segment.
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    seg_starts = np.concatenate(([0], np.cumsum(n_grams)[:-1]))
    idx = (np.arange(int(n_grams.sum())) - np.repeat(seg_starts, n_grams)
           + np.repeat(starts, n_grams))
    return hashes[idx], n_grams


def benchmark_ngrams(bench_ds, text_column, *, n=8) -> np.ndarray:
    """Fold the benchmark set's DISTINCT word n-gram hashes into one
    sorted uint64 array (per-block unique partials, driver merge —
    benchmark sets are result-sized by definition)."""
    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_column).to_pylist()
        hashes, _ = _word_ngram_hashes(texts, n)
        return pa.table({'h': pa.array(
            np.unique(hashes).view(np.int64))})

    t = gather(bench_ds.select_columns([text_column]).map_batches(
        partial, batch_format='pyarrow'))
    if not t.num_rows:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.asarray(t.column('h'), dtype=np.int64)) \
        .view(np.uint64)


def decontaminate(ds, id_column, text_column, bench_hashes, *, n=8,
                  min_hits=1):
    """Corpus documents whose distinct-gram overlap with the benchmark
    reaches ``min_hits``; returns ``(id_column, n_hits)`` rows.  The
    complement (a `hits == 0` anti-filter) is the cleaned corpus."""
    import ray
    # Sort in the int64 VIEW's order (the membership probe searches the
    # int64 view; uint64 order differs for values >= 2^63).
    bench_sorted = np.sort(
        np.asarray(bench_hashes, dtype=np.uint64).view(np.int64))
    ref = ray.put(bench_sorted)

    def flag(batch: pa.Table) -> pa.Table:
        bench = ray.get(ref)
        ids = batch.column(id_column)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        texts = batch.column(text_column).to_pylist()
        hashes, n_grams = _word_ngram_hashes(texts, n)
        h = hashes.view(np.int64)
        if len(bench) and len(h):
            pos = np.minimum(np.searchsorted(bench, h), len(bench) - 1)
            hit = bench[pos] == h
        else:
            hit = np.zeros(len(h), dtype=bool)
        counts = np.zeros(batch.num_rows, dtype=np.int64)
        if len(h) and np.any(hit):
            doc_idx = np.repeat(np.arange(batch.num_rows), n_grams)
            dh, hh = doc_idx[hit], h[hit]
            order = np.lexsort((hh, dh))
            dh, hh = dh[order], hh[order]
            keep = np.ones(len(dh), dtype=bool)
            keep[1:] = (dh[1:] != dh[:-1]) | (hh[1:] != hh[:-1])
            counts = np.bincount(dh[keep], minlength=batch.num_rows)
        mask = counts >= min_hits
        return pa.table({
            id_column: ids.filter(pa.array(mask)),
            'n_hits': pa.array(counts[mask], type=pa.int64()),
        })

    return ds.select_columns([id_column, text_column]).map_batches(
        flag, batch_format='pyarrow')
