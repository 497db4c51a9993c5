"""Document chunking and intra-document repetition scoring.

Pretraining pipelines split long documents into fixed windows before
packing (``stages/pack.py`` is the downstream consumer) and drop
degenerate documents whose content is mostly repeated boilerplate (the
Gopher quality rules measure duplicate-line / duplicate-n-gram mass;
Rae et al., "Scaling Language Models: Methods, Analysis & Insights from
Training Gopher", arXiv:2112.11446 §A1.1).  Both operators here are
embarrassingly parallel ``map_batches`` stages — no shuffle, streaming
end to end — and are defined on CHARACTERS (Python codepoints == SQL
``substring``/``length`` semantics) so a DuckDB oracle can check them
exactly.

* ``chunk_text`` — overlapping fixed-size windows: chunk ``i`` of a
  document covers ``[i*stride, i*stride + chunk_chars)`` with
  ``stride = chunk_chars - overlap``; a document of length L yields
  ``1 if L <= chunk_chars else ceil((L-chunk_chars)/stride) + 1``
  chunks (the last one may be short, never empty unless the document
  itself is empty).
* ``repetition_stats`` — per document, the fraction of segment
  CHARACTERS belonging to segments (split on a literal separator) that
  occur more than once in the same document; 0.0 for documents with no
  segment characters.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd


class ChunkStage:
    """Batch-vectorized window arithmetic; the only per-row work is the
    O(chunk) substring copy itself (a C-level slice)."""

    def __init__(self, id_column, text_column, chunk_chars=512, overlap=64):
        if overlap >= chunk_chars:
            raise ValueError('overlap must be < chunk_chars')
        if chunk_chars <= 0 or overlap < 0:
            raise ValueError('chunk_chars must be > 0 and overlap >= 0')
        self.id_column = id_column
        self.text_column = text_column
        self.chunk = chunk_chars
        self.stride = chunk_chars - overlap

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_column].fillna('').tolist()
        ids = batch[self.id_column].to_numpy()
        chunk, stride = self.chunk, self.stride
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                           count=len(texts))
        n = np.where(lens <= chunk, 1,
                     (lens - chunk + stride - 1) // stride + 1)
        doc_idx = np.repeat(np.arange(len(texts)), n)
        bounds = np.concatenate(([0], np.cumsum(n)[:-1]))
        chunk_idx = np.arange(int(n.sum()), dtype=np.int64) - bounds[doc_idx]
        starts = chunk_idx * stride
        out_text = [texts[d][s:s + chunk]
                    for d, s in zip(doc_idx.tolist(), starts.tolist())]
        return pd.DataFrame({self.id_column: ids[doc_idx],
                             'chunk_idx': chunk_idx,
                             'chunk_text': out_text})


def chunk_text(ds, id_column, text_column, *, chunk_chars=512, overlap=64,
               batch_size=None):
    """Split each document into overlapping fixed-character windows:
    one output row per chunk, ``(id, chunk_idx, chunk_text)``.

    Pure per-batch flat-map — no shuffle; output block sizes grow by
    roughly ``(1 + overlap/stride) × len(text)/chunk`` over the input,
    so downstream stages re-block naturally under the streaming
    executor.  At 100 TB this is the canonical streaming stage: chunk
    windows never leave the worker that read the parent document."""
    kwargs = {'batch_format': 'pandas'}
    if batch_size:
        kwargs['batch_size'] = batch_size
    return ds.select_columns([id_column, text_column]).map_batches(
        ChunkStage(id_column, text_column, chunk_chars, overlap), **kwargs)


class RepetitionStage:
    """Per-document duplicate-segment mass, batch-vectorized: split all
    texts once, explode to a (doc, segment) frame, factorize segments
    to int codes, and compute per-(doc, code) occurrence counts with a
    single pandas transform — no per-document Python beyond the
    C-level ``str.split``."""

    def __init__(self, id_column, text_column, separator=' '):
        if not separator:
            raise ValueError('separator must be non-empty')
        self.id_column = id_column
        self.text_column = text_column
        self.sep = separator

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_column].fillna('').tolist()
        ids = batch[self.id_column].to_numpy()
        seg_lists = [t.split(self.sep) for t in texts]
        counts = np.fromiter((len(s) for s in seg_lists), dtype=np.int64,
                             count=len(seg_lists))
        doc_idx = np.repeat(np.arange(len(texts)), counts)
        segs = pd.Series(list(itertools.chain.from_iterable(seg_lists)),
                         dtype=object)
        codes, _ = pd.factorize(segs, sort=False)
        ll = segs.str.len().to_numpy(dtype=np.int64)
        df = pd.DataFrame({'d': doc_idx, 'c': codes, 'll': ll})
        occ = df.groupby(['d', 'c'], sort=False)['c'].transform('size')
        dup_chars = np.where(occ.to_numpy() > 1, ll, 0)
        total = np.bincount(doc_idx, weights=ll, minlength=len(texts))
        dup = np.bincount(doc_idx, weights=dup_chars, minlength=len(texts))
        with np.errstate(invalid='ignore', divide='ignore'):
            ratio = np.where(total > 0, dup / total, 0.0)
        return pd.DataFrame({self.id_column: ids,
                             'dup_char_ratio': ratio,
                             'n_segments': counts})


def repetition_stats(ds, id_column, text_column, *, separator=' ',
                     batch_size=None):
    """Per-document repetition score ``(id, dup_char_ratio,
    n_segments)``: the fraction of segment characters that belong to a
    segment repeated within the SAME document.  Filter on
    ``dup_char_ratio`` to drop boilerplate-heavy documents before
    training.  Pure map_batches — no shuffle."""
    kwargs = {'batch_format': 'pandas'}
    if batch_size:
        kwargs['batch_size'] = batch_size
    return ds.select_columns([id_column, text_column]).map_batches(
        RepetitionStage(id_column, text_column, separator), **kwargs)
