"""Deduplication operators for training-data pipelines.

Every near-duplicate operator is candidate-then-verify, and it moves
rows only through the package's shared key primitives: the
fixed-boundary hash exchange (``stages/exchange.py``) and the size gate
of ``stages/join.py`` (``broadcasts``, ``broadcast_lookup_join``).

* **MinHash-LSH** (:func:`minhash_duplicate_pairs`) — per-batch
  vectorized shingle → one-permutation MinHash → ``(band, band_hash,
  id)`` rows, ``bands`` per document.  One ``exchange`` on (band,
  band_hash) brings each LSH bucket into one group; the pairs of every
  multi-document bucket are the candidates.  The text never moves here.
* **Exact n-gram Jaccard** (:func:`ngram_jaccard_pairs`) — AllPairs
  prefix filtering over three exchanges of (id, shingle-hash) rows.
* **Verification**, shared by both: a
  ``broadcast_lookup_join(how='semi')`` on the candidate ids selects the
  candidate texts; the exact shingle Jaccard then runs in one exchange
  on ``id_a`` over texts broadcast to every worker, or through two
  co-groups (on ``id_a``, then ``id_b``) when ``join.broadcasts`` finds
  the candidate texts too large.  Repeated candidates drop out in the
  ``id_a`` shuffle either way.
* **Hamming** (:func:`hamming_near_dup`) — pigeonhole bands of 64-bit
  signatures, one exchange on (band, chunk), verification inline.
* **Embedding** (:func:`embedding_duplicate_pairs`) — random-hyperplane
  LSH bucket, one exchange on it, exact cosine inside each bucket.
* **SimHash** (:func:`simhash_buckets`) — identical-signature buckets
  through ``check_unique``.  Exact dedup is
  ``pipelines/constraints.dedup_exact``.

Removal (:func:`dedup_minhash`) is a ``broadcast_lookup_join(how='anti')``
of the corpus against the loser ids.  Per-document hashing and
shingling are numpy-vectorized per batch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import _hash_bytes_array, _splitmix64
from .exchange import cogroup, exchange, positions, runs
from .join import broadcast_lookup_join, broadcasts
from .per_worker import PerWorker


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Vectorized rolling-hash values of all k-char shingles (uint64).

    Shingles are CODEPOINT windows (UTF-32 view), not UTF-8 byte
    windows: "character 5-gram" must mean the same thing for CJK or
    emoji text as for ASCII, and the SQL oracle's ``substr(t, i, 5)``
    counts codepoints.  The two coincide on ASCII."""
    data = np.frombuffer(text.lower().encode('utf-32-le'), dtype=np.uint32)
    if len(data) < k:
        data = np.pad(data, (0, k - len(data)), constant_values=32)
    windows = np.lib.stride_tricks.sliding_window_view(data, k).astype(np.uint64)
    powers = np.power(np.uint64(257), np.arange(k, dtype=np.uint64))
    with np.errstate(over='ignore'):
        raw = (windows * powers).sum(axis=1)
    return np.unique(_splitmix64(raw))


_U64_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _densify(out2d: np.ndarray) -> np.ndarray:
    """Rotation densification: empty bins take the value of the next
    non-empty bin to the right (cyclic)."""
    empty = out2d == _U64_SENTINEL
    while empty.any():
        rolled = np.roll(out2d, -1, axis=1)
        out2d = np.where(empty, rolled, out2d)
        empty = out2d == _U64_SENTINEL
    return out2d


def _batch_shingle_hashes(texts, k):
    """Shingle hashes for a whole batch in one numpy pass.

    Returns (hashes, seg_starts): ``hashes`` is every document's shingle
    hashes concatenated; document ``i``'s segment starts at
    ``seg_starts[i]``.  Identical values to per-doc ``_shingle_hashes``
    (without the per-doc unique — duplicates cannot change a min)."""
    bufs = []
    lens = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        # Codepoint windows (UTF-32 view), matching _shingle_hashes.
        data = t.lower().encode('utf-32-le')
        n_cp = len(data) // 4
        if n_cp < k:
            data = data + ' '.encode('utf-32-le') * (k - n_cp)
            n_cp = k
        bufs.append(np.frombuffer(data, dtype=np.uint32))
        lens[i] = n_cp
    if not bufs:
        return (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
    all_bytes = np.concatenate(bufs)
    # int64 wraparound arithmetic: bit-identical to uint64 but this numpy
    # build's int64 multiply loop is ~12x faster than the uint64 one.
    windows = np.lib.stride_tricks.sliding_window_view(all_bytes, k) \
        .astype(np.int64)
    powers = np.power(np.uint64(257),
                      np.arange(k, dtype=np.uint64)).view(np.int64)
    with np.errstate(over='ignore'):
        raw = (windows * powers).sum(axis=1)
    hashes = _splitmix64(raw.view(np.uint64))
    # Drop windows that straddle document boundaries: doc i owns global
    # window positions [starts[i], starts[i] + lens[i] - k].
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    n_sh = lens - k + 1
    seg_starts = np.concatenate([[0], np.cumsum(n_sh)[:-1]])
    idx = (np.arange(int(n_sh.sum())) - np.repeat(seg_starts, n_sh)
           + np.repeat(starts, n_sh))
    return hashes[idx], seg_starts


class MinHashBandStage:
    """doc → ``bands`` rows of (band, band_hash, id) for the LSH exchange;
    documents with a null id are skipped (no identity to pair on).

    Signatures are **one-permutation hashing** (Li, Owen & Zhang 2012)
    with rotation densification (Shrivastava & Li 2014): each shingle
    hash lands in one of ``num_perm`` bins by its top bits, the per-bin
    minimum is the signature slot, and empty bins borrow the next
    non-empty slot cyclically — O(1) work per shingle instead of the
    classic k-permutation O(num_perm)."""

    def __init__(self, id_column, text_column, num_perm=128, bands=16,
                 shingle_k=5):
        assert num_perm & (num_perm - 1) == 0, 'num_perm must be 2^k'
        assert num_perm % bands == 0
        self.id_column = id_column
        self.text_column = text_column
        self.num_perm = num_perm
        self.shift = np.uint64(64 - int(np.log2(num_perm)))
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, num_perm) minhash signatures for a list of texts:
        one sort of (doc, bin) keys + one min-reduceat over ALL shingles
        in the batch — O(n log n) total, independent of num_perm."""
        num_perm = self.num_perm
        hashes, seg_starts = _batch_shingle_hashes(texts, self.shingle_k)
        n_docs = len(seg_starts)
        n_sh = np.diff(np.append(seg_starts, len(hashes)))
        seg_ids = np.repeat(np.arange(n_docs, dtype=np.int64), n_sh)
        bins = (hashes >> self.shift).astype(np.int64)
        keys = seg_ids * num_perm + bins
        order = np.argsort(keys, kind='stable')
        ks = keys[order]
        hs = hashes[order]
        group_starts = np.concatenate(
            [[0], np.nonzero(np.diff(ks))[0] + 1])
        mins = np.minimum.reduceat(hs, group_starts)
        out = np.full(n_docs * num_perm, _U64_SENTINEL, dtype=np.uint64)
        out[ks[group_starts]] = mins
        out = out.reshape(n_docs, num_perm)
        # Docs with zero shingles cannot occur (_batch_shingle_hashes pads
        # to one window), so densification always terminates.
        return _densify(out)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Ids keep their Arrow type, so empty and full blocks share one
        # schema (a pandas round trip made int ids with nulls float64).
        batch = batch.filter(batch.column(self.id_column).is_valid())
        ids = batch.column(self.id_column).combine_chunks()
        texts = [t or '' for t in batch.column(self.text_column).to_pylist()]
        if not texts:
            return pa.table({'band': pa.array([], type=pa.int64()),
                             'band_hash': pa.array([], type=pa.int64()),
                             self.id_column: ids})
        r = self.rows_per_band
        sigs = self.signatures(texts)                       # (n, num_perm)
        grouped = sigs.reshape(len(texts), self.bands, r).view(np.int64)
        powers = np.power(np.uint64(1099511628211),
                          np.arange(r, dtype=np.uint64)).view(np.int64)
        with np.errstate(over='ignore'):
            band_hashes = _splitmix64(
                (grouped * powers).sum(axis=2).view(np.uint64))
        return pa.table({
            'band': pa.array(np.tile(np.arange(self.bands, dtype=np.int64),
                                     len(texts))),
            'band_hash': pa.array(band_hashes.reshape(-1).astype(np.int64)),
            self.id_column: ids.take(pa.array(
                np.repeat(np.arange(len(texts), dtype=np.int64),
                          self.bands))),
        })


def _empty_ids(dtype) -> pa.Array:
    """Zero-length id column typed like a non-empty block's: object
    (string) ids are strings, where Arrow would infer the null type."""
    if dtype == object:
        return pa.array([], type=pa.string())
    return pa.array(np.array([], dtype=dtype))


def _pairs_table(out_a, out_b, id_dtype) -> pa.Table:
    """(id_a, id_b) candidate pairs from per-bucket numpy chunks.  Arrow
    out (from numpy, no pandas metadata): Ray's block-schema dedup can hash
    the schema (pandas metadata makes pa.Schema unhashable in this pyarrow
    build), and empty results keep the id type."""
    if not out_a:
        empty = _empty_ids(id_dtype)
        return pa.table({'id_a': empty, 'id_b': empty})
    return pa.table({'id_a': np.concatenate(out_a),
                     'id_b': np.concatenate(out_b)})


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    a = set(_shingle_hashes(text_a, k).tolist())
    b = set(_shingle_hashes(text_b, k).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / max(len(a | b), 1)


def _verified(pairs: pa.Table, text_of, cache, threshold, shingle_k):
    """(id_a, id_b, jaccard) for the rows of ``pairs`` whose texts
    (``text_of``: id → text) reach ``threshold`` exact shingle Jaccard;
    ``cache`` keeps each id's shingle hashes for later calls."""
    def shingles(doc_id):
        s = cache.get(doc_id)
        if s is None:
            s = cache[doc_id] = _shingle_hashes(
                text_of.get(doc_id) or '', shingle_k)
        return s

    keep, out_j = [], []
    ids_a = pairs.column('id_a').to_pylist()
    ids_b = pairs.column('id_b').to_pylist()
    for i, (a, b) in enumerate(zip(ids_a, ids_b)):
        sa, sb = shingles(a), shingles(b)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        sim = inter / union if union else 1.0
        if sim >= threshold:
            keep.append(i)
            # raw double, not rounded: int/int division is bit-identical
            # to any SQL oracle computing the same ratio, while
            # pre-rounding can diverge from the oracle at exact .5e-6
            # ties (banker's vs half-away)
            out_j.append(sim)
    taken = pairs.take(pa.array(keep, type=pa.int64()))
    return pa.table({'id_a': taken.column('id_a'),
                     'id_b': taken.column('id_b'),
                     'jaccard': pa.array(out_j, type=pa.float64())})


def _textmap_from_refs(refs, id_column, text_column):
    """(id → text, shingle cache) over the broadcast blocks ``refs``;
    built per worker through ``PerWorker``."""
    import ray

    text_of = {}
    for t in ray.get(list(refs)):
        # Materialized empty blocks can be SCHEMALESS (zero columns
        # — seen from parquet-read lineage); skip rather than crash.
        if not t.num_rows or id_column not in t.schema.names:
            continue
        text_of.update(zip(t.column(id_column).to_pylist(),
                           t.column(text_column).to_pylist()))
    return text_of, {}


def minhash_duplicate_pairs(ds, id_column, text_column, *, threshold=0.8,
                            num_perm=128, bands=16, shingle_k=5):
    """Near-duplicate pairs via MinHash-LSH: returns a Dataset of
    (id_a, id_b, jaccard) with id_a < id_b and exact shingle-Jaccard ≥
    threshold.

    Only (band, band_hash, id) triples move through the LSH exchange —
    never the text (``bands`` small rows per document); each exchange
    group splits into its (band, band_hash) buckets with one vectorized
    sort.  Verification is :func:`_verify_candidate_pairs`: its
    exchanges move candidate pairs and candidate texts only, both
    proportional to the duplicate rate, not the corpus.

    ``bands=16`` (r=8 rows/band) keeps the candidate rate sane: a pair
    at similarity s collides with probability 1-(1-s**r)**bands, i.e.
    ~95% at s=0.8 but only ~6% at s=0.5 (r=4 would pass ~87% of
    0.5-similar pairs - a candidate explosion at corpus scale).  More
    bands => higher recall at the threshold AND more candidates.  NOTE:
    this default changed from bands=32/r=4 (which had ~100% recall at
    s=0.8 exactly); recall-sensitive small corpora can pass bands=32
    explicitly to restore it."""
    banded = ds.select_columns([id_column, text_column]).map_batches(
        MinHashBandStage(id_column, text_column, num_perm, bands,
                         shingle_k), batch_format='pyarrow')

    def band_pairs(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['band', 'band_hash'], [id_column])
        ids = g.column(id_column).to_numpy(zero_copy_only=False)
        out_a, out_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            bucket = np.unique(ids[s:e])
            n = len(bucket)
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, k=1)
            out_a.append(bucket[ii])
            out_b.append(bucket[jj])
        return _pairs_table(out_a, out_b, ids.dtype)

    candidates = exchange(banded, ['band', 'band_hash'], band_pairs)
    return _verify_candidate_pairs(
        ds, candidates, id_column, text_column, threshold=threshold,
        shingle_k=shingle_k)


def _verify_candidate_pairs(ds, candidates, id_column, text_column, *,
                            threshold, shingle_k):
    """Exact-Jaccard verification of candidate (id_a, id_b) pairs against
    the corpus ``ds``: returns (id_a, id_b, jaccard) for the distinct
    candidates whose exact shingle Jaccard ≥ ``threshold``.

    Shared tail of every near-dup candidate generator (MinHash-LSH
    banding, AllPairs prefix filtering).  The candidates are deduplicated
    per block and materialized: they feed both the candidate-id
    semi-join and the verification.  The candidate texts come from
    ``broadcast_lookup_join(how='semi')``, which broadcasts the ids or
    co-groups them with the corpus past its gate.  ``join.broadcasts``
    then picks the verification: one exchange on ``id_a`` against texts
    broadcast to every worker, or two co-groups that attach ``text_a``
    on ``id_a`` and verify against the texts on ``id_b``.  Either way
    the first shuffle is keyed on ``id_a``, which every copy of a pair
    shares, so its per-group dedup is global."""
    def unique_pairs(batch: pa.Table) -> pa.Table:
        return batch.select(['id_a', 'id_b']).group_by(
            ['id_a', 'id_b']).aggregate([])

    pairs = candidates.map_batches(unique_pairs,
                                   batch_format='pyarrow').materialize()

    def candidate_ids(batch: pa.Table) -> pa.Table:
        return pa.table({id_column: pc.unique(pa.concat_arrays([
            batch.column('id_a').combine_chunks(),
            batch.column('id_b').combine_chunks()]))})

    texts = broadcast_lookup_join(
        ds.select_columns([id_column, text_column]), id_column,
        pairs.map_batches(candidate_ids, batch_format='pyarrow'),
        id_column, how='semi').materialize()

    if broadcasts('_verify_candidate_pairs', texts, 'candidate-text'):
        text_map = PerWorker(_textmap_from_refs, texts.to_arrow_refs(),
                             id_column, text_column)

        def broadcast_verify(group: pa.Table) -> pa.Table:
            text_of, cache = text_map.get()
            return _verified(unique_pairs(group), text_of, cache, threshold,
                             shingle_k)

        return exchange(pairs, ['id_a'], broadcast_verify)

    def join_a(p: pa.Table, t: pa.Table) -> pa.Table:
        p = unique_pairs(p)
        text_of = dict(zip(t.column(id_column).to_pylist(),
                           t.column(text_column).to_pylist()))
        return p.append_column('text_a', pa.array(
            [text_of.get(i) for i in p.column('id_a').to_pylist()],
            type=pa.string()))

    def verify(p: pa.Table, t: pa.Table) -> pa.Table:
        text_of = dict(zip(p.column('id_a').to_pylist(),
                           p.column('text_a').to_pylist()))
        text_of.update(zip(t.column(id_column).to_pylist(),
                           t.column(text_column).to_pylist()))
        return _verified(p, text_of, {}, threshold, shingle_k)

    with_text_a = cogroup(pairs, texts, 'id_a', id_column, join_a)
    return cogroup(with_text_a, texts, 'id_b', id_column, verify)


class ShingleExplodeStage:
    """doc → one row per DISTINCT shingle hash: (id, sh, n) where ``n`` is
    the document's distinct-shingle count, carried on every row so no
    later size join is needed.  Fully batch-vectorized: one rolling-hash
    pass over the batch's concatenated bytes (``_batch_shingle_hashes``),
    then per-document distinct via a single lexsort + run mask."""

    def __init__(self, id_column, text_column, shingle_k=5):
        self.id_column = id_column
        self.text_column = text_column
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        # A null id has no identity to pair on.
        batch = batch.filter(batch.column(self.id_column).is_valid())
        ids = batch.column(self.id_column)
        texts = batch.column(self.text_column).fill_null('').to_pylist()
        hashes, seg_starts = _batch_shingle_hashes(texts, self.k)
        total = len(hashes)
        if total == 0:
            return pa.table({self.id_column: ids.slice(0, 0),
                             'sh': pa.array([], pa.int64()),
                             'n': pa.array([], pa.int64())})
        counts = np.diff(np.append(seg_starts, total))
        doc_idx = np.repeat(np.arange(len(texts)), counts)
        # int64 view: same distinctness as uint64, SIMD-fast sort path.
        h = hashes.view(np.int64)
        order = np.lexsort((h, doc_idx))
        hs, dxs = h[order], doc_idx[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        first[1:] = (hs[1:] != hs[:-1]) | (dxs[1:] != dxs[:-1])
        hs, dxs = hs[first], dxs[first]
        n_per_doc = np.bincount(dxs, minlength=len(texts))
        return pa.table({self.id_column: ids.take(dxs),
                         'sh': hs,
                         'n': n_per_doc[dxs].astype(np.int64)})


def ngram_jaccard_pairs(ds, id_column, text_column, *, threshold=0.8,
                        shingle_k=5):
    """EXACT character-n-gram Jaccard near-duplicate pairs: every
    (id_a, id_b, jaccard) with id_a < id_b and distinct-shingle Jaccard
    ≥ ``threshold`` — no LSH approximation, exact recall.

    Candidate generation is AllPairs/PPJoin-style prefix filtering
    (Bayardo, Ma & Srikant WWW'07; Xiao et al. WWW'08): under ANY global
    total order on shingles, two sets with J ≥ t must share one of their
    first ``|X| - ceil(t·|X|) + 1`` shingles (the smallest common shingle
    sits inside both prefixes by pigeonhole), so only that ~(1-t)
    fraction of each document is indexed.  Ordering shingles by
    ascending document frequency keeps stop-shingles — which every
    document shares — OUT of every prefix: candidate volume stays ∝ the
    near-dup rate instead of the full O(Σ df²) inverted-index blowup.

    Three hash-bucketed exchanges, each moving (id, shingle-hash) tuples
    only — never text: (1) per-shingle document frequency (all rows of a
    shingle co-locate in its bucket, so df is a local group size), (2)
    per-document prefix selection (sort by the global (df, sh) order,
    keep the first p), (3) prefix-token pair generation.  Exact
    verification is the tail shared with ``minhash_duplicate_pairs``
    (:func:`_verify_candidate_pairs`).  Cost grows with (1-t): below
    t≈0.5 prefixes stop excluding much — use MinHash-LSH there.
    """
    exploded = ds.select_columns([id_column, text_column]).map_batches(
        ShingleExplodeStage(id_column, text_column, shingle_k),
        batch_format='pyarrow')

    def with_df(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['sh'])
        size = np.diff(bounds)
        return g.select([id_column, 'sh', 'n']).append_column(
            'df', pa.array(np.repeat(size, size)))

    withdf = exchange(exploded, ['sh'], with_df)

    def prefixes(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, [id_column], ['df', 'sh'])
        rank = positions(bounds)
        n = g.column('n').to_numpy()
        # ceil with a tiny slack DOWN so float error can only ENLARGE
        # the prefix (larger stays correct; smaller would lose pairs).
        p = n - np.ceil(threshold * n - 1e-9).astype(np.int64) + 1
        keep = rank < p
        return g.select([id_column, 'sh', 'n']).filter(keep) \
            .append_column('rank', pa.array(rank[keep]))

    prefix_rows = exchange(withdf, [id_column], prefixes)

    def token_pairs(group: pa.Table) -> pa.Table:
        # One group = one bucket of prefix tokens: runs of equal sh give
        # each token's posting list; emit its C(n,2) id pairs, pruned by
        # the PPJoin length filter (min(n) ≥ t·max(n)) and position
        # filter (overlap upper bound min(nA-rA, nB-rB) + min(rA, rB)
        # must reach α = ceil(t/(1+t)·(nA+nB))) — both sound for every
        # shared token, so no true pair is lost.
        g, bounds = runs(group, ['sh'], [id_column])
        ids = g.column(id_column).to_numpy(zero_copy_only=False)
        ns = g.column('n').to_numpy()
        rs = g.column('rank').to_numpy()
        out_a, out_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            m = e - s
            ii, jj = np.triu_indices(m, k=1)
            na, nb = ns[s:e][ii], ns[s:e][jj]
            ra, rb = rs[s:e][ii], rs[s:e][jj]
            alpha = np.ceil(
                threshold / (1 + threshold) * (na + nb) - 1e-9)
            keep = (
                (np.minimum(na, nb) >=
                 threshold * np.maximum(na, nb) - 1e-9)
                & (np.minimum(na - ra, nb - rb)
                   + np.minimum(ra, rb) >= alpha))
            if keep.any():
                out_a.append(ids[s:e][ii[keep]])
                out_b.append(ids[s:e][jj[keep]])
        return _pairs_table(out_a, out_b, ids.dtype)

    candidates = exchange(prefix_rows, ['sh'], token_pairs)
    return _verify_candidate_pairs(
        ds, candidates, id_column, text_column, threshold=threshold,
        shingle_k=shingle_k)


def dedup_minhash(ds, id_column, text_column, transitive=False, **kwargs):
    """Near-dup removal: drop the higher id of every duplicate pair, or —
    with ``transitive=True`` — collapse each CONNECTED COMPONENT of the
    pair graph to its minimum id (a chain a~b~c keeps only a, even when
    a and c are not pairwise similar).  Pair-wise removal is the standard
    first-order policy at threshold ≥0.8; transitive collapse is the
    cluster-level policy (see stages/components.py).

    The drop is ``broadcast_lookup_join(how='anti')`` against the loser
    ids (ids only, never texts): broadcast under the size gate,
    co-grouped with the corpus above it.  Rows with a null id are never
    losers and stay."""
    pairs = minhash_duplicate_pairs(ds, id_column, text_column, **kwargs)
    if not transitive:
        return broadcast_lookup_join(ds, id_column, pairs, 'id_b',
                                     how='anti')
    from .components import connected_components

    def losers_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch.column('id'),
                                         batch.column('component_id')))

    losers = connected_components(pairs).map_batches(
        losers_only, batch_format='pyarrow')
    return broadcast_lookup_join(ds, id_column, losers, 'id', how='anti')


# ---------------------------------------------------------------------------
# SimHash


class SimHashStage:
    """64-bit SimHash over whitespace tokens, batch-vectorized.

    Per batch: tokenize once, factorize to the batch's UNIQUE tokens
    (blake2b hashed once each, the stage's cache amortizes across batches),
    unpack each unique hash to a (U, 64) bit matrix, then segment-sum the
    per-occurrence bit rows per document (64 ``np.bincount`` passes) —
    vote[d, i] = 2·ones[d, i] − n_tokens[d], bit i set iff vote > 0.
    No per-document Python; the only per-unique-token loop is the hash
    cache probe."""

    def __init__(self, id_column, text_column):
        self.id_column = id_column
        self.text_column = text_column
        self._cache = {}

    def _token_hash(self, token: str) -> np.uint64:
        h = self._cache.get(token)
        if h is None:
            h = self._cache[token] = _hash_bytes_array([token])[0]
            if len(self._cache) > 1_000_000:
                self._cache.clear()
        return h

    def _unique_hashes(self, uniques) -> np.ndarray:
        cache = self._cache
        missing = [t for t in uniques if t not in cache]
        if missing:
            hashed = _hash_bytes_array(missing)
            if len(cache) + len(missing) > 1_000_000:
                cache.clear()
            cache.update(zip(missing, hashed))
        return np.fromiter((cache[t] for t in uniques), dtype=np.uint64,
                           count=len(uniques))

    def simhash(self, text: str) -> int:
        """Scalar reference path (tests assert batch ≡ scalar)."""
        tokens = text.lower().split()
        if not tokens:
            return 0
        hashes = np.array([self._token_hash(t) for t in tokens],
                          dtype=np.uint64)
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64))
                & np.uint64(1)).astype(np.int64)
        vote = (2 * bits - 1).sum(axis=0)
        sig = np.uint64(0)
        for i in np.nonzero(vote > 0)[0]:
            sig |= np.uint64(1) << np.uint64(i)
        return int(sig.astype(np.int64))

    def simhash_batch(self, texts) -> np.ndarray:
        """Vectorized kernel: int64 signatures for a sequence of texts."""
        tok_lists = [t.lower().split() for t in texts]
        n = len(tok_lists)
        counts = np.fromiter(map(len, tok_lists), dtype=np.int64, count=n)
        sigs = np.zeros(n, dtype=np.int64)
        total = int(counts.sum())
        if not total:
            return sigs
        flat = np.empty(total, dtype=object)
        pos = 0
        for toks in tok_lists:
            flat[pos:pos + len(toks)] = toks
            pos += len(toks)
        codes, uniques = pd.factorize(flat)
        uh = self._unique_hashes(uniques)
        # One small gather of the 64-bit hashes per occurrence, then a
        # per-bit prefix-sum segmented reduction: ones[d, i] =
        # csum_i[end_d] - csum_i[start_d].  int64 cumsum is the one fast
        # segmented primitive on this numpy build (add.reduceat and a
        # (tokens, 64) gather+bincount both measured 3-25x slower).
        h_occ = uh.view(np.int64)[codes]
        hb = h_occ.view(np.uint8).reshape(-1, 8)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        ends = starts[1:]
        csum = np.empty(total + 1, dtype=np.int64)
        csum[0] = 0
        ones = np.empty((n, 64), dtype=np.int64)
        for j in range(8):
            col = hb[:, j]
            for k in range(8):
                np.cumsum((col >> k) & 1, dtype=np.int64, out=csum[1:])
                ones[:, j * 8 + k] = csum[ends] - csum[starts[:-1]]
        votes = 2 * ones - counts[:, None]
        packed = np.packbits((votes > 0).astype(np.uint8), axis=1,
                             bitorder='little')
        sigs[:] = packed.view(np.uint64).ravel().view(np.int64)
        sigs[counts == 0] = 0
        return sigs

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch['simhash'] = self.simhash_batch(
            batch[self.text_column].fillna('').tolist())
        return batch


def simhash_buckets(ds, id_column, text_column):
    """Groups of documents sharing an identical 64-bit SimHash.

    Signatures are near-unique per document, so a raw
    ``groupby('simhash')`` would be a per-distinct-key sort-aggregate
    (~0.5 ms/group).  Instead the duplicate count reuses the
    check_unique shape: per-batch value_counts partials, then a
    coarse-bucket fold — ≤1 row per distinct signature per block ever
    shuffles."""
    from ..pipelines.constraints import check_unique

    sigs = ds.select_columns([id_column, text_column]).map_batches(
        SimHashStage(id_column, text_column), batch_format='pandas')
    dup_sigs = check_unique(sigs.select_columns(['simhash']), ['simhash'])
    return sigs, dup_sigs


# ---------------------------------------------------------------------------
# Embedding near-dup (cosine)


class HyperplaneLSHStage:
    """Random-hyperplane bucket id for unit-normalized embeddings."""

    def __init__(self, embedding_column, dim, n_planes=16, seed=7):
        rng = np.random.default_rng(seed)
        self.embedding_column = embedding_column
        self.planes = rng.standard_normal((dim, n_planes))
        self.weights = (1 << np.arange(n_planes)).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.arrowutil import (drop_null_embeddings,
                                           embedding_matrix)
        batch = drop_null_embeddings(batch, self.embedding_column)
        if batch.num_rows == 0:
            return batch.append_column('bucket',
                                       pa.array([], type=pa.int64()))
        emb = embedding_matrix(batch.column(self.embedding_column))
        signs = (emb @ self.planes) > 0
        bucket = (signs * self.weights).sum(axis=1)
        return batch.append_column('bucket', pa.array(bucket, type=pa.int64()))


def _cosine_pairs_tiled(unit, threshold, tile=2048):
    """All (i, j, cos) with j > i and cos >= threshold over a unit-row
    matrix, in ``tile``x``tile`` BLAS blocks: a hot bucket of n vectors
    costs O(n^2 d) matmul FLOPs but never materializes the full n x n
    similarity matrix (peak extra memory = one tile^2 float64 block,
    ~32 MB at the default) and emits pairs via np.nonzero — zero
    per-pair Python."""
    n = len(unit)
    out_i, out_j, out_c = [], [], []
    for s in range(0, n, tile):
        a = unit[s:s + tile]
        for t in range(s, n, tile):
            blk = a @ unit[t:t + tile].T
            ii, jj = np.nonzero(blk >= threshold)
            gi = ii + s
            gj = jj + t
            keep = gj > gi
            if keep.any():
                out_i.append(gi[keep])
                out_j.append(gj[keep])
                out_c.append(blk[ii[keep], jj[keep]])
    if not out_i:
        z = np.empty(0, dtype=np.int64)
        return z, z, np.empty(0, dtype=np.float64)
    return (np.concatenate(out_i), np.concatenate(out_j),
            np.concatenate(out_c))


def embedding_duplicate_pairs(ds, id_column, embedding_column, dim, *,
                              threshold=0.95, n_planes=12):
    """Near-identical embeddings: hyperplane-LSH bucket → exact cosine
    verification within buckets.  (High thresholds ⇒ near-identical vectors
    ⇒ same bucket with high probability; raise recall by lowering
    n_planes.)

    Hot buckets (e.g. many near-zero vectors landing in one hyperplane
    cell) verify in tiled BLAS blocks (:func:`_cosine_pairs_tiled`):
    O(n^2 d) FLOPs but bounded memory and no per-pair Python — 10k
    identical-bucket vectors verify in well under a second."""
    bucketed = ds.select_columns([id_column, embedding_column]).map_batches(
        HyperplaneLSHStage(embedding_column, dim, n_planes),
        batch_format='pyarrow')

    def verify_bucket(bucket: pa.Table) -> pa.Table:
        from ..functions.arrowutil import embedding_matrix
        ids = bucket.column(id_column).combine_chunks()
        emb = embedding_matrix(bucket.column(embedding_column)) \
            .astype(np.float64, copy=False)
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        unit = emb / norms[:, None]
        gi, gj, cos = _cosine_pairs_tiled(unit, threshold)
        return pa.table({'id_a': ids.take(pa.array(gi)),
                         'id_b': ids.take(pa.array(gj)),
                         'cosine': pa.array(np.round(cos, 6))})

    def verify(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['bucket'], [id_column])
        found = [t for t in (verify_bucket(g.slice(s, e - s))
                             for s, e in zip(bounds[:-1], bounds[1:])
                             if e - s > 1) if t.num_rows]
        if found:
            return pa.concat_tables(found)
        ids = group.schema.field(id_column).type
        return pa.table({'id_a': pa.nulls(0, ids), 'id_b': pa.nulls(0, ids),
                         'cosine': pa.nulls(0, pa.float64())})

    return exchange(bucketed, ['bucket'], verify)


# ---------------------------------------------------------------------------
# Hamming near-dup over 64-bit signatures (phash / simhash)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 (SWAR; int64 ops for the fast loops)."""
    v = x.view(np.int64).copy()
    m1 = np.int64(0x5555555555555555)
    m2 = np.int64(0x3333333333333333)
    m4 = np.int64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over='ignore'):
        v = v - (_lshr_i64(v, 1) & m1)
        v = (v & m2) + (_lshr_i64(v, 2) & m2)
        v = (v + _lshr_i64(v, 4)) & m4
        v = (v * np.int64(0x0101010101010101))
    return _lshr_i64(v, 56).astype(np.int64)


def _lshr_i64(v: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return v
    return (v >> k) & np.int64((1 << (64 - k)) - 1)


def _hamming_pairs_tiled(hh, max_dist, tile=4096):
    """All (i, j, dist) with j > i and popcount(hh[i]^hh[j]) <= max_dist,
    in ``tile``x``tile`` blocks: a hot bucket (e.g. the all-zero chunk of
    near-blank images) never materializes the full n^2 index/XOR arrays
    — peak extra memory is one tile^2 int64 block (~128 MB at the
    default; pass a smaller tile for tighter workers)."""
    n = len(hh)
    out_i, out_j, out_d = [], [], []
    for s in range(0, n, tile):
        a = hh[s:s + tile]
        for t in range(s, n, tile):
            with np.errstate(over='ignore'):
                d = _popcount64(
                    (a[:, None] ^ hh[None, t:t + tile]).view(np.uint64))
            ii, jj = np.nonzero(d <= max_dist)
            gi = ii + s
            gj = jj + t
            keep = gj > gi
            if keep.any():
                out_i.append(gi[keep])
                out_j.append(gj[keep])
                out_d.append(d[ii[keep], jj[keep]])
    if not out_i:
        z = np.empty(0, dtype=np.int64)
        return z, z, z.copy()
    return (np.concatenate(out_i), np.concatenate(out_j),
            np.concatenate(out_d))


def hamming_near_dup(ds, id_column, hash_column, *, max_dist=3, bands=None):
    """Near-duplicate pairs among 64-bit signatures (image phash, document
    simhash): (id_a, id_b, dist) with id_a < id_b and popcount(a^b) <=
    max_dist.

    Pigeonhole banding: the 64 bits split into ``bands`` equal chunks; a
    pair within distance d < bands must agree EXACTLY on at least one
    chunk, so bucketing by (band, chunk value) has guaranteed recall when
    ``bands >= max_dist + 1`` (the default).  One exchange on (band,
    chunk) moves only (band, chunk, id, hash) rows — the 8-byte
    signature rides along, so verification happens inline in each
    bucket (no text join, unlike minhash); a second exchange drops the
    pairs found in more than one band.  At 10^12 rows the hot buckets are the all-zero
    chunks of near-blank images; verification runs in tiled popcount
    blocks (:func:`_hamming_pairs_tiled`) so a hot bucket costs O(n^2)
    vectorized XOR-popcount but bounded memory — still pre-filter
    degenerate signatures upstream when the corpus is dominated by
    them (the FLOPs, not the memory, become the bill)."""
    if bands is None:
        # Smallest divisor of 64 exceeding max_dist (pigeonhole needs
        # bands > max_dist for guaranteed recall; chunks must tile 64 bits).
        bands = next(b for b in (1, 2, 4, 8, 16, 32, 64) if b > max_dist)
    assert 64 % bands == 0, 'bands must divide 64'
    chunk_bits = 64 // bands
    mask = np.int64((1 << chunk_bits) - 1) if chunk_bits < 64 \
        else np.int64(-1)

    def explode(batch: pa.Table) -> pa.Table:
        ids_all = batch.column(id_column).combine_chunks()
        h_all = batch.column(hash_column).combine_chunks()
        # Null ids/hashes are skipped (engine-wide null-key policy): they
        # carry no identity to pair on and break sort-based bucketing.
        keep = pc.and_(ids_all.is_valid(), h_all.is_valid())
        ids = ids_all.filter(keep)
        h = np.asarray(h_all.filter(keep).cast(pa.int64())).astype(np.int64)
        n = len(h)
        out_band = np.tile(np.arange(bands, dtype=np.int64), n)
        chunks = np.empty((n, bands), dtype=np.int64)
        for b in range(bands):
            chunks[:, b] = _lshr_i64(h, b * chunk_bits) & mask
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        return pa.table({
            'band': pa.array(out_band),
            'chunk': pa.array(chunks.reshape(-1)),
            id_column: ids.take(idx),
            '_hash': pa.array(np.repeat(h, bands)),
        })

    exploded = ds.map_batches(explode, batch_format='pyarrow')

    def band_pairs(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['band', 'chunk'], [id_column])
        ids = g.column(id_column).to_numpy(zero_copy_only=False)
        hashes = g.column('_hash').to_numpy()
        out_a, out_b, out_d = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            bucket_ids = ids[s:e]
            bucket_h = hashes[s:e]
            uniq, first = np.unique(bucket_ids, return_index=True)
            if len(uniq) < 2:
                continue
            hh = bucket_h[first]
            gi, gj, dist = _hamming_pairs_tiled(hh, max_dist)
            if len(gi):
                out_a.append(uniq[gi])
                out_b.append(uniq[gj])
                out_d.append(dist)
        return _pairs_table(out_a, out_b, ids.dtype).append_column(
            'dist', pa.array(np.concatenate(out_d) if out_d else [],
                             type=pa.int64()))

    pairs = exchange(exploded, ['band', 'chunk'], band_pairs)

    # Cross-band dedup: exchange on the pair, first row of each run of
    # equal pairs per bucket (pairs ∝ dup rate, not corpus).
    def dedup_bucket(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['id_a', 'id_b'])
        return g.select(['id_a', 'id_b', 'dist']).take(bounds[:-1])

    return exchange(pairs, ['id_a', 'id_b'], dedup_bucket)
