"""Similarity search over an embedding column (``list<float>``).

* :func:`topk_cosine` — exact brute force: each batch computes
  ``unit_embeddings @ query`` (one BLAS matmul), keeps a LOCAL top-k, and
  the tiny per-batch partials are merged globally.  The query matrix is
  broadcast once via ``ray.put``.  This is the correctness baseline and is
  bandwidth-optimal (every vector read exactly once, k rows per batch move).
* :func:`build_ivf` / :func:`topk_cosine_ivf` — the scale path: k-means
  centroids (trained on a driver-side sample), an assignment stage tags
  each row with its nearest centroid, and queries probe only the
  ``nprobe`` nearest clusters — at 10^12 rows the probe reads ~nprobe/nlist
  of the data instead of all of it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .exchange import gather, positions, runs
from .per_worker import PerWorker


def _as_matrix(batch: pa.Table, embedding_column: str) -> np.ndarray:
    from ..functions.arrowutil import embedding_matrix
    return embedding_matrix(batch.column(embedding_column))


def _drop_nulls(batch: pa.Table, embedding_column: str) -> pa.Table:
    from ..functions.arrowutil import drop_null_embeddings
    return drop_null_embeddings(batch, embedding_column)


def _unit(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return m / norms[:, None]


def _unit_query_from_ref(query_ref):
    """The broadcast query matrix, unit-normalized row-wise; built once per
    worker through ``PerWorker``."""
    import ray
    raw = np.asarray(ray.get(query_ref), dtype=np.float64)
    if raw.ndim == 1:
        raw = raw[None, :]
    return _unit(raw)


def topk_cosine(ds, id_column, embedding_column, query, k=10,
                batch_size=4096) -> pd.DataFrame:
    """Exact cosine top-k.  Returns a pandas DataFrame
    (query, id, sim) sorted by sim desc, id asc, k rows per query."""
    import ray

    queries = PerWorker(_unit_query_from_ref,
                        ray.put(np.asarray(query, dtype=np.float64)))

    def local_topk(batch: pa.Table) -> pa.Table:
        batch = _drop_nulls(batch, embedding_column)
        if batch.num_rows == 0:
            return pa.table({
                'query': pa.array([], type=pa.int64()),
                id_column: pa.array([], type=batch.column(id_column).type),
                'sim': pa.array([], type=pa.float64()),
            })
        qmat = queries.get()
        emb = _unit(_as_matrix(batch, embedding_column))
        sims = emb @ qmat.T                  # (n, n_queries)
        ids = batch.column(id_column)
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            kk = min(k, len(col))
            idx = np.argpartition(-col, kk - 1)[:kk]
            for i in idx:
                out_q.append(qi)
                out_id.append(ids[int(i)].as_py())
                out_sim.append(float(col[i]))
        return pa.table({
            'query': pa.array(out_q, type=pa.int64()),
            id_column: pa.array(out_id),
            'sim': pa.array(out_sim, type=pa.float64()),
        })

    # Partials are tiny (k rows per batch): merge on the driver.
    partials = gather(ds.select_columns([id_column, embedding_column])
                      .map_batches(local_topk, batch_format='pyarrow',
                                   batch_size=batch_size))
    if not partials.num_rows:       # empty corpus: no partial has a type
        partials = pa.table({'query': pa.array([], pa.int64()),
                             id_column: pa.array([]),
                             'sim': pa.array([], pa.float64())})
    top, bounds = runs(partials, ['query'], [('sim', 'descending'), id_column])
    return top.filter(positions(bounds) < k).to_pandas()


# ---------------------------------------------------------------------------
# IVF (inverted-file) variant


def _kmeans(sample: np.ndarray, nlist: int, iters: int = 12, seed: int = 3):
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(len(sample), nlist, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(_unit(sample) @ _unit(centroids).T, axis=1)
        for c in range(nlist):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


def _assign_clusters(batch: pa.Table, embedding_column,
                     unit_centroids) -> pa.Table:
    # Parquet written by pandas carries b'pandas' schema metadata, which
    # Ray's block-schema dedup cannot hash; the blocks leave without it.
    batch = _drop_nulls(batch, embedding_column).replace_schema_metadata(None)
    if batch.num_rows == 0:
        return batch.append_column('ivf_cluster',
                                   pa.array([], type=pa.int64()))
    centroids = unit_centroids.get()
    emb = _unit(_as_matrix(batch, embedding_column))
    assign = np.argmax(emb @ centroids.T, axis=1)
    return batch.append_column('ivf_cluster',
                               pa.array(assign, type=pa.int64()))


def build_ivf(ds, embedding_column, nlist=64, sample_rows=10_000,
              train='sample', train_iters=8):
    """Train centroids, tag every row with its cluster.  Returns
    (tagged_ds, centroids).  At scale, write tagged_ds partitioned by
    ivf_cluster so a probe reads only the matching partitions.

    ``train='sample'`` (default) runs the local spherical k-means on a
    driver-side sample — cheap, usually enough for routing.
    ``train='full'`` refines with the distributed Lloyd passes over the
    ENTIRE dataset (stages/cluster.py:kmeans_fit, spherical) — better
    balanced lists for skewed corpora, at ``train_iters`` extra
    streaming scans and still zero shuffle."""
    import ray

    if train not in ('sample', 'full'):
        raise ValueError("train must be 'sample' or 'full'")
    def _tag_unclustered(b: pa.Table) -> pa.Table:
        # No centroids (empty / all-null corpus): drop null embeddings
        # and tag the rest -1 so downstream probe filters match nothing
        # but the ivf_cluster column always exists.
        b = _drop_nulls(b, embedding_column).replace_schema_metadata(None)
        return b.append_column(
            'ivf_cluster', pa.array(np.full(b.num_rows, -1), type=pa.int64()))

    n_rows = ds.count()
    if n_rows == 0:
        # Empty corpus: no centroids to train; probes match nothing.
        return (ds.map_batches(_tag_unclustered, batch_format='pyarrow'),
                np.zeros((0, 0), dtype=np.float64))
    sample = ds.select_columns([embedding_column]) \
        .random_sample(min(1.0, sample_rows / n_rows), seed=11) \
        .to_pandas()
    if sample.empty:            # tiny corpus + sampling underflow
        sample = ds.select_columns([embedding_column]) \
            .limit(min(n_rows, sample_rows)).to_pandas()
    sample = sample.dropna(subset=[embedding_column])
    if sample.empty:            # every sampled embedding is null
        return (ds.map_batches(_tag_unclustered, batch_format='pyarrow'),
                np.zeros((0, 0), dtype=np.float64))
    mat = np.stack(sample[embedding_column].to_numpy()).astype(np.float64)
    # Stable centroid training regardless of block emission order.
    mat = mat[np.lexsort(mat.T[::-1])]
    centroids = _kmeans(mat, min(nlist, len(mat)))
    if train == 'full':
        from .cluster import kmeans_fit
        centroids, _ = kmeans_fit(
            ds, embedding_column, len(centroids), iters=train_iters,
            init_centroids=_unit(centroids), normalize=True)
    unit_centroids = PerWorker(_unit_query_from_ref, ray.put(centroids))
    tagged = ds.map_batches(
        lambda b: _assign_clusters(b, embedding_column, unit_centroids),
        batch_format='pyarrow')
    return tagged, centroids


def _probe_clusters(centroids, query, nprobe) -> list:
    if len(centroids) == 0:
        return []
    q = np.asarray(query, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-12)
    order = np.argsort(-(_unit(centroids) @ qn))
    return sorted(int(c) for c in order[:nprobe])


def topk_cosine_ivf(tagged_ds, centroids, id_column, embedding_column, query,
                    k=10, nprobe=8) -> pd.DataFrame:
    """Probe only the nprobe nearest clusters, then exact top-k within.

    The probe is a vectorized Arrow ``is_in`` batch filter (no per-row
    Python).  This still scans every block of ``tagged_ds``; the true
    scale path is :func:`write_ivf_partitioned` + :func:`topk_cosine_ivf_partitioned`,
    which reads only ~nprobe/nlist of the stored bytes."""
    import pyarrow.compute as pc

    probe = pa.array(_probe_clusters(centroids, query, nprobe),
                     type=pa.int64())

    def probe_filter(batch: pa.Table) -> pa.Table:
        hit = pc.is_in(batch.column('ivf_cluster').combine_chunks()
                       .cast(pa.int64()), value_set=probe)
        return batch.filter(hit).replace_schema_metadata(None)

    subset = tagged_ds.map_batches(probe_filter, batch_format='pyarrow')
    return topk_cosine(subset, id_column, embedding_column,
                       np.asarray(query, dtype=np.float64), k=k)


def write_ivf_partitioned(tagged_ds, path):
    """Persist the tagged dataset hive-partitioned by ``ivf_cluster`` so a
    probe can read ONLY the matching cluster directories (the docstring
    promise of :func:`build_ivf` at 10^12 rows)."""
    tagged_ds.write_parquet(path, partition_cols=['ivf_cluster'])


def topk_cosine_ivf_partitioned(path, centroids, id_column,
                                embedding_column, query, k=10,
                                nprobe=8) -> pd.DataFrame:
    """Selective-read probe: open only the ``ivf_cluster=<c>`` partitions
    of a :func:`write_ivf_partitioned` layout and run exact top-k there —
    I/O scales with nprobe/nlist, not corpus size."""
    import ray.data

    import os

    probe = _probe_clusters(centroids, query, nprobe)
    files = []
    for c in probe:
        d = '{}/ivf_cluster={}'.format(path.rstrip('/'), c)
        if os.path.isdir(d):
            files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                         if f.endswith('.parquet'))
    if not files:
        return pd.DataFrame({'query': [], id_column: [], 'sim': []})
    subset = ray.data.read_parquet(files,
                                   columns=[id_column, embedding_column])
    return topk_cosine(subset, id_column, embedding_column,
                       np.asarray(query, dtype=np.float64), k=k)
