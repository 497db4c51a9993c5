"""Distributed k-means (Lloyd) over an embedding column.

`ann.py` trains IVF routing centroids on a driver-side SAMPLE; this is
the full-data estimator a training corpus needs (corpus bucketing,
diversity sampling, semantic sharding): k-means++ seeding on a
deterministic sample, then exact Lloyd iterations over the ENTIRE
dataset as streaming passes.

Scale shape (the reason this is Ray-Data-first and not a shuffle):

* each iteration is ONE `map_batches` pass — a batch assigns all its
  rows with a single (batch x k) matmul and emits one tiny partial row
  (per-cluster count vector, per-cluster sum matrix, inertia scalar);
  NO row ever leaves its block, there is no groupby/sort at all;
* the driver folds the k x dim partials (a few KB per block) and
  re-broadcasts the k x dim centroid matrix via ``ray.put`` — the only
  data that moves is O(k * dim * num_blocks) per iteration;
* cost is therefore `iters` column-pruned scans; at 100 TB pick
  ``iters`` small (k-means++ seeding converges in a handful) or train
  on a large `random_sample` and run one full assignment pass.

Iteration count is data-dependent (early stop on centroid shift), so
there is no SQL oracle; tests pin the math against a local numpy Lloyd
reference with identical seeding (exact same update rule), planted
Gaussian blobs, and empty-cluster/determinism cases.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.arrowutil import count_matrix, embedding_matrix
from .exchange import gather


def _matrix(batch: pa.Table, column: str) -> np.ndarray:
    arr = batch.column(column)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        # flatten() drops null rows' values, silently misaligning every
        # row after the first null — callers drop nulls first.
        raise ValueError(
            'embedding column contains null rows; filter them first')
    return np.asarray(arr.flatten(), dtype=np.float64).reshape(
        len(arr), -1)


def _drop_nulls(batch: pa.Table, column: str) -> pa.Table:
    from ..functions.arrowutil import drop_null_embeddings
    return drop_null_embeddings(batch, column)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _assign(mat: np.ndarray, centroids: np.ndarray):
    """Nearest centroid by squared L2 plus the per-row distances.
    argmin ||x-c||^2 == argmax (x.c - ||c||^2 / 2); one BLAS matmul."""
    half_c2 = 0.5 * (centroids * centroids).sum(axis=1)
    score = mat @ centroids.T - half_c2
    assign = np.argmax(score, axis=1)
    # ||x-c||^2 = ||x||^2 - 2*(x.c - ||c||^2/2) = ||x||^2 - 2*score
    d2 = (mat * mat).sum(axis=1) - 2.0 * score[np.arange(len(mat)), assign]
    return assign, np.maximum(d2, 0.0)


def _kmeans_pp_init(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding on the driver-side sample."""
    rng = np.random.default_rng(seed)
    n = len(sample)
    first = int(rng.integers(n))
    centroids = [sample[first]]
    d2 = ((sample - sample[first]) ** 2).sum(axis=1)
    for _ in range(1, min(k, n)):
        total = float(d2.sum())
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids.append(sample[idx])
        d2 = np.minimum(d2, ((sample - sample[idx]) ** 2).sum(axis=1))
    return np.stack(centroids)


def _fold_partials(ds_out, k: int, dim: int):
    """(counts, sums, inertia) over the per-block partials, the float
    sums added block by block in gather order."""
    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, dim), dtype=np.float64)
    inertia = 0.0
    t = gather(ds_out)
    if not t.num_rows:
        return counts, sums, inertia
    counts += count_matrix(t.column('count')).sum(axis=0)
    for block_sums, block_inertia in zip(embedding_matrix(t.column('sums')),
                                         t.column('inertia').to_pylist()):
        sums += block_sums.reshape(k, dim)
        inertia += block_inertia
    return counts, sums, inertia


def kmeans_fit(ds, embedding_column, k, *, iters=10, tol=1e-4, seed=11,
               init_sample_rows=10_000, init_centroids=None,
               normalize=False):
    """Lloyd k-means; returns ``(centroids, info)`` where ``info`` has
    ``iterations``, ``inertia`` (last completed pass), and ``shifts``
    (max centroid movement per iteration).

    ``normalize=True`` runs spherical k-means: rows and centroids are
    unit-normalized so nearest-by-L2 equals nearest-by-cosine.  Pass
    ``init_centroids`` to skip seeding (tests use this for exact parity
    with a local reference)."""
    narrow = ds.select_columns([embedding_column])

    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64).copy()
        k = len(centroids)
    else:
        n_rows = narrow.count()
        if n_rows == 0:
            raise ValueError(
                'k-means needs at least one row to fit, got an empty '
                'dataset')
        frac = min(1.0, init_sample_rows / n_rows)
        sample = narrow.random_sample(frac, seed=seed).to_pandas()
        if sample.empty:        # tiny dataset + sampling underflow
            sample = narrow.limit(min(n_rows, init_sample_rows)) \
                .to_pandas()
        sample = sample.dropna(subset=[embedding_column])
        if sample.empty:
            raise ValueError(
                'k-means needs at least one row to fit, got only null '
                'embeddings')
        mat = np.stack(sample[embedding_column].to_numpy()) \
            .astype(np.float64)
        # Block emission order is not deterministic under load; sort the
        # init sample lexicographically so seeding (and therefore the
        # fitted centroids) is stable across runs and cluster layouts.
        mat = mat[np.lexsort(mat.T[::-1])]
        if normalize:
            mat = _normalize_rows(mat)
        centroids = _kmeans_pp_init(mat, k, seed)
        k = len(centroids)
    if normalize:
        centroids = _normalize_rows(centroids)
    dim = centroids.shape[1]

    import ray
    shifts, inertia = [], float('nan')
    for _ in range(iters):
        ref = ray.put(centroids)

        def partial(batch: pa.Table, ref=ref) -> pa.Table:
            batch = _drop_nulls(batch, embedding_column)
            if batch.num_rows == 0:
                return pa.table({
                    'count': pa.array([[0] * k]),
                    'sums': pa.array([[0.0] * (k * dim)]),
                    'inertia': pa.array([0.0]),
                })
            cents = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            mat = _matrix(batch, embedding_column)
            if normalize:
                mat = _normalize_rows(mat)
            assign, d2 = _assign(mat, cents)
            counts = np.bincount(assign, minlength=k)
            sums = np.empty((k, dim), dtype=np.float64)
            for d in range(dim):        # dim fast bincounts, no add.at
                sums[:, d] = np.bincount(assign, weights=mat[:, d],
                                         minlength=k)
            return pa.table({
                'count': pa.array([counts.tolist()]),
                'sums': pa.array([sums.ravel().tolist()]),
                'inertia': pa.array([float(d2.sum())]),
            })

        counts, sums, inertia = _fold_partials(
            narrow.map_batches(partial, batch_format='pyarrow'), k, dim)
        new = centroids.copy()          # empty clusters keep their seat
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz, None]
        if normalize:
            new = _normalize_rows(new)
        shift = float(np.linalg.norm(new - centroids, axis=1).max())
        shifts.append(shift)
        centroids = new
        if shift <= tol:
            break
    return centroids, {'iterations': len(shifts), 'inertia': inertia,
                       'shifts': shifts}


def kmeans_assign(ds, embedding_column, centroids, *,
                  out_column='cluster', normalize=False):
    """Tag every row with its nearest centroid (one matmul per batch;
    centroids broadcast once via the object store)."""
    import ray
    cents = np.asarray(centroids, dtype=np.float64)
    if normalize:
        cents = _normalize_rows(cents)
    ref = ray.put(cents)

    def tag(batch: pa.Table) -> pa.Table:
        batch = _drop_nulls(batch, embedding_column)
        if batch.num_rows == 0:
            return batch.append_column(out_column,
                                       pa.array([], type=pa.int64()))
        c = ray.get(ref)
        mat = _matrix(batch, embedding_column)
        if normalize:
            mat = _normalize_rows(mat)
        assign, _ = _assign(mat, c)
        return batch.append_column(out_column,
                                   pa.array(assign, type=pa.int64()))

    return ds.map_batches(tag, batch_format='pyarrow')


def cluster_sizes(tagged_ds, k, *, cluster_column='cluster'):
    """Per-cluster row counts as a k-long vector — one bincount partial
    per block, driver folds k ints per block (no shuffle)."""
    def partial(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column(cluster_column), dtype=np.int64)
        return pa.table({'count': pa.array([np.bincount(
            a, minlength=k).tolist()])})

    t = gather(tagged_ds.select_columns([cluster_column]).map_batches(
        partial, batch_format='pyarrow'))
    if not t.num_rows:
        return np.zeros(k, dtype=np.int64)
    return count_matrix(t.column('count')).sum(axis=0)


def cluster_balanced_sample(ds, id_column, embedding_column, k, n_per_cluster,
                            *, iters=10, seed=11, salt=0):
    """Semantic diversity sampling (the SemDeDup/cluster-balanced
    selection shape; Abbas et al., arXiv:2303.09540): k-means the
    embedding corpus, then keep exactly ``n_per_cluster`` documents per
    cluster chosen deterministically by hash order of the id — a
    sample that covers every semantic region instead of oversampling
    the dense ones.

    Composition of existing operators, so the scale shape is
    inherited: ``kmeans_fit`` is shuffle-free streaming passes with
    broadcast centroids, ``kmeans_assign`` one more, and the per-cluster
    cut is ``stratified_sample_exact`` (at most n rows per cluster per
    block shuffle).  Returns ``(id, cluster)`` rows."""
    from .sample import stratified_sample_exact

    schema = ds.schema()
    if schema is not None:
        # Null embeddings are skipped corpus-wide (the embedding-
        # operator convention).
        ds = ds.map_batches(lambda b: _drop_nulls(b, embedding_column),
                            batch_format='pyarrow')
    try:
        cents, _ = kmeans_fit(ds, embedding_column, k, iters=iters,
                              seed=seed)
    except ValueError:
        # Empty / all-null corpus (kmeans_fit's clean zero-row error):
        # an empty (id, cluster) sample, not a failure.
        import ray.data
        id_type = pa.string()
        if schema is not None and id_column in schema.names:
            t = schema.types[schema.names.index(id_column)]
            if isinstance(t, pa.DataType):
                id_type = t
        return ray.data.from_arrow(pa.table({
            id_column: pa.array([], type=id_type),
            'cluster': pa.array([], type=pa.int64())}))
    tagged = kmeans_assign(ds.select_columns([id_column, embedding_column]),
                           embedding_column, cents)
    picked = stratified_sample_exact(
        tagged.select_columns([id_column, 'cluster']),
        ['cluster'], id_column, n_per_cluster, salt=salt)
    return picked
