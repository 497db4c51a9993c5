"""Distributed PCA over an embedding column.

The estimation pass is moment accumulation — exactly the k-means
partial shape: each block emits (n, sum x, sum x x^T) once, the driver
folds a dim x dim matrix per block and eigendecomposes the covariance
locally (dim is small — 64-1024 for embeddings — so the driver-side
`eigh` is O(dim^3), trivial).  NO shuffle, ONE streaming pass over the
data regardless of row count; the transform is one matmul per batch
against the broadcast component matrix.

Sign convention: each component is flipped so its largest-magnitude
coordinate is positive (deterministic across FP fold orders up to
near-tie coordinates), matching scikit-learn's ``svd_flip`` idea.

Not SQL-expressible (eigendecomposition), so driver evidence is
rows-only; tests pin exact parity against a local numpy PCA on the
same rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrowutil import embedding_matrix
from .cluster import _drop_nulls, _matrix
from .exchange import gather


def _flip_signs(components: np.ndarray) -> np.ndarray:
    idx = np.abs(components).argmax(axis=1)
    signs = np.sign(components[np.arange(len(components)), idx])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def pca_fit(ds, embedding_column, n_components):
    """Returns ``(components, info)``: ``components`` is the
    (n_components x dim) row-eigenvector matrix (descending variance);
    ``info`` has ``mean``, ``explained_variance`` (eigenvalues, ddof=1)
    and ``explained_variance_ratio``."""
    def partial(batch: pa.Table) -> pa.Table:
        batch = _drop_nulls(batch, embedding_column)
        if batch.num_rows == 0:     # all-null batch: no partial row
            return pa.table({
                'n': pa.array([], pa.int64()),
                'sum': pa.array([], pa.list_(pa.float64())),
                'outer': pa.array([], pa.list_(pa.float64())),
            })
        mat = _matrix(batch, embedding_column)
        return pa.table({
            'n': pa.array([len(mat)], pa.int64()),
            'sum': pa.array([mat.sum(axis=0).tolist()]),
            'outer': pa.array([(mat.T @ mat).ravel().tolist()]),
        })

    t = gather(ds.select_columns([embedding_column]).map_batches(
        partial, batch_format='pyarrow'))
    n, s, outer = 0, None, None
    if t.num_rows:
        n = pc.sum(t.column('n')).as_py()
        # The float sums add block by block, in gather order.
        for ps, po in zip(embedding_matrix(t.column('sum')),
                          embedding_matrix(t.column('outer'))):
            s = ps if s is None else s + ps
            outer = po if outer is None else outer + po
    if n < 2:
        raise ValueError('PCA needs at least 2 rows, got {}'.format(n))
    dim = len(s)
    mean = s / n
    # E[xx^T]*n - n*mean mean^T, ddof=1 (sample covariance).
    cov = (outer.reshape(dim, dim) - n * np.outer(mean, mean)) / (n - 1)
    eigval, eigvec = np.linalg.eigh(cov)        # ascending
    order = np.argsort(eigval)[::-1][:n_components]
    components = _flip_signs(eigvec[:, order].T)
    ev = np.maximum(eigval[order], 0.0)
    total = max(float(np.maximum(eigval, 0.0).sum()), 1e-300)
    return components, {
        'mean': mean,
        'explained_variance': ev,
        'explained_variance_ratio': ev / total,
        'n_rows': n,
    }


def pca_transform(ds, embedding_column, components, mean, *,
                  out_column='pca'):
    """Project every row onto the components (one matmul per batch;
    the component matrix broadcasts once via the object store)."""
    import ray
    ref = ray.put((np.asarray(components, dtype=np.float64),
                   np.asarray(mean, dtype=np.float64)))

    def project(batch: pa.Table) -> pa.Table:
        comp, mu = ray.get(ref)
        batch = _drop_nulls(batch, embedding_column)
        if batch.num_rows == 0:
            return batch.append_column(out_column, pa.array(
                [], type=pa.list_(pa.float64(), comp.shape[0])))
        mat = _matrix(batch, embedding_column)
        proj = (mat - mu) @ comp.T
        return batch.append_column(out_column, pa.array(
            list(proj), type=pa.list_(pa.float64(), comp.shape[0])))

    return ds.map_batches(project, batch_format='pyarrow')
