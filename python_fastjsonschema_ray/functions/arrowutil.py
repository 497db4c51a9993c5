"""Small Arrow interop helpers shared across stages."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _has_map(dt: pa.DataType) -> bool:
    if pa.types.is_map(dt):
        return True
    if pa.types.is_struct(dt):
        return any(_has_map(f.type) for f in dt)
    if pa.types.is_list(dt) or pa.types.is_large_list(dt) \
            or pa.types.is_fixed_size_list(dt):
        return _has_map(dt.value_type)
    return False


def _mapify(value, dt: pa.DataType):
    if value is None:
        return None
    if pa.types.is_map(dt):
        return {k: _mapify(v, dt.item_type) for k, v in value}
    if pa.types.is_struct(dt):
        return {f.name: _mapify(value.get(f.name), f.type) for f in dt}
    if pa.types.is_list(dt) or pa.types.is_large_list(dt) \
            or pa.types.is_fixed_size_list(dt):
        return [_mapify(v, dt.value_type) for v in value]
    return value


def pylist_json(arr) -> list:
    """``to_pylist`` with JSON semantics: Arrow map values become dicts
    (this pyarrow's to_pylist yields lists of key/value tuples, which would
    break the reference's object semantics in the scalar fallback)."""
    values = arr.to_pylist()
    if _has_map(arr.type):
        values = [_mapify(v, arr.type) for v in values]
    return values


def drop_null_embeddings(batch: pa.Table, column: str) -> pa.Table:
    """Filter out rows whose embedding is null.  The embedding
    operators (ANN, k-means, PCA, LSH dedup) SKIP null embeddings —
    the SQL-aggregate convention; at web scale null payloads are
    routine and must not crash or misalign a kernel."""
    col = batch.column(column)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        batch = batch.filter(arr.is_valid())
    return batch


def embedding_matrix(column) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> / fixed-size-list /
    Ray-tensor-extension column."""
    arr = column.combine_chunks() if isinstance(column, pa.ChunkedArray) \
        else column
    t = arr.type
    if isinstance(t, pa.ExtensionType):
        # Ray's ArrowTensorArray and friends expose to_numpy via the
        # extension array; fall back through storage.
        try:
            return np.asarray(arr.to_numpy(zero_copy_only=False),
                              dtype=np.float64)
        except Exception:
            arr = arr.storage
            t = arr.type
    if pa.types.is_fixed_size_list(t):
        dim = t.list_size
        # .values returns the FULL child array; slice by offset so a
        # zero-copy sliced batch doesn't yield misaligned rows.
        child = arr.values[arr.offset * dim:(arr.offset + len(arr)) * dim]
        flat = np.asarray(child, dtype=np.float64)
        return flat.reshape(len(arr), dim)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        if arr.null_count:
            # flatten() drops null rows' values, silently MISALIGNING
            # every row after the first null — refuse loudly; callers
            # filter nulls first (drop_null_embeddings).
            raise ValueError(
                'embedding column contains null rows; filter them '
                'before building the matrix (drop_null_embeddings)')
        flat = np.asarray(arr.flatten(), dtype=np.float64)
        return flat.reshape(len(arr), -1)
    return np.stack([np.asarray(v, dtype=np.float64)
                     for v in arr.to_pylist()])


def count_matrix(column) -> np.ndarray:
    """(n, width) int64 matrix from a ``list<int64>`` column whose rows
    all hold ``width`` counts (per-block count vectors)."""
    arr = column.combine_chunks() if isinstance(column, pa.ChunkedArray) \
        else column
    return np.asarray(arr.flatten(), dtype=np.int64).reshape(len(arr), -1)
