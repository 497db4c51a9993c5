"""Hash exchange: the one place rows are bucketed and co-grouped.

Every engine-level key operator (uniqueness, dedup, grouped folds and
scans, top-k, joins, connected components) moves rows through one of
two calls, and every driver-side fold of per-block partials collects
them through a third:

* :func:`exchange` runs ``fn`` once per bucket group of one Dataset;
  rows with equal key tuples share a group.  With ``num_buckets=1``
  (and no keys) it is the one-task fold of a whole Dataset.
* :func:`cogroup` runs ``fn(l, r)`` once per bucket over two Datasets
  keyed on one column each; ``l`` and ``r`` hold the rows of each side
  that landed in the bucket.
* :func:`gather` runs a Dataset's plan once and returns its rows to the
  driver as one Arrow table; each caller merges the partials itself.

Buckets are COARSE (:func:`default_buckets`, a few per CPU): a group
holds many keys, so ``fn`` folds every key of its group in one
vectorized pass, usually by cutting the group into its runs of equal
keys with :func:`runs`.  :func:`default_buckets` is the one place the
package picks a bucket count; only :func:`exchange` and
``constraints.grouped_agg`` take ``num_buckets=`` (1 folds a handful of
groups in one task).  One hash decides the bucket everywhere: each
key column is hashed with :func:`key_hash` and mixed into a running
64-bit value, modulo the bucket count.  Equal numbers of any type hash
alike (int 2, float 2.0), so ``cogroup`` needs no schema on the driver:
it casts the right key to the left key's type in the reduce.

The bucket range ``[0, num_buckets)`` is known before any row moves, so
the shuffle is one range-partitioning sort on the bucket column at fixed
boundaries: no sample tasks, and P = ``default_buckets() // 8`` reduce
tasks whatever the input's block count (the map side runs one task per
input block, so the fan-out is blocks x P).  Each sorted block then runs
``fn`` once per run of equal buckets.  Memory posture: each reduce block
holds about 1/P of the exchanged rows, so callers pre-aggregate per
block where the fold allows it (at most one row per key per block).

Bodies speak Arrow only: ``fn`` takes an Arrow table and returns one,
so types travel with the group and nothing is converted per group.
Output blocks carry no schema metadata: pandas metadata (``b'pandas'``,
left by pandas-backed inputs) makes a schema unhashable in Ray's
block-schema dedup, which then logs a warning per block merge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import _splitmix64, hash64_array

_BUCKET = '_bucket'
_SIDE = '_side'          # True on left slices, False on right slices
_PROBE = '_probe'        # True on a per-range probe slice (no data rows)
_ROWS = '_rows'          # one side's rows of one bucket, as Arrow IPC
_SLICES = pa.schema([pa.field(_BUCKET, pa.int64()),
                     pa.field(_SIDE, pa.bool_()),
                     pa.field(_PROBE, pa.bool_()),
                     pa.field(_ROWS, pa.large_binary())])
_MIX = np.uint64(0x9E3779B97F4A7C15)


def default_buckets():
    """Bucket count of every exchange: four per cluster CPU, at least 32."""
    import ray
    return max(32, 4 * int(ray.cluster_resources().get('CPU', 8)))


def key_hash(col: pa.Array) -> np.ndarray:
    """``hash64_array(col)``, except that an integral float inside the
    int64 range hashes as that int64: equal numbers of either type
    share a hash (and a bucket) without being cast first."""
    h = hash64_array(col)
    if pa.types.is_floating(col.type):
        v = np.asarray(col.cast(pa.float64()).fill_null(np.nan),
                       dtype=np.float64)
        whole = (v == np.floor(v)) & (v >= -2.0 ** 63) & (v < 2.0 ** 63)
        h[whole] = _splitmix64(v[whole].astype(np.int64))
    return h


def _bucket_of(table: pa.Table, columns, num_buckets) -> np.ndarray:
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in columns:
        h ^= key_hash(table.column(c).combine_chunks())
        with np.errstate(over='ignore'):
            h *= _MIX
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _cuts(bucket: np.ndarray) -> list:
    """Offsets of the runs of equal values in the sorted ``bucket``."""
    return [0, *(np.flatnonzero(np.diff(bucket)) + 1), len(bucket)]


def nan_keys_to_null(table: pa.Table, keys) -> pa.Table:
    """``table`` with NaN in its float ``keys`` columns made null, so a
    NaN key and a null key group, hash and bucket as one key."""
    for c in keys:
        col = table.column(c)
        if pa.types.is_floating(col.type):
            table = table.set_column(
                table.schema.get_field_index(c), c,
                pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col))
    return table


def runs(group: pa.Table, keys, order=()):
    """``(sorted, bounds)``: ``group`` sorted by ``keys`` then ``order``,
    and the offsets of its runs of equal ``keys``: run ``i`` holds rows
    ``bounds[i]:bounds[i + 1]``.  ``order`` lists column names
    (ascending) or ``(name, 'descending')`` pairs; the sort is stable
    and puts nulls last.  Null keys form one run (SQL ``GROUP BY``,
    pandas ``dropna=False``); NaN float keys become nulls first, as
    they did through pandas."""
    if not group.num_rows:
        return group, np.zeros(1, dtype=np.int64)  # may be schemaless
    group = nan_keys_to_null(group, keys)
    sort_keys = [(c, 'ascending') for c in keys] + [
        o if isinstance(o, tuple) else (o, 'ascending') for o in order]
    if sort_keys:
        group = group.sort_by(sort_keys)
    n = group.num_rows
    change = np.zeros(n - 1, dtype=bool)
    for c in keys:
        col = group.column(c).combine_chunks()
        miss = col.is_null().to_numpy(zero_copy_only=False)
        ne = pc.fill_null(pc.not_equal(col.slice(1), col.slice(0, n - 1)),
                          False).to_numpy(zero_copy_only=False)
        change |= (miss[1:] != miss[:-1]) | ne
    return group, np.concatenate(
        [[0], np.flatnonzero(change) + 1, [n]]).astype(np.int64)


def positions(bounds) -> np.ndarray:
    """Each row's 0-based position inside its run (pandas
    ``groupby().cumcount()``), for the ``bounds`` of :func:`runs`."""
    starts = np.asarray(bounds[:-1])
    return np.arange(bounds[-1], dtype=np.int64) - np.repeat(
        starts, np.diff(bounds))


def _boundaries(num_buckets):
    """Sort boundaries that split ``[0, num_buckets)`` into at most
    ``default_buckets() // 8`` contiguous bucket ranges.  Never empty:
    given no boundaries, Ray's sort samples its own, one range per
    input block.  One range is ``[0]``: the empty range below it comes
    first, and Ray skips its schema check while the previous schema is
    empty (``[1]`` puts the empty range last, and Ray logs "Operator
    produced a RefBundle with a different schema")."""
    p = min(max(default_buckets() // 8, 1), num_buckets)
    return [num_buckets * i // p for i in range(1, p)] or [0]


def _reduce(tagged, per_block, name, num_buckets):
    """Range-partition ``tagged`` on its bucket column at the fixed
    boundaries and run ``per_block`` (a generator of Arrow tables) over
    each sorted, non-empty block."""
    def reduce(block: pa.Table):
        if block.num_rows:          # an empty partition holds no group
            for out in per_block(block):
                yield out.replace_schema_metadata(None)

    reduce.__name__ = name
    return tagged.sort(_BUCKET, boundaries=_boundaries(num_buckets)) \
        .map_batches(reduce, batch_format='pyarrow', batch_size=None)


def exchange(ds, keys, fn, *, num_buckets=None):
    """Run ``fn`` once per bucket group of ``ds``; rows with equal
    ``keys`` share a group.  ``fn`` takes the group as an Arrow table
    (never the bucket column) and returns an Arrow table.  The shuffle
    runs a fixed number of reduce tasks, each holding about 1/P of the
    rows (see the module notes); ``num_buckets=1`` folds every row in
    one call."""
    keys = list(keys)
    num_buckets = num_buckets or default_buckets()

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if not batch.num_rows and not set(keys) <= set(batch.column_names):
            return batch            # schemaless empty block passthrough
        return batch.append_column(
            _BUCKET, pa.array(_bucket_of(batch, keys, num_buckets)))

    def per_block(block: pa.Table):
        cuts = _cuts(block.column(_BUCKET).to_numpy())
        rows = block.drop_columns([_BUCKET])
        for start, end in zip(cuts[:-1], cuts[1:]):
            yield fn(rows.slice(start, end - start))

    tagged = ds.map_batches(add_bucket, batch_format='pyarrow')
    return _reduce(tagged, per_block, getattr(fn, '__name__', 'exchange'),
                   num_buckets)


def gather(ds) -> pa.Table:
    """The rows of ``ds`` on the driver as one Arrow table, from ONE
    execution of its plan (``to_arrow_refs()`` runs a second, limit-1
    execution for the schema).  Zero-row blocks are dropped; with no
    rows at all the result has zero rows and may have no columns, so
    the caller gives its own empty answer."""
    tables = [t for t in ds.iter_batches(batch_size=None,
                                         batch_format='pyarrow')
              if t.num_rows]
    return pa.concat_tables(tables, promote_options='permissive') \
        if tables else pa.table({})


def _family(t: pa.DataType):
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return 'number'
    return 'string' if pa.types.is_string(t) or pa.types.is_large_string(t) \
        else t


def checked_cast(col, key_type, right_key, left_key):
    """``col``, the values of ``right_key``, cast to ``key_type``, the
    type of ``left_key``, with Arrow's checked cast.  A value that does
    not survive the cast raises ``TypeError``: a silent truncation
    (2.5 -> 2, 2**40 -> int32) would fabricate matches.  So do types of
    different families (integers and floats; string and large_string;
    any other type only with itself), such as string '2' and int 2."""
    if col.type == key_type:
        return col
    try:
        if _family(col.type) != _family(key_type):
            raise pa.ArrowInvalid('the types are of different families')
        return col.cast(key_type)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as exc:
        raise TypeError(
            'right key {!r} ({}) cannot be cast losslessly to the type '
            'of left key {!r} ({}); cast the key columns explicitly '
            'before joining: {}'.format(right_key, col.type, left_key,
                                        key_type, exc)) from exc


def _ipc(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def _cast_witnesses(col: pa.ChunkedArray) -> pa.Array:
    """Positions of the rows of ``col`` that decide a checked cast of all
    of it: Arrow's numeric casts check the range and, from a float, a
    fraction or NaN, so the minimum, the maximum and the first
    non-integral value stand for every value."""
    at = []
    if _family(col.type) == 'number' and col.null_count < len(col):
        lo_hi = pc.min_max(col)
        at = [pc.index(col, lo_hi['min']), pc.index(col, lo_hi['max'])]
        if pa.types.is_floating(col.type):
            at.append(pc.index(pc.not_equal(col, pc.floor(col)), True))
    # -1: no such row (an all-NaN column has no minimum to find).
    return pa.array([i.as_py() for i in at if i.as_py() >= 0], pa.int64())


def _slicer(key, is_left, num_buckets):
    """Map side of :func:`cogroup`: one ``_SLICES`` row per bucket the
    block holds, its rows as one Arrow IPC stream, plus one probe row per
    reduce range holding the block's :func:`_cast_witnesses`."""
    starts = sorted({0, *_boundaries(num_buckets)})

    def slices(block: pa.Table) -> pa.Table:
        block = block.replace_schema_metadata(None)
        if key not in block.column_names:
            return _SLICES.empty_table()    # schemaless empty block
        bucket = _bucket_of(block, [key], num_buckets)
        order = np.argsort(bucket, kind='stable')
        bucket, block = bucket[order], block.take(order)
        cuts = _cuts(bucket)
        n = len(cuts) - 1
        probe = _ipc(block.take(_cast_witnesses(block.column(key))))
        return pa.table([
            pa.array([*bucket[cuts[:-1]], *starts], pa.int64()),
            pa.array(np.full(n + len(starts), is_left)),
            pa.array(np.arange(n + len(starts)) >= n),
            pa.array([_ipc(block.slice(s, e - s))
                      for s, e in zip(cuts[:-1], cuts[1:])]
                     + [probe] * len(starts), pa.large_binary())],
            schema=_SLICES)

    slices.__name__ = 'cogroup_slices'
    return slices


def _empty_side_schema(ds) -> pa.Schema:
    """The schema of ``ds`` if it is a materialized dataset without
    rows, else no columns.  Ray hands a zero-row block to no map task,
    so such a side's types cannot travel in a slice; its blocks exist,
    so the read runs no upstream plan.  A lazy side is never asked."""
    from ray.data.dataset import MaterializedDataset

    schema = ds.schema() if isinstance(ds, MaterializedDataset) \
        and not ds.count() else None
    if schema is None or not all(isinstance(t, pa.DataType)
                                 for t in schema.types):
        return pa.schema([])
    return pa.schema(list(zip(schema.names, schema.types)))


def cogroup(left, right, left_key, right_key, fn):
    """Run ``fn(l, r)`` once per bucket that holds a row of either side:
    ``l`` holds ``left``'s rows and columns whose key ``left[left_key]``
    hashes to the bucket, ``r`` likewise for ``right[right_key]``, with
    that key cast to the left key's type by :func:`checked_cast`.  A
    lossy value or a type of another family raises ``TypeError`` before
    any ``fn`` runs.  A side without rows in the bucket is its empty
    table; a side with no typed block at all is a zero-column table,
    and ``fn`` must be total on it.

    No plan runs on the driver: each side travels as typed Arrow IPC
    slices, one per (block, bucket), and the sides need no common
    schema.  Each map task also sends every reduce range a probe slice:
    its side's types and the few rows that decide the key cast.  A
    materialized side without rows, which no map task sees, takes its
    types from its blocks (:func:`_empty_side_schema`)."""
    num_buckets = default_buckets()
    held = [_empty_side_schema(left), _empty_side_schema(right)]
    tagged = left.map_batches(
        _slicer(left_key, True, num_buckets), batch_format='pyarrow',
        batch_size=None).union(right.map_batches(
            _slicer(right_key, False, num_buckets), batch_format='pyarrow',
            batch_size=None))

    def per_block(block: pa.Table):
        is_left = block.column(_SIDE).to_numpy(zero_copy_only=False)
        probe = block.column(_PROBE).to_numpy(zero_copy_only=False)
        tables = [pa.ipc.open_stream(v.as_buffer()).read_all()
                  for v in block.column(_ROWS)]

        def side(parts, schema):
            return pa.concat_tables([schema.empty_table(), *parts],
                                    promote_options='permissive')

        lschema, rschema = (pa.unify_schemas(
            [t.schema for t, s in zip(tables, is_left) if s == want],
            promote_options='permissive') if (is_left == want).any()
            else schema for want, schema in zip((True, False), held))

        def cast_key(r: pa.Table) -> pa.Table:
            if left_key not in lschema.names or \
                    right_key not in r.column_names:
                return r
            return r.set_column(
                r.schema.get_field_index(right_key), right_key,
                checked_cast(r.column(right_key),
                             lschema.field(left_key).type, right_key,
                             left_key))

        cast_key(side([t for t, p, s in zip(tables, probe, is_left)
                       if p and not s], rschema))
        data = np.flatnonzero(~probe)
        cuts = _cuts(block.column(_BUCKET).to_numpy()[data])
        for start, end in zip(cuts[:-1], cuts[1:]) if len(data) else ():
            parts = data[start:end]
            yield fn(side([tables[i] for i in parts if is_left[i]], lschema),
                     cast_key(side([tables[i] for i in parts
                                    if not is_left[i]], rschema)))

    return _reduce(tagged, per_block, getattr(fn, '__name__', 'cogroup'),
                   num_buckets)
