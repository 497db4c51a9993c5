"""Hash exchange: the one place rows are bucketed and co-grouped.

Every engine-level key operator (uniqueness, dedup, grouped folds and
scans, top-k, joins, connected components) moves rows through one of
two calls:

* :func:`exchange` runs ``fn`` once per bucket group of one Dataset;
  rows with equal key tuples share a group.  With ``num_buckets=1``
  (and no keys) it is the one-task fold of a whole Dataset.
* :func:`cogroup` runs ``fn(l, r)`` once per bucket over two Datasets
  keyed on one column each; ``l`` and ``r`` hold the rows of each side
  that landed in the bucket.

Buckets are COARSE (:func:`default_buckets`, a few per CPU): a group
holds many keys, so ``fn`` folds every key of its group in one
vectorized pass, usually by cutting the group into its runs of equal
keys with :func:`runs`.  One hash decides the bucket everywhere: each
key column is hashed with ``hash64_array`` and mixed into a running
64-bit value, modulo the bucket count.  Equal keys of different types
hash differently (int 2 vs float 2.0), so ``cogroup`` casts the right
key to the left key's type first, with Arrow's checked cast.

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

from ..state.sketches import hash64_array

_BUCKET = '_bucket'
_SIDE = '_side'          # True on left rows, False on right rows
_MIX = np.uint64(0x9E3779B97F4A7C15)


def default_buckets():
    """Bucket count of every exchange: four per cluster CPU, at least 32."""
    import ray
    return max(32, 4 * int(ray.cluster_resources().get('CPU', 8)))


def _bucket_of(table: pa.Table, columns, num_buckets) -> pa.Array:
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in columns:
        h ^= hash64_array(table.column(c).combine_chunks())
        with np.errstate(over='ignore'):
            h *= _MIX
    return pa.array((h % np.uint64(num_buckets)).astype(np.int64))


def _arrow(table: pa.Table) -> pa.Table:
    return table.replace_schema_metadata(None)


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


def _reduce(tagged, body, name, num_buckets):
    """Range-partition ``tagged`` on its bucket column and run ``body``
    once per run of equal buckets in each sorted block (Arrow, bucket
    column dropped)."""
    def per_block(block: pa.Table):
        if not block.num_rows:
            return                  # empty partition: no group
        bucket = block.column(_BUCKET).to_numpy()
        cuts = [0, *(np.flatnonzero(np.diff(bucket)) + 1), len(bucket)]
        rows = block.drop_columns([_BUCKET])
        for start, end in zip(cuts[:-1], cuts[1:]):
            yield _arrow(body(rows.slice(start, end - start)))

    per_block.__name__ = name
    return tagged.sort(_BUCKET, boundaries=_boundaries(num_buckets)) \
        .map_batches(per_block, batch_format='pyarrow', batch_size=None)


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
            _BUCKET, _bucket_of(batch, keys, num_buckets))

    tagged = ds.map_batches(add_bucket, batch_format='pyarrow')
    return _reduce(tagged, fn, getattr(fn, '__name__', 'exchange'),
                   num_buckets)


def _arrow_schema(ds):
    """(ds, its Arrow schema); pandas-block datasets report some types
    as None or as a Python type (``object`` for a string column), so
    those route through an Arrow conversion first."""
    schema = ds.schema()
    if schema is None:
        raise ValueError('cogroup needs a schema on both sides; '
                         'short-circuit fully-empty inputs first')
    if not all(isinstance(t, pa.DataType) for t in schema.types):
        ds = ds.map_batches(_arrow, batch_format='pyarrow')
        schema = ds.schema()
    return ds, pa.schema(list(zip(schema.names, schema.types)))


def checked_cast(col, key_type, right_key, left_key):
    """``col``, the values of ``right_key``, cast to ``key_type``, the
    type of ``left_key``, with Arrow's checked cast.  A value that does
    not survive the cast raises ``TypeError``: a silent truncation
    (2.5 -> 2, 2**40 -> int32) would fabricate matches."""
    if col.type == key_type:
        return col
    try:
        return col.cast(key_type)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as exc:
        raise TypeError(
            'right key {!r} ({}) cannot be cast losslessly to the type '
            'of left key {!r} ({}); cast the key columns explicitly '
            'before joining: {}'.format(right_key, col.type, left_key,
                                        key_type, exc)) from exc


def cogroup(left, right, left_key, right_key, fn, *, right_columns=None,
            num_buckets=None):
    """Run ``fn(l, r)`` once per bucket: ``l`` holds exactly ``left``'s
    columns, ``r`` holds ``right_key`` then ``right_columns`` (default:
    exactly ``right``'s columns), for the rows whose key
    (``left[left_key]`` / ``right[right_key]``) hashes to the bucket.
    Either may be empty; both are Arrow tables typed like their side.

    Both sides travel in one union exchange: each row carries a side
    tag and typed nulls for the other side's columns.  The right key is
    cast to the left key's type before hashing (equal keys of different
    types would land in different buckets); a value that does not
    survive Arrow's checked cast raises ``TypeError``.  With
    ``right_columns=[]`` the right side is its key alone, typed like the
    left key, so ``right`` is never probed for a schema: it may be lazy,
    empty or schemaless."""
    num_buckets = num_buckets or default_buckets()
    left, lschema = _arrow_schema(left)
    key_type = lschema.field(left_key).type
    if right_columns == []:
        rschema = pa.schema([pa.field(right_key, key_type)])
    else:
        right, rschema = _arrow_schema(right)
        if right_columns is not None:
            rschema = pa.schema([rschema.field(c)
                                 for c in [right_key] + right_columns])
        rschema = rschema.set(rschema.get_field_index(right_key),
                              pa.field(right_key, key_type))
    lnames = ['l.' + c for c in lschema.names]
    rnames = ['r.' + c for c in rschema.names]
    union = pa.schema(
        [pa.field(_BUCKET, pa.int64()), pa.field(_SIDE, pa.bool_())]
        + [f.with_name(n) for f, n in zip(lschema, lnames)]
        + [f.with_name(n) for f, n in zip(rschema, rnames)])

    def align(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index(right_key), right_key,
            checked_cast(batch.column(right_key), key_type, right_key,
                         left_key))

    def tagger(own, key, is_left):
        def tag(batch: pa.Table) -> pa.Table:
            if not batch.num_rows and key not in batch.column_names:
                return union.empty_table()  # schemaless empty block
            if not is_left:
                batch = align(batch)
            batch = batch.select(own.names).cast(own)
            n = batch.num_rows
            side = pa.array(np.full(n, is_left))
            pads = [pa.nulls(n, type=f.type)
                    for f in (rschema if is_left else lschema)]
            cols = batch.columns
            arrays = ([_bucket_of(batch, [key], num_buckets), side]
                      + (cols + pads if is_left else pads + cols))
            return pa.Table.from_arrays(arrays, schema=union)
        return tag

    tagged = left.map_batches(tagger(lschema, left_key, True),
                              batch_format='pyarrow').union(
        right.map_batches(tagger(rschema, right_key, False),
                          batch_format='pyarrow'))

    def body(group: pa.Table):
        is_l = group.column(_SIDE)
        l = group.filter(is_l).select(lnames).rename_columns(lschema.names)
        r = group.filter(pc.invert(is_l)).select(rnames) \
            .rename_columns(rschema.names)
        return fn(l, r)

    return _reduce(tagged, body, getattr(fn, '__name__', 'cogroup'),
                   num_buckets)
