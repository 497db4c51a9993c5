"""Engine-level table constraints (no reference counterpart — specified by
the north rule): per-column stats with mergeable sketches, uniqueness,
referential integrity, and distribution-drift checks.

Scale notes (designed for 100 TB / multi-node, tested single-node):

* **Stats** are partial-per-block: each batch folds into count/null/min/max/
  sum + HLL + t-digest locally and emits ONE tiny partial row per (batch,
  column); the driver merges the handful of partials.  No shuffle at all.
* **Uniqueness** pre-aggregates (key → local count) inside each batch before
  the ``groupby`` so the all-to-all exchange moves at most one row per
  distinct key per block, not one per input row.  The hash partitioning key
  is the checked key itself — uniform for id-like keys; salt upstream if a
  hot key is expected.
* **Referential** broadcasts the reference key set via ``ray.put`` once and
  anti-filters inside ``map_batches`` — no shuffle join for dimension-sized
  reference sides (the common case).  For a large reference side, use
  ``check_referential_large`` (hash-bucketed anti join).
* **Drift** uses fixed, driver-chosen bin edges so per-batch histograms are
  mergeable by vector addition; KS and PSI are computed on the merged
  profiles.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import HyperLogLog, TDigest, hash64_array


# ---------------------------------------------------------------------------
# Column statistics (count / null / min / max / sum / HLL distinct / t-digest)


class ColumnStatsStage:
    """map_batches stage: one partial-stats row per column per batch."""

    def __init__(self, columns, hll_p=14, tdigest_compression=200):
        self.columns = columns
        self.hll_p = hll_p
        self.compression = tdigest_compression

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {k: [] for k in
                ('column', 'count', 'nulls', 'minmax', 'sum', 'hll',
                 'tdigest')}
        for col in self.columns:
            arr = batch.column(col).combine_chunks()
            n = len(arr)
            nulls = arr.null_count
            rows['column'].append(col)
            rows['count'].append(n)
            rows['nulls'].append(nulls)
            is_num = (pa.types.is_integer(arr.type)
                      or pa.types.is_floating(arr.type))
            if n > nulls:
                # Typed (min, max): the driver merges values, not strings.
                rows['minmax'].append(pickle.dumps(
                    (pc.min(arr).as_py(), pc.max(arr).as_py())))
                rows['sum'].append(
                    float(pc.sum(arr).as_py()) if is_num else None)
            else:
                rows['minmax'].append(None)
                rows['sum'].append(None)
            hll = HyperLogLog(self.hll_p)
            if n > nulls:
                hashes = hash64_array(arr)
                if nulls:
                    hashes = hashes[np.asarray(arr.is_valid())]
                hll.add_hashes(hashes)
            rows['hll'].append(hll.serialize())
            td = TDigest(self.compression)
            if is_num and n > nulls:
                vals = np.asarray(
                    pc.cast(arr, pa.float64(), safe=False).fill_null(np.nan))
                td.add(vals)
            rows['tdigest'].append(td.serialize())
        return pa.table({
            'column': pa.array(rows['column'], type=pa.string()),
            'count': pa.array(rows['count'], type=pa.int64()),
            'nulls': pa.array(rows['nulls'], type=pa.int64()),
            'minmax': pa.array(rows['minmax'], type=pa.binary()),
            'sum': pa.array(rows['sum'], type=pa.float64()),
            'hll': pa.array(rows['hll'], type=pa.binary()),
            'tdigest': pa.array(rows['tdigest'], type=pa.binary()),
        })


def column_stats(ds, columns, quantiles=(0.5, 0.9, 0.99), concurrency=None,
                 batch_size=65536):
    """Streaming per-column statistics: returns {column: stats dict}.

    Partials stream back to the driver (tiny rows), merged incrementally —
    the input dataset is never materialized."""
    stage_ds = ds.map_batches(
        ColumnStatsStage(columns), batch_format='pyarrow',
        batch_size=batch_size,
        **({'concurrency': concurrency} if concurrency else {}))
    # Seed every requested column so an empty input still yields a
    # complete stats dict (count 0, min/max None) instead of a KeyError.
    merged = {c: {
        'count': 0, 'nulls': 0, 'min': None, 'max': None,
        'sum': 0.0, 'has_sum': False,
        'hll': HyperLogLog(), 'tdigest': TDigest(),
    } for c in columns}
    for part in stage_ds.iter_batches(batch_size=1024,
                                      batch_format='pyarrow'):
        for row in part.to_pylist():
            col = row['column']
            if col not in merged:
                merged[col] = {
                    'count': 0, 'nulls': 0, 'min': None, 'max': None,
                    'sum': 0.0, 'has_sum': False,
                    'hll': HyperLogLog(), 'tdigest': TDigest(),
                }
            m = merged[col]
            m['count'] += row['count']
            m['nulls'] += row['nulls']
            if row['minmax'] is not None:
                mn, mx = pickle.loads(row['minmax'])
                m['min'] = mn if m['min'] is None else min(m['min'], mn)
                m['max'] = mx if m['max'] is None else max(m['max'], mx)
            if row['sum'] is not None:
                m['sum'] += row['sum']
                m['has_sum'] = True
            m['hll'].merge(HyperLogLog.deserialize(row['hll']))
            m['tdigest'].merge(TDigest.deserialize(row['tdigest']))
    out = {}
    for col, m in merged.items():
        stats = {
            'count': m['count'],
            'nulls': m['nulls'],
            'min': None if m['min'] is None else str(m['min']),
            'max': None if m['max'] is None else str(m['max']),
            'approx_distinct': round(m['hll'].estimate()),
        }
        if m['has_sum']:
            stats['sum'] = m['sum']
            denom = m['count'] - m['nulls']
            stats['mean'] = m['sum'] / denom if denom else None
            for q in quantiles:
                stats['p{:g}'.format(q * 100)] = m['tdigest'].quantile(q)
        out[col] = stats
    return out


# ---------------------------------------------------------------------------
# Uniqueness


class _KeyCountStage:
    """Pre-aggregate (key → count) inside each batch before the shuffle."""

    def __init__(self, columns):
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        sub = batch.select(self.columns)
        # Null keys break Ray's sort-based groupby partitioning and are the
        # schema checks' business anyway: uniqueness applies to non-null keys.
        mask = None
        for c in self.columns:
            valid = sub.column(c).is_valid()
            mask = valid if mask is None else pc.and_(mask, valid)
        if mask is not None:
            sub = sub.filter(mask)
        grouped = sub.group_by(self.columns).aggregate(
            [([], 'count_all')])
        return grouped.rename_columns(list(self.columns) + ['partial_n'])


class _AddKeyBucket:
    """Coarse hash bucket over the key columns: the shuffle key for
    bucketed aggregation (few buckets → few groups → vectorized pandas
    inside each group, instead of Ray's sort aggregate paying per-group
    overhead on millions of distinct keys)."""

    def __init__(self, columns, num_buckets):
        self.columns = columns
        self.num_buckets = np.uint64(num_buckets)

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = np.zeros(batch.num_rows, dtype=np.uint64)
        for c in self.columns:
            h ^= hash64_array(batch.column(c).combine_chunks())
            with np.errstate(over='ignore'):
                h *= np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            '_bucket', pa.array((h % self.num_buckets).astype(np.int64)))


def _default_buckets():
    import ray
    return max(32, 4 * int(ray.cluster_resources().get('CPU', 8)))


def check_unique(ds, columns, concurrency=None, num_buckets=None,
                 coalesce=True):
    """Duplicate-key detection.

    Two-level structure chosen for scale: (1) per-batch pre-aggregation
    collapses each block to (key → local count); (2) partials shuffle on a
    COARSE hash bucket of the key and each bucket group sums counts with an
    Arrow ``group_by``.  The bucket keeps the Ray-level group count
    ~O(cluster), avoiding the sort-aggregate's per-distinct-key overhead
    while the exchange still moves at most one row per distinct key per
    block.  ``coalesce`` repartitions the partials to ~cpus/2 blocks
    first (sort cost scales with task count); disable at 10^9+ distinct
    keys.  Returns duplicate keys with counts (columns..., n)."""
    columns = list(columns)
    kwargs = {'batch_format': 'pyarrow'}
    if concurrency:
        kwargs['concurrency'] = concurrency
    partials = ds.map_batches(_KeyCountStage(columns), **kwargs)
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def dups(group: pa.Table) -> pa.Table:
        # Arrow in/out with an explicit output schema: key types survive
        # as they are and empty results stay typed.
        if any(c not in group.schema.names for c in columns):
            return group            # schemaless empty block passthrough
        out_schema = pa.schema(
            [group.schema.field(c) for c in columns]
            + [pa.field('n', pa.int64())])
        totals = group.group_by(columns).aggregate([('partial_n', 'sum')])
        totals = totals.filter(pc.greater(totals['partial_n_sum'], 1))
        return totals.select(columns + ['partial_n_sum']) \
            .rename_columns(columns + ['n']).cast(out_schema)

    return bucketed.groupby('_bucket').map_groups(dups,
                                                  batch_format='pyarrow')


def dedup_exact(ds, columns, concurrency=None, num_buckets=None,
                coalesce=True):
    """Exact first-wins dedup: keep one row per distinct key, winner =
    lowest full-row sort order within the group (deterministic).

    Pre-aggregated like dedup_winner_ids — min-over-row-order is
    associative, so each block first collapses to ≤1 row per local
    distinct key (vectorized pandas sort+head), and only those local
    winners shuffle, on a COARSE hash bucket of the key; each bucket then
    folds with the same vectorized kernel.  The exchange moves at most
    one full row per distinct key per block — never the raw input — and
    the Ray-level group count stays ~O(cluster) instead of
    O(distinct keys) (sort-aggregate costs ~0.5 ms per group)."""
    import pandas as pd

    columns = list(columns)

    def local_first(batch: pd.DataFrame) -> pd.DataFrame:
        srt = batch.sort_values(list(batch.columns))
        return srt.groupby(columns, sort=False, dropna=False).head(1)

    kwargs = {'batch_format': 'pandas'}
    if concurrency:
        kwargs['concurrency'] = concurrency
    partials = ds.map_batches(local_first, **kwargs)
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def winners(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop(columns=['_bucket'])
        srt = g.sort_values(list(g.columns))
        return srt.groupby(columns, sort=False, dropna=False).head(1)

    return bucketed.groupby('_bucket').map_groups(
        winners, batch_format='pandas')


def dedup_winner_ids(ds, columns, id_column, num_buckets=None,
                     coalesce=True):
    """Winner ids of an exact dedup (min id per distinct key): per-batch
    pre-aggregation (local min id per distinct key) then the bucketed
    aggregation (see check_unique) — the shuffle moves at most one row per
    distinct key per block, never the raw rows.  At scale, filter the full
    rows by broadcasting these ids (or semi-joining).

    ``coalesce`` repartitions the pre-aggregated partials to ~cpus/2
    blocks before the sort shuffle, whose fixed cost scales with task
    count: right when partials are key-cardinality-bounded and modest.
    At extreme distinct-key cardinality (10^9+) pass ``coalesce=False``
    so block sizes stay bounded by the upstream layout."""
    import pandas as pd

    columns = list(columns)

    def local_winners(batch: pa.Table) -> pa.Table:
        sub = batch.select(columns + [id_column])
        grouped = sub.group_by(columns).aggregate([(id_column, 'min')])
        return grouped.rename_columns(columns + [id_column])

    partials = ds.map_batches(local_winners, batch_format='pyarrow')
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def winners(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(columns, sort=False, as_index=False) \
            .agg(**{id_column: (id_column, 'min')})[[id_column]]

    return bucketed.groupby('_bucket').map_groups(winners,
                                                  batch_format='pandas')


# ---------------------------------------------------------------------------
# Referential integrity


class _AntiJoinStage:
    """Keep rows whose key is NOT in the broadcast reference key set.

    The key set is shipped once via ray.put; each actor reads the object
    store reference in __init__ (zero per-batch cost)."""

    def __init__(self, column, keys_ref):
        import ray
        self.column = column
        keys = ray.get(keys_ref)
        self.keys = pa.array(keys) if not isinstance(keys, pa.Array) else keys

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column).combine_chunks()
        # Policy (uniform across all referential variants, matching the
        # uniqueness check and SQL anti-join semantics): NULL foreign keys
        # are skipped, never reported as violations.
        valid = col.is_valid()
        if len(self.keys) == 0:
            return batch.filter(valid)
        hit = pc.is_in(col, value_set=self.keys, skip_nulls=False)
        if hit.null_count:
            hit = hit.fill_null(False)
        return batch.filter(pc.and_(pc.invert(hit), valid))


def check_referential(ds, column, ref_ds, ref_column, concurrency=None):
    """Anti-join ``ds[column]`` against the key set of ``ref_ds[ref_column]``.

    Returns the violating rows (keys with no match in the reference table).
    The reference side is collected to the driver and broadcast — suitable
    for dimension-table-sized references; see ``check_referential_large``
    for the both-sides-large case.  ``concurrency`` runs the filter as an
    actor pool of that size instead of tasks."""
    import ray

    ref_keys = ref_ds.select_columns([ref_column]).unique(ref_column)
    # unique() reports None on a fully-empty reference; an empty key set
    # means every non-null foreign key violates (SQL anti-join).
    keys_ref = ray.put(pa.array(ref_keys if ref_keys is not None else []))
    return _broadcast_filter(ds, _AntiJoinStage, column, keys_ref,
                             concurrency)


def _broadcast_filter(ds, stage_cls, column, ref, concurrency,
                      **pool_kwargs):
    """Filter ``ds`` through ``stage_cls(column, ref)``, a stage holding a
    broadcast object.  By default it runs as tasks that build the stage
    once per worker process, so no actor holds a CPU the upstream read
    tasks need (an actor pool deadlocks a ``num_cpus=1`` session).  An
    explicit ``concurrency`` runs it as an actor pool of that size."""
    if concurrency is not None:
        return ds.map_batches(stage_cls, fn_constructor_args=(column, ref),
                              batch_format='pyarrow',
                              concurrency=concurrency, **pool_kwargs)
    from ..stages.dedup import _worker_cached
    key = (stage_cls.__name__, column, ref.hex())

    def apply(batch: pa.Table) -> pa.Table:
        return _worker_cached(key, lambda: stage_cls(column, ref))(batch)

    return ds.map_batches(apply, batch_format='pyarrow')


class _BloomAntiStage:
    def __init__(self, column, bloom_ref):
        import ray
        self.column = column
        self.bloom = ray.get(bloom_ref)
        if isinstance(self.bloom, bytes):
            from ..state.sketches import BloomFilter
            self.bloom = BloomFilter.deserialize(self.bloom)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column).combine_chunks()
        hashes = hash64_array(col)
        hit = self.bloom.contains_hashes(hashes)
        # Null FKs are skipped (same policy as _AntiJoinStage).
        keep = pa.array(~hit)
        return batch.filter(pc.and_(keep, col.is_valid()))


def check_referential_bloom(ds, column, ref_ds, ref_column,
                            bits_per_key=16, concurrency=None):
    """Memory-compact referential check: the reference key set is broadcast
    as a Bloom filter (bits_per_key bits/key vs ~8-100 bytes/key raw), so
    it stays broadcastable at 10^9+ reference keys.

    PROBABILISTIC: a Bloom false positive makes an orphan key look present,
    i.e. up to ~fpr of true violations are missed (no false violations).
    Returns (violations_ds, fpr)."""
    import ray
    from ..state.sketches import BloomFilter

    keys = ref_ds.select_columns([ref_column]).unique(ref_column)
    key_arr = pa.array(keys if keys is not None else [])  # empty reference
    bloom = BloomFilter(len(key_arr), bits_per_key)
    bloom.add_hashes(hash64_array(key_arr))
    fpr = bloom.fpr
    bloom_ref = ray.put(bloom.serialize())
    out = _broadcast_filter(ds, _BloomAntiStage, column, bloom_ref,
                            concurrency, num_cpus=0.5)
    return out, fpr


def check_referential_large(ds, column, ref_ds, ref_column, num_buckets=64):
    """Both-sides-large anti join: bucket both sides by key hash, co-group
    per bucket, emit left keys missing on the right.  num_buckets bounds
    per-group memory; raise it for bigger tables."""
    left_schema = ds.schema()
    if left_schema is None:
        return ds               # fully-empty left: no violations
    left_names = list(left_schema.names)
    left_types = dict(zip(left_schema.names, left_schema.types))
    # Both union sides must carry the SAME columns or a single-sided
    # bucket group (skewed key ranges, small tables) sees a partial
    # schema and the per-group lookup crashes.
    union_names = list(dict.fromkeys(left_names + [ref_column])) \
        + ['_bucket']
    ref_schema = ref_ds.schema()
    if ref_schema is None:
        # Fully-empty reference: every non-null FK violates; reuse the
        # broadcast path's stage with an empty key set.
        import ray
        keys_ref = ray.put(pa.array([]))
        return _broadcast_filter(ds, _AntiJoinStage, column, keys_ref, None)
    ref_types = dict(zip(ref_schema.names, ref_schema.types))
    pad_types = dict(left_types)
    pad_types.setdefault(ref_column, ref_types[ref_column])

    def add_bucket(batch: pa.Table, col) -> pa.Table:
        h = hash64_array(batch.column(col).combine_chunks())
        return batch.append_column(
            '_bucket', pa.array((h % np.uint64(num_buckets)).astype(np.int64)))

    def tag_left(b: pa.Table) -> pa.Table:
        if ref_column not in b.schema.names:
            b = b.append_column(
                ref_column, pa.nulls(b.num_rows, type=pad_types[ref_column]))
        return b.select(union_names).append_column(
            '_side', pa.array(['L'] * b.num_rows))

    def tag_right(b: pa.Table) -> pa.Table:
        for c in left_names:
            if c not in b.schema.names:
                b = b.append_column(
                    c, pa.nulls(b.num_rows, type=pad_types[c]))
        return b.select(union_names).append_column(
            '_side', pa.array(['R'] * b.num_rows))

    left = ds.map_batches(lambda b: add_bucket(b, column),
                          batch_format='pyarrow').map_batches(
        tag_left, batch_format='pyarrow')
    right = ref_ds.select_columns([ref_column]).map_batches(
        lambda b: add_bucket(b, ref_column), batch_format='pyarrow') \
        .map_batches(tag_right, batch_format='pyarrow')

    drop = ['_bucket', '_side'] + ([ref_column] if ref_column != column
                                   else [])

    def anti(group: pa.Table) -> pa.Table:
        if '_side' not in group.schema.names:
            return group            # schemaless empty block passthrough
        is_right = pc.equal(group['_side'], 'R')
        right_keys = group.filter(is_right)[ref_column].combine_chunks()
        lhs = group.filter(pc.invert(is_right))
        keys = lhs[column]
        # Null FKs are skipped (same policy as _AntiJoinStage).
        keep = pc.and_(pc.invert(pc.is_in(keys, value_set=right_keys)),
                       pc.is_valid(keys))
        return lhs.filter(keep).drop_columns(drop)

    return left.union(right).groupby('_bucket').map_groups(
        anti, batch_format='pyarrow')


def salted_group_agg(ds, key_columns, value_column, num_salts=16,
                     concurrency=None):
    """Skew-safe grouped sum/count: salt the key into ``num_salts``
    sub-keys so one hot key (e.g. the dominant ``fmt`` value) spreads over
    many reducers, then fold the salt back out with a second, tiny groupby.

    Use when per-group *row* volume is skewed AND the downstream is a
    simple algebraic aggregate; the per-batch combiner in _KeyCountStage
    already de-skews the pure-count case."""
    from ray.data.aggregate import Sum

    key_columns = list(key_columns)

    def add_salt(batch: pa.Table) -> pa.Table:
        sub = batch.select(key_columns + [value_column])
        # Null keys break Ray's sort-based groupby partitioning and are
        # dropped, matching the engine-wide grouped-aggregate policy.
        mask = None
        for c in key_columns:
            valid = sub.column(c).is_valid()
            mask = valid if mask is None else pc.and_(mask, valid)
        if mask is not None:
            sub = sub.filter(mask)
        salt = np.arange(sub.num_rows, dtype=np.int64) % num_salts
        sub = sub.append_column('_salt', pa.array(salt))
        grouped = sub.group_by(key_columns + ['_salt']).aggregate(
            [(value_column, 'sum'), (value_column, 'count')])
        return grouped.rename_columns(
            key_columns + ['_salt', 'partial_sum', 'partial_n'])

    kwargs = {'batch_format': 'pyarrow'}
    if concurrency:
        kwargs['concurrency'] = concurrency
    partials = ds.map_batches(add_salt, **kwargs)
    salted = partials.groupby(key_columns + ['_salt']).aggregate(
        Sum('partial_sum', alias_name='salted_sum'),
        Sum('partial_n', alias_name='salted_n'))
    final = salted.groupby(key_columns).aggregate(
        Sum('salted_sum', alias_name='sum_value'),
        Sum('salted_n', alias_name='n'))
    return final


class _GroupedPartialStage:
    """Per-batch Arrow group_by combiner: one partial row per distinct key
    per block, never the raw rows."""

    def __init__(self, key_columns, arrow_specs, partial_names):
        self.key_columns = key_columns
        self.arrow_specs = arrow_specs
        self.partial_names = partial_names

    def __call__(self, batch: pa.Table) -> pa.Table:
        grouped = batch.group_by(self.key_columns).aggregate(self.arrow_specs)
        # Arrow names aggregate outputs '{col}_{op}' / 'count_all'; map them
        # to our stable partial names (selection by name, order-independent).
        arrow_names = [('count_all' if col == [] else f'{col}_{op}')
                       for col, op in self.arrow_specs]
        cols = {k: grouped.column(k) for k in self.key_columns}
        for arrow_name, pname in zip(arrow_names, self.partial_names):
            cols[pname] = grouped.column(arrow_name)
        return pa.table(cols)


def grouped_agg(ds, key_columns, aggs, *, combine='bucket',
                num_buckets=None, coalesce=True, concurrency=None):
    """Grouped aggregation with a map-side combiner (pre-aggregation).

    Ray's built-in ``groupby().aggregate()`` is a sort-based shuffle of
    EVERY input row (no map-side combine) — the canonical all-to-all
    bottleneck at 100 TB.  For algebraic aggregates each block can collapse
    to ≤1 partial row per distinct key first, so this operator runs
    (1) an Arrow ``group_by`` inside each batch emitting per-key partials,
    then (2) combines the partials:

    * ``combine='single'`` — coalesce the partials into ONE block and fold
      with a single vectorized pandas groupby.  Right when key cardinality
      is small (≲1e6 groups): the exchange moves only partial rows and
      avoids the sort-shuffle's per-task fixed cost entirely.
    * ``combine='bucket'`` — coarse hash-bucket shuffle then per-bucket
      vectorized pandas combine (the check_unique pattern) — for large key
      cardinality where one block of partials would not fit.

    ``aggs`` maps output_name -> (column, op) with op in
    {'sum', 'count', 'min', 'max', 'mean'}; column is ignored for 'count'
    (row count).  'mean' decomposes into sum+valid-count partials and is
    finalized after the combine (null-skipping, like SQL AVG).
    """
    import pandas as pd

    key_columns = list(key_columns)
    # Decompose outputs into deduplicated partial specs.
    partial_specs = {}   # partial_name -> (arrow_spec, combine_op)

    def need(col, op):
        if op == 'count' and col is None:
            pname = '__p_count_all'
            partial_specs[pname] = (([], 'count_all'), 'sum')
        else:
            fold = {'sum': 'sum', 'count': 'sum',
                    'min': 'min', 'max': 'max'}[op]
            pname = f'__p_{col}_{op}'
            partial_specs[pname] = ((col, op), fold)
        return pname

    finalize = {}        # output_name -> ('direct', pname) | ('div', num, den)
    for name, (col, op) in aggs.items():
        if op == 'mean':
            finalize[name] = ('div', need(col, 'sum'), need(col, 'count'))
        elif op == 'count':
            finalize[name] = ('direct', need(None, 'count'))
        elif op in ('sum', 'min', 'max'):
            finalize[name] = ('direct', need(col, op))
        else:
            raise ValueError(f'unsupported agg op: {op!r}')

    pnames = list(partial_specs)
    stage = _GroupedPartialStage(
        key_columns, [partial_specs[p][0] for p in pnames], pnames)
    kwargs = {'batch_format': 'pyarrow'}
    if concurrency:
        kwargs['concurrency'] = concurrency
    partials = ds.map_batches(stage, **kwargs)

    fold_ops = {p: partial_specs[p][1] for p in pnames}

    def fold(frame: pd.DataFrame) -> pd.DataFrame:
        merged = frame.groupby(key_columns, sort=False, dropna=False,
                               as_index=False).agg(
            **{p: (p, fold_ops[p]) for p in pnames})
        out = merged[key_columns].copy()
        for name, spec in finalize.items():
            if spec[0] == 'direct':
                out[name] = merged[spec[1]]
            else:
                denom = merged[spec[2]].replace(0, np.nan)
                out[name] = merged[spec[1]] / denom
        return out

    if combine == 'single':
        one = partials.repartition(1)
        return one.map_batches(fold, batch_format='pandas',
                               batch_size=None)
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(key_columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        return fold(group.drop(columns=['_bucket']))

    return bucketed.groupby('_bucket').map_groups(
        fold_bucket, batch_format='pandas')


def grouped_topk(ds, group_columns, order_columns, k, descending=None,
                 coalesce=True, num_buckets=None):
    """Top-k rows per group — the grouped sibling of ``sort().limit()``.

    Same two-level shape as dedup_exact: each block keeps its local
    top-k per group (vectorized pandas sort+head — top-k is
    associative), so the shuffle moves at most k rows per group per
    block; the coarse-bucket fold applies the identical kernel.  Make
    ``order_columns`` a total order (append a tiebreak key) for a
    deterministic result."""
    import pandas as pd

    group_columns = list(group_columns)
    order_columns = list(order_columns)
    if descending is None:
        descending = [True] * len(order_columns)
    ascending = [not d for d in descending]

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        srt = batch.sort_values(order_columns, ascending=ascending)
        return srt.groupby(group_columns, sort=False, dropna=False).head(k)

    partials = ds.map_batches(local_topk, batch_format='pandas')
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(group_columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop(columns=['_bucket'])
        srt = g.sort_values(order_columns, ascending=ascending)
        return srt.groupby(group_columns, sort=False, dropna=False).head(k)

    return bucketed.groupby('_bucket').map_groups(fold,
                                                  batch_format='pandas')


def global_topk(ds, order_columns, k, descending=None):
    """Global top-k rows — the ungrouped sibling of :func:`grouped_topk`
    (and of ``sort().limit()``, without the full-dataset sort exchange).

    Top-k is associative: each block keeps its local top-k (vectorized
    pandas sort+head), so at most k rows per input block move, and one
    single-task fold applies the identical kernel to the ≤ k×blocks
    survivors.  Make ``order_columns`` a total order (append a tiebreak
    key) for a deterministic result.  The result Dataset has ≤ k rows —
    safe to ``to_pandas()`` — while the input is never materialized on
    the driver."""
    import pandas as pd

    order_columns = list(order_columns)
    if descending is None:
        descending = [True] * len(order_columns)
    ascending = [not d for d in descending]

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):             # schemaless empty passthrough
            return batch
        return batch.sort_values(order_columns,
                                 ascending=ascending).head(k)

    partials = ds.map_batches(local_topk, batch_format='pandas')
    # One fold task sees every survivor in ONE batch (batch_size=None =
    # whole block; the default 1024-row chunking would emit k rows per
    # CHUNK): k × blocks rows in, k rows out — result-sized.
    return partials.repartition(1).map_batches(
        local_topk, batch_format='pandas', batch_size=None)


def distinct_count(ds, columns, concurrency=None, coalesce=True,
                   num_buckets=None) -> int:
    """EXACT distinct count of a key tuple (HyperLogLog in column_stats
    is the approximate sibling).  Same shuffle discipline as
    check_unique: per-block Arrow group_by collapses to ≤1 row per
    local distinct key, the coarse-bucket fold counts pandas-unique per
    bucket, and only the per-bucket counts reach the driver."""
    import pandas as pd

    columns = list(columns)
    kwargs = {'batch_format': 'pyarrow'}
    if concurrency:
        kwargs['concurrency'] = concurrency

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.select(columns).group_by(columns).aggregate([])

    partials = ds.map_batches(local_distinct, **kwargs)
    if coalesce:
        partials = partials.repartition(_default_buckets() // 8 or 1)
    bucketed = partials.map_batches(
        _AddKeyBucket(columns, num_buckets or _default_buckets()),
        batch_format='pyarrow')

    def count_bucket(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group[columns].drop_duplicates())
        return pd.DataFrame({'n': [n]})

    counts = bucketed.groupby('_bucket').map_groups(
        count_bucket, batch_format='pandas')
    return int(counts.sum('n') or 0)


def heavy_hitters(ds, column, fraction, concurrency=None):
    """EXACT heavy hitters: every non-null value with count strictly
    greater than ``fraction * n`` where n is the TOTAL row count (the
    skew-detection primitive — feed the result to ``salted_group_agg``
    / bucket salting before a grouped shuffle).

    Two streaming passes, zero shuffle:

    1. Per-block candidates: values whose BLOCK count exceeds
       ``fraction`` of the block (vectorized ``value_counts``; ≤
       1/fraction values per block).  Any global heavy hitter must clear
       the block-relative threshold in at least one block (else its
       total ≤ fraction·n), so the union of block candidates is a
       superset of the answer.
    2. Exact counts of the (tiny) candidate set: broadcast the
       candidates, one vectorized is_in + value_counts partial per
       block, fold on the driver, keep counts > fraction·n.
    """
    import ray
    import pyarrow.compute as pc

    kwargs = {'batch_format': 'pyarrow'}
    if concurrency:
        kwargs['concurrency'] = concurrency

    def block_candidates(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks().drop_null()
        n = len(col)
        if not n:
            return pa.table({'value': col.slice(0, 0)})
        vc = pc.value_counts(col)
        counts = np.asarray(vc.field('counts'))
        keep = counts > fraction * n
        return pa.table({'value': vc.field('values').filter(pa.array(keep))})

    cand_tables = [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
                   for t in ray.get(
                       ds.map_batches(block_candidates, **kwargs)
                       .to_arrow_refs())]
    candidates = [t.column('value') for t in cand_tables if t.num_rows]
    if not candidates:
        empty = pa.table({'value': pa.array([], pa.string()),
                          'n': pa.array([], pa.int64())})
        return empty
    cand = pc.unique(pa.concat_arrays(
        [c.combine_chunks() for c in candidates]))
    n_total = ds.count()

    def exact_counts(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks().drop_null()
        hit = col.filter(pc.is_in(col, value_set=cand))
        if not len(hit):
            return pa.table({'value': cand.slice(0, 0),
                             'partial_n': pa.array([], pa.int64())})
        vc = pc.value_counts(hit)
        return pa.table({'value': vc.field('values'),
                         'partial_n': vc.field('counts').cast(pa.int64())})

    totals = {}
    for t in ray.get(ds.map_batches(exact_counts, **kwargs)
                     .to_arrow_refs()):
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t)
        for v, c in zip(t.column('value').to_pylist(),
                        t.column('partial_n').to_pylist()):
            totals[v] = totals.get(v, 0) + int(c)
    rows = sorted(((v, c) for v, c in totals.items()
                   if c > fraction * n_total),
                  key=lambda x: (-x[1], str(x[0])))
    return pa.table({'value': pa.array([v for v, _ in rows]),
                     'n': pa.array([c for _, c in rows], pa.int64())})


# ---------------------------------------------------------------------------
# Distribution drift (PSI / KS against a reference profile)


class _HistogramStage:
    def __init__(self, column, edges):
        self.column = column
        self.edges = np.asarray(edges, dtype=np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = np.asarray(
            batch.column(self.column).combine_chunks()
            .cast(pa.float64()).fill_null(np.nan))
        vals = vals[~np.isnan(vals)]
        counts, _ = np.histogram(vals, bins=self.edges)
        return pa.table({'counts': pa.array([pickle.dumps(counts)],
                                            type=pa.binary())})


def histogram_profile(ds, column, edges, concurrency=None):
    """Fixed-edge histogram via mergeable per-batch partials (no shuffle)."""
    parts = ds.map_batches(
        _HistogramStage(column, edges), batch_format='pyarrow',
        **({'concurrency': concurrency} if concurrency else {}))
    total = np.zeros(len(edges) - 1, dtype=np.int64)
    for part in parts.iter_batches(batch_size=1024, batch_format='pyarrow'):
        for blob in part.column('counts').to_pylist():
            total += pickle.loads(blob)
    return total


def psi(expected_counts, actual_counts, eps=1e-3) -> float:
    # eps is additive smoothing on the probability vectors: small enough to
    # keep real shifts loud, large enough that a few empty bins don't blow
    # up the log-ratio (a 2% mass bin missing entirely contributes ~0.06,
    # not ~0.24 as it would with a 1e-6 floor).
    """Population stability index between two histograms."""
    e = np.asarray(expected_counts, dtype=np.float64)
    a = np.asarray(actual_counts, dtype=np.float64)
    e = e / max(e.sum(), 1.0) + eps
    a = a / max(a.sum(), 1.0) + eps
    return float(((a - e) * np.log(a / e)).sum())


def ks_statistic(expected_counts, actual_counts) -> float:
    """Two-sample KS statistic on binned data (max CDF gap)."""
    e = np.asarray(expected_counts, dtype=np.float64)
    a = np.asarray(actual_counts, dtype=np.float64)
    e_cdf = np.cumsum(e) / max(e.sum(), 1.0)
    a_cdf = np.cumsum(a) / max(a.sum(), 1.0)
    return float(np.abs(e_cdf - a_cdf).max())


class _GroupHistogramStage:
    def __init__(self, column, group_column, edges):
        self.column = column
        self.group_column = group_column
        self.edges = np.asarray(edges, dtype=np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # One vectorized 2D bincount: bin index within the batch + group
        # code -> flat (group, bin) counts; no per-row Python.
        garr = batch.column(self.group_column).combine_chunks()
        codes_arr = garr.dictionary_encode()
        labels = ['' if v is None else str(v)
                  for v in codes_arr.dictionary.to_pylist()]
        codes = np.asarray(codes_arr.indices.fill_null(-1)).astype(np.int64)
        if (codes < 0).any():
            if '' not in labels:
                labels.append('')
            codes = np.where(codes < 0, labels.index(''), codes)
        vals = np.asarray(
            pc.cast(batch.column(self.column).combine_chunks(),
                    pa.float64(), safe=False).fill_null(np.nan))
        nbins = len(self.edges) - 1
        ok = ~np.isnan(vals)
        ok &= (vals >= self.edges[0]) & (vals <= self.edges[-1])
        bins = np.clip(np.searchsorted(self.edges, vals[ok], side='right')
                       - 1, 0, nbins - 1)
        flat = np.bincount(codes[ok] * nbins + bins,
                           minlength=len(labels) * nbins)             .reshape(len(labels), nbins)
        return pa.table({
            'group': pa.array(labels, type=pa.string()),
            'counts': pa.array([pickle.dumps(row) for row in flat],
                               type=pa.binary())})


def drift_by_group(ds, column, group_column, edges, *, psi_threshold=0.2,
                   ks_threshold=0.1, concurrency=None):
    """Per-group drift: each group's histogram (mergeable per-batch
    partials, no row shuffle — only tiny count vectors move) is compared
    against the GLOBAL distribution.  The group key can be arbitrarily
    skewed (e.g. the hot ``fmt`` values): partials bound the exchange to
    one row per (group, block)."""
    parts = ds.map_batches(
        _GroupHistogramStage(column, group_column, edges),
        batch_format='pyarrow',
        **({'concurrency': concurrency} if concurrency else {}))
    merged = {}
    for part in parts.iter_batches(batch_size=1024, batch_format='pyarrow'):
        for row in part.to_pylist():
            counts = pickle.loads(row['counts'])
            if row['group'] in merged:
                merged[row['group']] += counts
            else:
                merged[row['group']] = counts.astype(np.int64)
    if not merged:
        return []
    total = np.sum(list(merged.values()), axis=0)
    reports = []
    for group, counts in sorted(merged.items()):
        p = psi(total, counts)
        k = ks_statistic(total, counts)
        reports.append({
            'group': group, 'column': column, 'psi': p, 'ks': k,
            'n': int(counts.sum()),
            'drifted': bool(p > psi_threshold or k > ks_threshold),
        })
    return reports


def drift_check(ds, column, reference_profile, edges, *, psi_threshold=0.2,
                ks_threshold=0.1, concurrency=None):
    """Compare ``ds[column]``'s distribution against a reference histogram
    profile; returns the drift report dict (a violation when thresholds are
    exceeded)."""
    actual = histogram_profile(ds, column, edges, concurrency=concurrency)
    p = psi(reference_profile, actual)
    k = ks_statistic(reference_profile, actual)
    return {
        'column': column,
        'psi': p,
        'ks': k,
        'psi_threshold': psi_threshold,
        'ks_threshold': ks_threshold,
        'drifted': bool(p > psi_threshold or k > ks_threshold),
        'actual_counts': actual.tolist(),
    }


def pivot_table(ds, index_columns, pivot_column, value_column=None,
                agg='count', fill=0, **agg_kwargs):
    """Wide reshape: one row per distinct ``index_columns`` tuple, one
    column per distinct ``pivot_column`` value (sorted), cells holding
    ``agg`` of ``value_column`` (SQL ``GROUP BY index`` with
    ``agg(CASE WHEN pivot=v THEN value END)`` columns).

    Distribution-wise this is exactly ``grouped_agg`` on
    (index, pivot) — per-block Arrow partials, bucketed fold, at most
    one partial row per distinct (index, pivot) pair per block — and
    the reshape happens on the RESULT (``index × pivot`` cells, driver
    heap), which is the operator's contract: pivot output is
    wide-format and result-sized by construction.  Returns a pandas
    DataFrame with index columns first, pivot-value columns sorted."""
    import pandas as pd

    index_columns = list(index_columns)
    spec = ((None, 'count') if agg == 'count'
            else (value_column, agg))
    if spec[1] != 'count' and value_column is None:
        raise ValueError("value_column is required for agg != 'count'")
    long = grouped_agg(ds, index_columns + [pivot_column],
                       {'_cell': spec}, **agg_kwargs)
    df = long.to_pandas()
    if df.empty:
        return pd.DataFrame(columns=index_columns)
    wide = df.pivot_table(index=index_columns, columns=pivot_column,
                          values='_cell', aggfunc='first',
                          fill_value=fill)
    wide.columns = [str(c) for c in wide.columns]
    wide = wide[sorted(wide.columns)]
    return wide.reset_index()
