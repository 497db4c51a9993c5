"""Engine-level table constraints (no reference counterpart — specified by
the north rule): per-column stats with mergeable sketches, uniqueness,
referential integrity, and distribution-drift checks.

Scale notes (designed for 100 TB / multi-node, tested single-node):

* **Stats** are partial-per-block: each batch folds into count/null/min/max/
  sum + HLL + t-digest locally and emits ONE tiny partial row per (batch,
  column); the driver merges the handful of partials.  No shuffle at all.
* **Uniqueness** pre-aggregates (key → local count) inside each batch before
  the hash exchange (``stages/exchange.py``), so the exchange moves at most
  one row per distinct key per block, not one per input row.  The exchange
  is one sort on the bucket column at fixed boundaries: one map task per
  input block, a fixed number P of reduce tasks (``default_buckets() //
  8``), no sample tasks and no repartition barrier; each reduce block holds
  about 1/P of the partials.  The bucket is a hash of the checked key
  itself — uniform for id-like keys; salt upstream if a hot key is
  expected.
* **Referential** is one exact operator, ``check_referential``: an anti
  ``stages/join.broadcast_lookup_join`` minus null foreign keys.  The
  reference collapses to distinct non-null keys per block, materialized
  once in their own type; their size picks the plan
  (``stages/join.BROADCAST_LIMIT_BYTES``, 64 MiB).  Under it each worker
  builds one key lookup from the object-store blocks, cast to the
  foreign key's type, and each batch is one probe — no shuffle.  Above
  it the rows meet the same keys in one co-group exchange, which casts
  them in its reduce.  Neither path reads a schema on the driver.
  ``check_referential_bloom`` broadcasts a Bloom filter of the same
  keys instead (approximate by contract), hashed with the bucketing
  hash, so it needs no cast.
* **Drift** uses fixed, driver-chosen bin edges so per-batch histograms are
  mergeable by vector addition; KS and PSI are computed on the merged
  profiles.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import (
    checked_cast, exchange, key_hash, nan_keys_to_null, positions, runs)
from ..stages.join import broadcast_lookup_join, distinct_keys
from ..stages.per_worker import PerWorker
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


def column_stats(ds, columns, quantiles=(0.5, 0.9, 0.99), batch_size=65536):
    """Streaming per-column statistics: returns {column: stats dict}.

    Partials stream back to the driver (tiny rows), merged incrementally —
    the input dataset is never materialized."""
    stage_ds = ds.map_batches(
        ColumnStatsStage(columns), batch_format='pyarrow',
        batch_size=batch_size)
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


def check_unique(ds, columns, num_buckets=None):
    """Duplicate-key detection.

    Two-level structure chosen for scale: (1) per-batch pre-aggregation
    collapses each block to (key → local count); (2) the partials meet in
    one hash exchange (see ``stages/exchange.py``) and each bucket group
    sums counts with an Arrow ``group_by``.  The exchange moves at most
    one row per distinct key per block; its sort runs a fixed number of
    reduce tasks, whatever the input's block count, with no barrier
    before it.  Returns duplicate keys with counts (columns..., n)."""
    columns = list(columns)
    partials = ds.map_batches(_KeyCountStage(columns),
                              batch_format='pyarrow')

    def dups(group: pa.Table) -> pa.Table:
        # Explicit output schema: key types survive as they are and empty
        # results stay typed.
        out_schema = pa.schema(
            [group.schema.field(c) for c in columns]
            + [pa.field('n', pa.int64())])
        totals = group.group_by(columns).aggregate([('partial_n', 'sum')])
        totals = totals.filter(pc.greater(totals['partial_n_sum'], 1))
        return totals.select(columns + ['partial_n_sum']) \
            .rename_columns(columns + ['n']).cast(out_schema)

    return exchange(partials, columns, dups, num_buckets=num_buckets)


def dedup_exact(ds, columns, num_buckets=None):
    """Exact first-wins dedup: keep one row per distinct key, winner =
    lowest full-row sort order within the group (deterministic).

    Pre-aggregated like dedup_winner_ids — min-over-row-order is
    associative, so each block first collapses to ≤1 row per local
    distinct key (one Arrow sort, then the first row of each run of
    equal keys; null keys form one run), and only those local winners
    go through the hash exchange; each bucket then folds with the same
    kernel.  The exchange moves at most one full row per distinct key
    per block — never the raw input — and the Ray-level group count
    stays ~O(cluster) instead of O(distinct keys) (sort-aggregate costs
    ~0.5 ms per group)."""
    columns = list(columns)

    def first(batch: pa.Table) -> pa.Table:
        srt, bounds = runs(batch, columns, batch.column_names)
        return srt.take(bounds[:-1])

    partials = ds.map_batches(first, batch_format='pyarrow')
    return exchange(partials, columns, first, num_buckets=num_buckets)


def dedup_winner_ids(ds, columns, id_column, num_buckets=None):
    """Winner ids of an exact dedup (min id per distinct key): per-batch
    pre-aggregation (local min id per distinct key) then the bucketed
    aggregation (see check_unique) — the shuffle moves at most one row per
    distinct key per block, never the raw rows.  Rows with a null key or
    a null id have no winner.  At scale, filter the full rows by
    broadcasting these ids (or semi-joining)."""
    columns = list(columns)

    def local_winners(batch: pa.Table) -> pa.Table:
        sub = batch.select(columns + [id_column]).drop_null()
        grouped = sub.group_by(columns).aggregate([(id_column, 'min')])
        return grouped.rename_columns(columns + [id_column])

    def winners(group: pa.Table) -> pa.Table:
        return local_winners(group).select([id_column])

    partials = ds.map_batches(local_winners, batch_format='pyarrow')
    return exchange(partials, columns, winners, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# Referential integrity


def check_referential(ds, column, ref_ds, ref_column):
    """Anti-join ``ds[column]`` against the keys of ``ref_ds[ref_column]``:
    the rows whose non-null key has no match (NULL foreign keys are
    skipped, as in SQL).  The one exact referential check:
    ``broadcast_lookup_join(how='anti')`` minus the null foreign keys.

    The reference collapses to distinct keys per block, materialized
    once; their size picks the path.  At most
    ``join.BROADCAST_LIMIT_BYTES`` of them are broadcast, and each worker
    builds one key lookup (about 5x its keys' Arrow bytes for int64 keys,
    8x for short strings; ``PerWorker`` keeps up to 8 built stages).
    Above the gate ``ds`` meets the same keys in one co-group exchange.
    Both paths cast the keys to the foreign key's type with one checked
    cast (a lossy key or a type of another family raises ``TypeError``)
    and return the same rows."""
    def non_null(b: pa.Table) -> pa.Table:
        if column not in b.column_names:
            return b                # schemaless empty block
        return b.filter(pc.is_valid(b.column(column)))

    return broadcast_lookup_join(ds, column, ref_ds, ref_column,
                                 how='anti').map_batches(
        non_null, batch_format='pyarrow')


# Perfbench's lineitem_constraints workload calls the co-group operator's
# old name; the gate now picks the path.
check_referential_large = check_referential


def _bloom_filter(bloom_ref):
    import ray
    from ..state.sketches import BloomFilter
    return BloomFilter.deserialize(ray.get(bloom_ref))


def check_referential_bloom(ds, column, ref_ds, ref_column,
                            bits_per_key=16):
    """Memory-compact referential check: the reference key set is broadcast
    as a Bloom filter (bits_per_key bits/key vs ~8-100 bytes/key raw), so
    it stays broadcastable at 10^9+ reference keys.  The driver builds
    the filter from the reference's distinct keys in their own type,
    hashed with ``exchange.key_hash`` (int 2 and float 2.0 hash alike),
    and each batch probes it with the same hash: no cast and no schema
    probe.  A foreign key of another type family than the keys raises
    ``TypeError`` when the check executes.

    PROBABILISTIC: a Bloom false positive makes an orphan key look present,
    i.e. up to ~fpr of true violations are missed (no false violations).
    Returns (violations_ds, fpr)."""
    import ray
    from ..state.sketches import BloomFilter

    tables = [t for t in ray.get(
        distinct_keys(ref_ds, ref_column).materialize().to_arrow_refs())
        if t.num_rows]
    keys = pc.unique(pa.concat_tables(
        tables, promote_options='permissive').column(ref_column)
        .combine_chunks()) if tables else pa.array([], pa.int64())
    bloom = BloomFilter(len(keys), bits_per_key)
    bloom.add_hashes(key_hash(keys))
    filters = PerWorker(_bloom_filter, ray.put(bloom.serialize()))
    key_type = keys.type if tables else None

    def bloom_anti(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if column not in batch.column_names:
            return batch            # schemaless empty block
        col = batch.column(column).combine_chunks()
        if key_type is not None:    # no cast, but families must agree
            checked_cast(pa.nulls(0, key_type), col.type, ref_column, column)
        hit = filters.get().contains_hashes(key_hash(col))
        # Null FKs are skipped, as in check_referential.
        return batch.filter(pc.and_(pa.array(~hit), col.is_valid()))

    return ds.map_batches(bloom_anti, batch_format='pyarrow'), bloom.fpr


def salted_group_agg(ds, key_columns, value_column, num_salts=16):
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

    partials = ds.map_batches(add_salt, batch_format='pyarrow')
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
        grouped = nan_keys_to_null(batch, self.key_columns).group_by(
            self.key_columns).aggregate(self.arrow_specs)
        # Arrow names aggregate outputs '{col}_{op}' / 'count_all'; map them
        # to our stable partial names (selection by name, order-independent).
        arrow_names = [('count_all' if col == [] else f'{col}_{op}')
                       for col, op in self.arrow_specs]
        cols = {k: grouped.column(k) for k in self.key_columns}
        for arrow_name, pname in zip(arrow_names, self.partial_names):
            cols[pname] = grouped.column(arrow_name)
        return pa.table(cols)


def grouped_agg(ds, key_columns, aggs, *, num_buckets=None):
    """Grouped aggregation with a map-side combiner (pre-aggregation).

    Ray's built-in ``groupby().aggregate()`` is a sort-based shuffle of
    EVERY input row (no map-side combine) — the canonical all-to-all
    bottleneck at 100 TB.  For algebraic aggregates each block can collapse
    to ≤1 partial row per distinct key first, so this operator runs
    (1) an Arrow ``group_by`` inside each batch emitting per-key partials,
    then (2) one hash exchange of the partials whose bucket groups fold
    with another Arrow ``group_by`` (the check_unique pattern).  When
    the key cardinality is small, ``num_buckets=1`` folds every partial
    in one task.

    ``aggs`` maps output_name -> (column, op) with op in
    {'sum', 'count', 'min', 'max', 'mean'}; column is ignored for 'count'
    (row count).  Null keys form one group, and NaN float keys join it
    (as in every ``runs``-based operator).  'mean' decomposes into
    sum+valid-count partials and is finalized after the combine
    (null-skipping, like SQL AVG; null for a group without values).
    'sum', 'min' and 'max' of a group whose values are all null are null,
    as in SQL.
    """
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
    partials = ds.map_batches(stage, batch_format='pyarrow')

    fold_ops = {p: partial_specs[p][1] for p in pnames}

    def fold(group: pa.Table) -> pa.Table:
        merged = group.group_by(key_columns).aggregate(
            list(fold_ops.items()))

        def folded(p):
            return merged.column('{}_{}'.format(p, fold_ops[p]))

        out = {k: merged.column(k) for k in key_columns}
        for name, spec in finalize.items():
            if spec[0] == 'direct':
                out[name] = folded(spec[1])
            else:
                den = folded(spec[2]).cast(pa.float64())
                out[name] = pc.divide(
                    folded(spec[1]).cast(pa.float64()),
                    pc.if_else(pc.equal(den, 0.0),
                               pa.scalar(None, pa.float64()), den))
        return pa.table(out)

    return exchange(partials, key_columns, fold, num_buckets=num_buckets)


def grouped_topk(ds, group_columns, order_columns, k, descending=None,
                 num_buckets=None):
    """Top-k rows per group — the grouped sibling of ``sort().limit()``.

    Same two-level shape as dedup_exact: each block keeps its local
    top-k per group (one Arrow sort by group then order, the first k
    rows of each run — top-k is associative; null groups form one run),
    so the exchange moves at most k rows per group per block; each
    bucket group applies the identical kernel.  Make ``order_columns``
    a total order (append a tiebreak key) for a deterministic result."""
    group_columns = list(group_columns)
    order = _sort_order(order_columns, descending)

    def topk(batch: pa.Table) -> pa.Table:
        srt, bounds = runs(batch, group_columns, order)
        return srt.take(np.flatnonzero(positions(bounds) < k))

    partials = ds.map_batches(topk, batch_format='pyarrow')
    return exchange(partials, group_columns, topk, num_buckets=num_buckets)


def _sort_order(order_columns, descending):
    """``runs`` order pairs; ``descending`` defaults to all True."""
    order_columns = list(order_columns)
    if descending is None:
        descending = [True] * len(order_columns)
    return [(c, 'descending' if d else 'ascending')
            for c, d in zip(order_columns, descending)]


def global_topk(ds, order_columns, k, descending=None):
    """Global top-k rows — the ungrouped sibling of :func:`grouped_topk`
    (and of ``sort().limit()``, without the full-dataset sort exchange).

    Top-k is associative: each block keeps its local top-k (one Arrow
    sort, first k rows), so at most k rows per input block move, and a
    one-bucket exchange applies the identical kernel to the ≤ k×blocks
    survivors in one call.  Make ``order_columns`` a total order
    (append a tiebreak key) for a deterministic result.  The result
    Dataset has ≤ k rows — safe to ``to_pandas()`` — while the input is
    never materialized on the driver."""
    order = _sort_order(order_columns, descending)

    def local_topk(batch: pa.Table) -> pa.Table:
        return runs(batch, [], order)[0].slice(0, k)

    partials = ds.map_batches(local_topk, batch_format='pyarrow')
    return exchange(partials, [], local_topk, num_buckets=1)


def distinct_count(ds, columns, num_buckets=None) -> int:
    """EXACT distinct count of a key tuple (HyperLogLog in column_stats
    is the approximate sibling).  Same shuffle discipline as
    check_unique: per-block Arrow group_by collapses to ≤1 row per
    local distinct key, each bucket group counts its runs of equal keys
    (a null key counts once), and only the per-bucket counts reach the
    driver."""
    columns = list(columns)

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.select(columns).group_by(columns).aggregate([])

    partials = ds.map_batches(local_distinct, batch_format='pyarrow')

    def count_bucket(group: pa.Table) -> pa.Table:
        return pa.table({'n': [len(runs(group, columns)[1]) - 1]})

    counts = exchange(partials, columns, count_bucket,
                      num_buckets=num_buckets)
    return int(counts.sum('n') or 0)


def heavy_hitters(ds, column, fraction):
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
                       ds.map_batches(block_candidates,
                                      batch_format='pyarrow')
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
    for t in ray.get(ds.map_batches(exact_counts, batch_format='pyarrow')
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


def histogram_profile(ds, column, edges):
    """Fixed-edge histogram via mergeable per-batch partials (no shuffle)."""
    parts = ds.map_batches(_HistogramStage(column, edges),
                           batch_format='pyarrow')
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
                   ks_threshold=0.1):
    """Per-group drift: each group's histogram (mergeable per-batch
    partials, no row shuffle — only tiny count vectors move) is compared
    against the GLOBAL distribution.  The group key can be arbitrarily
    skewed (e.g. the hot ``fmt`` values): partials bound the exchange to
    one row per (group, block)."""
    parts = ds.map_batches(
        _GroupHistogramStage(column, group_column, edges),
        batch_format='pyarrow')
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
                ks_threshold=0.1):
    """Compare ``ds[column]``'s distribution against a reference histogram
    profile; returns the drift report dict (a violation when thresholds are
    exceeded)."""
    actual = histogram_profile(ds, column, edges)
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
