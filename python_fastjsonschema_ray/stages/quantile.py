"""Exact distributed quantiles by iterative histogram narrowing.

t-digest (``state/sketches.py``) answers approximate quantiles in one
pass; this operator answers EXACT order statistics without any shuffle:

1. one partial-stats pass → non-null count n, global [lo, hi];
2. repeat: a vectorized per-block histogram over [lo, hi] (``bins``
   buckets, np.searchsorted; each block emits one small count vector,
   the driver folds them) → descend into the bucket containing the
   target rank;
3. when ≤ ``collect_limit`` candidates remain in [lo, hi] — or the
   range has stalled at ULP scale under duplicate mass — collect the
   per-block (unique value, count) pairs in that range and resolve the
   rank arithmetically on the driver.

Passes are full column re-scans (the dataset is never materialized), so
cost is O(log_bins(n / collect_limit) + 2) streaming scans — 3-4 scans
even at 10^12 rows with the defaults — each scan column-pruned and
embarrassingly parallel.  Heavy duplicate mass can stop the range
SHRINKING (adjacent floats both carrying billions of rows), but the
final pass folds (unique, count) pairs — O(distinct floats in range),
never O(rows) — so a stalled state cannot blow up driver memory.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrowutil import count_matrix
from .exchange import gather


def _count_min_max(ds, column):
    def partial(batch: pa.Table) -> pa.Table:
        arr = batch.column(column)
        vals = np.asarray(arr.drop_null(), dtype=np.float64)
        # NaN is skipped like null (the SQL aggregate convention);
        # left in, it poisons min/max and is invisible to the range
        # masks of every later narrowing pass, stalling the search.
        vals = vals[~np.isnan(vals)]
        if not len(vals):           # no partial row
            return pa.table({'n': pa.array([], pa.int64()),
                             'lo': pa.array([], pa.float64()),
                             'hi': pa.array([], pa.float64())})
        return pa.table({'n': pa.array([len(vals)], pa.int64()),
                         'lo': pa.array([float(vals.min())], pa.float64()),
                         'hi': pa.array([float(vals.max())], pa.float64())})

    t = gather(ds.map_batches(partial, batch_format='pyarrow'))
    if not t.num_rows:
        return 0, math.inf, -math.inf
    return (pc.sum(t.column('n')).as_py(), pc.min(t.column('lo')).as_py(),
            pc.max(t.column('hi')).as_py())


def select_ranks(ds, column, ranks, *, bins=4096, collect_limit=500_000,
                 max_iters=64, _stats=None):
    """The ``ranks[i]``-th smallest non-null values (0-indexed),
    exactly, SHARING every streaming pass across all ranks: one
    count/min/max scan, then each narrowing iteration computes every
    active rank's histogram in the same ``map_batches`` sweep (k small
    count vectors per block instead of k full re-scans), and one final
    collect pass gathers every still-open range at once.  Asking for
    p05 and p95 together costs the same scans as asking for one."""
    ranks = list(ranks)
    n, lo0, hi0 = _stats if _stats is not None else _count_min_max(ds, column)
    if n == 0:
        return [None] * len(ranks)
    for r in ranks:
        if not 0 <= r < n:
            raise ValueError(
                'rank {} out of range for {} values'.format(r, n))
    states = [{'r': r, 'lo': lo0, 'hi': hi0, 'remaining': n,
               'stalled': False, 'val': None} for r in ranks]

    def open_states():
        return [s for s in states if s['val'] is None and not s['stalled']
                and s['remaining'] > collect_limit and s['lo'] != s['hi']]

    for _ in range(max_iters):
        active = open_states()
        if not active:
            break
        edges_list = [np.linspace(s['lo'], s['hi'], bins + 1)
                      for s in active]

        def hist(batch: pa.Table, edges_list=edges_list) -> pa.Table:
            vals_all = np.asarray(batch.column(column).drop_null(),
                                  dtype=np.float64)
            rows = []
            for edges in edges_list:
                vals = vals_all[(vals_all >= edges[0])
                                & (vals_all <= edges[-1])]
                # Bucket i covers [edges[i], edges[i+1]); the last
                # bucket is closed on the right so `hi` is counted.
                idx = np.minimum(
                    np.searchsorted(edges, vals, side='right') - 1,
                    len(edges) - 2)
                rows.append(np.bincount(idx,
                                        minlength=len(edges) - 1).tolist())
            return pa.table({'counts': pa.array([rows])})

        t = gather(ds.map_batches(hist, batch_format='pyarrow'))
        folded = count_matrix(t.column('counts').combine_chunks().flatten()) \
            .reshape(t.num_rows, len(active), bins).sum(axis=0)
        for s, edges, counts in zip(active, edges_list, folded):
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, s['r'] + 1))
            new_lo, new_hi = float(edges[b]), float(edges[b + 1])
            new_remaining = int(counts[b])
            if (new_remaining == s['remaining']
                    and (new_lo, new_hi) == (s['lo'], s['hi'])):
                s['stalled'] = True      # degenerate float range
                continue
            s['r'] -= int(cum[b - 1]) if b else 0
            s['lo'], s['hi'], s['remaining'] = new_lo, new_hi, new_remaining

    for s in states:
        if s['lo'] == s['hi']:
            s['val'] = float(s['lo'])

    pending = [s for s in states if s['val'] is None]
    if pending:
        # One collect pass for ALL still-open ranges.  Each uses its
        # CLOSED range: values equal to `hi` may belong to the parent's
        # next bucket, but they sort after every true in-range value
        # and r < (true in-range count), so the r-th smallest of the
        # union is still the target.
        bounds = [(s['lo'], s['hi']) for s in pending]

        def collect(batch: pa.Table, bounds=bounds) -> pa.Table:
            # Emit per-block (unique value, count) pairs, NOT raw
            # values: a 'stalled' state (range narrowed to adjacent
            # floats with heavy duplicate mass) can hold billions of
            # remaining ROWS but only a handful of distinct FLOATS, so
            # the driver-side fold stays O(distinct), never O(rows).
            vals_all = np.asarray(batch.column(column).drop_null(),
                                  dtype=np.float64)
            cols = {}
            for i, (lo, hi) in enumerate(bounds):
                sel = vals_all[(vals_all >= lo) & (vals_all <= hi)]
                u, c = np.unique(sel, return_counts=True)
                cols['v{}'.format(i)] = pa.array(u, type=pa.float64())
                cols['c{}'.format(i)] = pa.array(c, type=pa.int64())
            m = max((len(c) for c in cols.values()), default=0)
            cols = {k: pa.concat_arrays(
                        [v, pa.nulls(m - len(v), v.type)])
                    for k, v in cols.items()}
            return pa.table(cols)

        t = gather(ds.map_batches(collect, batch_format='pyarrow'))
        for i, s in enumerate(pending):
            # v/c columns share one validity layout (padded from equal
            # unpadded lengths), so independent drop_null stays aligned.
            u_all = np.asarray(t.column('v{}'.format(i)).drop_null(),
                               dtype=np.float64)
            c_all = np.asarray(t.column('c{}'.format(i)).drop_null(),
                               dtype=np.int64)
            u, inv = np.unique(u_all, return_inverse=True)
            cnt = np.bincount(inv, weights=c_all.astype(np.float64),
                              minlength=len(u)).astype(np.int64)
            cum = np.cumsum(cnt)
            s['val'] = float(u[int(np.searchsorted(cum, s['r'] + 1))])
    return [s['val'] for s in states]


def select_rank(ds, column, rank, **kwargs):
    """The ``rank``-th smallest non-null value (0-indexed) of a numeric
    column, exactly."""
    return select_ranks(ds, column, [rank], **kwargs)[0]


def exact_quantiles(ds, column, qs, **kwargs):
    """Exact ``quantile_disc`` for several quantiles in shared passes:
    rank ``max(ceil(n*q)-1, 0)`` per q, one count scan + shared
    narrowing/collect sweeps (see :func:`select_ranks`)."""
    stats = _count_min_max(ds, column)
    n = stats[0]
    if n == 0:
        return [None] * len(list(qs))
    ranks = [max(int(math.ceil(n * q)) - 1, 0) for q in qs]
    return select_ranks(ds, column, ranks, _stats=stats, **kwargs)


def exact_quantile(ds, column, q, **kwargs):
    """Exact ``quantile_disc`` semantics (DuckDB/Postgres discrete
    quantile): the element at 0-indexed rank ``max(ceil(n*q)-1, 0)``
    among the sorted non-null values."""
    return exact_quantiles(ds, column, [q], **kwargs)[0]


def grouped_quantile(ds, keys, value_column, qs, *, out_column='value'):
    """Exact per-group discrete quantiles (``quantile_disc`` rank rule:
    0-indexed ``max(ceil(n*q)-1, 0)`` among each group's sorted non-null
    values).  Output: one row per (group, q) with columns
    ``keys + ['q', out_column]``; groups whose values are ALL null emit
    a null quantile (SQL aggregate convention).

    Scale: rows exchange ONCE as (key, value) pairs in one hash
    exchange on the key — the minimum data movement any exact per-group
    order statistic needs when group count is large — and each bucket
    ranks all its groups with ONE vectorized sort + cumcount pass (no
    per-group Python).  For a FEW huge groups the transpose is cheaper:
    run :func:`exact_quantile` per group filter (histogram narrowing,
    no shuffle at all).  Skewed keys concentrate in one bucket; at
    10^9+ rows per hot key prefer the per-group narrowing path.
    Null keys form one group; NaN values count as null."""
    import pyarrow.compute as pc

    from .exchange import exchange, runs

    keys = list(keys)
    qs = [float(q) for q in qs]

    def bucket_quantiles(group: pa.Table) -> pa.Table:
        # Each run holds a group's values in order, nulls (and NaN) last,
        # so its rank-r value sits r rows after the run's start; an
        # all-null group reads a null at rank 0.
        srt, bounds = runs(group, keys, [value_column])
        col = srt.column(value_column)
        valid = col.is_valid()
        if pa.types.is_floating(col.type):
            valid = pc.fill_null(pc.and_(valid, pc.invert(pc.is_nan(col))),
                                 False)
        starts = bounds[:-1]
        n = np.add.reduceat(
            valid.to_numpy(zero_copy_only=False).astype(np.int64), starts)
        idx = np.concatenate([
            starts + np.maximum(np.ceil(n * q).astype(np.int64) - 1, 0)
            for q in qs])
        out = srt.select(keys + [value_column]).take(idx)
        value = pc.if_else(pa.array(np.tile(n > 0, len(qs))),
                           out.column(value_column),
                           pa.scalar(None, col.type))
        return out.select(keys).append_column(
            'q', pa.array(np.repeat(qs, len(starts)), pa.float64())) \
            .append_column(out_column, value)

    return exchange(ds.select_columns(keys + [value_column]), keys,
                    bucket_quantiles)
