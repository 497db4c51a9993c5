"""Stream-shaped operators over ordered event tables.

Ray Data has no event-time windowing; per the engine design the events
table is treated as a partitioned log: window membership is computed
vectorized per batch, partially aggregated inside the batch (combiner),
and the (key, window) partials fold through ``grouped_agg``'s hash
exchange — the shuffle moves one row per (key, window) per block, not
per event, and the Ray-level group count stays O(cluster) instead of
O(keys x windows).

Session windows need the full per-key timeline: keys co-locate on a
coarse hash bucket and every key in a bucket sessionizes in one
vectorized Arrow/numpy pass over the bucket's runs of equal keys
(documented partitioning assumption: one key's events within one time
block fit one bucket group / worker).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class _TumblingPartialStage:
    def __init__(self, ts_column, key_column, value_column, window_s):
        self.ts_column = ts_column
        self.key_column = key_column
        self.value_column = value_column
        self.window_us = int(window_s * 1_000_000)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = batch.column(self.ts_column).combine_chunks().cast(pa.int64())
        bucket = pc.divide(ts, self.window_us)
        sub = pa.table({
            self.key_column: batch.column(self.key_column),
            'window': bucket,
            self.value_column: batch.column(self.value_column),
        })
        grouped = sub.group_by([self.key_column, 'window']).aggregate([
            (self.value_column, 'sum'), (self.value_column, 'count')])
        return grouped.rename_columns(
            [self.key_column, 'window', 'partial_sum', 'partial_n'])


def tumbling_window_agg(ds, ts_column, key_column, value_column, window_s):
    """Tumbling-window count/sum per key: returns
    (key, window:int64 epoch-bucket, n, sum_value)."""
    from ..pipelines.constraints import grouped_agg

    partials = ds.map_batches(
        _TumblingPartialStage(ts_column, key_column, value_column, window_s),
        batch_format='pyarrow')
    # (key, window) cardinality is users x windows — far too many groups
    # for the raw sort-aggregate (~0.5 ms/group); fold partials through
    # the coarse-bucket exchange instead.
    return grouped_agg(partials, [key_column, 'window'],
                       {'n': ('partial_n', 'sum'),
                        'sum_value': ('partial_sum', 'sum')})


def sliding_window_agg(ds, ts_column, key_column, value_column, window_s,
                       slide_s):
    """Sliding windows as window_s/slide_s overlapping tumbling replicas:
    each event contributes to ceil(window/slide) buckets (flat_map-style
    expansion inside the partial stage)."""
    from ..pipelines.constraints import grouped_agg

    replicas = int(np.ceil(window_s / slide_s))
    slide_us = int(slide_s * 1_000_000)
    window_us = int(window_s * 1_000_000)

    def expand(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column(ts_column).combine_chunks()
                        .cast(pa.int64()))
        keys = batch.column(key_column)
        vals = batch.column(value_column)
        frames = []
        for r in range(replicas):
            start = ((ts - r * slide_us) // window_us) * window_us \
                + r * slide_us
            keep = ts >= start
            frames.append(pa.table({
                key_column: keys.filter(pa.array(keep)),
                'window_start': pa.array(start[keep], type=pa.int64()),
                value_column: vals.filter(pa.array(keep)),
            }))
        merged = pa.concat_tables(frames)
        grouped = merged.group_by([key_column, 'window_start']).aggregate([
            (value_column, 'sum'), (value_column, 'count')])
        return grouped.rename_columns(
            [key_column, 'window_start', 'partial_sum', 'partial_n'])

    partials = ds.map_batches(expand, batch_format='pyarrow')
    return grouped_agg(partials, [key_column, 'window_start'],
                       {'n': ('partial_n', 'sum'),
                        'sum_value': ('partial_sum', 'sum')})


def session_windows(ds, ts_column, key_column, gap_s, time_block_s=None):
    """Session windows (gap-based).  Returns
    (key, session_start, session_end, n).

    Keys are high-cardinality (users), so a raw ``groupby(key)`` would
    pay the per-distinct-key sort-aggregate cost; instead events
    co-locate on a COARSE hash bucket of ``(key, time block)`` and ALL
    keys in a bucket sessionize in one vectorized pass: sort by
    (key, ts), session breaks where the key changes or the gap is
    exceeded, one reduceat-free segment fold.  Null keys form one key.

    Hot-key guard: bucketing on the key ALONE would ship a hot key's
    entire event history (one user = 50% of the log) into a single
    bucket group and OOM the worker during the shuffle.  The time block
    (``time_block_s``, default ``64 × gap_s``) salts the exchange by
    event time, so no group ever holds more than one block's worth of
    any key; a second, session-row-sized merge pass re-joins sessions
    that cross block boundaries (two sessions of the same key merge
    when ``next.start − prev.end ≤ gap`` — exactly the event-level
    rule, applied to the block-local sessions, which is exact because
    block-local sessionization already broke everything else).
    Partitioning assumptions (documented): one key's events within one
    time block fit a worker (events-per-key-per-``time_block_s``
    bounded), and one key's SESSION rows fit a worker — both far weaker
    than the whole-history bound.  ``time_block_s`` must exceed
    ``gap_s`` (enforced) so events in non-adjacent blocks can never
    belong to one session."""
    from .exchange import exchange, runs

    gap_us = int(gap_s * 1_000_000)
    if time_block_s is None:
        time_block_s = 64 * gap_s
    if time_block_s <= gap_s:
        raise ValueError('time_block_s must exceed gap_s '
                         '({} <= {})'.format(time_block_s, gap_s))
    block_us = int(time_block_s * 1_000_000)

    def stitch(srt, bounds, first, last, ns) -> pa.Table:
        # Sessions of the sorted runs ``srt`` / ``bounds``: a new one
        # starts with each key and after each gap; rows carry their
        # (first, last) microseconds and their count ``ns``.
        brk = np.zeros(len(first), dtype=bool)
        brk[bounds[:-1]] = True
        brk[1:] |= first[1:] - last[:-1] > gap_us
        seg = np.flatnonzero(brk)
        seg_end = np.append(seg[1:], len(first))
        csum = np.concatenate([[0], np.cumsum(ns)])
        return pa.table({
            key_column: srt.column(key_column).take(seg),
            'session_start': first[seg],
            'session_end': last[seg_end - 1],
            'n': csum[seg_end] - csum[seg],
        })

    def add_time_block(batch: pa.Table) -> pa.Table:
        if ts_column not in batch.schema.names:
            return batch            # schemaless empty passthrough
        col = (batch.column(ts_column).combine_chunks()
               .cast(pa.timestamp('us')).cast(pa.int64()))
        # Null ts: park it in a far-negative block so np.asarray never
        # sees a null int64.
        ts = np.asarray(pc.fill_null(col, -(1 << 62)))
        return batch.append_column(
            '_tblock', pa.array(ts // block_us, type=pa.int64()))

    def per_bucket(group: pa.Table) -> pa.Table:
        srt, bounds = runs(group, [key_column], [ts_column])
        # Null ts reads as the int64 minimum (pandas' NaT).
        ts = np.asarray(pc.fill_null(
            srt.column(ts_column).combine_chunks()
            .cast(pa.timestamp('us')).cast(pa.int64()),
            np.iinfo(np.int64).min))
        return stitch(srt, bounds, ts, ts, np.ones(len(ts), np.int64))

    block_sessions = exchange(
        ds.map_batches(add_time_block, batch_format='pyarrow'),
        [key_column, '_tblock'], per_bucket)

    # Merge pass over SESSION rows (∝ sessions, not events): re-bucket
    # on the key alone and stitch block-boundary sessions.
    def merge_sessions(group: pa.Table) -> pa.Table:
        srt, bounds = runs(group, [key_column], ['session_start'])
        return stitch(srt, bounds, srt.column('session_start').to_numpy(),
                      srt.column('session_end').to_numpy(),
                      srt.column('n').to_numpy())

    return exchange(block_sessions, [key_column], merge_sessions)
