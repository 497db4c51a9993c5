"""Ordered per-key scan operators (SQL window functions of the
``PARTITION BY key ORDER BY order`` family): running sum, row number,
lag / delta, and rolling mean over the last N rows.

The reference engine has no ordered analytics at all (it validates one
document at a time); these are the window primitives a training-data
pipeline needs on event logs — per-user running totals, inter-event
deltas, smoothing — expressed Ray-Data-first:

* rows exchange ONCE as ``(key, order, value)`` triples on a coarse
  hash bucket of the key (the minimum movement any exact ordered
  per-key scan needs — every row's result depends on all earlier rows
  of its key, so the key's rows must co-locate);
* each bucket handles ALL its keys with ONE stable Arrow sort +
  run-vectorized kernels (grouped cumsum / shift / position in
  run) — no per-group Python, so millions of tiny keys cost the same
  as a few big ones;
* a pathologically hot key (one key ≫ bucket memory) needs the
  transpose: range-partition that key's rows on the order column and
  carry per-chunk offsets forward — not implemented here; windows.py's
  salted aggregates cover the unordered flavors.

Frame semantics are SQL ``ROWS`` (not ``RANGE``): ties on the order
columns are broken by the later order columns you pass, so pass enough
columns to make the order unique per key or results are
implementation-defined on the tied rows (exactly as in SQL).  Null
handling: a null ``value`` row reads null in cumsum/lag and adds
nothing to later running sums; filter them first for
SQL-NULL-skipping aggregates.  Null keys form one key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SCAN_OPS = ('row_number', 'cumsum', 'lag', 'delta', 'rolling_mean')


def grouped_scan(ds, keys, order_by, value_column,
                 ops=('row_number', 'cumsum'), *, window=None):
    """Per-key ordered scans over ``value_column``.

    Output: the input rows (columns ``keys + order_by + [value_column]``)
    with one extra column per op:

    - ``row_number`` — 1-indexed position within the key (int64);
    - ``cumsum`` — running sum, rows-unbounded-preceding (float64);
    - ``lag`` — previous row's value within the key, null on the first
      row (float64);
    - ``delta`` — ``value - lag`` (float64);
    - ``rolling_mean`` — mean of the last ``window`` rows including the
      current one, partial windows averaged over the rows seen so far
      (SQL ``AVG OVER (... ROWS BETWEEN window-1 PRECEDING AND CURRENT
      ROW)``); requires ``window``.

    Row order of the output is unspecified (Ray blocks); the scan
    order is ``order_by`` within each key.
    """
    from .exchange import exchange, positions, runs

    keys = list(keys)
    order_by = list(order_by)
    ops = tuple(ops)
    for op in ops:
        if op not in SCAN_OPS:
            raise ValueError('unknown scan op {!r}'.format(op))
    if 'rolling_mean' in ops and not (window and window >= 1):
        raise ValueError('rolling_mean requires window >= 1')
    in_cols = keys + order_by + [value_column]

    def bucket_scan(group: pa.Table) -> pa.Table:
        srt, bounds = runs(group, keys, order_by)
        pos = positions(bounds)
        vals = srt.column(value_column).cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        out = srt.select(in_cols)
        if 'cumsum' in ops or 'rolling_mean' in ops:
            cs = _running_sum(vals, bounds)
        for op in ops:
            if op == 'row_number':
                col = pos + 1
            elif op == 'cumsum':
                col = cs
            elif op in ('lag', 'delta'):
                # Runs are contiguous after the sort: the previous row
                # is in-run exactly when pos >= 1.
                prev = np.concatenate(([np.nan], vals[:-1]))
                prev[pos == 0] = np.nan
                col = prev if op == 'lag' else vals - prev
            else:
                w = int(window)
                back = np.concatenate((np.zeros(w), cs[:-w])) \
                    if len(cs) > w else np.zeros(len(cs))
                # pos >= w guarantees the row w places back is the same
                # key, so cs[i] - cs[i-w] is the exact last-w sum;
                # younger rows average from the start.
                col = np.where(pos >= w, cs - back, cs) \
                    / np.minimum(pos + 1, w)
            out = out.append_column(op, pa.array(col, from_pandas=True))
        return out

    return exchange(ds.select_columns(in_cols), keys, bucket_scan)


def _running_sum(vals, bounds) -> np.ndarray:
    """Per-run running sum of ``vals`` (runs given by ``bounds``): NaN
    rows read NaN and add nothing.  One O(n) pandas grouped cumsum over
    run ids, which sums each run in order with compensation.  A global
    ``np.cumsum`` minus each run's start offset is not used: it loses
    the digits of a small key's sums behind the large running total of
    the keys sorted before it."""
    import pandas as pd

    run_id = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return pd.Series(vals).groupby(run_id, sort=False).cumsum() \
        .to_numpy(dtype=np.float64)


def global_rank(ds, order_columns, *, descending=False,
                rank_column='rank'):
    """GLOBAL dense ordering: ``ROW_NUMBER() OVER (ORDER BY ...)`` —
    every row stamped with its 1-indexed position in the total order
    (pass enough ``order_columns`` to make the order unique or the
    ranks on tied rows are implementation-defined, exactly as in SQL).

    Two phases, the ``packing_plan`` discipline (stages/pack.py:30):
    ``Dataset.sort`` range-partitions into globally ordered blocks (the
    one unavoidable all-to-all — any exact total order pays it), then a
    counts-only fold reaches the driver (one int per block) and each
    block stamps ``offset + arange`` independently.  Row payloads cross
    the wire once, in the sort."""
    import ray
    import ray.data

    sorted_ds = ds.sort(list(order_columns),
                        descending=descending).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def nrows(t) -> int:
        return t.num_rows if isinstance(t, pa.Table) else len(t)

    counts = ray.get([nrows.remote(r) for r in refs])
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])

    @ray.remote
    def stamp(t, offset: int):
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        # No b'pandas' metadata (to_arrow_refs keeps it on converted pandas
        # blocks): it makes the schema unhashable in Ray's block-schema
        # dedup.
        t = t.replace_schema_metadata(None)
        ranks = np.arange(offset + 1, offset + 1 + t.num_rows,
                          dtype=np.int64)
        return t.append_column(rank_column,
                               pa.array(ranks, type=pa.int64()))

    return ray.data.from_arrow_refs(
        [stamp.remote(r, int(o)) for r, o in zip(refs, offsets)])
