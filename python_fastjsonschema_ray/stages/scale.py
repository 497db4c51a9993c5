"""Feature scaling: z-score standardization of numeric columns.

Two streaming passes, no shuffle: (1) each block emits per-column
(n, sum, sum-of-squares) partials, the driver folds them into means
and sample standard deviations; (2) one vectorized map subtracts/
divides against the broadcast constants.  The same shape as
`pca.py`'s moment fold — the minimum any exact global standardization
can do, and both passes are column-pruned.

Null values pass through as nulls and are excluded from the moments
(SQL aggregate semantics, matching the AVG/STDDEV_SAMP window
oracle).  A zero-variance column standardizes to 0.0 (not NaN) by
convention; SQL emits NULL there — filter constant columns first when
comparing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import gather


def column_moments(ds, columns):
    """Fold per-column (count, mean, sample std) over the dataset."""
    columns = list(columns)

    def partial(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in columns:
            v = np.asarray(batch.column(c).drop_null(), dtype=np.float64)
            cols['n_' + c] = pa.array([len(v)], pa.int64())
            cols['s_' + c] = pa.array([float(v.sum())], pa.float64())
            cols['q_' + c] = pa.array([float((v * v).sum())], pa.float64())
        return pa.table(cols)

    t = gather(ds.select_columns(columns).map_batches(
        partial, batch_format='pyarrow'))
    stats = {}
    for c in columns:
        n, s, q = 0, 0.0, 0.0
        if t.num_rows:
            n = pc.sum(t.column('n_' + c)).as_py()
            for bs, bq in zip(t.column('s_' + c).to_pylist(),
                              t.column('q_' + c).to_pylist()):
                s += bs         # block by block, in gather order
                q += bq
        mean = s / n if n else float('nan')
        # Sample variance via the folded moments (ddof=1).
        var = (q - n * mean * mean) / (n - 1) if n > 1 else 0.0
        stats[c] = (n, mean, float(np.sqrt(max(var, 0.0))))
    return stats


def standardize_columns(ds, columns, *, suffix='_z', stats=None):
    """Append ``{col}{suffix}`` z-score columns ((x - mean) / std,
    float64).  Pass precomputed ``stats`` (from :func:`column_moments`)
    to reuse a fold across datasets (e.g. apply train-split moments to
    a validation split)."""
    import ray

    columns = list(columns)
    stats = stats or column_moments(ds, columns)
    ref = ray.put({c: stats[c] for c in columns})

    def apply(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        for c in columns:
            _, mean, std = st[c]
            v = np.asarray(batch.column(c).cast(pa.float64())
                           .fill_null(np.nan), dtype=np.float64)
            # Zero-variance convention: 0.0 for present values — but
            # nulls must STAY null (the module contract), so the
            # constant branch cannot blanket-zero the NaN slots.
            z = ((v - mean) / std if std > 0
                 else np.where(np.isnan(v), np.nan, 0.0))
            batch = batch.append_column(
                c + suffix, pa.array(z, type=pa.float64(),
                                     from_pandas=True))
        return batch

    return ds.map_batches(apply, batch_format='pyarrow')


def column_quantile_bounds(ds, columns, lower_q, upper_q, **kwargs):
    """Exact per-column (lower, upper) clip bounds at the given
    discrete quantiles (``exact_quantile``'s histogram-narrowing
    passes — no sort, no shuffle; a few counting scans per column)."""
    from .quantile import exact_quantiles

    out = {}
    for c in columns:
        lo, hi = exact_quantiles(ds, c, [lower_q, upper_q], **kwargs)
        out[c] = (lo, hi)
    return out


def winsorize_columns(ds, columns, *, lower_q=0.05, upper_q=0.95,
                      suffix='_w', bounds=None):
    """Append ``{col}{suffix}`` columns clipped to the exact
    [lower_q, upper_q] discrete quantiles — outlier taming before
    scaling/training.  Pass precomputed ``bounds`` (from
    :func:`column_quantile_bounds`) to reuse train-split bounds on a
    validation split.  Null values stay null (SQL
    LEAST/GREATEST-with-NULL semantics)."""
    import ray

    columns = list(columns)
    bounds = bounds or column_quantile_bounds(ds, columns,
                                              lower_q, upper_q)
    ref = ray.put({c: bounds[c] for c in columns})

    def apply(batch: pa.Table) -> pa.Table:
        bd = ray.get(ref)
        for c in columns:
            lo, hi = bd[c]
            v = np.asarray(batch.column(c).cast(pa.float64())
                           .fill_null(np.nan), dtype=np.float64)
            # All-null column: no quantiles, hence no clipping — the
            # values (all null) pass through unchanged.
            w = v if lo is None and hi is None \
                else np.clip(v, lo, hi)     # NaN propagates -> null
            batch = batch.append_column(
                c + suffix, pa.array(w, type=pa.float64(),
                                     from_pandas=True))
        return batch

    return ds.map_batches(apply, batch_format='pyarrow')
