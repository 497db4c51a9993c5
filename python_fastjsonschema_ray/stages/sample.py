"""Deterministic, resumable sampling for training-data curation.

``Dataset.random_sample`` is nondeterministic across re-runs; curation
pipelines need the SAME sample when a job resumes or an oracle re-runs.
Both operators here key the decision on a stable function of the ROW
KEY, so membership is reproducible on any cluster layout and
SQL-expressible for differential checking:

* ``deterministic_sample`` — keep rows where
  ``((key + salt) * KNUTH) mod modulus < fraction * modulus`` (Knuth's
  multiplicative hash; salt enters BEFORE the multiply so any salt
  change reshuffles the whole membership; |(key+salt) * KNUTH| must fit
  2^63, i.e. keys up to ~2^31 — use your own 64-bit pre-hash column
  beyond that).  Pure
  per-batch filter, no shuffle.
* ``stratified_sample_exact`` — exactly ``n`` rows per group, chosen by
  the same hash order (the grouped_topk machinery: only n rows per
  group per block shuffle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

KNUTH = 2654435761


def deterministic_sample(ds, key_column, fraction, *, modulus=1_000_000,
                         salt=0):
    """Keep ~``fraction`` of rows, membership decided by the row key
    alone.  Null keys are dropped (no stable identity to sample on)."""
    if not 0 <= fraction <= 1:
        raise ValueError('fraction must be in [0, 1]')
    threshold = int(fraction * modulus)

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        k = batch.column(key_column).combine_chunks()
        vals = np.asarray(k.cast(pa.int64()).fill_null(-1), dtype=np.int64)
        with np.errstate(over='ignore'):
            h = ((vals + np.int64(salt)) * np.int64(KNUTH)) % np.int64(modulus)
        mask = (h < threshold) & ~np.asarray(pc.is_null(k))
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format='pyarrow')


def stratified_sample_exact(ds, group_columns, key_column, n, *, salt=0,
                            modulus=1_000_000_000, **topk_kwargs):
    """Exactly ``n`` rows per group (fewer when the group is smaller),
    deterministically chosen by hash order of the key with the key
    itself as tiebreak."""
    from ..pipelines.constraints import grouped_topk

    def rank(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch.column(key_column).combine_chunks()
                          .cast(pa.int64()).fill_null(-1), dtype=np.int64)
        with np.errstate(over='ignore'):
            h = ((vals + np.int64(salt)) * np.int64(KNUTH)) % np.int64(modulus)
        return batch.append_column('_sample_rank',
                                   pa.array(h, type=pa.int64()))

    ranked = ds.map_batches(rank, batch_format='pyarrow')
    out = grouped_topk(ranked, group_columns,
                       ['_sample_rank', key_column], n,
                       descending=[False, False], **topk_kwargs)
    return out.drop_columns(['_sample_rank'])


def mixture_quotas(weights, total):
    """Largest-remainder (Hamilton) rounding of fractional mixture
    ``weights`` ({group: weight}) to integer per-group quotas that sum
    to exactly ``total``.  Deterministic: ties broken by group key."""
    wsum = float(sum(weights.values()))
    if wsum <= 0:
        raise ValueError('weights must sum to a positive value')
    exact = {g: total * w / wsum for g, w in weights.items()}
    quotas = {g: int(e) for g, e in exact.items()}
    short = total - sum(quotas.values())
    by_rem = sorted(exact, key=lambda g: (-(exact[g] - quotas[g]), g))
    for g in by_rem[:short]:
        quotas[g] += 1
    return quotas


def mixture_sample_exact(ds, group_column, key_column, quotas, *, salt=0,
                         modulus=1_000_000_000):
    """Domain-mixture resampling: exactly ``quotas[g]`` rows from each
    group ``g`` (fewer when the group is smaller), deterministically
    chosen by hash order of the key — the curation step that rebalances
    a crawl toward a target domain/language mixture (use
    ``mixture_quotas(weights, total)`` to turn fractional weights into
    quotas).  Groups absent from ``quotas`` are dropped.

    Same two-level shape as ``grouped_topk`` but with a PER-GROUP k:
    each block keeps its local quota-prefix per group (per-group
    top-quota by rank is associative), so the shuffle moves at most
    ``quotas[g]`` rows per group per block; each bucket group of the
    exchange applies the identical cut (one Arrow sort, the first
    ``quotas[g]`` rows of each group's run).  The quota dict rides in
    the task closure — broadcast once, never per batch."""
    from .exchange import exchange, positions, runs

    quotas = dict(quotas)

    def rank(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch.column(key_column).combine_chunks()
                          .cast(pa.int64()).fill_null(-1), dtype=np.int64)
        with np.errstate(over='ignore'):
            h = ((vals + np.int64(salt)) * np.int64(KNUTH)) % np.int64(modulus)
        return batch.append_column('_sample_rank',
                                   pa.array(h, type=pa.int64()))

    def cut(batch: pa.Table) -> pa.Table:
        srt, bounds = runs(batch, [group_column],
                           ['_sample_rank', key_column])
        groups = srt.column(group_column).take(bounds[:-1]).to_pylist()
        quota = np.repeat([quotas.get(g, 0) for g in groups],
                          np.diff(bounds))
        return srt.take(np.flatnonzero(positions(bounds) < quota))

    partials = ds.map_batches(rank, batch_format='pyarrow') \
        .map_batches(cut, batch_format='pyarrow')
    out = exchange(partials, [group_column], cut)
    return out.drop_columns(['_sample_rank'])


def deterministic_split(ds, key_column, fractions, *, modulus=1_000_000,
                        salt=0, split_column='split'):
    """Append a ``split`` label column partitioning rows into named
    fractions (e.g. ``{'train': 0.8, 'val': 0.1, 'test': 0.1}``) by
    hash range of the row key — the train/val/test assignment step.
    Membership is a pure function of (key, salt): stable across
    re-runs, resumes and cluster layouts, and the splits are exactly
    disjoint and exhaustive (fractions must sum to ~1; the last named
    split absorbs rounding).  Null keys get a null label.  Pure
    per-batch map, no shuffle."""
    import pyarrow.compute as pc

    names = list(fractions)
    total = float(sum(fractions.values()))
    if not 0.999 <= total <= 1.001:
        raise ValueError('fractions must sum to 1 (got {})'.format(total))
    edges = []
    acc = 0.0
    for name in names[:-1]:
        acc += fractions[name] / total
        edges.append(int(acc * modulus))
    edges.append(modulus)          # last split absorbs rounding

    def label(batch: pa.Table) -> pa.Table:
        k = batch.column(key_column).combine_chunks()
        vals = np.asarray(k.cast(pa.int64()).fill_null(0), dtype=np.int64)
        with np.errstate(over='ignore'):
            h = ((vals + np.int64(salt)) * np.int64(KNUTH)) % np.int64(modulus)
        idx = np.searchsorted(edges, h, side='right')
        lab = pa.DictionaryArray.from_arrays(
            pa.array(idx, type=pa.int8()), pa.array(names)).cast(pa.string())
        lab = pc.if_else(pc.is_valid(k), lab, pa.nulls(len(k), pa.string()))
        return batch.append_column(split_column, lab)

    return ds.map_batches(label, batch_format='pyarrow')


def token_budget_sample(ds, group_column, key_column, token_column,
                        budgets, *, salt=0, modulus=1_000_000_000):
    """Budgeted mixture sampling: per group ``g``, keep documents in
    deterministic hash order of the key while the RUNNING TOTAL of
    ``token_column`` (including the current document) stays within
    ``budgets[g]`` — mixture targets expressed in tokens instead of
    document counts (long documents consume more of their group's
    budget).  The first document crossing the boundary is dropped, as
    is everything after it in hash order.  Groups absent from
    ``budgets`` are dropped.

    Distribution: the hash-rank stage is a pure per-batch map; the
    running total is ``grouped_scan``'s one bucketed (key, order,
    value) exchange; the budget cut is a per-batch filter against the
    broadcast dict.  SQL-oracle-equivalent to
    ``SUM(tokens) OVER (PARTITION BY g ORDER BY hash, key) <= budget``."""
    import pyarrow.compute as pc

    from .scan import grouped_scan

    budgets = dict(budgets)

    def rank(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch.column(key_column).combine_chunks()
                          .cast(pa.int64()).fill_null(-1), dtype=np.int64)
        with np.errstate(over='ignore'):
            h = ((vals + np.int64(salt)) * np.int64(KNUTH)) % np.int64(modulus)
        return batch.append_column('_sample_rank',
                                   pa.array(h, type=pa.int64()))

    ranked = ds.select_columns(
        [group_column, key_column, token_column]).map_batches(
        rank, batch_format='pyarrow')
    scanned = grouped_scan(ranked, [group_column],
                           ['_sample_rank', key_column], token_column,
                           ops=('cumsum',))

    def within_budget(batch: pa.Table) -> pa.Table:
        groups = batch.column(group_column).to_pylist()
        cap = np.asarray([budgets.get(g, -1.0) for g in groups],
                         dtype=np.float64)
        run = np.asarray(batch.column('cumsum').combine_chunks()
                         .fill_null(np.inf), dtype=np.float64)
        return batch.filter(pa.array(run <= cap)) \
            .drop_columns(['_sample_rank', 'cumsum'])

    return scanned.map_batches(within_budget, batch_format='pyarrow')
