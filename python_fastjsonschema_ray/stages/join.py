"""Equi-joins for enrichment: broadcast lookup join (dimension side
shipped once through the object store) and a bucketed shuffle join for
two large sides.

The reference has no joins (it validates one document at a time); the
north rule's referential check, ``pipelines/constraints.py``'s
``check_referential``, is the anti variant of
:func:`broadcast_lookup_join`.  The positive-match joins enrich fact
rows with dimension attributes (e.g. orders with customer segment)
before validation.

Scale notes:

* One size gate decides broadcast or shuffle for every exact key
  operator here, in ``pipelines/constraints.py`` and in the near-dup
  verification of ``stages/dedup.py``: the small side is materialized
  once (for semi/anti only its distinct keys) and its ``size_bytes()``
  compared with :data:`BROADCAST_LIMIT_BYTES`.  Each decision is logged
  at INFO on the package logger (silent by default).
* No equi-join reads a schema on the driver: the broadcast path casts
  the reference keys in the worker, ``cogroup`` the right key in its
  reduce, both with ``exchange.checked_cast``.  Errors that need the
  types (a lossy or cross-family key, a colliding right column) raise
  when the join executes, and every body is total on an empty or
  zero-column side, so no fully-empty input has a fork of its own.
* Near-dup verification broadcasts the candidate TEXTS under the gate
  (each worker builds one id → text map) and co-groups them with the
  candidate pairs above it; its candidate-id filter and
  ``dedup_minhash``'s loser drop are semi/anti
  :func:`broadcast_lookup_join` calls.
* ``broadcast_lookup_join`` ships the dimension table ONCE as
  object-store refs (never through the driver heap) and each worker
  builds a :class:`KeyLookup` over it a single time (``PerWorker``);
  per batch the join is one ``get_indexer`` probe + ``take`` — no
  shuffle at all.  The ref side must be UNIQUE on the join key
  (dimension semantics — duplicate keys would silently pick the first
  match); pass ``check_unique=True`` to verify (one extra pass over the
  small side).  Above the gate it runs :func:`shuffle_join` instead.
* ``shuffle_join`` co-groups BOTH sides on the key (one hash exchange,
  ``stages/exchange.py``) and merges per bucket with a vectorized
  pandas merge — the honest cost when neither side broadcasts.
  Duplicate keys produce the full SQL inner-join cross product within
  the key.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from .exchange import checked_cast, cogroup
from .per_worker import PerWorker

_log = logging.getLogger(__name__)

# The broadcast gate of the exact key operators: a small side of at most
# this many in-memory bytes is broadcast, a larger one is exchanged.
# 64 MiB is about 8M int64 keys; their KeyLookup takes about 5x that in a
# worker (8x for short strings), and PerWorker keeps up to 8 stages.
BROADCAST_LIMIT_BYTES = 64 << 20


def broadcasts(operator, small, what) -> bool:
    """Whether the materialized dataset ``small`` (``what``: the kind of
    rows it holds) fits the broadcast gate; logs the decision."""
    nbytes = small.size_bytes() or 0
    ok = nbytes <= BROADCAST_LIMIT_BYTES
    _log.info('%s: %s path, %d %s bytes, limit %d', operator,
              'broadcast' if ok else 'shuffle', nbytes, what,
              BROADCAST_LIMIT_BYTES)
    return ok


def distinct_keys(ds, key):
    """``ds`` collapsed to the distinct non-null values of ``key`` per
    block, as a one-column Arrow dataset in the key's own type; a
    schemaless empty block passes through."""
    import pyarrow.compute as pc

    def per_block(b: pa.Table) -> pa.Table:
        if key not in b.column_names:
            return b                # schemaless empty block
        return pa.table({key: pc.unique(
            b.column(key).combine_chunks().drop_null())})

    per_block.__name__ = 'distinct_keys'
    return ds.select_columns([key]).map_batches(per_block,
                                                batch_format='pyarrow')


class KeyLookup:
    """Exact positions of probe keys in a reference key column, for a
    stage that builds it once per worker.

    Null reference keys never match, and the first of equal keys wins.
    ``pd.Index`` builds its hash table on the first probe and keeps it,
    where ``pc.is_in`` / ``pc.index_in`` rebuild theirs on every call.
    Only the probe's non-null values are converted, in their own type:
    an int64 column with nulls converted whole becomes float64, where
    2**53 + 1 equals 2**53."""

    def __init__(self, keys: pa.Array):
        import pandas as pd

        valid = keys.is_valid()
        self.index = pd.Index(keys.drop_null().to_numpy(zero_copy_only=False))
        # The key row of each index entry; None when they are the same.
        self.rows = np.flatnonzero(valid.to_numpy(zero_copy_only=False)) \
            if keys.null_count else None
        if not self.index.is_unique:
            first = ~self.index.duplicated()
            self.index = self.index[first]
            self.rows = np.flatnonzero(first) if self.rows is None \
                else self.rows[first]

    def positions(self, col: pa.Array) -> np.ndarray:
        """The reference row of each value of ``col``; -1 for a value
        with no match and for a null."""
        if col.null_count:
            at = np.full(len(col), -1, dtype=np.int64)
            at[col.is_valid().to_numpy(zero_copy_only=False)] = \
                self.index.get_indexer(
                    col.drop_null().to_numpy(zero_copy_only=False))
        else:
            at = self.index.get_indexer(col.to_numpy(zero_copy_only=False))
        if self.rows is None:
            return at
        return np.where(at < 0, -1, self.rows[at])


def _lookup_table(refs, key, like):
    """(reference table, ``KeyLookup`` over its ``key``), or None for an
    empty reference.  The lookup's keys are cast to the type of
    ``like``, the field of the probe key, with the checked cast of
    ``cogroup`` (``TypeError`` when a key does not survive)."""
    import ray

    tables = [t for t in ray.get(list(refs)) if t.num_rows]
    if not tables:
        return None
    ref = pa.concat_tables(tables).combine_chunks()
    keys = checked_cast(ref.column(key).combine_chunks(), like.type, key,
                        like.name)
    return ref, KeyLookup(keys)


def broadcast_lookup_join(ds, key, ref_ds, ref_key, ref_columns=None,
                          how='inner', check_unique=False):
    """Enrich ``ds`` with ``ref_columns`` from ``ref_ds`` matched on
    ``ds[key] == ref_ds[ref_key]``.

    ``how='inner'`` drops unmatched (and null-key) rows; ``how='left'``
    keeps them with null enrichment columns; ``how='semi'`` /
    ``how='anti'`` filter to rows whose key does / does not exist on
    the ref side (SQL ``EXISTS`` / ``NOT EXISTS``: null keys never
    match, so semi drops them and anti keeps them) without appending
    any columns — the broadcast denylist/allowlist filter.  For
    inner/left the ref side must be unique on ``ref_key``; semi/anti
    tolerate duplicates.

    The ref key is cast to the type of ``ds[key]`` with the checked
    cast of ``cogroup`` on both paths (a value that does not survive,
    or a type of another family, raises ``TypeError``); the broadcast
    path casts in the worker, so ``ds`` is never probed for a schema.
    The ref side is materialized once: for inner/left its selected
    columns, for semi/anti only its :func:`distinct_keys`, and the gate
    weighs what was materialized.  Above :data:`BROADCAST_LIMIT_BYTES`
    the join runs :func:`shuffle_join` instead — a ref side that
    outgrows worker heaps (e.g. a corpus-scale vocabulary table) must
    exchange, not ship to every task.  Both paths return the same rows
    when the ref side is unique on ``ref_key`` (pass
    ``check_unique=True`` to enforce; with duplicate ref keys broadcast
    takes the first match while shuffle emits the SQL cross product).
    Under the gate each worker holds the ref side plus its lookup, for
    up to 8 cached stages."""
    import ray

    if how not in ('inner', 'left', 'semi', 'anti'):
        raise ValueError("how must be 'inner', 'left', 'semi' or 'anti'")
    if how in ('semi', 'anti'):
        ref_columns = []
        ref_ds, what = distinct_keys(ref_ds, ref_key).materialize(), \
            'distinct-key'
    else:
        ref_columns = [c for c in (ref_columns or []) if c != ref_key]
        ref_ds, what = ref_ds.select_columns(
            [ref_key] + ref_columns).materialize(), 'reference'
    if not broadcasts('broadcast_lookup_join', ref_ds, what):
        return shuffle_join(ds, ref_ds, key, ref_key, ref_columns, how=how)
    refs = ref_ds.to_arrow_refs()

    if check_unique:
        import pyarrow.compute as pc
        keys_all = pa.concat_arrays(
            [t.column(ref_key).combine_chunks()
             for t in ray.get(list(refs))])
        if len(keys_all) != len(pc.unique(keys_all)):
            raise ValueError(
                'ref side is not unique on {!r}; broadcast_lookup_join has '
                'dimension (first-match) semantics'.format(ref_key))

    def join(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if key not in batch.column_names:
            return batch            # schemaless empty block
        k = batch.column(key).combine_chunks()
        # One lookup per worker and probe key type.
        built = PerWorker(_lookup_table, refs, ref_key,
                          pa.field(key, k.type)).get()
        if built is None:
            at = np.full(batch.num_rows, -1, dtype=np.int64)
        else:
            ref, keys = built
            at = keys.positions(k)
        hit = at >= 0
        if how in ('semi', 'anti'):
            return batch.filter(hit if how == 'semi' else ~hit)
        if how == 'inner':
            batch, at = batch.filter(hit), at[hit]
        idx = pa.array(at, mask=at < 0)
        for c in ref_columns:
            batch = batch.append_column(
                c, ref.column(c).take(idx) if built is not None
                else pa.nulls(batch.num_rows))
        return batch

    return ds.map_batches(join, batch_format='pyarrow')


def _checked(src, dtype):
    """``src.astype(dtype)``, raising ``TypeError`` when any non-null
    value changes (a silent float -> int truncation would fabricate
    matches SQL rejects)."""
    cast = src.astype(dtype)
    if not bool(((cast == src) | src.isna()).all()):
        raise TypeError(
            'lossy key cast {} -> {}; cast the key columns explicitly '
            'before joining'.format(src.dtype, dtype))
    return cast


def _aligned(a, b):
    """Pandas key Series ``a`` and ``b`` with one dtype: ``b`` cast to
    ``a``'s dtype, else ``a`` to ``b``'s, never through a lossy cast."""
    if a.dtype == b.dtype:
        return a, b
    try:
        return a, _checked(b, a.dtype)
    except (TypeError, ValueError):
        return _checked(a, b.dtype), b


def shuffle_join(left, right, left_key, right_key, right_columns,
                 how='inner'):
    """Equi-join of two large Datasets via one hash co-group
    (``stages/exchange.py``); per-bucket vectorized pandas merge (full
    SQL semantics including duplicate-key cross products).  ``how`` is
    ``'inner'`` or ``'left'`` — every left row lands in exactly one
    bucket, so unmatched left rows survive the per-bucket left merge
    with typed-null right columns.  Output columns: all of ``left`` plus
    ``right_columns``.  ``how='semi'`` / ``'anti'`` keep the left rows
    whose key does / does not occur on the right (null keys never
    match); the right side moves as its :func:`distinct_keys` only.
    The co-group casts the right key to the left key's type; a key that
    does not cast losslessly raises ``TypeError``.  Nothing is probed
    on the driver, so a right column that collides with a left column
    name raises ``ValueError`` when the join executes."""
    import pandas as pd
    import pyarrow.compute as pc

    if how not in ('inner', 'left', 'semi', 'anti'):
        raise ValueError("how must be 'inner', 'left', 'semi' or 'anti'")
    if how in ('semi', 'anti'):
        def exists(l: pa.Table, r: pa.Table) -> pa.Table:
            if left_key not in l.column_names:
                return l        # no typed left block: nothing to filter
            k = l.column(left_key)
            keys = (r.column(right_key).combine_chunks()
                    if right_key in r.column_names else pa.array([], k.type))
            hit = pc.and_(pc.fill_null(pc.is_in(k, value_set=keys), False),
                          pc.is_valid(k))
            return l.filter(hit if how == 'semi' else pc.invert(hit))

        return cogroup(left, distinct_keys(right, right_key), left_key,
                       right_key, exists)
    right_columns = [c for c in right_columns if c != right_key]
    right_names = [right_key] + right_columns
    right = right.select_columns(right_names)

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        if left_key not in l.column_names:
            return l            # no typed left block: nothing to join
        overlap = set(right_names) & set(l.column_names)
        if overlap:
            raise ValueError(
                'right-side columns {} collide with left column names; '
                'rename before joining'.format(sorted(overlap)))
        if right_key not in r.column_names:   # no typed right block
            r = pa.table({c: pa.nulls(0) for c in right_names})
        # SQL semantics: null keys never match — but a LEFT join keeps
        # the null-key left rows (pandas would wrongly match NaN keys,
        # so they are split off and re-appended padded below).
        l_null = (l.filter(pc.is_null(l.column(left_key)))
                  if how == 'left' else None)
        l = l.filter(pc.is_valid(l.column(left_key))).combine_chunks()
        r = r.filter(pc.is_valid(r.column(right_key))).combine_chunks()
        # Merge POSITIONS, not payloads: only (key, row position) pass
        # through pandas, and every output column is gathered from the
        # Arrow sides by position — a pandas left merge would null-pad
        # right int64 columns into float64, silently corrupting values
        # above 2^53 (snowflake-style ids) on the round-trip back.
        lhs = pd.DataFrame({
            '__k': l.column(left_key).to_pandas(),
            '__lpos': np.arange(l.num_rows, dtype=np.int64)})
        rhs = pd.DataFrame({
            '__k': r.column(right_key).to_pandas(),
            '__rpos': np.arange(r.num_rows, dtype=np.int64)})
        # The Arrow key types already agree; pandas can still drift
        # (e.g. an empty side converts to another dtype).
        lhs['__k'], rhs['__k'] = _aligned(lhs['__k'], rhs['__k'])
        out = lhs.merge(rhs, on='__k', how=how)
        lpos = pa.array(out['__lpos'].to_numpy(dtype=np.int64))
        rpos = pa.array(out['__rpos'], type=pa.int64(), from_pandas=True)
        result = l.take(lpos)
        for c in right_columns:
            result = result.append_column(c, r.column(c).take(rpos))
        if l_null is not None and l_null.num_rows:
            pad = l_null
            for c in right_columns:
                pad = pad.append_column(c, pa.nulls(
                    pad.num_rows, type=r.schema.field(c).type))
            result = pa.concat_tables([result, pad])
        return result

    return cogroup(left, right, left_key, right_key, merge)


def broadcast_interval_join(ds, point_column, intervals, start_column,
                            end_column, interval_columns, *, key=None,
                            interval_key=None, closed='left', how='inner'):
    """Range join: match each row of ``ds`` to every interval
    ``[start_column, end_column)`` that contains ``ds[point_column]``
    (plus an optional equi-key), SQL inner-join multiplicity — a row in
    k overlapping intervals emits k output rows.

    ``closed`` picks the boundary convention: 'left' = [start, end),
    'both' = [start, end], 'right' = (start, end], 'neither'.
    ``how='left'`` keeps unmatched (and null-key/null-point) rows with
    null interval columns.

    Scale: the interval side ships ONCE as object-store refs (never
    through the driver heap) and each worker materializes it a single
    time; per batch the match is one vectorized pandas merge (equi-key
    when ``key`` is given, else cross) + boundary mask — no shuffle.
    Right for interval sides that fit a worker's heap; the keyless
    variant materializes |batch| x |intervals| candidates per batch, so
    keep it for small interval sets (calendars, campaign windows) and
    prefer the keyed form at scale."""
    import pandas as pd
    import ray

    if how not in ('inner', 'left'):
        raise ValueError("how must be 'inner' or 'left'")
    closed_ops = {'left': ('ge', 'lt'), 'both': ('ge', 'le'),
                  'right': ('gt', 'le'), 'neither': ('gt', 'lt')}
    if closed not in closed_ops:
        raise ValueError('closed must be one of {}'.format(
            sorted(closed_ops)))
    if (key is None) != (interval_key is None):
        raise ValueError('key and interval_key must be given together')
    interval_columns = list(interval_columns)

    ds_schema = ds.schema()
    if ds_schema is None:
        return ds              # fully-empty point side: nothing to join
    if intervals.schema() is None:
        # Fully-empty interval side: inner yields nothing; left keeps
        # every point row with null-typed interval padding.
        if how == 'inner':
            return ds.limit(0)

        def pad_points(b: pa.Table) -> pa.Table:
            for c in interval_columns:
                if c not in b.schema.names:
                    b = b.append_column(c, pa.nulls(b.num_rows))
            return b

        return ds.map_batches(pad_points, batch_format='pyarrow')
    left_names = list(ds_schema.names)
    overlap = set(interval_columns) & set(left_names)
    if overlap:
        raise ValueError(
            'interval columns {} collide with left column names; rename '
            'before joining'.format(sorted(overlap)))
    iv_schema = intervals.schema()
    iv_types = dict(zip(iv_schema.names, iv_schema.types))
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in zip(ds_schema.names, ds_schema.types)] +
        [pa.field(c, iv_types[c]) for c in interval_columns])

    I_START, I_END, I_KEY = '__i_start', '__i_end', '__i_key'
    iv_need = list(dict.fromkeys(
        [start_column, end_column] +
        ([interval_key] if interval_key else []) + interval_columns))
    refs = intervals.select_columns(iv_need).to_arrow_refs()

    def build_intervals():
        tables = [t for t in ray.get(list(refs)) if t.num_rows]
        if not tables:
            return None
        df = pa.concat_tables(tables).combine_chunks().to_pandas()
        ren = {start_column: I_START, end_column: I_END}
        if interval_key:
            ren[interval_key] = I_KEY
        # An interval column may double as the start/end/key column;
        # keep the original too in that case.
        for orig, internal in ren.items():
            df[internal] = df[orig]
        df = df[[I_START, I_END] + ([I_KEY] if interval_key else []) +
                interval_columns]
        df = df[df[I_START].notna() & df[I_END].notna()]
        if interval_key:
            df = df[df[I_KEY].notna()]
        return df

    interval_table = PerWorker(build_intervals)
    lo_op, hi_op = closed_ops[closed]

    def join(batch: pa.Table) -> pa.Table:
        iv = interval_table.get()
        lhs = batch.to_pandas()
        # Positional marker: keeps fully-duplicate left rows distinct in
        # the left-join anti-match (merge resets the index).
        lhs = lhs.copy()
        lhs['__pos'] = range(len(lhs))
        if iv is None or not len(lhs):
            matched = lhs.iloc[:0].copy()
            for c in interval_columns:
                matched[c] = None
        else:
            usable = lhs[point_column].notna()
            if key is not None:
                usable &= lhs[key].notna()
                cand = lhs[usable].merge(iv, left_on=key, right_on=I_KEY)
            else:
                cand = lhs[usable].merge(iv, how='cross')
            lo = getattr(cand[point_column], lo_op)(cand[I_START])
            hi = getattr(cand[point_column], hi_op)(cand[I_END])
            matched = cand[lo & hi]
        out = matched[left_names + interval_columns]
        if how == 'left':
            unmatched = lhs[~lhs['__pos'].isin(matched['__pos'])]
            unmatched = unmatched[left_names].copy()
            for c in interval_columns:
                unmatched[c] = None
            out = pd.concat([out, unmatched], ignore_index=True,
                            sort=False)
        # replace_schema_metadata(None): from_pandas attaches b'pandas'
        # metadata even with schema=, and this pyarrow build's Schema
        # hash chokes on it inside Ray's block-schema dedup.
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False
                                    ).replace_schema_metadata(None)

    return ds.map_batches(join, batch_format='pyarrow')


def asof_join(left, right, left_on, right_on, left_by, right_by,
              right_columns, *, direction='backward', tolerance=None,
              how='left', tiebreak=None):
    """Per-key as-of join: match each left row to the single right row of
    the same by-key whose ``right_on`` is nearest ``left_on`` in the given
    ``direction`` ('backward' = greatest right_on <= left_on, 'forward' =
    smallest >= , 'nearest').

    The reference has no temporal operators; this is the standard
    enrichment step for event streams (attach the most recent dimension
    state as of each event's timestamp).

    Semantics/determinism:

    * Ties on ``right_on`` within a by-key are deterministic: the right
      side is stable-sorted by ``[right_on] + tiebreak`` (default
      tiebreak: ``right_columns`` order), so 'backward' picks the
      GREATEST tiebreak among equal ``right_on`` (the SQL window
      ``ROW_NUMBER() OVER (PARTITION BY ... ORDER BY right_on DESC,
      tiebreak DESC) = 1`` shape) and 'forward' the LEAST.
    * ``how='left'`` keeps unmatched left rows with null enrichment
      columns; ``'inner'`` drops them.  Null by-keys / null ``left_on``
      never match (SQL convention).
    * ``tolerance`` bounds the time gap: seconds when ``left_on`` is a
      timestamp, same units as the column otherwise.

    * Output columns: all of ``left`` plus ``right_columns``, each in
      its own side's type; nothing is probed on the driver, so a right
      column that collides with a left column name raises
      ``ValueError`` when the join executes.

    Scale: both sides meet in ONE hash co-group on the by-key
    (``stages/exchange.py``: all rows of a key co-locate, and coarse
    buckets keep the sort-aggregate overhead off the per-key
    cardinality).  Each bucket runs one vectorized ``pandas.merge_asof``
    over time-sorted sides — O(n log n) per bucket, no per-key Python.
    Skewed by-keys concentrate in one bucket; salt upstream if one key
    dominates."""
    import pandas as pd
    import pyarrow.compute as pc

    if how not in ('inner', 'left'):
        raise ValueError("how must be 'inner' or 'left'")
    if direction not in ('backward', 'forward', 'nearest'):
        raise ValueError("direction must be backward|forward|nearest")
    right_columns = list(right_columns)
    tiebreak = list(tiebreak if tiebreak is not None else right_columns)

    right_names = list(dict.fromkeys(
        [right_on, right_by] + right_columns + tiebreak))
    right = right.select_columns(right_names)
    # Internal names for the right on/by inside pandas, so they never
    # collide with the left's (merge_asof suffixing is name-dependent).
    R_ON, R_BY = '__r_on', '__r_by'

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        if left_by not in l.column_names:
            return l            # no typed left block: nothing to join
        overlap = set(right_columns) & set(l.column_names)
        if overlap:
            raise ValueError(
                'right-side columns {} collide with left column names; '
                'rename before joining'.format(sorted(overlap)))
        if right_by not in r.column_names:    # no typed right block
            r = pa.table({c: pa.nulls(0) for c in right_names})
        tol = tolerance
        if tol is not None and pa.types.is_timestamp(
                r.schema.field(right_on).type):
            tol = pd.Timedelta(seconds=tolerance)
        l = l.combine_chunks()
        r = r.filter(pc.and_kleene(pc.is_valid(r.column(right_on)),
                                   pc.is_valid(r.column(right_by))))
        # Ties on right_on break on the GREATEST tiebreak for 'backward'
        # (merge_asof picks the last of equal on-keys); sorting in
        # Arrow keeps int64 tiebreak values exact.
        r = r.sort_by([(c, 'ascending') for c in [right_on] + tiebreak]) \
             .combine_chunks()
        # Only (on, by, position) pass through pandas; every output
        # column is gathered from the Arrow sides by position, so
        # null-padding never float-coerces int64 values above 2^53.
        lhs = pd.DataFrame({
            '__on': l.column(left_on).to_pandas(),
            '__by': l.column(left_by).to_pandas(),
            '__lpos': np.arange(l.num_rows, dtype=np.int64)})
        match_ok = lhs['__on'].notna() & lhs['__by'].notna()
        lhs_null = lhs[~match_ok]
        lhs_v = lhs[match_ok].sort_values('__on', kind='mergesort')
        if r.num_rows:
            rhs = pd.DataFrame({
                R_ON: r.column(right_on).to_pandas(),
                R_BY: r.column(right_by).to_pandas(),
                '__rpos': np.arange(r.num_rows, dtype=np.int64)})
            # merge_asof needs equal key dtypes: the on-keys may differ
            # (float vs int), and a left block that carried null keys
            # converts to float64 even after the nulls are filtered.
            for lc, rc in (('__on', R_ON), ('__by', R_BY)):
                lhs_v[lc], rhs[rc] = _aligned(lhs_v[lc], rhs[rc])
            out = pd.merge_asof(
                lhs_v, rhs, left_on='__on', right_on=R_ON,
                left_by='__by', right_by=R_BY,
                direction=direction, tolerance=tol)
        else:
            out = lhs_v.copy()
            out['__rpos'] = np.nan
        if how == 'inner':
            out = out[out['__rpos'].notna()]
        else:
            out = pd.concat([out, lhs_null], ignore_index=True,
                            sort=False)
        lpos = pa.array(out['__lpos'].to_numpy(dtype=np.int64))
        rpos = pa.array(out['__rpos'], type=pa.int64(),
                        from_pandas=True)
        result = l.take(lpos)
        for c in right_columns:
            result = result.append_column(c, r.column(c).take(rpos))
        return result

    return cogroup(left, right, left_by, right_by, merge)
