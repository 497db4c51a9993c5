"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship validation pipeline over sf0.001;
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 (and the training-data extensions); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible query.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the library) calls ``ray.init``/``ray.shutdown``.

Float-valued outputs are ROUNDED identically on both sides (the driver
compares order-insensitive value hashes, so float association order must
not leak into results).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa


def _read(sf_dir: str, table: str, columns=None):
    import pyarrow.parquet as pq
    import ray.data
    path = '{}/{}.parquet'.format(sf_dir, table)
    # The testdata files carry b'pandas' schema metadata that makes
    # pa.Schema unhashable in this pyarrow build, producing noisy
    # "Failed to hash the schemas" warnings inside Ray's block-schema
    # dedup; pass a metadata-stripped (projected) schema instead.
    full = pq.read_schema(path).remove_metadata()
    clean = pa.schema([full.field(c) for c in columns]) if columns else full
    return ray.data.read_parquet(path, columns=columns, schema=clean)


def _df_with_columns(ds, columns) -> pd.DataFrame:
    """Materialize a (small) result Dataset, keeping the declared column
    names even when the result is empty (an empty Ray→pandas conversion
    drops the schema, which would fail the driver's schema compare)."""
    df = ds.to_pandas()
    if df.empty:
        return pd.DataFrame({c: pd.Series(dtype='object') for c in columns})
    return df[list(columns)]


# A fixed, deterministic 64-dim query vector for similarity search
# (alternating +1/-0.5 pattern; also embedded in the oracle SQL literal).
_ANN_QUERY = [1.0 if i % 2 == 0 else -0.5 for i in range(64)]


# ---------------------------------------------------------------------------
# Query implementations


def q_stats_lineitem(sf_dir: str):
    """Column stats via streaming partial aggregation (SURVEY §2.5 aggregations)."""
    from python_fastjsonschema_ray.pipelines.constraints import column_stats
    ds = _read(sf_dir, 'lineitem', ['l_quantity', 'l_extendedprice'])
    s = column_stats(ds, ['l_quantity', 'l_extendedprice'],
                     quantiles=())

    def r(v, nd):            # empty input: stats are None, like SQL NULL
        return None if v is None else round(float(v), nd)

    return pd.DataFrame([{
        'n_rows': s['l_quantity']['count'],
        'n_null_qty': s['l_quantity']['nulls'],
        'min_qty': r(s['l_quantity']['min'], 3),
        'max_qty': r(s['l_quantity']['max'], 3),
        'sum_qty': r(s['l_quantity'].get('sum'), 2),
        'avg_price': r(s['l_extendedprice'].get('mean'), 4),
    }])


def q_range_violations_lineitem(sf_dir: str):
    """Vectorized range validation (minimum/maximum keywords) → violation
    rows (key, rule); all failing rules per row (collect mode)."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'lineitem',
               ['l_orderkey', 'l_quantity', 'l_discount', 'l_extendedprice'])
    spec = {
        'type': 'object',
        'properties': {
            'l_quantity': {'type': 'number', 'maximum': 45},
            'l_discount': {'type': 'number', 'maximum': 0.08},
            'l_extendedprice': {'type': 'number', 'minimum': 1000},
        },
    }
    out = validate_dataset(ds, spec, mode='violations',
                           key_column='l_orderkey', fast_fail=False)
    return out.select_columns(['key', 'rule'])


def q_enum_orders(sf_dir: str):
    """Enum keyword over o_orderstatus; violating rows grouped by value."""
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'orders', ['o_orderkey', 'o_orderstatus'])
    spec = {'properties': {'o_orderstatus': {'enum': ['O', 'F']}}}
    annotated = validate_dataset(ds, spec, mode='annotate')
    bad = annotated.filter(expr='valid == False')
    return grouped_agg(bad, ['o_orderstatus'], {'n': (None, 'count')},
                       num_buckets=1)


def q_minlength_documents(sf_dir: str):
    """minLength keyword over documents.text."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    spec = {'properties': {'text': {'type': 'string', 'minLength': 100}}}
    out = validate_dataset(ds, spec, mode='violations', key_column='doc_id')
    return out.select_columns(['key'])


def q_pattern_customer(sf_dir: str):
    """pattern keyword (RE2 vector kernel) over customer names."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'customer', ['c_custkey', 'c_name'])
    spec = {'properties': {
        'c_name': {'type': 'string', 'pattern': '^Customer#0000000[0-9]{2}$'}}}
    out = validate_dataset(ds, spec, mode='violations', key_column='c_custkey')
    return out.select_columns(['key'])


def q_format_events_props(sf_dir: str):
    """contentMediaType(application/json) column transform: rows whose props
    fail to parse as JSON (none in clean data — the zero must match)."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'events', ['event_id', 'props'])
    spec = {'properties': {
        'props': {'type': 'string',
                  'contentMediaType': 'application/json'}}}
    out = validate_dataset(ds, spec, mode='violations', key_column='event_id')
    return _df_with_columns(out, ['key'])


def q_referential_orders(sf_dir: str):
    """Exact anti-join: orders.o_custkey ∉ customer.c_custkey."""
    from python_fastjsonschema_ray.pipelines.constraints import check_referential
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer', ['c_custkey'])
    out = check_referential(orders, 'o_custkey', customer, 'c_custkey')
    return _df_with_columns(out, ['o_orderkey', 'o_custkey'])


def q_unique_events(sf_dir: str):
    """Duplicate-key detection with per-batch pre-aggregation."""
    from python_fastjsonschema_ray.pipelines.constraints import check_unique
    ds = _read(sf_dir, 'events', ['event_id'])
    return _df_with_columns(check_unique(ds, ['event_id']), ['event_id', 'n'])


def q_phash_near_dup_documents(sf_dir: str):
    """Hamming near-dup over 64-bit signatures (pigeonhole banding +
    tiled popcount verify, stages/dedup.py:hamming_near_dup).  The
    synthetic corpus has no phash column, so one derives
    deterministically from doc_id: the id's 16-block index replicates
    into the three high 16-bit chunks (so only same-block pairs can sit
    within distance 2 — every LSH bucket stays <= block-sized) and the
    low chunk carries the 2 varying bits.  The SQL oracle repeats the
    formula and brute-forces xor/bit_count over the id self-join."""
    import pyarrow.compute as pc  # noqa: F401

    from python_fastjsonschema_ray.stages.dedup import hamming_near_dup
    ds = _read(sf_dir, 'documents', ['doc_id'])

    def derive(b: pa.Table) -> pa.Table:
        d = np.asarray(b.column('doc_id'), dtype=np.int64)
        if d.size and d.max() >= 262144:
            # Above this the 16-bit fields overlap: the bitwise-OR
            # derivation diverges from the SQL oracle's addition, and
            # the oracle's g*2^48 BIGINT term overflows DuckDB at
            # doc_id >= 524288.  Raise loudly instead of silently
            # diverging if the fixture scale ever grows that far.
            raise ValueError(
                'phash derivation requires doc_id < 262144 '
                '(got {})'.format(int(d.max())))
        g = d // 16
        ph = (g << 48) | (g << 32) | (g << 16) | (g * 4 + d % 4)
        return b.append_column('phash', pa.array(ph))

    sigs = ds.map_batches(derive, batch_format='pyarrow')
    out = hamming_near_dup(sigs, 'doc_id', 'phash', max_dist=2)
    return _df_with_columns(out, ['id_a', 'id_b', 'dist'])


def q_dedup_exact_documents(sf_dir: str):
    """Exact dedup winners (min doc_id per distinct text) — pure
    groupby-aggregate, no per-group pandas overhead."""
    from python_fastjsonschema_ray.pipelines.constraints import dedup_winner_ids
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    return dedup_winner_ids(ds, ['text'], 'doc_id')


def q_token_count_documents(sf_dir: str):
    """Whitespace token counting (vectorized text stage)."""
    from python_fastjsonschema_ray.stages.text import TokenCountStage
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = ds.map_batches(TokenCountStage('text', subwords=False),
                         batch_format='pandas')
    return out.select_columns(['doc_id', 'n_tokens'])


def q_quality_documents(sf_dir: str):
    """Alphabetic-ratio quality metric (SQL-checkable slice of the quality
    stage)."""
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])

    def alpha(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch['text'].str.len()
        a = batch['text'].str.count(r'[A-Za-z]')
        return pd.DataFrame({
            'doc_id': batch['doc_id'],
            'alpha_ratio': (a / n.clip(lower=1)).round(4),
        })

    return ds.map_batches(alpha, batch_format='pandas')


def q_topk_documents(sf_dir: str):
    """Top-k by length: distributed sort + limit."""
    ds = _read(sf_dir, 'documents', ['doc_id', 'n_chars'])
    return ds.sort(['n_chars', 'doc_id'], descending=[True, False]).limit(10)


def q_group_stats_lineitem(sf_dir: str):
    """Grouped aggregation with a map-side combiner (no raw-row shuffle):
    each block collapses to one partial row per flag via an Arrow
    group_by, and a one-bucket exchange folds the 3-group result in a
    single tiny task — it moves partials, not the 600k rows."""
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    ds = _read(sf_dir, 'lineitem', ['l_returnflag', 'l_quantity'])
    out = grouped_agg(ds, ['l_returnflag'],
                      {'sum_qty': ('l_quantity', 'sum'),
                       'n': (None, 'count')},
                      num_buckets=1)

    def round_qty(batch: pd.DataFrame) -> pd.DataFrame:
        batch['sum_qty'] = batch['sum_qty'].round(2)
        batch['n'] = batch['n'].astype('int64')
        return batch

    return out.map_batches(round_qty, batch_format='pandas')


def q_embedding_dims(sf_dir: str):
    """minItems/maxItems over a list<float> column."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    spec = {'properties': {
        'embedding': {'type': 'array', 'minItems': 64, 'maxItems': 64}}}
    out = validate_dataset(ds, spec, mode='violations', key_column='vec_id')
    return _df_with_columns(out, ['key'])


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 against the fixed query vector."""
    from python_fastjsonschema_ray.stages.ann import topk_cosine
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    df = topk_cosine(ds, 'vec_id', 'embedding', np.asarray(_ANN_QUERY), k=10)
    return pd.DataFrame({
        'vec_id': df['vec_id'].astype('int64'),
        'sim': df['sim'].round(4),
    })


def q_ann_multi_topk(sf_dir: str):
    """Batch-probe ANN: exact cosine top-5 for THREE probe vectors at
    once (the mining shape — one BLAS matmul per batch scores every
    probe; per-probe k-row partials fold on the driver).  Probes are
    the vec_id<3 embeddings."""
    from python_fastjsonschema_ray.stages.ann import topk_cosine
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])

    def probes_only(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.less(b.column('vec_id'), 3))

    pdf = ds.map_batches(probes_only, batch_format='pyarrow')         .to_pandas()
    if pdf.empty:                      # empty corpus: no probes, no hits
        return pd.DataFrame({'probe_id': pd.Series(dtype='int64'),
                             'vec_id': pd.Series(dtype='int64'),
                             'sim': pd.Series(dtype='float64')})
    pdf = pdf.sort_values('vec_id')
    Q = np.stack(pdf['embedding'].to_numpy())
    df = topk_cosine(ds, 'vec_id', 'embedding', Q, k=5)
    probe_ids = pdf['vec_id'].to_numpy()
    return pd.DataFrame({
        'probe_id': probe_ids[df['query'].to_numpy()].astype('int64'),
        'vec_id': df['vec_id'].astype('int64'),
        'sim': df['sim'].round(4),
    })


def q_windowed_events(sf_dir: str):
    """Tumbling-window aggregate (per-batch partial agg → small groupby)."""
    from python_fastjsonschema_ray.stages.windows import tumbling_window_agg
    ds = _read(sf_dir, 'events', ['ts', 'event_type', 'value'])
    out = tumbling_window_agg(ds, 'ts', 'event_type', 'value', 3600)

    def round_sum(batch: pd.DataFrame) -> pd.DataFrame:
        batch['sum_value'] = batch['sum_value'].round(2)
        return batch

    return out.map_batches(round_sum, batch_format='pandas')


def q_sessions_events(sf_dir: str):
    """Session windows (30-min gap) per user (time-salted exchange, then
    a per-user merge exchange)."""
    from python_fastjsonschema_ray.stages.windows import session_windows
    ds = _read(sf_dir, 'events', ['ts', 'user_id'])
    return session_windows(ds, 'ts', 'user_id', 1800)


def q_events_value_high(sf_dir: str):
    """maximum keyword over events.value with a threshold inside the domain."""
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'events', ['event_id', 'value'])
    spec = {'properties': {'value': {'type': 'number', 'maximum': 400}}}
    out = validate_dataset(ds, spec, mode='violations', key_column='event_id')
    return _df_with_columns(out, ['key', 'rule'])


# -- per-keyword driver evidence (one query per SURVEY §2.3 keyword) --------
#
# Each query compiles a schema exercising exactly one keyword (plus `type`)
# and streams violations; derived columns needed by a keyword (emails, lists,
# maps, base64) are built deterministically inside map_batches so the DuckDB
# oracle can reproduce the construction (or its by-construction failure set).


def _violations(ds, spec, key_column, cols=('key',), **flags):
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    out = validate_dataset(ds, spec, mode='violations',
                           key_column=key_column, **flags)
    return _df_with_columns(out, cols)


def q_maxlength_documents(sf_dir: str):
    """maxLength keyword over documents.text."""
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    spec = {'properties': {'text': {'type': 'string', 'maxLength': 500}}}
    return _violations(ds, spec, 'doc_id')


def q_multipleof_lineitem(sf_dir: str):
    """multipleOf keyword (Decimal-exact float divisor path)."""
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity'])
    spec = {'properties': {'l_quantity': {'type': 'number', 'multipleOf': 5}}}
    return _violations(ds, spec, 'l_orderkey')


def q_exclusive_range_events(sf_dir: str):
    """Numeric exclusiveMinimum/exclusiveMaximum (draft-06 form), collect
    mode so both rules report independently."""
    ds = _read(sf_dir, 'events', ['event_id', 'value'])
    spec = {'properties': {'value': {'type': 'number',
                                     'exclusiveMinimum': 0.01,
                                     'exclusiveMaximum': 450}}}
    return _violations(ds, spec, 'event_id', cols=('key', 'rule'),
                       fast_fail=False)


def q_format_email_customer(sf_dir: str):
    """format:email (lookaround regex → Python row kernel). Emails are
    derived: %10==0 drops the '@', %10==1 injects '..' before it — the
    oracle asserts the by-construction failure classes (the reference email
    regex is not RE2-expressible, so DuckDB cannot run it directly)."""
    ds = _read(sf_dir, 'customer', ['c_custkey'])

    def build(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch['c_custkey']
        email = 'user' + k.astype(str) + '@example.com'
        email = email.mask(k % 10 == 0, 'user' + k.astype(str) + 'example.com')
        email = email.mask(k % 10 == 1, 'user..' + k.astype(str) + '@example.com')
        return pa.table({'c_custkey': pa.array(k, type=pa.int64()),
                         'email': pa.array(email, type=pa.string())})

    ds = ds.map_batches(build, batch_format='pandas')
    spec = {'properties': {'email': {'type': 'string', 'format': 'email'}}}
    return _violations(ds, spec, 'c_custkey')


def q_format_ipv4_customer(sf_dir: str):
    """format:ipv4 (RE2 vector kernel; leading-zero CVE-2021-28918 case)."""
    ds = _read(sf_dir, 'customer', ['c_custkey'])

    def build(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch['c_custkey']
        ip = (k % 300).astype(str) + '.0.0.1'
        ip = ip.mask(k % 300 == 0, '01.2.3.4')
        return pa.table({'c_custkey': pa.array(k, type=pa.int64()),
                         'ip': pa.array(ip, type=pa.string())})

    ds = ds.map_batches(build, batch_format='pandas')
    spec = {'properties': {'ip': {'type': 'string', 'format': 'ipv4'}}}
    return _violations(ds, spec, 'c_custkey')


def q_format_uuid_events(sf_dir: str):
    """format:uuid (draft-2019 format table)."""
    ds = _read(sf_dir, 'events', ['event_id'])

    def build(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch['event_id']
        u = k.apply(lambda v: '{:08x}-0000-4000-8000-{:012x}'.format(v, v))
        u = u.mask(k % 9 == 0, 'not-a-uuid')
        return pa.table({'event_id': pa.array(k, type=pa.int64()),
                         'u': pa.array(u, type=pa.string())})

    ds = ds.map_batches(build, batch_format='pandas')
    spec = {'properties': {'u': {'type': 'string', 'format': 'uuid'}}}
    return _violations(ds, spec, 'event_id')


def q_const_nation(sf_dir: str):
    """const keyword (type-strict equality)."""
    ds = _read(sf_dir, 'nation', ['n_nationkey', 'n_regionkey'])
    spec = {'properties': {'n_regionkey': {'const': 0}}}
    return _violations(ds, spec, 'n_nationkey')


def q_allof_orders(sf_dir: str):
    """allOf composition: each branch's rule surfaces in fast-fail order."""
    ds = _read(sf_dir, 'orders', ['o_orderkey', 'o_totalprice'])
    spec = {'properties': {'o_totalprice': {'allOf': [
        {'minimum': 2000}, {'maximum': 400000}]}}}
    return _violations(ds, spec, 'o_orderkey', cols=('key', 'rule'))


def q_anyof_lineitem(sf_dir: str):
    """anyOf fails only when every branch fails (10 < q < 40)."""
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity'])
    spec = {'properties': {'l_quantity': {'anyOf': [
        {'maximum': 10}, {'minimum': 40}]}}}
    return _violations(ds, spec, 'l_orderkey')


def q_oneof_lineitem(sf_dir: str):
    """oneOf fails when both branches match (10 <= q <= 20)."""
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity'])
    spec = {'properties': {'l_quantity': {'oneOf': [
        {'maximum': 20}, {'minimum': 10}]}}}
    return _violations(ds, spec, 'l_orderkey')


def q_not_part(sf_dir: str):
    """not keyword over an enum sub-schema."""
    ds = _read(sf_dir, 'part', ['p_partkey', 'p_brand'])
    spec = {'properties': {'p_brand': {'not': {
        'enum': ['Brand#1', 'Brand#2', 'Brand#3']}}}}
    return _violations(ds, spec, 'p_partkey')


def q_dependencies_lineitem(sf_dir: str):
    """dependencies (schema form) at the table root: presence of l_discount
    activates a minimum on l_quantity."""
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity', 'l_discount'])
    spec = {'dependencies': {'l_discount': {
        'properties': {'l_quantity': {'minimum': 5}}}}}
    return _violations(ds, spec, 'l_orderkey', cols=('key', 'rule'))


def q_ifelse_lineitem(sf_dir: str):
    """if/then/else at the table root (conditional cross-column rule)."""
    ds = _read(sf_dir, 'lineitem',
               ['l_orderkey', 'l_returnflag', 'l_quantity', 'l_discount'])
    spec = {
        'if': {'properties': {'l_returnflag': {'const': 'R'}}},
        'then': {'properties': {'l_quantity': {'maximum': 30}}},
        'else': {'properties': {'l_discount': {'maximum': 0.05}}},
    }
    return _violations(ds, spec, 'l_orderkey', cols=('key', 'name'))


def q_uniqueitems_lineitem(sf_dir: str):
    """uniqueItems over a derived int list column."""
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_partkey', 'l_suppkey'])

    def build(batch: pa.Table) -> pa.Table:
        o = batch.column('l_orderkey').to_numpy(zero_copy_only=False) % 10
        p = batch.column('l_partkey').to_numpy(zero_copy_only=False) % 10
        s = batch.column('l_suppkey').to_numpy(zero_copy_only=False) % 10
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(np.column_stack([o, p, s]).ravel(), type=pa.int64()), 3)
        return pa.table({'l_orderkey': batch.column('l_orderkey'),
                         'arr': arr.cast(pa.list_(pa.int64()))})

    ds = ds.map_batches(build, batch_format='pyarrow')
    spec = {'properties': {'arr': {'type': 'array', 'uniqueItems': True}}}
    return _violations(ds, spec, 'l_orderkey')


def q_tupleitems_part(sf_dir: str):
    """Tuple-form items: per-index sub-schemas over [p_size, p_retailprice];
    fast-fail reports the first failing index."""
    ds = _read(sf_dir, 'part', ['p_partkey', 'p_size', 'p_retailprice'])

    def build(batch: pa.Table) -> pa.Table:
        sz = batch.column('p_size').to_numpy(zero_copy_only=False).astype(np.float64)
        rp = batch.column('p_retailprice').to_numpy(zero_copy_only=False)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(np.column_stack([sz, rp]).ravel(), type=pa.float64()), 2)
        return pa.table({'p_partkey': batch.column('p_partkey'),
                         'arr': arr.cast(pa.list_(pa.float64()))})

    ds = ds.map_batches(build, batch_format='pyarrow')
    spec = {'properties': {'arr': {'type': 'array', 'items': [
        {'maximum': 25}, {'maximum': 990}]}}}
    return _violations(ds, spec, 'p_partkey', cols=('key', 'name'))


def q_contains_embeddings(sf_dir: str):
    """contains keyword over the float32 embedding list column."""
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    spec = {'properties': {'embedding': {'type': 'array',
                                         'contains': {'minimum': 0.25}}}}
    return _violations(ds, spec, 'vec_id')


def q_b64_documents(sf_dir: str):
    """contentEncoding:base64 decode transform; %7==0 rows carry a
    non-decodable payload."""
    import base64 as b64mod
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])

    def build(batch: pd.DataFrame) -> pd.DataFrame:
        enc = batch['text'].str.slice(0, 16).apply(
            lambda t: None if t is None or (isinstance(t, float))
            else b64mod.b64encode(t.encode()).decode())
        enc = enc.mask(batch['doc_id'] % 7 == 0, 'xxxxx')
        return pa.table({'doc_id': pa.array(batch['doc_id'], type=pa.int64()),
                         'b64': pa.array(enc, type=pa.string())})

    ds = ds.map_batches(build, batch_format='pandas')
    spec = {'properties': {'b64': {'type': 'string',
                                   'contentEncoding': 'base64'}}}
    return _violations(ds, spec, 'doc_id')


def _events_kmap(batch: pa.Table) -> pa.Table:
    """Derived map<string,double> column {'k': value} (+'extra' if value>250)."""
    vals = batch.column('value').to_pylist()
    items = [[('k', v)] + ([('extra', v)] if v is not None and v > 250 else [])
             for v in vals]
    m = pa.array(items, type=pa.map_(pa.string(), pa.float64()))
    return pa.table({'event_id': batch.column('event_id'), 'm': m})


def _events_typemap(batch: pa.Table) -> pa.Table:
    """Derived map<string,double> column {event_type: value}."""
    et = batch.column('event_type').to_pylist()
    vals = batch.column('value').to_pylist()
    # Map keys must be non-null in Arrow: a null event_type yields an
    # EMPTY map for that row (the SQL skip-null-entry convention).
    m = pa.array([[(t, v)] if t is not None else []
                  for t, v in zip(et, vals)],
                 type=pa.map_(pa.string(), pa.float64()))
    return pa.table({'event_id': batch.column('event_id'), 'm': m})


def q_maxprops_events(sf_dir: str):
    """maxProperties over a real map column (scalar-fallback node)."""
    ds = _read(sf_dir, 'events', ['event_id', 'value'])
    ds = ds.map_batches(_events_kmap, batch_format='pyarrow')
    spec = {'properties': {'m': {'type': 'object', 'maxProperties': 1}}}
    return _violations(ds, spec, 'event_id')


def q_minprops_events(sf_dir: str):
    """minProperties over the same derived map column."""
    ds = _read(sf_dir, 'events', ['event_id', 'value'])
    ds = ds.map_batches(_events_kmap, batch_format='pyarrow')
    spec = {'properties': {'m': {'type': 'object', 'minProperties': 2}}}
    return _violations(ds, spec, 'event_id')


def q_propertynames_events(sf_dir: str):
    """propertyNames pattern over map keys."""
    ds = _read(sf_dir, 'events', ['event_id', 'event_type', 'value'])
    ds = ds.map_batches(_events_typemap, batch_format='pyarrow')
    spec = {'properties': {'m': {'type': 'object', 'propertyNames': {
        'pattern': '^(click|view|signup)$'}}}}
    return _violations(ds, spec, 'event_id')


def q_addprops_events(sf_dir: str):
    """additionalProperties: false with declared properties over map keys."""
    ds = _read(sf_dir, 'events', ['event_id', 'event_type', 'value'])
    ds = ds.map_batches(_events_typemap, batch_format='pyarrow')
    spec = {'properties': {'m': {
        'type': 'object',
        'properties': {'click': {'type': 'number'},
                       'view': {'type': 'number'}},
        'additionalProperties': False}}}
    return _violations(ds, spec, 'event_id')


def q_patternprops_events(sf_dir: str):
    """patternProperties: value bound applies only to regex-matched keys."""
    ds = _read(sf_dir, 'events', ['event_id', 'event_type', 'value'])
    ds = ds.map_batches(_events_typemap, batch_format='pyarrow')
    spec = {'properties': {'m': {'type': 'object', 'patternProperties': {
        '^(click|error)$': {'maximum': 100}}}}}
    return _violations(ds, spec, 'event_id')


def q_boolschema_events(sf_dir: str):
    """Boolean sub-schema (properties: {value: false}) — draft-06 form."""
    ds = _read(sf_dir, 'events', ['event_id', 'value'])
    spec = {'properties': {'value': False}}
    return _violations(ds, spec, 'event_id')


def q_sliding_events(sf_dir: str):
    """Sliding windows (1h window, 30min slide): each event lands in
    window/slide overlapping buckets via vectorized expansion + partial agg."""
    from python_fastjsonschema_ray.stages.windows import sliding_window_agg
    ds = _read(sf_dir, 'events', ['ts', 'event_type', 'value'])
    out = sliding_window_agg(ds, 'ts', 'event_type', 'value', 3600, 1800)

    def round_sum(batch: pd.DataFrame) -> pd.DataFrame:
        batch['sum_value'] = batch['sum_value'].round(2)
        return batch

    return out.map_batches(round_sum, batch_format='pandas')


def q_ann_ivf_partitioned_topk(sf_dir: str):
    """The IVF SCALE path end-to-end: write the tagged table
    hive-partitioned by cluster, then probe by reading ONLY the matching
    cluster directories (I/O ∝ nprobe/nlist).  nprobe == nlist reads
    everything, so the result must equal exact brute force — DuckDB-
    checkable like ann_ivf_topk."""
    import shutil
    import tempfile
    from python_fastjsonschema_ray.stages.ann import (
        build_ivf, topk_cosine_ivf_partitioned, write_ivf_partitioned)
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    tagged, centroids = build_ivf(ds, 'embedding', nlist=8)
    out_dir = tempfile.mkdtemp(prefix='ivf_part_', dir='/tmp')
    try:
        write_ivf_partitioned(tagged, out_dir)
        df = topk_cosine_ivf_partitioned(
            out_dir, centroids, 'vec_id', 'embedding',
            np.asarray(_ANN_QUERY), k=10, nprobe=8)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return pd.DataFrame({
        'vec_id': df['vec_id'].astype('int64'),
        'sim': df['sim'].round(4),
    })


def q_ann_ivf_topk(sf_dir: str):
    """IVF probe with nprobe == nlist (all clusters): must equal the exact
    brute-force top-k, making the IVF path DuckDB-checkable."""
    from python_fastjsonschema_ray.stages.ann import build_ivf, topk_cosine_ivf
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    tagged, centroids = build_ivf(ds, 'embedding', nlist=8)
    df = topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding',
                         np.asarray(_ANN_QUERY), k=10, nprobe=8)
    return pd.DataFrame({
        'vec_id': df['vec_id'].astype('int64'),
        'sim': df['sim'].round(4),
    })


def q_referential_bloom_orders(sf_dir: str):
    """Bloom-filter referential variant (broadcastable at 10^9 keys):
    no false violations, so on clean data it must match the exact check."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_bloom)
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer', ['c_custkey'])
    out, _fpr = check_referential_bloom(orders, 'o_custkey',
                                        customer, 'c_custkey')
    return _df_with_columns(out, ['o_orderkey', 'o_custkey'])


def q_referential_large_orders(sf_dir: str):
    """The exact referential check under its former large-side name;
    its size gate picks the broadcast lookup or the co-group."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large)
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer', ['c_custkey'])
    out = check_referential_large(orders, 'o_custkey', customer, 'c_custkey')
    return _df_with_columns(out, ['o_orderkey', 'o_custkey'])


def q_salted_group_events(sf_dir: str):
    """Grouped sum and count over a skewed key: each block sends the hot
    key as one partial row, so the fold needs no salt."""
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    ds = _read(sf_dir, 'events', ['event_type', 'value'])
    out = grouped_agg(ds, ['event_type'], {'sum_value': ('value', 'sum'),
                                           'n': ('value', 'count')})

    def round_sum(batch: pd.DataFrame) -> pd.DataFrame:
        batch['sum_value'] = batch['sum_value'].round(2)
        return batch

    return out.map_batches(round_sum, batch_format='pandas')


def q_violation_examples_lineitem(sf_dir: str):
    """top_violation_examples triage view: first-k per rule; the driver
    checks the deterministic part (per-rule example COUNT, capped at k)."""
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    from python_fastjsonschema_ray.pipelines.validate import (
        top_violation_examples, validate_dataset)
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity', 'l_discount'])
    spec = {'properties': {
        'l_quantity': {'type': 'number', 'maximum': 45},
        'l_discount': {'type': 'number', 'maximum': 0.08},
    }}
    violations = validate_dataset(ds, spec, mode='violations',
                                  key_column='l_orderkey', fast_fail=False)
    examples = top_violation_examples(violations, k=5)
    return grouped_agg(examples, ['rule'], {'n_examples': (None, 'count')},
                       num_buckets=1)


def q_histogram_lineitem(sf_dir: str):
    """Fixed-edge mergeable histogram (the drift profile primitive)."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        histogram_profile)
    ds = _read(sf_dir, 'lineitem', ['l_quantity'])
    counts = histogram_profile(ds, 'l_quantity', np.linspace(0, 55, 23))
    df = pd.DataFrame({'bin': np.arange(22, dtype=np.int64),
                       'n': counts.astype(np.int64)})
    return df[df['n'] > 0]   # SQL GROUP BY emits only non-empty bins


def q_drift_groups_lineitem(sf_dir: str):
    """Per-group drift over l_returnflag: SQL checks the per-group row
    conservation; PSI/KS values are covered by component tests."""
    from python_fastjsonschema_ray.pipelines.constraints import drift_by_group
    ds = _read(sf_dir, 'lineitem', ['l_quantity', 'l_returnflag'])
    reports = drift_by_group(ds, 'l_quantity', 'l_returnflag',
                             np.linspace(0, 55, 23))
    return pd.DataFrame({'grp': [r['group'] for r in reports],
                         'n': [r['n'] for r in reports]})


def q_plugin_even_lineitem(sf_dir: str):
    """Custom-keyword plugin surface (SURVEY §2.5 user extensions): a
    brand-new 'isEvenQty' keyword registered IN THE WORKER (plugin
    registries are per-process; compile happens where the batch runs),
    evaluated by the engine's derived per-row kernel."""
    from python_fastjsonschema_ray.stages.per_worker import PerWorker
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity'])
    spec = {'properties': {'l_quantity': {'type': 'number',
                                          'isEvenQty': True}}}

    def even_qty_stage(schema):
        from python_fastjsonschema_ray.functions import plugins
        from python_fastjsonschema_ray.pipelines.validate import ValidatorStage
        if 'isEvenQty' not in plugins.REGISTRY:
            plugins.register_keyword(
                'isEvenQty',
                check_value=lambda v, d: (
                    ' must be even'
                    if isinstance(v, (int, float)) and v % 2 else None))
        return ValidatorStage(spec, schema, mode='violations',
                              key_column='l_orderkey')

    stage = PerWorker(even_qty_stage)
    return ds.map_batches(lambda b: stage.for_schema(b.schema)(b),
                          batch_format='pyarrow').select_columns(['key'])


# -- non-SQL-expressible operators (rows-only driver check) -----------------


def q_video_frame_sample(sf_dir: str):
    """Multimodal frame sampling: a deterministic synthetic V6 video
    shard (sources/videos.py) → every 3rd frame sliced by offset from
    the Arrow binary buffer, per-frame phash — one row per sampled
    frame.  Rows-only (binary codecs are not SQL-expressible); per-frame
    exactness is pinned by tests/test_videos.py against the
    ground-truth generator."""
    from python_fastjsonschema_ray.sources.videos import video_dataset
    from python_fastjsonschema_ray.stages.decode import frame_sample
    ds = video_dataset(200, seed=42, shard_rows=50)
    out = frame_sample(ds, stride=3, batch_size=16)
    return _df_with_columns(
        out, ['video_id', 'frame_idx', 'ts_s', 'w', 'h', 'phash'])


def q_audio_features(sf_dir: str):
    """Multimodal audio feature extraction: a deterministic synthetic A6
    PCM shard (sources/audio.py) → per-clip frame-level features (RMS,
    zero-crossing rate, clipping fraction, dominant frequency) via the
    stage of stages/audio.py.  Rows-only; per-clip exactness
    is pinned by tests/test_audio.py against the ground-truth
    generator."""
    from python_fastjsonschema_ray.sources.audio import audio_dataset
    from python_fastjsonschema_ray.stages.audio import audio_features
    ds = audio_dataset(256, seed=42, shard_rows=64)
    out = audio_features(ds, batch_size=32)

    def round_feats(batch: pd.DataFrame) -> pd.DataFrame:
        for c in ('duration_s', 'rms_mean', 'rms_max', 'zcr_mean',
                  'clip_frac', 'dominant_hz'):
            batch[c] = batch[c].round(6)
        return batch

    out = out.map_batches(round_feats, batch_format='pandas')
    return _df_with_columns(
        out, ['audio_id', 'ok', 'duration_s', 'n_frames', 'rms_mean',
              'rms_max', 'zcr_mean', 'clip_frac', 'dominant_hz'])


def q_hamming_near_dup_documents(sf_dir: str):
    """SimHash signatures → 64-bit hamming near-dup pairs (pigeonhole
    banding, guaranteed recall at max_dist < bands); the SURVEY §2.5
    "phash hamming buckets" operator. Rows-only (simhash is not
    SQL-expressible); exactness is pinned by the brute-force test."""
    from python_fastjsonschema_ray.stages.dedup import (
        SimHashStage, hamming_near_dup)
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    sigs = ds.map_batches(SimHashStage('doc_id', 'text'),
                          batch_format='pandas')
    return hamming_near_dup(sigs, 'doc_id', 'simhash', max_dist=3)


def q_dedup_minhash_documents(sf_dir: str):
    """End-to-end near-dup removal (losers dropped via object-store
    broadcast of loser ids); rows-only — the kept-set depends on LSH
    banding recall at the threshold."""
    from python_fastjsonschema_ray.stages.dedup import dedup_minhash
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    kept = dedup_minhash(ds, 'doc_id', 'text', threshold=0.8)
    return kept.select_columns(['doc_id'])


def q_dedup_minhash_transitive_documents(sf_dir: str):
    """Cluster-level near-dup removal: connected components of the pair
    graph collapse to their min id (a~b~c keeps only a); rows-only for
    the same banding-recall reason as the pairwise variant."""
    from python_fastjsonschema_ray.stages.dedup import dedup_minhash
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    kept = dedup_minhash(ds, 'doc_id', 'text', threshold=0.8,
                         transitive=True)
    return kept.select_columns(['doc_id'])


def q_langid_documents(sf_dir: str):
    from python_fastjsonschema_ray.stages.text import LangIdStage
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = ds.map_batches(LangIdStage('text'), batch_format='pandas')
    return out.select_columns(['doc_id', 'lang_pred'])


def q_fingerprint_documents(sf_dir: str):
    from python_fastjsonschema_ray.stages.text import FingerprintStage
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = ds.map_batches(FingerprintStage('text'), batch_format='pandas')
    return out.select_columns(['doc_id', 'fingerprint'])


def q_simhash_documents(sf_dir: str):
    from python_fastjsonschema_ray.stages.dedup import SimHashStage
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = ds.map_batches(SimHashStage('doc_id', 'text'),
                         batch_format='pandas')
    return out.select_columns(['doc_id', 'simhash'])


def q_minhash_pairs_documents(sf_dir: str):
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import minhash_duplicate_pairs
    # The documents table is one small file → one block; split it so the
    # signature stage parallelizes (a real corpus has many files/fragments).
    import pyarrow.parquet as pq
    n_blocks = max(8, int(ray.cluster_resources().get('CPU', 8)))
    path = '{}/documents.parquet'.format(sf_dir)
    full = pq.read_schema(path).remove_metadata()
    clean = pa.schema([full.field(c) for c in ['doc_id', 'text']])
    ds = ray.data.read_parquet(path, columns=['doc_id', 'text'],
                               schema=clean, override_num_blocks=n_blocks)
    return minhash_duplicate_pairs(ds, 'doc_id', 'text', threshold=0.8)


def q_ngram_jaccard_documents(sf_dir: str):
    """EXACT character-5-gram Jaccard near-dup pairs at >= 0.8 via
    AllPairs/PPJoin prefix filtering (stages/dedup.py:ngram_jaccard_pairs)
    — unlike the minhash query this one is oracle-checkable: DuckDB can
    compute the same exact Jaccard by exploding distinct substrings."""
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import ngram_jaccard_pairs
    import pyarrow.parquet as pq
    n_blocks = max(8, int(ray.cluster_resources().get('CPU', 8)))
    path = '{}/documents.parquet'.format(sf_dir)
    full = pq.read_schema(path).remove_metadata()
    clean = pa.schema([full.field(c) for c in ['doc_id', 'text']])
    ds = ray.data.read_parquet(path, columns=['doc_id', 'text'],
                               schema=clean, override_num_blocks=n_blocks)
    return ngram_jaccard_pairs(ds, 'doc_id', 'text', threshold=0.8)


def q_embedding_near_dup(sf_dir: str):
    """Hyperplane-LSH embedding near-dup at cosine >= 0.999; exact in-
    bucket verification means no false pairs, and at this threshold the
    LSH bucket miss probability is negligible, so the DuckDB all-pairs
    cosine self-join is a valid oracle."""
    from python_fastjsonschema_ray.stages.dedup import embedding_duplicate_pairs
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    out = embedding_duplicate_pairs(ds, 'vec_id', 'embedding', dim=64,
                                    threshold=0.999)
    return _df_with_columns(out, ['id_a', 'id_b'])


def q_tfidf_top_terms_documents(sf_dir: str):
    """Corpus TF-IDF, composed entirely from the engine's relational
    operators: explode words (vectorized) → grouped_agg tf per
    (doc, word) → grouped_agg df per word → broadcast_lookup_join →
    grouped_topk(1 per doc).  Output: each doc's top term (score is
    internal; tie-break word asc)."""
    import numpy as np
    from python_fastjsonschema_ray.pipelines.constraints import (
        grouped_agg, grouped_topk)
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    n_docs = ds.count()

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        tok_lists = [t.lower().split() for t in batch['text'].fillna('')]
        counts = np.fromiter(map(len, tok_lists), dtype=np.int64,
                             count=len(tok_lists))
        words = np.empty(int(counts.sum()), dtype=object)
        pos = 0
        for toks in tok_lists:
            words[pos:pos + len(toks)] = toks
            pos += len(toks)
        return pd.DataFrame({
            'doc_id': np.repeat(batch['doc_id'].to_numpy(), counts),
            'word': words})

    words = ds.map_batches(explode, batch_format='pandas')
    tf = grouped_agg(words, ['doc_id', 'word'],
                     {'tf': (None, 'count')}).materialize()
    # (doc, word) pairs are unique after tf, so df = docs per word.
    df = grouped_agg(tf, ['word'], {'df': (None, 'count')})
    df = df.map_batches(
        lambda b: b.rename_columns(['w', 'df']), batch_format='pyarrow')
    # The df table is vocabulary-sized — fine to broadcast at test
    # scale, but a corpus-scale vocab outgrows worker heaps, so the
    # join falls back to a shuffle above its size gate.
    scored = broadcast_lookup_join(tf, 'word', df, 'w', ['df'])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch['tfidf'] = batch['tf'] * np.log(
            float(n_docs) / batch['df'].to_numpy(dtype=np.float64))
        return batch

    scored = scored.map_batches(score, batch_format='pandas')
    top = grouped_topk(scored, ['doc_id'], ['tfidf', 'word'], 1,
                       descending=[True, False])
    out = top.map_batches(
        lambda b: b[['doc_id', 'word']].rename(columns={'word': 'term'}),
        batch_format='pandas')
    return _df_with_columns(out, ['doc_id', 'term'])


def q_distinct_count_part(sf_dir: str):
    """Exact COUNT(DISTINCT) of a two-column key: per-block collapse,
    bucketed fold, only per-bucket counts reach the driver."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        distinct_count)
    ds = _read(sf_dir, 'part', ['p_type', 'p_brand'])
    n = distinct_count(ds, ['p_type', 'p_brand'])
    return pd.DataFrame([{'n_distinct': n}])


def q_packing_plan_documents(sf_dir: str):
    """Concat-then-chunk packing plan (LLM pretraining sequences of 2048
    chars): each doc's (first sequence, offset, last sequence) from a
    distributed prefix sum over doc_id order — the one documented
    raw-ray-task scan (per-block sums -> driver prefix -> per-block
    plans)."""
    from python_fastjsonschema_ray.stages.pack import packing_plan
    ds = _read(sf_dir, 'documents', ['doc_id', 'n_chars'])
    out = packing_plan(ds, 'doc_id', 'n_chars', 2048)
    return _df_with_columns(
        out, ['id', 'seq_first', 'seq_offset', 'seq_last'])


def q_heavy_hitters_orders(sf_dir: str):
    """Exact heavy hitters over o_orderstatus (>10% of rows): two
    streaming passes (per-block candidate superset, then exact counts of
    the broadcast candidates), zero shuffle."""
    from python_fastjsonschema_ray.pipelines.constraints import heavy_hitters
    ds = _read(sf_dir, 'orders', ['o_orderstatus'])
    out = heavy_hitters(ds, 'o_orderstatus', 0.1)
    df = out.to_pandas()
    if df.empty:
        return pd.DataFrame({'value': pd.Series(dtype='object'),
                             'n': pd.Series(dtype='int64')})
    return df


def q_infer_schema_documents(sf_dir: str):
    """Schema inference (profile → draft JSON-Schema spec): one partial
    pass per block, folded on the driver.  The profile rows are the
    SQL-checkable surface; infer_table_spec wraps them into the spec
    TableValidator consumes."""
    from python_fastjsonschema_ray.pipelines.infer import profile_columns
    ds = _read(sf_dir, 'documents', ['doc_id', 'text', 'lang', 'n_chars'])
    rows = profile_columns(ds)
    return pd.DataFrame(rows, columns=['column', 'type', 'nullable',
                                       'min', 'max', 'min_length',
                                       'max_length'])


def q_sample_documents(sf_dir: str):
    """Deterministic ~10% sample keyed on doc_id (Knuth multiplicative
    hash mod 1e6): same membership on every re-run/cluster layout, pure
    per-batch filter."""
    from python_fastjsonschema_ray.stages.sample import deterministic_sample
    ds = _read(sf_dir, 'documents', ['doc_id'])
    return deterministic_sample(ds, 'doc_id', 0.1)


def q_stratified_sample_documents(sf_dir: str):
    """Exactly 5 docs per language, deterministically chosen by hash
    order of doc_id (grouped_topk under the hood)."""
    from python_fastjsonschema_ray.stages.sample import (
        stratified_sample_exact)
    ds = _read(sf_dir, 'documents', ['doc_id', 'lang'])
    out = stratified_sample_exact(ds, ['lang'], 'doc_id', 5)
    return _df_with_columns(out, ['lang', 'doc_id'])


def q_chunk_documents(sf_dir: str):
    """Fixed 200-char windows with 40-char overlap (stride 160), the
    pre-packing split step: one row per chunk, pure streaming flat-map
    (no shuffle; chunks never leave the worker holding the parent
    document)."""
    from python_fastjsonschema_ray.stages.chunk import chunk_text
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = chunk_text(ds, 'doc_id', 'text', chunk_chars=200, overlap=40)
    return _df_with_columns(out, ['doc_id', 'chunk_idx', 'chunk_text'])


def q_repetition_documents(sf_dir: str):
    """Gopher-style intra-document repetition: fraction of word
    characters belonging to words repeated within the SAME document
    (filter threshold for boilerplate removal).  Pure map_batches."""
    from python_fastjsonschema_ray.stages.chunk import repetition_stats
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = repetition_stats(ds, 'doc_id', 'text', separator=' ')
    return _df_with_columns(out, ['doc_id', 'dup_char_ratio', 'n_segments'])


def q_mixture_sample_documents(sf_dir: str):
    """Domain-mixture resampling: rebalance the corpus to a 50/25/25
    en/zh/es language mixture of 40 docs, membership decided by hash
    order of doc_id (largest-remainder quotas; per-group quota-prefix
    cut so at most quota rows per group per block shuffle)."""
    from python_fastjsonschema_ray.stages.sample import (
        mixture_quotas, mixture_sample_exact)
    ds = _read(sf_dir, 'documents', ['doc_id', 'lang'])
    quotas = mixture_quotas({'en': 0.5, 'zh': 0.25, 'es': 0.25}, 40)
    out = mixture_sample_exact(ds, 'lang', 'doc_id', quotas)
    return _df_with_columns(out, ['lang', 'doc_id'])


def q_topk_per_lang_documents(sf_dir: str):
    """Grouped top-k: 3 longest documents per language, deterministic
    tie-break on doc_id; only k rows per group per block ever shuffle."""
    from python_fastjsonschema_ray.pipelines.constraints import grouped_topk
    ds = _read(sf_dir, 'documents', ['doc_id', 'lang', 'n_chars'])
    out = grouped_topk(ds, ['lang'], ['n_chars', 'doc_id'], k=3,
                       descending=[True, False])
    return _df_with_columns(out, ['lang', 'doc_id', 'n_chars'])


def q_quantiles_lineitem(sf_dir: str):
    """EXACT distributed quantiles (quantile_disc semantics) by
    iterative histogram narrowing — no shuffle, no materialization,
    O(log) streaming scans; the t-digest in column_stats is the one-pass
    approximate sibling."""
    from python_fastjsonschema_ray.stages.quantile import exact_quantile
    ds = _read(sf_dir, 'lineitem', ['l_extendedprice'])
    rows = []
    for q in (0.5, 0.9, 0.99):
        v = exact_quantile(ds, 'l_extendedprice', q)
        rows.append({'q': q,
                     'value': None if v is None else round(v, 2)})
    return pd.DataFrame(rows)


def q_join_orders_customer(sf_dir: str):
    """Dimension enrichment: broadcast lookup join of orders against the
    customer table (small side ships once as object-store refs; per
    batch one vectorized index_in + take, no shuffle)."""
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer', ['c_custkey', 'c_mktsegment'])
    out = broadcast_lookup_join(orders, 'o_custkey', customer, 'c_custkey',
                                ['c_mktsegment'], how='inner')
    return out.select_columns(['o_orderkey', 'c_mktsegment'])


def q_join_lineitem_orders(sf_dir: str):
    """Large-large equi-join: lineitem x orders on the order key via the
    bucketed shuffle join (both sides exchange once on a coarse key
    hash; per-bucket vectorized merge)."""
    from python_fastjsonschema_ray.stages.join import shuffle_join
    li = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_quantity'])
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_orderstatus'])
    out = shuffle_join(li, orders, 'l_orderkey', 'o_orderkey',
                       ['o_orderstatus'])
    return _df_with_columns(
        out, ['l_orderkey', 'l_quantity', 'o_orderstatus'])


def q_left_join_orders_customer(sf_dir: str):
    """LEFT outer equi-join through the bucketed shuffle join: orders
    against the BUILDING-segment customer subset; unmatched orders
    survive with typed-null enrichment (stages/join.py:shuffle_join
    how='left' — null-key lefts split off so pandas' NaN==NaN matching
    can't leak, int columns rebuilt to their Arrow types)."""
    from python_fastjsonschema_ray.stages.join import shuffle_join
    orders = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])
    customer = _read(sf_dir, 'customer', ['c_custkey', 'c_mktsegment'])

    def building_only(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b.column('c_mktsegment'), 'BUILDING'))

    sub = customer.map_batches(building_only, batch_format='pyarrow')
    out = shuffle_join(orders, sub, 'o_custkey', 'c_custkey',
                       ['c_mktsegment'], how='left')
    return _df_with_columns(
        out, ['o_orderkey', 'o_custkey', 'c_mktsegment'])


def q_token_budget_documents(sf_dir: str):
    """Budgeted mixture: per language, keep docs in hash order of
    doc_id while the running n_chars total stays within the language's
    token budget (en 20k, zh 8k chars) — mixture targets in TOKENS, the
    data-mixing primitive.  Hash-rank map + grouped_scan cumsum (one
    bucketed exchange) + broadcast budget cut
    (stages/sample.py:token_budget_sample)."""
    from python_fastjsonschema_ray.stages.sample import token_budget_sample
    ds = _read(sf_dir, 'documents', ['doc_id', 'lang', 'n_chars'])
    out = token_budget_sample(ds, 'lang', 'doc_id', 'n_chars',
                              {'en': 20000, 'zh': 8000})
    return _df_with_columns(out, ['lang', 'doc_id', 'n_chars'])


def q_pivot_orders(sf_dir: str):
    """Wide reshape: order counts per priority x status.  grouped_agg
    partials on (priority, status) — one partial row per distinct pair
    per block — then a result-sized driver pivot
    (pipelines/constraints.py:pivot_table)."""
    from python_fastjsonschema_ray.pipelines.constraints import pivot_table
    ds = _read(sf_dir, 'orders', ['o_orderpriority', 'o_orderstatus'])
    return pivot_table(ds, ['o_orderpriority'], 'o_orderstatus')


def q_curate_documents(sf_dir: str):
    """The composed curation recipe end-to-end (rows-only: the minhash
    stage has no SQL equivalent): normalize -> lang/quality filter ->
    exact dedup (fingerprint winners, broadcast semi-join) -> MinHash
    near-dedup -> repetition ceiling -> chunk -> split labels.  Every
    step is an engine operator; see pipelines/curate.py."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.curate import curate_corpus
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])
    out = curate_corpus(ds, languages={'en', 'fr', 'de', 'es', 'zh'},
                        min_quality=0.1, near_dup_threshold=0.8,
                        max_dup_char_ratio=0.999, chunk_chars=200,
                        overlap=40,
                        split_fractions={'train': 0.9, 'val': 0.1})
    return _df_with_columns(
        out, ['doc_id', 'chunk_idx', 'chunk_text', 'split'])


def q_split_documents(sf_dir: str):
    """Deterministic train/val/test assignment (80/10/10) by hash range
    of doc_id: disjoint, exhaustive, stable across re-runs and cluster
    layouts.  Pure per-batch map (stages/sample.py:deterministic_split);
    the first split's membership rule is exactly deterministic_sample's."""
    from python_fastjsonschema_ray.stages.sample import deterministic_split
    ds = _read(sf_dir, 'documents', ['doc_id'])
    out = deterministic_split(ds, 'doc_id',
                              {'train': 0.8, 'val': 0.1, 'test': 0.1})
    return _df_with_columns(out, ['doc_id', 'split'])


def q_vocabulary_documents(sf_dir: str):
    """Corpus vocabulary: the 50 most frequent words with exact counts
    (count desc, word asc tie-break).  Explode is a vectorized
    per-batch flat-map; counts fold through grouped_agg's map-side
    combine and hash exchange, then global_topk keeps 50 rows per block
    and folds them in a one-bucket exchange — only the 50 winners reach
    the driver (the full vocab, billions of distinct words at corpus
    scale, never does)."""
    import numpy as np
    from python_fastjsonschema_ray.pipelines.constraints import (
        global_topk, grouped_agg)
    ds = _read(sf_dir, 'documents', ['text'])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        tok_lists = [t.lower().split() for t in batch['text'].fillna('')]
        counts = np.fromiter(map(len, tok_lists), dtype=np.int64,
                             count=len(tok_lists))
        words = np.empty(int(counts.sum()), dtype=object)
        pos = 0
        for toks in tok_lists:
            words[pos:pos + len(toks)] = toks
            pos += len(toks)
        return pd.DataFrame({'word': words})

    words = ds.map_batches(explode, batch_format='pandas')
    vocab = grouped_agg(words, ['word'], {'n': (None, 'count')})
    top = global_topk(vocab, ['n', 'word'], 50,
                      descending=[True, False])
    tdf = top.to_pandas()              # ≤ 50 rows by construction
    if tdf.empty:                      # empty corpus drops the schema
        return pd.DataFrame({'word': pd.Series(dtype='object'),
                             'n': pd.Series(dtype='int64')})
    return tdf.reset_index(drop=True)[['word', 'n']]


def q_winsorize_lineitem(sf_dir: str):
    """Quantile winsorization: l_extendedprice clipped to its exact
    [p05, p95] discrete quantiles.  Bounds come from the
    histogram-narrowing exact-quantile fold (counting scans, no sort),
    then one broadcast vectorized clip pass
    (stages/scale.py:winsorize_columns)."""
    from python_fastjsonschema_ray.stages.scale import winsorize_columns
    ds = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_linenumber',
                                    'l_extendedprice'])
    out = winsorize_columns(ds, ['l_extendedprice'],
                            lower_q=0.05, upper_q=0.95)
    return _df_with_columns(out, ['l_orderkey', 'l_linenumber',
                                  'l_extendedprice_w'])


def q_rank_documents(sf_dir: str):
    """Exact global ranking (ROW_NUMBER over a total order): documents
    by descending length, doc_id tiebreak.  Dataset.sort
    range-partitions into ordered blocks, then a counts-only prefix
    fold stamps offset+arange per block — payload rows cross the wire
    once (stages/scan.py:global_rank)."""
    from python_fastjsonschema_ray.stages.scan import global_rank
    ds = _read(sf_dir, 'documents', ['doc_id', 'n_chars'])
    out = global_rank(ds, ['n_chars', 'doc_id'],
                      descending=[True, False])
    return _df_with_columns(out, ['doc_id', 'n_chars', 'rank'])


def q_semi_join_lineitem_part(sf_dir: str):
    """SQL EXISTS as a broadcast semi join: lineitem rows whose part is
    oversized (p_size > 40).  The filtered part keys ship once as
    object-store refs; per batch one vectorized index_in filter, no
    columns appended, no shuffle (stages/join.py how='semi')."""
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    li = _read(sf_dir, 'lineitem', ['l_orderkey', 'l_partkey',
                                    'l_quantity'])
    part = _read(sf_dir, 'part', ['p_partkey', 'p_size'])

    def oversized(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.greater(b.column('p_size'), 40))

    big = part.map_batches(oversized, batch_format='pyarrow')
    out = broadcast_lookup_join(li, 'l_partkey', big, 'p_partkey',
                                how='semi')
    return _df_with_columns(out, ['l_orderkey', 'l_partkey', 'l_quantity'])


def q_anti_join_customer_orders(sf_dir: str):
    """SQL NOT EXISTS at shuffle scale: customers with no finished
    ('F') order.  The order side collapses to per-block DISTINCT
    custkeys before the exchange, so the shuffle moves customer rows
    plus one key row per distinct customer per block
    (stages/join.py:_shuffle_semi_anti)."""
    from python_fastjsonschema_ray.stages.join import shuffle_join
    customer = _read(sf_dir, 'customer', ['c_custkey', 'c_mktsegment'])
    orders = _read(sf_dir, 'orders', ['o_custkey', 'o_orderstatus'])

    def finished(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b.column('o_orderstatus'), 'F'))

    fin = orders.map_batches(finished, batch_format='pyarrow')
    out = shuffle_join(customer, fin, 'c_custkey', 'o_custkey', [],
                       how='anti')
    return _df_with_columns(out, ['c_custkey', 'c_mktsegment'])


def q_grouped_quantiles_lineitem(sf_dir: str):
    """Exact per-group discrete quantiles (median + p95 of extended
    price per return flag): one (key, value) exchange on a coarse key
    bucket, one vectorized sort+cumcount ranking pass per bucket
    (stages/quantile.py:grouped_quantile)."""
    from python_fastjsonschema_ray.stages.quantile import grouped_quantile
    ds = _read(sf_dir, 'lineitem', ['l_returnflag', 'l_extendedprice'])
    out = grouped_quantile(ds, ['l_returnflag'], 'l_extendedprice',
                           [0.5, 0.95])

    def round_val(batch: pd.DataFrame) -> pd.DataFrame:
        batch['value'] = batch['value'].round(2)
        return batch

    out = out.map_batches(round_val, batch_format='pandas')
    return _df_with_columns(out, ['l_returnflag', 'q', 'value'])


def q_asof_join_events_orders(sf_dir: str):
    """Per-key AS-OF join (temporal enrichment): each event, given a
    deterministic derived timestamp inside the orders' date range,
    matched to the MOST RECENT order of its user at or before that
    instant.  One coarse bucket exchange on the by-key, vectorized
    ``pandas.merge_asof`` per bucket (stages/join.py:asof_join); ties
    on the order date resolve to the greatest order key, matching the
    oracle's ROW_NUMBER window."""
    from python_fastjsonschema_ray.stages.join import asof_join
    events = _read(sf_dir, 'events', ['event_id', 'user_id'])

    def derive_ts(b: pd.DataFrame) -> pd.DataFrame:
        b['ats'] = (pd.Timestamp('1995-01-01') +
                    pd.to_timedelta(b['event_id'] % 2557, unit='D'))
        return b

    events = events.map_batches(derive_ts, batch_format='pandas')
    orders = _read(sf_dir, 'orders',
                   ['o_orderkey', 'o_custkey', 'o_orderdate',
                    'o_totalprice'])
    out = asof_join(events, orders, 'ats', 'o_orderdate',
                    'user_id', 'o_custkey',
                    ['o_orderkey', 'o_totalprice'],
                    tiebreak=['o_orderkey'], how='inner')
    return _df_with_columns(out, ['event_id', 'o_orderkey', 'o_totalprice'])


def q_interval_join_events_orders(sf_dir: str):
    """Keyed RANGE join: every (event, order-window) pair where the
    event's derived timestamp falls in the order's 30-day window and the
    user matches — SQL inner-join multiplicity over overlapping
    intervals.  The interval side broadcasts once as object-store refs;
    per batch one vectorized merge + boundary mask, no shuffle
    (stages/join.py:broadcast_interval_join)."""
    from python_fastjsonschema_ray.stages.join import (
        broadcast_interval_join)
    events = _read(sf_dir, 'events', ['event_id', 'user_id'])

    def derive_ts(b: pd.DataFrame) -> pd.DataFrame:
        b['ats'] = (pd.Timestamp('1995-01-01') +
                    pd.to_timedelta(b['event_id'] % 2557, unit='D'))
        return b

    events = events.map_batches(derive_ts, batch_format='pandas')
    orders = _read(sf_dir, 'orders',
                   ['o_orderkey', 'o_custkey', 'o_orderdate'])

    def add_end(b: pd.DataFrame) -> pd.DataFrame:
        b['o_end'] = b['o_orderdate'] + pd.Timedelta(days=30)
        return b

    iv = orders.map_batches(add_end, batch_format='pandas')
    out = broadcast_interval_join(
        events, 'ats', iv, 'o_orderdate', 'o_end', ['o_orderkey'],
        key='user_id', interval_key='o_custkey')
    return _df_with_columns(out, ['event_id', 'o_orderkey'])


def q_cumsum_lineitem(sf_dir: str):
    """Per-key ordered running scan (SQL window functions): row number
    and running quantity sum per order, ordered by line number.  One
    (key, order, value) exchange on a coarse key bucket, one vectorized
    mergesort + segmented-cumsum pass per bucket — no per-group Python
    (stages/scan.py:grouped_scan)."""
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    # l_linenumber alone has ties in this synthetic data; the extra
    # order columns make the scan order unique (verified at all SFs),
    # exactly as a SQL window needs a deterministic ORDER BY.
    order = ['l_linenumber', 'l_partkey', 'l_suppkey', 'l_extendedprice']
    ds = _read(sf_dir, 'lineitem',
               ['l_orderkey'] + order + ['l_quantity'])
    out = grouped_scan(ds, ['l_orderkey'], order, 'l_quantity',
                       ops=('row_number', 'cumsum'))
    return _df_with_columns(
        out, ['l_orderkey'] + order + ['l_quantity',
              'row_number', 'cumsum'])


def q_rolling_events(sf_dir: str):
    """Per-user ordered event analytics: previous value (lag), delta,
    and a 4-row rolling mean over each user's event stream ordered by
    (ts, event_id).  ROWS-frame semantics; rolling sums come from a
    segmented cumsum difference, exact to FP rounding
    (stages/scan.py:grouped_scan)."""
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    ds = _read(sf_dir, 'events', ['user_id', 'ts', 'event_id', 'value'])
    out = grouped_scan(ds, ['user_id'], ['ts', 'event_id'], 'value',
                       ops=('lag', 'delta', 'rolling_mean'), window=4)
    return _df_with_columns(
        out, ['user_id', 'ts', 'event_id', 'value',
              'lag', 'delta', 'rolling_mean'])


def q_redact_documents(sf_dir: str):
    """PII redaction (corpus scrubbing): every third document gets a
    deterministic email+URL+IP suffix injected (the synthetic corpus
    carries no PII), then the RE2 rule chain replaces URL → EMAIL → IP
    placeholders — pure Arrow replace_substring_regex per batch, no
    shuffle (stages/clean.py:redact_text).  Oracle: the identical
    augmentation + regexp_replace chain in DuckDB (both engines are
    RE2)."""
    from python_fastjsonschema_ray.stages.clean import redact_text
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])

    def augment(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # Arrow end-to-end: null text stays null (an all-NaN pandas
        # column would become float64 and break the regex kernels).
        keys = np.asarray(b.column('doc_id').combine_chunks()
                          .fill_null(-1), dtype=np.int64)
        m = pa.array(keys % 3 == 0)
        ids = pc.cast(b.column('doc_id').combine_chunks(), pa.string())
        with_pii = pc.binary_join_element_wise(
            b.column('text').combine_chunks(), ' contact user', ids,
            '@example.com via http://site', ids,
            '.example/page or 10.1.2.3', '')
        t = pc.if_else(m, with_pii, b.column('text').combine_chunks())
        return b.set_column(b.column_names.index('text'), 'text', t)

    out = redact_text(ds.map_batches(augment, batch_format='pyarrow'),
                      'text')
    return _df_with_columns(out, ['doc_id', 'text'])


def q_normalize_documents(sf_dir: str):
    """Text canonicalization: documents are deterministically messed up
    (leading spaces, upper-cased, tab runs appended) and normalized
    back — lowercase, whitespace collapse, trim, all Arrow kernels per
    batch (stages/clean.py:normalize_text).  Oracle: the same mess +
    lower/regexp_replace/trim in DuckDB."""
    from python_fastjsonschema_ray.stages.clean import normalize_text
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])

    def mess(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # Arrow element-wise join: null text stays null (an all-NaN
        # pandas column would silently become float64 and break the
        # downstream string kernels).
        t = pc.binary_join_element_wise(
            '  ', pc.utf8_upper(b.column('text').combine_chunks()),
            '\t\t MiXeD  CASE ', '')
        return b.set_column(b.column_names.index('text'), 'text', t)

    out = normalize_text(ds.map_batches(mess, batch_format='pyarrow'),
                         'text')
    return _df_with_columns(out, ['doc_id', 'text'])


def q_decontaminate_documents(sf_dir: str):
    """Benchmark decontamination (eval-set leakage scan): every 50th
    document plays the benchmark; corpus docs sharing any word 8-gram
    with it are flagged with their distinct-overlap count.  Broadcast
    semi-join: the benchmark gram-hash set folds once and ships via
    ray.put; the corpus streams one tokenize+roll+searchsorted pass per
    batch — no shuffle (stages/decontam.py).  Oracle: exact string
    8-gram explode + semi-join in DuckDB."""
    from python_fastjsonschema_ray.stages.decontam import (
        benchmark_ngrams, decontaminate)
    ds = _read(sf_dir, 'documents', ['doc_id', 'text'])

    def is_bench(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column('doc_id'), dtype=np.int64)
        return batch.filter(pa.array(ids % 50 == 0))

    bench_ds = ds.map_batches(is_bench, batch_format='pyarrow')
    bench = benchmark_ngrams(bench_ds, 'text', n=8)
    out = decontaminate(ds, 'doc_id', 'text', bench, n=8)
    return _df_with_columns(out, ['doc_id', 'n_hits'])


def q_standardize_lineitem(sf_dir: str):
    """Z-score feature scaling: two shuffle-free streaming passes —
    per-block (n, sum, sum-of-squares) partials folded to mean/std,
    then one vectorized map against the broadcast constants
    (stages/scale.py).  Oracle: AVG / STDDEV_SAMP window over the
    whole table."""
    from python_fastjsonschema_ray.stages.scale import standardize_columns
    ds = _read(sf_dir, 'lineitem',
               ['l_orderkey', 'l_linenumber', 'l_quantity',
                'l_extendedprice'])
    out = standardize_columns(ds, ['l_quantity', 'l_extendedprice'])

    def round_z(batch: pd.DataFrame) -> pd.DataFrame:
        # 4dp on both sides: the mean/std fold sums block partials, so
        # its last-ulp drift depends on block boundaries (which shift
        # under memory pressure) — raw 6dp compare flaked ~1/10 runs.
        for c in ('l_quantity_z', 'l_extendedprice_z'):
            batch[c] = batch[c].round(4)
        return batch

    out = out.map_batches(round_z, batch_format='pandas')
    return _df_with_columns(
        out, ['l_orderkey', 'l_linenumber', 'l_quantity',
              'l_extendedprice', 'l_quantity_z', 'l_extendedprice_z'])


def q_diversity_sample_embeddings(sf_dir: str):
    """Cluster-balanced diversity sampling (SemDeDup shape): k-means
    the embeddings, keep exactly 4 docs per cluster by hash order —
    coverage of every semantic region instead of density-weighted
    sampling.  Iterative k-means, so rows-only
    (stages/cluster.py:cluster_balanced_sample)."""
    from python_fastjsonschema_ray.stages.cluster import (
        cluster_balanced_sample)
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    out = cluster_balanced_sample(ds, 'vec_id', 'embedding', k=8,
                                  n_per_cluster=4, iters=5, seed=11)
    return _df_with_columns(out, ['cluster', 'vec_id'])


def q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd k-means over the embedding corpus (corpus
    bucketing / semantic sharding).  Each iteration is one streaming
    matmul pass emitting k x dim partials per block — no shuffle at
    all; centroids broadcast via ray.put (stages/cluster.py).
    Iterative, so rows-only: output is one row per cluster with its
    size and centroid norm."""
    from python_fastjsonschema_ray.stages.cluster import (
        cluster_sizes, kmeans_assign, kmeans_fit)
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    k = 8
    cents, info = kmeans_fit(ds, 'embedding', k, iters=5, seed=11)
    tagged = kmeans_assign(ds, 'embedding', cents)
    sizes = cluster_sizes(tagged, k)
    return pd.DataFrame({
        'cluster': np.arange(k, dtype=np.int64),
        'n': sizes.astype(np.int64),
        'centroid_norm': np.linalg.norm(cents, axis=1).round(4),
    })


def q_pca_embeddings(sf_dir: str):
    """Distributed PCA (embedding whitening / dimensionality audit):
    one streaming moment pass — each block emits (n, sum, x^T x) —
    then a driver-side dim x dim eigendecomposition; the projection is
    one matmul per batch (stages/pca.py).  Eigendecomposition is not
    SQL-expressible → rows-only: one row per component with its
    explained-variance ratio and the projected corpus variance."""
    from python_fastjsonschema_ray.stages.pca import pca_fit, pca_transform
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    comp, info = pca_fit(ds, 'embedding', 4)
    proj = pca_transform(ds, 'embedding', comp, info['mean'])

    def var_partial(batch: pa.Table) -> pa.Table:
        import numpy as _np
        m = _np.asarray(batch.column('pca').combine_chunks().flatten(),
                        dtype=_np.float64).reshape(batch.num_rows, -1)
        return pa.table({'n': pa.array([batch.num_rows], pa.int64()),
                         'ss': pa.array([(m * m).sum(axis=0).tolist()])})

    import pyarrow.compute as pc
    from python_fastjsonschema_ray.functions.arrowutil import embedding_matrix
    from python_fastjsonschema_ray.stages.exchange import gather
    t = gather(proj.select_columns(['pca']).map_batches(
        var_partial, batch_format='pyarrow'))
    n, ss = pc.sum(t.column('n')).as_py(), np.zeros(4)
    for block_ss in embedding_matrix(t.column('ss')):
        ss += block_ss
    return pd.DataFrame({
        'component': np.arange(4, dtype=np.int64),
        'explained_variance_ratio':
            info['explained_variance_ratio'].round(6),
        'projected_variance': (ss / max(n - 1, 1)).round(4),
    })


def q_embedding_components(sf_dir: str):
    """Connected components (transitive near-dup clusters) over the
    embedding near-dup pair graph — each id maps to the min id of its
    cluster.  Oracle: DuckDB recursive CTE over the identical all-pairs
    cosine edge set (valid for the same reasons as embedding_near_dup:
    exact in-bucket verification, negligible LSH miss at 0.999)."""
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    from python_fastjsonschema_ray.stages.dedup import (
        embedding_duplicate_pairs)
    ds = _read(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    pairs = embedding_duplicate_pairs(ds, 'vec_id', 'embedding', dim=64,
                                      threshold=0.999)
    out = connected_components(pairs)
    return _df_with_columns(out, ['id', 'component_id'])


def q_components_orders(sf_dir: str):
    """Multi-hop connected components: edges link CONSECUTIVE orders of
    the same customer, so each customer's orders form a chain and the
    closure must propagate the min orderkey across ~10 hops — a
    non-trivial transitive-closure exercise with an exact recursive-CTE
    oracle.  Edge building is one hash exchange on custkey: each bucket
    sorts its orders into per-customer runs and pairs each order with
    the next one in its run (null customers and null orderkeys pair
    with nothing)."""
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    from python_fastjsonschema_ray.stages.exchange import (
        exchange, positions, runs)
    ds = _read(sf_dir, 'orders', ['o_orderkey', 'o_custkey'])

    def adjacent(group: pa.Table) -> pa.Table:
        g, bounds = runs(group, ['o_custkey'], ['o_orderkey'])
        key = g.column('o_orderkey')
        nxt = ((positions(bounds)[1:] > 0)
               & g.column('o_custkey').is_valid().to_numpy(
                   zero_copy_only=False)[1:]
               & key.is_valid().to_numpy(zero_copy_only=False)[1:])
        idx = np.flatnonzero(nxt)
        return pa.table({'id_a': key.take(idx), 'id_b': key.take(idx + 1)})

    pairs = exchange(ds, ['o_custkey'], adjacent)
    out = connected_components(pairs)
    return _df_with_columns(out, ['id', 'component_id'])


def q_drift_lineitem(sf_dir: str):
    from python_fastjsonschema_ray.pipelines.constraints import (
        drift_check, histogram_profile)
    ds = _read(sf_dir, 'lineitem', ['l_quantity'])
    edges = np.linspace(0, 55, 23)
    profile = histogram_profile(ds, 'l_quantity', edges)
    report = drift_check(ds, 'l_quantity', profile, edges)
    return pd.DataFrame([{k: report[k] for k in
                          ('column', 'psi', 'ks', 'drifted')}])


def q_image_flagship(sf_dir: str):
    """North-rule flagship over a synthesized image+caption shard."""
    from python_fastjsonschema_ray.pipelines.flagship import run_flagship
    from python_fastjsonschema_ray.sources.images import image_dataset
    ds = image_dataset(1000, seed=42, violation_rate=0.01, shard_size=250)
    # near_dup_dist stays off here: the synthetic gradient corpus's 8x8
    # average-hash is a weak discriminator (5k+ hamming-0 collisions among
    # 1000 images), so a pair count over it is data noise, not signal —
    # the hamming operator has its own driver query over documents.
    report, _ = run_flagship(ds, stats=False)
    rows = []
    for rule, n in sorted(report['schema_violations'].items()):
        rows.append({'check': 'schema:' + rule, 'n': int(n)})
    for rule, n in sorted(report['content_violations'].items()):
        rows.append({'check': 'content:' + rule, 'n': int(n)})
    rows.append({'check': 'duplicates', 'n': int(report['duplicate_keys'])})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Contract surface


def entry() -> Any:
    """Flagship pipeline on sf0.001: validate lineitem + orders with the
    vectorized table validator and return the annotated verdicts summary."""
    sf_dir = '/root/testdata/sf0.001'
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    ds = _read(sf_dir, 'lineitem',
               ['l_orderkey', 'l_quantity', 'l_discount', 'l_returnflag'])
    spec = {
        'type': 'object',
        'properties': {
            'l_orderkey': {'type': 'integer', 'minimum': 0},
            'l_quantity': {'type': 'number', 'minimum': 1, 'maximum': 50},
            'l_discount': {'type': 'number', 'minimum': 0, 'maximum': 0.1},
            'l_returnflag': {'enum': ['A', 'N', 'R']},
        },
        'required': ['l_orderkey', 'l_quantity'],
    }
    annotated = validate_dataset(ds, spec, mode='annotate')
    return annotated


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        'stats_lineitem': q_stats_lineitem,
        'range_violations_lineitem': q_range_violations_lineitem,
        'enum_orders': q_enum_orders,
        'minlength_documents': q_minlength_documents,
        'pattern_customer': q_pattern_customer,
        'json_props_events': q_format_events_props,
        'referential_orders': q_referential_orders,
        'unique_events': q_unique_events,
        'dedup_exact_documents': q_dedup_exact_documents,
        'phash_near_dup_documents': q_phash_near_dup_documents,
        'token_count_documents': q_token_count_documents,
        'quality_documents': q_quality_documents,
        'topk_documents': q_topk_documents,
        'group_stats_lineitem': q_group_stats_lineitem,
        'embedding_dims': q_embedding_dims,
        'ann_topk': q_ann_topk,
        'events_value_high': q_events_value_high,
        'windowed_events': q_windowed_events,
        'sessions_events': q_sessions_events,
        # per-keyword evidence (SURVEY §2.3):
        'maxlength_documents': q_maxlength_documents,
        'multipleof_lineitem': q_multipleof_lineitem,
        'exclusive_range_events': q_exclusive_range_events,
        'format_email_customer': q_format_email_customer,
        'format_ipv4_customer': q_format_ipv4_customer,
        'format_uuid_events': q_format_uuid_events,
        'const_nation': q_const_nation,
        'allof_orders': q_allof_orders,
        'anyof_lineitem': q_anyof_lineitem,
        'oneof_lineitem': q_oneof_lineitem,
        'not_part': q_not_part,
        'dependencies_lineitem': q_dependencies_lineitem,
        'ifelse_lineitem': q_ifelse_lineitem,
        'uniqueitems_lineitem': q_uniqueitems_lineitem,
        'tupleitems_part': q_tupleitems_part,
        'contains_embeddings': q_contains_embeddings,
        'b64_documents': q_b64_documents,
        'maxprops_events': q_maxprops_events,
        'minprops_events': q_minprops_events,
        'propertynames_events': q_propertynames_events,
        'addprops_events': q_addprops_events,
        'patternprops_events': q_patternprops_events,
        'boolschema_events': q_boolschema_events,
        # engine-category evidence (SURVEY §2.5 + north-rule additions):
        'sliding_events': q_sliding_events,
        'ann_ivf_topk': q_ann_ivf_topk,
        'ann_ivf_partitioned_topk': q_ann_ivf_partitioned_topk,
        'referential_bloom_orders': q_referential_bloom_orders,
        'referential_large_orders': q_referential_large_orders,
        'salted_group_events': q_salted_group_events,
        'violation_examples_lineitem': q_violation_examples_lineitem,
        'histogram_lineitem': q_histogram_lineitem,
        'drift_groups_lineitem': q_drift_groups_lineitem,
        'ngram_jaccard_documents': q_ngram_jaccard_documents,
        'embedding_near_dup': q_embedding_near_dup,
        'embedding_components': q_embedding_components,
        'components_orders': q_components_orders,
        'join_orders_customer': q_join_orders_customer,
        'join_lineitem_orders': q_join_lineitem_orders,
        'asof_join_events_orders': q_asof_join_events_orders,
        'interval_join_events_orders': q_interval_join_events_orders,
        'grouped_quantiles_lineitem': q_grouped_quantiles_lineitem,
        'cumsum_lineitem': q_cumsum_lineitem,
        'left_join_orders_customer': q_left_join_orders_customer,
        'token_budget_documents': q_token_budget_documents,
        'ann_multi_topk': q_ann_multi_topk,
        'pivot_orders': q_pivot_orders,
        'split_documents': q_split_documents,
        'vocabulary_documents': q_vocabulary_documents,
        'winsorize_lineitem': q_winsorize_lineitem,
        'rank_documents': q_rank_documents,
        'semi_join_lineitem_part': q_semi_join_lineitem_part,
        'anti_join_customer_orders': q_anti_join_customer_orders,
        'kmeans_embeddings': q_kmeans_embeddings,
        'standardize_lineitem': q_standardize_lineitem,
        'pca_embeddings': q_pca_embeddings,
        'redact_documents': q_redact_documents,
        'normalize_documents': q_normalize_documents,
        'decontaminate_documents': q_decontaminate_documents,
        'rolling_events': q_rolling_events,
        'quantiles_lineitem': q_quantiles_lineitem,
        'topk_per_lang_documents': q_topk_per_lang_documents,
        'heavy_hitters_orders': q_heavy_hitters_orders,
        'packing_plan_documents': q_packing_plan_documents,
        'distinct_count_part': q_distinct_count_part,
        'tfidf_top_terms_documents': q_tfidf_top_terms_documents,
        'infer_schema_documents': q_infer_schema_documents,
        'sample_documents': q_sample_documents,
        'stratified_sample_documents': q_stratified_sample_documents,
        'chunk_documents': q_chunk_documents,
        'repetition_documents': q_repetition_documents,
        'mixture_sample_documents': q_mixture_sample_documents,
        'plugin_even_lineitem': q_plugin_even_lineitem,
        # rows-only (no SQL equivalent):
        'curate_documents': q_curate_documents,
        'diversity_sample_embeddings': q_diversity_sample_embeddings,
        'langid_documents': q_langid_documents,
        'fingerprint_documents': q_fingerprint_documents,
        'simhash_documents': q_simhash_documents,
        'minhash_pairs_documents': q_minhash_pairs_documents,
        'dedup_minhash_documents': q_dedup_minhash_documents,
        'dedup_minhash_transitive_documents':
            q_dedup_minhash_transitive_documents,
        'hamming_near_dup_documents': q_hamming_near_dup_documents,
        'drift_lineitem': q_drift_lineitem,
        'image_flagship': q_image_flagship,
        'video_frame_sample': q_video_frame_sample,
        'audio_features': q_audio_features,
    }


def oracle_sql() -> dict[str, str]:
    ann_query = '[' + ', '.join(
        '{:.1f}'.format(v) for v in _ANN_QUERY) + ']::FLOAT[]'
    return {
        'stats_lineitem': """
            SELECT count(*) AS n_rows,
                   count(*) - count(l_quantity) AS n_null_qty,
                   ROUND(min(l_quantity), 3) AS min_qty,
                   ROUND(max(l_quantity), 3) AS max_qty,
                   ROUND(sum(l_quantity), 2) AS sum_qty,
                   ROUND(avg(l_extendedprice), 4) AS avg_price
            FROM lineitem
        """,
        'range_violations_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key, 'maximum' AS rule
              FROM lineitem WHERE l_quantity > 45
            UNION ALL
            SELECT CAST(l_orderkey AS VARCHAR) AS key, 'maximum' AS rule
              FROM lineitem WHERE l_discount > 0.08
            UNION ALL
            SELECT CAST(l_orderkey AS VARCHAR) AS key, 'minimum' AS rule
              FROM lineitem WHERE l_extendedprice < 1000
        """,
        'enum_orders': """
            SELECT o_orderstatus, count(*) AS n
            FROM orders
            WHERE o_orderstatus NOT IN ('O', 'F')
            GROUP BY o_orderstatus
        """,
        'minlength_documents': """
            SELECT CAST(doc_id AS VARCHAR) AS key
            FROM documents WHERE length(text) < 100
        """,
        'pattern_customer': """
            SELECT CAST(c_custkey AS VARCHAR) AS key
            FROM customer
            WHERE NOT regexp_matches(c_name, '^Customer#0000000[0-9]{2}$')
        """,
        'json_props_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE TRY_CAST(props AS JSON) IS NULL
        """,
        'referential_orders': """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)
        """,
        'unique_events': """
            SELECT event_id, count(*) AS n FROM events
            GROUP BY event_id HAVING count(*) > 1
        """,
        'dedup_exact_documents': """
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        'phash_near_dup_documents': """
            -- The construction replicates the block index into the 3
            -- high chunks, so any cross-block pair has bit_count >= 3:
            -- the equi-join on the block is exactly the <=2 candidate
            -- set (keeps the oracle O(n*blocksize), cheap at sf0.1).
            WITH p AS (
                SELECT doc_id, doc_id // 16 AS grp,
                       (doc_id // 16) * 281474976710656
                       + (doc_id // 16) * 4294967296
                       + (doc_id // 16) * 65536
                       + (doc_id // 16) * 4 + (doc_id % 4) AS ph
                FROM documents)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.ph, b.ph)) AS BIGINT) AS dist
            FROM p a JOIN p b
              ON a.grp = b.grp AND a.doc_id < b.doc_id
            WHERE bit_count(xor(a.ph, b.ph)) <= 2
        """,
        'token_count_documents': """
            SELECT doc_id,
                   len(list_filter(regexp_split_to_array(text, '\\s+'),
                                   x -> x <> '')) AS n_tokens
            FROM documents
        """,
        'quality_documents': """
            SELECT doc_id,
                   ROUND(CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                              AS DOUBLE) / greatest(length(text), 1), 4)
                       AS alpha_ratio
            FROM documents
        """,
        'topk_documents': """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 10
        """,
        'group_stats_lineitem': """
            SELECT l_returnflag, ROUND(sum(l_quantity), 2) AS sum_qty,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag
        """,
        'embedding_dims': """
            SELECT CAST(vec_id AS VARCHAR) AS key
            FROM embeddings WHERE len(embedding) <> 64
        """,
        'ann_topk': """
            SELECT vec_id,
                   ROUND(list_cosine_similarity(embedding, {q}), 4) AS sim
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding, {q}) DESC, vec_id
            LIMIT 10
        """.format(q=ann_query),
        'events_value_high': """
            SELECT CAST(event_id AS VARCHAR) AS key, 'maximum' AS rule
            FROM events WHERE value > 400
        """,
        'windowed_events': """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window,
                   count(*) AS n,
                   ROUND(sum(value), 2) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        'maxlength_documents': """
            SELECT CAST(doc_id AS VARCHAR) AS key
            FROM documents WHERE length(text) > 500
        """,
        'multipleof_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key
            FROM lineitem WHERE l_quantity % 5 <> 0
        """,
        'exclusive_range_events': """
            SELECT CAST(event_id AS VARCHAR) AS key,
                   'exclusiveMinimum' AS rule
              FROM events WHERE value <= 0.01
            UNION ALL
            SELECT CAST(event_id AS VARCHAR) AS key,
                   'exclusiveMaximum' AS rule
              FROM events WHERE value >= 450
        """,
        # email regex needs lookarounds (not RE2/DuckDB-expressible): the
        # oracle asserts the deterministic by-construction failure classes.
        'format_email_customer': """
            SELECT CAST(c_custkey AS VARCHAR) AS key
            FROM customer WHERE c_custkey % 10 IN (0, 1)
        """,
        'format_ipv4_customer': """
            SELECT CAST(c_custkey AS VARCHAR) AS key
            FROM customer
            WHERE c_custkey % 300 = 0 OR c_custkey % 300 > 255
        """,
        'format_uuid_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE event_id % 9 = 0
        """,
        'const_nation': """
            SELECT CAST(n_nationkey AS VARCHAR) AS key
            FROM nation WHERE n_regionkey <> 0
        """,
        'allof_orders': """
            SELECT CAST(o_orderkey AS VARCHAR) AS key, 'minimum' AS rule
              FROM orders WHERE o_totalprice < 2000
            UNION ALL
            SELECT CAST(o_orderkey AS VARCHAR) AS key, 'maximum' AS rule
              FROM orders WHERE o_totalprice > 400000
        """,
        'anyof_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key
            FROM lineitem WHERE l_quantity > 10 AND l_quantity < 40
        """,
        'oneof_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key
            FROM lineitem WHERE l_quantity BETWEEN 10 AND 20
        """,
        'not_part': """
            SELECT CAST(p_partkey AS VARCHAR) AS key
            FROM part WHERE p_brand IN ('Brand#1', 'Brand#2', 'Brand#3')
        """,
        'dependencies_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key, 'minimum' AS rule
            FROM lineitem WHERE l_quantity < 5
        """,
        'ifelse_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key,
                   'data.l_quantity' AS name
              FROM lineitem WHERE l_returnflag = 'R' AND l_quantity > 30
            UNION ALL
            SELECT CAST(l_orderkey AS VARCHAR) AS key,
                   'data.l_discount' AS name
              FROM lineitem WHERE l_returnflag <> 'R' AND l_discount > 0.05
        """,
        'uniqueitems_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key
            FROM lineitem
            WHERE len(list_distinct([l_orderkey % 10, l_partkey % 10,
                                     l_suppkey % 10])) <> 3
        """,
        'tupleitems_part': """
            SELECT CAST(p_partkey AS VARCHAR) AS key,
                   'data.arr[0]' AS name
              FROM part WHERE p_size > 25
            UNION ALL
            SELECT CAST(p_partkey AS VARCHAR) AS key,
                   'data.arr[1]' AS name
              FROM part WHERE p_size <= 25 AND p_retailprice > 990
        """,
        'contains_embeddings': """
            SELECT CAST(vec_id AS VARCHAR) AS key
            FROM embeddings
            WHERE len(list_filter(embedding, x -> x >= 0.25)) = 0
        """,
        'b64_documents': """
            SELECT CAST(doc_id AS VARCHAR) AS key
            FROM documents WHERE doc_id % 7 = 0
        """,
        'maxprops_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE value > 250
        """,
        'minprops_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE value <= 250
        """,
        'propertynames_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE event_type IN ('purchase', 'error')
        """,
        'addprops_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events WHERE event_type NOT IN ('click', 'view')
        """,
        'patternprops_events': """
            SELECT CAST(event_id AS VARCHAR) AS key
            FROM events
            WHERE event_type IN ('click', 'error') AND value > 100
        """,
        'boolschema_events': """
            SELECT CAST(event_id AS VARCHAR) AS key FROM events
        """,
        'sliding_events': """
            WITH phases AS (SELECT 0 AS r UNION ALL SELECT 1),
            expanded AS (
                SELECT event_type,
                       CAST(floor((epoch_us(ts) - r * 1800000000)
                                  / 3600000000.0) AS BIGINT) * 3600000000
                           + r * 1800000000 AS window_start,
                       value
                FROM events, phases
            )
            SELECT event_type, window_start, count(*) AS n,
                   ROUND(sum(value), 2) AS sum_value
            FROM expanded GROUP BY 1, 2
        """,
        'ann_ivf_topk': """
            SELECT vec_id,
                   ROUND(list_cosine_similarity(embedding, {q}), 4) AS sim
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding, {q}) DESC, vec_id
            LIMIT 10
        """.format(q=ann_query),
        'ann_ivf_partitioned_topk': """
            SELECT vec_id,
                   ROUND(list_cosine_similarity(embedding, {q}), 4) AS sim
            FROM embeddings
            ORDER BY list_cosine_similarity(embedding, {q}) DESC, vec_id
            LIMIT 10
        """.format(q=ann_query),
        'referential_bloom_orders': """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey IS NOT NULL
              AND o_custkey NOT IN (SELECT c_custkey FROM customer)
        """,
        'referential_large_orders': """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey IS NOT NULL
              AND o_custkey NOT IN (SELECT c_custkey FROM customer)
        """,
        'salted_group_events': """
            SELECT event_type, ROUND(sum(value), 2) AS sum_value,
                   count(value) AS n
            FROM events GROUP BY event_type
        """,
        'violation_examples_lineitem': """
            SELECT rule, LEAST(cnt, 5) AS n_examples FROM (
                SELECT 'maximum' AS rule, count(*) AS cnt
                FROM lineitem WHERE l_quantity > 45 OR l_discount > 0.08
            ) WHERE cnt > 0
        """,
        'histogram_lineitem': """
            SELECT CAST(LEAST(floor(l_quantity / 2.5), 21) AS BIGINT)
                       AS bin,
                   count(*) AS n
            FROM lineitem
            WHERE l_quantity >= 0 AND l_quantity <= 55
            GROUP BY 1
        """,
        'drift_groups_lineitem': """
            SELECT l_returnflag AS grp, count(l_quantity) AS n
            FROM lineitem GROUP BY 1
        """,
        'plugin_even_lineitem': """
            SELECT CAST(l_orderkey AS VARCHAR) AS key
            FROM lineitem WHERE l_quantity % 2 <> 0
        """,
        'ngram_jaccard_documents': """
            WITH g AS (
                SELECT doc_id, lower(text) AS t,
                       unnest(generate_series(
                           1, greatest(length(text) - 4, 1))) AS i
                FROM documents
            ), s AS (
                SELECT DISTINCT doc_id, substr(t, i, 5) AS sh FROM g
            ), n AS (
                SELECT doc_id, count(*) AS n FROM s GROUP BY doc_id
            ), i2 AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
                FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT i2.id_a, i2.id_b,
                   c * 1.0 / (na.n + nb.n - c) AS jaccard
            FROM i2, n na, n nb
            WHERE na.doc_id = i2.id_a AND nb.doc_id = i2.id_b
              AND c * 1.0 / (na.n + nb.n - c) >= 0.8
        """,
        'embedding_near_dup': """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.999
        """,
        'embedding_components': """
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS id_a, b.vec_id AS id_b
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding, b.embedding)
                      >= 0.999
            ), edges AS (
                SELECT id_a AS u, id_b AS v FROM pairs
                UNION
                SELECT id_b, id_a FROM pairs
            ), reach(src, dst) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.src, e.v FROM reach r JOIN edges e ON r.dst = e.u
            )
            SELECT src AS id, LEAST(MIN(dst), src) AS component_id
            FROM reach GROUP BY src
        """,
        'join_orders_customer': """
            SELECT o.o_orderkey, c.c_mktsegment
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        'distinct_count_part': """
            SELECT count(DISTINCT (p_type, p_brand)) AS n_distinct
            FROM part
        """,
        'tfidf_top_terms_documents': """
            WITH words AS (
                SELECT doc_id,
                       unnest(list_filter(
                           regexp_split_to_array(lower(text), '\\s+'),
                           x -> x <> '')) AS word
                FROM documents
            ), tf AS (
                SELECT doc_id, word, count(*) AS tf
                FROM words GROUP BY doc_id, word
            ), df AS (
                SELECT word, count(*) AS df
                FROM (SELECT DISTINCT doc_id, word FROM words)
                GROUP BY word
            ), scored AS (
                SELECT tf.doc_id, tf.word,
                       tf.tf * ln(CAST((SELECT count(*) FROM documents)
                                       AS DOUBLE) / df.df) AS tfidf
                FROM tf JOIN df USING (word)
            )
            SELECT doc_id, word AS term FROM (
                SELECT doc_id, word,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY tfidf DESC, word ASC) AS rn
                FROM scored)
            WHERE rn <= 1
        """,
        'packing_plan_documents': """
            SELECT doc_id AS id,
                   CAST(FLOOR((cum - n_chars) / 2048) AS BIGINT)
                       AS seq_first,
                   CAST((cum - n_chars) % 2048 AS BIGINT) AS seq_offset,
                   CAST(FLOOR((cum - 1) / 2048) AS BIGINT) AS seq_last
            FROM (
                SELECT doc_id, n_chars,
                       SUM(n_chars) OVER (
                           ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM documents)
        """,
        'heavy_hitters_orders': """
            SELECT o_orderstatus AS value, count(*) AS n
            FROM orders
            WHERE o_orderstatus IS NOT NULL
            GROUP BY o_orderstatus
            HAVING count(*) > 0.1 * (SELECT count(*) FROM orders)
        """,
        'infer_schema_documents': """
            SELECT 'doc_id' AS column, 'integer' AS type,
                   count(*) > count(doc_id) AS nullable,
                   CAST(min(doc_id) AS DOUBLE) AS min,
                   CAST(max(doc_id) AS DOUBLE) AS max,
                   CAST(NULL AS BIGINT) AS min_length,
                   CAST(NULL AS BIGINT) AS max_length
            FROM documents
            UNION ALL
            SELECT 'text', 'string', count(*) > count(text),
                   NULL, NULL, min(length(text)), max(length(text))
            FROM documents
            UNION ALL
            SELECT 'lang', 'string', count(*) > count(lang),
                   NULL, NULL, min(length(lang)), max(length(lang))
            FROM documents
            UNION ALL
            SELECT 'n_chars', 'integer', count(*) > count(n_chars),
                   CAST(min(n_chars) AS DOUBLE), CAST(max(n_chars) AS DOUBLE),
                   NULL, NULL
            FROM documents
        """,
        'sample_documents': """
            SELECT doc_id FROM documents
            WHERE (doc_id * 2654435761) % 1000000 < 100000
        """,
        'stratified_sample_documents': """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 1000000000 ASC,
                                    doc_id ASC) AS rn
                FROM documents)
            WHERE rn <= 5
        """,
        'chunk_documents': """
            WITH nc AS (
                SELECT doc_id, text,
                       CASE WHEN length(text) <= 200 THEN 1
                            ELSE CAST(ceil((length(text) - 200) / 160.0)
                                      AS BIGINT) + 1 END AS n_chunks
                FROM documents),
            s AS (SELECT unnest(range(0, (SELECT max(n_chunks) FROM nc)))
                         AS i)
            SELECT doc_id, i AS chunk_idx,
                   substring(text, CAST(i * 160 AS INT) + 1, 200)
                       AS chunk_text
            FROM nc, s WHERE s.i < nc.n_chunks
        """,
        'repetition_documents': """
            WITH segs AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS seg
                FROM documents),
            agg AS (
                SELECT doc_id, seg, count(*) AS c, length(seg) AS ll
                FROM segs GROUP BY doc_id, seg)
            SELECT doc_id,
                   COALESCE(CAST(SUM(CASE WHEN c > 1 THEN c * ll END)
                                 AS DOUBLE) / NULLIF(SUM(c * ll), 0),
                            0.0) AS dup_char_ratio,
                   CAST(SUM(c) AS BIGINT) AS n_segments
            FROM agg GROUP BY doc_id
        """,
        'mixture_sample_documents': """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 1000000000 ASC,
                                    doc_id ASC) AS rn
                FROM documents
                WHERE lang IN ('en', 'zh', 'es'))
            WHERE (lang = 'en' AND rn <= 20)
               OR (lang = 'zh' AND rn <= 10)
               OR (lang = 'es' AND rn <= 10)
        """,
        'topk_per_lang_documents': """
            SELECT lang, doc_id, n_chars FROM (
                SELECT lang, doc_id, n_chars,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY n_chars DESC, doc_id ASC) AS rn
                FROM documents)
            WHERE rn <= 3
        """,
        'quantiles_lineitem': """
            SELECT 0.5 AS q,
                   ROUND(quantile_disc(l_extendedprice, 0.5), 2) AS value
            FROM lineitem
            UNION ALL
            SELECT 0.9, ROUND(quantile_disc(l_extendedprice, 0.9), 2)
            FROM lineitem
            UNION ALL
            SELECT 0.99, ROUND(quantile_disc(l_extendedprice, 0.99), 2)
            FROM lineitem
        """,
        'join_lineitem_orders': """
            SELECT l.l_orderkey, l.l_quantity, o.o_orderstatus
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        """,
        'asof_join_events_orders': """
            WITH e AS (
                SELECT event_id, user_id,
                       TIMESTAMP '1995-01-01'
                         + (event_id % 2557) * INTERVAL 1 DAY AS ats
                FROM events
            ), p AS (
                SELECT e.event_id, o.o_orderkey, o.o_totalprice,
                       ROW_NUMBER() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                       ) AS rn
                FROM e JOIN orders o
                  ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ats
            )
            SELECT event_id, o_orderkey, o_totalprice FROM p WHERE rn = 1
        """,
        'interval_join_events_orders': """
            WITH e AS (
                SELECT event_id, user_id,
                       TIMESTAMP '1995-01-01'
                         + (event_id % 2557) * INTERVAL 1 DAY AS ats
                FROM events
            )
            SELECT e.event_id, o.o_orderkey
            FROM e JOIN orders o
              ON o.o_custkey = e.user_id
             AND e.ats >= o.o_orderdate
             AND e.ats < o.o_orderdate + INTERVAL 30 DAY
        """,
        'decontaminate_documents': """
            WITH corp AS (
                SELECT doc_id, string_split(lower(text), ' ') AS toks
                FROM documents),
            bg AS (
                SELECT DISTINCT array_to_string(
                    list_slice(toks, g, g + 7), ' ') AS gram
                FROM (SELECT toks FROM corp WHERE doc_id % 50 = 0),
                     LATERAL (SELECT unnest(range(1, len(toks) - 6))
                              AS g)),
            cg AS (
                SELECT DISTINCT doc_id, array_to_string(
                    list_slice(toks, g, g + 7), ' ') AS gram
                FROM corp,
                     LATERAL (SELECT unnest(range(1, len(toks) - 6))
                              AS g))
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
            FROM cg JOIN bg USING (gram)
            GROUP BY doc_id
        """,
        'redact_documents': r"""
            WITH aug AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 3 = 0 THEN
                           text || ' contact user' || doc_id ||
                           '@example.com via http://site' || doc_id ||
                           '.example/page or 10.1.2.3'
                       ELSE text END AS text
                FROM documents)
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       'https?://[^\s]+', '<URL>', 'g'),
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                       '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                       '<IP>', 'g') AS text
            FROM aug
        """,
        'normalize_documents': r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(
                       '  ' || upper(text) || chr(9) || chr(9) ||
                       ' MiXeD  CASE '), '\s+', ' ', 'g')) AS text
            FROM documents
        """,
        'left_join_orders_customer': """
            SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment
            FROM orders o LEFT JOIN (
                SELECT * FROM customer WHERE c_mktsegment = 'BUILDING'
            ) c ON o.o_custkey = c.c_custkey
        """,
        'token_budget_documents': """
            SELECT lang, doc_id, n_chars FROM (
                SELECT lang, doc_id, n_chars,
                       SUM(n_chars) OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 1000000000
                                    ASC, doc_id ASC
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS run
                FROM documents WHERE lang IN ('en', 'zh'))
            WHERE (lang = 'en' AND run <= 20000)
               OR (lang = 'zh' AND run <= 8000)
        """,
        'ann_multi_topk': """
            WITH probes AS (
                SELECT vec_id AS probe_id, embedding AS pe
                FROM embeddings WHERE vec_id < 3)
            SELECT probe_id, vec_id, sim FROM (
                SELECT p.probe_id, e.vec_id,
                       ROUND(list_cosine_similarity(e.embedding, p.pe), 4)
                           AS sim,
                       row_number() OVER (
                           PARTITION BY p.probe_id
                           ORDER BY list_cosine_similarity(e.embedding,
                                                           p.pe) DESC,
                                    e.vec_id ASC) AS rn
                FROM embeddings e, probes p)
            WHERE rn <= 5
        """,
        'pivot_orders': """
            SELECT o_orderpriority,
                   CAST(SUM(CASE WHEN o_orderstatus = 'F' THEN 1
                            ELSE 0 END) AS BIGINT) AS "F",
                   CAST(SUM(CASE WHEN o_orderstatus = 'O' THEN 1
                            ELSE 0 END) AS BIGINT) AS "O",
                   CAST(SUM(CASE WHEN o_orderstatus = 'P' THEN 1
                            ELSE 0 END) AS BIGINT) AS "P"
            FROM orders GROUP BY o_orderpriority
        """,
        'split_documents': """
            SELECT doc_id,
                   CASE WHEN (doc_id * 2654435761) % 1000000 < 800000
                            THEN 'train'
                        WHEN (doc_id * 2654435761) % 1000000 < 900000
                            THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        'vocabulary_documents': """
            WITH words AS (
                SELECT unnest(list_filter(
                           regexp_split_to_array(lower(text), '\\s+'),
                           x -> x <> '')) AS word
                FROM documents)
            SELECT word, count(*) AS n FROM words
            GROUP BY word ORDER BY n DESC, word ASC LIMIT 50
        """,
        'winsorize_lineitem': """
            SELECT l_orderkey, l_linenumber,
                   CAST(LEAST(GREATEST(l_extendedprice,
                           (SELECT quantile_disc(l_extendedprice, 0.05)
                            FROM lineitem)),
                           (SELECT quantile_disc(l_extendedprice, 0.95)
                            FROM lineitem)) AS DOUBLE)
                       AS l_extendedprice_w
            FROM lineitem
        """,
        'rank_documents': """
            SELECT doc_id, n_chars,
                   row_number() OVER (
                       ORDER BY n_chars DESC, doc_id ASC) AS rank
            FROM documents
        """,
        'semi_join_lineitem_part': """
            SELECT l_orderkey, l_partkey, l_quantity FROM lineitem
            WHERE EXISTS (SELECT 1 FROM part
                          WHERE p_partkey = l_partkey AND p_size > 40)
        """,
        'anti_join_customer_orders': """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderstatus = 'F')
        """,
        'standardize_lineitem': """
            SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice,
                   ROUND((l_quantity - AVG(l_quantity) OVER ())
                       / STDDEV_SAMP(l_quantity) OVER (), 4)
                       AS l_quantity_z,
                   ROUND((l_extendedprice - AVG(l_extendedprice) OVER ())
                       / STDDEV_SAMP(l_extendedprice) OVER (), 4)
                       AS l_extendedprice_z
            FROM lineitem
        """,
        'cumsum_lineitem': """
            SELECT l_orderkey, l_linenumber, l_partkey, l_suppkey,
                   l_extendedprice, l_quantity,
                   ROW_NUMBER() OVER w AS "row_number",
                   CAST(SUM(l_quantity) OVER (
                       PARTITION BY l_orderkey
                       ORDER BY l_linenumber, l_partkey, l_suppkey,
                                l_extendedprice
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS DOUBLE) AS "cumsum"
            FROM lineitem
            WINDOW w AS (PARTITION BY l_orderkey
                         ORDER BY l_linenumber, l_partkey, l_suppkey,
                                  l_extendedprice)
        """,
        'rolling_events': """
            SELECT user_id, ts, event_id, value,
                   CAST(LAG(value) OVER w AS DOUBLE) AS "lag",
                   CAST(value - LAG(value) OVER w AS DOUBLE) AS "delta",
                   CAST(AVG(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
                   ) AS DOUBLE) AS "rolling_mean"
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        'grouped_quantiles_lineitem': """
            SELECT l_returnflag, 0.5 AS q,
                   ROUND(quantile_disc(l_extendedprice, 0.5), 2) AS value
            FROM lineitem GROUP BY l_returnflag
            UNION ALL
            SELECT l_returnflag, 0.95,
                   ROUND(quantile_disc(l_extendedprice, 0.95), 2)
            FROM lineitem GROUP BY l_returnflag
        """,
        'components_orders': """
            WITH RECURSIVE nxt AS (
                SELECT o_orderkey AS id_a,
                       LEAD(o_orderkey) OVER (
                           PARTITION BY o_custkey ORDER BY o_orderkey
                       ) AS id_b
                FROM orders
            ), pairs AS (
                SELECT id_a, id_b FROM nxt WHERE id_b IS NOT NULL
            ), edges AS (
                SELECT id_a AS u, id_b AS v FROM pairs
                UNION
                SELECT id_b, id_a FROM pairs
            ), reach(src, dst) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.src, e.v FROM reach r JOIN edges e ON r.dst = e.u
            )
            SELECT src AS id, LEAST(MIN(dst), src) AS component_id
            FROM reach GROUP BY src
        """,
        'sessions_events': """
            WITH deltas AS (
                SELECT user_id, epoch_us(ts) AS tsu,
                       CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w
                                 > 1800000000
                            OR lag(epoch_us(ts)) OVER w IS NULL
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), numbered AS (
                SELECT user_id, tsu,
                       sum(brk) OVER (PARTITION BY user_id ORDER BY tsu
                                      ROWS UNBOUNDED PRECEDING) AS sid
                FROM deltas
            )
            SELECT user_id, min(tsu) AS session_start,
                   max(tsu) AS session_end, count(*) AS n
            FROM numbered GROUP BY user_id, sid
        """,
    }
