"""Equi-join stages: broadcast lookup join + bucketed shuffle join vs
DuckDB on testdata, plus the semantic edge cases (nulls, duplicates,
left join, collision guard)."""

import duckdb
import pyarrow as pa
import pytest

SF = '/root/testdata/sf0.001'


@pytest.fixture(scope='module')
def ddb():
    con = duckdb.connect()
    for t in ('orders', 'customer', 'lineitem', 'events'):
        con.execute(
            "CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            .format(t=t, sf=SF))
    return con


def _norm(df, cols):
    return sorted(map(tuple, df[cols].itertuples(index=False)))


def test_broadcast_lookup_join_vs_duckdb(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_custkey'])
    cust = ray.data.read_parquet(SF + '/customer.parquet',
                                 columns=['c_custkey', 'c_mktsegment'])
    out = broadcast_lookup_join(orders, 'o_custkey', cust, 'c_custkey',
                                ['c_mktsegment'], check_unique=True)
    got = out.to_pandas()
    exp = ddb.execute("""
        SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    """).df()
    cols = ['o_orderkey', 'o_custkey', 'c_mktsegment']
    assert _norm(got, cols) == _norm(exp, cols)
    assert str(got['o_orderkey'].dtype) == 'int64'


def test_broadcast_lookup_join_left_and_nulls(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3, 4], type=pa.int64()),
        'fk': pa.array([10, 99, None, 20], type=pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'k': pa.array([10, 20], type=pa.int64()),
        'v': pa.array(['a', 'b'])}))
    inner = broadcast_lookup_join(left, 'fk', ref, 'k', ['v']).to_pandas()
    assert _norm(inner, ['id', 'v']) == [(1, 'a'), (4, 'b')]
    lj = broadcast_lookup_join(left, 'fk', ref, 'k', ['v'],
                               how='left').to_pandas()
    by_id = dict(zip(lj['id'], lj['v']))
    assert by_id[1] == 'a' and by_id[4] == 'b'
    assert by_id[2] is None and by_id[3] is None
    assert len(lj) == 4


def test_broadcast_lookup_join_duplicate_ref_raises(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    left = ray.data.from_arrow(pa.table({'fk': pa.array([1], pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 1], type=pa.int64()),
        'v': pa.array(['a', 'b'])}))
    with pytest.raises(ValueError, match='not unique'):
        broadcast_lookup_join(left, 'fk', ref, 'k', ['v'],
                              check_unique=True)


def test_shuffle_join_vs_duckdb(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    li = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_orderkey', 'l_quantity'])
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_orderstatus'])
    out = shuffle_join(li, orders, 'l_orderkey', 'o_orderkey',
                       ['o_orderstatus']).to_pandas()
    exp = ddb.execute("""
        SELECT l.l_orderkey, l.l_quantity, o.o_orderstatus
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    """).df()
    cols = ['l_orderkey', 'l_quantity', 'o_orderstatus']
    assert _norm(out, cols) == _norm(exp, cols)
    assert str(out['l_orderkey'].dtype) == 'int64'


def test_shuffle_join_duplicates_and_nulls(ray_session):
    """Duplicate keys on BOTH sides produce the SQL cross product; null
    keys never match."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 1, 2, None], type=pa.int64()),
        'lv': pa.array(['x', 'y', 'z', 'n'])})).repartition(2)
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([1, 1, None], type=pa.int64()),
        'rv': pa.array(['p', 'q', 'nn'])})).repartition(2)
    out = shuffle_join(left, right, 'k', 'rk', ['rv']).to_pandas()
    got = sorted(map(tuple, out[['k', 'lv', 'rv']].itertuples(index=False)))
    assert got == [(1, 'x', 'p'), (1, 'x', 'q'), (1, 'y', 'p'),
                   (1, 'y', 'q')]


def test_shuffle_join_left(ray_session):
    """how='left' keeps unmatched and null-key left rows with typed-null
    right columns (int64 stays int64, no float coercion)."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 1, 2, 3, None], type=pa.int64()),
        'lv': pa.array(['a', 'b', 'c', 'd', 'n'])})).repartition(2)
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([1, 1, None], type=pa.int64()),
        'rv': pa.array([10, 20, 99], type=pa.int64())})).repartition(2)
    import pandas as pd
    out = shuffle_join(left, right, 'k', 'rk', ['rv'],
                       how='left').to_pandas()
    got = sorted(((int(r.k) if pd.notna(r.k) else None, r.lv,
                   int(r.rv) if pd.notna(r.rv) else None)
                  for r in out.itertuples()), key=repr)
    assert got == sorted([
        (1, 'a', 10), (1, 'a', 20), (1, 'b', 10), (1, 'b', 20),
        (2, 'c', None), (3, 'd', None), (None, 'n', None),
    ], key=repr)
    # Schema: rv survives as int64-typed nullable, never float64.
    import pyarrow.types as pt
    sch = shuffle_join(left, right, 'k', 'rk', ['rv'],
                       how='left').schema()
    assert str(dict(zip(sch.names, sch.types))['rv']) == 'int64'


def test_shuffle_join_left_vs_duckdb(ray_session, ddb):
    """LEFT join orders onto a filtered customer subset — unmatched
    orders keep typed nulls; equality vs DuckDB LEFT JOIN."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_custkey'])
    cust = ray.data.read_parquet(SF + '/customer.parquet',
                                 columns=['c_custkey', 'c_mktsegment'])

    def building_only(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b.column('c_mktsegment'), 'BUILDING'))

    sub = cust.map_batches(building_only, batch_format='pyarrow')
    out = shuffle_join(orders, sub, 'o_custkey', 'c_custkey',
                       ['c_mktsegment'], how='left').to_pandas()
    exp = ddb.execute("""
        SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment
        FROM orders o LEFT JOIN (
            SELECT * FROM customer WHERE c_mktsegment = 'BUILDING'
        ) c ON o.o_custkey = c.c_custkey
    """).df()
    cols = ['o_orderkey', 'o_custkey', 'c_mktsegment']
    assert _norm(out.fillna({'c_mktsegment': ''}), cols) == \
        _norm(exp.fillna({'c_mktsegment': ''}), cols)
    assert out['c_mktsegment'].isna().any()       # unmatched rows exist


def _asof_fixture(ray):
    """Synthetic frames exercising ties, null keys, missing by-keys."""
    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        'ts': pa.array([5, 1, None, 5, 7, 3], type=pa.int64()),
        'k': pa.array(['A', 'A', 'A', None, 'B', 'C'])})).repartition(2)
    right = ray.data.from_arrow(pa.table({
        'rts': pa.array([2, 4, 7, 7, 9], type=pa.int64()),
        'rk': pa.array(['A', 'A', 'B', 'B', 'A']),
        'v': pa.array([10, 20, 1, 2, 30], type=pa.int64())})).repartition(2)
    return left, right


def test_asof_join_backward_semantics(ray_session):
    import ray
    from python_fastjsonschema_ray.stages.join import asof_join
    left, right = _asof_fixture(ray)
    out = asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                    how='left').to_pandas()
    by_id = {r.id: r.v for r in out.itertuples(index=False)}
    assert len(out) == 6
    assert by_id[1] == 20          # greatest rts <= 5 is 4 -> v=20
    assert by_id[5] == 2           # tie at rts=7: greatest tiebreak wins
    import pandas as pd
    for missing in (2, 3, 4, 6):   # before-all / null-on / null-by / no-key
        assert pd.isna(by_id[missing])
    inner = asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                      how='inner').to_pandas()
    assert sorted(inner['id']) == [1, 5]
    assert str(inner['v'].dtype) == 'int64'


def test_asof_join_forward_and_tolerance(ray_session):
    import ray
    import pandas as pd
    from python_fastjsonschema_ray.stages.join import asof_join
    left, right = _asof_fixture(ray)
    fwd = asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                    direction='forward', how='left').to_pandas()
    by_id = {r.id: r.v for r in fwd.itertuples(index=False)}
    assert by_id[1] == 30          # smallest rts >= 5 is 9
    assert by_id[2] == 10          # forward from 1 -> rts=2
    assert by_id[5] == 1           # tie at rts=7 forward: least tiebreak
    assert pd.isna(by_id[6])
    tol = asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                    tolerance=1, how='inner').to_pandas()
    by_id = {r.id: r.v for r in tol.itertuples(index=False)}
    # backward with |gap| <= 1: id1 (5-4=1) and id5 (7-7=0) survive
    assert sorted(by_id) == [1, 5] and by_id[1] == 20


def test_asof_join_empty_right(ray_session):
    import ray
    import pandas as pd
    from python_fastjsonschema_ray.stages.join import asof_join
    left, _ = _asof_fixture(ray)
    right = ray.data.from_arrow(pa.table({
        'rts': pa.array([], type=pa.int64()),
        'rk': pa.array([], type=pa.string()),
        'v': pa.array([], type=pa.int64())}))
    out = asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                    how='left').to_pandas()
    assert len(out) == 6 and out['v'].isna().all()
    assert asof_join(left, right, 'ts', 'rts', 'k', 'rk', ['v'],
                     how='inner').count() == 0


def test_asof_join_vs_duckdb(ray_session, ddb):
    """Timestamp as-of on testdata: each event (with a deterministic
    derived timestamp inside the orders' date range) matched to the most
    recent order of its user, vs the DuckDB window oracle."""
    import ray.data
    import pandas as pd
    from python_fastjsonschema_ray.stages.join import asof_join

    events = ray.data.read_parquet(SF + '/events.parquet',
                                   columns=['event_id', 'user_id'])

    def derive_ts(b):
        b['ats'] = (pd.Timestamp('1995-01-01') +
                    pd.to_timedelta(b['event_id'] % 2557, unit='D'))
        return b

    events = events.map_batches(derive_ts, batch_format='pandas')
    orders = ray.data.read_parquet(
        SF + '/orders.parquet',
        columns=['o_orderkey', 'o_custkey', 'o_orderdate', 'o_totalprice'])
    out = asof_join(events, orders, 'ats', 'o_orderdate',
                    'user_id', 'o_custkey',
                    ['o_orderkey', 'o_totalprice'],
                    tiebreak=['o_orderkey'], how='inner').to_pandas()
    exp = ddb.execute("""
        WITH e AS (
          SELECT event_id, user_id,
                 TIMESTAMP '1995-01-01'
                   + (event_id % 2557) * INTERVAL 1 DAY AS ats
          FROM events),
        p AS (
          SELECT e.event_id, o.o_orderkey, o.o_totalprice,
                 ROW_NUMBER() OVER (
                   PARTITION BY e.event_id
                   ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
          FROM e JOIN orders o
            ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ats)
        SELECT event_id, o_orderkey, o_totalprice FROM p WHERE rn = 1
    """).df()
    cols = ['event_id', 'o_orderkey', 'o_totalprice']
    assert _norm(out, cols) == _norm(exp, cols)
    assert str(out['o_orderkey'].dtype) == 'int64'


def test_interval_join_semantics(ray_session):
    """Overlap multiplicity, boundary conventions, nulls, left join."""
    import ray
    import pandas as pd
    from python_fastjsonschema_ray.stages.join import (
        broadcast_interval_join)
    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3, 4], type=pa.int64()),
        'p': pa.array([5, 10, None, 25], type=pa.int64())})).repartition(2)
    iv = ray.data.from_arrow(pa.table({
        's': pa.array([0, 4, 10], type=pa.int64()),
        'e': pa.array([10, 6, 20], type=pa.int64()),
        'name': pa.array(['a', 'b', 'c'])}))
    out = broadcast_interval_join(left, 'p', iv, 's', 'e',
                                  ['name']).to_pandas()
    got = sorted(map(tuple, out[['id', 'name']].itertuples(index=False)))
    # closed='left': p=5 in [0,10) and [4,6); p=10 in [10,20) only;
    # p=None and p=25 match nothing.
    assert got == [(1, 'a'), (1, 'b'), (2, 'c')]
    both = broadcast_interval_join(left, 'p', iv, 's', 'e', ['name'],
                                   closed='both').to_pandas()
    got = sorted(map(tuple, both[['id', 'name']].itertuples(index=False)))
    assert got == [(1, 'a'), (1, 'b'), (2, 'a'), (2, 'c')]
    lj = broadcast_interval_join(left, 'p', iv, 's', 'e', ['name'],
                                 how='left').to_pandas()
    assert len(lj) == 5            # 3 matches + unmatched ids 3, 4
    null_ids = sorted(lj[lj['name'].isna()]['id'])
    assert null_ids == [3, 4]


def test_interval_join_keyed_vs_duckdb(ray_session, ddb):
    """Keyed range join on testdata: events (derived timestamp) matched
    to every 30-day order window of the same user, vs DuckDB."""
    import ray.data
    import pandas as pd
    from python_fastjsonschema_ray.stages.join import (
        broadcast_interval_join)

    events = ray.data.read_parquet(SF + '/events.parquet',
                                   columns=['event_id', 'user_id'])

    def derive_ts(b):
        b['ats'] = (pd.Timestamp('1995-01-01') +
                    pd.to_timedelta(b['event_id'] % 2557, unit='D'))
        return b

    events = events.map_batches(derive_ts, batch_format='pandas')
    orders = ray.data.read_parquet(
        SF + '/orders.parquet',
        columns=['o_orderkey', 'o_custkey', 'o_orderdate'])

    def add_end(b):
        b['o_end'] = b['o_orderdate'] + pd.Timedelta(days=30)
        return b

    iv = orders.map_batches(add_end, batch_format='pandas')
    out = broadcast_interval_join(
        events, 'ats', iv, 'o_orderdate', 'o_end', ['o_orderkey'],
        key='user_id', interval_key='o_custkey').to_pandas()
    exp = ddb.execute("""
        WITH e AS (
          SELECT event_id, user_id,
                 TIMESTAMP '1995-01-01'
                   + (event_id % 2557) * INTERVAL 1 DAY AS ats
          FROM events)
        SELECT e.event_id, o.o_orderkey
        FROM e JOIN orders o
          ON o.o_custkey = e.user_id
         AND e.ats >= o.o_orderdate
         AND e.ats < o.o_orderdate + INTERVAL 30 DAY
    """).df()
    cols = ['event_id', 'o_orderkey']
    assert len(out) > 0
    assert _norm(out, cols) == _norm(exp, cols)
    assert str(out['o_orderkey'].dtype) == 'int64'


def test_interval_join_guards(ray_session):
    import ray
    from python_fastjsonschema_ray.stages.join import (
        broadcast_interval_join)
    left = ray.data.from_arrow(pa.table({'p': pa.array([1], pa.int64())}))
    iv = ray.data.from_arrow(pa.table({
        's': pa.array([0], pa.int64()), 'e': pa.array([2], pa.int64()),
        'p': pa.array([9], pa.int64())}))
    with pytest.raises(ValueError, match='collide'):
        broadcast_interval_join(left, 'p', iv, 's', 'e', ['p'])
    with pytest.raises(ValueError, match='together'):
        broadcast_interval_join(left, 'p', iv, 's', 'e', [], key='p')


def test_asof_join_collision_guard(ray_session):
    import ray
    from python_fastjsonschema_ray.stages.join import asof_join
    left, right = _asof_fixture(ray)
    bad = right.map_batches(
        lambda b: b.rename_columns(['rts', 'rk', 'ts']),
        batch_format='pyarrow')
    with pytest.raises(ValueError, match='collide'):
        asof_join(left, bad, 'ts', 'rts', 'k', 'rk', ['ts']).materialize()


def test_shuffle_join_collision_guard(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    a = ray.data.from_arrow(pa.table({'k': pa.array([1], pa.int64()),
                                      'v': pa.array(['x'])}))
    b = ray.data.from_arrow(pa.table({'k': pa.array([1], pa.int64()),
                                      'v': pa.array(['y'])}))
    with pytest.raises(ValueError, match='collide'):
        shuffle_join(a, b, 'k', 'k', ['v']).materialize()


def test_broadcast_lookup_join_null_ref_key(ray_session):
    """A null key on the DIMENSION side must never match a null left
    key (SQL equi-join semantics): inner drops null-key left rows,
    left keeps them unenriched — even though pc.index_in would match
    null->null."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3], type=pa.int64()),
        'fk': pa.array([10, None, 20], type=pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'k': pa.array([10, None], type=pa.int64()),
        'v': pa.array(['a', 'poison'])}))
    inner = broadcast_lookup_join(left, 'fk', ref, 'k', ['v']).to_pandas()
    assert _norm(inner, ['id', 'v']) == [(1, 'a')]
    lj = broadcast_lookup_join(left, 'fk', ref, 'k', ['v'],
                               how='left').to_pandas()
    by_id = dict(zip(lj['id'], lj['v']))
    assert by_id[1] == 'a'
    assert by_id[2] is None and by_id[3] is None
    semi = broadcast_lookup_join(left, 'fk', ref, 'k',
                                 how='semi').to_pandas()
    assert sorted(semi['id']) == [1]
    anti = broadcast_lookup_join(left, 'fk', ref, 'k',
                                 how='anti').to_pandas()
    assert sorted(anti['id']) == [2, 3]


def test_shuffle_join_left_preserves_big_int64(ray_session):
    """Unmatched left rows null-pad the right columns; int64 values
    above 2^53 on MATCHED rows must survive exactly (a pandas
    float64 round-trip would corrupt them)."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    big = (1 << 62) + 12345  # not representable in float64
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2, 3], type=pa.int64()),
        'lv': pa.array([big + 1, 0, 7], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([1, 3], type=pa.int64()),
        'rv': pa.array([big, big + 2], type=pa.int64())}))
    import ray
    out_ds = shuffle_join(left, right, 'k', 'rk', ['rv'], how='left')
    # Assert on the ARROW blocks (a pandas conversion of the nullable
    # int64 result would itself float-coerce and mask the bug).
    tbl = pa.concat_tables(
        [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
         for t in ray.get(out_ds.to_arrow_refs()) if t.num_rows])
    assert tbl.schema.field('rv').type == pa.int64()
    rows = {k.as_py(): (lv.as_py(), rv.as_py()) for k, lv, rv in
            zip(tbl.column('k'), tbl.column('lv'), tbl.column('rv'))}
    assert rows == {1: (big + 1, big), 2: (0, None), 3: (7, big + 2)}
    inner_ds = shuffle_join(left, right, 'k', 'rk', ['rv'], how='inner')
    itbl = pa.concat_tables(
        [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
         for t in ray.get(inner_ds.to_arrow_refs()) if t.num_rows])
    irows = {k.as_py(): rv.as_py() for k, rv in
             zip(itbl.column('k'), itbl.column('rv'))}
    assert irows == {1: big, 3: big + 2}


def test_asof_join_preserves_big_int64(ray_session):
    """asof enrichment columns gather from the Arrow side by position:
    int64 values above 2^53 survive a left asof join with unmatched
    rows exactly."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import asof_join
    big = (1 << 61) + 999
    left = ray.data.from_arrow(pa.table({
        'g': pa.array(['a', 'a', 'b'], type=pa.string()),
        't': pa.array([5, 1, 5], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        'g2': pa.array(['a', 'b'], type=pa.string()),
        't2': pa.array([3, 10], type=pa.int64()),
        'val': pa.array([big, big + 1], type=pa.int64())}))
    import ray
    out_ds = asof_join(left, right, 't', 't2', 'g', 'g2', ['val'],
                       direction='backward', how='left')
    tbl = pa.concat_tables(
        [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
         for t in ray.get(out_ds.to_arrow_refs()) if t.num_rows])
    assert tbl.schema.field('val').type == pa.int64()
    rows = sorted((g.as_py(), t.as_py(), v.as_py()) for g, t, v in
                  zip(tbl.column('g'), tbl.column('t'),
                      tbl.column('val')))
    # 'a'@1 precedes the right row at t=3 -> unmatched; 'b'@5 has no
    # right row <= 5 -> unmatched; 'a'@5 matches t=3 with the big value.
    assert rows == [('a', 1, None), ('a', 5, big), ('b', 5, None)]


def test_shuffle_join_mixed_key_dtypes_lossless(ray_session):
    """int64-left / float64-right keys: mixed dtypes used to hash to
    different buckets (silently empty result); now the right key is
    Arrow-safe-cast to the left type at the API boundary, so
    integral-valued float keys join correctly."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2, 3], type=pa.int64()),
        'lv': pa.array(['a', 'b', 'c'])})).repartition(2)
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([2.0, 3.0], type=pa.float64()),
        'rv': pa.array(['p', 'q'])})).repartition(2)
    out = shuffle_join(left, right, 'k', 'rk', ['rv']).to_pandas()
    got = sorted(map(tuple, out[['k', 'lv', 'rv']].itertuples(index=False)))
    assert got == [(2, 'b', 'p'), (3, 'c', 'q')]
    # Narrower int widens losslessly too.
    right32 = ray.data.from_arrow(pa.table({
        'rk': pa.array([1, 3], type=pa.int32()),
        'rv': pa.array(['x', 'y'])}))
    out = shuffle_join(left, right32, 'k', 'rk', ['rv']).to_pandas()
    got = sorted(map(tuple, out[['k', 'lv', 'rv']].itertuples(index=False)))
    assert got == [(1, 'a', 'x'), (3, 'c', 'y')]


def test_shuffle_join_lossy_key_cast_raises(ray_session):
    """A fractional float key (2.5) cannot cast losslessly to the int
    left key type: the join raises loudly instead of truncating
    (2.5 -> 2 would fabricate a match SQL rejects)."""
    import pytest
    import ray.data
    from python_fastjsonschema_ray.stages.join import shuffle_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2], type=pa.int64()),
        'lv': pa.array(['a', 'b'])}))
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([2.5, 1.0], type=pa.float64()),
        'rv': pa.array(['p', 'q'])}))
    with pytest.raises(Exception, match='losslessly'):
        shuffle_join(left, right, 'k', 'rk', ['rv']).materialize()


def test_broadcast_limit_falls_back_to_shuffle(ray_session, monkeypatch,
                                               caplog):
    """The size gate shut (``BROADCAST_LIMIT_BYTES`` below any size)
    forces the shuffle_join path, which must produce the same result as
    the broadcast path (unique ref side), for every ``how``; each
    decision is logged with its path."""
    import logging
    import ray.data
    from python_fastjsonschema_ray.stages import join
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, 2, 3, 4, None], type=pa.int64()),
        'lv': pa.array(['a', 'b', 'c', 'd', 'n'])})).repartition(2)
    ref = ray.data.from_arrow(pa.table({
        'rk': pa.array([1, 3], type=pa.int64()),
        'rv': pa.array(['p', 'q'])}))
    key = lambda df: sorted(
        map(repr, df[sorted(df.columns)].itertuples(index=False)))
    for how in ('inner', 'left', 'semi', 'anti'):
        caplog.clear()
        with caplog.at_level(logging.INFO,
                             logger='python_fastjsonschema_ray'):
            wide = broadcast_lookup_join(
                left, 'k', ref, 'rk', ['rv'], how=how).to_pandas()
            with monkeypatch.context() as m:
                m.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
                narrow = broadcast_lookup_join(
                    left, 'k', ref, 'rk', ['rv'], how=how).to_pandas()
        paths = [r.getMessage().split()[1] for r in caplog.records
                 if r.name.startswith('python_fastjsonschema_ray')]
        assert paths == ['broadcast', 'shuffle'], how
        assert key(wide) == key(narrow), how
        assert sorted(wide.columns) == sorted(narrow.columns), how


def test_broadcast_lookup_join_int64_keys_above_2_53(ray_session):
    """Keys above 2**53 that differ by 1 next to a null key: the lookup
    probes the non-null keys in their own type, never as float64."""
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages.join import broadcast_lookup_join
    left = ray.data.from_arrow(pa.table({
        'k': pa.array([2**53, 2**53 + 1, None], type=pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'rk': pa.array([2**53 + 1], type=pa.int64()),
        'rv': pa.array(['hit'])}))
    out = broadcast_lookup_join(left, 'k', ref, 'rk', ['rv'],
                                how='left').to_arrow_refs()
    got = sorted((r for t in ray.get(out) for r in zip(
        t['k'].to_pylist(), t['rv'].to_pylist())), key=repr)
    assert got == [(2**53, None), (2**53 + 1, 'hit'), (None, None)]


_KEY_TYPE_CASES = {
    # An int key against a float reference: 3.0 matches key 3 ...
    'int_key_float_reference': (pa.array([1, 2, 3], pa.int64()),
                                pa.array([2.0, 3.0]), [2, 3]),
    # ... and 2.5 is never truncated into a match: it fails the cast.
    'int_key_fractional_reference': (pa.array([1, 2, 3], pa.int64()),
                                     pa.array([2.5, 3.0]), TypeError),
    # A float key against an int reference: 3.0 matches, 2.5 never does.
    'float_key_int_reference': (pa.array([1.0, 2.5, 3.0]),
                                pa.array([2, 3], pa.int64()), [3.0]),
    # A string key against an int reference: the key types are of
    # different families, so '2' is never cast into a match with 2.
    'string_fk_int_reference': (pa.array(['1', '2', '3']),
                                pa.array([2, 3], pa.int64()), TypeError),
}


@pytest.mark.parametrize('how', ['semi', 'anti', 'inner'])
@pytest.mark.parametrize('gate', ['open', 'shut'])
@pytest.mark.parametrize('case', sorted(_KEY_TYPE_CASES))
def test_broadcast_lookup_join_key_types_agree_across_the_gate(
        ray_session, monkeypatch, case, gate, how):
    """Both sides of the gate cast the reference key to the probe key's
    type with the same checked cast: the same rows, or the same
    lossy-cast error, for every ``how``."""
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages import join
    if gate == 'shut':
        monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    k, rk, matched = _KEY_TYPE_CASES[case]
    left = ray.data.from_arrow(pa.table({'k': k}))
    ref = ray.data.from_arrow(pa.table({
        'rk': rk, 'rv': pa.array(['r%d' % i for i in range(len(rk))])}))

    def run():
        out = join.broadcast_lookup_join(left, 'k', ref, 'rk', ['rv'],
                                         how=how).to_arrow_refs()
        return sorted(v for t in ray.get(out) if t.num_rows
                      for v in t['k'].to_pylist())

    if matched is TypeError:
        # Ray re-raises the worker's TypeError wrapped in its task error.
        with pytest.raises(Exception, match='cannot be cast losslessly'):
            run()
    elif how == 'anti':
        assert run() == sorted(set(k.to_pylist()) - set(matched))
    else:
        assert run() == matched
