"""The hash-exchange module (``stages/exchange.py``): ``exchange`` and
``cogroup`` semantics, the run-cutting helper, the fixed-boundary
shuffle on many-block inputs, key operators that run no plan on the
driver (no schema probes), key-type alignment in the co-group
operators, metadata-free output of every operator built on them, and
scans that keep the bucketing decision and the Arrow-only exchange
surface inside the one module and schema probes out of the package."""

import ast
import contextlib
import logging
import os
import re

import numpy as np
import pyarrow as pa
import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                   'python_fastjsonschema_ray')
ENTRY = os.path.join(os.path.dirname(PKG), '__ray_entry__.py')


@pytest.fixture
def gate_shut(monkeypatch):
    """Every size-gated key operator takes its co-group path."""
    from python_fastjsonschema_ray.stages import join
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)


def _blocks(ds):
    import ray
    return [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
            for t in ray.get(ds.to_arrow_refs())]


def _nulls_last(row):
    return tuple((v is None, 0 if v is None else v) for v in row)


def _table_rows(tables, columns):
    return sorted((r for t in tables if t.num_rows
                   for r in zip(*(t.column(c).to_pylist()
                                  for c in columns))), key=_nulls_last)


def _rows(ds, columns):
    return _table_rows(_blocks(ds), columns)


def _keyed(n=200, blocks=4):
    import ray.data
    rng = np.random.default_rng(7)
    t = pa.table({'a': pa.array(rng.integers(0, 13, n), type=pa.int64()),
                  'b': pa.array([['x', 'y', 'z'][i % 3] for i in range(n)]),
                  'v': pa.array(rng.random(n))})
    step = n // blocks
    return ray.data.from_arrow([t.slice(i * step, step)
                                for i in range(blocks)])


# ---------------------------------------------------------------------------
# exchange


def test_exchange_empty_inputs(ray_session):
    """A zero-row input and a schemaless empty block never reach ``fn``."""
    import ray.data
    from python_fastjsonschema_ray.stages.exchange import exchange

    def boom(group):
        raise AssertionError('fn called on an empty input')

    empty = ray.data.from_arrow(pa.table({'k': pa.array([], pa.int64())}))
    assert exchange(empty, ['k'], boom).count() == 0

    schemaless = ray.data.from_arrow(
        [pa.table({}), pa.table({'k': pa.array([1, 1, 2], pa.int64())})])

    def count(group: pa.Table) -> pa.Table:
        assert group.column_names == ['k']
        return group.group_by('k').aggregate([([], 'count_all')])

    got = _rows(exchange(schemaless, ['k'], count), ['k', 'count_all'])
    assert got == [(1, 2), (2, 1)]


def test_exchange_empty_result_stays_typed(ray_session):
    """An ``fn`` that returns an empty table yields typed blocks without
    schema metadata, even when the input blocks are pandas-backed."""
    import pandas as pd
    import ray.data
    from python_fastjsonschema_ray.stages.exchange import exchange

    ds = ray.data.from_pandas([pd.DataFrame({
        'a': np.arange(i, 40, 4, dtype=np.int64),
        'v': np.linspace(0, 1, 10)}) for i in range(4)])
    out = _blocks(exchange(ds, ['a'], lambda t: t.slice(0, 0)))
    assert out
    for b in out:
        assert b.num_rows == 0
        assert b.schema.field('a').type == pa.int64()
        assert b.schema.field('v').type == pa.float64()
        assert b'pandas' not in (b.schema.metadata or {})


def test_one_bucket_exchange_logs_no_schema_change(ray_session):
    """A one-bucket exchange over several blocks folds every row in one
    call, and Ray logs no 'different schema' record: the sort's empty
    range comes before the full one, not after it."""
    from python_fastjsonschema_ray.stages.exchange import exchange

    def fold(group: pa.Table) -> pa.Table:
        return pa.table({'n': [group.num_rows]})

    with _ray_warnings() as messages:
        got = _rows(exchange(_keyed(), [], fold, num_buckets=1), ['n'])
    assert got == [(200,)]
    assert not [m for m in messages if 'different schema' in m]


def test_runs_cut_null_and_nan_keys_into_one_run():
    """``runs`` sorts by keys then order, nulls last; an int key's nulls
    form one run, and a float key's NaN and nulls form one null run."""
    from python_fastjsonschema_ray.stages.exchange import positions, runs

    t = pa.table({
        'i': pa.array([2, None, 1, None, 2, 1], pa.int64()),
        'f': pa.array([0.5, None, np.nan, None, np.nan, 1.5]),
        'o': pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    g, bounds = runs(t, ['i'], [('o', 'descending')])
    assert bounds.tolist() == [0, 2, 4, 6]
    assert g.column('i').to_pylist() == [1, 1, 2, 2, None, None]
    assert g.column('o').to_pylist() == [6, 3, 5, 1, 4, 2]
    assert positions(bounds).tolist() == [0, 1, 0, 1, 0, 1]
    g, bounds = runs(t, ['f'], ['o'])
    assert bounds.tolist() == [0, 1, 2, 6]
    assert g.column('f').to_pylist() == [0.5, 1.5, None, None, None, None]
    assert g.column('o').to_pylist() == [1, 6, 2, 3, 4, 5]
    g, bounds = runs(t.slice(0, 0), ['i'])
    assert bounds.tolist() == [0] and g.num_rows == 0


def test_exchange_bucket_count_does_not_change_the_result(ray_session):
    """One bucket or many: the same multiset of rows comes out, and the
    bucket column never reaches ``fn``."""
    from python_fastjsonschema_ray.stages.exchange import exchange

    def passthrough(group: pa.Table) -> pa.Table:
        assert '_bucket' not in group.column_names
        return group

    ds = _keyed()
    want = _rows(ds, ['a', 'b', 'v'])
    for n in (1, 2, 7, 64):
        got = _rows(exchange(ds, ['a'], passthrough, num_buckets=n),
                    ['a', 'b', 'v'])
        assert got == want


def test_exchange_multi_key_groups_hold_whole_keys(ray_session):
    """Rows with equal (a, b) tuples share one group: per-group counts
    summed nowhere else equal the true counts."""
    import collections
    from python_fastjsonschema_ray.stages.exchange import exchange

    ds = _keyed()
    want = collections.Counter(
        (a, b) for a, b, _ in _rows(ds, ['a', 'b', 'v']))

    def count(group: pa.Table) -> pa.Table:
        return group.group_by(['a', 'b']).aggregate([([], 'count_all')])

    got = _rows(exchange(ds, ['a', 'b'], count, num_buckets=5),
                ['a', 'b', 'count_all'])
    assert got == sorted((a, b, n) for (a, b), n in want.items())


# ---------------------------------------------------------------------------
# cogroup


def _bucket_report(l: pa.Table, r: pa.Table) -> pa.Table:
    return pa.table({
        'l_rows': [l.num_rows], 'r_rows': [r.num_rows],
        'l_schema': [str(l.schema)], 'r_schema': [str(r.schema)],
        'l_keys': [sorted(l.column('k').to_pylist())],
        'r_keys': [sorted(r.column('rk').to_pylist())]})


def test_cogroup_one_sided_buckets_keep_both_schemas(ray_session,
                                                    monkeypatch):
    """Buckets that hold only one side still hand ``fn`` both sides with
    exactly their own columns and types; equal keys share a bucket."""
    import ray.data
    from python_fastjsonschema_ray.stages import exchange
    from python_fastjsonschema_ray.stages.exchange import cogroup

    monkeypatch.setattr(exchange, 'default_buckets', lambda: 64)

    left_t = pa.table({'k': pa.array([1, 2, 3, 4], pa.int64()),
                       'lv': pa.array(['a', 'b', 'c', 'd'])})
    right_t = pa.table({'rk': pa.array([3, 4, 5, 6], pa.int32()),
                        'rv': pa.array([0.5, 1.5, 2.5, 3.5])})
    out = _blocks(cogroup(ray.data.from_arrow(left_t),
                          ray.data.from_arrow(right_t), 'k', 'rk',
                          _bucket_report))
    rows = [r for b in out for r in b.to_pylist()]
    assert sum(r['l_rows'] for r in rows) == 4
    assert sum(r['r_rows'] for r in rows) == 4
    assert any(r['l_rows'] == 0 for r in rows)
    assert any(r['r_rows'] == 0 for r in rows)
    right_schema = str(pa.schema([pa.field('rk', pa.int64()),
                                  pa.field('rv', pa.float64())]))
    for r in rows:
        assert r['l_schema'] == str(left_t.schema)
        assert r['r_schema'] == right_schema
        for k in (3, 4):       # shared keys meet in one bucket
            assert (k in r['l_keys']) == (k in r['r_keys'])


def test_cogroup_empty_right_side(ray_session):
    """A zero-row right side: every bucket sees its left rows and an
    empty, typed right table."""
    import ray.data
    from python_fastjsonschema_ray.stages.exchange import cogroup

    left = ray.data.from_arrow(pa.table({'k': pa.array([1, 2, 3])}))
    right = ray.data.from_arrow(pa.table({
        'rk': pa.array([], pa.int64()), 'rv': pa.array([], pa.string())}))
    rows = [r for b in _blocks(cogroup(left, right, 'k', 'rk',
                                       _bucket_report))
            for r in b.to_pylist()]
    assert sum(r['l_rows'] for r in rows) == 3
    assert all(r['r_rows'] == 0 for r in rows)
    assert all(r['r_schema'] == 'rk: int64\nrv: string' for r in rows)


def test_cogroup_lossy_key_cast_raises_type_error(ray_session):
    """A right key value that does not survive the checked cast to the
    left key's type raises TypeError naming both key columns (Ray Data
    re-raises it on the driver wrapped, with the worker traceback)."""
    import ray.data
    from python_fastjsonschema_ray.stages.exchange import cogroup

    left = ray.data.from_arrow(pa.table({'lk': pa.array([1, 2])}))
    right = ray.data.from_arrow(pa.table({'rk': pa.array([2.5, 1.0])}))
    with pytest.raises(Exception, match=r"TypeError: right key 'rk' "
                       r"\(double\) .* left key 'lk' \(int64\)"):
        cogroup(left, right, 'lk', 'rk', _bucket_report).materialize()


# ---------------------------------------------------------------------------
# The fixed-boundary shuffle: many input blocks, few buckets


def _many_blocks(n=6400, blocks=64, seed=11):
    """Two 64-block sides: int64 ``k`` (with nulls) and int32 ``rk``."""
    import ray.data
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 500, n)
    left = pa.table({
        'k': pa.array(k, mask=rng.random(n) < 0.02, type=pa.int64()),
        'v': pa.array(rng.random(n))})
    right = pa.table({'rk': pa.array(rng.integers(250, 750, n // 2),
                                     type=pa.int32())})
    step_l, step_r = n // blocks, n // 2 // blocks
    return (left, right,
            ray.data.from_arrow([left.slice(i * step_l, step_l)
                                 for i in range(blocks)]),
            ray.data.from_arrow([right.slice(i * step_r, step_r)
                                 for i in range(blocks)]))


def test_exchange_and_cogroup_match_group_by_on_64_blocks(ray_session):
    """On 64-block inputs, per-bucket folds add up to the global
    ``pa.Table.group_by`` answer: every key lands in one group."""
    from python_fastjsonschema_ray.stages.exchange import cogroup, exchange

    left, right, lds, rds = _many_blocks()
    assert lds.num_blocks() == 64 and rds.num_blocks() == 64

    def counts(group: pa.Table) -> pa.Table:
        return group.group_by('k').aggregate([([], 'count_all'),
                                              ('v', 'sum')])

    columns = ['k', 'count_all', 'v_sum']
    got = _rows(exchange(lds, ['k'], counts), columns)
    want = _table_rows([counts(left)], columns)
    assert [r[:2] for r in got] == [r[:2] for r in want]
    assert np.allclose([r[2] for r in got], [r[2] for r in want])

    def side_counts(l: pa.Table, r: pa.Table) -> pa.Table:
        lc = l.group_by('k').aggregate([([], 'count_all')])
        rc = r.group_by('rk').aggregate([([], 'count_all')])
        return pa.table({
            'side': ['l'] * lc.num_rows + ['r'] * rc.num_rows,
            'k': pa.concat_arrays([lc.column('k').combine_chunks(),
                                   rc.column('rk').combine_chunks()]),
            'n': pa.concat_arrays([lc.column('count_all').combine_chunks(),
                                   rc.column('count_all')
                                   .combine_chunks()])})

    out = _rows(cogroup(lds, rds, 'k', 'rk', side_counts), ['side', 'k', 'n'])
    for side, table, key in (('l', left, 'k'), ('r', right, 'rk')):
        want = table.group_by(key).aggregate([([], 'count_all')])
        assert [r[1:] for r in out if r[0] == side] == _table_rows(
            [want], [key, 'count_all'])


def _sort_stats(stats):
    """(reduce blocks per SortReduce stage, 'Repartition' present)."""
    reduces = [int(m.group(1)) for m in re.finditer(
        r'SortReduce: \d+ tasks executed, (\d+) blocks produced', stats)]
    return reduces, 'Repartition' in stats


def _near_dup_blocks(n=256, blocks=64, seed=13):
    """A 64-block input for every near-duplicate operator: documents,
    64-bit signatures and embeddings, each row's successor a near copy
    of it."""
    import ray.data
    rng = np.random.default_rng(seed)
    words = np.array(['alpha', 'beta', 'gamma', 'delta', 'epsilon', 'zeta',
                      'theta', 'kappa', 'lambda', 'sigma'])
    texts = [' '.join(rng.choice(words, 40)) for _ in range(n // 2)]
    sig = rng.integers(-2**62, 2**62, n // 2)
    emb = rng.standard_normal((n // 2, 8))
    t = pa.table({
        'id': pa.array(range(n), pa.int64()),
        'text': [t + tail for t in texts for tail in ('', ' omega')],
        'h': pa.array(np.repeat(sig, 2) ^ np.tile([0, 1], n // 2)),
        'emb': pa.array(list(np.repeat(emb, 2, axis=0)),
                        pa.list_(pa.float64()))})
    step = n // blocks
    return ray.data.from_arrow([t.slice(i * step, step)
                                for i in range(blocks)])


def test_exchange_sorts_at_fixed_boundaries(ray_session, monkeypatch,
                                            gate_shut):
    """``check_unique`` (``exchange``), ``check_referential_large``
    above its size gate (``cogroup``) and the near-duplicate operators
    on 64-block inputs: no Repartition barrier, no sort sampling, and
    each sort has at most P = ``default_buckets() // 8`` reducers (one
    output block each), whatever the input block count."""
    from ray.data._internal.planner.exchange.sort_task_spec import (
        SortTaskSpec)
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large, check_unique)
    from python_fastjsonschema_ray.stages import dedup
    from python_fastjsonschema_ray.stages.exchange import default_buckets

    samples = []
    real = SortTaskSpec.sample_boundaries

    def counting(*args, **kwargs):
        samples.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(SortTaskSpec, 'sample_boundaries',
                        staticmethod(counting))
    left, right, lds, rds = _many_blocks()
    docs = _near_dup_blocks()
    p = default_buckets() // 8
    operators = {
        'check_unique': lambda: check_unique(lds, ['k']),
        'check_referential_large': lambda: check_referential_large(
            lds, 'k', rds, 'rk'),
        'minhash_duplicate_pairs': lambda: dedup.minhash_duplicate_pairs(
            docs, 'id', 'text'),
        'ngram_jaccard_pairs': lambda: dedup.ngram_jaccard_pairs(
            docs, 'id', 'text'),
        'hamming_near_dup': lambda: dedup.hamming_near_dup(docs, 'id', 'h'),
        'embedding_duplicate_pairs': lambda: dedup.embedding_duplicate_pairs(
            docs, 'id', 'emb', dim=8),
    }
    for name, build in operators.items():
        del samples[:]
        ds = build().materialize()
        reduces, repartition = _sort_stats(ds.stats())
        assert reduces and max(reduces) <= p, (name, reduces)
        assert not repartition, name
        assert not samples, name
        if name not in ('check_unique', 'check_referential_large'):
            assert ds.count() >= 128, name     # the planted near copies


def test_fewer_buckets_than_partitions(ray_session, monkeypatch):
    """1 and 2 buckets, below the partition count: ``fn`` runs once per
    non-empty bucket and every row comes out once."""
    from python_fastjsonschema_ray.stages import exchange as ex
    from python_fastjsonschema_ray.stages.exchange import cogroup, exchange

    left, right, lds, rds = _many_blocks(n=1280)

    def size(group: pa.Table) -> pa.Table:
        return pa.table({'n': [group.num_rows]})

    def sizes(l: pa.Table, r: pa.Table) -> pa.Table:
        return pa.table({'n': [l.num_rows], 'm': [r.num_rows]})

    for n in (1, 2):
        got = _rows(exchange(lds, ['k'], size, num_buckets=n), ['n'])
        assert 1 <= len(got) <= n and sum(r[0] for r in got) == left.num_rows
        monkeypatch.setattr(ex, 'default_buckets', lambda: n)
        got = [r for b in _blocks(cogroup(lds, rds, 'k', 'rk', sizes))
               for r in b.to_pylist()]
        assert 1 <= len(got) <= n
        assert sum(r['n'] for r in got) == left.num_rows
        assert sum(r['m'] for r in got) == right.num_rows


# ---------------------------------------------------------------------------
# Semi/anti joins never probe their derived key side


def _probed(monkeypatch):
    """Datasets whose ``schema()`` is asked for, in call order."""
    import ray.data
    probed = []
    real = ray.data.Dataset.schema

    def schema(self, *args, **kwargs):
        probed.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, 'schema', schema)
    return probed


def test_semi_anti_do_not_probe_the_key_side(ray_session, monkeypatch,
                                             gate_shut):
    """``check_referential_large`` above its size gate and
    ``shuffle_join(how='semi'|'anti')`` ask for no schema at all."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large)
    from python_fastjsonschema_ray.stages.join import shuffle_join

    left, right, lds, rds = _many_blocks(n=1280)
    probed = _probed(monkeypatch)
    built = {
        'check_referential_large': check_referential_large(lds, 'k', rds,
                                                           'rk'),
        'semi': shuffle_join(lds, rds, 'k', 'rk', [], how='semi'),
        'anti': shuffle_join(lds, rds, 'k', 'rk', [], how='anti')}
    assert not probed
    monkeypatch.undo()

    keys = set(right.column('rk').to_pylist())
    ks = left.column('k').to_pylist()
    hit = sum(k in keys for k in ks)
    assert built['check_referential_large'].count() == sum(
        k is not None and k not in keys for k in ks)
    assert built['semi'].count() == hit
    assert built['anti'].count() == len(ks) - hit


def test_semi_anti_empty_or_schemaless_reference(ray_session, gate_shut):
    """A zero-row or schemaless reference: anti keeps every row (the
    referential check every non-null foreign key), semi keeps none."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large)
    from python_fastjsonschema_ray.stages.join import shuffle_join

    left = ray.data.from_arrow(pa.table({
        'k': pa.array([1, None, 3, 3], pa.int64()),
        'v': pa.array(['a', 'b', 'c', 'd'])}))
    typed = ray.data.from_arrow(pa.table({'rk': pa.array([], pa.int32())}))
    schemaless = ray.data.from_arrow(pa.table({'rk': [1]})).map_batches(
        lambda b: pa.table({}), batch_format='pyarrow')
    for ref in (typed, schemaless):
        assert _rows(check_referential_large(left, 'k', ref, 'rk'),
                     ['v']) == [('a',), ('c',), ('d',)]
        assert _rows(shuffle_join(left, ref, 'k', 'rk', [], how='anti'),
                     ['v']) == [('a',), ('b',), ('c',), ('d',)]
        assert shuffle_join(left, ref, 'k', 'rk', [],
                            how='semi').count() == 0


@pytest.mark.parametrize('gate', ['open', 'shut'])
def test_referential_reference_executes_once(ray_session, monkeypatch,
                                             tmp_path, gate):
    """``check_referential`` runs the reference once on either side of
    its size gate.  Under the gate the plan has no Sort operator (the
    keys are broadcast); above it the same materialized keys meet the
    rows in one co-group sort."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential)
    from python_fastjsonschema_ray.stages import join

    if gate == 'shut':
        monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    left, right, lds, _ = _many_blocks(n=1280)
    log = str(tmp_path / 'reference.log')

    def counted(b: pa.Table) -> pa.Table:
        with open(log, 'a') as fh:
            fh.write('x\n')
        return b

    ref = ray.data.from_arrow(right).map_batches(counted,
                                                 batch_format='pyarrow')
    out = check_referential(lds, 'k', ref, 'rk').materialize()
    keys = set(right.column('rk').to_pylist())
    assert out.count() == sum(k is not None and k not in keys
                              for k in left.column('k').to_pylist())
    assert ('Sort' in out.stats()) == (gate == 'shut')
    with open(log) as fh:
        assert fh.read() == 'x\n'


# ---------------------------------------------------------------------------
# Key-type alignment in the co-group operators


def _int_float_sides(n=40):
    import ray.data
    left = ray.data.from_arrow(pa.table({
        'id': pa.array(range(n), pa.int64()),
        'g': pa.array(range(n), pa.int64()),
        't': pa.array([10.0] * n)})).repartition(3)
    right = ray.data.from_arrow(pa.table({
        'g2': pa.array([float(i) for i in range(n)], pa.float64()),
        't2': pa.array([5.0] * n),
        'val': pa.array(range(100, 100 + n), pa.int64())})).repartition(2)
    return left, right


def test_asof_join_int_left_by_float_right_by(ray_session):
    """int64 left_by against float64 right_by holding the same values:
    every left row finds its right row."""
    from python_fastjsonschema_ray.stages.join import asof_join

    left, right = _int_float_sides()
    got = _rows(asof_join(left, right, 't', 't2', 'g', 'g2', ['val'],
                          how='inner'), ['g', 'val'])
    assert got == [(i, 100 + i) for i in range(40)]


def test_check_referential_large_int_fk_float_reference(ray_session,
                                                        gate_shut):
    """An int64 foreign key against a float64 reference key holding the
    same values has no orphans on the co-group path."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large)

    left, right = _int_float_sides()
    assert check_referential_large(left, 'g', right, 'g2').count() == 0


def test_shuffle_join_int_float_keys(ray_session):
    from python_fastjsonschema_ray.stages.join import shuffle_join

    left, right = _int_float_sides()
    got = _rows(shuffle_join(left, right, 'g', 'g2', ['val']), ['g', 'val'])
    assert got == [(i, 100 + i) for i in range(40)]


def test_asof_join_float_on_key_is_not_truncated(ray_session):
    """A float left_on of 2.5 against int right_on [2, 3], forward: the
    match is 3 (truncating 2.5 to 2 would pick the row at 2)."""
    import ray.data
    from python_fastjsonschema_ray.stages.join import asof_join

    left = ray.data.from_arrow(pa.table({
        'g': pa.array([1], pa.int64()), 't': pa.array([2.5])}))
    right = ray.data.from_arrow(pa.table({
        'g2': pa.array([1, 1], pa.int64()),
        't2': pa.array([2, 3], pa.int64()),
        'val': pa.array(['at2', 'at3'])}))
    out = asof_join(left, right, 't', 't2', 'g', 'g2', ['val'],
                    direction='forward')
    assert _rows(out, ['t', 'val']) == [(2.5, 'at3')]


# ---------------------------------------------------------------------------
# Every exchange-backed operator: metadata-free blocks, no schema-hash
# warning


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextlib.contextmanager
def _ray_warnings():
    """The WARNING messages Ray Data logs on the driver while the block
    runs: block-schema hashing and the executor's schema-change check."""
    handler = _Records()
    loggers = [logging.getLogger(name) for name in (
        'ray.data._internal.arrow_ops.transform_pyarrow',
        'ray.data._internal.execution.streaming_executor_state')]
    for logger in loggers:
        logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        for logger in loggers:
            logger.removeHandler(handler)


def _operator_inputs():
    """The operator inputs as (pandas frames or Arrow tables, one per
    block), by name."""
    import pandas as pd

    rng = np.random.default_rng(3)
    n = 120
    facts = [pd.DataFrame({
        'k': rng.integers(0, 9, n // 3), 'g': rng.integers(0, 4, n // 3),
        'v': rng.random(n // 3), 'id': np.arange(i, n, 3)})
        for i in range(3)]
    dims = [pa.table({
        'dk': pa.array(range(0, 9, 2), pa.int64()),
        'dv': pa.array(['p', 'q', 'r', 's', 't']),
        'dt': pa.array(rng.random(5))})]
    ts = pd.Timestamp('2024-01-01')
    events = [pd.DataFrame({
        'user': ['u%d' % (i % 5) for i in range(40)],
        'ts': [ts + pd.Timedelta(minutes=7 * i) for i in range(40)]})]
    texts = ['the quick brown fox jumps over the lazy dog %d' % (i % 6)
             for i in range(24)]
    docs = [pd.DataFrame({
        'doc_id': np.arange(24, dtype=np.int64), 'text': texts})]
    pairs = [pa.table({
        'id_a': pa.array([1, 2, 5, 7], pa.int64()),
        'id_b': pa.array([2, 3, 6, 8], pa.int64())})]
    hashes = [pa.table({
        'id': pa.array(range(8), pa.int64()),
        'h': pa.array([5, 5, 7, 7, 9, 9, 11, 11], pa.int64())})]
    return {'facts': facts, 'dims': dims, 'events': events, 'docs': docs,
            'pairs': pairs, 'hashes': hashes}


def _in_memory(blocks):
    import ray.data
    if isinstance(blocks[0], pa.Table):
        return ray.data.from_arrow(blocks)
    return ray.data.from_pandas(blocks)


def _operator_outputs(inputs=None):
    from python_fastjsonschema_ray.pipelines import constraints as C
    from python_fastjsonschema_ray.stages import (
        components, dedup, join, quantile, sample, scan, windows)

    ds = inputs or {name: _in_memory(blocks)
                    for name, blocks in _operator_inputs().items()}
    facts, dims, events = ds['facts'], ds['dims'], ds['events']
    docs, pairs, hashes = ds['docs'], ds['pairs'], ds['hashes']
    return {
        'check_unique': C.check_unique(facts, ['k']),
        'dedup_exact': C.dedup_exact(facts, ['k']),
        'dedup_winner_ids': C.dedup_winner_ids(facts, ['k'], 'id'),
        'grouped_agg': C.grouped_agg(facts, ['k'], {'s': ('v', 'sum')}),
        'grouped_agg_one_bucket': C.grouped_agg(
            facts, ['k'], {'s': ('v', 'sum')}, num_buckets=1),
        'grouped_topk': C.grouped_topk(facts, ['g'], ['v', 'id'], 2),
        'global_topk': C.global_topk(facts, ['v', 'id'], 5),
        'shuffle_join': join.shuffle_join(facts, dims, 'k', 'dk', ['dv']),
        'shuffle_join_left': join.shuffle_join(facts, dims, 'k', 'dk',
                                               ['dv'], how='left'),
        'semi_join': join.shuffle_join(facts, dims, 'k', 'dk', [],
                                       how='semi'),
        'asof_join': join.asof_join(facts, dims, 'v', 'dt', 'k', 'dk',
                                    ['dv']),
        'grouped_quantile': quantile.grouped_quantile(facts, ['g'], 'v',
                                                      [0.5]),
        'grouped_scan': scan.grouped_scan(facts, ['g'], ['id'], 'v'),
        'mixture_sample_exact': sample.mixture_sample_exact(
            facts, 'g', 'id', {0: 3, 1: 3, 2: 3, 3: 3}),
        'session_windows': windows.session_windows(events, 'ts', 'user',
                                                   600),
        'connected_components_distributed':
            components.connected_components_distributed(pairs),
        'minhash_duplicate_pairs': dedup.minhash_duplicate_pairs(
            docs, 'doc_id', 'text'),
        'ngram_jaccard_pairs': dedup.ngram_jaccard_pairs(
            docs, 'doc_id', 'text'),
        'hamming_near_dup': dedup.hamming_near_dup(hashes, 'id', 'h'),
        'distinct_count': C.distinct_count(facts, ['k']),
        **_gated_outputs(facts, dims),
    }


def _gated_outputs(facts, dims):
    """The operators behind the size gate, and the Bloom check beside
    them, on the gate's current setting."""
    from python_fastjsonschema_ray.pipelines import constraints as C
    from python_fastjsonschema_ray.stages import join

    return {
        'check_referential_large': C.check_referential_large(
            facts, 'k', dims, 'dk'),
        'check_referential_bloom': C.check_referential_bloom(
            facts, 'k', dims, 'dk')[0],
        'broadcast_lookup_join': join.broadcast_lookup_join(
            facts, 'k', dims, 'dk', ['dv']),
        'broadcast_lookup_join_anti': join.broadcast_lookup_join(
            facts, 'k', dims, 'dk', how='anti'),
    }


def test_operators_emit_metadata_free_blocks_without_hash_warnings(
        ray_session, monkeypatch, gate_shut):
    """No operator built on the exchange leaves pandas schema metadata on
    its blocks, and none makes Ray Data log 'Failed to hash the schemas'
    on the driver (pandas metadata is unhashable in its schema dedup).
    The one-bucket folds also log no 'different schema' record.  Every
    operator runs with the size gate shut (so the gated ones co-group),
    and the gated ones and the Bloom check again with it open."""
    from python_fastjsonschema_ray.stages import join

    outputs = _operator_outputs()
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', 64 << 20)
    facts, dims = (_in_memory(_operator_inputs()[name])
                   for name in ('facts', 'dims'))
    outputs.update({name + '_gate_open': ds for name, ds in
                    _gated_outputs(facts, dims).items()})
    with_metadata, nonempty, logged = [], set(), {}
    for name, ds in outputs.items():
        if isinstance(ds, int):
            assert ds == 9, name
            continue
        with _ray_warnings() as messages:
            for b in _blocks(ds):
                if b'pandas' in (b.schema.metadata or {}):
                    with_metadata.append(name)
                if b.num_rows:
                    nonempty.add(name)
        logged[name] = list(messages)
    assert not with_metadata
    assert not [(name, m) for name, ms in logged.items() for m in ms
                if 'Failed to hash the schemas' in m]
    one_bucket = ('global_topk', 'grouped_agg_one_bucket')
    assert not [(name, m) for name in one_bucket for m in logged[name]
                if 'different schema' in m]
    # The metadata check saw real blocks of every operator.
    gated = {'check_referential_large', 'check_referential_bloom',
             'broadcast_lookup_join', 'broadcast_lookup_join_anti'}
    assert nonempty == {
        'check_unique', 'dedup_exact', 'dedup_winner_ids', 'grouped_agg',
        'grouped_agg_one_bucket', 'grouped_topk', 'global_topk',
        'shuffle_join', 'shuffle_join_left', 'semi_join', 'asof_join',
        'grouped_quantile', 'grouped_scan', 'mixture_sample_exact',
        'session_windows', 'connected_components_distributed',
        'minhash_duplicate_pairs', 'ngram_jaccard_pairs',
        'hamming_near_dup'} | gated | {g + '_gate_open' for g in gated}


@pytest.mark.parametrize('gate', ['open', 'shut'])
def test_key_operators_run_no_plan_on_the_driver(ray_session, monkeypatch,
                                                 tmp_path, gate,
                                                 no_driver_plans):
    """On lazy ``read_parquet(...).map_batches(...)`` inputs, every
    exchange- and cogroup-based operator, ``check_referential_bloom``
    and ``broadcast_lookup_join`` build and run without a schema probe
    that would execute a plan: ``Dataset.schema`` fails unless Ray
    already holds the schema or the dataset is materialized (its blocks
    exist, so no upstream plan runs)."""
    import pyarrow.parquet as pq
    import ray.data
    from python_fastjsonschema_ray.stages import join

    if gate == 'shut':
        monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    lazy = {}
    for name, blocks in _operator_inputs().items():
        for i, b in enumerate(blocks):
            table = b if isinstance(b, pa.Table) else pa.Table.from_pandas(
                b, preserve_index=False)
            pq.write_table(table, str(tmp_path / '{}_{}.parquet'.format(
                name, i)))
        lazy[name] = ray.data.read_parquet(
            [str(tmp_path / '{}_{}.parquet'.format(name, i))
             for i in range(len(blocks))]).map_batches(
            lambda b: b, batch_format='pyarrow')
    for name, ds in _operator_outputs(lazy).items():
        if not isinstance(ds, int):
            ds.materialize()


_DEFAULT_CONFIG_OPERATORS = '''
import json
import pyarrow as pa
import ray
import ray.data
ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR')
from python_fastjsonschema_ray.pipelines import constraints as C
from python_fastjsonschema_ray.stages.scan import grouped_scan
t = pa.table({'k': pa.array([i % 7 for i in range(700)]),
              'o': pa.array(range(700)),
              'v': pa.array([float(i) for i in range(700)])})
ds = ray.data.from_arrow([t.slice(i, 100) for i in range(0, 700, 100)])
both = ds.union(ds.limit(3))
def n(out):
    return sum(b.num_rows for b in ray.get(out.to_arrow_refs()))
agg = C.grouped_agg(ds, ['k'], {'s': ('v', 'sum')}, num_buckets=1)
print(json.dumps({
    'sums': sorted(v for b in ray.get(agg.to_arrow_refs()) if b.num_rows
                   for v in b['s'].to_pylist()),
    'grouped_agg': n(C.grouped_agg(ds, ['k'], {'n': (None, 'count')})),
    'check_unique': n(C.check_unique(both, ['v'])),
    'dedup_exact': n(C.dedup_exact(both, ['v'])),
    'grouped_topk': n(C.grouped_topk(ds, ['k'], ['v'], 2)),
    'global_topk': C.global_topk(ds, ['v'], 2).to_pandas()['v'].tolist(),
    'grouped_scan': n(grouped_scan(ds, ['k'], ['o'], 'v').limit(10)),
    'column_stats': [C.column_stats(ds, ['v'])['v'][s]
                     for s in ('count', 'min', 'max', 'sum')],
    'heavy_hitters': C.heavy_hitters(ds, 'k', 0.1).to_pydict(),
}))
ray.shutdown()
'''


def test_key_operators_under_default_ray_config():
    """The key operators, ``column_stats`` and ``heavy_hitters`` give
    their answers in a driver process on Ray's defaults: small task
    arguments and results inlined, and Ray Data's per-task memory poll
    on.  The suite's own Ray session turns both off (see
    ``tests/conftest.py``), so this is the one test of the exchange and
    of the driver gather on the configuration a standalone driver
    runs."""
    import json
    import signal
    import subprocess
    import sys
    root = os.path.dirname(PKG)
    proc = subprocess.Popen(
        [sys.executable, '-c', _DEFAULT_CONFIG_OPERATORS],
        env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail('the operators did not finish in 180 s')
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.splitlines()[-1])
    assert got == {
        'sums': sorted(float(sum(range(k, 700, 7))) for k in range(7)),
        'grouped_agg': 7, 'check_unique': 3, 'dedup_exact': 700,
        'grouped_topk': 14, 'global_topk': [699.0, 698.0],
        'grouped_scan': 10,
        'column_stats': [700, '0.0', '699.0', float(sum(range(700)))],
        'heavy_hitters': {'value': list(range(7)), 'n': [100] * 7}}


# ---------------------------------------------------------------------------
# One owner for the bucketing decision


def _sources():
    for root, _, files in os.walk(PKG):
        for f in files:
            if f.endswith('.py'):
                yield os.path.join(root, f)
    yield ENTRY


def test_bucketing_lives_only_in_the_exchange_module():
    """Outside stages/exchange.py no code names the '_bucket' column,
    runs a Ray ``map_groups`` shuffle, or derives a bucket from
    hash64_array(...) modulo a count — the bucketing decision has
    exactly one owner."""
    owner = os.path.join(PKG, 'stages', 'exchange.py')
    patterns = [
        re.compile(r"""['"]_bucket['"]"""),
        re.compile(r"\.map_groups\("),
        re.compile(r"hash64_array\([^)]*\)[^\n]*%"),
        re.compile(r"\b_AddKeyBucket\b|\b_bucket_col\b|\b_default_buckets\b"),
    ]
    offenders = []
    for path in _sources():
        if os.path.abspath(path) == os.path.abspath(owner):
            continue
        with open(path, encoding='utf-8') as fh:
            src = fh.read()
        for pat in patterns:
            for m in pat.finditer(src):
                line = src.count('\n', 0, m.start()) + 1
                offenders.append('{}:{}: {}'.format(
                    os.path.relpath(path, os.path.dirname(PKG)), line,
                    m.group(0)))
    assert not offenders, offenders


# Functions that may call ``.groupby(`` because it is pandas' in-memory
# groupby on one batch or on the driver's tiny partials, never Ray's
# Dataset shuffle, with what each groups.
_PANDAS_GROUPBY = {
    ('stages/scan.py', '_running_sum'):
        "a per-run cumsum inside one exchange group's numpy arrays",
    ('stages/chunk.py', 'RepetitionStage'):
        'counts repeated segments inside one batch',
}

# Public functions that may take ``num_buckets=``: the exchange itself,
# and ``grouped_agg``, whose callers fold a handful of groups in one
# task (``num_buckets=1``) or many over the default count.
_BUCKET_COUNT_OWNERS = {'exchange', 'grouped_agg'}


def test_every_keyed_fold_goes_through_the_exchange():
    """No code of the package or of ``__ray_entry__.py`` imports
    ``ray.data.aggregate``, calls a Ray Dataset ``.groupby(`` (only the
    allowlisted pandas groupbys remain) or names ``salted_group_agg``;
    and no public function but ``exchange`` and ``grouped_agg`` takes
    ``num_buckets``, so ``default_buckets()`` alone picks the bucket
    count of every other operator."""
    offenders, used = [], set()
    for path in _sources():
        where = os.path.relpath(path, PKG).replace(os.sep, '/')
        with open(path, encoding='utf-8') as fh:
            src = fh.read()
        for pat in (r'ray\.data\.aggregate', r'\bsalted_group_agg\b'):
            for m in re.finditer(pat, src):
                offenders.append('{}:{}: {}'.format(
                    where, src.count('\n', 0, m.start()) + 1, m.group(0)))
        tree = ast.parse(src)
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(top, 'name', '<module>')
                if isinstance(node, ast.Call) and getattr(
                        node.func, 'attr', None) == 'groupby':
                    if (where, name) in _PANDAS_GROUPBY:
                        used.add((where, name))
                    else:
                        offenders.append('{}:{}: .groupby( in {}'.format(
                            where, node.lineno, name))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args.args + node.args.kwonlyargs
                    if any(a.arg == 'num_buckets' for a in args) and not (
                            node.name.startswith('_')
                            or node.name in _BUCKET_COUNT_OWNERS):
                        offenders.append('{}:{}: num_buckets on {}'.format(
                            where, node.lineno, node.name))
    assert not offenders, offenders
    assert used == set(_PANDAS_GROUPBY), set(_PANDAS_GROUPBY) - used


# Functions that may still read a Dataset's schema on the driver, with
# the reason each stays.  Every other schema read, ``_arrow_schema`` or
# ``take_batch(`` in the package or the entry module is a probe: on a lazy plan it executes
# a copy of the plan before the operator's own pipeline runs.
_PROBE_ALLOWLIST = {
    ('stages/exchange.py', '_empty_side_schema'):
        'reads only a materialized dataset without rows: its blocks '
        'exist, so no upstream plan runs, and Ray hands no zero-row '
        'block to a map task, so such a side\'s types reach cogroup '
        'only this way',
    ('stages/join.py', 'broadcast_interval_join'):
        'not behind the size gate yet; gating it (with a cogroup '
        'fallback) is its own change',
    ('stages/cluster.py', 'cluster_balanced_sample'):
        'its k-means fit executes the input anyway',
    ('stages/pack.py', 'packing_plan'):
        'probes a materialized dataset, so the probe costs no execution',
    ('pipelines/infer.py', 'profile_columns'):
        'infers a spec from the input schema; the schema is its answer',
}


def _probes(tree):
    """(line, top-level function, text) of every Dataset schema read
    (``x.schema(...)``, not pyarrow's ``pa.schema``), ``_arrow_schema``
    and ``take_batch(`` in a module."""
    for top in tree.body:
        for node in ast.walk(top):
            name = getattr(top, 'name', '<module>')
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                attr = node.func.attr
                if attr == 'take_batch' or (attr == 'schema' and getattr(
                        node.func.value, 'id', None) != 'pa'):
                    yield node.lineno, name, attr + '('
            elif isinstance(node, (ast.Name, ast.Attribute)) and \
                    '_arrow_schema' in (getattr(node, 'id', None),
                                        getattr(node, 'attr', None)):
                yield node.lineno, name, '_arrow_schema'


def test_no_schema_probes_outside_the_allowlist():
    """No code of the package or of ``__ray_entry__.py`` reads a
    Dataset's schema on the driver, calls ``_arrow_schema`` or
    ``take_batch(``, except the allowlisted functions (each with its
    reason); in particular the key operators (exchange, join, dedup,
    components, windows, sample, scan, quantile, constraints) and the
    validation passes probe nothing."""
    offenders, used = [], set()
    for path in _sources():
        where = os.path.relpath(path, PKG).replace(os.sep, '/')
        with open(path, encoding='utf-8') as fh:
            tree = ast.parse(fh.read())
        for line, name, text in _probes(tree):
            if (where, name) in _PROBE_ALLOWLIST:
                used.add((where, name))
            else:
                offenders.append('{}:{}: {} in {}'.format(
                    where, line, text, name))
    assert not offenders, offenders
    assert used == set(_PROBE_ALLOWLIST), set(_PROBE_ALLOWLIST) - used


def _keywords(src, name):
    """(line, keyword) of every keyword argument passed to a ``name(...)``
    call in ``src`` (a bare or attribute call)."""
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, 'id', getattr(func, 'attr', None)) == name:
                for kw in node.keywords:
                    yield node.lineno, kw.arg


def test_folds_run_as_arrow_exchange_bodies():
    """No code folds through a ``repartition(1)`` barrier, passes
    ``combine=`` (``grouped_agg`` has one path: the exchange) or hands
    ``exchange(`` a ``batch_format=``: every exchange body takes and
    returns Arrow."""
    offenders = []
    for path in _sources():
        with open(path, encoding='utf-8') as fh:
            src = fh.read()
        where = os.path.relpath(path, os.path.dirname(PKG))
        for pat in (r'\.repartition\(\s*1\s*\)', r'\bcombine\s*='):
            for m in re.finditer(pat, src):
                offenders.append('{}:{}: {}'.format(
                    where, src.count('\n', 0, m.start()) + 1, m.group(0)))
        for line, arg in _keywords(src, 'exchange'):
            if arg == 'batch_format':
                offenders.append('{}:{}: exchange({}=...)'.format(
                    where, line, arg))
    assert not offenders, offenders
