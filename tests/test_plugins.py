"""Custom-keyword plugin API: scalar + vector paths, and the Lance-aware
reader adapter."""

import numpy as np
import pyarrow as pa
import pytest

import python_fastjsonschema_ray as engine
from python_fastjsonschema_ray.functions.plugins import (
    register_keyword, unregister_keyword)
from python_fastjsonschema_ray.pipelines.validate import TableValidator


@pytest.fixture
def even_keyword():
    def check_even(value, definition):
        if isinstance(value, int) and not isinstance(value, bool) \
                and value % 2 != (0 if definition['isEven'] else 1):
            return ' must be even' if definition['isEven'] else ' must be odd'
        return None

    register_keyword('isEven', check_value=check_even)
    yield
    unregister_keyword('isEven')


def test_scalar_plugin(even_keyword):
    validate = engine.compile({'isEven': True})
    assert validate(4) == 4
    with pytest.raises(engine.JsonSchemaValueException) as e:
        validate(3)
    assert e.value.message == 'data must be even'
    assert e.value.rule == 'isEven'
    assert e.value.definition == {'isEven': True}


def test_vector_plugin_row_kernel(even_keyword):
    table = pa.table({'x': pa.array([2, 3, None, 8], type=pa.int64())})
    tv = TableValidator({'properties': {'x': {'isEven': True}}}, table.schema)
    result = tv.validate_batch(table)
    assert list(result.valid) == [True, False, True, True]
    row, rec = result.records[0]
    assert row == 1
    assert rec[1] == 'data.x must be even'
    assert rec[2] == 'isEven'


def test_vector_plugin_vectorized():
    from python_fastjsonschema_ray.functions.vector import SimpleRule

    def vector_even(definition, dtype, compiler):
        if not pa.types.is_integer(dtype):
            return None

        def mask(view):
            vals = np.asarray(view.arr.fill_null(0))
            fail = (vals % 2) != 0
            fail &= view.valid_mask()
            return fail
        return SimpleRule('isEven', compiler._expand(definition), mask,
                          ' must be even')

    register_keyword('isEven', vector=vector_even)
    try:
        table = pa.table({'x': pa.array([2, 3], type=pa.int64())})
        tv = TableValidator({'properties': {'x': {'isEven': True}}},
                            table.schema)
        result = tv.validate_batch(table)
        assert list(result.valid) == [True, False]
    finally:
        unregister_keyword('isEven')


def test_root_plugin_vector_unsupported_falls_back_per_keyword():
    """A plugin ``vector`` builder that raises ``Unsupported`` on the root
    falls back to the scalar path for its keyword alone, like a built-in
    keyword: every row's verdict and message equal ``compile()``'s, and
    the root's built-in keywords stay vectorized."""
    from python_fastjsonschema_ray.functions.vector import (
        RowFallbackRule, Unsupported)

    def check_sum(value, definition):
        if isinstance(value, dict) and (value['a'] + value['b']) % 2:
            return ' must have an even sum'
        return None

    def vector_sum(definition, dtype, compiler):
        raise Unsupported('sums over struct rows')

    register_keyword('evenSum', check_value=check_sum, vector=vector_sum)
    try:
        definition = {'required': ['a'], 'evenSum': True,
                      'properties': {'a': {'maximum': 5}}}
        table = pa.table({'a': pa.array([1, 2, 7, 8], pa.int64()),
                          'b': pa.array([1, 2, 2, 1], pa.int64())})
        tv = TableValidator(definition, table.schema)
        result = tv.validate_batch(table)
        fallbacks = [r for r in tv.plan.rules
                     if isinstance(r, RowFallbackRule)]
        assert len(fallbacks) == 1 and len(tv.plan.rules) > 1
        validate = engine.compile(definition)
        for i, row in enumerate(table.to_pylist()):
            try:
                validate(row)
                want = None
            except engine.JsonSchemaValueException as exc:
                want = exc.message
            got = [rec[1] for r, rec in result.records if r == i]
            assert bool(result.valid[i]) == (want is None), row
            assert got == ([] if want is None else [want]), row
    finally:
        unregister_keyword('evenSum')


def test_reader_parquet_fallback(ray_session):
    from python_fastjsonschema_ray.sources.reader import read_table
    ds = read_table('/root/testdata/sf0.001/region.parquet',
                    columns=['r_name'])
    assert ds.count() == 5
    assert ds.schema().names == ['r_name']


def test_reader_jsonl_and_csv(ray_session, tmp_path):
    """JSONL (the reference's native document format) and CSV/TSV are
    auto-detected; `columns` projects right after the read."""
    from python_fastjsonschema_ray.sources.reader import read_table
    rows = [{'id': i, 'name': 'n%d' % i, 'score': i * 1.5}
            for i in range(7)]
    jl = tmp_path / 'docs.jsonl'
    jl.write_text('\n'.join(__import__('json').dumps(r) for r in rows))
    ds = read_table(str(jl), columns=['id', 'score'])
    df = ds.to_pandas().sort_values('id')
    assert list(df.columns) == ['id', 'score']
    assert df['score'].tolist() == [i * 1.5 for i in range(7)]

    cv = tmp_path / 'docs.csv'
    cv.write_text('id,name\n' + '\n'.join('%d,n%d' % (i, i)
                                          for i in range(5)))
    ds = read_table(str(cv), columns=['name'])
    assert sorted(ds.to_pandas()['name']) == ['n%d' % i for i in range(5)]

    tv = tmp_path / 'docs.tsv'
    tv.write_text('id\tname\n' + '\n'.join('%d\tn%d' % (i, i)
                                           for i in range(4)))
    ds = read_table(str(tv))
    assert ds.count() == 4 and set(ds.schema().names) == {'id', 'name'}


def test_reader_jsonl_validates_end_to_end(ray_session, tmp_path):
    """A JSONL corpus flows through the table validator unchanged."""
    import json
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    from python_fastjsonschema_ray.sources.reader import read_table
    jl = tmp_path / 'c.jsonl'
    jl.write_text('\n'.join(json.dumps({'v': v}) for v in [1, 5, 12, 3]))
    ds = read_table(str(jl))
    out = validate_dataset(ds, {'properties': {'v': {'maximum': 10}}})
    df = out.to_pandas().sort_values('v')
    assert df['valid'].tolist() == [True, True, True, False]


def test_write_table_roundtrip_formats(ray_session, tmp_path):
    """write_table emits parquet/JSONL/CSV shards that read_table reads
    back identically (incl. hive-partitioned parquet)."""
    import pandas as pd
    import ray.data
    from python_fastjsonschema_ray.sources.reader import (
        read_table, write_table)
    df = pd.DataFrame({'id': range(6), 'lang': list('aabbcc'),
                       'v': [x * 0.5 for x in range(6)]})
    ds = ray.data.from_pandas(df).repartition(2)

    for fmt in ('parquet', 'jsonl', 'csv'):
        out = str(tmp_path / fmt)
        write_table(ds, out, format=fmt)
        import glob as g
        files = sorted(g.glob(out + '/*'))
        assert files, fmt
        back = read_table(files).to_pandas().sort_values('id')
        assert back['v'].tolist() == df['v'].tolist(), fmt

    part = str(tmp_path / 'part')
    write_table(ds, part, partition_cols=['lang'])
    import os
    assert sorted(os.listdir(part)) == ['lang=a', 'lang=b', 'lang=c']
    one = read_table(part + '/lang=b').to_pandas()
    assert sorted(one['id']) == [2, 3]


def test_lazy_exports_resolve():
    """Every lazily-exported name resolves to a real callable."""
    import python_fastjsonschema_ray as eng
    for name in ('TableValidator', 'validate_dataset', 'grouped_agg',
                 'grouped_topk', 'distinct_count', 'pivot_table',
                 'broadcast_lookup_join', 'shuffle_join', 'asof_join',
                 'deterministic_sample', 'mixture_sample_exact',
                 'deterministic_split', 'token_budget_sample',
                 'chunk_text', 'repetition_stats', 'grouped_scan',
                 'global_rank', 'exact_quantiles', 'winsorize_columns',
                 'dedup_minhash', 'read_table', 'write_table',
                 'curate_corpus', 'connected_components'):
        assert callable(getattr(eng, name)), name
    import pytest
    with pytest.raises(AttributeError):
        eng.no_such_operator
