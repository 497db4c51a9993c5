"""Ray Data integration: validation stages over the driver-generated
testdata parquet (read → map_batches tasks → verdicts/violations)."""

import pyarrow as pa
import pytest

SF_DIR = '/root/testdata/sf0.001'

LINEITEM_SPEC = {
    'type': 'object',
    'properties': {
        'l_orderkey': {'type': 'integer', 'minimum': 0},
        'l_quantity': {'type': 'number', 'minimum': 1, 'maximum': 50},
        'l_discount': {'type': 'number', 'minimum': 0, 'maximum': 0.1},
        'l_returnflag': {'enum': ['A', 'N', 'R']},
        'l_linestatus': {'enum': ['O', 'F']},
    },
    'required': ['l_orderkey', 'l_quantity'],
}


@pytest.fixture(scope='module')
def lineitem(ray_session):
    import ray.data
    return ray.data.read_parquet(
        SF_DIR + '/lineitem.parquet',
        columns=['l_orderkey', 'l_quantity', 'l_discount',
                 'l_returnflag', 'l_linestatus'])


def test_annotate_mode(lineitem):
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    out = validate_dataset(lineitem, LINEITEM_SPEC, mode='annotate')
    t = pa.concat_tables(
        out.iter_batches(batch_size=10000, batch_format='pyarrow'))
    assert t.num_rows == lineitem.count()
    assert 'valid' in t.schema.names
    # Driver testdata is clean TPC-H-ish data: everything in range.
    valid = t.column('valid').to_pylist()
    assert all(valid)


def test_violations_mode(ray_session):
    import ray.data
    ds = ray.data.read_parquet(SF_DIR + '/orders.parquet',
                               columns=['o_orderkey', 'o_orderstatus',
                                        'o_totalprice'])
    from python_fastjsonschema_ray.pipelines.validate import validate_dataset
    spec = {
        'properties': {
            # Plant a failing rule so violations are non-empty: totalprice
            # capped absurdly low.
            'o_totalprice': {'type': 'number', 'maximum': 1000},
            'o_orderstatus': {'enum': ['O', 'F', 'P']},
        },
    }
    out = validate_dataset(ds, spec, mode='violations',
                           key_column='o_orderkey')
    rows = out.take_all()
    assert rows, 'expected planted violations'
    sample = rows[0]
    assert sample['rule'] == 'maximum'
    assert 'must be smaller than or equal to 1000' in sample['message']
    assert sample['name'] == 'data.o_totalprice'
    assert sample['key'] is not None


def test_stage_smoke_direct():
    """Stage __init__ failures surface late in Ray; smoke the callable class
    directly (ray guide pitfall)."""
    from python_fastjsonschema_ray.pipelines.validate import ValidatorStage
    schema = pa.schema([('a', pa.int64())])
    stage = ValidatorStage({'properties': {'a': {'minimum': 0}}}, schema,
                           mode='violations')
    out = stage(pa.table({'a': pa.array([1, -2], type=pa.int64())}))
    assert out.num_rows == 1
    assert out.column('message').to_pylist() == [
        'data.a must be bigger than or equal to 0']


def test_ray_paths_keep_property_order(ray_session, tmp_path):
    """Fast-fail reports the first failing property in definition order
    (``data.z`` before ``data.a``), as the in-process validator does; the
    Ray paths get the spec itself, not a key-sorted copy."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from python_fastjsonschema_ray.pipelines.manifest import (
        run_validation_job)
    from python_fastjsonschema_ray.pipelines.validate import (
        TableValidator, validate_dataset)

    spec = {'properties': {'z': {'maximum': 1}, 'a': {'maximum': 1}}}
    table = pa.table({'k': pa.array([7], type=pa.int64()),
                      'z': pa.array([5], type=pa.int64()),
                      'a': pa.array([5], type=pa.int64())})
    tv = TableValidator(spec, table.schema, key_column='k', fast_fail=True)
    expected = tv.violations_table(table, tv.validate_batch(table)).to_pylist()
    assert [r['name'] for r in expected] == ['data.z']

    got = validate_dataset(ray.data.from_arrow(table), spec,
                           mode='violations', key_column='k',
                           fast_fail=True).take_all()
    assert got == expected

    path = str(tmp_path / 'in.parquet')
    pq.write_table(table, path)
    out = str(tmp_path / 'out')
    run_validation_job([path], spec, out, key_column='k',
                       flags={'fast_fail': True})
    (part,) = [d for d in os.listdir(out) if not d.startswith('_')]
    written = pq.read_table(os.path.join(out, part, 'violations'))
    assert written.to_pylist() == expected


_SINGLE_CPU_CALLABLE_FORMAT = '''
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
path = sys.argv[1] + '/rows.parquet'
table = pa.table({'k': pa.array(range(5000), type=pa.int64()),
                  'v': pa.array([str(i % 7) for i in range(5000)])})
pq.write_table(table, path, row_group_size=500)
ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR')
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from python_fastjsonschema_ray.pipelines.validate import (
    TableValidator, validate_dataset)
spec = {'properties': {'v': {'type': 'string', 'format': 'even'}}}
formats = {'even': lambda s: int(s) % 2 == 0}
columns = ['key', 'name', 'message', 'rule', 'value', 'definition',
           'rule_definition']
got = validate_dataset(ray.data.read_parquet(path), spec, mode='violations',
                       key_column='k', formats=formats)
got = sorted(tuple(r[c] for c in columns) for r in got.take_all())
tv = TableValidator(spec, table.schema, key_column='k', formats=formats)
want = tv.violations_table(table, tv.validate_batch(table)).to_pylist()
want = sorted(tuple(r[c] for c in columns) for r in want)
print('violations', len(got), got == want)
ray.shutdown()
'''


def test_validate_dataset_callable_format_single_cpu(tmp_path):
    """A callable ``formats`` entry over a parquet read finishes at
    ``num_cpus=1`` and matches the in-process validator: the stage runs
    as tasks, so nothing holds the CPU the read tasks need."""
    import os
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, '-c', _SINGLE_CPU_CALLABLE_FORMAT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail('validate_dataset did not finish in 60 s at num_cpus=1')
    # v = i % 7 over i in 0..4999: the odd residues 1, 3, 5 fail.
    assert 'violations 2143 True' in out.splitlines()


# ---------------------------------------------------------------------------
# The validator compiles on the worker, for the schema of the batch it holds

_KV_SPEC = {'properties': {'v': {'type': 'integer', 'minimum': 0},
                           's': {'type': 'string', 'maxLength': 2}}}
_VIOLATION_COLUMNS = ['key', 'name', 'message', 'rule', 'value',
                      'definition', 'rule_definition']


def _rows(table, columns):
    return sorted(zip(*(table.column(c).to_pylist() for c in columns)),
                  key=repr)


def _lazy_parquet(tmp_path, name, table, how):
    """``table`` written as two parquet files, read back lazily and then
    projected or mapped: Ray holds no schema for it until it runs."""
    import pyarrow.parquet as pq
    import ray.data
    half = table.num_rows // 2
    paths = []
    for i, part in enumerate((table.slice(0, half), table.slice(half))):
        paths.append(str(tmp_path / '{}_{}.parquet'.format(name, i)))
        pq.write_table(part, paths[-1])
    ds = ray.data.read_parquet(paths)
    if how == 'select_columns':
        return ds.select_columns(table.column_names)
    return ds.map_batches(lambda b: b, batch_format='pyarrow')


@pytest.mark.parametrize('how', ['select_columns', 'map_batches'])
def test_validation_runs_no_plan_on_the_driver(ray_session, tmp_path,
                                               no_driver_plans, how):
    """``validate_dataset`` in every mode and the flagship's
    ``validation_pass`` run on lazy projected or mapped parquet inputs
    without a driver-side schema probe (which would execute the plan),
    and give the in-process validator's answer."""
    from python_fastjsonschema_ray.pipelines.flagship import (
        ValidateAndDecodeStage, validation_pass)
    from python_fastjsonschema_ray.pipelines.validate import (
        TableValidator, validate_dataset)
    from python_fastjsonschema_ray.sources.images import image_batch

    table = pa.table({'k': pa.array(range(40), type=pa.int64()),
                      'v': pa.array([i - 5 for i in range(40)],
                                    type=pa.int64()),
                      's': pa.array(['x' * (i % 4) for i in range(40)])})
    ds = _lazy_parquet(tmp_path, 'kv', table, how)
    tv = TableValidator(_KV_SPEC, table.schema, key_column='k',
                        fast_fail=False)
    result = tv.validate_batch(table)
    want = tv.violations_table(table, result)

    def run(mode):
        out = validate_dataset(ds, _KV_SPEC, mode=mode, key_column='k',
                               fast_fail=False)
        return pa.concat_tables(out.iter_batches(batch_format='pyarrow',
                                                 batch_size=None))

    assert _rows(run('violations'), _VIOLATION_COLUMNS) == \
        _rows(want, _VIOLATION_COLUMNS)
    annotated = run('annotate')
    assert annotated.sort_by('k').equals(
        table.append_column('valid', pa.array(result.valid)))

    images = image_batch(0, 200, seed=7, violation_rate=0.05)
    stage_rows = _rows(ValidateAndDecodeStage(images.schema)(images),
                       ['key', 'source', 'rule', 'message'])
    assert stage_rows
    got = validation_pass(_lazy_parquet(tmp_path, 'images', images, how),
                          batch_size=64)
    got = pa.concat_tables(got.iter_batches(batch_format='pyarrow',
                                            batch_size=None))
    assert _rows(got, ['key', 'source', 'rule', 'message']) == stage_rows


def test_validation_job_runs_no_plan_on_the_driver(ray_session, tmp_path,
                                                   no_driver_plans):
    """``run_validation_job`` over JSONL shards, whose schema Ray knows
    only by reading them, runs no plan on the driver before its pass."""
    import json
    import os

    import pyarrow.parquet as pq

    from python_fastjsonschema_ray.pipelines.manifest import (
        run_validation_job)
    shards = []
    for i in range(2):
        path = tmp_path / 'in_{}.jsonl'.format(i)
        path.write_text('\n'.join(json.dumps({'k': i * 10 + j, 'v': j - 1})
                                  for j in range(6)))
        shards.append(str(path))
    out = str(tmp_path / 'out')
    summary = run_validation_job(shards, _KV_SPEC, out, key_column='k',
                                 flags={'fast_fail': False})
    assert (summary['rows'], summary['violations']) == (12, 2)
    keys = sorted(k for d in os.listdir(out) if not d.startswith('_')
                  for k in pq.read_table(os.path.join(out, d, 'violations'))
                  .column('key').to_pylist())
    assert keys == ['0', '10']


def _blocks_of_three_schemas():
    """Blocks whose column types differ: int64 beside float64, string
    beside large_string, and a column of nulls typed null."""
    def block(ids, v, s, n):
        return pa.table({'k': pa.array(ids, type=pa.int64()), 'v': v,
                         's': s, 'n': n})

    return [
        block([0, 1, 2], pa.array([1, -2, 3], type=pa.int64()),
              pa.array(['a', 'bbb', None]), pa.array([1, None, 3])),
        block([3, 4, 5], pa.array([1.5, -2.0, 4.0]),
              pa.array(['cc', 'dddd', 'e'], type=pa.large_string()),
              pa.nulls(3)),
        block([6, 7, 8], pa.array([None, 7, -1], type=pa.int64()),
              pa.array(['ff', 'g', 'hhhhh'], type=pa.large_string()),
              pa.array([-4, 5, 6])),
    ]


@pytest.mark.parametrize('mode', ['violations', 'annotate'])
def test_blocks_of_different_schemas_validate_as_each_alone(ray_session,
                                                            mode):
    """Each block is validated by a stage compiled for its own schema, so
    the output equals ``TableValidator`` run on each block alone."""
    import ray
    import ray.data

    from python_fastjsonschema_ray.pipelines.validate import (
        TableValidator, validate_dataset)
    spec = {'properties': {'v': {'type': 'integer', 'minimum': 0},
                           's': {'type': 'string', 'maxLength': 2},
                           'n': {'type': ['integer', 'null'],
                                 'minimum': 0}}}
    blocks = _blocks_of_three_schemas()
    types = {(b.schema.field('v').type, b.schema.field('s').type,
              b.schema.field('n').type) for b in blocks}
    assert len(types) == 3
    want = []
    for b in blocks:
        tv = TableValidator(spec, b.schema, key_column='k', fast_fail=False)
        want.append(tv.violations_table(b, tv.validate_batch(b))
                    if mode == 'violations' else tv.annotate_batch(b))
    out = validate_dataset(ray.data.from_arrow(blocks), spec, mode=mode,
                           key_column='k', fast_fail=False, batch_size=3)
    first = 'key' if mode == 'violations' else 'k'
    got = sorted((b for b in ray.get(out.to_arrow_refs()) if b.num_rows),
                 key=lambda b: int(b.column(first)[0].as_py()))
    assert all(w.num_rows for w in want) and len(got) == len(want)
    for g, w in zip(got, want):
        assert g.equals(w), (g, w)
