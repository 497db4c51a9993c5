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
