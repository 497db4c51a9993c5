"""The per-worker stage helper (``stages/per_worker.py``): equal build
arguments reuse one built stage, ObjectRef arguments are keyed by id, the
cache is bounded, and a scan keeps stateful Ray stages on this one path —
no ``concurrency`` option, no actor pools, no other per-worker cache."""

import ast
import os

import pyarrow as pa

PKG = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                   'python_fastjsonschema_ray')
ENTRY = os.path.join(os.path.dirname(PKG), '__ray_entry__.py')

BUILDS = []


class _Stage:
    def __init__(self, *args, **kwargs):
        BUILDS.append((args, kwargs))


def test_equal_arguments_reuse_one_stage():
    from python_fastjsonschema_ray.stages.per_worker import PerWorker
    BUILDS.clear()
    schema = pa.schema([('z', pa.int64()), ('a', pa.int64())])
    spec = {'properties': {'z': {'maximum': 1}, 'a': {'maximum': 1}}}
    first = PerWorker(_Stage, spec, schema, mode='violations').get()
    again = PerWorker(_Stage, {'properties': {'z': {'maximum': 1},
                                              'a': {'maximum': 1}}},
                      pa.schema([('z', pa.int64()), ('a', pa.int64())]),
                      mode='violations').get()
    assert again is first and len(BUILDS) == 1
    # Key order is part of the spec, and every argument is part of the key.
    reordered = {'properties': {'a': {'maximum': 1}, 'z': {'maximum': 1}}}
    assert PerWorker(_Stage, reordered, schema,
                     mode='violations').get() is not first
    assert PerWorker(_Stage, spec, schema, mode='annotate').get() \
        is not first
    assert len(BUILDS) == 3


def test_cache_is_bounded_least_recently_used_first():
    from python_fastjsonschema_ray.stages import per_worker
    BUILDS.clear()
    kept = per_worker.PerWorker(_Stage, 'kept')
    kept.get()
    for i in range(per_worker._MAX_STAGES):
        kept.get()
        per_worker.PerWorker(_Stage, i).get()
    assert len(per_worker._STAGES) == per_worker._MAX_STAGES
    assert kept.digest in per_worker._STAGES
    assert len(BUILDS) == 1 + per_worker._MAX_STAGES


def test_batch_schema_is_part_of_the_key():
    """``for_schema`` builds ``build(*args, schema=..., **kwargs)`` once per
    batch schema: pandas metadata (which makes a schema unhashable) does
    not split the key, different types do, and the one cache stays
    bounded."""
    import pandas as pd

    from python_fastjsonschema_ray.stages import per_worker
    BUILDS.clear()
    stage = per_worker.PerWorker(_Stage, 'spec', mode='violations')
    plain = pa.schema([('a', pa.int64())])
    tagged = pa.Schema.from_pandas(pd.DataFrame({'a': [1]}),
                                   preserve_index=False)
    assert b'pandas' in tagged.metadata and tagged.equals(plain)
    first = stage.for_schema(plain)
    assert stage.for_schema(tagged) is first
    assert BUILDS == [(('spec',), {'mode': 'violations', 'schema': plain})]
    assert BUILDS[0][1]['schema'].metadata is None
    assert stage.for_schema(pa.schema([('a', pa.float64())])) is not first
    assert len(BUILDS) == 2
    for i in range(per_worker._MAX_STAGES + 3):
        stage.for_schema(pa.schema([('c%d' % i, pa.int64())]))
    assert len(per_worker._STAGES) == per_worker._MAX_STAGES
    assert len(BUILDS) == 2 + per_worker._MAX_STAGES + 3


def test_object_refs_are_keyed_by_id(ray_session):
    import ray

    from python_fastjsonschema_ray.stages.per_worker import PerWorker
    a, b = ray.put([1, 2]), ray.put([1, 2])
    assert PerWorker(ray.get, a).digest == PerWorker(ray.get, a).digest
    assert PerWorker(ray.get, a).digest != PerWorker(ray.get, b).digest
    assert PerWorker(ray.get, a).get() == [1, 2]


_BUILDS_PER_WORKER = '''
import os
import sys
from collections import Counter
import pyarrow as pa
import ray
import ray.data
log = sys.argv[1] + '/builds.log'


def count_builds():
    from python_fastjsonschema_ray.pipelines import validate
    init = validate.ValidatorStage.__init__

    def counted(self, *args, **kwargs):
        with open(log, 'a') as fh:
            fh.write('%d\\n' % os.getpid())
        init(self, *args, **kwargs)

    validate.ValidatorStage.__init__ = counted


ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR',
         runtime_env={'worker_process_setup_hook': count_builds})
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from python_fastjsonschema_ray.pipelines.validate import validate_dataset
blocks = [pa.table({'v': pa.array([i, -i], type=pa.int64())})
          for i in range(1, 7)]
for _ in range(2):
    out = validate_dataset(ray.data.from_arrow(blocks),
                           {'properties': {'v': {'minimum': 0}}},
                           mode='violations')
    print('violations', out.count())
ray.shutdown()
print('builds', *sorted(Counter(open(log).read().split()).values()))
'''


def test_stage_builds_once_per_worker_process(tmp_path):
    """Two validate_dataset calls over six blocks each (twelve map tasks)
    build the compiled stage once per worker process, not once per task."""
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, '-c', _BUILDS_PER_WORKER, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError('validate_dataset did not finish in 60 s')
    lines = out.splitlines()
    assert lines.count('violations 6') == 2
    builds = [line for line in lines if line.startswith('builds ')]
    assert builds and set(builds[0].split()[1:]) == {'1'}, lines


# ---------------------------------------------------------------------------
# One way to run a stateful stage


def _trees():
    for root, _, files in os.walk(PKG):
        for f in files:
            if f.endswith('.py'):
                path = os.path.join(root, f)
                with open(path, encoding='utf-8') as fh:
                    yield path, ast.parse(fh.read())
    with open(ENTRY, encoding='utf-8') as fh:
        yield ENTRY, ast.parse(fh.read())


def _where(path, node):
    return '{}:{}'.format(os.path.relpath(path, os.path.dirname(PKG)),
                          node.lineno)


def test_no_function_takes_concurrency():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if 'concurrency' in names:
                    offenders.append(_where(path, node))
    assert not offenders, offenders


def test_map_batches_never_starts_an_actor_pool():
    """No call passes ``fn_constructor_args``/``concurrency``/``compute``,
    and no ``map_batches`` call gets a class (Ray would run a class as an
    actor pool)."""
    trees = list(_trees())
    classes = {n.name for _, tree in trees for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)}
    pool_kwargs = {'fn_constructor_args', 'fn_constructor_kwargs',
                   'concurrency', 'compute'}
    offenders = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(k.arg in pool_kwargs for k in node.keywords):
                offenders.append(_where(path, node))
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == 'map_batches' and node.args
                    and isinstance(node.args[0], ast.Name)
                    and (node.args[0].id in classes
                         or node.args[0].id.endswith('cls'))):
                offenders.append(_where(path, node))
    assert not offenders, offenders


def _empty_container(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and not value.args
            and not value.keywords
            and getattr(value.func, 'id', getattr(value.func, 'attr', None))
            in ('dict', 'list', 'set', 'OrderedDict', 'defaultdict'))


def test_only_the_helper_module_holds_a_per_worker_cache():
    """Module-level state that starts empty is where a per-worker cache
    lives.  Besides the helper's own cache there is the keyword registry
    callers fill and the batch ordinals that name a task attempt's
    violation files — neither caches a built stage."""
    not_caches = {('functions/plugins.py', 'REGISTRY'),
                  ('pipelines/manifest.py', '_TASK_BATCH_ORDINALS')}
    found = set()
    for path, tree in _trees():
        rel = os.path.relpath(path, PKG).replace(os.sep, '/')
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _empty_container(node.value):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found.update((rel, t.id) for t in targets
                             if isinstance(t, ast.Name))
    assert found - not_caches == {('stages/per_worker.py', '_STAGES')}
