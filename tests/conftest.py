import faulthandler
import signal
import sys

import pytest

REFERENCE_PATH = '/root/reference'

# Wall-clock limit of one test, in seconds.  The slowest tests (every
# driver query against DuckDB) take under a minute on one CPU; a test
# that runs past the limit fails with the stacks of the driver's threads
# on stderr, and the rest of the suite still runs.
TEST_TIME_LIMIT_S = 600


@pytest.fixture(scope='session')
def ray_session():
    """Initialise Ray ONCE per pytest session (driver contract: tests own
    their Ray session; library code never calls ray.init).

    Task results and arguments always go through the object store
    (``max_direct_call_object_size=0``): in Ray 2.49 a task cancelled
    while its small, inlined arguments resolve aborts the driver
    (``reference_count.cc:581``, "Check failed:
    submitted_task_ref_count > 0").  Ray Data cancels queued tasks
    whenever an execution stops early, so a long session of many small
    datasets hit it in about half of the full runs, at any commit.  A
    driver process keeps Ray's defaults; ``tests/test_exchange.py::
    test_key_operators_under_default_ray_config`` runs the key operators
    that way in a process of its own."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address='local', num_cpus=4, include_dashboard=False,
            ignore_reinit_error=True, logging_level='ERROR',
            _system_config={'max_direct_call_object_size': 0},
        )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs longer than ``TEST_TIME_LIMIT_S`` instead of
    letting it hold up the suite."""
    def expire(signum, frame):
        faulthandler.dump_traceback(all_threads=True)
        raise TimeoutError(
            'test ran longer than {} s'.format(TEST_TIME_LIMIT_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope='session', autouse=True)
def _quiet_ray_data():
    """No progress bars, and no memory-poll thread per map task: Ray
    Data 2.49 starts one in every map task (``MemoryProfiler``, for a
    per-task peak-USS metric), and a task whose ``Thread.start()`` never
    returned has held a CPU forever in long sessions of this suite."""
    try:
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.memory_usage_poll_interval_s = None
    except Exception:
        pass
    yield


@pytest.fixture(scope='session')
def reference():
    """The reference implementation, imported from the read-only checkout
    (it is not pip-installed). Used solely as a differential-testing oracle."""
    if REFERENCE_PATH not in sys.path:
        sys.path.insert(0, REFERENCE_PATH)
    import fastjsonschema
    return fastjsonschema


@pytest.fixture
def no_driver_plans(monkeypatch):
    """``Dataset.schema`` fails where it would execute a plan on the
    driver: unless Ray already holds the schema or the dataset is
    materialized (its blocks exist, so no upstream plan runs)."""
    import ray.data
    from ray.data.dataset import MaterializedDataset
    real = ray.data.Dataset.schema

    def schema(self, fetch_if_missing=True):
        known = real(self, fetch_if_missing=False)
        if known is None and not isinstance(self, MaterializedDataset):
            raise AssertionError('a schema probe executed a plan')
        return real(self, fetch_if_missing=fetch_if_missing)

    monkeypatch.setattr(ray.data.Dataset, 'schema', schema)
