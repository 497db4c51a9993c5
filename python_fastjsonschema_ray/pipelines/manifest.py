"""Checkpoint / resume with per-partition lineage manifests.

Output layout (the north rule's "resumable from checkpoint with
per-partition lineage + metrics"):

    out_dir/
      _manifest.json              # plan hash + completed-partition records
      part=00000/verdicts/...parquet
      part=00000/violations/...parquet
      part=00001/...

Each partition corresponds to one input shard (one parquet file / fragment
range).  A partition is recorded in the manifest ONLY after its output has
been fully written (write to ``part=NNNNN.tmp`` then atomic rename), so a
crashed run resumes by skipping recorded partitions.  The manifest also
carries lineage: input path, plan hash, row/violation counts, duration.

The reference's analogous artifact is the ``compile_to_code`` module
(``fastjsonschema/__init__.py:294-341``) — a persisted compiled-validator
identity; here the plan hash pins the schema + flags so a resume with a
different spec refuses to mix outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


def _stable_default(value):
    """JSON fallback for plan hashing: callables (custom formats /
    handlers) map to their import path — stable across processes, unlike
    ``str(fn)`` whose memory address would break resume."""
    if callable(value):
        return '<callable {}.{}>'.format(
            getattr(value, '__module__', '?'),
            getattr(value, '__qualname__', repr(value.__class__)))
    return str(value)


def plan_hash(definition, flags=None) -> str:
    payload = json.dumps({'definition': definition, 'flags': flags or {}},
                         sort_keys=True, default=_stable_default)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def partition_id(input_path: str) -> str:
    """Partition identity is the INPUT PATH (content-addressed dir name),
    never a positional index: adding/removing/renaming an input file
    between runs must not re-attribute finished outputs or skip
    unprocessed shards."""
    digest = hashlib.sha256(str(input_path).encode()).hexdigest()[:12]
    return 'part={}'.format(digest)


class RunManifest:
    def __init__(self, out_dir: str, plan: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, '_manifest.json')
        self.plan = plan
        os.makedirs(out_dir, exist_ok=True)
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.state = json.load(f)
            if self.state.get('plan_hash') != plan:
                raise ValueError(
                    'manifest at {} was written by plan {} but this run is '
                    'plan {}; refusing to mix outputs'.format(
                        out_dir, self.state.get('plan_hash'), plan))
        else:
            self.state = {'plan_hash': plan, 'partitions': {}}

    def is_done(self, part_id: str, input_path: str = None) -> bool:
        rec = self.state['partitions'].get(part_id)
        if rec is None:
            return False
        if input_path is not None and rec.get('input') != str(input_path):
            raise ValueError(
                'manifest partition {} records input {!r} but this run maps '
                'it to {!r}; refusing to resume over mismatched lineage'
                .format(part_id, rec.get('input'), str(input_path)))
        return True

    def record(self, part_id: str, **lineage):
        self.state['partitions'][part_id] = lineage
        tmp = self.path + '.tmp'
        with open(tmp, 'w') as f:
            json.dump(self.state, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)

    def summary(self) -> dict:
        parts = self.state['partitions'].values()
        return {
            'plan_hash': self.plan,
            'partitions': len(self.state['partitions']),
            'rows': sum(p.get('rows', 0) for p in parts),
            'violations': sum(p.get('violations', 0) for p in parts),
        }


_TASK_BATCH_ORDINALS = {}


def _violation_file_name() -> str:
    """Deterministic per-(task, batch) violation filename: a retried Ray
    task (worker crash, object loss) re-derives the same names and
    OVERWRITES its earlier partial files instead of double-counting —
    Ray task ids are stable across retry attempts and batch slicing
    within a block is deterministic.  Falls back to a uuid only outside
    any task context (driver-local execution, where retries cannot
    happen)."""
    import uuid
    task_id = None
    attempt = 0
    try:
        import ray
        task_id = ray.get_runtime_context().get_task_id()
        try:
            # A retried attempt may land on a worker process that
            # already ran an earlier attempt of the SAME task id; the
            # ordinal must restart at 0 then, or the retry writes fresh
            # filenames alongside attempt 1's and double-counts.
            attempt = int(ray._private.worker.global_worker.core_worker
                          .get_current_task_attempt_number())
        except Exception:
            attempt = 0
    except Exception:
        pass
    if not task_id:
        return uuid.uuid4().hex + '.parquet'
    cache_key = (task_id, attempt)
    if cache_key not in _TASK_BATCH_ORDINALS:
        # New attempt of a known task: drop the stale attempt's counter
        # so numbering restarts at 0 (filenames stay attempt-free, so
        # the retry OVERWRITES attempt 1's files — the whole point).
        for stale in [k for k in _TASK_BATCH_ORDINALS if k[0] == task_id]:
            del _TASK_BATCH_ORDINALS[stale]
        if len(_TASK_BATCH_ORDINALS) > 256:
            _TASK_BATCH_ORDINALS.clear()
    ordinal = _TASK_BATCH_ORDINALS.get(cache_key, 0)
    _TASK_BATCH_ORDINALS[cache_key] = ordinal + 1
    return 'task-{}-{:05d}.parquet'.format(task_id, ordinal)


def _parquet_rows(directory: str) -> int:
    import pyarrow.parquet as pq
    total = 0
    for name in os.listdir(directory):
        if name.endswith('.parquet'):
            total += pq.ParquetFile(os.path.join(directory, name)) \
                .metadata.num_rows
    return total



def _ensure_fsspec_http_importable():
    """Ray's path resolution does ``from fsspec.implementations.http import
    HTTPFileSystem`` catching only ModuleNotFoundError; in this sandbox the
    module fails on a missing aiohttp, and CONCURRENT first-imports from
    shard threads can surface a partially-initialized module as a plain
    ImportError instead, crashing the job.  Pre-seed a stub module with a
    placeholder class (nothing is ever an instance of it, so Ray's
    isinstance check correctly returns False)."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except Exception:
        pass
    import sys
    import types
    stub = types.ModuleType('fsspec.implementations.http')

    class HTTPFileSystem:       # placeholder — never instantiated
        pass

    stub.HTTPFileSystem = HTTPFileSystem
    sys.modules['fsspec.implementations.http'] = stub


def run_validation_job(input_files, definition, out_dir, *, key_column=None,
                       flags=None, shard_parallelism=4):
    """Resumable validation over a list of input parquet shards.

    SINGLE validation pass per shard: one read → one compiled-validator
    ``map_batches`` that returns the annotated verdict rows AND writes each
    batch's violation rows directly from the worker (verdicts via Ray's
    ``write_parquet``, violations as per-batch files into the same
    partition dir — both land on the shard's storage, as any distributed
    write does).  Row/violation counts come from the written parquet
    footers, so nothing re-executes.  The output directory is committed
    atomically (write to ``<part>.tmp``, rename), then recorded in the
    manifest; partitions are keyed by input-path hash (see
    :func:`partition_id`), so re-running skips exactly the finished
    inputs.  ``shard_parallelism`` shard pipelines run concurrently from
    the driver (streaming executions share the cluster; manifest writes
    serialize under a lock) so small shards amortize per-pipeline fixed
    cost — within each shard the streaming executor parallelizes
    freely.

    Multi-node note: per-batch violation files and ``write_parquet``
    verdicts are written by WORKER tasks, so ``out_dir`` must be shared
    storage (NFS / object store URI) on a multi-node cluster — a local
    path only works single-node.  Violation filenames are derived from
    the writing task's Ray task id + batch ordinal, so a retried task
    overwrites its own partial files instead of double-counting."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.per_worker import PerWorker
    from .validate import VIOLATIONS_SCHEMA, TableValidator

    _ensure_fsspec_http_importable()

    flags = flags or {}
    manifest = RunManifest(out_dir, plan_hash(definition, flags))
    manifest_lock = threading.Lock()
    construct_lock = threading.Lock()   # dataset CONSTRUCTION serialized;
    #                                     execution overlaps freely

    pending = []
    for path in sorted(input_files):
        part_id = partition_id(path)
        if manifest.is_done(part_id, input_path=str(path)):
            continue
        pending.append((part_id, path))

    def process(item):
        part_id, path = item
        t0 = time.time()
        part_dir = os.path.join(out_dir, part_id)
        tmp_dir = part_dir + '.tmp'
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        verd_dir = os.path.join(tmp_dir, 'verdicts')
        viol_dir = os.path.join(tmp_dir, 'violations')
        os.makedirs(verd_dir)
        os.makedirs(viol_dir)

        with construct_lock:
            from ..sources.reader import read_table
            ds = read_table(path)
        built = PerWorker(TableValidator, definition,
                          key_column=key_column, **flags)

        def run_batch(batch: pa.Table) -> pa.Table:
            validator = built.for_schema(batch.schema)
            result = validator.validate_batch(batch)
            violations = validator.violations_table(batch, result)
            if violations.num_rows:
                pq.write_table(violations, os.path.join(
                    viol_dir, _violation_file_name()))
            return result.output.append_column(
                'valid', pa.array(result.valid, type=pa.bool_()))

        annotated = ds.map_batches(run_batch, batch_format='pyarrow',
                                   zero_copy_batch=True)
        annotated.write_parquet(verd_dir)
        if not any(f.endswith('.parquet') for f in os.listdir(viol_dir)):
            # Keep the violations side readable as a (possibly empty) table.
            pq.write_table(VIOLATIONS_SCHEMA.empty_table(),
                           os.path.join(viol_dir, 'empty.parquet'))
        n_rows = _parquet_rows(verd_dir)
        n_violations = _parquet_rows(viol_dir)
        if os.path.exists(part_dir):
            shutil.rmtree(part_dir)
        os.replace(tmp_dir, part_dir)
        with manifest_lock:
            manifest.record(part_id, input=str(path), rows=n_rows,
                            violations=n_violations,
                            duration_s=round(time.time() - t0, 3))

    if pending:
        workers = max(1, min(int(shard_parallelism), len(pending)))
        if workers == 1:
            for item in pending:
                process(item)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(process, pending))
    return manifest.summary()
