"""Compile once per Ray worker: the one way a stateful stage runs on Ray.

The reference compiles a schema once and calls the result for every
document (``fastjsonschema/__init__.py:284-290``).  On Ray the engine
builds a stage once per worker process instead.  ``PerWorker(build, *args,
**kwargs)`` names the stage ``build(*args, **kwargs)``; its ``get()`` returns
that stage, built the first time a process asks for it, and its
``map_batches(ds, ...)`` runs it over a dataset as plain Ray tasks.  No actor
pool: an actor holds a CPU for its whole life, and a pool that takes the
last CPU starves the read tasks feeding it (a ``num_cpus=1`` session
deadlocks).

The arguments travel to the workers as the objects themselves, pickled
with the task's closure, so a spec keeps its key order and callable
formats or ``$ref`` handlers need no second path.  The cache key is a
digest of ``(build, args, kwargs)`` taken once on the driver: equal
arguments reuse one built stage across calls (a warm-up pass fills the
cache a later pass reads), and an ``ObjectRef`` argument is keyed by its
id, never fetched to the driver.

A stage compiled for an Arrow schema (the validators) is built on the
worker for the schema of the batch it holds: ``for_schema(batch.schema)``
adds that schema, without its metadata, to the same cache key, so no
schema is read on the driver and blocks of different types each get a
stage of their own."""

from __future__ import annotations

import hashlib
import io
from collections import OrderedDict

# digest -> built stage, least recently used first.  The package's only
# per-worker cache.  The bound also caps how many broadcast key sets and
# text maps a worker keeps alive.
_STAGES: OrderedDict = OrderedDict()
_MAX_STAGES = 8


def _digest(build, args, kwargs) -> str:
    import ray
    from ray import cloudpickle

    class _RefsById(cloudpickle.CloudPickler):
        def persistent_id(self, obj):
            return obj.hex() if isinstance(obj, ray.ObjectRef) else None

    buf = io.BytesIO()
    _RefsById(buf).dump((build, args, kwargs))
    return hashlib.sha256(buf.getvalue()).hexdigest()


class PerWorker:
    """``build(*args, **kwargs)``, built once per process and kept while it
    stays among the ``_MAX_STAGES`` most recently used stages."""

    __slots__ = ('build', 'args', 'kwargs', 'digest')

    def __init__(self, build, *args, **kwargs):
        self.build = build
        self.args = args
        self.kwargs = kwargs
        self.digest = _digest(build, args, kwargs)

    def get(self):
        """The built stage of this process (built on first use)."""
        return self._cached(self.digest, self.kwargs)

    def for_schema(self, schema):
        """``build(*args, schema=schema, **kwargs)`` of this process, for
        batches of Arrow ``schema``.  The key drops the schema's metadata:
        it does not change the types, and pandas metadata makes a schema
        unhashable."""
        schema = schema.remove_metadata()
        return self._cached((self.digest, schema),
                            dict(self.kwargs, schema=schema))

    def _cached(self, key, kwargs):
        try:
            _STAGES.move_to_end(key)
        except KeyError:
            _STAGES[key] = self.build(*self.args, **kwargs)
            if len(_STAGES) > _MAX_STAGES:
                _STAGES.popitem(last=False)
        return _STAGES[key]

    def map_batches(self, ds, **map_kwargs):
        """``ds.map_batches`` calling the built stage on every batch, as
        plain tasks; Ray's stats name the operator after ``build``."""
        def run(batch):
            return self.get()(batch)

        run.__name__ = self.build.__name__
        return ds.map_batches(run, **map_kwargs)
