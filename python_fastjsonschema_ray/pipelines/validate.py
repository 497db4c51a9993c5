"""Table-level compiled validator + Ray Data validation stages.

``TableValidator`` is the engine's analog of the reference's compiled
validator closure (``fastjsonschema/__init__.py:284-290``): compile once on
the driver, then call ``validate_batch`` on every Arrow batch.  The whole
batch is validated as ONE struct array (zero-copy wrapper over the columns),
so cross-column keywords (required / dependencies / if-then-else / allOf at
the root) work exactly like the reference's object traversal.

Ray Data integration: :class:`ValidatorStage` is a callable class for
``ds.map_batches(ValidatorStage(...), batch_format='pyarrow',
concurrency=N)`` — the compiled plan is built once per actor in ``__init__``
(the engine's "compile once, validate many"), each batch is validated
vectorized, and output is selected per stage mode (annotated rows /
violation rows / transformed rows).
"""

from __future__ import annotations

import base64 as _base64
import copy
import json as _json
import re as _re

import numpy as np
import pyarrow as pa

from ..exceptions import (
    JsonSchemaValueException,
    JsonSchemaValuesException,
)
from ..functions.codegen import compile_validator
from ..functions.scalar import ScalarCompiler, _MISSING
from ..functions.vector import (
    Emit,
    Records,
    Unsupported,
    VectorCompiler,
    View,
    collect_violations,
)

VIOLATION_FIELDS = [
    ('row', pa.int64()),            # batch-local row index
    ('key', pa.string()),           # value of the configured key column
    ('name', pa.string()),          # e.g. data.caption[3]
    ('message', pa.string()),
    ('rule', pa.string()),
    ('value', pa.string()),         # JSON-encoded offending value
    ('definition', pa.string()),    # JSON-encoded failed sub-schema
    ('rule_definition', pa.string()),
]
VIOLATIONS_SCHEMA = pa.schema(VIOLATION_FIELDS)


def _json_default(obj):
    if isinstance(obj, bytes):
        try:
            return obj.decode('utf-8')
        except UnicodeDecodeError:
            return _base64.b64encode(obj).decode('ascii')
    return str(obj)


def json_dump(value) -> str:
    return _json.dumps(value, default=_json_default, ensure_ascii=False)


_STR_ESCAPE_RE = _re.compile(r'[\x00-\x1f"\\]')
_INF = float('inf')


def _scalar_dump(value) -> str:
    """json_dump fast path for the exact builtin scalars violation
    records overwhelmingly carry (byte-identical output, ~15x cheaper
    than a json.dumps call per violation); anything else — numpy
    scalars, containers, Decimals — falls back to json_dump."""
    t = type(value)
    if t is float:
        if value != value:
            return 'NaN'
        if value == _INF:
            return 'Infinity'
        if value == -_INF:
            return '-Infinity'
        return repr(value)
    if t is str:
        if _STR_ESCAPE_RE.search(value) is None:
            return '"' + value + '"'
        return json_dump(value)
    if t is int:
        return repr(value)
    if t is bool:
        return 'true' if value else 'false'
    if value is None:
        return 'null'
    return json_dump(value)


def _dump_values(values) -> list:
    """``_scalar_dump`` of every value, memoized per distinct str, int and
    nonzero float (0.0 and -0.0 compare equal but dump differently)."""
    memo, float_memo = {}, {}
    out = []
    append = out.append
    for v in values:
        t = type(v)
        if t is str or t is int:
            d = memo.get(v)
            if d is None:
                d = memo[v] = _scalar_dump(v)
        elif t is float and v != 0.0:
            d = float_memo.get(v)
            if d is None:
                d = float_memo[v] = _scalar_dump(v)
        else:
            d = _scalar_dump(v)
        append(d)
    return out


def _key_strings(keys: pa.Array) -> pa.Array:
    """The violation ``key`` column: ``str()`` of each key value, by an
    Arrow cast where that is byte-identical (integers and strings)."""
    t = keys.type
    if pa.types.is_integer(t) or pa.types.is_string(t) \
            or pa.types.is_large_string(t):
        return keys.cast(pa.string())
    return pa.array([None if v is None else str(v) for v in keys.to_pylist()],
                    type=pa.string())


class BatchResult:
    __slots__ = ('valid', 'records', 'output')

    def __init__(self, valid, records, output):
        self.valid = valid          # np.bool_[n]
        self.records = records      # Records
        self.output = output        # pa.Table with defaults/decodes applied


class TableValidator:
    """Compile a JSON-Schema-flavoured table spec once; validate Arrow
    batches vectorized.

    The spec is an ordinary JSON Schema whose root ``properties`` describe
    the columns.  Missing columns with ``default`` are injected as constant
    columns (the table-shaped analog of the reference's dict insertion,
    ``draft04.py:560-561``); column-level ``contentEncoding: base64`` /
    ``contentMediaType: application/json`` decode into transformed output
    columns (the reference's value-replacement transform,
    ``draft07.py:94-135``)."""

    def __init__(self, definition, schema: pa.Schema, *, formats=None,
                 use_default=True, use_formats=True, detailed_exceptions=True,
                 fast_fail=True, key_column=None, handlers=None):
        definition = copy.deepcopy(definition)
        self.fast_fail = fast_fail
        self.key_column = key_column
        self.scalar = ScalarCompiler(
            definition, formats=formats, use_default=use_default,
            use_formats=use_formats, detailed_exceptions=detailed_exceptions,
            fast_fail=fast_fail, handlers=handlers)
        self.detailed = detailed_exceptions
        self._definition_dump_cache = {}

        # Root-level defaults for missing columns.
        self.default_columns = []       # (name, default_value)
        root = self.scalar.definition
        if isinstance(root, dict) and '$ref' in root:
            with self.scalar.registry.resolving(root['$ref']) as target:
                root = target
        names = set(schema.names)
        if use_default and isinstance(root, dict):
            for key, prop in root.get('properties', {}).items():
                if key not in names and isinstance(prop, dict) and 'default' in prop:
                    self.default_columns.append((key, prop['default']))

        fields = list(schema)
        for name, default in self.default_columns:
            fields.append(pa.field(name, pa.array([default]).type))
        self.schema = pa.schema(fields)
        self.struct_type = pa.struct(
            [pa.field(f.name, f.type) for f in self.schema])

        self.fallback_root = None
        self.compiler = VectorCompiler(self.scalar)
        try:
            self.plan = self.compiler.compile_root(self.scalar.definition,
                                                   self.struct_type)
            self.content_sites = [
                (path[0], keyword, defn, site)
                for path, keyword, defn, site in self.compiler.content_sites
            ]
        except Unsupported:
            # Whole-table scalar fallback: exact semantics, row at a time.
            self.plan = None
            self.content_sites = []
            self.fallback_root = compile_validator(self.scalar)

    # -- batch validation ------------------------------------------------

    def validate_batch(self, table: pa.Table) -> BatchResult:
        n = table.num_rows
        table = table.combine_chunks()
        for name, default in self.default_columns:
            col = pa.array([default] * n)
            table = table.append_column(name, col)

        if self.plan is None:
            return self._fallback_batch(table)

        arrays = [table.column(f.name).combine_chunks()
                  for f in self.schema]
        struct = pa.StructArray.from_arrays(arrays,
                                            names=self.schema.names)
        view = View(struct, const_name='data')
        result = self.plan.evaluate(view, collect=not self.fast_fail)

        output = table
        if self.content_sites:
            output, extra_emits, extra_fail = self._apply_content(table, view)
            if extra_fail is not None:
                result.fail = extra_fail if result.fail is None \
                    else (result.fail | extra_fail)
            result.emits.extend(extra_emits)

        valid, records = collect_violations(result, n, self.fast_fail)
        return BatchResult(valid, records, output)

    def _apply_content(self, table: pa.Table, view: View):
        """Run column-level base64/JSON decode transforms; returns
        (output_table, extra_emits, extra_fail)."""
        emits = []
        fail = None
        output = table
        by_col = {}
        for col, keyword, defn, site in self.content_sites:
            by_col.setdefault(col, []).append((keyword, defn, site))
        for col, sites in by_col.items():
            values = table.column(col).to_pylist()
            n = len(values)
            col_fail = np.zeros(n, dtype=bool)
            for keyword, defn, site in sites:
                expanded = self.compiler._expand(defn)
                bad_rows, bad_msgs, bad_vals = [], [], []
                if keyword == 'contentEncoding':
                    for i, v in enumerate(values):
                        if isinstance(v, str):
                            try:
                                values[i] = _base64.b64decode(v)
                            except Exception:
                                bad_rows.append(i)
                                bad_msgs.append(
                                    'data.{} must be encoded by base64'.format(col))
                                bad_vals.append(v)
                            if values[i] == "":
                                # Dead branch BY DESIGN: values[i] is bytes
                                # after decode, so bytes == str is always
                                # False — mirroring the reference's own
                                # generated `if {variable} == "":` check
                                # (draft07.py:111-112), which has the same
                                # type mismatch.
                                bad_rows.append(i)
                                bad_msgs.append('contentEncoding must be base64')
                                bad_vals.append(values[i])
                else:  # contentMediaType: application/json
                    for i, v in enumerate(values):
                        if isinstance(v, bytes):
                            try:
                                v = values[i] = v.decode('utf-8')
                            except Exception:
                                bad_rows.append(i)
                                bad_msgs.append(
                                    'data.{} must encoded by utf8'.format(col))
                                bad_vals.append(values[i])
                        if isinstance(v, str):
                            try:
                                values[i] = _json.loads(v)
                            except Exception:
                                bad_rows.append(i)
                                bad_msgs.append(
                                    'data.{} must be valid JSON'.format(col))
                                bad_vals.append(v)
                if bad_rows:
                    rows = np.asarray(bad_rows, dtype=np.int64)
                    col_fail[rows] = True

                    def records(sel, _m=bad_msgs, _v=bad_vals,
                                _name='data.' + col):
                        return ([_name] * len(sel), [_m[s] for s in sel],
                                [_v[s] for s in sel], None, None)

                    emits.append(Emit(rows, (site.offset,),
                                      np.arange(len(rows), dtype=np.int64),
                                      records, (None, expanded)))
            if col_fail.any():
                fail = col_fail if fail is None else (fail | col_fail)
                # Rows that failed decoding are invalid; null them so the
                # decoded output column has a uniform Arrow type.
                for i in np.nonzero(col_fail)[0]:
                    values[int(i)] = None
            try:
                new_col = pa.array(values)
            except Exception:
                new_col = pa.array([json_dump(v) if v is not None else None
                                    for v in values], type=pa.string())
            output = output.set_column(
                output.schema.get_field_index(col), col, new_col)
        return output, emits, fail

    def _fallback_batch(self, table: pa.Table) -> BatchResult:
        n = table.num_rows
        rows = table.to_pylist()
        valid = np.ones(n, dtype=bool)
        err_rows, errors = [], []
        out_rows = []
        for i, row in enumerate(rows):
            try:
                out_rows.append(self.fallback_root(row))
            except JsonSchemaValueException as exc:
                valid[i] = False
                out_rows.append(row)
                err_rows.append(i)
                errors.append(exc)
            except JsonSchemaValuesException as exc:
                valid[i] = False
                out_rows.append(row)
                err_rows.extend([i] * len(exc.errors))
                errors.extend(exc.errors)
        try:
            output = pa.Table.from_pylist(out_rows)
        except Exception:
            output = table
        records = Records.from_entries(
            err_rows, [e.name for e in errors], [e.message for e in errors],
            [e.value for e in errors], [e.rule for e in errors],
            [e.definition for e in errors])
        return BatchResult(valid, records, output)

    # -- output builders -------------------------------------------------

    def violations_table(self, table: pa.Table, result: BatchResult) -> pa.Table:
        recs = result.records
        n = len(recs)
        rows = pa.array(recs.rows, type=pa.int64())
        if self.key_column and self.key_column in table.schema.names:
            taken = table.column(self.key_column).take(rows)
            keys = _key_strings(taken.combine_chunks())
        else:
            keys = pa.nulls(n, type=pa.string())
        # Rule and definition are per-site constants of the compiled plan
        # (a handful per schema): dump each site once — definitions
        # memoized by identity across batches — and gather per record.
        def_cache = self._definition_dump_cache
        definitions, rule_defs = [], []
        for rule, definition in recs.sites:
            if definition is not None and self.detailed:
                ck = (id(definition), rule)
                cached = def_cache.get(ck)
                if cached is None:
                    rd = definition.get(rule) \
                        if rule and isinstance(definition, dict) else None
                    cached = def_cache[ck] = (
                        json_dump(definition),
                        json_dump(rd) if rd is not None else None)
                definitions.append(cached[0])
                rule_defs.append(cached[1])
            else:
                definitions.append(None)
                rule_defs.append(None)
        site = pa.array(recs.site, type=pa.int64())

        def per_site(items):
            return pa.array(items, type=pa.string()).take(site)

        return pa.table({
            'row': rows,
            'key': keys,
            'name': pa.array(recs.names, type=pa.string()),
            'message': pa.array(recs.messages, type=pa.string()),
            'rule': per_site([rule for rule, _ in recs.sites]),
            'value': pa.array(_dump_values(recs.values), type=pa.string()),
            'definition': per_site(definitions),
            'rule_definition': per_site(rule_defs),
        })

    def annotate_batch(self, table: pa.Table) -> pa.Table:
        """Original (transformed) columns + a ``valid`` verdict column."""
        result = self.validate_batch(table)
        return result.output.append_column(
            'valid', pa.array(result.valid, type=pa.bool_()))


def _empty_violations_table() -> pa.Table:
    """Zero-row table with the violations-mode output schema (matches
    ``BatchValidator.violations_table`` column-for-column)."""
    return pa.table({
        'row': pa.array([], type=pa.int64()),
        'key': pa.array([], type=pa.string()),
        'name': pa.array([], type=pa.string()),
        'message': pa.array([], type=pa.string()),
        'rule': pa.array([], type=pa.string()),
        'value': pa.array([], type=pa.string()),
        'definition': pa.array([], type=pa.string()),
        'rule_definition': pa.array([], type=pa.string()),
    })


# ---------------------------------------------------------------------------
# Ray Data stages


class ValidatorStage:
    """Callable class for ``map_batches`` actor pools.

    ``mode``:
      * ``'annotate'`` — all (transformed) input columns + ``valid`` bool.
      * ``'violations'`` — one output row per violation (VIOLATIONS_SCHEMA).
      * ``'invalid_keys'`` — minimal (key, rule) pairs for shuffles/joins.

    The compiled plan is built once per actor (``__init__``), mirroring the
    reference's compile-once design at the worker level."""

    def __init__(self, definition, schema: pa.Schema, mode='annotate',
                 key_column=None, **flags):
        self.validator = TableValidator(definition, schema,
                                        key_column=key_column, **flags)
        self.mode = mode
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == 'annotate':
            return self.validator.annotate_batch(batch)
        result = self.validator.validate_batch(batch)
        violations = self.validator.violations_table(batch, result)
        if self.mode == 'violations':
            return violations
        if self.mode == 'invalid_keys':
            return violations.select(['key', 'rule'])
        raise ValueError('unknown mode {}'.format(self.mode))


def top_violation_examples(violations_ds, k=5):
    """First-k violation examples per rule (triage view): rules are few, so
    a per-rule head is a cheap groupby over already-small violation rows."""
    import pandas as pd

    def head(group: pd.DataFrame) -> pd.DataFrame:
        return group.head(k)

    return violations_ds.groupby('rule').map_groups(head,
                                                    batch_format='pandas')


# Per-worker-process compiled-stage cache for the task-based path: plain
# functions run in Ray's long-lived workers, so the plan compiles once per
# worker with zero pool spin-up and elastic task scheduling (measured ~10x
# over `concurrency=N` actor pools for this stage in round 1).
_STAGE_CACHE = {}


def validate_dataset(ds, definition, *, mode='annotate', key_column=None,
                     concurrency=None, batch_size=None, **flags):
    """Attach a validation stage to a Ray Data dataset.

    Streaming, zero-copy Arrow batches; the schema compiles once per
    WORKER (task-based map_batches + per-worker cache) when the spec and
    flags are serializable, else once per actor in an explicit pool
    (callable ``formats``/``handlers`` objects can't key a cross-process
    cache).  ``ds.schema()`` provides the Arrow schema for compile-time
    specialization."""
    import json as _json2

    import ray.data  # noqa: F401  (ds is already a Dataset)

    schema = ds.schema()
    if schema is None:
        # A fully-empty mapped dataset (zero rows survive the upstream
        # stages) reports no schema at all — routine at scale when a
        # shard's filter drops every row.  There is nothing to compile
        # against and nothing to validate; return a correctly-typed
        # empty result instead of crashing: violations mode has a fixed
        # output schema, the annotating modes pass the empty input
        # through unchanged.
        if mode == 'violations':
            return ray.data.from_arrow(_empty_violations_table())
        return ds
    names, types = schema.names, schema.types
    if all(isinstance(t, pa.DataType) for t in types):
        arrow_schema = pa.schema(
            [pa.field(n, t) for n, t in zip(names, types)])
    else:
        # Pandas-backed datasets report numpy dtypes / Python types; pull
        # one Arrow batch to get a real schema for compile-time
        # specialization.
        arrow_schema = ds.take_batch(1, batch_format='pyarrow').schema

    kwargs = {}
    if batch_size is not None:
        kwargs['batch_size'] = batch_size

    try:
        spec_json = _json2.dumps(definition, sort_keys=True)
        flags_json = _json2.dumps(flags, sort_keys=True)
    except (TypeError, ValueError):
        spec_json = None
    if spec_json is not None:
        schema_bytes = arrow_schema.serialize().to_pybytes()

        def run_batch(batch: pa.Table) -> pa.Table:
            key = (schema_bytes, spec_json, flags_json, mode, key_column)
            stage = _STAGE_CACHE.get(key)
            if stage is None:
                if len(_STAGE_CACHE) > 16:
                    _STAGE_CACHE.clear()
                stage = _STAGE_CACHE[key] = ValidatorStage(
                    _json2.loads(spec_json),
                    pa.ipc.read_schema(pa.BufferReader(schema_bytes)),
                    mode=mode, key_column=key_column,
                    **_json2.loads(flags_json))
            return stage(batch)

        return ds.map_batches(run_batch, batch_format='pyarrow',
                              zero_copy_batch=True, **kwargs)

    # Actor-pool fallback for non-serializable flags (custom format
    # callables, $ref handlers).  Size the pool to half the cluster CPUs
    # so read/write tasks keep scheduling room — a pool that reserves
    # every CPU deadlocks the streaming executor.
    if concurrency is None:
        import ray
        total = int(ray.cluster_resources().get('CPU', 2))
        concurrency = max(1, total // 2)
    kwargs['concurrency'] = concurrency
    return ds.map_batches(
        ValidatorStage,
        fn_constructor_args=(definition, arrow_schema),
        fn_constructor_kwargs=dict(mode=mode, key_column=key_column, **flags),
        batch_format='pyarrow',
        zero_copy_batch=True,
        **kwargs,
    )
