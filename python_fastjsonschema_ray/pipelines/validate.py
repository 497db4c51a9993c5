"""Table-level compiled validator + Ray Data validation stages.

``TableValidator`` is the engine's analog of the reference's compiled
validator closure (``fastjsonschema/__init__.py:284-290``): compile once
for an Arrow schema, then call ``validate_batch`` on every batch of it.
The whole batch is validated as ONE struct array (zero-copy wrapper over
the columns), so cross-column keywords (required / dependencies /
if-then-else / allOf at the root) work exactly like the reference's object
traversal.

Ray Data integration: :func:`validate_dataset` runs a
:class:`ValidatorStage` as plain Ray tasks through
:class:`~python_fastjsonschema_ray.stages.per_worker.PerWorker`, so the
plan compiles once per worker process and batch schema (the engine's
"compile once, validate many"; the types come with the batch, never from
the driver), each batch is validated vectorized, and output is selected
per stage mode (annotated rows / violation rows / transformed rows).
"""

from __future__ import annotations

import base64 as _base64
import copy
import json as _json
import re as _re

import numpy as np
import pyarrow as pa

from ..functions.arrowutil import pylist_json
from ..functions.scalar import ScalarCompiler
from ..functions.vector import (
    Emit,
    VectorCompiler,
    View,
    collect_violations,
)
from ..stages.per_worker import PerWorker

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


def _distinct_dumpable(dt) -> bool:
    """Scalar Arrow types whose ``dictionary_encode`` tells values apart
    exactly as their JSON text does (floats by bit pattern, so ``0.0`` and
    ``-0.0`` stay apart); half floats cannot be dictionary-encoded."""
    return (pa.types.is_string(dt) or pa.types.is_large_string(dt)
            or pa.types.is_binary(dt) or pa.types.is_large_binary(dt)
            or pa.types.is_integer(dt) or pa.types.is_boolean(dt)
            or pa.types.is_float32(dt) or pa.types.is_float64(dt)
            or pa.types.is_decimal(dt) or pa.types.is_timestamp(dt)
            or pa.types.is_date(dt) or pa.types.is_time(dt)
            or pa.types.is_duration(dt))


def _text_codes(texts, n):
    """(strings, codes) of one chunk's ``name`` or ``message`` column: a
    str shared by its ``n`` entries, or one string per entry (``codes``
    None)."""
    if type(texts) is str:
        return [texts], np.zeros(n, dtype=np.int64)
    return texts, None


def _value_codes(values):
    """(strings, codes) of one chunk's ``value`` column: an Arrow chunk of
    a scalar type dumps each distinct value once (``codes`` index the
    dumps, nulls the trailing ``'null'``); nested Arrow values and Python
    values dump one string per entry (``codes`` None)."""
    if not isinstance(values, list):
        if _distinct_dumpable(values.type):
            enc = values.dictionary_encode()
            strings = [_scalar_dump(v) for v in enc.dictionary.to_pylist()]
            codes = enc.indices
            if codes.null_count:
                codes = codes.fill_null(len(strings))
                strings.append('null')
            return strings, np.asarray(codes, dtype=np.int64)
        values = pylist_json(values)
    return [_scalar_dump(v) for v in values], None


def _string_column(parts, perm) -> pa.Array:
    """One payload column in record order: the chunks' ``(strings,
    codes)`` laid end to end, gathered through ``perm`` by one Arrow
    ``take``."""
    strings, codes = [], []
    for part, part_codes in parts:
        base = len(strings)
        strings.extend(part)
        codes.append(np.arange(base, len(strings), dtype=np.int64)
                     if part_codes is None else part_codes + base)
    if not codes:
        return pa.array([], type=pa.string())
    return pa.array(strings, type=pa.string()).take(
        pa.array(np.concatenate(codes)[perm], type=pa.int64()))


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

        self.compiler = VectorCompiler(self.scalar)
        self.plan = self.compiler.compile_root(self.scalar.definition,
                                               self.struct_type)
        self.content_sites = [
            (path[0], keyword, defn, site)
            for path, keyword, defn, site in self.compiler.content_sites
        ]

    # -- batch validation ------------------------------------------------

    def validate_batch(self, table: pa.Table) -> BatchResult:
        n = table.num_rows
        table = table.combine_chunks()
        for name, default in self.default_columns:
            col = pa.array([default] * n)
            table = table.append_column(name, col)

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

        chunks = recs.chunks
        return pa.table({
            'row': rows,
            'key': keys,
            'name': _string_column([_text_codes(names, len(values))
                                    for names, _, values in chunks],
                                   recs.perm),
            'message': _string_column([_text_codes(messages, len(values))
                                       for _, messages, values in chunks],
                                      recs.perm),
            'rule': per_site([rule for rule, _ in recs.sites]),
            'value': _string_column([_value_codes(values)
                                     for _, _, values in chunks], recs.perm),
            'definition': per_site(definitions),
            'rule_definition': per_site(rule_defs),
        })

    def annotate_batch(self, table: pa.Table) -> pa.Table:
        """Original (transformed) columns + a ``valid`` verdict column."""
        result = self.validate_batch(table)
        return result.output.append_column(
            'valid', pa.array(result.valid, type=pa.bool_()))


# ---------------------------------------------------------------------------
# Ray Data stages


class ValidatorStage:
    """A compiled validator applied per batch (see ``validate_dataset``).

    ``mode``:
      * ``'annotate'`` — all (transformed) input columns + ``valid`` bool.
      * ``'violations'`` — one output row per violation (VIOLATIONS_SCHEMA).

    The compiled plan is built once in ``__init__``, mirroring the
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
        raise ValueError('unknown mode {}'.format(self.mode))


def top_violation_examples(violations_ds, k=5):
    """At most ``k`` violation examples per rule (triage view):
    ``grouped_topk`` over ``rule`` with no order columns, so each rule
    keeps its first ``k`` rows in the order they reach it."""
    from .constraints import grouped_topk
    return grouped_topk(violations_ds, ['rule'], [], k)


def validate_dataset(ds, definition, *, mode='annotate', key_column=None,
                     batch_size=None, **flags):
    """Attach a validation stage to a Ray Data dataset.

    Streaming, zero-copy Arrow batches as plain Ray tasks.  Each worker
    compiles a ``ValidatorStage`` once per batch schema it meets
    (``PerWorker.for_schema``), whatever the spec and flags hold
    (callable ``formats``, ``$ref`` handlers), so nothing is read on the
    driver before the pass runs.  A fully-empty input gives zero rows."""
    kwargs = {}
    if batch_size is not None:
        kwargs['batch_size'] = batch_size
    stage = PerWorker(ValidatorStage, definition, mode=mode,
                      key_column=key_column, **flags)

    def validate(batch: pa.Table) -> pa.Table:
        return stage.for_schema(batch.schema)(batch)

    return ds.map_batches(validate, batch_format='pyarrow',
                          zero_copy_batch=True, **kwargs)
