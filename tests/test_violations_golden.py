"""Frozen violation payloads: the sha256 of every ``violations_table``
Arrow IPC stream, in fast-fail and collect mode, over

* every ``$ref``-free conformance group whose documents form one Arrow
  column (validated as a one-column table, key column = that column), and
* a handful of hand-written nested schemas covering list ``items``, tuple
  ``items`` + ``additionalItems``, struct children, a scalar-fallback
  column, a lookahead ``pattern`` and Decimal-exact ``multipleOf``.

The digests in ``tests/goldens/violations_sha256.json`` were recorded once
(the file's header names the commit); a mismatch means a verdict or a byte
of a violation payload changed.  Never regenerate the file to absorb a
diff: ``python -m tests.test_violations_golden DEST`` only writes a file
that does not exist yet.
"""

import copy
import decimal
import hashlib
import json
import os
import sys

import pyarrow as pa
import pytest

from python_fastjsonschema_ray.exceptions import JsonSchemaDefinitionException
from python_fastjsonschema_ray.pipelines.validate import TableValidator

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, 'goldens', 'violations_sha256.json')
DRAFT_URI = {4: 'http://json-schema.org/draft-04/schema',
             6: 'http://json-schema.org/draft-06/schema',
             7: 'http://json-schema.org/draft-07/schema',
             2019: None}
MODES = {'fast_fail': True, 'collect': False}


def _conformance_cases():
    for draft in DRAFT_URI:
        path = os.path.join(HERE, 'conformance', 'draft{}.json'.format(draft))
        with open(path) as f:
            groups = json.load(f)
        for i, g in enumerate(groups):
            schema = g['schema']
            if '$ref' in json.dumps(schema):
                continue
            try:
                col = pa.array([t['data'] for t in g['tests']])
            except Exception:
                continue
            schema = copy.deepcopy(schema)
            if isinstance(schema, dict) and DRAFT_URI[draft]:
                schema.setdefault('$schema', DRAFT_URI[draft])
            wrapped = {'properties': {'col': schema}}
            if DRAFT_URI[draft]:
                wrapped['$schema'] = DRAFT_URI[draft]
            yield ('draft{}/{:04d}'.format(draft, i), wrapped,
                   pa.table({'col': col}), 'col', {})


def _nested_cases():
    ids = pa.array(range(8), type=pa.int64())
    yield ('nested/list_items', {'properties': {'tags': {
        'type': 'array', 'maxItems': 2,
        'items': {'required': ['a'], 'properties': {
            'a': {'minimum': 0},
            'b': {'maxLength': 3, 'pattern': '^(?!x)'}}}}}},
        pa.table({'id': ids, 'tags': pa.array([
            [{'a': 1, 'b': 'ok'}], [{'a': -1, 'b': 'xyzzy'}, None],
            None, [], [{'a': 2, 'b': None}] * 3,
            [{'a': None, 'b': 'x'}, {'a': -5, 'b': 'abc'}],
            [{'a': 0, 'b': 'xx'}], [{'a': -2, 'b': 'x'}]],
            type=pa.list_(pa.struct([('a', pa.int64()),
                                     ('b', pa.string())])))}),
        'id', {})
    yield ('nested/tuple_items', {'properties': {
        'nums': {'items': [{'maximum': 5}, {'type': 'integer', 'minimum': 0}],
                 'additionalItems': {'multipleOf': 3}},
        'pair': {'items': [{'minimum': 0}], 'additionalItems': False}}},
        pa.table({'id': ids, 'nums': pa.array([
            [1, 2, 3], [9, -1, 4, 6, 7], None, [], [6], [0, 0, 0, 1, 2, 3],
            [5, 5], [10, 10, 10]], type=pa.list_(pa.int64())),
            'pair': pa.array([[1], [-1, 2], [3, 4, 5], None, [], [0],
                              [-3], [1, 1]], type=pa.list_(pa.int64()))}),
        'id', {})
    yield ('nested/struct_children', {
        'required': ['obj'],
        'properties': {'obj': {
            'required': ['name', 'missing'],
            'properties': {
                'name': {'type': 'string', 'minLength': 2,
                         'enum': ['ab', 'abc', 'zz']},
                'inner': {'additionalProperties': False,
                          'properties': {
                              'x': {'type': 'number', 'maximum': 1.5,
                                    'multipleOf': 0.5},
                              'y': {'const': True}}}}}}},
        pa.table({'k': pa.array(['r{}'.format(i) for i in range(8)]),
                  'obj': pa.array([
                      {'name': 'ab', 'inner': {'x': 1.0, 'y': True, 'z': 1}},
                      {'name': 'a', 'inner': {'x': 2.25, 'y': False,
                                              'z': None}},
                      None,
                      {'name': None, 'inner': None},
                      {'name': 'zz', 'inner': {'x': None, 'y': None,
                                               'z': 3}},
                      {'name': 'q', 'inner': {'x': -0.0, 'y': True, 'z': 0}},
                      {'name': 'abc', 'inner': {'x': float('nan'), 'y': True,
                                                'z': 2}},
                      {'name': 'ab', 'inner': {'x': 1.5, 'y': False,
                                               'z': 5}}],
                      type=pa.struct([
                          ('name', pa.string()),
                          ('inner', pa.struct([('x', pa.float64()),
                                               ('y', pa.bool_()),
                                               ('z', pa.int64())]))]))}),
        'k', {})
    yield ('nested/row_fallback', {'properties': {
        'm': {'required': ['k'], 'properties': {'k': {'minimum': 2}},
              'maxProperties': 2},
        're': {'format': 'regex'}}},
        pa.table({'id': ids, 'm': pa.array([
            [('k', 3)], [('k', 1)], [('j', 5)], None, [],
            [('k', 2), ('a', 1), ('b', 0)], [('k', 0), ('j', 0)], [('k', 9)]],
            type=pa.map_(pa.string(), pa.int64())),
            're': pa.array(['a+', '(', None, '[a-', 'ok', '(', 'x*', ')'])}),
        'id', {})
    yield ('nested/lookahead_pattern', {'properties': {
        's': {'type': 'string', 'pattern': '^(?!F)'},
        'ls': {'pattern': '(?<=a)b'},
        'fmt': {'format': 'even-length'}}},
        pa.table({'key': pa.array(['k{}'.format(i % 3) for i in range(8)]),
                  's': pa.array(['O', 'F', None, 'F', 'Fx', 'O', '', 'F']),
                  'ls': pa.array(['ab', 'b', 'cab', None, 'bb', 'ab', 'xb',
                                  'b'], type=pa.large_string()),
                  'fmt': pa.array(['aa', 'a', 'aa', None, 'abc', '', 'a',
                                   'bbbb'])}),
        'key', {'formats': {'even-length': lambda v: len(v) % 2 == 0}})
    yield ('nested/decimal_multipleof', {'properties': {
        'f': {'multipleOf': 0.01},
        'd': {'multipleOf': 2, 'maximum': 50},
        'i': {'multipleOf': 1.5},
        'b': {'enum': [True]}}},
        pa.table({
            'f': pa.array([0.3, 19.01, -0.0, float('nan'), float('inf'),
                           None, 1e308, 0.1 + 0.2], type=pa.float64()),
            'd': pa.array([decimal.Decimal(x) if x else None for x in (
                '1.50', '99.99', None, '4.00', '-2.00', '0.00', '3.10',
                '1.50')], type=pa.decimal128(10, 2)),
            'i': pa.array([3, 4, None, -3, 0, 1, 2 ** 53, 7],
                          type=pa.int64()),
            'b': pa.array([True, False, None, True, False, True, None,
                           False])}),
        'f', {})
    yield ('nested/unique_items_bool_key', {'properties': {
        'll': {'uniqueItems': True},
        'strs': {'uniqueItems': True, 'items': {'format': 'date'}},
        'flag': {'const': False}}},
        pa.table({
            'flag': pa.array([True, False, None, True, True, False, False,
                              True]),
            'll': pa.array([[[1], [1]], [[1], [2]], None, [], [[1, 2], [2, 1]],
                            [None, None], [[3], None, [3]], [[0]]],
                           type=pa.list_(pa.list_(pa.int64()))),
            'strs': pa.array([['2020-01-01', '2020-01-01'], ['x'], None,
                              ['2020-13-01', 'y', 'y'], [], [None],
                              ['2021-02-03'], ['a', 'b']],
                             type=pa.list_(pa.string()))}),
        'flag', {})


def golden_cases():
    """[(case id, spec, table, key column, TableValidator flags)]."""
    return list(_conformance_cases()) + list(_nested_cases())


def case_digest(spec, table, key_column, flags, fast_fail):
    """sha256 of the violations_table IPC stream, or 'raises <Type>'."""
    try:
        tv = TableValidator(copy.deepcopy(spec), table.schema,
                            fast_fail=fast_fail, key_column=key_column,
                            **flags)
    except JsonSchemaDefinitionException:
        return 'definition'
    try:
        vt = tv.violations_table(table, tv.validate_batch(table))
    except Exception as exc:
        return 'raises ' + type(exc).__name__
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, vt.schema) as writer:
        writer.write_table(vt)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def digests():
    return {cid: {mode: case_digest(spec, table, key, flags, ff)
                  for mode, ff in MODES.items()}
            for cid, spec, table, key, flags in golden_cases()}


def _load():
    with open(GOLDEN) as f:
        return json.load(f)


def _recorded_ids():
    return sorted(_load()['cases']) if os.path.exists(GOLDEN) else []


CASES = golden_cases()


def test_golden_covers_cases():
    recorded = _load()['cases']
    assert len(recorded) >= 300
    ids = {cid for cid, *_ in CASES}
    assert set(recorded) <= ids
    assert {c for c in recorded if c.startswith('nested/')} == \
        {c for c in ids if c.startswith('nested/')}


@pytest.mark.parametrize('cid', _recorded_ids())
def test_violations_table_matches_golden(cid):
    spec, table, key, flags = next(
        (s, t, k, f) for c, s, t, k, f in CASES if c == cid)
    want = _load()['cases'][cid]
    got = {mode: case_digest(spec, table, key, flags, ff)
           for mode, ff in MODES.items()}
    assert got == want


if __name__ == '__main__':
    # Writes a NEW golden file from the digests of two processes with
    # different string-hash seeds (argv: destination, commit, two JSON
    # digest dumps); cases whose payload depends on set iteration order
    # differ between them and are left out.
    dest, commit, first, second = sys.argv[1:5]
    if os.path.exists(dest):
        raise SystemExit('refusing to overwrite ' + dest)
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    stable = {c: a[c] for c in sorted(a) if a[c] == b.get(c)}
    out = {
        'header': (
            'sha256 of the Arrow IPC stream of TableValidator.'
            'violations_table per case and mode, recorded from the engine '
            'at commit {}. Cases whose payload depended on the string-hash '
            'seed ({} of {}) are left out. Never regenerate this file to '
            'absorb a diff.'.format(commit, len(a) - len(stable), len(a))),
        'cases': stable,
    }
    with open(dest, 'w') as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write('\n')
