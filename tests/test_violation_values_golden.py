"""Frozen violation *values*: the sha256 of every ``violations_table``
Arrow IPC stream, in fast-fail and collect mode, over tables whose failing
values are the hard cases for the ``value`` column's JSON text:

* floats mixing ``0.0``, ``-0.0``, NaN and +-inf (float64, float32), and
  half floats;
* int64 values above 2**53, uint32, int8 and bools;
* strings with quotes, backslashes, control characters and non-ASCII
  text, as ``string`` and ``large_string``;
* decimal128 ``multipleOf`` and ``maximum``, timestamps (with and without
  a time zone), dates and binary values;
* null failing values (a nullable column and a null-typed one);
* multi-chunk columns whose failing values repeat;
* struct and map values, and the root row as a value;
* one list-``items`` schema and one ``oneOf`` count schema, whose names or
  messages differ per entry.

The digests in ``tests/goldens/violation_values_sha256.json`` were recorded
once (the file's header names the commit); a mismatch means a verdict or a
byte of a violation payload changed.  Never regenerate the file to absorb
a diff: ``python -m tests.test_violation_values_golden DEST ...`` only
writes a file that does not exist yet.
"""

import datetime
import decimal
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pytest

from tests.test_violations_golden import MODES, case_digest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, 'goldens', 'violation_values_sha256.json')

_NAN = float('nan')
_INF = float('inf')
_STRINGS = ['a"b', 'back\\slash', 'ctl\x01\x1f\n\t', 'ünïcødé ✓', '😀',
            'a"b', '', None, 'plain', 'back\\slash', '\x7f ', 'zz']


def _keys(n):
    return pa.array(['k{}'.format(i) for i in range(n)])


def golden_cases():
    """[(case id, spec, table, key column, TableValidator flags)]."""
    floats = [0.0, -0.0, _NAN, _INF, -_INF, 0.0, -0.0, _NAN, 1.5, None,
              2.5, _INF]
    n = len(floats)
    yield ('floats', {'properties': {
        'f': {'enum': [1.5]},
        'g': {'type': 'number', 'maximum': -1},
        'h': {'type': 'string'},
        'j': {'exclusiveMinimum': 0, 'multipleOf': 0.5}}},
        pa.table({'k': _keys(n),
                  'f': pa.array(floats, type=pa.float64()),
                  'g': pa.array(floats, type=pa.float32()),
                  'h': pa.array(np.array([0.0, -0.0, np.nan, np.inf, -np.inf,
                                          0.0, -0.0, np.nan, 1.5, 3.0, 2.5,
                                          np.inf], dtype=np.float16)),
                  'j': pa.array(floats, type=pa.float64())}),
        'k', {})
    big = [2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63, 2 ** 53 + 1, 11, None,
           2 ** 53, 3, 2 ** 63 - 1, 12, -(2 ** 53) - 1, 11]
    yield ('ints_bools', {'properties': {
        'i': {'maximum': 10},
        'u': {'maximum': 10},
        'b': {'const': True},
        'c': {'enum': [False], 'type': 'boolean'},
        's': {'type': 'integer', 'minimum': 0}}},
        pa.table({'k': _keys(n),
                  'i': pa.array(big, type=pa.int64()),
                  'u': pa.array([2 ** 32 - 1, 5, 2 ** 31 + 1, None, 11,
                                 2 ** 32 - 1, 0, 12, 12, 2 ** 31, 1, 20],
                                type=pa.uint32()),
                  'b': pa.array([True, False, None, False] * 3),
                  'c': pa.array([True, True, False, None] * 3),
                  's': pa.array([-1, 2, -128, None, -1, 127] * 2,
                                type=pa.int8())}),
        'i', {})
    yield ('strings', {'properties': {
        's': {'enum': ['zz']},
        'ls': {'type': 'string', 'minLength': 3, 'pattern': '^z'},
        'la': {'pattern': '^(?!a)'},
        'ty': {'type': 'integer'}}},
        pa.table({'k': pa.array(_STRINGS),
                  's': pa.array(_STRINGS),
                  'ls': pa.array(_STRINGS, type=pa.large_string()),
                  'la': pa.array(_STRINGS, type=pa.large_string()),
                  'ty': pa.array(_STRINGS)}),
        'k', {})
    decimals = ['1.50', '99.99', None, '4.00', '-2.30', '0.00', '3.10',
                '1.50', '99.99', '-0.01', '0.25', '1.50']
    ts = [datetime.datetime(2020, 1, 1, 12, 30, 15, 123456),
          datetime.datetime(1969, 12, 31, 23, 59, 59), None,
          datetime.datetime(2020, 1, 1, 12, 30, 15, 123456)] * 3
    yield ('decimal_temporal', {'properties': {
        'd': {'multipleOf': 2},
        'e': {'maximum': 1, 'minimum': -1},
        'ts': {'type': 'string'},
        'tz': {'type': 'number'},
        'dt': {'type': 'string'},
        'bin': {'type': 'string'}}},
        pa.table({'k': _keys(n),
                  'd': pa.array([decimal.Decimal(x) if x else None
                                 for x in decimals],
                                type=pa.decimal128(10, 2)),
                  'e': pa.array([decimal.Decimal(x) if x else None
                                 for x in decimals],
                                type=pa.decimal128(38, 10)),
                  'ts': pa.array(ts, type=pa.timestamp('us')),
                  'tz': pa.array(ts, type=pa.timestamp('ms', tz='UTC')),
                  'dt': pa.array([datetime.date(2021, 2, 3), None,
                                  datetime.date(1, 1, 1)] * 4),
                  'bin': pa.array([b'ok', b'\xff\xfe', None, b'"q"'] * 3)}),
        'k', {})
    yield ('nulls', {'properties': {
        'n': {'type': 'string'},
        'z': {'type': 'integer'},
        'o': {'type': ['string', 'null'], 'maxLength': 1}}},
        pa.table({'k': _keys(n),
                  'n': pa.array([None, 'a', None, None, 'b', None] * 2),
                  'z': pa.nulls(n),
                  'o': pa.array([None, 'ab', None, 'ab', 'a', None] * 2)}),
        'k', {})
    chunks = pa.Table.from_batches([
        pa.record_batch({'x': pa.array(xs, type=pa.int64()),
                         'y': pa.array(ys),
                         'k': pa.array(ks, type=pa.int64())})
        for xs, ys, ks in [
            ([5, 5, 7], ['bad', 'bad', 'ok'], [1, 2, 3]),
            ([5, None, 7, 7], ['bad', None, 'w"x', 'w"x'], [4, 5, 6, 7]),
            ([9, 5, 3], ['ok', 'bad', 'bad'], [8, 9, 10]),
        ]])
    yield ('multi_chunk', {'properties': {
        'x': {'maximum': 4},
        'y': {'enum': ['ok']}}}, chunks, 'k', {})
    yield ('struct_map_root', {
        'required': ['absent'],
        'properties': {
            'obj': {'required': ['zz'], 'maxProperties': 1},
            'm': {'minProperties': 3}}},
        pa.table({'k': _keys(4),
                  'obj': pa.array([{'a': 1, 'b': 'x"y'}, None,
                                   {'a': None, 'b': 'é'}, {'a': 2, 'b': ''}],
                                  type=pa.struct([('a', pa.int64()),
                                                  ('b', pa.string())])),
                  'm': pa.array([[('p', 1.5)], None, [], [('q', -0.0),
                                                         ('r', _NAN)]],
                                type=pa.map_(pa.string(), pa.float64()))}),
        'k', {})
    yield ('list_items', {'properties': {'tags': {
        'maxItems': 2,
        'items': {'maxLength': 2, 'enum': ['a', 'bb', 'ccc']}}}},
        pa.table({'k': _keys(6),
                  'tags': pa.array([['a', 'bb'], ['ccc', 'x"', None],
                                    None, [], ['dddd', 'a', 'ccc'],
                                    ['ünï']])}),
        'k', {})
    yield ('oneof_count', {'properties': {'v': {
        'oneOf': [{'minimum': 0}, {'maximum': 10}, {'multipleOf': 5}]}}},
        pa.table({'k': _keys(n),
                  'v': pa.array([5, -3, 20, 15, None, 7, 2 ** 53 + 1, -5,
                                 10, 0, 11, 5], type=pa.int64())}),
        'k', {})


CASES = list(golden_cases())


def digests():
    return {cid: {mode: case_digest(spec, table, key, flags, ff)
                  for mode, ff in MODES.items()}
            for cid, spec, table, key, flags in CASES}


def _load():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_cases():
    assert set(_load()['cases']) == {cid for cid, *_ in CASES}


@pytest.mark.parametrize('cid', [cid for cid, *_ in CASES])
def test_violation_values_match_golden(cid):
    spec, table, key, flags = next(
        (s, t, k, f) for c, s, t, k, f in CASES if c == cid)
    want = _load()['cases'][cid]
    got = {mode: case_digest(spec, table, key, flags, ff)
           for mode, ff in MODES.items()}
    assert got == want


if __name__ == '__main__':
    # `python -m tests.test_violation_values_golden --dump OUT` writes this
    # process's digests; `python -m tests.test_violation_values_golden DEST
    # COMMIT A B` writes a NEW golden file from two such dumps taken under
    # different string-hash seeds, keeping the cases on which they agree.
    if sys.argv[1] == '--dump':
        with open(sys.argv[2], 'w') as f:
            json.dump(digests(), f)
        raise SystemExit(0)
    dest, commit, first, second = sys.argv[1:5]
    if os.path.exists(dest):
        raise SystemExit('refusing to overwrite ' + dest)
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    stable = {c: a[c] for c in sorted(a) if a[c] == b.get(c)}
    if len(stable) != len(a):
        raise SystemExit('digests depend on the string-hash seed: {}'.format(
            sorted(set(a) - set(stable))))
    out = {
        'header': (
            'sha256 of the Arrow IPC stream of TableValidator.'
            'violations_table per case and mode, recorded from the engine '
            'at commit {}. Never regenerate this file to absorb a '
            'diff.'.format(commit)),
        'cases': stable,
    }
    with open(dest, 'w') as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write('\n')
