"""Row-kernel tier edge cases: the Python predicate runs once per distinct
value of a scalar view (dictionary-encoded, nulls pass) and once per row of
a nested view; verdicts and payloads match a per-row evaluation."""

import decimal
import re

import numpy as np
import pyarrow as pa
import pytest

from python_fastjsonschema_ray.functions.vector import row_kernel_mask
from python_fastjsonschema_ray.pipelines.validate import TableValidator


class Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, v):
        self.calls.append(v)
        return self.fn(v)


def per_row(arr, fn):
    return np.array([v is not None and bool(fn(v)) for v in arr.to_pylist()])


@pytest.mark.parametrize('arr, fn', [
    (pa.array(['O', 'F', None, 'F', 'Fx', None, '']),
     lambda v: not re.search(r'^(?!F)', v)),
    (pa.array(['ab', 'b', None, 'cab', 'b'], type=pa.large_string()),
     lambda v: not re.search(r'(?<=a)b', v)),
    (pa.array([True, False, None, True, False]), lambda v: v is False),
    (pa.array([3, None, 4, 3, -6], type=pa.int32()), lambda v: v % 3 != 0),
    (pa.array(['v{}'.format(i) for i in range(500)]),
     lambda v: v.endswith('7')),
    (pa.array(np.array([1.5, 2.0, 1.5], dtype=np.float16)),
     lambda v: v > 1.75),
])
def test_mask_matches_per_row(arr, fn):
    counting = Counting(fn)
    got = row_kernel_mask(arr, counting)
    assert got.dtype == bool
    assert got.tolist() == per_row(arr, fn).tolist()
    non_null = [v for v in arr.to_pylist() if v is not None]
    if pa.types.is_float16(arr.type):       # per row: no dictionary kernel
        assert len(counting.calls) == len(non_null)
    else:
        assert sorted(map(repr, counting.calls)) == \
            sorted(map(repr, set(non_null)))


def test_sliced_view():
    arr = pa.array(['F', 'O', None, 'F', 'O', 'F'])[2:]
    assert row_kernel_mask(arr, lambda v: v == 'F').tolist() == \
        [False, True, False, True]


def test_negative_zero_and_nan_are_separate_values():
    arr = pa.array([-0.0, 0.0, float('nan'), None, float('nan'), 0.0])
    counting = Counting(lambda v: repr(v) == '-0.0' or v != v)
    got = row_kernel_mask(arr, counting)
    assert got.tolist() == [True, False, True, False, True, False]
    assert sorted(repr(v) for v in counting.calls) == ['-0.0', '0.0', 'nan']


def test_nested_views_stay_per_row():
    arr = pa.array([[[1], [1]], None, [[1], [2]], [[1], [1]], []],
                   type=pa.list_(pa.list_(pa.int64())))
    counting = Counting(lambda v: len(v) > len({tuple(x) for x in v}))
    got = row_kernel_mask(arr, counting)
    assert got.tolist() == [True, False, False, True, False]
    assert len(counting.calls) == 4         # every non-null row, repeats too


def _violations(spec, table, **flags):
    tv = TableValidator(spec, table.schema, fast_fail=False, **flags)
    res = tv.validate_batch(table)
    return res, tv.violations_table(table, res)


def test_decimal_exact_multiple_of_with_signed_zero_and_nan():
    t = pa.table({'f': pa.array([19.01, -0.0, float('nan'), None, 0.3, 0.0,
                                 19.01, 0.305])})
    res, vt = _violations({'properties': {'f': {'multipleOf': 0.01}}}, t)
    assert res.valid.tolist() == [True, True, False, True, True, True, True,
                                  False]
    assert vt.column('value').to_pylist() == ['NaN', '0.305']


def test_decimal_column_multiple_of():
    t = pa.table({'d': pa.array(
        [decimal.Decimal(x) if x else None
         for x in ('4.00', '3.10', None, '4.00', '-2.00')],
        type=pa.decimal128(10, 2))})
    res, vt = _violations({'properties': {'d': {'multipleOf': 2}}}, t)
    assert res.valid.tolist() == [True, False, True, True, True]
    assert res.records[0][1][4] == decimal.Decimal('3.10')
    assert vt.column('message').to_pylist() == ['data.d must be multiple of 2']


def test_unique_items_nested_lists_per_row():
    t = pa.table({'ll': pa.array([[[1], [1]], [[1], [2]], None, [[2], [2]]],
                                 type=pa.list_(pa.list_(pa.int64())))})
    res, vt = _violations({'properties': {'ll': {'uniqueItems': True}}}, t)
    assert res.valid.tolist() == [False, True, True, False]
    assert vt.column('row').to_pylist() == [0, 3]


def test_format_callable_called_once_per_distinct_value_per_batch():
    calls = []

    def even(v):
        calls.append(v)
        return len(v) % 2 == 0

    values = ['aa', 'a', None, 'abc', 'aa', 'a'] * 50
    t = pa.table({'s': pa.array(values)})
    tv = TableValidator({'properties': {'s': {'format': 'even'}}}, t.schema,
                        formats={'even': even}, fast_fail=False)
    res = tv.validate_batch(t)
    assert sorted(calls) == ['a', 'aa', 'abc']
    assert res.valid.tolist() == [v is None or len(v) % 2 == 0
                                  for v in values]
    assert len(res.records) == 150
    assert res.records[0] == (1, ('data.s', 'data.s must be even', 'format',
                                  {'format': 'even'}, 'a'))
    tv.validate_batch(t.slice(0, 6))
    assert len(calls) == 6
