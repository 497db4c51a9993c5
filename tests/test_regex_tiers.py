"""Regex rules: the vector plan's verdicts equal ``compile()``'s on strings
where Python ``re`` and RE2 disagree, and each pattern lands in the tier
(Arrow RE2 kernel or Python row kernel) that can give them."""

import pyarrow as pa
import pytest

from python_fastjsonschema_ray import compile as compile_scalar
from python_fastjsonschema_ray.functions import vector
from python_fastjsonschema_ray.pipelines.flagship import IMAGE_TABLE_SPEC
from python_fastjsonschema_ray.pipelines.validate import TableValidator

STRINGS = [
    '', 'a', 'a\n', 'a\nb', '\n', 'a$', 'a\\', 'a\\\n', '\\',
    '3', '\u0663', 'x\u0663', 'e', '\xe9', 'ab\xe9', '_',
    ' ', '\xa0', '\x0b', '\x1c', 'x x', 'xx', 'x{,2}', 'F', 'Fx', 'O',
    'img-012345678901', 'img-012345678901\n', 'img-01234567890\u0663',
]

PATTERNS = [
    r'^img-[0-9]{12}$', r'^a$', r'a$', r'^$', r'^a\Z', r'a\$', r'a\\$',
    r'a\\\$', r'\d', r'^\d+$', r'\D', r'^\w+$', r'\W', r'\s', r'^\S+$',
    r'[\d]', r'^x{,2}$', r'^[[:alpha:]]+$', r'^(?!F)', r'^(a|\\)+$',
]


def _rows(strings):
    return pa.table({'s': pa.array(strings, type=pa.string())})


def _vector_valid(definition, table, formats=None):
    tv = TableValidator(definition, table.schema, formats=formats)
    return tv.validate_batch(table).valid.tolist()


def _scalar_valid(definition, strings, formats=None):
    validate = compile_scalar(definition, formats=formats)
    verdicts = []
    for s in strings:
        try:
            validate({'s': s})
            verdicts.append(True)
        except Exception:
            verdicts.append(False)
    return verdicts


def _disagreements(vec, ref):
    return [(s, v, r) for s, v, r in zip(STRINGS, vec, ref) if v != r]


@pytest.mark.filterwarnings('ignore:Possible nested set:FutureWarning')
@pytest.mark.parametrize('pattern', PATTERNS)
def test_pattern_matches_compile(pattern):
    definition = {'properties': {'s': {'type': 'string',
                                       'pattern': pattern}}}
    table = _rows(STRINGS)
    assert _disagreements(_vector_valid(definition, table),
                          _scalar_valid(definition, STRINGS)) == []


@pytest.mark.filterwarnings('ignore:Possible nested set:FutureWarning')
@pytest.mark.parametrize('pattern', PATTERNS)
def test_format_regex_matches_compile(pattern):
    definition = {'properties': {'s': {'type': 'string', 'format': 'f'}}}
    formats = {'f': pattern}
    table = _rows(STRINGS)
    assert _disagreements(_vector_valid(definition, table, formats),
                          _scalar_valid(definition, STRINGS, formats)) == []


def _row_kernel_calls(monkeypatch, pattern):
    calls = []
    real = vector.row_kernel_mask

    def counting(arr, fn):
        calls.append(len(arr))
        return real(arr, fn)

    monkeypatch.setattr(vector, 'row_kernel_mask', counting)
    _vector_valid({'properties': {'s': {'type': 'string',
                                        'pattern': pattern}}},
                  _rows(STRINGS))
    return len(calls)


@pytest.mark.parametrize('pattern, row_kernel', [
    (r'^img-[0-9]{12}$', False),
    (r'^a\$', False),
    (r'^(?!F)', True),
    (r'\d', True),
    (r'a\\$', True),
])
def test_pattern_tier(monkeypatch, pattern, row_kernel):
    assert (_row_kernel_calls(monkeypatch, pattern) > 0) == row_kernel


def test_second_compile_hits_probe_memo():
    schema = pa.schema([('image_id', pa.string()), ('bytes', pa.binary()),
                        ('w', pa.int32()), ('h', pa.int32()),
                        ('fmt', pa.string()), ('caption', pa.string()),
                        ('phash', pa.int64())])
    TableValidator(IMAGE_TABLE_SPEC, schema, key_column='image_id')
    before = vector._re2_pattern.cache_info()
    TableValidator(IMAGE_TABLE_SPEC, schema, key_column='image_id')
    after = vector._re2_pattern.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
