"""The bounded code-object cache of ``compile()``: schemas whose emitted
factory source is the same share one code object, and each validator
still binds its own constants."""

import pyarrow as pa
import pytest

import python_fastjsonschema_ray as engine
from python_fastjsonschema_ray.functions import codegen
from python_fastjsonschema_ray.pipelines.validate import TableValidator


def _verdicts(validate, docs):
    out = []
    for doc in docs:
        try:
            validate(doc)
            out.append(True)
        except engine.JsonSchemaException:
            out.append(False)
    return out


def _compile_pair(first, second):
    """Compiles both, the first on a cleared cache; returns the
    validators and the cache's hits after each compile."""
    codegen._factory_code.cache_clear()
    a = first()
    hits = codegen._factory_code.cache_info().hits
    b = second()
    return a, b, hits, codegen._factory_code.cache_info().hits


@pytest.mark.parametrize('fast_fail', (True, False),
                         ids=('fast_fail', 'collect'))
def test_value_constants_stay_per_validator(fast_fail):
    """The required set and the default are named constants, so the two
    schemas emit the same source.  (An enum's values also reach its
    message, which is source text, so two enums never share it.)"""
    def schema(key):
        return {'required': [key], 'properties': {'d': {'default': [key]}}}

    a, b, hits_a, hits_b = _compile_pair(
        lambda: engine.compile(schema('a'), fast_fail=fast_fail),
        lambda: engine.compile(schema('b'), fast_fail=fast_fail))
    assert (hits_a, hits_b) == (0, 1)
    assert a.__code__ is b.__code__
    assert _verdicts(a, ({'a': 1}, {'b': 1})) == [True, False]
    assert _verdicts(b, ({'a': 1}, {'b': 1})) == [False, True]
    assert a({'a': 1}) == {'a': 1, 'd': ['a']}
    assert b({'b': 1}) == {'b': 1, 'd': ['b']}
    with pytest.raises(engine.JsonSchemaException) as e:
        a({'b': 1})
    errors = getattr(e.value, 'errors', [e.value])
    assert [(x.message, x.definition) for x in errors] == [
        ("data must contain ['a'] properties", schema('a'))]


def test_callable_formats_stay_per_validator():
    def even(value):
        return len(value) % 2 == 0

    def odd(value):
        return len(value) % 2 == 1

    a, b, hits_a, hits_b = _compile_pair(
        lambda: engine.compile({'format': 'parity'},
                               formats={'parity': even}),
        lambda: engine.compile({'format': 'parity'},
                               formats={'parity': odd}))
    assert (hits_a, hits_b) == (0, 1)
    assert a.__code__ is b.__code__
    assert _verdicts(a, ('ab', 'abc')) == [True, False]
    assert _verdicts(b, ('ab', 'abc')) == [False, True]


def test_vector_fallback_nodes_share_the_cache():
    """A map column's object keywords go to the scalar fallback, which
    compiles through the same cache in both modes."""
    table = pa.table({'m': pa.array(
        [[('k', 'ab')], [('k', 'abc')]],
        type=pa.map_(pa.string(), pa.string()))})
    spec = {'properties': {'m': {'additionalProperties': {
        'format': 'parity'}}}}
    even, odd, hits_even, hits_odd = _compile_pair(
        lambda: TableValidator(spec, table.schema,
                               formats={'parity': lambda v: len(v) % 2 == 0}),
        lambda: TableValidator(spec, table.schema,
                               formats={'parity': lambda v: len(v) % 2 == 1}))
    assert (hits_even, hits_odd) == (0, 2)
    assert list(even.validate_batch(table).valid) == [True, False]
    result = odd.validate_batch(table)
    assert list(result.valid) == [False, True]
    row, (name, message, rule, _, _) = result.records[0]
    assert (row, name, message, rule) == (
        0, 'data.m.k', 'data.m.k must be parity', 'format')


def test_cache_bound_is_a_module_constant():
    assert codegen._factory_code.cache_info().maxsize == \
        codegen._FACTORY_CACHE_SIZE == 256
