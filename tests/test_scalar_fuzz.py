"""Property-based differential fuzzing: random (schema, document) pairs run
through both the reference compiler and our compile() must produce
identical outcomes (transformed value or full exception payload)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .test_scalar_parity import assert_parity

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-100, 100)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)

scalar_schemas = st.one_of(
    st.fixed_dictionaries({'type': st.sampled_from(
        ['null', 'boolean', 'number', 'integer', 'string', 'array', 'object'])}),
    st.fixed_dictionaries({'minimum': st.integers(-10, 10)}),
    st.fixed_dictionaries({'maximum': st.integers(-10, 10)}),
    st.fixed_dictionaries({'exclusiveMinimum': st.integers(-10, 10)}),
    st.fixed_dictionaries({'minLength': st.integers(0, 5)}),
    st.fixed_dictionaries({'maxLength': st.integers(0, 5)}),
    st.fixed_dictionaries({'pattern': st.sampled_from(['^a', 'b$', '^[0-9]+$', 'x'])}),
    st.fixed_dictionaries({'multipleOf': st.sampled_from([2, 3, 0.5, 0.01])}),
    st.fixed_dictionaries({'enum': st.lists(
        st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
        min_size=1, max_size=4)}),
    st.fixed_dictionaries({'const': st.none() | st.booleans() | st.integers(-3, 3)}),
    st.fixed_dictionaries({'minItems': st.integers(0, 4)}),
    st.fixed_dictionaries({'uniqueItems': st.booleans()}),
    st.fixed_dictionaries({'required': st.lists(
        st.sampled_from(['a', 'b', 'c']), unique=True, max_size=3)}),
)

schemas = st.recursive(
    scalar_schemas,
    lambda children: st.one_of(
        st.fixed_dictionaries({'items': children}),
        st.fixed_dictionaries({'properties': st.dictionaries(
            st.sampled_from(['a', 'b', 'c']), children, max_size=3)}),
        st.fixed_dictionaries({'anyOf': st.lists(children, min_size=1, max_size=3)}),
        st.fixed_dictionaries({'allOf': st.lists(children, min_size=1, max_size=3)}),
        st.fixed_dictionaries({'oneOf': st.lists(children, min_size=1, max_size=3)}),
        st.fixed_dictionaries({'not': children}),
        st.fixed_dictionaries({'contains': children}),
        st.fixed_dictionaries({'if': children, 'then': children, 'else': children}),
        st.fixed_dictionaries({'additionalProperties': children}),
        st.fixed_dictionaries({'propertyNames': st.fixed_dictionaries(
            {'maxLength': st.integers(0, 3)})}),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schema=schemas, value=json_values, fast_fail=st.booleans())
def test_fuzz_parity(reference, schema, value, fast_fail):
    assert_parity(reference, schema, value, fast_fail=fast_fail)


@pytest.mark.parametrize('fast_fail', [True, False])
@settings(max_examples=120, deadline=None)
@given(value=json_values)
def test_fuzz_mixed_schema(reference, value, fast_fail):
    schema = {
        'type': 'object',
        'properties': {
            'a': {'type': 'integer', 'minimum': 0},
            'b': {'type': 'array', 'items': {'type': 'string', 'minLength': 1}},
            'c': {'anyOf': [{'type': 'null'}, {'type': 'string', 'pattern': '^x'}]},
        },
        'required': ['a'],
    }
    assert_parity(reference, schema, value, fast_fail=fast_fail)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schema=schemas, value=json_values, fast_fail=st.booleans(),
       depth=st.integers(1, 3))
def test_fuzz_ref_indirection(reference, schema, value, fast_fail, depth):
    """Any schema reached through a chain of $refs must behave exactly
    like the inline schema did — exercising the registry worklist with
    arbitrary fuzz targets, not just hand-written REF_CASES."""
    defs = {'d0': schema}
    for i in range(1, depth + 1):
        defs['d%d' % i] = {'$ref': '#/definitions/d%d' % (i - 1)}
    wrapped = {'definitions': defs,
               'properties': {'x': {'$ref': '#/definitions/d%d' % depth}}}
    assert_parity(reference, wrapped, {'x': value}, fast_fail=fast_fail)
