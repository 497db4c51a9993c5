"""Ports of the reference's end-to-end fixtures (SURVEY §5.2, §5.4, §5.6):

* the big mixed tuple-schema integration cases (test_integration.py:6-109),
  run differentially against the reference;
* the golden example groups (tests/examples/*: schema + valid/invalid +
  expected-error substrings), loaded as data from the reference checkout;
* security/definition-error cases: spec injection must fail at compile
  time, hostile patterns must validate safely, deep nesting is rejected.
"""

import copy
import glob
import json
import os

import pytest

import python_fastjsonschema_ray as engine

from .test_scalar_parity import assert_parity

INTEGRATION_SCHEMA = {
    'type': 'array',
    'items': [
        {'type': 'number', 'maximum': 10, 'exclusiveMaximum': True},
        {'type': 'string', 'enum': ['hello', 'world']},
        {'type': 'array', 'minItems': 1, 'maxItems': 3,
         'items': [{'type': 'number'}, {'type': 'string'},
                   {'type': 'boolean'}]},
        {'type': 'object', 'required': ['a', 'b'], 'minProperties': 3,
         'properties': {
             'a': {'type': ['null', 'string']},
             'b': {'type': ['null', 'string']},
             'c': {'type': ['null', 'string'], 'default': 'abc'}},
         'additionalProperties': {'type': 'string'}},
        {'not': {'type': ['null']}},
        {'oneOf': [{'type': 'number', 'multipleOf': 3},
                   {'type': 'number', 'multipleOf': 5}]},
    ],
}

INTEGRATION_VALUES = [
    [9, 'hello', [1, 'a', True], {'a': 'a', 'b': 'b', 'd': 'd'}, 42, 3],
    [9, 'world', [1], {'a': 'a', 'b': 'b', 'd': 'd'}, 42, 3],
    (9, 'world', (1,), {'a': 'a', 'b': 'b', 'd': 'd'}, 42, 3),
    [9, 'world', [1], {'a': 'a', 'b': 'b', 'c': 'xy'}, 42, 3],
    [9, 'world', [1], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5],
    [9, 'world', [1], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5, 'any'],
    [10, 'world', [1], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5],
    [9, 'xxx', [1], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5],
    [9, 'hello', [], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5],
    [9, 'hello', [1, 2, 3], {'a': 'a', 'b': 'b', 'c': 'xy'}, 'str', 5],
    [9, 'hello', [1], {'q': 'q', 'x': 'x', 'y': 'y'}, 'str', 5],
    [9, 'hello', [1], {'a': 'a', 'x': 'x', 'y': 'y'}, 'str', 5],
    [9, 'hello', [1], {}, 'str', 5],
    [9, 'hello', [1], {'a': 'a', 'b': 'b', 'x': 'x'}, None, 5],
    [9, 'hello', [1], {'a': 'a', 'b': 'b', 'x': 'x'}, 42, 15],
    'not even a list',
    [],
]


@pytest.mark.parametrize('value', INTEGRATION_VALUES,
                         ids=[str(i) for i in range(len(INTEGRATION_VALUES))])
@pytest.mark.parametrize('fast_fail', [True, False])
def test_integration_schema_parity(reference, value, fast_fail):
    assert_parity(reference, INTEGRATION_SCHEMA, value, fast_fail=fast_fail)


def test_integration_first_message():
    # The reference's own suite injects draft-04 (tests/conftest.py:30);
    # under draft-2019 the boolean exclusiveMaximum:True is treated as a
    # numeric bound by the draft-06 keyword — a quirk both engines share
    # (covered by the parity cases above).
    schema = dict(copy.deepcopy(INTEGRATION_SCHEMA),
                  **{'$schema': 'http://json-schema.org/draft-04/schema'})
    validate = engine.compile(schema)
    with pytest.raises(engine.JsonSchemaValueException) as e:
        validate([9, 'hello', [1, 2, 3], {'a': 'a', 'b': 'b', 'c': 'x'},
                  'str', 5])
    assert e.value.message == 'data[2][1] must be string'
    assert e.value.path == ['data', '2', '1']


EXAMPLES_DIR = '/root/reference/tests/examples'

EXAMPLE_GROUPS = [
    d for d in sorted(glob.glob(EXAMPLES_DIR + '/*'))
    if glob.glob(d + '/*.schema.json') and os.path.exists(d + '/invalid.json')
]


@pytest.mark.parametrize('group', EXAMPLE_GROUPS,
                         ids=[os.path.basename(g) for g in EXAMPLE_GROUPS])
def test_golden_examples(group):
    """schema.json + valid.json / invalid.json + .error substring
    (reference model: tests/test_examples.py:29-45)."""
    schema_path = glob.glob(group + '/*.schema.json')[0]
    with open(schema_path) as f:
        schema = json.load(f)
    validate = engine.compile(schema)
    if os.path.exists(group + '/valid.json'):
        with open(group + '/valid.json') as f:
            validate(json.load(f))
    with open(group + '/invalid.json') as f:
        invalid = json.load(f)
    with open(group + '/invalid.error') as f:
        expected_error = f.read().strip()
    with pytest.raises(engine.JsonSchemaValueException) as e:
        validate(invalid)
    assert expected_error in str(e.value), (expected_error, str(e.value))


# -- security / definition errors (SURVEY §5.6) ------------------------------


INJECTION_SPECS = [
    {'type': 'string', 'maxLength': "value_that_should_be_number'); import os; ('"},
    {'type': 'number', 'minimum': "import os; os.system('touch /tmp/pwned')"},
    {'required': "__import__('os')"},
    {'properties': {'a': 'exec("bad")'}},
    {'enum': '__import__'},
]


@pytest.mark.parametrize('spec', INJECTION_SPECS)
def test_spec_injection_rejected_at_compile(spec):
    """Hostile values in numeric/list schema positions must fail at compile
    time (tests/test_security.py:6-27 model).  The engine emits Python
    source and runs it, like the reference; schema strings reach that
    source only as repr literals (tests/test_codegen_injection.py), and
    the definition errors must surface eagerly."""
    with pytest.raises(engine.JsonSchemaDefinitionException):
        engine.compile(spec)


def test_hostile_pattern_is_safe(reference):
    # An unbalanced-paren "pattern" is a regex compile error in BOTH
    # implementations (the reference propagates re.error from its own
    # re.compile at codegen time); no code is ever executed.
    import re
    hostile = "'); import os; ('"
    with pytest.raises(re.error):
        reference.compile({'pattern': hostile})
    with pytest.raises(re.error):
        engine.compile({'pattern': hostile})


def test_hostile_property_names_are_safe():
    validate = engine.compile({'properties': {
        "'; import os; x='": {'type': 'string'}}})
    validate({"'; import os; x='": 'ok'})
    with pytest.raises(engine.JsonSchemaValueException):
        validate({"'; import os; x='": 5})


def test_deep_nesting_rejected():
    """>500-deep schema nesting must be rejected (DoS guard,
    ref_resolver.py:20,185-188)."""
    deep = {}
    node = deep
    for _ in range(600):
        node['properties'] = {'a': {}}
        node = node['properties']['a']
    with pytest.raises(engine.JsonSchemaDefinitionException):
        engine.compile(deep)
