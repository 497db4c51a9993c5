"""Straight-line ``compile_to_code`` artifact: its outcomes over the FULL
conformance corpus, in both modes and every flag variant, equal the
scalar goldens (``tests/test_scalar_golden.py``), plus collect mode,
callable formats and plugin keywords in the artifact.

The comparison is exact: verdict, transformed output (defaults,
content decode) AND the full exception payload (message, value, name,
definition, rule)."""

import copy
import types
from decimal import Decimal

import pytest

import python_fastjsonschema_ray as engine
from python_fastjsonschema_ray.exceptions import JsonSchemaValueException
from python_fastjsonschema_ray.functions import scalar

from . import test_scalar_golden as golden

_mod_counter = [0]


def _load(code):
    _mod_counter[0] += 1
    mod = types.ModuleType('gen_artifact_{}'.format(_mod_counter[0]))
    exec(compile(code, '<generated>', 'exec'), mod.__dict__)
    return mod


@pytest.mark.parametrize('draft', (4, 6, 7, 2019))
def test_artifact_matches_scalar_over_conformance_corpus(draft):
    """The artifact's outcomes equal the scalar goldens, recorded from
    compile() before the two shared one back-end, in both modes."""
    prefix = 'draft{}/'.format(draft)
    want = {c: v for c, v in golden._load()['cases'].items()
            if c.startswith(prefix)}
    got = golden._computed('compile_to_code')
    diff = [(c, mode) for c in want for mode in ('fast_fail', 'collect')
            if got[c][mode] != want[c][mode]]
    assert len(want) > 200
    assert not diff


@pytest.mark.parametrize('flags', (
    {'detailed_exceptions': False},
    {'use_default': False},
    {'use_formats': False},
), ids=lambda f: next(iter(f)))
def test_artifact_flag_variants(flags):
    variant = next(v for v, f in golden.VARIANTS.items() if f == flags)
    want = golden._load()['cases']
    got = golden._computed('compile_to_code')
    assert not [c for c in got if got[c][variant] != want[c][variant]]


COLLECT_SCHEMA = {
    '$schema': 'http://json-schema.org/draft-07/schema',
    'definitions': {'short': {'type': 'string', 'maxLength': 1}},
    'properties': {'a': {'type': 'integer', 'minimum': 0},
                   'b': {'anyOf': [{'type': 'null'}, {'type': 'string'}]},
                   'c': {'items': {'$ref': '#/definitions/short'}}}}


def _payloads(exc_info):
    return [(e.name, e.message, e.value, e.definition, e.rule)
            for e in exc_info.value.errors]


def test_collect_mode_artifact_is_straight_line():
    code = engine.compile_to_code(COLLECT_SCHEMA, fast_fail=False)
    assert '_EMBEDDED_RUNTIME' not in code
    mod = _load(code)
    assert mod.validate({'a': 3, 'c': ['x']}) == {'a': 3, 'c': ['x']}
    # The anyOf branch's errors leak into the list (its first branch
    # "passes" in collect mode), as in the reference.
    with pytest.raises(engine.JsonSchemaValuesException) as e:
        mod.validate({'a': 'x', 'b': 1})
    assert _payloads(e) == [
        ('data.a', 'data.a must be integer', 'x',
         {'type': 'integer', 'minimum': 0}, 'type'),
        ('data.b', 'data.b must be null', 1, {'type': 'null'}, 'type')]
    # A $ref scope raises its own collection; the caller's list is lost.
    with pytest.raises(engine.JsonSchemaValuesException) as e:
        mod.validate({'a': -1.5, 'c': ['xy']})
    assert _payloads(e) == [
        ('data.c[0]', 'data.c[0] must be shorter than or equal to 1 '
         'characters', 'xy', {'type': 'string', 'maxLength': 1},
         'maxLength')]


def test_callable_formats_artifact_rebinds():
    code = engine.compile_to_code({'format': 'even'},
                                  formats={'even': lambda v: True})
    assert '_EMBEDDED_RUNTIME' not in code
    mod = _load(code)
    calls = []

    def even(value):
        calls.append(value)
        return len(value) % 2 == 0

    mod.CUSTOM_FORMATS['even'] = even
    assert mod.validate('ab') == 'ab'
    with pytest.raises(JsonSchemaValueException) as e:
        mod.validate('abc')
    assert (e.value.message, e.value.rule) == ('data must be even', 'format')
    assert calls == ['ab', 'abc']


def test_plugin_keyword_artifact_checks():
    from python_fastjsonschema_ray.functions import plugins

    def check_value(value, definition):
        if isinstance(value, int) and value > definition['artifactTestKw']:
            return ' must be at most {}'.format(definition['artifactTestKw'])
        return None

    plugins.register_keyword('artifactTestKw', check_value=check_value)
    try:
        code = engine.compile_to_code({'artifactTestKw': 1})
        assert '_EMBEDDED_RUNTIME' not in code
        mod = _load(code)
        assert mod.validate(1) == 1
        with pytest.raises(JsonSchemaValueException) as e:
            mod.validate(2)
        assert (e.value.message, e.value.rule, e.value.definition) == \
            ('data must be at most 1', 'artifactTestKw', {'artifactTestKw': 1})
    finally:
        plugins.unregister_keyword('artifactTestKw')


def test_artifact_is_small_and_readable():
    """The reference's artifact spirit: a 3-keyword schema should produce
    a short human-readable module, not a 24 KB base64 blob."""
    code = engine.compile_to_code(
        {'type': 'string', 'minLength': 2, 'pattern': '^a'})
    assert '_EMBEDDED_RUNTIME' not in code
    assert 'base64.b64decode' not in code    # no blob loader
    assert len(code) < 8000
    assert 'def validate(data' in code
    assert "name + ' must match pattern ^a'" in code


def test_recursive_ref_artifact():
    schema = {'$ref': '#/definitions/node',
              'definitions': {'node': {
                  'properties': {'next': {'$ref': '#/definitions/node'},
                                 'v': {'type': 'integer'}}}},
              '$schema': 'http://json-schema.org/draft-07/schema'}
    code = engine.compile_to_code(copy.deepcopy(schema))
    assert '_EMBEDDED_RUNTIME' not in code
    mod = _load(code)
    ok = {'v': 1, 'next': {'v': 2, 'next': {'v': 3}}}
    assert mod.validate(copy.deepcopy(ok)) == ok
    with pytest.raises(JsonSchemaValueException) as e:
        mod.validate({'v': 1, 'next': {'v': 'x'}})
    assert e.value.name == 'data.next.v'
    assert e.value.rule == 'type'


INF, NAN = float('inf'), float('nan')


@pytest.mark.parametrize('fast_fail', (True, False),
                         ids=('fast_fail', 'collect'))
@pytest.mark.parametrize('schema', (
    {'maximum': INF},
    {'$schema': 'http://json-schema.org/draft-07/schema',
     'exclusiveMaximum': INF, 'minimum': -INF},
    {'const': INF},
    {'enum': [NAN, 1]},
    {'maximum': Decimal('1.5'), 'multipleOf': Decimal('0.5')},
), ids=('maximum', 'exclusiveMaximum', 'const', 'enum', 'decimal'))
def test_artifact_constants_whose_repr_is_a_name(schema, fast_fail):
    """inf, nan and Decimal in a schema (in its SCHEMA header and its
    constants), whose reprs are names, give an importable artifact that
    agrees with compile()."""
    mod = _load(engine.compile_to_code(schema, fast_fail=fast_fail))
    assert repr(mod.SCHEMA) == repr(schema)
    compiled = engine.compile(schema, fast_fail=fast_fail)
    # repr(): NaN is not equal to itself, its repr is.
    outcomes = [[repr(golden._outcome(engine, v, d, None))
                 for d in (5, 1, INF, NAN, 'x')]
                for v in (mod.validate, compiled)]
    assert outcomes[0] == outcomes[1]


def _function_names(code):
    return [c.co_name for c in compile(code, '<artifact>', 'exec').co_consts
            if isinstance(c, types.CodeType)]


def test_artifact_compiles_only_its_validator_functions():
    """The prologue's classes and helpers are imported from the package
    (their standalone copy is a string, run only without it), so the
    module's code holds no code object but the emitted functions.  No
    ``$ref`` resolves to the root and every subschema is inlined, so
    ``validate`` is the only function."""
    code = engine.compile_to_code({
        'properties': {'e': {'enum': [1, True]}, 'c': {'const': [True]},
                       'u': {'uniqueItems': True}}})
    assert _function_names(code) == ['validate']
    mod = _load(code)
    assert mod._enum_match is scalar.enum_value_match
    assert mod._freeze is scalar._freeze
    assert mod.JsonSchemaValueException is JsonSchemaValueException


@pytest.mark.parametrize('fast_fail', (True, False),
                         ids=('fast_fail', 'collect'))
def test_recursive_root_keeps_its_function(fast_fail):
    """A ``$ref`` to the root calls the root's function, so ``validate``
    stays a wrapper around it; nested input validates in both routes."""
    schema = {'properties': {'c': {'$ref': '#'}}, 'type': 'object'}
    code = engine.compile_to_code(schema, fast_fail=fast_fail)
    names = _function_names(code)
    assert names[-1] == 'validate' and len(names) == 2, names
    ok = {'c': {'c': {'c': {}}}}
    bad = {'c': {'c': {'c': 1}}}
    for validate in (_load(code).validate,
                     engine.compile(schema, fast_fail=fast_fail)):
        assert validate(copy.deepcopy(ok)) == ok
        with pytest.raises(engine.JsonSchemaException) as e:
            validate(bad)
        errors = getattr(e.value, 'errors', [e.value])
        assert [(x.name, x.rule) for x in errors] == [('data.c.c.c', 'type')]
