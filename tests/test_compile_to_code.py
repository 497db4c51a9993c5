"""compile_to_code round trip: write module → import → validate
(reference model: tests/test_compile_to_code.py:9-47)."""

import importlib.util
import json
import sys

import pytest

import python_fastjsonschema_ray as engine


def _load_module(tmp_path, code, name):
    path = tmp_path / (name + '.py')
    path.write_text(code)
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_roundtrip(tmp_path):
    schema = {'type': 'object',
              'properties': {'a': {'type': 'string', 'pattern': '^x'},
                             'b': {'minimum': 2, 'default': 5}},
              'required': ['a']}
    code = engine.compile_to_code(schema)
    mod = _load_module(tmp_path, code, 'generated_validator')
    assert mod.VERSION == engine.VERSION
    assert mod.validate({'a': 'xyz'}) == {'a': 'xyz', 'b': 5}
    with pytest.raises(engine.JsonSchemaValueException) as e:
        mod.validate({'a': 'nope'})
    assert e.value.message == 'data.a must match pattern ^x'


def test_roundtrip_regex_formats(tmp_path):
    code = engine.compile_to_code({'format': 'digits'},
                                  formats={'digits': r'^[0-9]+$'})
    mod = _load_module(tmp_path, code, 'generated_validator2')
    assert mod.validate('123') == '123'
    with pytest.raises(engine.JsonSchemaValueException):
        mod.validate('abc')


def test_bad_schema_fails_at_generation():
    with pytest.raises(engine.JsonSchemaDefinitionException):
        engine.compile_to_code({'type': 'frobnicate'})


# enum/const/uniqueItems over values where bool and int must differ.
HELPER_SCHEMA = {'properties': {'e': {'enum': [1, True, [0, False]]},
                                'c': {'const': [True, 1.0]},
                                'u': {'uniqueItems': True}}}
HELPER_DOCS = [
    {'e': True, 'c': [True, 1], 'u': [1, True, [1], [True], {'a': 0},
                                      {'a': False}]},
    {'e': 1.0, 'c': [True, 1.0], 'u': [False, 0]},
    {'e': False}, {'e': [0, 0]}, {'e': [False, False]}, {'c': [1, 1]},
    {'c': [True, True]}, {'u': [1, 1.0]}, {'u': [[True], [True]]},
    {'e': False, 'c': [1, 1], 'u': [0, 0]},
]
# Every standard name an artifact may import: base64 (contentEncoding),
# json (contentMediaType), re (pattern), deepcopy (default), Decimal
# (multipleOf) and inf (maximum).
STDLIB_SCHEMA = {'$schema': 'http://json-schema.org/draft-07/schema',
                 'properties': {'b': {'contentEncoding': 'base64'},
                                'j': {'contentMediaType': 'application/json'},
                                'p': {'pattern': '^x'},
                                'd': {'default': [1]},
                                'm': {'multipleOf': 0.5},
                                'x': {'maximum': float('inf')}}}
STDLIB_DOCS = [
    {'b': 'eHl6', 'j': '{"a": 1}', 'p': 'xy', 'm': 1.5, 'x': 3},
    {'b': 'abc', 'j': '{bad', 'p': 'y', 'm': 0.3, 'x': 1e308, 'd': 0},
    {'m': 2, 'x': -1.5}, {'b': 1, 'j': None, 'p': 5, 'm': 'x'},
]
STDLIB_IMPORTS = ('import base64', 'import json', 'import re',
                  'from copy import deepcopy', 'from decimal import Decimal',
                  'from math import inf, nan')
# Shared by the subprocess and the test: each document's output, or its
# violations' (name, rule).
_OUTCOMES_SOURCE = '''
def _outcomes(validate, docs):
    out = []
    for doc in docs:
        try:
            out.append(['ok', validate(doc)])
        except validate.__globals__['JsonSchemaException'] as e:
            errors = getattr(e, 'errors', [e])
            out.append([[x.name, x.rule] for x in errors])
    return out
'''


def test_artifact_standalone_without_package(tmp_path):
    """The artifact is fully self-contained, in fast-fail and collect
    mode: a subprocess with the package stripped from sys.path imports
    it and validates.  The reference's artifact still imports
    fastjsonschema for its exception classes; this one runs its inert
    standalone copy of them and of the enum/const and uniqueItems
    helpers, whose bool-vs-int outcomes must equal compile()'s."""
    import subprocess

    schema = {'type': 'object',
              'properties': {'a': {'type': 'string', 'pattern': '^x'},
                             'n': {'type': 'integer',
                                   'exclusiveMinimum': 3},
                             'e': {'enum': ['r', 's']}},
              'required': ['a'],
              '$schema': 'http://json-schema.org/draft-07/schema'}
    code = engine.compile_to_code(schema)
    (tmp_path / 'standalone_validator.py').write_text(code)
    (tmp_path / 'standalone_collect.py').write_text(
        engine.compile_to_code(schema, fast_fail=False))
    for mode, fast_fail in (('fast', True), ('collect', False)):
        (tmp_path / 'helpers_{}.py'.format(mode)).write_text(
            engine.compile_to_code(HELPER_SCHEMA, fast_fail=fast_fail))
        stdlib_code = engine.compile_to_code(STDLIB_SCHEMA,
                                             fast_fail=fast_fail)
        assert all(line in stdlib_code[:stdlib_code.index('try:')]
                   .splitlines() for line in STDLIB_IMPORTS)
        (tmp_path / 'stdlib_{}.py'.format(mode)).write_text(stdlib_code)
    driver = tmp_path / 'drive.py'
    driver.write_text(_OUTCOMES_SOURCE + '''
import sys
# Strip the repo/package from every import path.
sys.path = [p for p in sys.path if 'repo' not in p]
sys.path.insert(0, {tmp!r})
try:
    import python_fastjsonschema_ray
    raise SystemExit('package unexpectedly importable')
except ImportError:
    pass
import standalone_validator as m
assert m.validate({{'a': 'xy', 'n': 4, 'e': 'r'}}) == \\
    {{'a': 'xy', 'n': 4, 'e': 'r'}}
try:
    m.validate({{'a': 'nope'}})
except m.JsonSchemaValueException as e:
    assert e.message == 'data.a must match pattern ^x', e.message
    assert e.rule == 'pattern'
else:
    raise SystemExit('expected violation')
try:
    m.validate({{'a': 'x', 'n': 3}})
except m.JsonSchemaValueException as e:
    assert e.message == 'data.n must be bigger than 3', e.message
else:
    raise SystemExit('expected violation')
import standalone_collect as c
assert c.validate({{'a': 'xy', 'n': 4}}) == {{'a': 'xy', 'n': 4}}
try:
    c.validate({{'a': 'nope', 'n': 3, 'e': 't'}})
except c.JsonSchemaValuesException as e:
    got = [(x.name, x.message, x.rule) for x in e.errors]
    assert got == [
        ('data.a', 'data.a must match pattern ^x', 'pattern'),
        ('data.n', 'data.n must be bigger than 3', 'exclusiveMinimum'),
        ('data.e', "data.e must be one of ['r', 's']", 'enum')], got
    assert isinstance(e.errors[0], c.JsonSchemaValueException)
else:
    raise SystemExit('expected violations')
import json
import helpers_fast, helpers_collect
for mod in (helpers_fast, helpers_collect):
    # The fallback ran: the classes are the artifact's own.
    assert mod.JsonSchemaValueException.__module__ == mod.__name__
print('OUTCOMES', json.dumps([_outcomes(helpers_fast.validate, {docs!r}),
                              _outcomes(helpers_collect.validate, {docs!r})]))
import stdlib_fast, stdlib_collect
print('STDLIB', json.dumps([_outcomes(stdlib_fast.validate, {stdlib_docs!r}),
                            _outcomes(stdlib_collect.validate,
                                      {stdlib_docs!r})]))
print('STANDALONE-OK')
'''.format(tmp=str(tmp_path), docs=HELPER_DOCS, stdlib_docs=STDLIB_DOCS))
    out = subprocess.run([sys.executable, str(driver)], cwd=str(tmp_path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert 'STANDALONE-OK' in out.stdout
    printed = {line.split(' ', 1)[0]: json.loads(line.split(' ', 1)[1])
               for line in out.stdout.splitlines()
               if line.startswith(('OUTCOMES ', 'STDLIB '))}
    namespace = {}
    exec(_OUTCOMES_SOURCE, namespace)
    want = {}
    for label, schema, docs in (('OUTCOMES', HELPER_SCHEMA, HELPER_DOCS),
                                ('STDLIB', STDLIB_SCHEMA, STDLIB_DOCS)):
        want[label] = [
            namespace['_outcomes'](engine.compile(schema,
                                                  fast_fail=fast_fail), docs)
            for fast_fail in (True, False)]
        assert printed[label] == json.loads(json.dumps(want[label])), label
    assert want['OUTCOMES'][1][-1] == [
        ['data.e', 'enum'], ['data.c', 'const'], ['data.u', 'uniqueItems']]
    assert want['STDLIB'][1][1] == [
        ['data.b', None], ['data.j', None], ['data.p', 'pattern'],
        ['data.m', 'multipleOf']]


def test_artifact_imports_only_what_it_uses():
    """A schema that needs no standard name imports none of them: the
    module's own code names only the prologue's and its own."""
    code = engine.compile_to_code({'type': 'string'})
    # The inert standalone string, after 'try:', has imports of its own.
    assert not [line for line in code[:code.index('try:')].splitlines()
                if line in STDLIB_IMPORTS]
    names = set(compile(code, '<artifact>', 'exec').co_names)
    assert not names & {'base64', 'json', 're', 'deepcopy', 'Decimal',
                        'inf', 'nan'}, names
