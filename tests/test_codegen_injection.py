"""Schema content never becomes code.

``compile()`` and ``compile_to_code()`` write Python source, so every
place where schema content reaches that source is fed payloads that set a
sentinel on ``builtins`` if they ever run: property and patternProperties
keys, ``pattern``, enum/const strings, format and custom-format names,
``default`` values, ``$ref``/``$id`` strings, message tails and plugin
keyword names.  Each schema is compiled through both routes, and the
validator (the imported module for the artifact) runs over documents that
reach every emitted site.  A schema a payload makes invalid may be
refused with a definition error, but nothing may execute.
"""

import builtins
import copy
import types
from urllib.parse import quote

import pytest

import python_fastjsonschema_ray as engine
from python_fastjsonschema_ray.functions import plugins

SENTINEL = '_codegen_injection_sentinel'
RUN = "__import__('builtins')." + SENTINEL + ' = 1'
RUN2 = '__import__("builtins").' + SENTINEL + ' = 1'
# The same as an expression, for payloads that splice into a literal.
SET = "__import__('builtins').__setattr__('" + SENTINEL + "', 1)"

PAYLOADS = [
    "' + str(" + SET + ") + '",
    '" + str(' + SET + ') + "',
    "'); " + RUN + "; ('",
    '"); ' + RUN2 + '; ("',
    '\n' + RUN + '\n',
    "'''\n" + RUN + "\n'''",
    '"""\n' + RUN2 + '\n"""',
    "\\'; " + RUN + ' #',
    '{0.__class__}{name}{!r}\\N{x}',
    '\r\n' + RUN + '\r\n#\x00 ',
]
# Payloads that are also valid regular expressions.
REGEX_PAYLOADS = [
    "' + str(" + SET + ") + '",
    '" + str(' + SET + ') + "',
    "x'\n" + RUN + '#',
    'x"""\n' + RUN2 + '#',
    "x\\'; " + RUN + '; #',
    "x'''\r\n" + RUN + "\r\n'''",
]


def _even(value):
    return len(value) % 2 == 0


def _sites(p):
    """(site, schema, compile options, documents) for payload ``p``."""
    d7 = 'http://json-schema.org/draft-07/schema'
    yield ('property_key', {
        '$schema': d7,
        'properties': {p: {'type': 'string', 'minLength': 2}},
        'required': [p],
        'dependencies': {p: [p + 'x'], 'y' + p: {'required': [p]}},
        'additionalProperties': {'type': 'integer'}},
        {}, [{p: p}, {p: 1, p + 'x': 2}, {'y' + p: 1}, {}, {'z': 'z'}])
    yield ('enum_const', {'$schema': d7, 'enum': [p, 1, [p]],
                          'const': p, 'not': {'const': {p: p}}},
           {}, [p, 1, [p], {p: p}])
    yield ('format_name', {'$schema': d7, 'format': p,
                           'items': {'format': p + 'c'}},
           {'formats': {p: '^a', p + 'c': _even}}, ['a', 'b', ['ab', 'c']])
    yield ('unknown_format', {'$schema': d7, 'format': p}, {}, ['a'])
    yield ('default', {
        '$schema': d7,
        'properties': {'a': {'default': p}, 'b': {'default': {p: [p]}}},
        'items': [{'default': p}, {'default': [p]}]},
        {}, [{}, [], {'a': 1}])
    yield ('ref_id', {
        '$schema': d7,
        '$id': 'http://example.com/' + quote(p) + '/root.json',
        'definitions': {p: {'type': 'integer', 'title': p}},
        'properties': {'a': {'$ref': '#/definitions/' + quote(
            p.replace('~', '~0').replace('/', '~1'))}}},
        {}, [{'a': 1}, {'a': p}])
    yield ('message_tail', {
        '$schema': d7,
        'properties': {'s': {'maxLength': 1, 'description': p},
                       'n': {'multipleOf': 2}},
        'contains': {'const': p}, 'propertyNames': {'maxLength': 3}},
        {}, [{'s': p, 'n': 3}, [p], [1], {p: 1}])
    yield ('plugin_keyword', {'$schema': d7, p: True,
                              'properties': {'a': {p: p}}},
           {}, [1, {'a': 2}, 'x'])


def _regex_sites(p):
    d7 = 'http://json-schema.org/draft-07/schema'
    yield ('pattern', {'$schema': d7, 'pattern': p,
                       'properties': {'a': {'pattern': '^' + p}}},
           {}, [p, 'x', {'a': p}, {'a': 'y'}])
    yield ('pattern_properties_key', {
        '$schema': d7, 'patternProperties': {p: {'type': 'integer'}},
        'additionalProperties': False},
        {}, [{p: 1}, {p: 'x'}, {'q': 1}])


def _check_even(value, definition):
    return ' must be even' if isinstance(value, int) and value % 2 else None


def _cases():
    for p in PAYLOADS:
        for site in _sites(p):
            yield site + (p,)
    for p in REGEX_PAYLOADS:
        for site in _regex_sites(p):
            yield site + (p,)


CASES = list(_cases())


@pytest.fixture(autouse=True)
def _no_sentinel():
    assert not hasattr(builtins, SENTINEL)
    yield
    ran = hasattr(builtins, SENTINEL)
    if ran:
        delattr(builtins, SENTINEL)
    assert not ran, 'schema content was executed'


def _validators(route, schema, options, fast_fail):
    """The validator through ``route``, or None if the schema is refused."""
    schema = copy.deepcopy(schema)
    try:
        if route == 'compile':
            return engine.compile(schema, fast_fail=fast_fail, **options)
        code = engine.compile_to_code(schema, fast_fail=fast_fail, **options)
    except engine.JsonSchemaDefinitionException:
        return None
    mod = types.ModuleType('injection_artifact')
    exec(compile(code, '<compile_to_code>', 'exec'), mod.__dict__)
    mod.CUSTOM_FORMATS.update(
        {k: v for k, v in options.get('formats', {}).items()
         if not isinstance(v, str)})
    return mod.validate


@pytest.mark.parametrize('route', ('compile', 'compile_to_code'))
@pytest.mark.parametrize('case', range(len(CASES)),
                         ids=['{}-{}'.format(c[0], i)
                              for i, c in enumerate(CASES)])
def test_schema_content_is_never_executed(route, case):
    site, schema, options, docs, payload = CASES[case]
    if site == 'plugin_keyword':
        plugins.register_keyword(payload, check_value=_check_even)
    try:
        compiled = 0
        for fast_fail in (True, False):
            validate = _validators(route, schema, options, fast_fail)
            if validate is None:
                continue
            compiled += 1
            for doc in docs:
                try:
                    validate(copy.deepcopy(doc))
                except (engine.JsonSchemaValueException,
                        engine.JsonSchemaValuesException):
                    pass
    finally:
        plugins.unregister_keyword(payload)
    # Only $ref/$id payloads may make a schema unresolvable.
    assert compiled == 2 or site == 'ref_id'


def test_payloads_reach_the_source():
    """The payloads do land in the artifact (as literals), so the test
    above exercises real emission sites."""
    code = engine.compile_to_code(
        {'properties': {PAYLOADS[0]: {'enum': [PAYLOADS[1]]}}})
    assert repr(PAYLOADS[0]) in code and repr(PAYLOADS[1]) in code
