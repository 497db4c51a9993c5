"""Frozen scalar outcomes: the sha256 of the full outcome of every
conformance group, for ``compile()`` and for the ``compile_to_code()``
module, in five flag variants:

* ``fast_fail`` and ``collect`` (``fast_fail=False``);
* ``plain`` (``detailed_exceptions=False``), ``no_default``
  (``use_default=False``) and ``no_formats`` (``use_formats=False``).

A group's outcome is, per document in order, either ``ok`` plus the
transformed output, or the ordered ``(name, message, value, definition,
rule)`` list of its violations (one entry in fast-fail mode), or the type
of a crash; a schema that fails to compile records the definition error's
type and message instead.  Hand-written cases add what the corpus does
not exercise: callable formats, a plugin keyword, handler-resolved remote
``$ref``s, a recursive ``$ref``, ``name=``, ``default`` insertion and
content decode.

Some payloads iterate a set (``additionalProperties`` messages print the
set of extra keys), so digests are computed in a child process with
``PYTHONHASHSEED=0``; with the seed fixed every case is deterministic and
none is left out.

The digests in ``tests/goldens/scalar_outcomes_sha256.json`` were recorded
once (the file's header names the commit).  A mismatch means a verdict, a
transformed output or a byte of an exception payload changed.  Never
regenerate the file to absorb a diff: ``python -m tests.test_scalar_golden
record DEST COMMIT`` only writes a file that does not exist yet.
"""

import base64
import copy
import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, 'goldens', 'scalar_outcomes_sha256.json')
DRAFT_URI = {4: 'http://json-schema.org/draft-04/schema',
             6: 'http://json-schema.org/draft-06/schema',
             7: 'http://json-schema.org/draft-07/schema',
             2019: None}
VARIANTS = {
    'fast_fail': {},
    'collect': {'fast_fail': False},
    'plain': {'detailed_exceptions': False},
    'no_default': {'use_default': False},
    'no_formats': {'use_formats': False},
}
ROUTES = ('compile', 'compile_to_code')
PLUGIN_KEYWORD = 'goldenIsEven'


class Case:
    """One schema with its documents.  ``options`` go to the compile call
    (``formats``, ``handlers``); ``name`` is passed to the validator;
    ``artifact`` is False where ``compile_to_code`` does not apply
    (remote handlers are refused there by contract)."""

    def __init__(self, cid, schema, docs, options=None, name=None,
                 artifact=True):
        self.cid = cid
        self.schema = schema
        self.docs = docs
        self.options = options or {}
        self.name = name
        self.artifact = artifact


def _conformance_cases():
    for draft in DRAFT_URI:
        path = os.path.join(HERE, 'conformance', 'draft{}.json'.format(draft))
        with open(path) as f:
            groups = json.load(f)
        for i, g in enumerate(groups):
            schema = copy.deepcopy(g['schema'])
            if isinstance(schema, dict) and DRAFT_URI[draft]:
                schema.setdefault('$schema', DRAFT_URI[draft])
            yield Case('draft{}/{:04d}'.format(draft, i), schema,
                       [t['data'] for t in g['tests']])
    with open(os.path.join(HERE, 'conformance', 'remote.json')) as f:
        groups = json.load(f)
    for i, g in enumerate(groups):
        remotes = g['remotes']
        schema = copy.deepcopy(g['schema'])
        if isinstance(schema, dict) and DRAFT_URI.get(g['draft']):
            schema.setdefault('$schema', DRAFT_URI[g['draft']])
        yield Case('remote/{:04d}'.format(i), schema,
                   [t['data'] for t in g['tests']],
                   {'handlers': {'http': _fetch_from(remotes)}},
                   artifact=False)


def _fetch_from(remotes):
    def fetch(uri):
        return copy.deepcopy(remotes[uri])
    return fetch


def _even_length(value):
    return len(value) % 2 == 0


def _upper(value):
    return value.isupper()


def _check_even(value, definition):
    if isinstance(value, int) and not isinstance(value, bool) and value % 2:
        return ' must be even'
    return None


def _b64(obj):
    return base64.b64encode(json.dumps(obj).encode()).decode()


def _handwritten_cases():
    d7 = DRAFT_URI[7]
    yield Case('hand/callable_formats', {
        '$schema': d7,
        'properties': {
            'a': {'format': 'even-length'},
            'b': {'type': 'string', 'format': 'upper', 'maxLength': 3},
            'c': {'format': 'digits'},
            'd': {'items': {'format': 'even-length'}}}},
        [{'a': 'aa', 'b': 'AB', 'c': '12', 'd': ['xx']},
         {'a': 'a', 'b': 'Ab', 'c': '1x', 'd': ['x', 'yy', 'z']},
         {'a': 3, 'b': 'ABCD', 'c': None, 'd': []},
         {'a': '', 'b': '', 'c': '', 'd': 'nope'}, 'not an object'],
        {'formats': {'even-length': _even_length, 'upper': _upper,
                     'digits': '^[0-9]+$'}})
    yield Case('hand/plugin_keyword', {
        '$schema': d7,
        'properties': {
            'n': {PLUGIN_KEYWORD: True, 'minimum': 0},
            'items': {'items': {PLUGIN_KEYWORD: True, 'type': 'integer'}}},
        PLUGIN_KEYWORD: True},
        [{'n': 2, 'items': [0, 2]}, {'n': 3}, {'n': -3, 'items': [1, 'x', 4]},
         {'items': [5, 7]}, 4, 5])
    yield Case('hand/remote_ref', {
        '$schema': d7,
        'properties': {
            'pos': {'$ref': 'http://example.com/defs.json#/definitions/pos'},
            'name': {'$ref': 'http://example.com/defs.json#/definitions/name'},
            'tree': {'$ref': 'http://example.com/tree.json'}}},
        [{'pos': 1, 'name': 'ab', 'tree': {'v': 1, 'kids': [{'v': 2}]}},
         {'pos': -1, 'name': 'a'}, {'pos': 'x', 'name': 5},
         {'tree': {'v': 'x', 'kids': [{'v': 2}, {'kids': 3}]}}, []],
        {'handlers': {'http': _fetch_from({
            'http://example.com/defs.json': {'definitions': {
                'pos': {'type': 'integer', 'minimum': 0},
                'name': {'type': 'string', 'minLength': 2}}},
            'http://example.com/tree.json': {
                'properties': {
                    'v': {'type': 'integer'},
                    'kids': {'type': 'array',
                             'items': {'$ref': '#'}}}}})}},
        artifact=False)
    yield Case('hand/recursive_ref', {
        '$schema': d7,
        '$ref': '#/definitions/node',
        'definitions': {'node': {
            'type': 'object', 'required': ['v'],
            'properties': {
                'v': {'type': 'integer', 'maximum': 9},
                'next': {'$ref': '#/definitions/node'},
                'alt': {'anyOf': [{'$ref': '#/definitions/node'},
                                  {'type': 'null'}]}}}}},
        [{'v': 1, 'next': {'v': 2, 'next': {'v': 3}}},
         {'v': 1, 'next': {'v': 'x', 'next': {}}},
         {'v': 10, 'next': {'v': 20}, 'alt': None},
         {'v': 1, 'alt': {'v': 'y'}}, {'alt': {'v': 1}}, 'x'])
    yield Case('hand/name', {
        '$schema': d7,
        'type': 'object',
        'properties': {'a': {'type': 'integer'},
                       'b': {'items': {'minLength': 2}}},
        'additionalProperties': False},
        [{'a': 1, 'b': ['xx']}, {'a': 'x', 'b': ['x', 'yy', 'z']}, {'c': 1},
         [1]],
        name='row')
    yield Case('hand/default_insertion', {
        '$schema': d7,
        'properties': {
            'a': {'default': {'x': [1, 2]}},
            'b': {'default': 'b', 'type': 'string'},
            'c': {'properties': {'d': {'default': [{'e': None}]}},
                  'default': {}},
            't': {'items': [{'type': 'integer'},
                            {'default': 2.5},
                            {'default': {'k': 'v'}}],
                  'additionalItems': {'type': 'number'}}},
        'dependencies': {'a': ['b']}},
        [{}, {'a': None, 'c': {}}, {'c': {'d': 1}, 't': [1]},
         {'t': [1, 2, 3, 4]}, {'t': ['x']}, {'b': 3}, []])
    yield Case('hand/content_decode', {
        '$schema': d7,
        'properties': {
            'j': {'contentEncoding': 'base64',
                  'contentMediaType': 'application/json'},
            'raw': {'contentEncoding': 'base64'},
            's': {'contentMediaType': 'application/json'}}},
        [{'j': _b64({'a': [1, 2]}), 'raw': base64.b64encode(b'\xff').decode(),
          's': '[1, 2]'},
         {'j': 'not base64!', 'raw': 'QQ==', 's': '{bad'},
         {'j': base64.b64encode(b'\xff\xfe').decode(), 's': 5},
         {'j': _b64('x'), 'raw': '', 's': '"str"'}])
    yield Case('hand/collect_scopes', {
        '$schema': d7,
        'definitions': {
            'int': {'type': 'integer', 'minimum': 0},
            'str': {'type': 'string', 'maxLength': 2}},
        'properties': {
            'r': {'$ref': '#/definitions/int'},
            'any': {'anyOf': [{'$ref': '#/definitions/str'},
                              {'$ref': '#/definitions/int'}]},
            'one': {'oneOf': [{'$ref': '#/definitions/int'},
                              {'type': 'integer', 'maximum': 3}]},
            'not': {'not': {'$ref': '#/definitions/int'}},
            'if': {'if': {'$ref': '#/definitions/int'},
                   'then': {'multipleOf': 2}, 'else': {'type': 'string'}},
            'has': {'contains': {'$ref': '#/definitions/int'}},
            'names': {'propertyNames': {'$ref': '#/definitions/str'}},
            'plain': {'type': 'integer', 'maximum': 1}}},
        [{'r': 1, 'any': 'ab', 'one': 5, 'not': 'x', 'if': 4, 'has': [1],
          'names': {'ab': 1}, 'plain': 0},
         {'r': -1, 'plain': 'x'}, {'any': 'abc'}, {'any': -1},
         {'one': 2}, {'one': -1}, {'not': 1}, {'if': -1}, {'if': 3},
         {'has': ['x', -1]}, {'has': []}, {'names': {'abc': 1, 'a': 2}},
         {'plain': 5, 'r': 'x', 'any': 1.5}])


def golden_cases():
    return list(_conformance_cases()) + list(_handwritten_cases())


# -- outcome digests -----------------------------------------------------------


def _load_module(code):
    mod = types.ModuleType('scalar_golden_artifact')
    exec(compile(code, '<compile_to_code>', 'exec'), mod.__dict__)
    return mod


def _payload(e):
    return (e.name, e.message, e.value, e.definition, e.rule)


def _outcome(engine, validate, data, name):
    args = (copy.deepcopy(data),) if name is None \
        else (copy.deepcopy(data), name)
    try:
        return ('ok', validate(*args))
    except engine.JsonSchemaValueException as e:
        return ('fail', [_payload(e)])
    except engine.JsonSchemaValuesException as e:
        return ('fail', [_payload(x) for x in e.errors])
    except Exception as e:                               # noqa: BLE001
        return ('crash', type(e).__name__)


def _validator(engine, route, case, flags):
    """The case's validator through ``route``, or the outcome of a failed
    compile as ('definition' | 'error', type, message)."""
    options = dict(case.options, **flags)
    formats = options.get('formats') or {}
    try:
        if route == 'compile':
            return engine.compile(copy.deepcopy(case.schema), **options)
        code = engine.compile_to_code(copy.deepcopy(case.schema), **options)
    except engine.JsonSchemaDefinitionException as e:
        return ('definition', type(e).__name__, str(e))
    except Exception as e:                               # noqa: BLE001
        return ('error', type(e).__name__, str(e))
    mod = _load_module(code)
    # Callable formats cannot be serialized; the artifact's contract is
    # that they are re-bound through CUSTOM_FORMATS after import.
    mod.CUSTOM_FORMATS.update(
        {k: v for k, v in formats.items() if not isinstance(v, str)})
    return mod.validate


def case_digest(engine, route, case, flags):
    validator = _validator(engine, route, case, flags)
    if isinstance(validator, tuple):
        outcome = validator
    else:
        outcome = [_outcome(engine, validator, d, case.name)
                   for d in case.docs]
    return hashlib.sha256(repr(outcome).encode('utf-8')).hexdigest()


def digests(route):
    """{case id: {variant: digest}} for ``route`` in this process."""
    import python_fastjsonschema_ray as engine
    from python_fastjsonschema_ray.functions import plugins
    plugins.register_keyword(PLUGIN_KEYWORD, check_value=_check_even)
    try:
        return {case.cid: {variant: case_digest(engine, route, case, flags)
                           for variant, flags in VARIANTS.items()}
                for case in golden_cases()
                if route == 'compile' or case.artifact}
    finally:
        plugins.unregister_keyword(PLUGIN_KEYWORD)


def digests_fixed_seed(route):
    """``digests(route)`` computed in a child process whose string-hash
    seed is fixed, so set iteration order is reproducible."""
    env = dict(os.environ, PYTHONHASHSEED='0')
    out = subprocess.run(
        [sys.executable, '-m', 'tests.test_scalar_golden', 'digest', route],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# -- tests ---------------------------------------------------------------------


def _load():
    with open(GOLDEN) as f:
        return json.load(f)


_COMPUTED = {}


def _computed(route):
    if route not in _COMPUTED:
        _COMPUTED[route] = digests_fixed_seed(route)
    return _COMPUTED[route]


def test_golden_covers_cases():
    recorded = _load()['cases']
    ids = {case.cid for case in golden_cases()}
    assert set(recorded) == ids
    assert len(recorded) > 1260
    assert all(set(v) == set(VARIANTS) for v in recorded.values())


@pytest.mark.parametrize('prefix', ('draft4/', 'draft6/', 'draft7/',
                                    'draft2019/', 'remote/', 'hand/'))
@pytest.mark.parametrize('route', ROUTES)
def test_outcomes_match_golden(route, prefix):
    want = {c: v for c, v in _load()['cases'].items()
            if c.startswith(prefix)}
    got = {c: v for c, v in _computed(route).items() if c.startswith(prefix)}
    if route == 'compile_to_code':
        want = {c: v for c, v in want.items() if c in got}
    assert got.keys() == want.keys()
    diff = sorted('{} {}'.format(c, variant)
                  for c in want for variant in VARIANTS
                  if got[c][variant] != want[c][variant])
    assert not diff, '{} outcomes differ from the golden: {}'.format(
        len(diff), diff[:40])


if __name__ == '__main__':
    # digest ROUTE            -> JSON digests of ROUTE on stdout
    # record DEST COMMIT      -> write a NEW golden file from compile()
    if sys.argv[1] == 'digest':
        json.dump(digests(sys.argv[2]), sys.stdout)
    elif sys.argv[1] == 'record':
        dest, commit = sys.argv[2:4]
        if os.path.exists(dest):
            raise SystemExit('refusing to overwrite ' + dest)
        out = {
            'header': (
                'sha256 of repr() of the full outcome of every case through '
                'compile(), per flag variant, computed with '
                'PYTHONHASHSEED=0, recorded from the engine at commit {}. '
                'Both compile() and the compile_to_code() module are '
                'checked against it. Never regenerate this file to absorb '
                'a diff.'.format(commit)),
            'cases': digests_fixed_seed('compile'),
        }
        with open(dest, 'w') as f:
            json.dump(out, f, indent=0, sort_keys=True)
            f.write('\n')
    else:
        raise SystemExit('usage: digest ROUTE | record DEST COMMIT')
