"""The shape of emitted validators: every subschema but a ``$ref`` target
is inlined into its caller, past a fixed nesting bound a subschema gets a
function of its own, and the artifact's text does not depend on the
process's string hash seed."""

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import python_fastjsonschema_ray as engine
from python_fastjsonschema_ray.functions import codegen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = pytest.mark.parametrize('fast_fail', (True, False),
                                ids=('fast_fail', 'collect'))


def _routes(schema, fast_fail):
    mod = types.ModuleType('inline_artifact')
    code = engine.compile_to_code(schema, fast_fail=fast_fail)
    exec(compile(code, '<artifact>', 'exec'), mod.__dict__)
    return engine.compile(schema, fast_fail=fast_fail), mod.validate


def _outcome(validate, doc):
    try:
        return ('ok', repr(validate(doc)))
    except engine.JsonSchemaValueException as e:
        return ('fail', [(e.name, e.message, repr(e.value), e.rule)])
    except engine.JsonSchemaValuesException as e:
        return ('fail', [(x.name, x.message, repr(x.value), x.rule)
                         for x in e.errors])


def _chain(kind, depth):
    schema = {'type': 'integer'}
    for _ in range(depth):
        schema = {kind: {'items': schema, 'properties': {'a': schema},
                         'anyOf': [{'type': 'null'}, schema]}[kind]}
    return schema


def _doc(kind, depth, leaf):
    doc = leaf
    for _ in range(depth):
        doc = {'items': [doc], 'properties': {'a': doc}}.get(kind, doc)
    return doc


@MODES
@pytest.mark.parametrize('kind, depth, path', (
    ('items', 400, '[0]' * 400),
    ('properties', 60, '.a' * 60),
    ('anyOf', 25, ''),
), ids=('items400', 'properties60', 'anyOf25'))
def test_deep_chains_agree_across_routes(kind, depth, path, fast_fail):
    """Deep chains compile in both routes and both modes and give the
    same verdicts and payloads; the failing leaf's payload is pinned."""
    validators = _routes(_chain(kind, depth), fast_fail)
    for leaf in (1, 'x', None):
        got = [_outcome(v, _doc(kind, depth, leaf)) for v in validators]
        assert got[0] == got[1]
    got = _outcome(validators[0], _doc(kind, depth, 'x'))
    if kind == 'anyOf':
        # Every level's first branch fails; collect mode leaks the first
        # branch's error and goes no further (the branch "passes").
        assert got == ('fail', [
            ('data', 'data must be null', "'x'", 'type')] if not fast_fail
            else [('data', 'data cannot be validated by any definition',
                   "'x'", 'anyOf')])
    else:
        name = 'data' + path
        assert got == ('fail', [(name, name + ' must be integer', "'x'",
                                 'type')])
    if fast_fail or kind != 'anyOf':
        assert _outcome(validators[0], _doc(kind, depth, 1))[0] == 'ok'


@pytest.mark.parametrize('route', (engine.compile, engine.compile_to_code),
                         ids=('compile', 'compile_to_code'))
def test_chain_too_deep_for_the_emitter_is_a_definition_error(route):
    """The schema walk admits chains up to ``MAX_SCHEMA_WALK_DEPTH`` (500)
    levels, but the emitter's recursion runs out of stack first; such a
    chain raises the walk's exception type, not a bare RecursionError."""
    route(_chain('items', 400))
    for depth in (466, 496):
        with pytest.raises(engine.JsonSchemaDefinitionException):
            route(_chain('items', depth))


def _names(code):
    return [c.co_name for c in compile(code, '<artifact>', 'exec').co_consts
            if isinstance(c, types.CodeType)]


def test_nesting_past_the_bound_becomes_functions():
    """Inlined code stays under the bound: a 400-deep items chain gets a
    function every few levels (each level is one loop block), while a
    10-deep one is ``validate`` alone."""
    assert _names(engine.compile_to_code(_chain('items', 10))) == \
        ['validate']
    names = _names(engine.compile_to_code(_chain('items', 400)))
    per_function = codegen._MAX_BLOCKS + 1
    assert len(names) == 1 + (400 - 1) // per_function, len(names)


SHAPES = {
    'type': 'object',
    'allOf': [{'required': ['a']}, {'properties': {'b': {'minimum': 0}}}],
    'properties': {
        'a': {'type': 'string'},
        'c': {'items': {'anyOf': [{'type': 'null'},
                                  {'properties': {'d': {'default': 1}}}]}},
        'e': {'items': [{'type': 'integer'}, {'default': 'x'}],
              'additionalItems': {'type': 'string'}}},
    'patternProperties': {'^p': {'type': 'integer'}},
    'additionalProperties': {'not': {'type': 'null'}},
}


@MODES
def test_ref_free_schema_runs_one_frame_per_document(fast_fail):
    """``validate`` is the only emitted frame a ``$ref``-free schema
    enters, whatever the document."""
    validate = engine.compile(SHAPES, fast_fail=fast_fail)
    docs = [{'a': 'x', 'b': 1, 'c': [None, {}], 'e': [1], 'p1': 2, 'z': 0},
            {'a': 'x', 'c': [{'d': 2}, 3], 'e': [1, 'y', 'z']},
            {'b': -1}, {'a': 1, 'z': None}, []]
    frames = []

    def profile(frame, event, arg):
        if event == 'call' and frame.f_code.co_filename == '<validator>':
            frames.append(frame.f_code.co_name)

    for doc in docs:
        frames.clear()
        sys.setprofile(profile)
        try:
            validate(doc)
        except engine.JsonSchemaException:
            pass
        finally:
            sys.setprofile(None)
        assert frames == ['validate']


_DIGESTS = '''
import hashlib, json, sys
import python_fastjsonschema_ray as engine
from tests.test_scalar_golden import golden_cases
out = {}
for case in golden_cases():
    if not case.artifact:
        continue
    for fast_fail in (True, False):
        try:
            text = engine.compile_to_code(case.schema, fast_fail=fast_fail,
                                          **case.options)
        except Exception as e:
            text = repr(e)
        out['{} {}'.format(case.cid, fast_fail)] = hashlib.sha256(
            text.encode()).hexdigest()
json.dump(out, sys.stdout)
'''


def test_artifact_text_does_not_depend_on_the_hash_seed():
    """Every corpus schema, in both modes, emits the same artifact text
    in two processes with different string hash seeds (sets are written
    in the schema's order)."""
    runs = [json.loads(subprocess.run(
        [sys.executable, '-c', _DIGESTS], cwd=ROOT, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed)).stdout)
        for seed in ('1', '2')]
    assert len(runs[0]) > 2000
    assert [k for k in runs[0] if runs[0][k] != runs[1][k]] == []


def test_required_set_is_written_in_schema_order():
    code = engine.compile_to_code(
        {'required': ['alpha', 'beta', 'gamma', 'delta']})
    assert "= {'alpha', 'beta', 'gamma', 'delta'}" in code
    assert hashlib.sha256(code.encode()).hexdigest() == hashlib.sha256(
        engine.compile_to_code(
            {'required': ['alpha', 'beta', 'gamma', 'delta']}).encode()
    ).hexdigest()
