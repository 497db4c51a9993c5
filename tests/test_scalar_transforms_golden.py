"""Frozen transforms: the sha256 of the full outcome of schemas whose
validators rewrite or extend the document while they validate it, for
``compile()`` and for the ``compile_to_code()`` module, in the five flag
variants of ``tests/test_scalar_golden.py``.

The cases are where an emitter's value plumbing shows: a ``default``
inserted by a branch of ``anyOf``/``oneOf`` that then fails,
``contentEncoding``/``contentMediaType`` replacing the value under
``allOf``, ``if``/``then`` and a ``$ref``, schema-form ``dependencies``
with a ``default``, tuple ``items`` appending defaults, nested
``additionalProperties``/``patternProperties`` with defaults, and the
collect-mode errors that leak out of ``anyOf``, ``not`` and ``contains``
branches.  An outcome is the one ``test_scalar_golden`` records: ``ok``
plus the transformed output, or the ordered violation payloads.

Digests are computed in a child process with ``PYTHONHASHSEED=0``.  The
file ``tests/goldens/scalar_transforms_sha256.json`` holds one digest per
route, case and variant, recorded once (its header names the commit).
Never regenerate it to absorb a diff: ``python -m
tests.test_scalar_transforms_golden record DEST COMMIT`` only writes a
file that does not exist yet.
"""

import base64
import json
import os
import subprocess
import sys

import pytest

from .test_scalar_golden import DRAFT_URI, ROUTES, VARIANTS, Case, case_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, 'goldens', 'scalar_transforms_sha256.json')
D7 = DRAFT_URI[7]
D4 = DRAFT_URI[4]


def _b64(raw):
    return base64.b64encode(raw).decode()


def _b64json(obj):
    return _b64(json.dumps(obj).encode())


def transform_cases():
    yield Case('anyOf_default_in_failing_branch', {
        '$schema': D7,
        'anyOf': [
            {'properties': {'a': {'default': [1]}, 'b': {'type': 'string'}},
             'required': ['c']},
            {'properties': {'d': {'default': {'e': 1}}}, 'minProperties': 9},
            {'type': 'object'}]},
        [{}, {'c': 1}, {'b': 2}, {'a': None, 'd': 0}, [], 'x'])
    yield Case('oneOf_default_in_failing_branch', {
        '$schema': D7,
        'properties': {'p': {'oneOf': [
            {'properties': {'a': {'default': 'x'}}, 'maxProperties': 0},
            {'properties': {'b': {'default': 2}}, 'required': ['z']},
            {'type': 'object'},
            {'properties': {'c': {'default': 3}}}]}}},
        [{'p': {}}, {'p': {'z': 1}}, {'p': {'a': 1}}, {'p': 5}, {}])
    yield Case('content_under_allOf', {
        '$schema': D7,
        'allOf': [{'contentEncoding': 'base64'},
                  {'contentMediaType': 'application/json'}],
        'properties': {'k': {'type': 'integer'}}},
        [_b64json({'k': 1}), _b64json({'k': 'x'}), _b64json([1, 2]),
         'not base64!', _b64(b'\xff\xfe'), _b64(b'{bad'), 7, {'k': 1}])
    yield Case('content_under_if_then', {
        '$schema': D7,
        'if': {'contentEncoding': 'base64'},
        'then': {'contentMediaType': 'application/json',
                 'allOf': [{'type': 'string'}]},
        'else': {'type': 'integer'},
        'properties': {'v': {
            'if': {'type': 'string'},
            'then': {'contentEncoding': 'base64',
                     'contentMediaType': 'application/json'}}}},
        [_b64json({'v': _b64json([1])}), _b64json('s'), _b64(b'[1,'),
         'not base64!', 3, {'v': 'x'}])
    yield Case('content_in_failing_anyOf_branch', {
        '$schema': D7,
        'definitions': {'json64': {'contentEncoding': 'base64',
                                   'contentMediaType': 'application/json'}},
        'properties': {
            'inline': {'anyOf': [
                {'contentEncoding': 'base64',
                 'contentMediaType': 'application/json'},
                {'type': 'string', 'maxLength': 3}]},
            'ref': {'anyOf': [{'$ref': '#/definitions/json64'},
                              {'type': 'string', 'maxLength': 3}]}},
        'anyOf': [{'$ref': '#/definitions/json64'},
                  {'type': 'string'}]},
        [_b64(b'bad'), _b64(b'toolong'), _b64json({'a': 1}),
         {'inline': _b64(b'bad'), 'ref': _b64(b'bad')},
         {'inline': _b64(b'toolong'), 'ref': _b64json(1)}])
    yield Case('schema_dependencies_default', {
        '$schema': D7,
        'dependencies': {
            'a': {'properties': {'b': {'default': {'c': [1]}},
                                 'n': {'default': 0}}},
            'b': {'properties': {'c': {'default': 'from-b'}}},
            'x': ['a']},
        'properties': {'sub': {'dependencies': {
            'k': {'properties': {'m': {'default': []}}}}}}},
        [{'a': 1}, {'a': 1, 'b': 2}, {'b': None}, {'x': 1},
         {'sub': {'k': 1}}, {'sub': {'m': 1}}, 'x'])
    yield Case('tuple_items_default_append', {
        '$schema': D7,
        'items': [{'type': 'integer'},
                  {'default': 'two'},
                  {'items': [{'default': 0}, {'default': [0]}]},
                  {'default': {'d': 4}}],
        'additionalItems': {'properties': {'z': {'default': 'z'}}}},
        [[], [1], [1, 'b', []], [1, 'b', [9], None, {}, {'z': 1}], ['x'],
         (1, 2), [1, 2, [3, 4, 5]]])
    yield Case('nested_pattern_additional_defaults', {
        '$schema': D7,
        'properties': {'known': {'properties': {'k': {'default': 'k'}}}},
        'patternProperties': {
            '^p': {'properties': {'d': {'default': 1}},
                   'patternProperties': {'^q': {'properties': {
                       'e': {'default': [2]}}}},
                   'additionalProperties': {'properties': {
                       'f': {'default': 'f'}}}},
            'x$': {'properties': {'g': {'default': None}}}},
        'additionalProperties': {
            'properties': {'h': {'default': {'i': 3}}},
            'additionalProperties': {'type': 'object',
                                     'properties': {'j': {'default': 4}}}}},
        [{}, {'known': {}, 'p1': {}, 'px': {}, 'other': {}},
         {'p': {'q': {}, 'r': {}}, 'z': {'y': {}}},
         {'p': {'q': 1}, 'z': {'y': 1}}, {'px': 3, 'known': 0}])
    yield Case('defaults_beside_remainder_readers', {
        '$schema': D7,
        'properties': {
            'closed': {'properties': {'a': {'default': 1}, 'b': {}},
                       'patternProperties': {'^x': {'default': 'unused'}},
                       'additionalProperties': False},
            'named': {'properties': {'a': {'default': 1}},
                      'propertyNames': False},
            'open': {'properties': {'a': {'default': 1}},
                     'additionalProperties': {'type': 'integer'}}}},
        [{'closed': {}, 'named': {}, 'open': {}},
         {'closed': {'b': 1, 'x1': 2, 'c': 3, 'd': 4, 'e': 5, 'f': 6}},
         {'named': {'a': 2}}, {'named': {'a': 2, 'z': 3}},
         {'open': {'a': 'x', 'b': 1, 'c': 'y', 'd': 'z'}}])
    yield Case('draft4_defaults_under_combinators', {
        '$schema': D4,
        'allOf': [{'properties': {'a': {'default': 1}}}],
        'anyOf': [{'properties': {'b': {'default': 2}}, 'required': ['q']},
                  {'properties': {'c': {'default': 3}}}],
        'not': {'properties': {'d': {'default': 4}}, 'required': ['e']}},
        [{}, {'q': 1}, {'e': 1}, 0])
    yield Case('collect_leaks_anyOf_not_contains', {
        '$schema': D7,
        'properties': {
            'any': {'anyOf': [{'type': 'string', 'minLength': 5},
                              {'type': 'integer'}]},
            'not': {'not': {'properties': {'a': {'type': 'string'}},
                            'required': ['z']}},
            'has': {'contains': {'type': 'integer', 'minimum': 10}},
            'one': {'oneOf': [{'maximum': 1, 'type': 'integer'},
                              {'minimum': 5}]},
            'if': {'if': {'minimum': 3}, 'then': {'multipleOf': 2},
                   'else': {'type': 'string'}},
            'names': {'propertyNames': {'maxLength': 2, 'pattern': '^a'}}}},
        [{'any': 1, 'not': {}, 'has': [10], 'one': 0, 'if': 4,
          'names': {'ab': 1}},
         {'any': 'ab', 'not': {'a': 1}, 'has': ['x', 3], 'one': 3,
          'if': 1, 'names': {'bcd': 1, 'a': 2}},
         {'any': [], 'not': {'a': 'x'}, 'has': [], 'one': 9, 'if': 5},
         {'has': 'x', 'names': {}}])


def digests(route):
    """{case id: {variant: digest}} for ``route`` in this process."""
    import python_fastjsonschema_ray as engine
    return {case.cid: {variant: case_digest(engine, route, case, flags)
                       for variant, flags in VARIANTS.items()}
            for case in transform_cases()}


def digests_fixed_seed(route):
    env = dict(os.environ, PYTHONHASHSEED='0')
    out = subprocess.run(
        [sys.executable, '-m', 'tests.test_scalar_transforms_golden',
         'digest', route],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _load():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_cases():
    recorded = _load()['cases']
    ids = {case.cid for case in transform_cases()}
    assert set(recorded) == set(ROUTES)
    for route in ROUTES:
        assert set(recorded[route]) == ids
        assert all(set(v) == set(VARIANTS) for v in recorded[route].values())


@pytest.mark.parametrize('route', ROUTES)
def test_transforms_match_golden(route):
    want = _load()['cases'][route]
    got = digests_fixed_seed(route)
    diff = sorted('{} {}'.format(c, variant) for c in want
                  for variant in VARIANTS if got[c][variant] != want[c][variant])
    assert not diff, '{} outcomes differ from the golden: {}'.format(
        len(diff), diff)


if __name__ == '__main__':
    # digest ROUTE            -> JSON digests of ROUTE on stdout
    # record DEST COMMIT      -> write a NEW golden file from both routes
    if sys.argv[1] == 'digest':
        json.dump(digests(sys.argv[2]), sys.stdout)
    elif sys.argv[1] == 'record':
        dest, commit = sys.argv[2:4]
        if os.path.exists(dest):
            raise SystemExit('refusing to overwrite ' + dest)
        out = {
            'header': (
                'sha256 of repr() of the full outcome of every transform '
                'case, per route and flag variant, computed with '
                'PYTHONHASHSEED=0, recorded from the engine at commit {}. '
                'Never regenerate this file to absorb a diff.'
                .format(commit)),
            'cases': {route: digests_fixed_seed(route) for route in ROUTES},
        }
        with open(dest, 'w') as f:
            json.dump(out, f, indent=0, sort_keys=True)
            f.write('\n')
    else:
        raise SystemExit('usage: digest ROUTE | record DEST COMMIT')
