"""Pin the reference's KNOWN divergences from the official
JSON-Schema-Test-Suite — the areas its own harness marks xfail
(``/root/reference/tests/json_schema/test_draft04.py:10-18``,
``test_draft06.py:10-20``, ``test_draft07.py:10-28``: ecmascript-regex,
float-overflow, date-time/date/time, idn-hostname, iri, unknownKeyword,
id/ref resolution, cross-draft).  The official suite submodule is empty
in this checkout, so each xfailed file is represented here by its
best-known cases (reconstructed from the public suite), and every case
asserts BOTH:

1. the engine reproduces the REFERENCE's behavior bit-for-bit
   (``assert_parity``: full exception payload), and
2. the reference's verdict is the pinned one — flagging loudly if the
   divergence surface ever moves (``ref_valid`` is the reference's
   actual verdict; ``spec_valid`` is what the official suite expects,
   ``None`` when the suite has no counterpart).

Where ``ref_valid != spec_valid`` the case is a deliberate
bug-for-bug-compatibility pin, NOT an endorsement of the behavior.
"""

import copy

import pyarrow as pa
import pytest

import python_fastjsonschema_ray as engine

from .test_scalar_parity import assert_parity, outcome
from .test_vector_parity import assert_table_parity

D4 = 'http://json-schema.org/draft-04/schema'
D6 = 'http://json-schema.org/draft-06/schema'
D7 = 'http://json-schema.org/draft-07/schema'
D2019 = 'https://json-schema.org/draft/2019-09/schema'

# (label, draft_uri, schema, data, ref_valid, spec_valid, vector_ok)
# vector_ok: run the one-column table wrap too (False for root-$id /
# $ref shapes where wrapping changes resolution scope).
CASES = [
    # -- ecmascript-regex.json: Python re vs ECMA 262 semantics --------
    ('ecma-dollar-trailing-newline', D7,
     {'pattern': '^abc$'}, 'abc\n', False, False, True),
    ('ecma-digit-class-unicode', D7,
     {'pattern': '^\\d+$'}, '१', True, False, True),
    ('ecma-word-class-unicode', D7,
     {'pattern': '^\\w+$'}, 'é', True, False, True),
    ('ecma-bell-escape', D4,
     {'pattern': '\\a'}, '', False, None, True),
    # -- float-overflow.json -------------------------------------------
    ('float-overflow-integer-multipleof', D7,
     {'type': 'integer', 'multipleOf': 0.5}, 1e308, False, True, True),
    # -- type.json (draft4): the official suite says a float with a zero
    #    fractional part IS an integer in every draft, but the reference's
    #    draft-4 generator only accepts int instances (draft04.py type
    #    table); its draft-6/7 generators add the is_integer() widening.
    ('draft4-float-zero-fraction-not-integer', D4,
     {'type': 'integer'}, 1.0, False, True, True),
    # -- date-time.json / date.json / time.json: regex-only formats ----
    ('datetime-feb-31', D7,
     {'format': 'date-time'}, '1990-02-31T15:59:59.000Z',
     True, False, True),
    ('datetime-lowercase-t-z', D7,
     {'format': 'date-time'}, '1998-12-31t23:59:59z', True, True, True),
    ('datetime-month-13', D7,
     {'format': 'date-time'}, '1963-13-19T08:30:06Z', True, False, True),
    ('datetime-hour-25', D7,
     {'format': 'date-time'}, '1963-06-19T25:30:06Z', True, False, True),
    ('datetime-leap-second', D7,
     {'format': 'date-time'}, '1998-12-31T23:59:60Z', False, True, True),
    ('date-feb-30', D7,
     {'format': 'date'}, '2021-02-30', True, False, True),
    ('time-leap-second-zulu', D7,
     {'format': 'time'}, '23:59:60Z', True, True, True),
    ('time-leap-second-wrong-offset', D7,
     {'format': 'time'}, '12:00:60+01:00', True, False, True),
    ('time-missing-offset', D7,
     {'format': 'time'}, '08:30:06', True, False, True),
    ('time-one-digit-fields', D7,
     {'format': 'time'}, '1:1:1', True, False, True),
    # -- idn-hostname.json / iri.json -----------------------------------
    ('idn-hostname-illegal-first-char', D7,
     {'format': 'idn-hostname'}, '〮〯', False, False, True),
    ('idn-hostname-valid-unicode-rejected', D7,
     {'format': 'idn-hostname'}, '實例.測試', False, True, True),
    ('iri-invalid-host', D7,
     {'format': 'iri'}, 'http://2001:0db8::1/', True, False, True),
    # -- unknownKeyword.json: $id inside an unknown keyword -------------
    ('unknown-keyword-id-is-indexed', D7,
     {'definitions': {
         'id_in_unknown0': {'not': {'array_of_A': {
             '$id': 'https://localhost:1234/unknownKeyword/my_identifier.json',
             'type': 'null'}}},
         'real_id_in_schema': {
             '$id': 'https://localhost:1234/unknownKeyword/my_identifier.json',
             'type': 'string'}},
      'allOf': [
          {'$ref': '#/definitions/id_in_unknown0'},
          {'$ref': 'https://localhost:1234/unknownKeyword/my_identifier.json'}]},
     'a string to match', False, True, False),
    # -- id.json (draft4) / ref.json (draft6/7) --------------------------
    ('draft4-location-independent-id', D4,
     {'allOf': [{'$ref': '#foo'}],
      'definitions': {'A': {'id': '#foo', 'type': 'integer'}}},
     1, True, True, False),
    ('draft7-location-independent-id-invalid-data', D7,
     {'allOf': [{'$ref': '#foo'}],
      'definitions': {'A': {'$id': '#foo', 'type': 'integer'}}},
     'x', False, False, False),
    ('draft7-ref-sibling-id-base', D7,
     {'$id': 'http://localhost:1234/sibling_id/base/',
      'definitions': {
          'foo': {'$id': 'http://localhost:1234/sibling_id/foo.json',
                  'type': 'string'},
          'base_foo': {'$id': 'foo.json', 'type': 'number'}},
      'allOf': [{'$id': 'http://localhost:1234/sibling_id/',
                 '$ref': 'foo.json'}]},
     1, True, True, False),
    # -- draft-2019-09: the reference's CodeGeneratorDraft2019 is
    #    draft-07 keywords + uuid/duration formats ONLY
    #    (/root/reference/fastjsonschema/draft2019.py:1-15); the
    #    2019-only applicators are inert unknown keywords, diverging
    #    from the 2019 spec.  $defs still works as a plain pointer
    #    container (no keyword support needed for #/$defs/... refs).
    ('2019-dependentRequired-inert', D2019,
     {'dependentRequired': {'a': ['b']}}, {'a': 1}, True, False, True),
    ('2019-dependentSchemas-inert', D2019,
     {'dependentSchemas': {'a': {'required': ['b']}}},
     {'a': 1}, True, False, True),
    ('2019-minContains-inert', D2019,
     {'contains': {'const': 1}, 'minContains': 2}, [1],
     True, False, True),
    ('2019-maxContains-inert', D2019,
     {'contains': {'const': 1}, 'maxContains': 1}, [1, 1],
     True, False, True),
    ('2019-defs-pointer-ref-works', D2019,
     {'$defs': {'i': {'type': 'integer'}},
      'properties': {'x': {'$ref': '#/$defs/i'}}},
     {'x': 'no'}, False, False, False),
]


def _with_draft(schema, draft_uri):
    s = copy.deepcopy(schema)
    s.setdefault('$schema', draft_uri)
    return s


@pytest.mark.parametrize(
    'label,draft_uri,schema,data,ref_valid,spec_valid,vector_ok',
    CASES, ids=[c[0] for c in CASES])
def test_reference_divergence_pinned(reference, label, draft_uri, schema,
                                     data, ref_valid, spec_valid,
                                     vector_ok):
    s = _with_draft(schema, draft_uri)
    # 1. the reference's verdict is the pinned one
    theirs = outcome(reference.compile, s, data)
    assert (theirs[0] == 'ok') == ref_valid, (
        'reference verdict moved for {}: {!r}'.format(label, theirs))
    # 2. engine == reference, full payload
    assert_parity(reference, s, data)
    # 3. vector path agrees too (one-column wrap)
    if vector_ok:
        wrapped = {'$schema': draft_uri,
                   'properties': {'col': copy.deepcopy(schema)}}
        try:
            col = pa.array([data])
        except Exception:
            return
        assert_table_parity(reference, wrapped, pa.table({'col': col}),
                            fast_fail=True)


def test_divergence_list_covers_every_xfailed_file():
    """One pinned case per xfailed suite file (the parity surface the
    reference's own harness excludes)."""
    covered = {c[0].split('-')[0] for c in CASES}
    assert {'ecma', 'float', 'datetime', 'date', 'time', 'idn',
            'iri', 'unknown', 'draft4', 'draft7'} <= covered


def test_post_decode_type_tracking_artifact_documented(reference):
    """DOCUMENTED NON-MIMICRY (the one known behavioral gap).

    The reference's CodeGenerator tracks "the variable is known to be a
    str" across sibling allOf branches
    (/root/reference/fastjsonschema/generator.py: the isinstance guard
    is skipped once a prior branch's `type: string` check passed), while
    `contentEncoding: base64` REBINDS the variable to the decoded bytes
    — so a later branch's maxLength applies len() to the DECODED BYTES
    ("characters" counted on bytes, a codegen artifact).  The engine's
    emitter re-gates every string keyword on isinstance(str), so the
    decoded bytes skip the later branch's length check.

    Pin both behaviors so any movement on either side is caught."""
    schema = {'$schema': 'http://json-schema.org/draft-07/schema',
              'allOf': [{'type': 'string', 'contentEncoding': 'base64'},
                        {'maxLength': 8}]}
    data = 'aGVsbG8gd29ybGQ='          # decodes to b'hello world' (11)

    ref_v = reference.compile(dict(schema))
    try:
        ref_v(data)
        ref_outcome = 'ok'
    except reference.JsonSchemaValueException as exc:
        ref_outcome = ('fail', exc.rule)
    assert ref_outcome == ('fail', 'maxLength'), (
        'reference moved: post-decode bytes no longer hit maxLength')

    import python_fastjsonschema_ray as engine
    eng_v = engine.compile(dict(schema))
    out = eng_v(data)                  # engine: decoded, length re-gated
    assert out == b'hello world'


def test_multipleof_nonfinite_clean_violation(reference):
    """DOCUMENTED NON-MIMICRY: the reference CRASHES with a raw
    ValueError/OverflowError at `int(quotient)` when the value is
    nan/inf (draft04.py:361-364) — a crash, not a verdict, and one that
    would kill a whole Arrow batch in the vectorized path.  The engine
    reports a clean multipleOf violation instead (NaN/inf is never an
    exact multiple); +inf additionally reaches the reference's own
    'inifinity reached' site.  Pin both sides."""
    import python_fastjsonschema_ray as engine

    schema = {'multipleOf': 5}
    ref_v = reference.compile(dict(schema))
    with pytest.raises((ValueError, OverflowError)):
        ref_v(float('nan'))
    with pytest.raises((ValueError, OverflowError)):
        ref_v(float('inf'))

    eng_v = engine.compile(dict(schema))
    for bad in (float('nan'), float('inf'), float('-inf')):
        with pytest.raises(engine.JsonSchemaValueException) as exc:
            eng_v(bad)
        assert exc.value.rule == 'multipleOf'

    # Vector path agrees: NaN rows emit violations, batch survives.
    import pyarrow as pa
    from python_fastjsonschema_ray.pipelines.validate import ValidatorStage
    t = pa.table({'v': pa.array([10.0, float('nan'), 7.0],
                                type=pa.float64())})
    stage = ValidatorStage({'properties': {'v': {'multipleOf': 5}}},
                           t.schema, mode='violations')
    out = stage(t)
    assert out.num_rows == 2           # the NaN row + the 7.0 row
    assert set(out.column('row').to_pylist()) == {1, 2}


def test_2019_anchor_unresolvable_both_sides(reference):
    """draft-2019's $anchor is NOT indexed by the reference's
    RefResolver (only draft-6/7 `$id: '#name'` plain-name fragments
    are); a `$ref: '#foo'` pointing at an $anchor therefore fails to
    compile with 'Unresolvable ref: foo'.  The engine mirrors the
    verdict and the message."""
    import python_fastjsonschema_ray as engine

    schema = {'$schema': 'https://json-schema.org/draft/2019-09/schema',
              '$defs': {'i': {'$anchor': 'foo', 'type': 'integer'}},
              'properties': {'x': {'$ref': '#foo'}}}
    with pytest.raises(reference.JsonSchemaDefinitionException) as ref_exc:
        reference.compile(copy.deepcopy(schema))
    with pytest.raises(engine.JsonSchemaDefinitionException) as eng_exc:
        engine.compile(copy.deepcopy(schema))
    assert 'Unresolvable ref' in str(ref_exc.value)
    assert str(eng_exc.value) == str(ref_exc.value)


def test_list_nested_id_not_indexed_both_sides(reference):
    """$ids nested inside APPLICATOR LISTS (allOf/anyOf/oneOf arms) are
    not location-indexed by either side — part of the reference's
    xfailed id.json family.  The reference falls through to its implicit
    urllib fetch (URLError at compile on this offline box); the engine
    raises its clean no-handler JsonSchemaDefinitionException (the
    documented no-implicit-network divergence).  Verdict parity: both
    REJECT the schema; only the failure mode differs."""
    import urllib.error

    import python_fastjsonschema_ray as engine

    schema = {'$schema': 'http://json-schema.org/draft-07/schema',
              'allOf': [{'$id': 'http://localhost:1234/nested-list/a.json',
                         'type': 'integer'}],
              'properties': {
                  'x': {'$ref': 'http://localhost:1234/nested-list/a.json'}}}
    with pytest.raises(urllib.error.URLError):
        reference.compile(copy.deepcopy(schema))
    with pytest.raises(engine.JsonSchemaDefinitionException) as exc:
        engine.compile(copy.deepcopy(schema))
    assert 'no registered handler' in str(exc.value)
