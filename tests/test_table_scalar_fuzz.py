"""Reference-free differential fuzzing: the vectorized TableValidator vs
``compile()`` applied row by row, on random one-column schemas and data,
in fast-fail and collect mode.

Both tiers must agree on every row's verdict and its full violation
payload (name, message, rule, definition, value, in order), and on the
transformed output of valid rows.  ``compile()`` itself is pinned by the
scalar goldens (``tests/test_scalar_golden.py``), so this carries the
checked semantics over to the vector plans, row kernels and scalar
fallbacks without the reference.
"""

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import python_fastjsonschema_ray as engine

from .test_vector_fuzz import (
    _STRUCT_T,
    col_schemas,
    floats,
    int_lists,
    ints,
    struct_schemas,
    structs,
    texts,
)
from .test_vector_parity import assert_table_parity

COLUMNS = (
    (ints, pa.int64()),
    (floats, pa.float64()),
    (texts, pa.string()),
    (int_lists, pa.list_(pa.int64())),
    (structs, _STRUCT_T),
)

nested_schemas = st.recursive(
    col_schemas,
    lambda children: st.one_of(
        st.fixed_dictionaries({'allOf': st.lists(children, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({'anyOf': st.lists(children, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({'oneOf': st.lists(children, min_size=1,
                                                 max_size=2)}),
        st.fixed_dictionaries({'not': children}),
        st.fixed_dictionaries({'items': children}),
        st.fixed_dictionaries({'if': children, 'then': children,
                               'else': children}),
    ),
    max_leaves=4,
)


@st.composite
def column_and_spec(draw):
    n = draw(st.integers(1, 8))
    values, arrow_type = COLUMNS[draw(st.integers(0, len(COLUMNS) - 1))]
    column = pa.array(draw(st.lists(values, min_size=n, max_size=n)),
                      type=arrow_type)
    schema = draw(struct_schemas if arrow_type == _STRUCT_T
                  else nested_schemas)
    spec = {'$schema': 'http://json-schema.org/draft-07/schema',
            'properties': {'c': schema}}
    if draw(st.booleans()):
        spec['required'] = ['c']
    return spec, pa.table({'c': column})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cs=column_and_spec())
def test_table_validator_matches_compile(cs):
    spec, table = cs
    for fast_fail in (True, False):
        assert_table_parity(engine, spec, table, fast_fail=fast_fail,
                            check_transform=True)
