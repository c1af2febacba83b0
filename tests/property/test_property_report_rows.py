"""Property tests: a report row over requested metrics is the full flatten,
restricted to those paths.

``report_row(record, metrics=...)`` walks only the subtrees that can hold a
requested path.  On random nested analyses -- keys that contain dots or are
empty, lists and tuples, leaves that flatten to their ``repr``, and paths
that two different leaves share -- it must equal ``flatten_scalars`` of the
whole section with every other path dropped, in the same order and with
the same value wherever a later leaf overwrote an earlier one.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments.reporting import flatten_scalars, report_row

SMALL = dict(max_examples=150, deadline=None)

# Short keys over a tiny alphabet (with "." and "") so dotted keys collide
# with nested paths: {"a.b": 1, "a": {"b": 2}} flattens both to "a.b".
_keys = st.text(alphabet="ab.", max_size=3)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-5, max_value=5)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(alphabet="xy", max_size=2)
    | st.frozensets(st.integers(0, 2), max_size=2)  # flattens to its repr
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=16,
)
_analyses = st.dictionaries(_keys, _values, max_size=4)


def _restricted(full, metrics):
    wanted = set(metrics)
    return [(path, value) for path, value in full.items() if path in wanted]


@settings(**SMALL)
@given(analyses=_analyses, data=st.data())
def test_pruned_row_is_the_full_flatten_restricted(analyses, data):
    full = flatten_scalars(analyses)
    present = sorted(full)
    metrics = data.draw(
        st.lists(
            st.sampled_from(present) | _keys if present else _keys,
            max_size=5,
        )
    )
    row = report_row({"analyses": analyses}, metrics=metrics)
    assert list(row.items()) == _restricted(full, metrics)


@settings(**SMALL)
@given(analyses=_analyses)
def test_requesting_every_path_gives_the_full_flatten(analyses):
    full = flatten_scalars(analyses)
    row = report_row({"analyses": analyses}, metrics=list(full))
    assert list(row.items()) == list(full.items())


def test_prefix_of_a_requested_path_is_not_a_row_entry():
    analyses = {"a": 1.5, "a.b": 2, "c": {"d": [True, "x"]}, "": {"e": 3}}
    assert report_row({"analyses": analyses}, metrics=["a.b", "c.d.1", "e"]) == {
        "a.b": 2.0,
        "c.d.1": "x",
        "e": 3.0,
    }
    assert report_row({"analyses": analyses}, metrics=["c", "c.d"]) == {}


def test_a_later_leaf_overwrites_an_earlier_one_on_the_same_path():
    analyses = {"a.b": 1, "a": {"b": 2}, "z": 0}
    assert flatten_scalars(analyses) == {"a.b": 2.0, "z": 0.0}
    assert report_row({"analyses": analyses}, metrics=["a.b"]) == {"a.b": 2.0}
