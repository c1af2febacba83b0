"""Property tests: the sealed-line CRC check over the stored body bytes.

``_unwrap_record`` verifies a sealed line's CRC32 over the ``"r"`` body
bytes as written, instead of re-encoding the decoded record.  On every line
``_wrap_record`` seals it must agree with the re-encoding check, and any
single-byte flip of a sealed line must read back as ``None`` (a cache miss)
or as the identical record, never as a different one.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.experiments.store import _crc32, _unwrap_record, _wrap_record, canonical_json

SMALL = dict(max_examples=40, deadline=None)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
records = st.builds(
    lambda key, body: {**body, "key": key},
    st.text(min_size=1, max_size=16),
    st.dictionaries(st.text(max_size=8), _values, max_size=5),
)


def reencoding_unwrap(line):
    """The former check: decode the wrapper, re-encode the record, CRC that."""
    stripped = line.strip()
    if not stripped:
        return None
    try:
        wrapper = json.loads(stripped)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(wrapper, dict) or "r" not in wrapper:
        return None
    record = wrapper.get("r")
    crc = wrapper.get("c")
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None
    if not isinstance(crc, int):
        return None
    if _crc32(canonical_json(record).encode("utf-8")) != crc:
        return None
    return record


@settings(**SMALL)
@given(record=records)
def test_sealed_lines_read_back_as_the_reencoding_check_reads_them(record):
    line = _wrap_record(record)
    expected = reencoding_unwrap(line)
    assert expected == json.loads(canonical_json(record))
    assert _unwrap_record(line) == expected
    assert _unwrap_record(line.rstrip(b"\n")) == expected


@settings(**SMALL)
@given(record=records, mask=st.integers(min_value=1, max_value=255))
def test_every_single_byte_flip_is_a_miss_or_the_identical_record(record, mask):
    line = _wrap_record(record)
    original = _unwrap_record(line)
    for position in range(len(line)):
        for flip in {mask, 0xFF}:
            damaged = bytearray(line)
            damaged[position] ^= flip
            result = _unwrap_record(bytes(damaged))
            assert result is None or result == original, (position, flip)


def test_lines_not_shaped_like_a_sealed_wrapper_are_rejected():
    body = canonical_json({"key": "k", "value": 1})
    crc = _crc32(body.encode("utf-8"))
    good = f'{{"c":{crc},"r":{body}}}'.encode("utf-8")
    assert _unwrap_record(good) == {"key": "k", "value": 1}
    for bad in (
        f'{{"r":{body},"c":{crc}}}',  # reordered
        f'{{"c": {crc},"r":{body}}}',  # whitespace
        f'{{"c":"{crc}","r":{body}}}',  # quoted CRC
        f'{{"c":-{crc},"r":{body}}}',
        f'{{"c":{crc},"r":{body}',  # torn
        f'{{"c":{crc},"r":{body}}}x',
        body,  # an unwrapped tail line
        "",
    ):
        assert _unwrap_record(bad.encode("utf-8")) is None, bad
    keyless = canonical_json({"value": 1})
    line = f'{{"c":{_crc32(keyless.encode("utf-8"))},"r":{keyless}}}'
    assert _unwrap_record(line.encode("utf-8")) is None
