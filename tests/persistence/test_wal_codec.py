"""Property tests for the WAL record codec.

The codec's contract is ``decode(encode(x)) == x`` over the full tagged
value space (JSON natives plus tuples, sets, frozensets, bytes and
non-string-keyed dicts), a torn tail that is *reported*, never raised,
and a CRC failure that is *raised*, never skipped.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence.wal import (
    HEADER_SIZE,
    WALCorruptionError,
    _pack,
    _plain,
    decode_payload,
    decode_records,
    encode_payload,
    encode_record,
)

# -- value-space strategies -------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=24),
    st.binary(max_size=24),
)

_hashable = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children),
        st.sets(_hashable, max_size=4),
        st.frozensets(_hashable, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(_hashable, children, max_size=4),
    )


values = st.recursive(_scalars, _containers, max_leaves=12)

ops = st.dictionaries(st.text(max_size=8), values, max_size=6)


@given(ops)
@settings(max_examples=150, deadline=None)
def test_payload_roundtrip_identity(op):
    assert decode_payload(encode_payload(op)) == op


@given(st.lists(ops, max_size=6))
@settings(max_examples=60, deadline=None)
def test_record_stream_roundtrip(op_list):
    buffer = b"".join(encode_record(op) for op in op_list)
    decoded, consumed = decode_records(buffer)
    assert decoded == op_list
    assert consumed == len(buffer)


@given(values)
@settings(max_examples=150, deadline=None)
def test_plain_fast_path_agrees_with_pack(value):
    """The no-alloc ``_plain`` check may only return True when the
    tagged ``_pack`` transform would have been the identity — otherwise
    the fast path would change what lands on disk."""
    if _plain(value):
        assert _pack(value) == value


def test_plain_rejects_tag_collision():
    # a user dict that happens to carry the tag key MUST go through the
    # escape hatch, or decode would misread it as a tagged value
    op = {"data": {"~": "dict", "v": 1}}
    assert not _plain(op)
    assert decode_payload(encode_payload(op)) == op


def test_plain_rejects_subclasses():
    class LoudStr(str):
        pass

    # exact-type discipline: subclasses take the slow lane (where they
    # serialize by value), never the fast lane
    assert not _plain([LoudStr("x")])


#: Text made of the characters the tag and its JSON quoting are made of.
_tilde_text = st.text(alphabet='~"\\ab', max_size=6)


@given(st.recursive(
    st.one_of(_tilde_text, st.tuples(_tilde_text)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_tilde_text, children, max_size=3),
    ),
    max_leaves=8,
))
@settings(max_examples=150, deadline=None)
def test_tilde_strings_and_keys_round_trip(value):
    op = {"data": value}
    assert decode_payload(encode_payload(op)) == op


@pytest.mark.parametrize("op", [
    {"s": "~"},
    {"s": '"~"', "t": 'x"~"y', "u": "~~"},
    {"~": "set", "v": []},
    {"data": {"~": "tuple", "v": [1]}},
    {"rows": [[1, {"~": None}], [2, ("~",)]]},
])
def test_values_that_look_like_tags_round_trip(op):
    assert decode_payload(encode_payload(op)) == op


def test_only_payloads_holding_the_tag_key_take_the_rebuild(monkeypatch):
    from repro.persistence import wal

    rebuilt = []
    unpack = wal._unpack
    monkeypatch.setattr(
        wal, "_unpack", lambda value: rebuilt.append(value) or unpack(value)
    )
    for op, rebuild in (
        ({"op": "rows", "rows": [[1, ["a~b", "~~", 2.5, None]]]}, False),
        ({"op": "rows", "rows": [[1, ("a", "b")]]}, True),
        ({"detail": "~"}, True),
    ):
        rebuilt.clear()
        assert decode_payload(encode_payload(op)) == op
        assert bool(rebuilt) is rebuild


@given(st.lists(ops, min_size=1, max_size=4), st.integers(min_value=1))
@settings(max_examples=60, deadline=None)
def test_torn_tail_is_truncated_not_raised(op_list, cut):
    buffer = b"".join(encode_record(op) for op in op_list)
    last = encode_record(op_list[-1])
    cut = cut % len(last)
    if cut == 0:
        cut = 1
    torn = buffer[: len(buffer) - cut]
    decoded, consumed = decode_records(torn)
    assert decoded == op_list[:-1]
    assert consumed == len(buffer) - len(last)


def test_crc_mismatch_raises():
    record = bytearray(encode_record({"op": "insert", "id": 7}))
    record[-1] ^= 0xFF  # damage the payload, keep the length intact
    with pytest.raises(WALCorruptionError, match="CRC mismatch"):
        decode_records(bytes(record))


def test_corrupt_middle_record_is_never_skipped():
    good = encode_record({"op": "a"})
    bad = bytearray(encode_record({"op": "b"}))
    bad[HEADER_SIZE] ^= 0xFF
    with pytest.raises(WALCorruptionError):
        decode_records(good + bytes(bad) + good)


def test_torn_header_alone():
    buffer = struct.pack("<I", 1000)[:3]  # not even a full length field
    decoded, consumed = decode_records(buffer)
    assert decoded == []
    assert consumed == 0
