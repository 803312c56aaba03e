"""Unit tests for the canonical hashing layer."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    canonical_encode,
    hash_many,
    hash_value,
    sha256,
)


class TestSha256:
    def test_digest_size(self):
        assert len(sha256(b"abc")) == DIGEST_SIZE

    def test_known_vector(self):
        # FIPS 180-2 test vector for "abc".
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestCanonicalEncoding:
    def test_deterministic(self):
        value = {"a": [1, 2, ("x", b"y")], "b": None}
        assert canonical_encode(value) == canonical_encode(value)

    def test_type_separation_int_vs_str(self):
        assert hash_value(1) != hash_value("1")

    def test_type_separation_bool_vs_int(self):
        assert hash_value(True) != hash_value(1)
        assert hash_value(False) != hash_value(0)

    def test_none_is_distinct(self):
        assert hash_value(None) != hash_value(0)
        assert hash_value(None) != hash_value("")

    def test_sequence_boundaries(self):
        # ("ab",) must differ from ("a", "b"): length prefixes matter.
        assert hash_value(("ab",)) != hash_value(("a", "b"))

    def test_nested_vs_flat(self):
        assert hash_value((1, (2, 3))) != hash_value((1, 2, 3))

    def test_dict_order_independent(self):
        assert hash_value({"x": 1, "y": 2}) == hash_value({"y": 2, "x": 1})

    def test_dict_vs_tuple_of_pairs(self):
        assert hash_value({"x": 1}) != hash_value((("x", 1),))

    def test_list_and_tuple_equivalent(self):
        # Lists and tuples intentionally share an encoding (both are
        # "sequences" at the protocol level).
        assert hash_value([1, 2]) == hash_value((1, 2))

    def test_float_int_distinct(self):
        assert hash_value(1.0) != hash_value(1)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            hash_value(object())

    def test_object_with_canonical_bytes(self):
        # Domain objects are not special-cased: a caller hashes their
        # digests (a block passes its records' digests as Merkle leaves).
        class Thing:
            def canonical_bytes(self):
                return b"thing-bytes"

        with pytest.raises(TypeError):
            hash_value(Thing())


class TestHashHelpers:
    def test_hash_many_matches_tuple(self):
        assert hash_many([1, 2, 3]) == hash_value((1, 2, 3))

    def test_empty_containers_distinct(self):
        assert hash_value(()) != hash_value({})
        assert hash_value(()) != hash_value(b"")


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
))
def test_property_encoding_deterministic(value):
    """Canonical encoding is a pure function of the value."""
    assert canonical_encode(value) == canonical_encode(value)


@given(st.lists(st.integers(), max_size=6), st.lists(st.integers(), max_size=6))
def test_property_distinct_int_lists_distinct_hashes(a, b):
    """Injectivity on integer sequences (collision would break blocks)."""
    if a != b:
        assert hash_value(a) != hash_value(b)
    else:
        assert hash_value(a) == hash_value(b)


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_property_bytes_injective(a, b):
    """Injectivity on raw byte strings."""
    assert (hash_value(a) == hash_value(b)) == (a == b)


def _frozen_encode(value, out: list[bytes]) -> None:
    """The encoder before its exact-type dispatch and header tables, kept
    here only as the oracle the property below checks the bytes against."""
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"f")
    elif isinstance(value, bytes):
        out.append(b"B")
        out.append(len(value).to_bytes(8, "big"))
        out.append(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S")
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out.append(b"I")
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        out.append(b"F")
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, (tuple, list)):
        out.append(b"L")
        out.append(len(value).to_bytes(8, "big"))
        for item in value:
            _frozen_encode(item, out)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        out.append(b"M")
        out.append(len(items).to_bytes(8, "big"))
        for key, val in items:
            _frozen_encode(key, out)
            _frozen_encode(val, out)
    else:
        raise TypeError(f"cannot canonically hash value of type {type(value)!r}")


def _frozen_canonical_encode(value) -> bytes:
    parts: list[bytes] = []
    _frozen_encode(value, parts)
    return b"".join(parts)


class _Str(str):
    pass


class _Int(int):
    pass


class _Bytes(bytes):
    pass


#: Leaves of every supported kind, subclasses included, with lengths on
#: both sides of the 256 the header tables cover.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**255, max_value=10**300)
    | st.floats()
    | st.text()
    | st.text(min_size=250, max_size=260)
    | st.binary()
    | st.binary(min_size=250, max_size=260)
    | st.text(max_size=4).map(_Str)
    | st.integers().map(_Int)
    | st.binary(max_size=4).map(_Bytes)
)


@given(st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5) | st.integers(), children, max_size=4),
    max_leaves=12,
))
def test_property_encoding_matches_the_frozen_encoder(value):
    """The exact-type encoder emits the bytes the isinstance chain did,
    through canonical_encode, hash_value and hash_many alike."""
    frozen = _frozen_canonical_encode(value)
    assert canonical_encode(value) == frozen
    assert hash_value(value) == sha256(frozen)
    members = value if isinstance(value, (list, tuple)) else [value]
    assert hash_many(iter(members)) == sha256(_frozen_canonical_encode(list(members)))


def test_long_sequences_and_maps_match_the_frozen_encoder():
    for value in ([0] * 300, tuple("ab" * 150), {k: k for k in range(300)}):
        assert canonical_encode(value) == _frozen_canonical_encode(value)
        assert hash_many(value) == sha256(_frozen_canonical_encode(list(value)))
