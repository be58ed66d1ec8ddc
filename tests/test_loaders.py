"""Fuzzing the table and checkpoint loaders: bad files are refused, never run.

Files are built member by member as zip archives: well-formed ``.npy``
members, members whose ``.npy`` header or data is damaged, members that are
not ``.npy`` at all, deflated members with a broken stream, and headers that
are arbitrary JSON, not JSON, or not UTF-8. Whatever the file holds,
``load_tables`` and ``load_checkpoint`` either return or raise
``TableFormatError`` (or ``ConfigError``); no other exception escapes.
"""
import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx.errors import ConfigError, TableFormatError
from greentx.harness import (
    TABLE_FORMAT_VERSION,
    fingerprint_digest,
    load_checkpoint,
    load_tables,
    save_checkpoint,
)

FINGERPRINT = {"capacity": 3, "mu": "1.0"}
NAMES = ("policy", "v", "v_tilde", "a0", "a1")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=True)
    return buf.getvalue()


def _npy_with_header(text: str) -> bytes:
    """A version 1 .npy member whose header is ``text``, padded as numpy pads it."""
    text += " " * (-(len(text) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode()


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from(["int64", "float64", "uint8", "bool", "<U3", "object"]))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    arr = np.zeros(shape, dtype=dtype)
    if dtype == "object" and arr.size:
        arr.flat[0] = {"pickled": True}
    return arr


@st.composite
def npy_members(draw, arr):
    """The bytes of a ``.npy`` member holding ``arr``, perhaps damaged."""
    data = npy_bytes(arr)
    damage = draw(st.sampled_from(["none", "truncate", "flip", "header", "raw"]))
    if damage == "truncate":
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    if damage == "flip" and data:
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    if damage == "header":
        descr = draw(st.sampled_from(["'<f8'", "'|O'", "'<x9'", "[('a', '<i8')]", "3", "'<U2'"]))
        shape = draw(st.sampled_from(["()", "(2,)", "(-1,)", "(1099511627776,)", "(1.5,)", "'a'", "(3, 4)"]))
        order = draw(st.sampled_from(["False", "True", "1"]))
        text = f"{{'descr': {descr}, 'fortran_order': {order}, 'shape': {shape}, }}"
        return _npy_with_header(text) + draw(st.binary(max_size=64))
    if damage == "raw":
        return draw(st.binary(max_size=64))
    return data


@st.composite
def headers(draw):
    """A header blob: JSON of a (perhaps broken) table or checkpoint header, or junk."""
    kind = draw(st.sampled_from(["table", "checkpoint", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=32))
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    header = {
        "format_version": draw(st.sampled_from([TABLE_FORMAT_VERSION, 0, "1", None])),
        "kind": draw(st.sampled_from(["checkpoint", "solve_vi", "pds_ve", 3])),
    }
    if kind == "table":
        names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
        header["dims"] = draw(st.dictionaries(st.sampled_from(NAMES), json_values, max_size=3)
                              | st.just({n: [0] for n in names}) | json_values)
        header["dtypes"] = draw(st.dictionaries(st.sampled_from(NAMES), json_values, max_size=3)
                                | st.just({n: "int64" for n in names}) | json_values)
        header["fingerprint_sha256"] = draw(
            st.sampled_from([fingerprint_digest(FINGERPRINT), "0" * 64, None])
        )
    else:
        ref = st.fixed_dictionaries({"__array__": st.sampled_from(NAMES) | json_values})
        header["payload"] = draw(st.recursive(
            json_values | ref,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8,
        ))
    for key in draw(st.lists(st.sampled_from(sorted(header)), max_size=2, unique=True)):
        del header[key]
    return json.dumps(header).encode()


@st.composite
def archives(draw):
    """The bytes of a file handed to a loader: mostly zip archives of members."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=128))
    members = []
    blob = draw(headers())
    if draw(st.booleans()):
        blob_arr = np.frombuffer(blob, dtype=np.uint8)
        if draw(st.integers(0, 4)) == 0:
            blob_arr = blob_arr.astype(draw(st.sampled_from(["int64", "float64", "<U1"])))
        members.append(("__header__.npy", draw(npy_members(blob_arr))))
    elif draw(st.booleans()):
        members.append(("__header__", blob))  # a header that is not an .npy member
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True)):
        suffix = draw(st.sampled_from([".npy", ".npy", ""]))
        members.append((name + suffix, draw(npy_members(draw(arrays())))))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in members:
            deflate = draw(st.booleans())
            zf.writestr(name, data, zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED)
    data = buf.getvalue()
    if draw(st.integers(0, 4)) == 0 and data:
        i = draw(st.integers(0, len(data) - 1))  # one damaged byte anywhere
        data = data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :]
    return data


def _load_each(path):
    for load in (
        lambda: load_tables(path),
        lambda: load_tables(path, expect_kind="solve_vi", fingerprint=FINGERPRINT),
        lambda: load_checkpoint(path),
    ):
        try:
            load()
        except (TableFormatError, ConfigError):
            pass


@settings(max_examples=400, deadline=None)
@given(archives())
def test_loaders_refuse_whatever_a_file_holds(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.npz"
    path.write_bytes(data)
    _load_each(path)


# ---- regressions the fuzzing found --------------------------------------------


def _zip(tmp_path, members, compression=zipfile.ZIP_STORED):
    path = tmp_path / "f.npz"
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return path


def test_members_that_are_not_npy_arrays_are_refused(tmp_path):
    # np.load hands such a member back as raw bytes, not as an array
    header = {
        "format_version": TABLE_FORMAT_VERSION, "kind": "solve_vi",
        "dims": {"v": [1]}, "dtypes": {"v": "float64"},
    }
    blob = npy_bytes(np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))
    path = _zip(tmp_path, {"__header__.npy": blob, "v": b"\x00" * 8})
    with pytest.raises(TableFormatError, match="not an array"):
        load_tables(path)
    path = _zip(tmp_path, {"__header__": json.dumps({"kind": "checkpoint"}).encode()})
    with pytest.raises(TableFormatError, match="not an array"):
        load_checkpoint(path)


def _members(tmp_path):
    good = tmp_path / "good.npz"
    save_checkpoint(good, {"x": np.arange(64)})
    with zipfile.ZipFile(good) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def test_a_broken_deflate_stream_is_refused(tmp_path):
    path = _zip(tmp_path, _members(tmp_path), zipfile.ZIP_DEFLATED)
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("a0.npy")
    start = info.header_offset + 30 + len(info.filename) + len(info.extra)
    raw[start : start + 4] = b"\xff\xff\xff\xff"  # not a deflate block
    path.write_bytes(bytes(raw))
    with pytest.raises(TableFormatError, match="unreadable"):
        load_checkpoint(path)


def test_an_unknown_compression_method_is_refused(tmp_path):
    path = _zip(tmp_path, _members(tmp_path))
    raw = bytearray(path.read_bytes())
    central = raw.rindex(b"PK\x01\x02")  # the last member's central directory entry
    raw[central + 10 : central + 12] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(TableFormatError, match="compression method"):
        load_checkpoint(path)


def test_a_central_directory_past_its_place_is_refused(tmp_path):
    path = _zip(tmp_path, _members(tmp_path))
    raw = bytearray(path.read_bytes())
    end = raw.rindex(b"PK\x05\x06")  # end of central directory: its offset at +16
    offset = int.from_bytes(raw[end + 16 : end + 20], "little")
    raw[end + 16 : end + 20] = (offset + 4096).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(TableFormatError, match="unreadable"):
        load_checkpoint(path)


def test_an_npy_header_with_unbalanced_brackets_is_refused(tmp_path):
    member = _npy_with_header("{'descr': '|u1', 'fortran_order': False,['shape': (0,), }")
    path = _zip(tmp_path, {"__header__.npy": member})
    with pytest.raises(TableFormatError, match="unreadable"):
        load_tables(path)


@pytest.mark.parametrize("shape", ["(1099511627776,)", "(3,)"])
def test_a_member_declaring_more_data_than_it_holds_is_refused(tmp_path, shape):
    # 8 TiB or 24 bytes against the 16 it holds: refused from the header,
    # before numpy allocates the array
    member = _npy_with_header(f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}")
    path = _zip(tmp_path, {"__header__.npy": member + bytes(16)})
    with pytest.raises(TableFormatError, match="declares more data than it holds"):
        load_checkpoint(path)


@pytest.mark.parametrize("depth", [900, 100_000])
def test_headers_nested_too_deeply_are_refused(tmp_path, depth):
    # json.loads gives up past the recursion limit, the payload decoder a little below it
    text = '{"format_version": 1, "kind": "checkpoint", "payload": ' + "[" * depth + "]" * depth + "}"
    blob = npy_bytes(np.frombuffer(text.encode(), dtype=np.uint8))
    path = _zip(tmp_path, {"__header__.npy": blob})
    with pytest.raises(TableFormatError):
        load_checkpoint(path)
    if depth > 1000:
        with pytest.raises(TableFormatError, match="unreadable"):
            load_tables(path)
