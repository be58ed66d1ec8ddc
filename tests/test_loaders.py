"""Fuzzing the table and checkpoint loaders: bad files are refused, never run.

Files are built member by member as zip archives: well-formed ``.npy``
members, members whose ``.npy`` header or data is damaged, members that are
not ``.npy`` at all, deflated members with a broken stream, and headers that
are arbitrary JSON, not JSON, or not UTF-8. Whatever the file holds,
``load_tables`` and ``load_checkpoint`` either return or raise
``TableFormatError`` (or ``ConfigError``); no other exception escapes.

Then valid inputs, mutated: checkpoints of five kinds of actor with one
entry dropped, of a wrong type, out of range, or (an array) of a wrong
dtype or shape, fed to ``run_experiment(resume_from=...)``, and solved
policy tables mutated the same way, fed to ``greentx eval``. A resume
raises ``TableFormatError`` or ``ConfigError`` or runs to finite metrics;
``eval`` exits 0, or 2 with one ``error:`` line.
"""
import contextlib
import copy
import functools
import io
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx import cli, learners
from greentx.config import reduced_profile, table_profile
from greentx.errors import ConfigError, TableFormatError
from greentx.harness import (
    TABLE_FORMAT_VERSION,
    _write_npz,
    fingerprint_digest,
    load_checkpoint,
    load_tables,
    run_experiment,
    save_checkpoint,
    solve_tables,
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


# ---- valid inputs, mutated: resume and eval ------------------------------------

# a run cut at slot 40 of 60, one per kind of actor snapshot
RESUMED = ("q", "pds", "pds_ve", "suboptimal", "vi")


@functools.cache
def _checkpoint(algorithm: str) -> tuple:
    """(config, payload) of a valid checkpoint of a short reduced-profile run."""
    cfg = reduced_profile(algorithm=algorithm, horizon=60, seed=2, epoch_slots=20)
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "run.ckpt"
        run_experiment(cfg, checkpoint_path=ck, checkpoint_every=40)
        return cfg, load_checkpoint(ck)


def _paths(obj, prefix=()):
    """Every path into a nested payload of dicts and lists, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


WRONG_TYPES = (None, "x", True, 7, 2.5, [], {}, [1, 2], {"a": 1}, np.zeros(2))
OUT_OF_RANGE = (-1, -2.5, 0, 10**6, 2**64, -(2**70), float("inf"), float("-inf"), float("nan"), 1e308)
DTYPES = ("float32", "float64", "int32", "int64", "uint8", "bool", "complex128", "<U3")


@st.composite
def mutated_arrays(draw, arr: np.ndarray):
    """``arr`` with an entry out of range, of another dtype or of another shape."""
    how = draw(st.sampled_from(["entry", "dtype", "shape"]))
    if how == "dtype":
        return arr.astype(draw(st.sampled_from(DTYPES)))
    if how == "shape":
        shape = draw(st.sampled_from([(-1,), (1, -1), (-1, 1), "short", "empty", "scalar"]))
        if shape == "short":
            return arr[..., : max(arr.shape[-1] - 1, 0)] if arr.ndim else arr[None]
        if shape == "empty":
            return np.zeros((0,), arr.dtype)
        if shape == "scalar":
            return np.asarray(arr.flat[0] if arr.size else 0, arr.dtype)
        return arr.reshape(shape)
    if arr.size == 0:
        return arr
    out = arr.astype(np.float64) if draw(st.booleans()) else arr.copy()
    value = draw(st.sampled_from(OUT_OF_RANGE))
    if np.issubdtype(out.dtype, np.integer) and not isinstance(value, int):
        value = -1
    info = np.iinfo(out.dtype) if np.issubdtype(out.dtype, np.integer) else None
    if info is not None and not info.min <= value <= info.max:
        value = info.max if value > 0 else info.min
    out.flat[draw(st.integers(0, out.size - 1))] = value
    return out


@st.composite
def mutated_checkpoints(draw):
    """A valid checkpoint's config and payload with one entry dropped, of a
    wrong type, out of range, or (an array) of a wrong dtype or shape."""
    cfg, payload = _checkpoint(draw(st.sampled_from(RESUMED)))
    payload = copy.deepcopy(payload)
    # an entry first, then a path inside it, so the config's many fields do
    # not crowd out the rest
    entry = draw(st.sampled_from([None, *payload]))
    if entry is None:
        return cfg, draw(st.sampled_from(WRONG_TYPES))
    path = (entry, *draw(st.sampled_from(list(_paths(payload[entry])))))
    *head, key = path
    parent = functools.reduce(lambda obj, k: obj[k], head, payload)
    value = parent[key]
    how = draw(st.sampled_from(["drop", "type", "range"]))
    if how == "drop":
        del parent[key]
    elif how == "type":
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    elif isinstance(value, np.ndarray):
        parent[key] = draw(mutated_arrays(value))
    else:
        parent[key] = draw(st.sampled_from(OUT_OF_RANGE))
    return cfg, payload


@settings(max_examples=150, deadline=None)
@given(mutated_checkpoints())
def test_a_resumed_run_refuses_a_mutated_checkpoint_or_runs(tmp_path_factory, case):
    cfg, payload = case
    ck = tmp_path_factory.mktemp("resume") / "run.ckpt"
    save_checkpoint(ck, payload)
    try:
        result = run_experiment(cfg, resume_from=ck)
    except (TableFormatError, ConfigError):
        return
    assert result.history.shape[0] == cfg.horizon
    assert np.isfinite(result.history).all()


@functools.cache
def _solved_policy() -> np.ndarray:
    return solve_tables(table_profile(mu=1.0), "vi")["policy"]


@st.composite
def policy_tables(draw):
    """A solved policy table, mutated like a checkpoint's arrays, or dropped."""
    policy = _solved_policy()
    how = draw(st.sampled_from(["array", "type", "drop", "infeasible", "valid"]))
    if how == "drop":
        return {"v": np.zeros(3)}
    if how == "type":
        return {"policy": np.asarray(draw(st.sampled_from([0, 1.5, "x", True])))}
    if how == "infeasible":  # in range, but not an action of every state
        out = policy.copy()
        out[draw(st.integers(0, out.size - 1))] = draw(st.integers(0, 51))
        return {"policy": out}
    if how == "valid":
        return {"policy": policy}
    return {"policy": draw(mutated_arrays(policy))}


@settings(max_examples=60, deadline=None)
@given(policy_tables())
def test_eval_refuses_a_mutated_policy_table_with_one_error_line(tmp_path_factory, tables):
    tmp = tmp_path_factory.mktemp("eval")
    cfg = table_profile()
    header = {
        "format_version": TABLE_FORMAT_VERSION,
        "kind": "solve_vi",
        "dims": {name: list(a.shape) for name, a in tables.items()},
        "dtypes": {name: str(a.dtype) for name, a in tables.items()},
        "fingerprint_sha256": fingerprint_digest(cfg.model_fingerprint()),
        "fingerprint": cfg.model_fingerprint(),
    }
    _write_npz(tmp / "t.npz", header, tables)  # as serialize_tables writes, non-finite entries too
    argv = ["eval", "--tables", str(tmp / "t.npz"), "--horizon", "20", "--out", str(tmp / "e.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    err = err.getvalue()
    assert status in (0, 2)
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def _resume_with(tmp_path, algorithm, edit):
    cfg, payload = _checkpoint(algorithm)
    payload = copy.deepcopy(payload)
    edit(payload)
    ck = tmp_path / "run.ckpt"
    save_checkpoint(ck, payload)
    return run_experiment(cfg, resume_from=ck)


def _set(path, value):
    def edit(payload):
        *head, key = path
        functools.reduce(lambda obj, k: obj[k], head, payload)[key] = value
    return edit


def _set_entry(path, index, value):
    def edit(payload):
        functools.reduce(lambda obj, k: obj[k], path, payload)[index] = value
    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        # an array where the config or the run options hold a JSON value: the
        # comparison by canonical JSON raised TypeError
        (_set(("config", "seed"), np.zeros(2)), ConfigError),
        (_set(("options", "fixed_mu"), np.zeros(2)), ConfigError),
        (_set(("options",), np.zeros(2)), ConfigError),
        # observations no run records: the run went on and wrote inf and NaN metrics
        (_set_entry(("observations",), (3, 0), np.inf), TableFormatError),
        (_set_entry(("observations",), (slice(None), 0), 1e308), TableFormatError),
        (_set_entry(("observations",), (5, 5), np.nan), TableFormatError),
        # a write count past any run: its step-size table raised IndexError
        (_set_entry(("actor", "visits"), (0, 0, 0), np.iinfo(np.int64).max), TableFormatError),
    ],
    ids=["config-array", "option-array", "options-array", "obs-inf", "obs-huge", "obs-nan", "visits-max"],
)
def test_a_resume_refuses_what_the_fuzz_found(tmp_path, edit, error):
    with pytest.raises(error):
        _resume_with(tmp_path, "pds_ve", edit)


def test_a_restored_count_past_the_step_size_table_does_not_grow_it(tmp_path, monkeypatch):
    # a count of 2**40 is below the refused range, but a table reaching it
    # would hold 2**41 floats: such counts get alpha computed on them instead
    grown = []
    real = learners.LearningSchedule.alpha
    monkeypatch.setattr(learners.LearningSchedule, "alpha", lambda self, n: grown.append(np.size(n)) or real(self, n))
    visits = np.full(_checkpoint("pds_ve")[1]["actor"]["visits"].shape, 2**40)
    result = _resume_with(tmp_path, "pds_ve", _set(("actor", "visits"), visits))
    assert result.tables["visits"].max() > 2**40
    assert max(grown) <= learners.ALPHA_TABLE_MAX
