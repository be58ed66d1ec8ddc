"""Experiment orchestration: run loops, metrics accounting, persistence.

Every run emits one metrics row per slot. All reported quantities are prefix
means (cumulative sums divided by slot count), except the multiplier, which
is averaged over a sliding 1000-slot window so its transient is visible.
During the run each slot only records its six observations (power, realized
buffer cost, holding, drops, off flag, price) into one preallocated array;
the rows are formed from it once, when the run ends (``MetricsAccumulator``).
Runs are deterministic given the config (seed included), and a checkpointed
run resumed from disk reproduces the uninterrupted metric stream bit-exactly.
A checkpoint carries the recorded observations, not the rows.

The run loop drives one actor per run, with no adapter around it: the
learners (``QLearner``, ``PdsLearner``), ``PolicyActor`` (the exact policy,
the threshold baseline and replayed tables) and ``SuboptimalActor``. Each
has ``act(s: int, n: int, mu: float) -> int`` (flat state index in, global
action index out), ``learn(outcome, n, mu)`` reading the ``SlotOutcome``
that ``Environment.step`` returned, ``tables()`` (the arrays a finished run
reports), and ``snapshot()``/``restore(snap)``, whose dict holds arrays and
JSON values only, so that checkpoints need no pickle. The loop owns the
run's clock and its price: n is the slot index, mu the price in effect in
slot n, and after each slot the loop alone steps its one
``MultiplierState`` with ``mu_update``. A checkpoint stores the slot and
the price once each, beside the actor's snapshot. Inside the loop states
and actions are integers; the ``State`` and ``Action`` dataclasses appear
only at the edge (the configured start state, the threshold table,
``model.state_of``).
"""
from __future__ import annotations

import hashlib
import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .env import Environment, threshold_k_action
from .errors import ConfigError, TableFormatError, check_snapshot, check_values
from .learners import MultiplierState, PdsLearner, QLearner, mu_update
from .model import JointModel
from .pds import FactoredDynamics, init_pds_values, pds_value_iteration
from .planner import value_iteration
from .power import PmAction, PowerState
from .queueing import ArrivalDistribution

class MetricsRecord(NamedTuple):
    """Running averages as of slot n (0-indexed; divisor is n + 1)."""

    n: int
    cum_cost: float
    cum_power_w: float
    cum_holding: float
    cum_overflow: float
    theta_off: float
    mu_window: float


CSV_COLUMNS = MetricsRecord._fields

# what a slot records: the columns of MetricsAccumulator.obs, in this order
OBSERVATIONS = ("power_w", "g_realized", "holding", "drops", "off_slot", "mu")

MU_WINDOW_SLOTS = 1000

# metric rows formatted at a time: larger chunks format no faster and
# hold more text at once
CSV_CHUNK_ROWS = 128


class MetricsAccumulator:
    """Per-slot observations in a float64 array preallocated to the horizon.

    ``update`` writes slot n's power, realized buffer cost, holding, drops,
    off flag and price into row n of ``obs`` (one column per name in
    ``OBSERVATIONS``) and does nothing else. ``history`` forms the metric
    rows from them once, after the run. The filled rows, ``obs[:count]``,
    are all the metric state a checkpoint carries.
    """

    def __init__(self, horizon: int, mu_window: int = MU_WINDOW_SLOTS) -> None:
        self.count = 0
        self.mu_window = mu_window
        self.obs = np.zeros((horizon, len(OBSERVATIONS)))

    def update(
        self,
        *,
        power_w: float,
        g_realized: float,
        holding: float,
        drops: float,
        off_slot: bool,
        mu: float,
    ) -> None:
        self.obs[self.count] = (power_w, g_realized, holding, drops, off_slot, mu)
        self.count += 1

    def history(self) -> np.ndarray:
        """Metric rows of the recorded slots, shape (count, len(CSV_COLUMNS)).

        Each prefix mean is a sequential ``np.cumsum`` over the slot count,
        bit for bit the running sum a slot-by-slot accumulator keeps. The
        multiplier's window mean is bit for bit that accumulator's window
        recurrence (start at 0.0, add each price, and from slot w on first
        subtract the price leaving the window), since a windowed difference
        of prefix sums rounds differently.
        """
        n, w = self.count, self.mu_window
        power, g, holding, drops, off, mu = self.obs[:n].T
        counts = np.arange(1, n + 1, dtype=np.float64)
        rows = np.empty((n, len(CSV_COLUMNS)))
        rows[:, 0] = np.arange(n)
        for j, terms in enumerate((power + mu * g, power, holding, drops, off), start=1):
            rows[:, j] = np.cumsum(terms) / counts
        # The recurrence is one sequential cumsum over the interleaved terms
        # 0.0, p_0 .. p_{w-1}, -p_0, p_w, -p_1, p_{w+1}, ...: a - b equals
        # a + (-b) in IEEE arithmetic, so each subtraction is that addition.
        # The leading 0.0 is the recurrence's start: cumsum copies its first
        # term, so without it a first price of -0.0 would stay -0.0 where
        # 0.0 + (-0.0) gives 0.0.
        full = min(n, w)  # slots summed before the window starts to slide
        sums = np.zeros(1 + 2 * n - full)
        sums[1 : full + 1] = mu[:full]
        sums[full + 1 :: 2] = -mu[: n - full]
        sums[full + 2 :: 2] = mu[full:]
        np.cumsum(sums, out=sums)
        means = rows[:, 6]
        np.divide(sums[1 : full + 1], counts[:full], out=means[:full])
        np.divide(sums[full + 2 :: 2], w, out=means[full:])
        # every mu is >= 0, but the running sum can drift a few ulps below;
        # this is max(0.0, mean) per slot, which also maps -0.0 to 0.0
        means[~(means > 0.0)] = 0.0
        return rows


def _csv_lines(history):
    """Locale-independent decimal text; floats printed shortest-round-trip.

    Yields the header, then the rows ``CSV_CHUNK_ROWS`` at a time: each
    chunk's columns go to Python floats with one ``tolist`` and through
    ``repr`` column by column, and its lines are joined in one pass. The
    slot column is read from the data, so a slice of a history keeps its
    slot numbers.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    rows = np.asarray(history, dtype=np.float64)
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        part = rows[start : start + CSV_CHUNK_ROWS]
        slots = map(str, map(int, part[:, 0].tolist()))
        cols = [map(repr, col) for col in part[:, 1:].T.tolist()]
        yield "\n".join(map(",".join, zip(slots, *cols))) + "\n"


def metrics_csv_text(history) -> str:
    return "".join(_csv_lines(history))


def emit_metrics_csv(history, path) -> None:
    """Writes the CSV a chunk of rows at a time, never holding the whole text."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(history))


# ---------------------------------------------------------------------------
# Table and checkpoint persistence
# ---------------------------------------------------------------------------

TABLE_FORMAT_VERSION = 1


def fingerprint_digest(fingerprint: dict) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _header_blob(header: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def _write_npz(path, header: dict, arrays: dict) -> None:
    """The header and arrays as an npz file at exactly ``path``."""
    with open(path, "wb") as fh:  # given a name, np.savez appends ".npz" to it
        np.savez(fh, __header__=_header_blob(header), **arrays)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_member(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """One ``.npy`` member of an npz archive, read as ``np.load`` reads it.

    Its header is checked first: a member whose shape and dtype need more
    bytes than the member holds is refused before numpy allocates the array.
    """
    if not info.filename.endswith(".npy"):
        raise ValueError(f"member {info.filename!r} is not an array")
    if info.header_offset < 0:  # zipfile would seek before the file's start
        raise ValueError(f"member {info.filename!r} lies before the archive")
    with zf.open(info) as member:
        version = np.lib.format.read_magic(member)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f"member {info.filename!r} has .npy version {version}")
        shape, _, dtype = _NPY_HEADER_READERS[version](member)
        if math.prod(shape) * dtype.itemsize > info.file_size - member.tell():
            raise ValueError(f"member {info.filename!r} declares more data than it holds")
    with zf.open(info) as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def _read_npz(path) -> tuple[dict, dict]:
    """JSON header and arrays of an npz file; refuses pickled content.

    A file that cannot be opened or read raises ``OSError``; anything wrong
    inside it raises ``TableFormatError``.
    """
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                arrays = {
                    info.filename.removesuffix(".npy"): _read_member(zf, info)
                    for info in zf.infolist()
                }
            blob = arrays.pop("__header__", None)
            header = None if blob is None else json.loads(blob.tobytes().decode("utf-8"))
        except (
            ValueError, EOFError, NotImplementedError, SyntaxError, tokenize.TokenError,
            RecursionError, zipfile.BadZipFile, zlib.error,
        ) as exc:
            # pickled data, object arrays, a broken archive, member or header
            # (numpy re-reads a version 1 .npy header that does not parse with
            # tokenize, which raises on unbalanced brackets), or JSON nested
            # too deep
            raise TableFormatError(f"unreadable table file {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise TableFormatError("missing header block")
    return header, arrays


def serialize_tables(tables: dict, path, *, kind: str, fingerprint: dict) -> None:
    """Write named arrays plus a self-describing JSON header to an npz file."""
    arrays = {}
    for name, arr in tables.items():
        a = np.asarray(arr)
        if np.issubdtype(a.dtype, np.floating) and not np.isfinite(a).all():
            raise TableFormatError(f"table {name!r} contains non-finite entries")
        arrays[name] = a
    header = {
        "format_version": TABLE_FORMAT_VERSION,
        "kind": kind,
        "dims": {name: list(a.shape) for name, a in arrays.items()},
        "dtypes": {name: str(a.dtype) for name, a in arrays.items()},
        "fingerprint_sha256": fingerprint_digest(fingerprint),
        "fingerprint": fingerprint,
    }
    _write_npz(path, header, arrays)


def load_tables(path, *, expect_kind: str | None = None, fingerprint: dict | None = None):
    """Read tables back; refuses kind, shape, dtype, or fingerprint mismatches."""
    header, tables = _read_npz(path)
    if header.get("format_version") != TABLE_FORMAT_VERSION:
        raise TableFormatError(f"unsupported format version {header.get('format_version')!r}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise TableFormatError(f"expected kind {expect_kind!r}, found {header.get('kind')!r}")
    dims, dtypes = header.get("dims"), header.get("dtypes")
    if not isinstance(dims, dict) or not isinstance(dtypes, dict):
        raise TableFormatError("header dims and dtypes must be mappings")
    for name, a in tables.items():
        if list(a.shape) != dims.get(name):
            raise TableFormatError(f"table {name!r} shape {list(a.shape)} != header {dims.get(name)}")
        if str(a.dtype) != dtypes.get(name):
            raise TableFormatError(f"table {name!r} dtype {a.dtype} != header {dtypes.get(name)}")
    if fingerprint is not None:
        want = fingerprint_digest(fingerprint)
        if header.get("fingerprint_sha256") != want:
            raise TableFormatError("model fingerprint mismatch")
    return tables, header


_ARRAY_REF = "__array__"


def save_checkpoint(path, payload: dict) -> None:
    """Write nested dicts and lists of arrays and JSON values in the table format.

    Arrays become npz entries and everything else goes into the JSON header,
    where each array is a ``{"__array__": entry}`` reference. Tuples come back
    as lists.
    """
    arrays = {}

    def encode(obj):
        if isinstance(obj, np.ndarray):
            name = f"a{len(arrays)}"
            arrays[name] = obj
            return {_ARRAY_REF: name}
        if isinstance(obj, dict):
            return {k: encode(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [encode(v) for v in obj]
        return obj

    header = {
        "format_version": TABLE_FORMAT_VERSION,
        "kind": "checkpoint",
        "payload": encode(payload),
    }
    _write_npz(path, header, arrays)


def load_checkpoint(path) -> dict:
    """Read a checkpoint back; anything but a checkpoint in this format is refused."""
    header, arrays = _read_npz(path)
    if header.get("format_version") != TABLE_FORMAT_VERSION or header.get("kind") != "checkpoint":
        raise TableFormatError(f"{path} is not a checkpoint of format {TABLE_FORMAT_VERSION}")

    def decode(obj):
        if isinstance(obj, dict):
            if set(obj) == {_ARRAY_REF}:
                arr = arrays.get(str(obj[_ARRAY_REF]))
                if arr is None:
                    raise TableFormatError(f"checkpoint lacks array {obj[_ARRAY_REF]!r}")
                return arr
            return {k: decode(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [decode(v) for v in obj]
        return obj

    try:
        return decode(header.get("payload"))
    except RecursionError as exc:
        raise TableFormatError(f"{path}: checkpoint payload nests too deeply") from exc


# ---------------------------------------------------------------------------
# Actors besides the learners (the surface is in the module docstring)
# ---------------------------------------------------------------------------


def _check_policy(model: JointModel, policy: np.ndarray) -> None:
    """Raise ``TableFormatError`` unless the flat ``policy`` can drive a run.

    It must be integer-typed, name actions in [0, n_a) and pick a feasible
    action at every state.
    """
    if not np.issubdtype(policy.dtype, np.integer):
        raise TableFormatError(f"policy must hold integer action indices, not {policy.dtype}")
    if policy.min() < 0 or policy.max() >= model.n_a:
        raise TableFormatError(f"policy names actions outside [0, {model.n_a})")
    s = np.arange(model.n_s)  # flat (b, h, x) order: b = s // (n_h n_x), x = s % n_x
    if not model.feasible_bxa[s // (model.n_h * model.n_x), s % model.n_x, policy].all():
        raise TableFormatError("policy picks an infeasible action")


class PolicyActor:
    """Follows a fixed flat policy, whatever the slot and price.

    A policy that ``_check_policy`` refuses is refused before the run starts.
    """

    def __init__(self, model: JointModel, policy, extra_tables: dict | None = None):
        self.model = model
        policy = np.asarray(policy)
        if policy.shape != (model.n_s,):
            raise ConfigError(f"policy must have shape ({model.n_s},)")
        _check_policy(model, policy)
        self.policy = policy.astype(np.int64, copy=False)
        self._actions = self.policy.tolist()
        self._extra = dict(extra_tables or {})

    def act(self, s: int, n: int, mu: float) -> int:
        return self._actions[s]

    def learn(self, outcome, n: int, mu: float) -> None:
        pass

    def tables(self) -> dict:
        return {"policy": self.policy.copy(), **self._extra}

    def snapshot(self) -> dict:
        return {}

    def restore(self, snap: dict) -> None:
        check_snapshot(snap, {}, "actor")


# tolerance of the re-planning reference's solves on estimated statistics;
# a solve on the true statistics runs to 1e-9
SOLVE_TOL = 1e-6


class SuboptimalActor:
    """Reference that re-plans on empirical statistics every epoch.

    Arrival and channel transition frequencies get add-one smoothing so the
    estimated laws are proper distributions from slot zero. Plans with exact
    value iteration against the estimates (or the true statistics when
    injected), warm-starting each solve from the previous value table, on the
    first slot of each epoch (``n % epoch_slots == 0``) at that slot's price;
    a resumed run keeps its policy until then.
    """

    def __init__(self, cfg: ExperimentConfig, model: JointModel, *, true_stats: bool = False) -> None:
        self.model = model
        self.epoch = cfg.epoch_slots
        self.true_stats = true_stats
        self.support = model.arrivals.pmf.size
        self.arrival_counts = np.zeros(self.support, dtype=np.int64)
        self.channel_counts = np.zeros((model.n_h, model.n_h), dtype=np.int64)
        self._v, self.policy = np.zeros(model.n_s), np.zeros(model.n_s, np.int64)
        self._solved_mu = -1.0  # none: slot 0 solves unless restored

    def _estimated_model(self) -> JointModel:
        raw_a = (self.arrival_counts + 1).astype(np.float64)
        pmf = raw_a / raw_a.sum()
        raw_p = (self.channel_counts + 1).astype(np.float64)
        p = raw_p / raw_p.sum(axis=1, keepdims=True)
        return self.model.with_statistics(ArrivalDistribution(pmf), p)

    def _solve(self, mu: float) -> None:
        if self.true_stats:
            if self._solved_mu == mu:
                return
            m, tol = self.model, 1e-9
        else:
            m, tol = self._estimated_model(), SOLVE_TOL
        sol = value_iteration(m, mu, tol=tol, v0=self._v)
        self._v, self.policy = sol.v, sol.policy
        self._solved_mu = mu

    def act(self, s: int, n: int, mu: float) -> int:
        if n % self.epoch == 0 and (n > 0 or self._solved_mu < 0):
            self._solve(mu)
        return int(self.policy[s])

    def learn(self, outcome, n: int, mu: float) -> None:
        _, h, _ = self.model.decode(outcome.s)
        _, h_next, _ = self.model.decode(outcome.s_next)
        self.arrival_counts[min(outcome.l, self.support - 1)] += 1
        self.channel_counts[h, h_next] += 1

    def tables(self) -> dict:
        return {"v": self._v.copy(), "policy": self.policy.copy()}

    def snapshot(self) -> dict:
        return {
            "arrival_counts": self.arrival_counts.copy(),
            "channel_counts": self.channel_counts.copy(),
            "v": self._v.copy(),
            "policy": self.policy.copy(),
            "solved_mu": self._solved_mu,
        }

    def restore(self, snap: dict) -> None:
        """Reinstate a snapshot. ``TableFormatError`` refuses another layout, a
        count outside [0, 2**53), a value table or solved price that is not
        finite, and a policy that ``PolicyActor`` refuses."""
        check_snapshot(snap, self.snapshot(), "actor")
        check_values(snap, ("arrival_counts", "channel_counts"), ("v", "solved_mu"))
        _check_policy(self.model, snap["policy"])
        self.arrival_counts[...] = snap["arrival_counts"]
        self.channel_counts[...] = snap["channel_counts"]
        self._v = snap["v"].copy()
        self.policy = snap["policy"].copy()
        self._solved_mu = snap["solved_mu"]


def _build_actor(cfg: ExperimentConfig, model: JointModel, env: Environment, *, true_stats: bool):
    alg = cfg.algorithm
    if alg == "vi":
        sol = value_iteration(model, cfg.mu)
        return PolicyActor(model, sol.policy, {"v": sol.v})
    if alg == "threshold":
        k = cfg.threshold_k
        table = [
            model.action_index[threshold_k_action(model.state_of(i), k, model, cfg.fixed_plr)]
            for i in range(model.n_s)
        ]
        return PolicyActor(model, table, {"threshold_k": np.asarray(k, dtype=np.int64)})
    if alg == "q":
        return QLearner(model, cfg.schedules(), env.streams.exploration)
    if alg in ("pds", "pds_ve"):
        v0 = init_pds_values(model, cfg.init_arrivals(), mu_init=cfg.init_mu)
        period = cfg.ve_period if alg == "pds_ve" else None
        return PdsLearner(FactoredDynamics(model), v0, cfg.schedules(), period)
    if alg == "suboptimal":
        return SuboptimalActor(cfg, model, true_stats=true_stats)
    raise ConfigError(f"unknown algorithm {alg!r}")


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """A finished run: per-slot metric rows plus whatever tables the actor built."""

    config: ExperimentConfig
    history: np.ndarray  # (horizon, len(CSV_COLUMNS))
    tables: dict
    mu_final: float

    def record_at(self, n: int) -> MetricsRecord:
        n_slot, *vals = self.history[n].tolist()
        return MetricsRecord(int(n_slot), *vals)

    @property
    def final(self) -> MetricsRecord:
        return self.record_at(-1)

    def column(self, name: str) -> np.ndarray:
        return self.history[:, CSV_COLUMNS.index(name)]

    def csv_text(self) -> str:
        return metrics_csv_text(self.history)


_CHECKPOINT_ENTRIES = ("config", "options", "slot", "mu", "observations", "env", "actor")


def _same_json(value, want) -> bool:
    """Whether two values are one as canonical JSON (a config's tuples come back
    as lists); never for one that JSON cannot hold, such as a decoded array."""
    try:
        return fingerprint_digest(value) == fingerprint_digest(want)
    except TypeError:
        return False


def _resume(
    payload, cfg: ExperimentConfig, options: dict, price: MultiplierState, acc, env, actor
) -> int:
    """Restore a run from a checkpoint payload; returns the slot it continues at.

    A payload that lacks an entry, stops outside ``[0, horizon]``, holds a
    price the run's ``price`` cannot hold (not a float, outside
    ``[0, mu_max]``, or another value than a fixed price's) or observations
    of another shape than ``(slot, len(OBSERVATIONS))`` or whose metrics are
    not finite is refused with ``TableFormatError``, as is an environment or
    actor entry that its ``restore`` refuses; one from another config, or run
    under other ``options`` (``run_experiment``'s ``fixed_mu``,
    ``true_stats`` and policy digest), with ``ConfigError``.
    """
    if not isinstance(payload, dict) or not set(_CHECKPOINT_ENTRIES) <= set(payload):
        raise TableFormatError(f"checkpoint lacks one of the entries {_CHECKPOINT_ENTRIES}")
    if not isinstance(payload["config"], dict):
        raise TableFormatError("checkpoint config is not a mapping")
    if not _same_json(payload["config"], cfg.to_dict()):
        raise ConfigError("checkpoint was produced by a different config")
    if not _same_json(payload["options"], options):
        raise ConfigError(
            f"checkpoint was produced under run options {payload['options']!r}, not {options!r}"
        )
    slot, obs = payload["slot"], payload["observations"]
    if type(slot) is not int or not 0 <= slot <= cfg.horizon:
        raise TableFormatError(f"checkpoint slot {slot!r} outside [0, {cfg.horizon}]")
    mu = payload["mu"]
    if type(mu) is not float or not (mu == price.mu if price.fixed else 0.0 <= mu <= price.mu_max):
        raise TableFormatError(f"checkpoint price {mu!r} is not one this run's price can hold")
    shape = (slot, len(OBSERVATIONS))
    if not isinstance(obs, np.ndarray) or obs.dtype != np.float64 or obs.shape != shape:
        raise TableFormatError(f"checkpoint observations are not a float64 {shape} array")
    acc.obs[:slot] = obs
    acc.count = slot
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(acc.history()).all()
    if not finite:
        raise TableFormatError("checkpoint observations give metrics that are not finite")
    env.restore(payload["env"])
    actor.restore(payload["actor"])
    price.mu = mu
    return slot


def run_experiment(
    cfg: ExperimentConfig,
    *,
    out_csv=None,
    tables_out=None,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    resume_from=None,
    fixed_mu: bool = False,
    true_stats: bool = False,
    policy=None,
) -> RunResult:
    """Run one experiment to its horizon and return the metric stream.

    ``policy`` (a flat action-index table) overrides the configured algorithm
    and is followed verbatim. The run's one price starts at ``cfg.mu``; it
    stays there for a fixed policy (``vi``, ``threshold``, ``policy``), and
    ``fixed_mu`` pins it there for learners and the re-planning reference
    too, turning off the constraint ascent (``MultiplierState.fixed``). A
    pinned price need not lie below ``mu_max``. ``true_stats``
    hands the re-planning reference the true statistics instead of estimates.
    Checkpointing saves full run state every ``checkpoint_every`` slots,
    with the three options above (the policy as the sha256 of its int64
    bytes); ``resume_from`` continues such a run under the same config and
    options and reproduces its uninterrupted metric stream exactly.
    """
    if (checkpoint_path is None) != (checkpoint_every is None):
        raise ConfigError("checkpoint_path and checkpoint_every must be given together")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError("checkpoint_every must be at least 1")
    model = cfg.build_model()
    env = cfg.build_env(model)
    if policy is not None:
        actor = PolicyActor(model, policy)
        digest = hashlib.sha256(actor.policy.tobytes()).hexdigest()
    else:
        actor = _build_actor(cfg, model, env, true_stats=true_stats)
        digest = None
    price = cfg.multiplier(fixed=fixed_mu or isinstance(actor, PolicyActor))
    beta = cfg.schedules().beta
    options = {"fixed_mu": bool(fixed_mu), "true_stats": bool(true_stats), "policy_sha256": digest}
    acc = MetricsAccumulator(cfg.horizon)
    start = 0
    if resume_from is not None:
        start = _resume(load_checkpoint(resume_from), cfg, options, price, acc, env, actor)

    # a slot is spent off when the radio is off and told to stay off
    stays_off = (model.action_y == int(PmAction.S_OFF)).tolist()
    x_off, n_x = int(PowerState.OFF), model.n_x
    for n in range(start, cfg.horizon):
        s = env.s
        mu = price.mu  # the price in effect while slot n runs
        a = actor.act(s, n, mu)
        out = env.step(a)
        actor.learn(out, n, mu)
        mu_update(price, out.g_realized, beta(n))
        acc.update(
            power_w=out.power_w,
            g_realized=out.g_realized,
            holding=out.holding,
            drops=out.drops,
            off_slot=(s % n_x == x_off and stays_off[a]),
            mu=mu,
        )
        if checkpoint_every is not None and (n + 1) % checkpoint_every == 0:
            save_checkpoint(
                checkpoint_path,
                {
                    "config": cfg.to_dict(),
                    "options": options,
                    "slot": n + 1,
                    "mu": price.mu,
                    "observations": acc.obs[: n + 1],
                    "env": env.snapshot(),
                    "actor": actor.snapshot(),
                },
            )

    result = RunResult(
        config=cfg, history=acc.history(), tables=actor.tables(), mu_final=price.mu
    )
    if out_csv is not None:
        emit_metrics_csv(result.history, out_csv)
    if tables_out is not None:
        serialize_tables(
            result.tables, tables_out, kind=cfg.algorithm, fingerprint=cfg.model_fingerprint()
        )
    return result


def solve_tables(cfg: ExperimentConfig, method: str = "vi") -> dict:
    """Exact solutions from true statistics, as a named-table bundle: the
    pre-decision table and policy, after the post-decision table for ``pds``."""
    solve = {"vi": value_iteration, "pds": pds_value_iteration}.get(method)
    if solve is None:
        raise ConfigError(f"unknown solve method {method!r}")
    sol = solve(cfg.build_model(), cfg.mu)
    tables = {"v": sol.v, "policy": sol.policy}
    return {"v_tilde": sol.v_tilde, **tables} if method == "pds" else tables
