"""Experiment orchestration: run loops, metrics accounting, persistence.

Every run emits one metrics row per slot. All reported quantities are prefix
means (cumulative sums divided by slot count), except the multiplier, which
is averaged over a sliding 1000-slot window so its transient is visible.
Runs are deterministic given the config (seed included), and a checkpointed
run resumed from disk reproduces the uninterrupted metric stream bit-exactly.

The run loop drives one actor per run, with no adapter around it: the
learners (``QLearner``, ``PdsLearner``), ``PolicyActor`` (the exact policy,
the threshold baseline and replayed tables) and ``SuboptimalActor``. Each
has ``act(s: int) -> int`` (flat state index in, global action index out),
``learn(outcome)`` reading the ``SlotOutcome`` that ``Environment.step``
returned, a ``mu`` property (the price in effect this slot), ``tables()``
(the arrays a finished run reports), and ``snapshot()``/``restore(snap)``,
whose dict holds arrays and JSON values only, so that checkpoints need no
pickle. Inside the loop states and actions are integers; the ``State`` and
``Action`` dataclasses appear only at the edge (the configured start state,
the threshold table, ``model.state_of``).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import zipfile
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .env import Environment, threshold_k_action
from .errors import ConfigError, TableFormatError
from .learners import MultiplierState, PdsLearner, QLearner, mu_update
from .model import JointModel
from .pds import FactoredDynamics, init_pds_values
from .planner import value_iteration
from .power import PmAction, PowerState
from .queueing import ArrivalDistribution

CSV_COLUMNS = (
    "n",
    "cum_cost",
    "cum_power_w",
    "cum_holding",
    "cum_overflow",
    "theta_off",
    "mu_window",
)

MU_WINDOW_SLOTS = 1000


@dataclass(frozen=True)
class MetricsRecord:
    """Running averages as of slot n (0-indexed; divisor is n + 1)."""

    n: int
    cum_cost: float
    cum_power_w: float
    cum_holding: float
    cum_overflow: float
    theta_off: float
    mu_window: float

    def astuple(self) -> tuple:
        return (
            self.n,
            self.cum_cost,
            self.cum_power_w,
            self.cum_holding,
            self.cum_overflow,
            self.theta_off,
            self.mu_window,
        )


class MetricsAccumulator:
    """Prefix sums of per-slot observations.

    ``snapshot`` keeps the counts and float sums as plain numbers (JSON
    round-trips them exactly) and the multiplier window as an array.
    """

    _SCALARS = ("count", "sum_cost", "sum_power", "sum_holding", "sum_overflow", "off_slots")

    def __init__(self, mu_window: int = MU_WINDOW_SLOTS) -> None:
        self.count = 0
        self.sum_cost = 0.0
        self.sum_power = 0.0
        self.sum_holding = 0.0
        self.sum_overflow = 0.0
        self.off_slots = 0
        self._mu_hist: deque = deque(maxlen=mu_window)
        self._mu_wsum = 0.0

    def update(
        self,
        *,
        power_w: float,
        g_realized: float,
        holding: float,
        drops: float,
        off_slot: bool,
        mu: float,
    ) -> MetricsRecord:
        self.count += 1
        self.sum_cost += power_w + mu * g_realized
        self.sum_power += power_w
        self.sum_holding += holding
        self.sum_overflow += drops
        self.off_slots += int(off_slot)
        if len(self._mu_hist) == self._mu_hist.maxlen:
            self._mu_wsum -= self._mu_hist[0]
        self._mu_hist.append(mu)
        self._mu_wsum += mu
        c = self.count
        return MetricsRecord(
            n=c - 1,
            cum_cost=self.sum_cost / c,
            cum_power_w=self.sum_power / c,
            cum_holding=self.sum_holding / c,
            cum_overflow=self.sum_overflow / c,
            theta_off=self.off_slots / c,
            # every mu is >= 0; the running sum can drift a few ulps below
            mu_window=max(0.0, self._mu_wsum / len(self._mu_hist)),
        )

    def snapshot(self) -> dict:
        return {
            **{name: getattr(self, name) for name in self._SCALARS},
            "mu_hist": np.array(self._mu_hist, dtype=np.float64),
            "mu_wsum": self._mu_wsum,
        }

    def restore(self, snap: dict) -> None:
        for name in self._SCALARS:
            setattr(self, name, snap[name])
        self._mu_hist = deque(snap["mu_hist"].tolist(), maxlen=self._mu_hist.maxlen)
        self._mu_wsum = snap["mu_wsum"]


def _row_values(rec) -> tuple:
    if isinstance(rec, MetricsRecord):
        return rec.astuple()
    return tuple(rec)


def metrics_csv_text(history) -> str:
    """Locale-independent decimal text; floats printed shortest-round-trip."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in history:
        vals = _row_values(rec)
        lines.append(
            ",".join([str(int(vals[0]))] + [repr(float(v)) for v in vals[1:]])
        )
    return "\n".join(lines) + "\n"


def emit_metrics_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(metrics_csv_text(history))


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


def _read_npz(path) -> tuple[dict, dict]:
    """JSON header and arrays of an npz file; refuses pickled content."""
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with z:
            arrays = {k: z[k] for k in z.files}
        blob = arrays.pop("__header__", None)
        header = None if blob is None else json.loads(blob.tobytes().decode("utf-8"))
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # pickled data, object arrays, a broken archive or header
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
    np.savez(path, __header__=_header_blob(header), **arrays)


def load_tables(path, *, expect_kind: str | None = None, fingerprint: dict | None = None):
    """Read tables back; refuses kind, shape, or fingerprint mismatches."""
    header, tables = _read_npz(path)
    if header.get("format_version") != TABLE_FORMAT_VERSION:
        raise TableFormatError(f"unsupported format version {header.get('format_version')!r}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise TableFormatError(f"expected kind {expect_kind!r}, found {header.get('kind')!r}")
    dims = header.get("dims", {})
    for name, a in tables.items():
        if list(a.shape) != dims.get(name):
            raise TableFormatError(f"table {name!r} shape {list(a.shape)} != header {dims.get(name)}")
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
    with open(path, "wb") as fh:  # a path would get ".npz" appended
        np.savez(fh, __header__=_header_blob(header), **arrays)


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

    return decode(header.get("payload"))


# ---------------------------------------------------------------------------
# Actors besides the learners (the surface is in the module docstring)
# ---------------------------------------------------------------------------


class PolicyActor:
    """Follows a fixed flat policy; reports a fixed multiplier in metrics."""

    def __init__(self, model: JointModel, policy, mu: float, extra_tables: dict | None = None):
        self.model = model
        self.policy = np.asarray(policy, dtype=np.int64)
        if self.policy.shape != (model.n_s,):
            raise ConfigError(f"policy must have shape ({model.n_s},)")
        self._actions = self.policy.tolist()
        self._mu = float(mu)
        self._extra = dict(extra_tables or {})

    @property
    def mu(self) -> float:
        return self._mu

    def act(self, s: int) -> int:
        return self._actions[s]

    def learn(self, outcome) -> None:
        pass

    def tables(self) -> dict:
        return {"policy": self.policy.copy(), **self._extra}

    def snapshot(self) -> dict:
        return {}

    def restore(self, snap: dict) -> None:
        pass


class SuboptimalActor:
    """Reference that re-plans on empirical statistics every epoch.

    Arrival and channel transition frequencies get add-one smoothing so the
    estimated laws are proper distributions from slot zero. Plans with exact
    value iteration against the estimates (or the true statistics when
    injected), warm-starting each solve from the previous value table.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        model: JointModel,
        multiplier: MultiplierState,
        *,
        true_stats: bool = False,
        solve_tol: float = 1e-6,
    ) -> None:
        self.model = model
        self.epoch = cfg.epoch_slots
        self.schedules = cfg.schedules()
        self.multiplier = multiplier
        self.true_stats = true_stats
        self.solve_tol = solve_tol
        self.n = 0
        self.support = model.arrivals.pmf.size
        self.arrival_counts = np.zeros(self.support, dtype=np.int64)
        self.channel_counts = np.zeros((model.n_h, model.n_h), dtype=np.int64)
        self._v = None
        self._solved_mu = None
        self._solve()

    @property
    def mu(self) -> float:
        return self.multiplier.mu

    def _estimated_model(self) -> JointModel:
        raw_a = (self.arrival_counts + 1).astype(np.float64)
        pmf = raw_a / raw_a.sum()
        raw_p = (self.channel_counts + 1).astype(np.float64)
        p = raw_p / raw_p.sum(axis=1, keepdims=True)
        return (
            self.model.with_arrivals(ArrivalDistribution(pmf))
            .with_channel(p)
            .with_mu(self.multiplier.mu)
        )

    def _solve(self) -> None:
        mu = self.multiplier.mu
        if self.true_stats:
            if self._solved_mu == mu:
                return
            m = self.model.with_mu(mu)
            tol = min(self.solve_tol, 1e-9)
        else:
            m = self._estimated_model()
            tol = self.solve_tol
        self._v, self.policy = value_iteration(m, tol=tol, v0=self._v)
        self._solved_mu = mu

    def act(self, s: int) -> int:
        return int(self.policy[s])

    def learn(self, outcome) -> None:
        _, h, _ = self.model.decode(outcome.s)
        _, h_next, _ = self.model.decode(outcome.s_next)
        self.arrival_counts[min(outcome.l, self.support - 1)] += 1
        self.channel_counts[h, h_next] += 1
        mu_update(self.multiplier, outcome.g_realized, self.schedules.beta(self.n))
        self.n += 1
        if self.n % self.epoch == 0:
            self._solve()

    def tables(self) -> dict:
        return {"v": np.asarray(self._v).copy(), "policy": self.policy.copy()}

    def snapshot(self) -> dict:
        return {
            "arrival_counts": self.arrival_counts.copy(),
            "channel_counts": self.channel_counts.copy(),
            "n": self.n,
            "mu": self.multiplier.mu,
            "v": np.asarray(self._v).copy(),
            "policy": self.policy.copy(),
            "solved_mu": self._solved_mu,
        }

    def restore(self, snap: dict) -> None:
        self.arrival_counts[...] = snap["arrival_counts"]
        self.channel_counts[...] = snap["channel_counts"]
        self.n = snap["n"]
        self.multiplier.mu = snap["mu"]
        self._v = snap["v"].copy()
        self.policy = snap["policy"].copy()
        self._solved_mu = snap["solved_mu"]


def _build_actor(
    cfg: ExperimentConfig,
    model: JointModel,
    env: Environment,
    multiplier: MultiplierState,
    *,
    true_stats: bool,
):
    alg = cfg.algorithm
    if alg == "vi":
        v, policy = value_iteration(model)
        return PolicyActor(model, policy, cfg.mu, {"v": v})
    if alg == "threshold":
        k = cfg.threshold_k
        table = [
            model.action_index[threshold_k_action(model.state_of(i), k, model, cfg.fixed_plr)]
            for i in range(model.n_s)
        ]
        return PolicyActor(model, table, cfg.mu, {"threshold_k": np.asarray(k, dtype=np.int64)})
    if alg == "q":
        return QLearner(model, cfg.schedules(), multiplier, env.streams.exploration)
    if alg in ("pds", "pds_ve"):
        factored = FactoredDynamics(model)
        v0 = init_pds_values(factored, cfg.init_arrivals(), mu_init=cfg.init_mu)
        period = cfg.ve_period if alg == "pds_ve" else None
        return PdsLearner(factored, v0, cfg.schedules(), multiplier, period)
    if alg == "suboptimal":
        return SuboptimalActor(cfg, model, multiplier, true_stats=true_stats)
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
        row = self.history[n]
        return MetricsRecord(int(row[0]), *(float(v) for v in row[1:]))

    @property
    def final(self) -> MetricsRecord:
        return self.record_at(-1)

    def column(self, name: str) -> np.ndarray:
        return self.history[:, CSV_COLUMNS.index(name)]

    def csv_text(self) -> str:
        return metrics_csv_text(self.history)


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
    and is followed verbatim. ``fixed_mu`` pins the multiplier at its starting
    value for learners and the re-planning reference, turning off the
    constraint ascent (``MultiplierState.fixed``). ``true_stats``
    hands the re-planning reference the true statistics instead of estimates.
    Checkpointing saves full run state every ``checkpoint_every`` slots;
    ``resume_from`` continues such a run and reproduces its uninterrupted
    metric stream exactly.
    """
    model = cfg.build_model()
    env = cfg.build_env(model)
    if policy is not None:
        actor = PolicyActor(model, policy, cfg.mu)
    else:
        multiplier = dataclasses.replace(cfg.multiplier(), fixed=fixed_mu)
        actor = _build_actor(cfg, model, env, multiplier, true_stats=true_stats)
    acc = MetricsAccumulator()
    history = np.empty((cfg.horizon, len(CSV_COLUMNS)), dtype=np.float64)
    start = 0
    if resume_from is not None:
        payload = load_checkpoint(resume_from)
        # compared as canonical JSON: the config's tuples come back as lists
        if fingerprint_digest(payload["config"]) != fingerprint_digest(cfg.to_dict()):
            raise ConfigError("checkpoint was produced by a different config")
        start = payload["slot"]
        history[:start] = payload["history"]
        acc.restore(payload["acc"])
        env.restore(payload["env"])
        actor.restore(payload["actor"])

    # a slot is spent off when the radio is off and told to stay off
    stays_off = (model.action_y == int(PmAction.S_OFF)).tolist()
    x_off = int(PowerState.OFF)
    for n in range(start, cfg.horizon):
        s = env.s
        a = actor.act(s)
        mu_n = actor.mu  # price in effect while this slot runs
        out = env.step(a)
        actor.learn(out)
        rec = acc.update(
            power_w=out.power_w,
            g_realized=out.g_realized,
            holding=out.holding,
            drops=out.drops,
            off_slot=(model.decode(s)[2] == x_off and stays_off[a]),
            mu=mu_n,
        )
        history[n] = rec.astuple()
        if (
            checkpoint_path is not None
            and checkpoint_every is not None
            and (n + 1) % checkpoint_every == 0
        ):
            save_checkpoint(
                checkpoint_path,
                {
                    "config": cfg.to_dict(),
                    "slot": n + 1,
                    "history": history[: n + 1],
                    "acc": acc.snapshot(),
                    "env": env.snapshot(),
                    "actor": actor.snapshot(),
                },
            )

    result = RunResult(config=cfg, history=history, tables=actor.tables(), mu_final=actor.mu)
    if out_csv is not None:
        emit_metrics_csv(history, out_csv)
    if tables_out is not None:
        serialize_tables(
            result.tables, tables_out, kind=cfg.algorithm, fingerprint=cfg.model_fingerprint()
        )
    return result


def solve_tables(cfg: ExperimentConfig, method: str = "vi") -> dict:
    """Exact solutions from true statistics, as a named-table bundle."""
    model = cfg.build_model()
    if method == "vi":
        v, policy = value_iteration(model)
        return {"v": v, "policy": policy}
    if method == "pds":
        from .pds import pds_value_iteration, policy_from_pds

        factored = FactoredDynamics(model)
        v_tilde, v = pds_value_iteration(factored)
        policy = policy_from_pds(v_tilde, factored)
        return {"v_tilde": v_tilde, "v": v.reshape(model.n_s), "policy": policy}
    raise ConfigError(f"unknown solve method {method!r}")
