"""Workloads, result checks and reports of the greentx benchmark.

Every workload drives the user's entry point, ``greentx.cli.main(argv)``,
in this process, closed loop: the next call starts when the previous one
returns. ``run.py`` pins BLAS to one thread before numpy loads and makes
the checkout's ``src/`` importable; this module does the measuring.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from tracer import SLOT_SPANS, Tracer, profile

CSV_HEADER = "n,cum_cost,cum_power_w,cum_holding,cum_overflow,theta_off,mu_window"
MIN_REPS = 3
REF_SAMPLES = 3  # reference kernel runs after each rep
PLAN_BUILDS_PER_REP = 5
MU_ROUNDING = 1e-9  # share of mu_max that mu_window may leave its range by


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI words before the common options
    horizon: int  # slots per call; 0 for the planning workload
    tables: bool = False  # also write and check --tables-out

    @property
    def runs_slots(self) -> bool:
        return self.horizon > 0


# Short horizons give a run many calls to take the median of (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn_pds", ("learn", "--algorithm", "pds-ve", "--ve-period", "1"), 1000, True),
        Workload("learn_q", ("learn", "--algorithm", "q"), 3000, True),
        Workload("plan", ("solve",), 0),
        Workload("replan", ("suboptimal",), 200),
    )
}

# (name, unit) of every metric a workload can print; the gated ones are the
# first three, which every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_raw_s", "s"),
    ("wall_raw_s", "s"),
    ("ref_s", "s"),
    ("slots_per_s", "1/s"),
    ("solve_vi_s", "s"),
    ("solve_pds_s", "s"),
    ("power_w", "W"),
    ("holding_excess", "pkts"),
    ("fail_ratio", "ratio"),
)
GATED = ("setup_s", "wall_s", "peak_rss_mb")

PER_LAYER = (
    ("model.builds", "count"),
    ("model.build_ms", "ms"),
    ("planner.vi_calls", "count"),
    ("planner.vi_sweeps", "count"),
    ("planner.sweep_us", "us"),
    ("pds.fp_calls", "count"),
    ("pds.fp_s", "s"),
    ("pds.init_s", "s"),
    ("pds.slice_per_slot", "count"),
    ("pds.slice_us", "us"),
    ("learners.act_us", "us"),
    ("learners.learn_us", "us"),
    ("learners.entries_per_slot", "count"),
    ("env.step_us", "us"),
    ("harness.metrics_us", "us"),
    ("harness.loop_other_us", "us"),
    ("harness.csv_s", "s"),
    ("harness.tables_s", "s"),
    ("harness.slot_p50_us", "us"),
    ("harness.slot_p99_us", "us"),
    ("harness.slot_max_us", "us"),
    ("harness.slot_samples", "count"),
    ("trace.overhead", "ratio"),
)


class Checks:
    """Counts result checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def call_cli(argv: list) -> tuple[float, str | None]:
    """Time one in-process CLI call; returns (seconds, error or None)."""
    from greentx import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crashing call is a failed check, not a crashed run
        traceback.print_exc()
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, None if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()[-300:]}"


def sub_seed(seed: int, rep: int) -> int:
    """Seed of the rep-th call of a run; runs with distinct seeds never share one."""
    return seed * 1000 + rep


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Bench:
    """One workload, one seed, in a scratch directory inside the checkout."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        from greentx import table_profile

        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.checks = Checks()
        self.csv_sha256: dict[int, str] = {}
        self.mu_rounding: list = []  # (seed, rows, largest excursion) per CSV
        self.ref_parts: dict = {}  # median time of each reference kernel part
        # plan solves at mu = 1: at the stock mu = 0 VI converges in 2 sweeps
        self.cfg = table_profile() if workload.runs_slots else table_profile(mu=1.0)
        self.fingerprint = self.cfg.model_fingerprint()
        self.config_path = workdir / "plan_config.json"
        if not workload.runs_slots:
            self.cfg.save(self.config_path)

    # ---- one call and its checks -------------------------------------------

    def call(self, seed: int, horizon: int, tag: str):
        """One entry-point call with its checks; returns (wall, outputs or None)."""
        if self.wl.runs_slots:
            return self._run_call(seed, horizon, tag)
        return self._plan_call(seed, tag)

    def _run_call(self, seed: int, horizon: int, tag: str):
        csv = self.dir / f"{tag}.csv"
        npz = self.dir / f"{tag}.npz"
        argv = [*self.wl.command, "--seed", str(seed), "--horizon", str(horizon), "--out", str(csv)]
        if self.wl.tables:
            argv += ["--tables-out", str(npz)]
        wall, err = call_cli(argv)
        if not self.checks.check(err is None, f"{self.wl.name} seed {seed}: {err}"):
            return wall, None
        data = csv.read_bytes()
        final = self._check_csv(data, horizon, seed)
        if self.wl.tables:
            self._check_tables(npz, seed)
        return wall, (data, final)

    def _check_csv(self, data: bytes, horizon: int, seed: int):
        what = f"{self.wl.name} seed {seed} csv"
        n_rows = data.count(b"\n") - 1
        if not self.checks.check(
            data.startswith(f"{CSV_HEADER}\n".encode()) and n_rows == horizon,
            f"{what}: {n_rows} rows (want {horizon}) or bad header",
        ):
            return None
        try:
            rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            self.checks.check(False, f"{what}: unparsable ({exc})")
            return None
        self.checks.check(bool(np.isfinite(rows).all()), f"{what}: non-finite values")
        self.checks.check(
            bool(np.array_equal(rows[:, 0], np.arange(horizon))), f"{what}: slot column"
        )
        # mu_window is a running-sum window mean, so it may leave [0, mu_max]
        # by rounding; that is counted apart, anything larger is a failure.
        mu, mu_max = rows[:, 6], self.cfg.mu_max
        excess = np.maximum(-mu, mu - mu_max)
        self.checks.check(
            bool(excess.max() <= MU_ROUNDING * mu_max),
            f"{what}: mu_window leaves [0, {mu_max}] by {excess.max()!r}",
        )
        if excess.max() > 0.0:
            self.mu_rounding.append((seed, int((excess > 0.0).sum()), float(excess.max())))
        if horizon == self.wl.horizon:
            self.csv_sha256.setdefault(seed, hashlib.sha256(data).hexdigest())
        return rows[-1]

    def _load(self, path: Path, what: str):
        from greentx import TableFormatError, load_tables

        try:
            tables, _ = load_tables(path, fingerprint=self.fingerprint)
        except (TableFormatError, OSError, ValueError) as exc:
            self.checks.check(False, f"{what}: reload failed ({exc})")
            return None
        finite = all(
            np.isfinite(a).all() for a in tables.values() if np.issubdtype(a.dtype, np.floating)
        )
        self.checks.check(finite, f"{what}: non-finite table")
        return tables

    def _check_tables(self, npz: Path, seed: int) -> None:
        self.checks.check(
            self._load(npz, f"{self.wl.name} seed {seed} tables") is not None,
            f"{self.wl.name} seed {seed}: tables not reloadable",
        )

    def _plan_call(self, seed: int, tag: str):
        """Both exact solves; checks that they agree and that both tables reload."""
        walls = {}
        tables = {}
        for method in ("vi", "pds"):
            out = self.dir / f"{tag}_{method}.npz"
            argv = [*self.wl.command, "--method", method, "--config", str(self.config_path),
                    "--seed", str(seed), "--out", str(out)]
            walls[method], err = call_cli(argv)
            if self.checks.check(err is None, f"plan {method}: {err}"):
                tables[method] = self._load(out, f"plan {method} tables")
        wall = walls["vi"] + walls["pds"]
        vi, pds = tables.get("vi"), tables.get("pds")
        if vi is None or pds is None:
            return wall, None
        self.checks.check(
            np.array_equal(vi["policy"], pds["policy"]), "plan: VI and PDS policies differ"
        )
        tol = 1e-9 / (1.0 - self.cfg.gamma)  # the solvers' default tolerance
        gap = float(np.max(np.abs(vi["v"] - pds["v"])))
        self.checks.check(gap <= tol, f"plan: max|v_vi - v_pds| = {gap!r} > {tol!r}")
        return wall, (walls, vi, pds)

    def setup_time(self, seed: int) -> list[float]:
        """Config to first slot (a 1-slot call) or to first sweep (model build)."""
        if self.wl.runs_slots:
            wall, _ = self.call(seed, 1, "setup")
            return [wall]
        from greentx import ExperimentConfig

        out = []
        for _ in range(PLAN_BUILDS_PER_REP):
            t0 = time.perf_counter()
            ExperimentConfig.load(self.config_path).build_model()
            out.append(time.perf_counter() - t0)
        return out

    # ---- the two kinds of run ----------------------------------------------

    def untraced(self, seconds: float) -> tuple[dict, int]:
        deadline = time.perf_counter() + seconds
        self.setup_time(sub_seed(self.seed, 999))  # warm-up, not timed
        refs = []
        setup, wall, vi, pds, finals = [], [], [], [], []
        for rep in _reps(deadline):
            seed = sub_seed(self.seed, rep)
            setup += self.setup_time(seed)
            w, out = self.call(seed, self.wl.horizon, "main")
            wall.append(w)
            if rep == 0:
                # after one full call: later calls only add heap fragmentation,
                # which would grow with the number of calls a run fits in
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if out is not None and self.wl.runs_slots and out[1] is not None:
                finals.append(out[1])
            elif out is not None and not self.wl.runs_slots:
                vi.append(out[0]["vi"])
                pds.append(out[0]["pds"])
            refs += [reference.measure() for _ in range(REF_SAMPLES)]
        # Gated times are the run's medians scaled to the machine's nominal
        # speed by the reference kernel timed between reps (see reference.py).
        ref = median([sum(r) for r in refs])
        scale = reference.NOMINAL_S / ref
        m = {
            "setup_s": median(setup) * scale,
            "wall_s": median(wall) * scale,
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_raw_s": median(setup),
            "wall_raw_s": median(wall),
            "ref_s": ref,
        }
        if self.wl.runs_slots:
            m["slots_per_s"] = self.wl.horizon / (m["wall_s"] - m["setup_s"])
            m["power_w"] = median([f[2] for f in finals])
            m["holding_excess"] = median([max(0.0, f[3] - self.cfg.g_bar) for f in finals])
        else:
            m["solve_vi_s"] = median(vi) * scale
            m["solve_pds_s"] = median(pds) * scale
        m["fail_ratio"] = self.checks.failed / max(self.checks.attempted, 1)
        self.ref_parts = {p: median([r[i] for r in refs]) for i, p in enumerate(reference.PARTS)}
        return m, len(wall)

    def traced(self, seconds: float, tracer: Tracer) -> tuple[dict, int]:
        """Alternate untraced and traced calls on the same seed."""
        deadline = time.perf_counter() + seconds
        self.setup_time(sub_seed(self.seed, 999))  # warm-up, not timed
        profiles, entries, ratios = [], 0, []
        for rep in _reps(deadline):
            seed = sub_seed(self.seed, rep)
            result = {}
            for traced in ((False, True) if rep % 2 == 0 else (True, False)):
                if traced:
                    tracer.clear()
                    with tracer:
                        result[traced] = self.call(seed, self.wl.horizon, "traced")
                    profiles.append(profile(tracer.spans))
                    entries += tracer.entries
                else:
                    result[traced] = self.call(seed, self.wl.horizon, "untraced")
            ratios.append(result[True][0] / result[False][0])
            self.checks.check(
                _same_outputs(result[False][1], result[True][1]),
                f"{self.wl.name} seed {seed}: traced output differs from untraced",
            )
        tracer.clear()
        reps = len(ratios)
        return layer_metrics(profiles, entries, reps, self.wl.horizon, ratios), reps


def _reps(deadline: float):
    """Rep numbers while the next rep, as long as the last, ends by the deadline."""
    rep, last = 0, 0.0
    while rep < MIN_REPS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        yield rep
        last = time.perf_counter() - t0
        rep += 1


def _same_outputs(a, b) -> bool:
    if a is None or b is None:
        return False
    if isinstance(a[0], bytes):  # run workloads: CSV bytes
        return a[0] == b[0]
    return all(  # plan: every table of both solves
        set(x) == set(y) and all(np.array_equal(x[k], y[k]) for k in x)
        for x, y in ((a[1], b[1]), (a[2], b[2]))
    )


def layer_metrics(profiles, entries: int, reps: int, horizon: int, ratios) -> dict:
    def total(field, name):
        return sum(getattr(p, field).get(name, 0) for p in profiles)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    slot_s = [d for p in profiles for d in p.slot_s]
    slots = len(slot_s)  # complete slots: every per-slot figure divides by this
    vi_calls = total("calls", "planner.vi")
    sweeps = sum(p.sweeps for p in profiles)
    us = 1e6
    m = {
        "model.builds": ratio(total("calls", "model.build"), reps),
        "model.build_ms": ratio(total("incl_s", "model.build"), total("calls", "model.build"), 1e3),
        "planner.vi_calls": ratio(vi_calls, reps),
        "planner.vi_sweeps": ratio(sweeps, vi_calls),
        "planner.sweep_us": ratio(total("self_s", "planner.vi"), sweeps, us),
        "pds.fp_calls": ratio(total("calls", "pds.fp"), reps),
        "pds.fp_s": ratio(total("incl_s", "pds.fp"), total("calls", "pds.fp")),
        "pds.init_s": ratio(total("incl_s", "pds.init"), total("calls", "pds.init")),
        "pds.slice_per_slot": ratio(total("slot_calls", "pds.slice"), slots),
        "pds.slice_us": ratio(total("self_s", "pds.slice"), total("calls", "pds.slice"), us),
        "learners.act_us": ratio(total("slot_self_s", "learners.act"), slots, us),
        "learners.learn_us": ratio(total("slot_self_s", "learners.learn"), slots, us),
        "learners.entries_per_slot": ratio(entries, horizon * reps),
        "env.step_us": ratio(total("slot_self_s", "env.step"), slots, us),
        "harness.metrics_us": ratio(total("slot_self_s", "harness.metrics"), slots, us),
        "harness.loop_other_us": ratio(sum(p.slot_other_s for p in profiles), slots, us),
        "harness.csv_s": ratio(total("incl_s", "harness.csv"), total("calls", "harness.csv")),
        "harness.tables_s": ratio(total("incl_s", "harness.tables"), total("calls", "harness.tables")),
        "harness.slot_p50_us": float(np.percentile(slot_s, 50)) * us if slot_s else 0.0,
        "harness.slot_p99_us": float(np.percentile(slot_s, 99)) * us if slot_s else 0.0,
        "harness.slot_max_us": max(slot_s) * us if slot_s else 0.0,
        "harness.slot_samples": slots,
        "trace.overhead": median(ratios),
    }
    # Slot accounting, printed beside the metrics: the mean complete slot
    # against the self times of every span inside it plus loop_other.
    nested = {k for p in profiles for k in p.slot_self_s} - set(SLOT_SPANS)
    m["_slot_mean_us"] = ratio(sum(slot_s), slots, us)
    m["_slot_nested_us"] = ratio(sum(total("slot_self_s", n) for n in nested), slots, us)
    return m


# ---------------------------------------------------------------------------
# Environment record and output
# ---------------------------------------------------------------------------


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "greentx").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }


def _emit(name: str, value: float, unit: str) -> None:
    print(f"{name:<27} {value:>14.6g} {unit}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="greentx benchmark: one workload per process")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, root: Path, workloads=WORKLOADS, tracer_factory=Tracer) -> int:
    args = parse_args(argv)
    wl = workloads[args.workload]
    scratch_parent = root / ".perfbench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_parent))
    tracer = tracer_factory()
    try:
        bench = Bench(wl, args.seed, workdir)
        if args.trace:
            metrics, reps = bench.traced(args.seconds, tracer)
        else:
            metrics, reps = bench.untraced(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_parent.rmdir()
    checks = bench.checks

    print(f"# greentx benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} calls={reps}")
    if args.trace:
        for name, unit in PER_LAYER:
            _emit(name, metrics[name], unit)
        parts = ("learners.act_us", "env.step_us", "learners.learn_us", "harness.metrics_us",
                 "harness.loop_other_us", "_slot_nested_us")
        print(f"# slot accounting: mean slot {metrics['_slot_mean_us']:.2f} us = "
              + " + ".join(f"{metrics[k]:.2f}" for k in parts)
              + " (act, step, learn, metrics, loop_other, self time of spans nested in them)")
        result = {name: metrics[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        for name, unit in END_TO_END:
            if name in metrics:
                _emit(name, metrics[name], unit)
        result = {name: metrics[name] for name in GATED}
        units = dict(END_TO_END)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "calls": reps,
        "environment": environment(root),
        "absent": tracer.absent,
        "no_sweep_hook": tracer.no_sweep_hook,
        "csv_sha256": {str(k): v for k, v in sorted(bench.csv_sha256.items())},
        "failures": checks.messages,
        "mu_window_rounding": bench.mu_rounding,
        "ref_parts_s": bench.ref_parts,
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }))
    sys.stdout.flush()
    return 0
