"""Byte-stability gate: one sha256 line per run of a fixed config set.

Runs the stock profile on the gate configs and prints, for each, the
sha256 of its metric CSV and of its tables. Run it on two checkouts and
compare the outputs line by line; a change that must not move any result
prints the same lines as its parent.

- ``pds_ve`` at periods 1 and 50 and ``pds`` at seeds 0-4 over 10k slots;
  ``suboptimal`` and ``vi`` at seeds 0-1 over 2k; ``q`` at seed 24005 over
  20k; ``threshold`` k=3 at seeds 0-1 over 10k;
- one MMPP-arrival ``pds_ve`` run and one perturbed-channel ``q`` run;
- checkpoint/resume of ``pds_ve``, ``q`` and ``suboptimal`` at two cut
  points each. A resumed run must equal its uninterrupted run, else the
  script exits with status 1.

The tables digest is that of the npz file ``serialize_tables`` writes,
header (kind and model fingerprint) included.

Before the runs, stderr gets one line naming numpy's BLAS build and the
OpenBLAS kernel picked at run time (``OPENBLAS_CORETYPE`` overrides it), so
two digest runs say whether they are comparable; stdout holds only the
digest lines. The ``csv=`` fields are expected to hold across kernels; the
``tables=`` fields differ in their last bits and hold on one kernel only.

Usage (from the root of a checkout):
    PYTHONPATH=src python scripts/gate_digests.py > digests.txt
    PYTHONPATH=src python scripts/gate_digests.py --max-horizon 1000  # smoke run
"""
import argparse
import ctypes
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from greentx.config import table_profile
from greentx.harness import run_experiment, serialize_tables


def gate_configs(max_horizon):
    """(label, config overrides) of every gate run, horizons capped."""
    runs = []
    for seed in range(5):
        runs.append((f"pds_ve-p1-s{seed}", dict(algorithm="pds_ve", ve_period=1, seed=seed, horizon=10_000)))
        runs.append((f"pds_ve-p50-s{seed}", dict(algorithm="pds_ve", ve_period=50, seed=seed, horizon=10_000)))
        runs.append((f"pds-s{seed}", dict(algorithm="pds", seed=seed, horizon=10_000)))
    for seed in range(2):
        runs.append((f"suboptimal-s{seed}", dict(algorithm="suboptimal", seed=seed, horizon=2_000)))
        runs.append((f"vi-s{seed}", dict(algorithm="vi", seed=seed, horizon=2_000)))
    runs.append(("q-s24005", dict(algorithm="q", seed=24005, horizon=20_000)))
    for seed in range(2):
        runs.append((f"threshold-k3-s{seed}", dict(algorithm="threshold", threshold_k=3, seed=seed, horizon=10_000)))
    runs.append(("pds_ve-mmpp-s0", dict(algorithm="pds_ve", arrival_mode="mmpp", seed=0, horizon=10_000)))
    runs.append((
        "q-perturbed-s0",
        dict(algorithm="q", channel_mode="perturbed", perturb_magnitude=0.05, seed=0, horizon=10_000),
    ))
    return [(label, {**kw, "horizon": min(kw["horizon"], max_horizon)}) for label, kw in runs]


def blas_info() -> str:
    """numpy's BLAS build and the OpenBLAS kernel in use, each "unknown"
    where this numpy does not say: the kernel is read off the bundled
    scipy-openblas library, if there is one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        build = "unknown"
    core = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    return f"blas: {build}, kernel: {core}"


def digests(result, path: Path) -> tuple[str, str]:
    cfg = result.config
    serialize_tables(result.tables, path, kind=cfg.algorithm, fingerprint=cfg.model_fingerprint())
    return (
        hashlib.sha256(result.csv_text().encode("utf-8")).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-horizon", type=int, default=20_000, help="cap on every run's slots")
    args = ap.parse_args(argv)
    print(blas_info(), file=sys.stderr, flush=True)

    ok = True
    horizon = min(2_000, args.max_horizon)
    with tempfile.TemporaryDirectory() as tmp:
        tables, ck = Path(tmp) / "tables.npz", Path(tmp) / "run.ckpt"
        for label, kw in gate_configs(args.max_horizon):
            csv_sha, tables_sha = digests(run_experiment(table_profile(**kw)), tables)
            print(f"{label} csv={csv_sha} tables={tables_sha}", flush=True)

        for alg in ("pds_ve", "q", "suboptimal"):
            cfg = table_profile(algorithm=alg, seed=1, horizon=horizon)
            full = digests(run_experiment(cfg), tables)
            # the last checkpoint lands at the largest multiple below the horizon
            for every in (max(1, horizon * 7 // 20), max(1, horizon * 17 // 20)):
                run_experiment(cfg, checkpoint_path=ck, checkpoint_every=every)
                cut = (horizon - 1) // every * every
                resumed = digests(run_experiment(cfg, resume_from=ck), tables)
                print(f"resume-{alg}-at{cut} csv={resumed[0]} tables={resumed[1]}", flush=True)
                if resumed != full:
                    print(f"resume-{alg}-at{cut}: differs from the uninterrupted run", file=sys.stderr)
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
