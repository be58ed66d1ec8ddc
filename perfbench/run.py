"""Run one greentx benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload learn_pds --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
beside this file for the workloads and metrics.
"""
import os
import sys
from pathlib import Path

# BLAS reads its thread count when numpy loads, so pin it before any import
# that pulls numpy in.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_checkout_package() -> None:
    """Make the checkout's greentx importable, and only that one."""
    if not (SRC / "greentx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no greentx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import greentx

    if Path(greentx.__file__).resolve().parent != (SRC / "greentx").resolve():
        raise SystemExit(f"perfbench: imported greentx from {greentx.__file__}, not {SRC}")


if __name__ == "__main__":
    import_checkout_package()
    import bench

    sys.exit(bench.main(sys.argv[1:], ROOT))
