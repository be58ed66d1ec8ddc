"""The benchmark's tracer still finds the run loop's per-slot names.

``perfbench/tracer.py`` wraps package functions by name and reports a name
it cannot resolve as absent, so that its per-layer metric reads 0 instead
of failing. These tests read the tracer's target list and change nothing
in ``perfbench/``.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from greentx.config import reduced_profile
from greentx.harness import run_experiment

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the per-slot names of the environment, the learners, the re-planning
# reference and the metrics, and the PDS slice that a batch slot reads
SLOT_NAMES = (
    "Environment.step",
    "QLearner.act",
    "QLearner.learn",
    "q_update",
    "PdsLearner.act",
    "PdsLearner.learn",
    "SuboptimalActor.act",
    "SuboptimalActor.learn",
    "ve_batch_update",
    "pds_update",
    "FactoredDynamics.state_values_slice",
    "MetricsAccumulator.update",
)

# the set-up names: the model build and the exact solves
SETUP_NAMES = (
    "JointModel.__init__",
    "value_iteration",
    "pds_value_iteration",
    "init_pds_values",
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    yield module
    del sys.modules[spec.name]


def _assert_resolved(tracer, names):
    targets = [t for t in tracer.TARGETS if t.qualname in names]
    assert sorted(t.qualname for t in targets) == sorted(names)
    tr = tracer.Tracer(targets)
    tr.install()
    try:
        assert tr.absent == []
    finally:
        tr.restore()


def test_slot_names_resolve_to_callables(tracer):
    _assert_resolved(tracer, SLOT_NAMES)


def test_setup_names_resolve_to_callables(tracer):
    _assert_resolved(tracer, SETUP_NAMES)


def test_q_run_counts_one_backup_per_slot(tracer):
    cfg = reduced_profile(algorithm="q", horizon=40, seed=1)
    with tracer.Tracer() as tr:
        run_experiment(cfg)
    assert tr.entries == cfg.horizon
    names = {row[0] for row in tr.spans}
    assert {"env.step", "learners.act", "learners.learn", "harness.metrics"} <= names


@pytest.mark.parametrize("algorithm", ["pds_ve", "pds"])
def test_pds_run_counts_the_entries_each_slot_writes(tracer, algorithm):
    # ve_period 1: every slot is a batch slot and writes all n_b * n_x entries
    cfg = reduced_profile(algorithm=algorithm, ve_period=1, horizon=40, seed=1)
    model = cfg.build_model()
    with tracer.Tracer() as tr:
        run_experiment(cfg)
    assert tr.absent == []
    per_slot = model.n_b * model.n_x if algorithm == "pds_ve" else 1
    assert tr.entries == cfg.horizon * per_slot
    names = {row[0] for row in tr.spans}
    assert {"env.step", "learners.act", "learners.learn", "harness.metrics"} <= names
    # the start table is one offline solve; every batch slot (period 1) reads one slice
    spans = [row[0] for row in tr.spans]
    assert spans.count("pds.init") == 1 and spans.count("pds.fp") == 1
    assert spans.count("pds.slice") == (cfg.horizon if algorithm == "pds_ve" else 0)


def test_suboptimal_run_traces_each_slot_and_each_solve(tracer):
    cfg = reduced_profile(algorithm="suboptimal", epoch_slots=15, horizon=40, seed=1)
    with tracer.Tracer() as tr:
        run_experiment(cfg)
    assert tr.absent == []
    spans = [row[0] for row in tr.spans]
    assert spans.count("learners.act") == spans.count("learners.learn") == cfg.horizon
    # one build; the solve at start and one per epoch run on clones of it
    assert spans.count("model.build") == 1
    assert spans.count("planner.vi") == 1 + cfg.horizon // cfg.epoch_slots


def test_the_tracer_finds_value_iterations_sweep_hook(tracer):
    # the sweep count is read off value_iteration's residuals parameter, found by name
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.no_sweep_hook == []
    finally:
        tr.restore()


def test_every_traced_solve_records_its_sweeps(tracer):
    cfg = reduced_profile(algorithm="suboptimal", epoch_slots=15, horizon=40, seed=1)
    with tracer.Tracer() as tr:
        run_experiment(cfg)
    sweeps = [row[4] for row in tr.spans if row[0] == "planner.vi"]
    assert len(sweeps) == 1 + cfg.horizon // cfg.epoch_slots
    assert all(n > 0 for n in sweeps)
