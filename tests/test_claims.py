"""The paper's claims about its learners, as checks.

(i) The learners need no a-priori arrival or channel statistics: a learner
built on a model whose statistics are wrong runs byte for byte as the stock
one, and the post-decision learners draw no exploration at all.
(ii) The post-decision learner learns a smaller table than Q-learning: one
value per post-decision state against one per (state, action) pair.
"""
import hashlib

import numpy as np
import pytest

from greentx import harness
from greentx.config import reduced_profile, table_profile
from greentx.env import RngStreams
from greentx.harness import load_checkpoint, run_experiment
from greentx.learners import QLearner
from greentx.pds import FactoredDynamics
from greentx.queueing import ArrivalDistribution
from oracles import feasible_sa

HORIZON, SEED = 3000, 3

# the learners at the horizon where both the batch (every slot, and every
# fifth) and the single-entry update paths run
LEARNERS = [
    dict(algorithm="q"),
    dict(algorithm="pds"),
    dict(algorithm="pds_ve", ve_period=1),
    dict(algorithm="pds_ve", ve_period=5),
]


def _blind(model):
    """The same plant with statistics that are wrong: 7 packets every slot
    and a channel that jumps anywhere with equal odds."""
    uniform = np.full((model.n_h, model.n_h), 1.0 / model.n_h)
    return model.with_statistics(ArrivalDistribution.deterministic(7), uniform)


def _digests(result) -> dict:
    """sha256 of a run's CSV and of each of its tables' bytes: two runs'
    outputs compare byte for byte, and a mismatch prints short."""
    out = {"csv": hashlib.sha256(result.csv_text().encode()).hexdigest()}
    for name, table in result.tables.items():
        out[name] = hashlib.sha256(table.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("kw", LEARNERS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_a_learner_on_wrong_statistics_runs_as_the_stock_one(kw, monkeypatch):
    # claim (i): only the offline start table reads statistics, its own
    # assumed ones, so it is left as it is
    cfg = reduced_profile(horizon=HORIZON, seed=SEED, **kw)
    stock = run_experiment(cfg)
    blinded = []

    def blind_model(model):
        blinded.append(model)
        return _blind(model)

    monkeypatch.setattr(harness, "FactoredDynamics", lambda model: FactoredDynamics(blind_model(model)))
    monkeypatch.setattr(harness, "QLearner", lambda model, *args: QLearner(blind_model(model), *args))
    blind = run_experiment(cfg)
    assert len(blinded) == 1
    assert _digests(blind) == _digests(stock)


@pytest.mark.parametrize("kw", LEARNERS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_only_q_learning_draws_from_the_exploration_stream(kw, tmp_path):
    cfg = reduced_profile(horizon=HORIZON, seed=SEED, **kw)
    ck = tmp_path / "run.ckpt"
    run_experiment(cfg, checkpoint_path=ck, checkpoint_every=HORIZON)
    at_horizon = load_checkpoint(ck)["env"]["streams"]["exploration"]
    seeded = RngStreams.from_seed(SEED).exploration.bit_generator.state
    assert (at_horizon == seeded) == (kw["algorithm"] != "q")


def test_the_post_decision_table_is_smaller_than_the_q_table(full_model):
    # claim (ii), at the stock profile's sizes, read off each learner's own table
    pds = run_experiment(table_profile(algorithm="pds", horizon=1)).tables["v_tilde"]
    q = run_experiment(table_profile(algorithm="q", horizon=1)).tables["q"]
    assert (pds.size, q.shape) == (416, (416, 52))
    assert q.size == 21632 and int(feasible_sa(full_model).sum()) == 9032
