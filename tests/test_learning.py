"""The game learns: a tiny config, trained from scratch, beats chance.

The config is the toy world's (1-object scenes, world seed 7) at K = 4,
``t_max`` 4 and d_e = d_o = 32, one replica of 8 targets with
standardized advantages, for 1,000 steps. Chance is 1 / K = 0.25. A run
passes when its mean reward over the last 100 steps and its greedy
top-1 over 500 val rounds are both at least 0.40. The bounds hold the
run to learning, not to bits, so they must hold wherever float32
round-off differs.

Train seed 2024 runs in tier-1 (about 3 s on one core); seeds 1 to 5
and the default-advantage twin are slow-marked and run with
``--run-slow``. A failure prints the greedy length and the number of
distinct greedy messages over the val scenes, so that a pass on a
collapsed code would be visible too.
"""

import numpy as np
import pytest

from lewisgame.config import RunConfig
from lewisgame.evaluate import evaluate_agents

STEPS = 1000
REWARD_WINDOW = 100
EVAL_ROUNDS = 500
FLOOR = 0.40


def _tiny_config(seed: int, standardize: bool) -> RunConfig:
    cfg = RunConfig()
    cfg.world.min_objects = cfg.world.max_objects = 1
    cfg.game.k, cfg.game.t_max = 4, 4
    cfg.model.d_e = cfg.model.d_o = 32
    cfg.train.seed = seed
    cfg.train.replicas, cfg.train.targets_per_replica = 1, 8
    cfg.train.standardize_advantages = standardize
    return cfg


def _check_learns(seed: int, standardize: bool = True) -> None:
    cfg = _tiny_config(seed, standardize)
    splits = cfg.world_splits()
    trainer = cfg.trainer(splits["train"])
    reports = trainer.run(STEPS)
    reward = float(np.mean([r.mean_reward
                            for r in reports[-REWARD_WINDOW:]]))
    report = evaluate_agents(trainer.speaker, trainer.listener,
                             splits["val"], k=cfg.game.k,
                             n_rounds=EVAL_ROUNDS, t_max=cfg.game.t_max,
                             seed=cfg.eval.seed)
    greedy, _ = trainer.speaker.sample(splits["val"].model_inputs(),
                                       cfg.game.t_max, 1, None)
    seen = (f"seed {seed}: reward {reward:.3f} over the last "
            f"{REWARD_WINDOW} steps, greedy top-1 {report.top1:.3f} over "
            f"{EVAL_ROUNDS} val rounds, greedy length "
            f"{report.mean_length:.2f}, "
            f"{len({m.tokens for m in greedy})} distinct greedy messages "
            f"over {len(greedy)} val scenes")
    assert reward >= FLOOR and report.top1 >= FLOOR, seen


def test_tiny_config_learns():
    _check_learns(2024)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_tiny_config_learns_at_other_seeds(seed):
    _check_learns(seed)


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="group-centred advantages without "
                   "standardization are too small for an SGD speaker to "
                   "move: the train reward stays at chance")
def test_tiny_config_learns_with_default_advantages():
    _check_learns(2024, standardize=False)
