"""The run config: its printed form, parsing it back, and the adapters
that hand its sections to the trainer."""

import os
from dataclasses import fields

import pytest

from lewisgame.config import RunConfig, parse_config
from lewisgame.evaluate import ablation_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "default_config.ini")


def _non_default() -> RunConfig:
    # every section changed, and every value type (int, float, bool, str)
    cfg = RunConfig()
    cfg.world.grid, cfg.world.noise, cfg.world.raster = 8, 0.125, True
    cfg.game.k, cfg.game.gamma = 8, 0.5
    cfg.model.d_att, cfg.model.listener_stop_gradient = 12, True
    cfg.train.steps, cfg.train.lr_listener = 7, 3e-4
    cfg.train.optimizer_speaker = "adam"
    cfg.train.standardize_advantages = True
    cfg.eval.rounds = 9
    cfg.paths.metrics = "runs/100%/m.jsonl"
    return cfg


def _tiny_config() -> RunConfig:
    cfg = RunConfig()
    cfg.world.max_objects, cfg.world.n_scenes, cfg.world.val_scenes = 2, 40, 16
    cfg.game.generations, cfg.game.t_max = 2, 4
    cfg.model.d_e, cfg.model.d_o, cfg.model.n_layers = 8, 8, 1
    cfg.train.steps, cfg.train.replicas = 1, 1
    cfg.eval.rounds = 2
    return cfg


def test_non_default_config_differs_in_every_section():
    cfg, default = _non_default(), RunConfig()
    for section in fields(cfg):
        assert getattr(cfg, section.name) != getattr(default, section.name)


@pytest.mark.parametrize("make", [RunConfig, _non_default],
                         ids=["default", "non-default"])
def test_text_parses_back_to_the_same_config(make):
    cfg = make()
    assert parse_config(cfg.to_text()) == cfg


def test_default_text_matches_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert RunConfig().to_text() == fh.read()


def test_adapters_return_validated_copies():
    cfg = RunConfig()
    game, train = cfg.game_config(), cfg.train_settings()
    assert (game, train) == (cfg.game, cfg.train)
    game.k, train.seed = 8, 1
    assert (cfg.game.k, cfg.train.seed) == (64, 2024)
    cfg.game.k = 1
    with pytest.raises(ValueError, match="K must be at least 2"):
        cfg.game_config()
    cfg.train.replicas = 0
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        cfg.train_settings()


def test_sweep_records_an_invalid_k_as_a_failed_cell():
    cfg = _tiny_config()
    cells = ablation_sweep(cfg, [1, 4], [5])
    assert cells[0] == {"k": 1, "seed": 5, "error": "K must be at least 2"}
    assert (cells[1]["k"], cells[1]["seed"]) == (4, 5)
    assert "report" in cells[1]
    assert (cfg.game.k, cfg.train.seed) == (64, 2024)
