"""The run config: its printed form, parsing it back, and the adapters
that hand its sections to the trainer."""

import ast
import glob
import os
import re
from dataclasses import fields

import pytest

from lewisgame.config import ConfigError, RunConfig, parse_config
from lewisgame.evaluate import ablation_sweep
from lewisgame.world import WorldSpec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "default_config.ini")
PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "lewisgame")


def _non_default() -> RunConfig:
    # every section changed, and every value type (int, float, bool, str)
    cfg = RunConfig()
    cfg.world.grid, cfg.world.noise, cfg.world.raster = 8, 0.125, True
    cfg.game.k, cfg.game.lam = 8, 0.5
    cfg.model.d_e, cfg.model.n_patches = 12, 3
    cfg.train.steps, cfg.train.lr_listener = 7, 3e-4
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


def test_world_section_is_a_world_spec_plus_its_draws():
    cfg = RunConfig()
    names = [f.name for f in fields(cfg.world)]
    assert names == [f.name for f in fields(WorldSpec)] + [
        "n_scenes", "val_scenes", "test_scenes", "seed"]
    spec = cfg.world_spec()
    assert type(spec) is WorldSpec and spec == WorldSpec()
    cfg.world.max_objects = 4
    with pytest.raises(ValueError, match="object counts"):
        cfg.world_spec()


def test_sweep_records_an_invalid_k_as_a_failed_cell():
    cfg = _tiny_config()
    cells = ablation_sweep(cfg, [1, 4], [5])
    assert cells[0] == {"k": 1, "seed": 5, "error": "K must be at least 2"}
    assert (cells[1]["k"], cells[1]["seed"]) == (4, 5)
    assert "report" in cells[1]
    assert (cfg.game.k, cfg.train.seed) == (64, 2024)


OUT_OF_RANGE = [
    ("world", "n_scenes", "-3", "n_scenes must be at least 1"),
    ("world", "val_scenes", "-5", "val_scenes must be at least 0"),
    ("world", "test_scenes", "-1", "test_scenes must be at least 0"),
    ("world", "seed", "-1", "seed must be at least 0"),
    ("world", "seed", "18446744073709551616", "seed must be below 2**64"),
    ("world", "grid", "300", "grid must lie in [2, 255]"),
    ("world", "grid", "210", "grid 210 gives 3-object scene ids past LGW1's "
     "u64"),
    ("world", "noise", "nan", "noise must be finite and non-negative"),
    ("world", "noise", "-0.5", "noise must be finite and non-negative"),
    ("world", "noise", "1e39", "noise must be finite and non-negative"),
    ("model", "d_e", "0", "d_e must be at least 1"),
    ("model", "d_o", "0", "d_o must be at least 1"),
    ("model", "n_layers", "0", "n_layers must be at least 1"),
    ("model", "n_patches", "0", "n_patches must be at least 1"),
    ("game", "lam", "nan", "lambda must be finite and non-negative"),
    ("game", "lam", "inf", "lambda must be finite and non-negative"),
    ("train", "seed", "-1", "seed must be at least 0"),
    ("train", "steps", "-5", "steps must be at least 0"),
    ("train", "lr_speaker", "nan", "lr_speaker must be finite and non-negative"),
    ("train", "lr_listener", "-0.001",
     "lr_listener must be finite and non-negative"),
    ("train", "clip_norm", "nan", "clip_norm must be positive"),
    ("train", "sync_period", "-1", "sync_period must be at least 0"),
    ("train", "eval_interval", "-1", "eval_interval must be at least 0"),
    ("eval", "seed", "-1", "seed must be at least 0"),
]
# suffixes that tell apart the rows of one key
OUT_OF_RANGE_ID_SUFFIX = {("seed", str(2 ** 64)): "-2**64",
                          ("grid", "210"): "-past-u64-ids",
                          ("noise", "nan"): "-nan",
                          ("noise", "-0.5"): "-negative",
                          ("noise", "1e39"): "-past-f32",
                          ("lam", "inf"): "-inf"}


@pytest.mark.parametrize(
    "section, key, value, message", OUT_OF_RANGE,
    ids=[f"{s}-{k}" + OUT_OF_RANGE_ID_SUFFIX.get((k, v), "")
         for s, k, v, _ in OUT_OF_RANGE])
def test_parse_config_rejects_out_of_range_values(section, key, value,
                                                  message):
    with pytest.raises(ConfigError,
                       match=re.escape(f"[{section}] {message}")):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_parse_config_refuses_the_deleted_discount():
    # every token of a message carries its advantage: there is no gamma
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key 'gamma' in section [game]")):
        parse_config("[game]\ngamma = 0.95\n")


def test_parse_config_refuses_the_deleted_temperature():
    # messages are drawn from the logits' own softmax, or greedily
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key 'temperature' in section [train]")):
        parse_config("[train]\ntemperature = 1.0\n")


@pytest.mark.parametrize("key", ["lr_speaker", "lr_listener"])
def test_parse_config_rejects_infinite_learning_rates(key):
    with pytest.raises(ConfigError, match=re.escape(
            f"[train] {key} must be finite and non-negative")):
        parse_config(f"[train]\n{key} = inf\n")


@pytest.mark.parametrize("size", ["0", "2", "65536"])
def test_parse_config_bounds_the_raster_size(size):
    # grid 4; LGW1 stores raster_size as a u16
    with pytest.raises(ConfigError, match=re.escape(
            "[world] raster_size must lie in [4, 65535]")):
        parse_config(f"[world]\nraster = true\nraster_size = {size}\n")
    parse_config(f"[world]\nraster_size = {size}\n")  # unread without raster


@pytest.mark.parametrize("word, value", [
    ("true", True), ("Yes", True), ("1", True), ("ON", True),
    ("false", False), ("No", False), ("0", False), ("off", False)])
def test_parse_config_reads_the_eight_boolean_words(word, value):
    cfg = parse_config(f"[train]\nstandardize_advantages = {word}\n")
    assert cfg.train.standardize_advantages is value


def test_parse_config_refuses_any_other_boolean_word():
    with pytest.raises(ConfigError, match=re.escape(
            "bad value 'y' for [train] standardize_advantages: "
            "expected bool")):
        parse_config("[train]\nstandardize_advantages = y\n")


class _AttributeReads(ast.NodeVisitor):
    """Names of the attributes a module reads, outside ``__post_init__``
    bodies: a section checking its own value does not use it."""

    def __init__(self):
        self.names = set()

    def visit_FunctionDef(self, node):
        if node.name != "__post_init__":
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_config_key_has_a_reader():
    # by attribute name, so a key named like another attribute counts as
    # read; the two paths are still waiting for their readers
    reads = _AttributeReads()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            reads.visit(ast.parse(fh.read()))
    cfg = RunConfig()
    keys = {f"{section.name}.{key.name}" for section in fields(cfg)
            for key in fields(getattr(cfg, section.name))}
    unread = {key for key in keys if key.split(".")[1] not in reads.names}
    assert unread == {"paths.val_dataset", "paths.eval_log"}
