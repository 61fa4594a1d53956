"""Run configuration: a strict, diff-able INI document.

Every hyperparameter of a run lives here, grouped in sections, and no
subcommand shadows one with a flag: ``lewisgame eval`` reads ``[eval]``
and the K and ``t_max`` of ``[game]``. The ``[game]`` and ``[train]``
sections are the runtime types themselves, ``GameConfig`` and
``TrainSettings``, and ``[world]`` is a ``WorldSpec`` that adds the
scene counts and seed of its splits, so each of their keys and defaults
is declared once, there. Sections are mutable, so the adapters
(``world_spec``, ``game_config``, ``train_settings``) hand out values
built or copied through the runtime types' own checks, and a section
mutated after parsing is validated again when it is used.

Parsing is strict: an unknown section or key, a value that fails type
conversion, or a value a section's own checks reject, is a hard error
naming the offender. This is what keeps a typo'd hyperparameter from
silently training the wrong run. Values are read literally, with no
``%`` interpolation, and a ``[DEFAULT]`` section is refused, because its
keys would be read into every section.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields, replace

from .agents import ModelConfig
from .game import GameConfig
from .training import Trainer, TrainSettings, check_at_least
from .world import Dataset, WorldSpec, generate_splits


class ConfigError(ValueError):
    """Malformed or unknown run-configuration content."""


@dataclass
class WorldSection(WorldSpec):
    """The world's ``WorldSpec``, and the scenes its splits draw."""

    n_scenes: int = 600
    val_scenes: int = 128
    test_scenes: int = 0
    seed: int = 7

    def __post_init__(self):
        super().__post_init__()
        check_at_least(self, n_scenes=1, val_scenes=0, test_scenes=0, seed=0)
        if self.seed >= 2 ** 64:  # LGW1 stores it as a u64
            raise ValueError("seed must be below 2**64")


@dataclass
class ModelSection:
    """``n_patches`` is read only in an attribute world; a raster world
    has one patch per grid cell."""

    d_e: int = 128
    d_o: int = 128
    n_layers: int = 2
    n_patches: int = 4

    def __post_init__(self):
        check_at_least(self, d_e=1, d_o=1, n_layers=1, n_patches=1)


@dataclass
class EvalSection:
    rounds: int = 200
    seed: int = 0

    def __post_init__(self):
        check_at_least(self, rounds=1, seed=0)


@dataclass
class PathsSection:
    dataset: str = "world.lgw"
    val_dataset: str = ""
    checkpoint_dir: str = "runs/checkpoints"
    metrics: str = "runs/metrics.jsonl"
    eval_log: str = "runs/eval.jsonl"


@dataclass
class RunConfig:
    world: WorldSection = field(default_factory=WorldSection)
    game: GameConfig = field(default_factory=GameConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSection = field(default_factory=EvalSection)
    paths: PathsSection = field(default_factory=PathsSection)

    # -- adapters into the module-level config types -------------------------

    def world_spec(self) -> WorldSpec:
        return WorldSpec(**{f.name: getattr(self.world, f.name)
                            for f in fields(WorldSpec)})

    def world_splits(self) -> dict[str, Dataset]:
        """The train, val and test datasets of ``[world]``; a val or test
        split with no scenes is left out."""
        w = self.world
        return generate_splits(w.seed, self.world_spec(), w.n_scenes,
                               w.val_scenes, w.test_scenes)

    def game_config(self) -> GameConfig:
        return replace(self.game)

    def model_config(self, vocab_size: int, obs_dim: int) -> ModelConfig:
        m = self.model
        w = self.world
        return ModelConfig(vocab_size=vocab_size, obs_dim=obs_dim,
                           d_e=m.d_e, d_o=m.d_o, n_layers=m.n_layers,
                           n_patches=w.cells if w.raster else m.n_patches,
                           cells=w.cells)

    def train_settings(self) -> TrainSettings:
        return replace(self.train)

    def trainer(self, dataset: Dataset) -> Trainer:
        """A fresh trainer of this run's agents on ``dataset``."""
        # before ModelConfig, which refuses a width the cells do not divide
        dataset.spec.check_read_by(dataset.spec.input_dim, self.world.cells)
        return Trainer(dataset, self.game_config(),
                       self.model_config(len(dataset.vocab),
                                         dataset.spec.input_dim),
                       self.train_settings())

    def to_text(self) -> str:
        out = io.StringIO()
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            out.write(f"[{section_field.name}]\n")
            for f in fields(section):
                out.write(f"{f.name} = {getattr(section, f.name)}\n")
            out.write("\n")
        return out.getvalue()

    def run_id(self) -> str:
        digest = hashlib.sha256(self.to_text().encode()).hexdigest()
        return digest[:12]


def _convert(raw: str, target_type, where: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise ConfigError(
            f"bad value {raw!r} for {where}: expected {target_type.__name__}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse an INI document over the defaults, rejecting unknown
    sections and keys, and values that the world, game, train or eval
    settings refuse."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    cfg = RunConfig()
    section_names = {f.name for f in fields(cfg)}
    for section_name in parser.sections():
        if section_name not in section_names:
            raise ConfigError(f"unknown section [{section_name}]")
        default = getattr(cfg, section_name)
        types = {f.name: type(getattr(default, f.name))
                 for f in fields(default)}
        values = {}
        for key, raw in parser.items(section_name):
            if key not in types:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section_name}]")
            values[key] = _convert(raw, types[key], f"[{section_name}] {key}")
        try:
            setattr(cfg, section_name, replace(default, **values))
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
