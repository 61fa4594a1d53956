"""Run configuration: a strict, diff-able INI document.

Every hyperparameter of a run lives here, grouped in sections. Parsing
is strict: an unknown section or key, a value that fails type
conversion, or a value the world, game or train settings reject, is a
hard error naming the offender. This is what keeps a
typo'd hyperparameter from silently training the wrong run.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields

from .agents import ModelConfig
from .game import GameConfig
from .training import TrainSettings
from .world import WorldSpec


class ConfigError(ValueError):
    """Malformed or unknown run-configuration content."""


@dataclass
class WorldSection:
    grid: int = 4
    min_objects: int = 1
    max_objects: int = 3
    noise: float = 0.05
    raster: bool = False
    raster_size: int = 16
    n_scenes: int = 600
    val_scenes: int = 128
    test_scenes: int = 0
    seed: int = 7
    mix_scenes: int = 0          # extra scenes from a second spec; 0 = off
    mix_min_objects: int = 1
    mix_max_objects: int = 3
    mix_seed: int = 99


@dataclass
class GameSection:
    k: int = 64
    gamma: float = 0.95
    lam: float = 1.0
    generations: int = 5
    t_max: int = 12


@dataclass
class ModelSection:
    d_e: int = 128
    d_o: int = 128
    n_layers: int = 2
    n_patches: int = 4
    d_att: int = 0
    listener_stop_gradient: bool = False


@dataclass
class TrainSection:
    steps: int = 5000
    seed: int = 2024
    replicas: int = 3
    sync_period: int = 5
    targets_per_replica: int = 1
    lr_speaker: float = 0.1
    lr_listener: float = 1e-3
    optimizer_speaker: str = "sgd"
    optimizer_listener: str = "adam"
    baseline_mode: str = "group"
    standardize_advantages: bool = False
    temperature: float = 1.0
    clip_norm: float = 1.0
    eval_interval: int = 500


@dataclass
class EvalSection:
    rounds: int = 200
    top_n: int = 10
    seed: int = 0


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
    game: GameSection = field(default_factory=GameSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    paths: PathsSection = field(default_factory=PathsSection)

    # -- adapters into the module-level config types -------------------------

    def world_spec(self) -> WorldSpec:
        w = self.world
        return WorldSpec(grid=w.grid, min_objects=w.min_objects,
                         max_objects=w.max_objects, noise=w.noise,
                         raster=w.raster, raster_size=w.raster_size)

    def mix_spec(self) -> WorldSpec:
        w = self.world
        return WorldSpec(grid=w.grid, min_objects=w.mix_min_objects,
                         max_objects=w.mix_max_objects, noise=w.noise,
                         raster=w.raster, raster_size=w.raster_size)

    def game_config(self) -> GameConfig:
        g = self.game
        return GameConfig(k=g.k, gamma=g.gamma, lam=g.lam,
                          generations=g.generations, t_max=g.t_max)

    def model_config(self, vocab_size: int, obs_dim: int) -> ModelConfig:
        m = self.model
        w = self.world
        return ModelConfig(vocab_size=vocab_size, obs_dim=obs_dim,
                           d_e=m.d_e, d_o=m.d_o, n_layers=m.n_layers,
                           n_patches=m.n_patches, d_att=m.d_att,
                           raster=w.raster, raster_size=w.raster_size,
                           raster_grid=w.grid,
                           listener_stop_gradient=m.listener_stop_gradient)

    def train_settings(self) -> TrainSettings:
        t = self.train
        return TrainSettings(
            seed=t.seed, replicas=t.replicas, sync_period=t.sync_period,
            targets_per_replica=t.targets_per_replica,
            lr_speaker=t.lr_speaker, lr_listener=t.lr_listener,
            optimizer_speaker=t.optimizer_speaker,
            optimizer_listener=t.optimizer_listener,
            baseline_mode=t.baseline_mode,
            standardize_advantages=t.standardize_advantages,
            temperature=t.temperature, clip_norm=t.clip_norm)

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
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"bad value {raw!r} for {where}: expected {target_type.__name__}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse an INI document over the defaults, rejecting unknown keys
    and values that the world, game or train settings refuse."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for section_name in parser.sections():
        if section_name not in sections:
            raise ConfigError(f"unknown section [{section_name}]")
        target = sections[section_name]
        known = {f.name: f.type for f in fields(target)}
        types = {f.name: type(getattr(target, f.name)) for f in fields(target)}
        for key, raw in parser.items(section_name):
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section_name}]")
            setattr(target, key,
                    _convert(raw, types[key], f"[{section_name}] {key}"))
    builders = [("world", cfg.world_spec), ("game", cfg.game_config),
                ("train", cfg.train_settings)]
    if cfg.world.mix_scenes > 0:
        builders.append(("world", cfg.mix_spec))
    for section_name, build in builders:
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
