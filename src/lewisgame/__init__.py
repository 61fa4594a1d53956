"""Cooperative description game: a Speaker captions scenes so a
Listener can pick them out of a lineup, and both improve together."""

from .agents import ListenerModel, MessageSample, ModelConfig, SpeakerPolicy
from .config import ConfigError, RunConfig, load_config, parse_config
from .evaluate import (EvalReport, ablation_sweep, attribute_coverage, bleu,
                       ema, evaluate_agents, sweep_summary)
from .game import GameConfig, RoundTrace, play_rounds, solve_rate
from .optim import Adam, Sgd, clip_global_norm, grad_global_norm
from .params import (FormatError, ParameterSet, UnsupportedVersionError,
                     load_checkpoint, save_checkpoint)
from .tensor import ShapeError, Tape, Tensor, backward
from .training import (LossReport, NumericalFailureError, Trainer,
                       TrainSettings, advantage_variance, sequence_loss,
                       supervised_pretrain, sync_replicas, train_step)
from .world import (CapacityError, Dataset, ObjectSpec, SamplingError, Scene,
                    Vocabulary, WorldSpec, build_captions, generate_splits,
                    load_dataset, render_raster, sample_game_batch,
                    save_dataset)

__version__ = "0.1.0"
