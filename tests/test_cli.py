import json
import os
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import reference
from reference import generate_dataset

from lewisgame import cli
from lewisgame.agents import ListenerModel, ModelConfig, SpeakerPolicy
from lewisgame.cli import _agents_from_checkpoint, main
from lewisgame.evaluate import EvalReport, evaluate_agents
from lewisgame.params import ParameterSet, load_checkpoint, save_checkpoint
from lewisgame.tensor import Tensor
from lewisgame.world import (_N_ATTR, Scene, WorldSpec, load_dataset,
                             save_dataset)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "lewisgame.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _save_agents(vocab_size, obs_dim, path):
    """Write a checkpoint of untrained agents for observations
    ``obs_dim`` wide to ``path``; return their speaker."""
    cfg = ModelConfig(vocab_size=vocab_size, obs_dim=obs_dim,
                      d_e=8, d_o=8, n_layers=1)
    speaker = SpeakerPolicy.create(cfg, 1)
    listener = ListenerModel.create(cfg, 2, encoder=speaker)
    state = ParameterSet()
    state.merged("speaker.", speaker.params)
    state.merged("listener.", listener.params)
    save_checkpoint(state, str(path))
    return speaker


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """A 12-scene dataset, a checkpoint of untrained agents for it, and
    a checkpoint that holds no agent parameters."""
    root = tmp_path_factory.mktemp("cli")
    spec = WorldSpec()
    ds = generate_dataset(3, 12, spec)
    save_dataset(ds, str(root / "world.lgw"))
    speaker = _save_agents(len(ds.vocab), spec.input_dim, root / "agents.lgc")
    save_checkpoint(speaker.params, str(root / "bare.lgc"))
    return root


def _edited(state, name, data):
    """A copy of checkpoint ``state`` whose entry ``name`` holds ``data``
    (added when ``state`` has no such entry, left out when ``data`` is
    None)."""
    out = ParameterSet()
    for key, t in state.items():
        if key != name:
            out.add(key, t)
    if data is not None:
        out.add(name, Tensor(data))
    return out


def _write_config(path, sections):
    """Write ``sections``, a map from section name to the keys it sets,
    as an INI file at ``path``; return the path as a string."""
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()), encoding="utf-8")
    return str(path)


def _run_eval(eval_files, config, *args, checkpoint="agents.lgc"):
    return _run_cli("eval", "--config", config,
                    "--checkpoint", str(eval_files / checkpoint),
                    "--dataset", str(eval_files / "world.lgw"), *args)


def test_eval_k_larger_than_dataset_exits_2(eval_files, tmp_path):
    config = _write_config(tmp_path / "eval.ini",
                           {"game": {"k": 13}, "eval": {"rounds": 1}})
    proc = _run_eval(eval_files, config)
    assert proc.returncode == 2
    assert "K=13 exceeds dataset size 12" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("section, key", [("eval", "rounds"),
                                          ("game", "t_max")],
                         ids=["eval-rounds", "game-t_max"])
def test_eval_nonpositive_count_exits_1(eval_files, tmp_path, section, key):
    config = _write_config(tmp_path / "eval.ini",
                           {"game": {"k": 4}, section: {key: 0}})
    proc = _run_eval(eval_files, config)
    assert proc.returncode == 1
    assert f"config error: [{section}] {key} must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_eval_k_one_exits_1(eval_files, tmp_path):
    config = _write_config(tmp_path / "eval.ini",
                           {"game": {"k": 1}, "eval": {"rounds": 1}})
    proc = _run_eval(eval_files, config)
    assert proc.returncode == 1
    assert "config error: [game] K must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_checkpoint_without_agents_exits_2(eval_files, tmp_path):
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, checkpoint="bare.lgc")
    assert proc.returncode == 2
    assert "speaker./listener." in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_checkpoint_of_another_input_width_exits_2(eval_files,
                                                       tmp_path):
    # agents for 1-object scenes (21 wide) on the 3-object dataset (63)
    dataset = load_dataset(str(eval_files / "world.lgw"))
    narrow = WorldSpec(max_objects=1).input_dim
    _save_agents(len(dataset.vocab), narrow, tmp_path / "narrow.lgc")
    config = _write_config(tmp_path / "eval.ini",
                           {"game": {"k": 4}, "eval": {"rounds": 2}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "narrow.lgc")
    assert proc.returncode == 2
    assert proc.stderr == (f"data error: checkpoint shape mismatch for "
                           f"speaker.enc.l1.w: ({narrow}, 8), not "
                           f"({dataset.spec.input_dim}, 8)\n")
    assert sorted(os.listdir(tmp_path)) == ["eval.ini", "narrow.lgc"]


def test_eval_checkpoint_of_another_vocabulary_exits_2(eval_files, tmp_path):
    # the vocabulary is fixed: tokens past its end have no words to score
    dataset = load_dataset(str(eval_files / "world.lgw"))
    n = len(dataset.vocab)
    _save_agents(n + 2, dataset.spec.input_dim, tmp_path / "wide.lgc")
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "wide.lgc")
    assert proc.returncode == 2
    assert proc.stderr == (f"data error: checkpoint shape mismatch for "
                           f"speaker.emb: ({n + 2}, 8), not ({n}, 8)\n")
    assert sorted(os.listdir(tmp_path)) == ["eval.ini", "wide.lgc"]


@pytest.mark.parametrize("name", ["listener.gru.w", "speaker.head.w",
                                  "speaker.attn.we"])
def test_eval_checkpoint_with_a_misshapen_entry_exits_2(eval_files,
                                                        tmp_path, name):
    # one entry a column short; the agents' other entries all fit
    state = load_checkpoint(str(eval_files / "agents.lgc"))
    save_checkpoint(_edited(state, name, state[name].data[..., :-1]),
                    str(tmp_path / "bad.lgc"))
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "bad.lgc")
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        f"data error: checkpoint shape mismatch for {name}: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "eval.ini"]


@pytest.mark.parametrize("name, rank", [
    ("speaker.emb", 1), ("speaker.emb", 3), ("speaker.enc.l1.w", 1),
    ("speaker.enc.l2.w", 1), ("listener.img.w", 1)])
def test_eval_checkpoint_with_an_entry_of_another_rank_exits_2(
        eval_files, tmp_path, name, rank):
    # the entries the agents' sizes are read from, as a vector or a cube
    state = load_checkpoint(str(eval_files / "agents.lgc"))
    data = state[name].data
    data = data.ravel() if rank == 1 else data[..., None]
    save_checkpoint(_edited(state, name, data), str(tmp_path / "bad.lgc"))
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "bad.lgc")
    assert proc.returncode == 2
    assert proc.stderr == (f"data error: checkpoint entry {name} has shape "
                           f"{data.shape}, not rank 2\n")
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "eval.ini"]


@pytest.mark.parametrize("name, value", [("listener.img.w", np.nan),
                                         ("speaker.head.w", np.inf)])
def test_eval_checkpoint_with_a_non_finite_entry_exits_2(eval_files,
                                                         tmp_path, name,
                                                         value):
    # a NaN listener row would rank first and score top-1 1.0
    state = load_checkpoint(str(eval_files / "agents.lgc"))
    data = state[name].data.copy()
    data[0, 0] = value
    save_checkpoint(_edited(state, name, data), str(tmp_path / "bad.lgc"))
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "bad.lgc")
    assert proc.returncode == 2
    assert proc.stderr == (f"data error: checkpoint entry {name} is not "
                           f"finite\n")
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "eval.ini"]


def _lgc1(*names):
    """LGC1 bytes of one one-float entry per raw name in ``names``; each
    entry takes 7 bytes plus its name."""
    chunks = [b"LGC1", struct.pack("<I", len(names))]
    for name in names:
        chunks += [struct.pack("<H", len(name)), name,
                   struct.pack("<BIf", 1, 1, 0.0)]
    return b"".join(chunks)


@pytest.mark.parametrize("command", ["eval", "train-resume"])
@pytest.mark.parametrize("blob, message", [
    (_lgc1(b"x", b"x"), "repeated entry 'x' (at byte 20)"),
    (_lgc1(b"speaker.\xff"), "entry name is not UTF-8 (at byte 8)"),
    (_lgc1(b"x") + b"!", "1 trailing bytes (at byte 20)"),
], ids=["repeated-name", "name-not-utf8", "trailing-bytes"])
def test_checkpoint_with_a_bad_entry_name_exits_2(eval_files, tmp_path,
                                                  command, blob, message):
    (tmp_path / "bad.lgc").write_bytes(blob)
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path)
    if command == "eval":
        proc = _run_eval(eval_files, config, checkpoint=tmp_path / "bad.lgc")
    else:
        proc = _run_cli("train", "--config", config, "--resume",
                        str(tmp_path / "bad.lgc"))
    assert proc.returncode == 2
    assert proc.stderr == f"data error: {message}\n"
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "run.ini"]


def _header_refused(dataset):
    dataset.spec.min_objects, dataset.spec.max_objects = 3, 1
    return "bad world header: object counts must satisfy 1 <= min <= max <= 3"


def _objects_in_one_cell(dataset):
    i = next(i for i, s in enumerate(dataset.scenes) if len(s.objects) > 1)
    first, second = dataset.scenes[i].objects[:2]
    dataset.scenes[i] = Scene(
        (first, replace(second, row=first.row, col=first.col)),
        dataset.scenes[i].scene_id)
    return (f"scene {dataset.scenes[i].scene_id}: scene objects must "
            f"occupy distinct cells")


def _object_past_its_range(**change):
    """A corruption that sets ``change`` on a scene's last object (last in
    cell order, so a larger row or column keeps it last) and recomputes
    the scene's id, so only the object's range is wrong."""
    def corrupt(dataset):
        i = next(i for i, s in enumerate(dataset.scenes) if len(s.objects) > 1)
        objs = dataset.scenes[i].objects
        objs = objs[:-1] + (replace(objs[-1], **change),)
        base = dataset.spec.grid ** 2 * _N_ATTR + 1
        sid = sum((o.code(dataset.spec.grid) + 1) * base ** n
                  for n, o in enumerate(objs))
        dataset.scenes[i] = Scene(objs, sid)
        return f"scene {sid}: object {objs[-1]} is out of range"
    return corrupt


OUT_OF_RANGE_OBJECTS = [{"shape": 9}, {"color": 6}, {"size": 2}, {"row": 4},
                        {"col": 7}]


def _no_objects(dataset):
    dataset.scenes[2] = Scene((), 0)
    return "scene 0 holds 0 objects, outside [1, 3]"


def _more_objects_than_the_header_allows(dataset):
    # scenes before the first 3-object one hold at most 2, so that scene
    # is the first one a header of max_objects = 2 refuses
    dataset.spec.max_objects = 2
    sid = next(s.scene_id for s in dataset.scenes if len(s.objects) == 3)
    return f"scene {sid} holds 3 objects, outside [1, 2]"


def _repeated_scene(dataset):
    dataset.scenes[1] = dataset.scenes[0]
    return f"repeated scene {dataset.scenes[0].scene_id}"


def _run_on_corrupted_world(eval_files, tmp_path, corrupt, command):
    """Run ``command`` on the eval world corrupted by ``corrupt``; assert
    that it exits 2 with one data error at the byte of the scene that
    ``corrupt`` names, and writes nothing."""
    dataset = load_dataset(str(eval_files / "world.lgw"))
    message = corrupt(dataset)
    save_dataset(dataset, str(tmp_path / "bad.lgw"))
    config = _train_config(tmp_path / "run.ini", tmp_path / "bad.lgw",
                           tmp_path)
    if command == "eval":
        proc = _run_cli("eval", "--config", config, "--checkpoint",
                        str(eval_files / "agents.lgc"),
                        "--dataset", str(tmp_path / "bad.lgw"))
    else:
        proc = _run_cli("pretrain", "--config", config, "--out",
                        str(tmp_path / "pre.lgc"), "--steps", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"data error: {message} (at byte ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgw", "run.ini"]


@pytest.mark.parametrize("corrupt", [
    _header_refused, _objects_in_one_cell,
    *(_object_past_its_range(**c) for c in OUT_OF_RANGE_OBJECTS),
    _no_objects, _more_objects_than_the_header_allows, _repeated_scene],
    ids=["header-refused", "objects-in-one-cell",
         *(f"{k}-{v}" for c in OUT_OF_RANGE_OBJECTS for k, v in c.items()),
         "no-objects", "more-objects-than-the-header-allows",
         "repeated-scene"])
def test_eval_dataset_the_world_refuses_exits_2(eval_files, tmp_path,
                                                corrupt):
    _run_on_corrupted_world(eval_files, tmp_path, corrupt, "eval")


@pytest.mark.parametrize("corrupt", [_repeated_scene], ids=["repeated-scene"])
def test_pretrain_dataset_the_world_refuses_exits_2(eval_files, tmp_path,
                                                    corrupt):
    _run_on_corrupted_world(eval_files, tmp_path, corrupt, "pretrain")


@pytest.mark.parametrize("command, flag", [("eval", "--dataset"),
                                           ("plotdata", "--metrics")])
def test_path_that_is_a_directory_exits_2(eval_files, tmp_path, command,
                                          flag):
    extra = (["--checkpoint", str(eval_files / "agents.lgc")]
             if command == "eval" else [])
    proc = _run_cli(command, *extra, flag, str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == (f"data error: [Errno 21] Is a directory: "
                           f"{str(tmp_path)!r}\n")
    assert proc.stdout == ""


def test_eval_decodes_under_the_run_configs_t_max(eval_files, tmp_path):
    # train and evaluate under one config with t_max = 4; at the default
    # t_max of 12 the same agents report a mean length of 9.6
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, eval={"rounds": 20})
    assert _run_cli("train", "--config", config).returncode == 0
    proc = _run_cli("eval", "--config", config, "--checkpoint",
                    str(tmp_path / "ckpt" / "latest.lgc"),
                    "--dataset", str(eval_files / "world.lgw"))
    assert proc.returncode == 0, proc.stderr
    lengths = [line for line in proc.stdout.splitlines()
               if line.startswith("mean_length: ")]
    assert len(lengths) == 1
    assert 0 < float(lengths[0].split()[1]) <= 4


def test_eval_honours_the_config_environment_variable(eval_files, tmp_path):
    config = _write_config(tmp_path / "eval.ini",
                           {"game": {"k": 5, "t_max": 3},
                            "eval": {"rounds": 7, "seed": 9}})
    out = tmp_path / "eval.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC, LEWISGAME_CONFIG=config)
    proc = subprocess.run(
        [sys.executable, "-m", "lewisgame.cli", "eval",
         "--checkpoint", str(eval_files / "agents.lgc"),
         "--dataset", str(eval_files / "world.lgw"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in out.read_text().splitlines()]
    dataset = load_dataset(str(eval_files / "world.lgw"))
    speaker, listener = _agents_from_checkpoint(
        load_checkpoint(str(eval_files / "agents.lgc")), dataset)
    report = evaluate_agents(speaker, listener, dataset, k=5, n_rounds=7,
                             t_max=3, seed=9)
    assert row == report.row(run_id="agents.lgc", seed=9)


def test_config_with_unknown_section_exits_1(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[game]\nk = 8\n\n[gaem]\nk = 8\n", encoding="utf-8")
    proc = _run_cli("gen-world", "--config", str(config), "--out",
                    str(tmp_path / "w.lgw"))
    assert proc.returncode == 1
    assert "unknown section [gaem]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "w.lgw").exists()


def test_plotdata_into_closed_pipe_exits_cleanly(tmp_path):
    # far more output than a pipe buffers, so the writer hits the closed pipe
    metrics = tmp_path / "m.jsonl"
    with open(metrics, "w", encoding="utf-8") as fh:
        for step in range(20_000):
            fh.write(json.dumps({"run_id": "r", "step": step,
                                 "joint_loss": 0.5}) + "\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lewisgame.cli", "plotdata", "--metrics",
         str(metrics)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # what `| head -1` does after its first line
    _, err = proc.communicate(timeout=60)
    assert first == b"step\tjoint_loss\n"
    assert err == b""
    assert proc.returncode == 0




def _train_config(path, dataset, run, **overrides):
    """Write a one-step toy training config over ``dataset`` whose
    outputs go under ``run``; ``overrides`` maps a section to the keys
    it sets."""
    sections = {
        "paths": {"dataset": dataset, "checkpoint_dir": run / "ckpt",
                  "metrics": run / "m.jsonl"},
        "game": {"k": 4, "generations": 2, "t_max": 4},
        "model": {"d_e": 8, "d_o": 8, "n_layers": 1},
        "train": {"steps": 1, "replicas": 1},
        "world": {},
        "eval": {},
    }
    for name, keys in overrides.items():
        sections[name].update(keys)
    return _write_config(path, sections)


@pytest.mark.parametrize("command, section, keys, message", [
    ("train", "game", {"k": 1}, "[game] K must be at least 2"),
    ("gen-world", "world", {"min_objects": 3, "max_objects": 1},
     "[world] object counts"),
    ("train", "train", {"replicas": 0}, "[train] replicas must be at least 1"),
    ("train", "train", {"targets_per_replica": 0},
     "[train] targets_per_replica must be at least 1"),
    ("train", "train", {"clip_norm": -1}, "[train] clip_norm must be positive"),
    ("train", "train", {"temperature": -1},
     "[train] temperature must be >= 0"),
    ("eval", "eval", {"rounds": 0}, "[eval] rounds must be at least 1"),
    ("sweep", "eval", {"rounds": 0}, "[eval] rounds must be at least 1"),
    ("train", "train", {"steps": -5}, "[train] steps must be at least 0"),
    ("train", "train", {"lr_speaker": "nan"},
     "[train] lr_speaker must be finite and non-negative"),
    ("gen-world", "world", {"raster": "true", "raster_size": 0},
     "[world] raster_size must lie in [4, 65535]"),
    ("gen-world", "world", {"seed": 2 ** 64},
     "[world] seed must be below 2**64"),
    ("gen-world", "world", {"noise": "nan"},
     "[world] noise must be finite and non-negative"),
    ("gen-world", "world", {"grid": 255},
     "[world] grid 255 gives 3-object scene ids past LGW1's u64"),
], ids=["game-k", "world-objects", "train-replicas", "train-targets",
        "train-clip-norm",
        "train-temperature", "eval-rounds-eval", "eval-rounds-sweep",
        "train-steps-negative", "train-lr-speaker-nan",
        "world-raster-size-zero", "world-seed-past-u64", "world-noise-nan",
        "world-grid-past-u64-ids"])
def test_bad_config_value_exits_1(eval_files, tmp_path, command, section,
                                  keys, message):
    config = _train_config(tmp_path / "bad.ini", eval_files / "world.lgw",
                           tmp_path, **{section: keys})
    out = ["--out", str(tmp_path / "out")] if command != "train" else []
    if command == "eval":
        out += ["--checkpoint", str(eval_files / "agents.lgc"),
                "--dataset", str(eval_files / "world.lgw")]
    proc = _run_cli(command, "--config", config, *out)
    assert proc.returncode == 1
    assert f"config error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["bad.ini"]


@pytest.mark.parametrize("section, key, value", [
    ("train", "baseline_mode", "none"),
    ("train", "optimizer_speaker", "adam"),
    ("train", "optimizer_listener", "sgd"),
    ("model", "d_att", "12"),
    ("model", "listener_stop_gradient", "true"),
    ("game", "gamma", "0.95"),
], ids=["baseline_mode", "optimizer_speaker", "optimizer_listener", "d_att",
        "listener_stop_gradient", "gamma"])
def test_removed_config_key_exits_1(eval_files, tmp_path, section, key,
                                    value):
    # the training recipe is fixed in code: these switches no longer exist
    config = _train_config(tmp_path / "old.ini", eval_files / "world.lgw",
                           tmp_path, **{section: {key: value}})
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 1
    assert proc.stderr == (f"config error: unknown key {key!r} in section "
                           f"[{section}]\n")
    assert os.listdir(tmp_path) == ["old.ini"]


def test_gen_world_negative_scene_count_exits_1_before_writing(tmp_path):
    config = _write_config(tmp_path / "bad.ini", {"world": {"n_scenes": -3}})
    proc = _run_cli("gen-world", "--config", config,
                    "--out", str(tmp_path / "world.lgw"))
    assert proc.returncode == 1
    assert "config error: [world] n_scenes must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["bad.ini"]


def test_config_default_section_exits_1(eval_files, tmp_path):
    # configparser would read its keys into every section: this one
    # would set train.seed
    config = _train_config(tmp_path / "bad.ini", eval_files / "world.lgw",
                           tmp_path)
    text = (tmp_path / "bad.ini").read_text(encoding="utf-8")
    (tmp_path / "bad.ini").write_text("[DEFAULT]\nseed = 3\n\n" + text,
                                      encoding="utf-8")
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 1
    assert "config error: unknown section [DEFAULT]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["bad.ini"]


def test_config_values_are_read_literally(eval_files, tmp_path):
    metrics = tmp_path / "100%" / "m.jsonl"
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, paths={"metrics": metrics})
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert len(metrics.read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize("raster", [False, True],
                         ids=["raster-world-flat-model",
                              "flat-world-raster-model"])
def test_train_model_that_does_not_read_the_world_exits_2_before_writing(
        eval_files, tmp_path, raster):
    # [world] raster sets the model's input layout; the world file sets
    # the observations it has to read
    world = tmp_path / "world.lgw"
    if raster:
        world = eval_files / "world.lgw"
    else:
        save_dataset(generate_dataset(3, 12, WorldSpec(raster=True,
                                                       raster_size=8)),
                     str(world))
    config = _train_config(tmp_path / "run.ini", world, tmp_path,
                           world={"raster": raster, "raster_size": 8})
    listed = sorted(os.listdir(tmp_path))
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: dataset observations ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == listed


def test_train_resumes_from_a_pretrained_speaker(eval_files, tmp_path):
    # the warm start: pretrain writes a full trainer checkpoint at step 0
    # that train --resume takes and trains on to [train] steps
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, train={"steps": 3, "replicas": 2})
    proc = _run_cli("pretrain", "--config", config, "--out",
                    str(tmp_path / "pre.lgc"), "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli("train", "--config", config, "--resume",
                    str(tmp_path / "pre.lgc"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("trained to step 3 ")
    rows = (tmp_path / "m.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(row)["step"] for row in rows] == [0, 1, 2]
    pre = load_checkpoint(str(tmp_path / "pre.lgc"))
    assert pre["meta.step"].data[0] == 0
    assert (pre["replica1.emb"].data.tobytes()
            == pre["speaker.emb"].data.tobytes())
    state = load_checkpoint(str(tmp_path / "ckpt" / "latest.lgc"))
    assert state.names() == pre.names()
    assert state["meta.step"].data[0] == 3


def test_train_k_larger_than_dataset_exits_2_before_writing(eval_files,
                                                           tmp_path):
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, game={"k": 13})
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 2
    assert "data error: K=13 exceeds dataset size 12" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["run.ini"]


@pytest.mark.parametrize("command, flag, value, message", [
    ("sweep", "--k-list", "4,x", "expected comma-separated integers"),
    ("sweep", "--seeds", "5,y", "expected comma-separated integers"),
    ("sweep", "--workers", "0", "must be an integer >= 1, got '0'"),
    ("plotdata", "--alpha", "0", "must lie in (0, 1]"),
    ("plotdata", "--fields", "run_id", "field 'run_id' is not numeric"),
    ("pretrain", "--steps", "-3", "must be an integer >= 0, got '-3'"),
    ("pretrain", "--lr", "nan", "must be finite and non-negative, got 'nan'"),
    ("pretrain", "--lr", "-0.1", "must be finite and non-negative"),
], ids=["sweep-k-list", "sweep-seeds", "sweep-workers-zero",
        "plotdata-alpha", "plotdata-fields", "pretrain-steps-negative",
        "pretrain-lr-nan", "pretrain-lr-negative"])
def test_bad_argument_exits_1(eval_files, tmp_path_factory, tmp_path,
                              command, flag, value, message):
    metrics = tmp_path / "m.jsonl"
    metrics.write_text(json.dumps({"run_id": "r", "step": 0,
                                   "joint_loss": 0.5}) + "\n",
                       encoding="utf-8")
    extra = ["--metrics", str(metrics)] if command == "plotdata" else []
    if command == "pretrain":
        # a config that pretrains in a moment, so that only the flag under
        # test can make the call fail
        elsewhere = tmp_path_factory.mktemp("pretrain")
        config = _train_config(elsewhere / "run.ini",
                               eval_files / "world.lgw", elsewhere)
        extra = ["--config", config, "--out", str(tmp_path / "out.lgc"),
                 "--steps", "2"]
    proc = _run_cli(command, *extra, flag, value)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == ["m.jsonl"]


def test_pretrain_clips_at_the_configs_clip_norm(eval_files, tmp_path):
    checkpoints = []
    for clip_norm in ("1.0", "0.001"):
        config = _train_config(tmp_path / f"{clip_norm}.ini",
                               eval_files / "world.lgw", tmp_path,
                               train={"clip_norm": clip_norm})
        out = tmp_path / f"{clip_norm}.lgc"
        proc = _run_cli("pretrain", "--config", config, "--out", str(out),
                        "--steps", "2")
        assert proc.returncode == 0, proc.stderr
        checkpoints.append(load_checkpoint(str(out)))
    assert not checkpoints[0].equal(checkpoints[1])


def test_diverging_train_exits_3_and_its_resume_fails_alike(eval_files,
                                                           tmp_path):
    # the first step at this rate leaves finite but huge speaker weights,
    # so the second step's loss is not finite: exit 3, with step 1's
    # checkpoint and log row on disk, and a resume from them fails the
    # same way without touching either
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, train={"steps": 5, "lr_speaker": 3e38})
    ckpt, log = tmp_path / "ckpt" / "latest.lgc", tmp_path / "m.jsonl"
    outputs = []
    for resume in ([], ["--resume", str(ckpt)]):
        proc = _run_cli("train", "--config", config, *resume)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure at step 1: "
                                      "non-finite")
        assert proc.stderr.count("\n") == 1  # no numpy warnings
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]
    state = load_checkpoint(str(ckpt))
    assert state["meta.step"].data[0] == 1
    assert all(np.isfinite(t.data).all() for _, t in state.items())
    assert [json.loads(row)["step"] for row in
            log.read_text(encoding="utf-8").splitlines()] == [0]


def test_diverging_pretrain_exits_3_and_writes_nothing(eval_files, tmp_path):
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path)
    proc = _run_cli("pretrain", "--config", config, "--out",
                    str(tmp_path / "bad.lgc"), "--steps", "20", "--lr", "3e38")
    assert proc.returncode == 3
    assert proc.stderr == ("numerical failure: non-finite loss or gradient; "
                           "parameters left at pre-step values\n")
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == ["run.ini"]


def test_train_with_missing_dataset_exits_2(tmp_path):
    config = _train_config(tmp_path / "run.ini", tmp_path / "missing.lgw",
                           tmp_path)
    proc = _run_cli("train", "--config", config)
    assert proc.returncode == 2
    assert "data error:" in proc.stderr and "missing.lgw" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_resume_from_checkpoint_of_other_model_sizes_exits_2(
        eval_files, trained_state, tmp_path):
    # trained_state is a run of d_e = 8 agents; this run's model has
    # d_e = 16
    save_checkpoint(trained_state, str(tmp_path / "small.lgc"))
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, model={"d_e": 16})
    proc = _run_cli("train", "--config", config, "--resume",
                    str(tmp_path / "small.lgc"))
    assert proc.returncode == 2
    assert proc.stderr == ("data error: checkpoint shape mismatch for "
                           "listener.emb: (24, 8), not (24, 16)\n")
    assert sorted(os.listdir(tmp_path)) == ["run.ini", "small.lgc"]


@pytest.fixture(scope="module")
def trained_state(eval_files, tmp_path_factory):
    """The checkpoint of a one-step toy run: it holds the listener's Adam
    moments and a step count."""
    run = tmp_path_factory.mktemp("trained")
    config = _train_config(run / "run.ini", eval_files / "world.lgw", run)
    assert _run_cli("train", "--config", config).returncode == 0
    return load_checkpoint(str(run / "ckpt" / "latest.lgc"))


def _resume_refused(eval_files, state, tmp_path, message, **train):
    """Assert that a toy run resuming from ``state`` under the ``[train]``
    keys ``train`` exits 2 with one data error containing ``message``,
    writing nothing."""
    save_checkpoint(state, str(tmp_path / "bad.lgc"))
    config = _train_config(tmp_path / "run.ini", eval_files / "world.lgw",
                           tmp_path, train={"steps": 2, **train})
    proc = _run_cli("train", "--config", config, "--resume",
                    str(tmp_path / "bad.lgc"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: ")
    assert message in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "run.ini"]


@pytest.mark.parametrize("name, data, message", [
    ("optim.listener.w.img.w", lambda s: [0.0],
     "unexpected checkpoint entry 'optim.listener.w.img.w'"),
    ("optim.listener.m.img.w", lambda s: s["optim.listener.m.img.w"].data[1:],
     "checkpoint shape mismatch for optim.listener.m.img.w"),
    ("optim.listener.t", lambda s: [0.5],
     "optim.listener.t is not a whole number >= 0"),
    ("meta.step", lambda s: [np.nan],
     "checkpoint entry meta.step is not finite"),
    ("meta.step", lambda s: [-1.0], "meta.step is not a whole number"),
    ("meta.step", lambda s: None, "missing checkpoint entry 'meta.step'"),
    ("replica1.emb", lambda s: s["speaker.emb"].data,
     "unexpected checkpoint entry 'replica1.emb'"),
    ("optim.speaker0.t", lambda s: [1.0],
     "unexpected checkpoint entry 'optim.speaker0.t'"),
], ids=["optim-unknown-key", "adam-moment-size", "adam-step-fraction",
        "step-nan", "step-negative", "step-missing", "replica-beyond-count",
        "speaker-optimizer-state"])
def test_train_resume_from_malformed_checkpoint_exits_2(
        eval_files, trained_state, tmp_path, name, data, message):
    _resume_refused(eval_files, _edited(trained_state, name,
                                        data(trained_state)),
                    tmp_path, message)


def _with_image_bias(state):
    """``state`` as a checkpoint from before the listener's image head
    lost its bias: ``listener.img.b`` and its two Adam moments added."""
    d_o = state["listener.img.w"].shape[1]
    for name in ("listener.img.b", "optim.listener.m.img.b",
                 "optim.listener.v.img.b"):
        state = _edited(state, name, np.zeros(d_o, np.float32))
    return state


def test_checkpoint_with_an_image_bias_is_refused(eval_files, trained_state,
                                                  tmp_path):
    # the bias was deleted from the layout: resume and eval refuse an
    # older checkpoint that still holds it, and write nothing
    old = _with_image_bias(trained_state)
    message = "unexpected checkpoint entry 'listener.img.b'"
    _resume_refused(eval_files, old, tmp_path, message)
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "bad.lgc")
    assert proc.returncode == 2
    assert proc.stderr == f"data error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_checkpoint_with_per_gate_grus_is_refused(eval_files, trained_state,
                                                 tmp_path):
    # each GRU is stored as one weight and one bias: resume and eval
    # refuse a checkpoint of the older per-gate layout, naming the first
    # entry it lacks, and write nothing
    old = reference.per_gate(trained_state)
    assert "listener.gru.wz" in old.names()
    _resume_refused(eval_files, old, tmp_path,
                    "missing checkpoint entry 'listener.gru.b'")
    config = _write_config(tmp_path / "eval.ini", {"game": {"k": 4}})
    proc = _run_eval(eval_files, config, "--out", str(tmp_path / "out"),
                     checkpoint=tmp_path / "bad.lgc")
    assert proc.returncode == 2
    assert proc.stderr == ("data error: missing checkpoint entry "
                           "'speaker.gru0.b'\n")
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.lgc", "eval.ini", "run.ini"]


def test_train_resume_with_more_replicas_than_the_checkpoint_exits_2(
        eval_files, trained_state, tmp_path):
    # a replicas = 1 checkpoint holds no replica1. entries for the second
    # replica to start from
    _resume_refused(eval_files, trained_state, tmp_path,
                    "missing checkpoint entry 'replica1.", replicas=2)


def test_train_resume_from_nan_weight_exits_2(eval_files, trained_state,
                                             tmp_path):
    # refused before the first step, as eval refuses it: no checkpoint of
    # the NaN weights and no metrics file is written
    data = trained_state["listener.proj.l2.b"].data.copy()
    data[0] = np.nan
    _resume_refused(eval_files,
                    _edited(trained_state, "listener.proj.l2.b", data),
                    tmp_path,
                    "checkpoint entry listener.proj.l2.b is not finite")


@pytest.mark.parametrize("content", [
    '{"run_id": "r", "step": 0, "joint_loss": 0.5}\n'
    '{"run_id": "r", "step": 1}\n',
    '{"run_id": "r", "step": 0, "joint_loss": 0.5}\n'
    '{"run_id": "r", "step": 1, "joint_lo\n',
], ids=["row-without-field", "truncated-line"])
def test_plotdata_bad_later_row_exits_2(tmp_path, content):
    metrics = tmp_path / "m.jsonl"
    metrics.write_text(content, encoding="utf-8")
    proc = _run_cli("plotdata", "--metrics", str(metrics))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"data error: {metrics} line 2 ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _train_in(directory, dataset, steps, *resume):
    """Run ``lewisgame train`` in ``directory`` on a config with relative
    output paths, so that runs in different directories share a run_id."""
    directory.mkdir(exist_ok=True)
    config = _write_config(directory / f"run{steps}.ini", {
        "paths": {"dataset": dataset, "checkpoint_dir": "ckpt",
                  "metrics": "m.jsonl"},
        "game": {"k": 4, "generations": 2, "t_max": 4},
        "model": {"d_e": 8, "d_o": 8, "n_layers": 1},
        "train": {"steps": steps, "replicas": 1}})
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        args = ["train", "--config", config]
        assert main(args + (["--resume", *resume] if resume else [])) == 0
    finally:
        os.chdir(cwd)
    return ((directory / "m.jsonl").read_bytes(),
            (directory / "ckpt" / "latest.lgc").read_bytes())


def test_resumed_runs_log_each_step_once(eval_files, tmp_path):
    dataset = eval_files / "world.lgw"
    straight_rows, straight_state = _train_in(tmp_path / "a", dataset, 6)

    run = tmp_path / "b"
    _train_in(run, dataset, 3)
    (run / "step3.lgc").write_bytes((run / "ckpt" / "latest.lgc").read_bytes())
    resumed = _train_in(run, dataset, 6, "ckpt/latest.lgc")
    # from a checkpoint older than the log: steps 3-5 are logged again
    again = _train_in(run, dataset, 6, "step3.lgc")
    assert again == resumed
    assert resumed[1] == straight_state

    def steps(log):
        return [(row["run_id"], row["step"]) for row in
                map(json.loads, log.decode().splitlines())]
    assert [s for _, s in steps(resumed[0])] == list(range(6))
    rows = steps(straight_rows)
    assert [s for _, s in rows] == list(range(6))
    assert steps(resumed[0])[3:] == rows[3:]


def test_sweep_prints_the_gate_numbers_per_k(monkeypatch, capsys):
    # coverage, BLEU-1, held-out top-1 and the training reward, each as
    # mean ± std over the K's cells; a failed cell and a cell without a
    # train reward (zero steps) are left out of what they lack
    def report(coverage, bleu1, top1):
        return EvalReport(bleu1=bleu1, bleu2=0.0, bleu3=0.0, bleu4=0.0,
                          coverage=coverage, top1=top1, top10=1.0,
                          mean_length=3.0, n_rounds=10, k=4)

    cells = [
        {"k": 4, "seed": 1, "report": report(0.2, 0.1, 0.25),
         "train_reward": 0.5},
        {"k": 4, "seed": 2, "report": report(0.4, 0.3, 0.75),
         "train_reward": 0.25},
        {"k": 4, "seed": 3, "report": report(0.3, 0.2, 0.5),
         "train_reward": None},
        {"k": 4, "seed": 4, "error": "boom"},
        {"k": 8, "seed": 1, "report": report(0.1, 0.0, 0.125),
         "train_reward": None},
    ]
    monkeypatch.setattr(cli, "ablation_sweep", lambda *args, **kw: cells)
    assert main(["sweep", "--k-list", "4,8", "--seeds", "1,2,3,4"]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == [
        "K=4: coverage 0.300±0.082 bleu1 0.200±0.082 top1 0.500±0.204 "
        "train_reward 0.375±0.125",
        "K=8: coverage 0.100±0.000 bleu1 0.000±0.000 top1 0.125±0.000"]
    assert out.err == "K=4 seed=4 failed: boom\n"
