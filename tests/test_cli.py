import json
import os
import subprocess
import sys

import pytest

from lewisgame.agents import ListenerModel, ModelConfig, SpeakerPolicy
from lewisgame.params import ParameterSet, save_checkpoint
from lewisgame.world import WorldSpec, generate_dataset, save_dataset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "lewisgame.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """A 12-scene dataset, a checkpoint of untrained agents for it, and
    a checkpoint that holds no agent parameters."""
    root = tmp_path_factory.mktemp("cli")
    spec = WorldSpec()
    ds = generate_dataset(3, 12, spec)
    save_dataset(ds, str(root / "world.lgw"))
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=8, d_o=8, n_layers=1)
    speaker = SpeakerPolicy.create(cfg, 1)
    listener = ListenerModel.create(cfg, 2, encoder=speaker)
    state = ParameterSet()
    state.merged("speaker.", speaker.params)
    state.merged("listener.", listener.params)
    save_checkpoint(state, str(root / "agents.lgc"))
    save_checkpoint(speaker.params, str(root / "bare.lgc"))
    return root


def test_eval_k_larger_than_dataset_exits_2(eval_files):
    proc = _run_cli("eval", "--checkpoint", str(eval_files / "agents.lgc"),
                    "--dataset", str(eval_files / "world.lgw"),
                    "--k", "13", "--rounds", "1")
    assert proc.returncode == 2
    assert "K=13 exceeds dataset size 12" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_checkpoint_without_agents_exits_2(eval_files):
    proc = _run_cli("eval", "--checkpoint", str(eval_files / "bare.lgc"),
                    "--dataset", str(eval_files / "world.lgw"), "--k", "4")
    assert proc.returncode == 2
    assert "speaker./listener." in proc.stderr
    assert "Traceback" not in proc.stderr


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
