import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


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
