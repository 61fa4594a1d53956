"""Span tracer that times lewisgame's layers from outside the package.

Tracing wraps each layer's public entry points (module functions, class
methods and the tape's ``record``) for the duration of a ``with
installed(tracer):`` block, then puts the originals back. Nothing in
``src/`` knows about it.

A span's self time is its duration minus the time covered by the spans
it encloses, so the self times of one phase add up to the traced wall
time of that phase (less the time spent outside any span). Backward is
split per rule: every rule recorded on a tape is wrapped under its
owner's name, so the fused kernels in ``_decode`` are timed apart from
the generic ops of ``tensor``. Each rule's self time is also credited
to ``<layer>.bwd``, the span that recorded the node, so that a layer's
forward and backward can be added up.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from lewisgame import agents, evaluate, game, optim, params, tensor, training, world

# (owner, attribute, span name); owners are modules or classes. Where a
# module imported a name from another module, the importer's binding is
# the one its callers use, so that is the one patched.
ENTRY_POINTS = (
    (training.Trainer, "run", "training.run"),
    (training, "train_step", "training.step"),
    (training, "_play_round_traced", "game.round"),
    (training, "backward", "tensor.backward"),
    (training, "sync_replicas", "training.sync_replicas"),
    (training, "grad_global_norm", "optim.grad_norm"),
    (training, "clip_global_norm", "optim.clip"),
    (optim.Sgd, "step", "optim.update"),
    (optim.Adam, "step", "optim.update"),
    (params, "save_checkpoint", "params.save_checkpoint"),
    (params, "load_checkpoint", "params.load_checkpoint"),
    (world, "generate_splits", "world.generate_splits"),
    (world, "save_dataset", "world.save_dataset"),
    (world, "load_dataset", "world.load_dataset"),
    (game, "sample_game_batch", "world.sample_game_batch"),
    (evaluate, "sample_game_batch", "world.sample_game_batch"),
    (evaluate, "evaluate_agents", "evaluate.evaluate_agents"),
    (evaluate, "bleu", "evaluate.bleu"),
    (evaluate, "attribute_coverage", "evaluate.coverage"),
    (agents.SpeakerPolicy, "sample", "agents.speaker_sample"),
    (agents.ListenerModel, "embed_images", "agents.embed_images"),
    (agents.ListenerModel, "embed_message", "agents.embed_message"),
)

def rule_owner(rule) -> str:
    """Span name for a backward rule, from the function that recorded it.

    Generic ops in ``tensor`` share one name; every other owner (the
    fused kernels) is named by module and function.
    """
    module = getattr(rule, "__module__", "") or ""
    short = module.rsplit(".", 1)[-1]
    if short == "tensor":
        return "tensor.generic.bwd"
    qualname = getattr(rule, "__qualname__", "rule")
    return f"{short}.{qualname.split('.')[0]}.bwd"


class Tracer:
    """Self times and counts per (phase, span name), kept in memory.

    Spans are recorded only while ``phase`` is set.
    """

    def __init__(self):
        self.phase = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def count(self, name: str, n: int = 1) -> None:
        if self.phase is not None:
            self.counts[(self.phase, name)] += n

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn, on_result=None, also=None):
        """``fn`` timed as span ``name``; its self time is also added to
        ``also`` when given."""

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self.self_s[(self.phase, name)] += duration - frame[2]
                if also is not None:
                    self.self_s[(self.phase, also)] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def self_ms(self, phase: str, name: str) -> float:
        return 1000.0 * self.self_s.get((phase, name), 0.0)


def _count_hooks(tracer: Tracer) -> dict:
    def messages(args, result):
        samples, _ = result
        tracer.count("game.messages", len(samples))

    def candidates(args, result):
        tracer.count("agents.candidates", result.shape[0])

    return {"agents.speaker_sample": messages,
            "agents.embed_images": candidates}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every entry point and ``Tape.record``; restore on exit."""
    hooks = _count_hooks(tracer)
    saved = []
    for owner, attr, name in ENTRY_POINTS:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, hooks.get(name)))

    original_record = tensor.Tape.record

    def record(tape, out, inputs, rule):
        tracer.count("tensor.tape_nodes")
        layer = tracer.current()
        original_record(tape, out, inputs, tracer.wrap(
            rule_owner(rule), rule, also=layer and f"{layer}.bwd"))

    saved.append((tensor.Tape, "record", original_record))
    tensor.Tape.record = record
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
