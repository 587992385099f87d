"""Per-layer self time for the traced run, recorded from outside the library.

The server harness installs timers around each layer's entry point by
replacing the attribute on its class (or module) for the traced part of
the capacity phase, and puts the original back afterwards, so untraced
phases run the library exactly as shipped.  No file under ``src/``
changes.

A layer's *self* time is its span's duration minus the spans nested
inside it.  A garbage-collector pause that falls inside a span is
subtracted from that span too (the collector is its own layer, timed by
a ``gc.callbacks`` hook), so a pause never inflates whichever layer
happened to allocate the object that triggered it.
"""

from __future__ import annotations

import gc
import time
import types

perf_counter = time.perf_counter

#: (module path, attribute path, layer) for every timed entry point.
#: ``serve`` times the listener's per-batch serving coroutine one
#: resumption at a time, so a suspended batch never counts idle time.
SYNC_POINTS = (
    ("repro.serve.protocol", "DecodeCache.decode", "decode"),
    ("repro.serve.server", "encode_reply", "encode"),
    ("repro.cluster.dispatch", "AuthCluster.check_many", "cluster"),
    ("repro.guard.pipeline", "Guard.check_many", "guard"),
    ("repro.prover.prover", "Prover.find_proof", "prover"),
    ("repro.core.proofs", "Proof.verify", "verify"),
)
ASYNC_POINTS = (
    ("repro.serve.server", "_Connection._serve", "serve"),
)
LAYERS = ("serve", "decode", "encode", "cluster", "cluster_write", "guard",
          "prover", "verify")


class LayerClock:
    """Span stack plus per-layer totals, and the collector's pauses."""

    def __init__(self):
        self.stack = []   # [layer, start, child seconds, gc seconds inside]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.gc_in_s = dict.fromkeys(LAYERS, 0.0)   # pauses inside, nested too
        self.calls = dict.fromkeys(LAYERS, 0)
        self.stages = {"fastpath": 0, "proof_cache": 0, "prover": 0}
        self.gc_s = 0.0
        self.gc_max_s = 0.0
        self.settles = 0          # full collections the harness ran itself
        self._settling = False
        self._gc_start = None
        self._patched = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer):
        self.stack.append([layer, perf_counter(), 0.0, 0.0])

    def leave(self):
        layer, start, child, gc_inside = self.stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child - gc_inside
        self.total_s[layer] += duration
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def span(self, layer):
        return _Span(self, layer)

    # -- the collector -----------------------------------------------------

    def settle(self):
        """Run a full collection between phases, kept out of the
        collector figures: every phase then starts from the same heap
        state, and the collections inside it fall at the same requests
        in every trial."""
        self._settling = True
        try:
            gc.collect()
        finally:
            self._settling = False
        self.settles += 1

    def on_gc(self, phase, info):
        if self._settling:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self._gc_start is None:
            return
        pause = perf_counter() - self._gc_start
        self._gc_start = None
        self.gc_s += pause
        if pause > self.gc_max_s:
            self.gc_max_s = pause
        if self.stack:
            self.stack[-1][3] += pause
            for frame in self.stack:
                self.gc_in_s[frame[0]] += pause

    def start_gc_hook(self):
        gc.callbacks.append(self.on_gc)

    def snapshot(self):
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "gc_in_s": dict(self.gc_in_s),
            "calls": dict(self.calls),
            "stages": dict(self.stages),
            "gc_s": self.gc_s,
            "gc_max_s": self.gc_max_s,
            "settles": self.settles,
        }

    # -- installing the timers ---------------------------------------------

    def install(self):
        import importlib

        from repro.guard.pipeline import stage_label

        for module_name, path, layer in SYNC_POINTS + ASYNC_POINTS:
            module = importlib.import_module(module_name)
            owner = module
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            if (module_name, path, layer) in ASYNC_POINTS:
                timed = self._timed_coroutine(original, layer)
            elif layer == "guard":
                timed = self._timed_guard(original, stage_label)
            elif layer == "verify":
                timed = self._timed_outermost(original, layer)
            else:
                timed = self._timed(original, layer)
            setattr(owner, attr, timed)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _timed(self, original, layer):
        clock = self

        def timed(*args, **kwargs):
            clock.calls[layer] += 1
            clock.enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                clock.leave()

        return timed

    def _timed_outermost(self, original, layer):
        """Proof verification recurses through the proof tree; only the
        outermost call is a span."""
        clock = self

        def timed(*args, **kwargs):
            if clock.stack and clock.stack[-1][0] == layer:
                return original(*args, **kwargs)
            clock.calls[layer] += 1
            clock.enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                clock.leave()

        return timed

    def _timed_guard(self, original, stage_label):
        """A node guard's batch, plus the granting stage of each decision."""
        clock = self

        def timed(*args, **kwargs):
            clock.calls["guard"] += 1
            clock.enter("guard")
            try:
                decisions = original(*args, **kwargs)
            finally:
                clock.leave()
            for decision in decisions:
                if decision.granted:
                    label = stage_label(decision.via, decision.stage)
                    clock.stages[label] = clock.stages.get(label, 0) + 1
            return decisions

        return timed

    def _timed_coroutine(self, original, layer):
        clock = self

        def timed(*args, **kwargs):
            clock.calls[layer] += 1
            return _drive_timed(clock, layer, original(*args, **kwargs))

        return timed


class _Span:
    __slots__ = ("clock", "layer")

    def __init__(self, clock, layer):
        self.clock = clock
        self.layer = layer

    def __enter__(self):
        self.clock.calls[self.layer] += 1
        self.clock.enter(self.layer)

    def __exit__(self, *exc):
        self.clock.leave()
        return False


@types.coroutine
def _drive_timed(clock, layer, coroutine):
    """Run ``coroutine`` to completion, timing each resumption as one
    span of ``layer`` and passing every suspension through unchanged."""
    value, error = None, None
    while True:
        clock.enter(layer)
        try:
            if error is not None:
                yielded = coroutine.throw(error)
            else:
                yielded = coroutine.send(value)
        except StopIteration as stop:
            clock.leave()
            return stop.value
        except BaseException:
            clock.leave()
            raise
        clock.leave()
        value, error = None, None
        try:
            value = yield yielded
        except BaseException as exc:  # re-raised inside the coroutine
            error = exc
