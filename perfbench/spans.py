"""Per-layer self time and call counts, recorded by wrapping boda functions.

The wrappers live here, not in ``src/boda``: ``Tracer.install`` swaps each
listed function for a timing wrapper in every boda module namespace that
holds it (modules import each other's functions by name), and
``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it caused.
A call to a function whose layer is already the innermost open span is not
a new span: ``alignment_grad`` and ``alignment_loss`` are one layer, and
``build_graph`` inside ``verify_bound`` stays attributed to ``stats``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Layer name -> the boda functions (module.attribute) that make it up.
# Helpers called many times per layer call (``transferability`` inside
# ``build_graph``, ``check_symmetric``) are left unwrapped on purpose: a
# wrapper per inner call would cost more than the work it times.
LAYERS = {
    "datagen.generate": ["datagen.generate"],
    "datagen.save_dataset": ["datagen.save_dataset"],
    "datagen.load_dataset": ["datagen.load_dataset"],
    "model.forward": ["model.forward"],
    "model.backward": ["model.backward"],
    "model.checkpoint_io": ["model.save_checkpoint", "model.load_checkpoint"],
    "trainer.loop": ["trainer.train"],
    "trainer.optimizer": ["trainer._Optimizer.step"],
    "trainer.stats_refresh": ["trainer._full_pass_stats"],
    "trainer.diagnostics": ["trainer._diagnostics"],
    "losses.align": ["losses.alignment_loss", "losses.alignment_grad"],
    "losses.verify_bound": ["losses.verify_bound"],
    "numerics.inverse_shrunk": ["numerics.inverse_shrunk"],
    "numerics.sym_eig": ["numerics.sym_eig"],
    "stats.group_by_pair": ["stats.group_by_pair"],
    "stats.compute_stats": ["stats.compute_stats"],
    "stats.build_graph": ["stats.build_graph"],
    "stats.transfer_stats": ["stats.transfer_stats"],
    "stats.mds_2d": ["stats.mds_2d"],
    "stats.file_io": ["stats.save_graph", "stats.save_mds_csv",
                      "stats.save_stats"],
    "gradcheck.harness": ["gradcheck.run_gradcheck"],
    "gradcheck.central_difference": ["gradcheck.central_difference"],
    "cli": ["cli.main"],
}

MODULES = ("datagen", "model", "trainer", "losses", "numerics", "stats",
           "gradcheck", "cli")


class Tracer:
    """Accumulates self seconds and calls per layer, and calls per
    (layer, parent layer) edge, while installed."""

    def __init__(self):
        self._stack = []     # open spans: [layer, start, child seconds]
        self._patched = []   # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(int)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "edges": dict(self.edges)}

    def _wrap(self, layer, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - span[1]
                stack.pop()
                self.self_s[layer] += duration - span[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                    self.edges[(layer, stack[-1][0])] += 1

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"boda.{m}") for m in MODULES]
        modules.append(importlib.import_module("boda"))
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, *path = target.split(".")
                owner = importlib.import_module(f"boda.{mod_name}")
                if len(path) == 2:  # a method: patch the class attribute
                    cls = getattr(owner, path[0])
                    original = cls.__dict__[path[1]]
                    self._patch(cls, path[1], original,
                                self._wrap(layer, original))
                    continue
                original = getattr(owner, path[0])
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
