"""Traced ``svageval evaluate``: ``python3 traced.py <spans.json> <args>``.

Wraps the public functions of each layer from outside the package, runs
the command line's ``main`` with ``<args>``, and writes the spans plus the
bytes the worker pool pickled to ``<spans.json>``. The package itself is
not changed. A function a later version no longer has is simply not
traced; spans of worker processes stay in the workers.
"""
from __future__ import annotations

import functools
import json
import multiprocessing.queues
import sys
import time

from svageval import cli

LAYERS = {
    "ingest": ("load_ground_truth", "load_predictions", "validate_split"),
    "pipeline": ("evaluate_datasets", "evaluate_split", "evaluate_query"),
    "spatial": ("hota_sweep", "global_alignment", "match_at_alpha"),
    "idmap": ("build_id_map", "build_temporal_pairs"),
    "temporal": ("evaluate_temporal",),
    "report": ("build_final_report", "write_report"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.pickled = 0

    def wrap(self, name, fn):
        # ``wraps`` keeps the qualified name, so that pickle, which finds a
        # function by name, finds the wrapper in the patched module.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                self.stack.pop()
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "svageval" or n.startswith("svageval.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"svageval.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        tracer = self
        base = multiprocessing.queues._ForkingPickler

        class CountingPickler(base):
            @classmethod
            def dumps(cls, obj, protocol=None):
                data = base.dumps(obj, protocol)
                tracer.pickled += len(data)
                return data

        multiprocessing.queues._ForkingPickler = CountingPickler


if __name__ == "__main__":
    out, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "pickled_bytes": tracer.pickled},
                  fh)
    sys.exit(code)
