"""In-memory spans around calls into rirl's public functions.

The tracer wraps functions from the benchmark's side; the program is
not changed. A function pulled into another module with
`from .x import y` is a second reference to the same object, so
install() replaces every reference it finds in the loaded rirl
modules. Spans record (name, start, end, parent) and stay in memory
until write() puts them in a file; self time is a span's duration
minus the time its child spans cover.
"""

import functools
import importlib
import sys
import time

# (layer metric name, module, attribute); "Class.method" patches the class
LAYERS = [
    ("coupling.expand_batch", "rirl.coupling", "expand_batch"),
    ("coupling.reduce", "rirl.coupling", "reduce"),
    ("coupling.reduce_backward", "rirl.coupling", "reduce_backward"),
    ("nn.dense_forward", "rirl.nn", "DenseLayer.forward"),
    ("nn.dense_backward", "rirl.nn", "DenseLayer.backward"),
    ("nn.adam_step", "rirl.nn", "adam_step"),
    ("stats.kld_batch_grad", "rirl.stats", "kld_batch_grad"),
    ("stats.gaussian_stats", "rirl.stats", "gaussian_stats"),
    ("noderepr.train_node_autoencoder", "rirl.noderepr", "train_node_autoencoder"),
    ("noderepr.encode", "rirl.noderepr", "NodeAutoencoder.encode"),
    ("noderepr.decode_latent", "rirl.noderepr", "NodeAutoencoder.decode_latent"),
    ("relation.train_relation_frozen", "rirl.relation", "train_relation_frozen"),
    ("relation.train_micro_causal", "rirl.relation", "train_micro_causal"),
    ("explore.explore", "rirl.explore", "explore"),
    ("dataio.synth_generate", "rirl.dataio", "synth_generate"),
    ("dataio.load_csv", "rirl.dataio", "load_csv"),
    ("dataio.save_csv", "rirl.dataio", "save_csv"),
    ("persistence.save_node_model", "rirl.persistence", "save_node_model"),
    ("persistence.load_node_model", "rirl.persistence", "load_node_model"),
    ("metrics.emit_tables", "rirl.metrics", "emit_tables"),
    ("metrics.emit_plot", "rirl.metrics", "emit_plot"),
]

# layers whose last return value the benchmark reads for its counters
KEEP_RESULTS = ("explore.explore", "relation.train_micro_causal")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.results = {}        # {KEEP_RESULTS name: last return value}
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.results[name] = out
            return out
        return traced

    def install(self):
        """Wrap every LAYERS function wherever rirl refers to it; returns
        a callable that puts the originals back."""
        undo = []
        for name, module, attr in LAYERS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rirl" and not mod_name.startswith("rirl."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))

        def restore():
            for target, key, original in reversed(undo):
                setattr(target, key, original)
        return restore

    def self_times(self, first, last):
        """{name: (calls, self seconds)} over spans[first:last]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        out = {}
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")

