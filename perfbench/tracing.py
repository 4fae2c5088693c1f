"""Per-layer tracing of ethbath from outside the package.

`Tracer.install()` replaces every public function of the seven ethbath
modules with a wrapper that records a span (name, start, end, parent) and,
for a few functions, a work count taken from its arguments or result. The
replacement is made in every ethbath module namespace that holds the
function, so names one module imports from another (`cli` imports the
`hamiltonian` build functions directly, `dynamics` imports
`counter_gaussians`) and calls made through module globals
(`spectra.cached_diagonalize` calling `diagonalize`, `load_eigensystem` and
`save_eigensystem`) are traced too.
No file under src/ is changed.

Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the durations of its direct children; a module's
self time is the sum over its spans. With `memory=True`, `tracemalloc` gives
each span the peak of traced memory above its starting level: numpy array
bytes, not LAPACK workspace. It slows Python-level loops several-fold (the
RK4 loop about eightfold), so its round is kept apart from the timed traced
rounds. Metrics name functions by name, so a function that no longer exists
reads as zero calls.
"""

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
import types
from collections import defaultdict

MODULES = ("hamiltonian", "spectra", "thermo", "eth", "states", "dynamics", "cli")
KINDS = (
    "eth-stats", "thermo", "rates", "bcf", "dynamics",
    "scaling", "levelstats", "typicality", "multi-op-rates", "validate",
)
MB = 1e6
CLIPPED_BRACKET = "negative finite-size bracket"


def _complex_factor(*arrays):
    import numpy as np

    return 4 if any(np.iscomplexobj(a) for a in arrays) else 1


# Work counts read from a traced call: name -> hook(counters, bound_args, result).
# Flop counts are computed from dimensions, not measured: 9 n^3 for a dense
# Hermitian eigendecomposition with vectors, 2 n^3 per dense n x n product,
# four times that in complex arithmetic.
def _eigh(c, a, result):
    h = a["H"]
    c["spectra.eigh_gflop"] += 9 * h.dim**3 * _complex_factor(h.matrix) / 1e9


def _to_eigenbasis(c, a, result):
    op, eig = a["op"], a["eig"]
    m = getattr(op, "matrix", op)
    c["spectra.to_eigenbasis_gflop"] += 4 * eig.dim**3 * _complex_factor(m, eig.eigenvectors) / 1e9


def _cache_read(c, a, result):
    c["spectra.cache_read_mb"] += os.path.getsize(a["path"]) / MB


def _cache_write(c, a, result):
    c["spectra.cache_write_mb"] += os.path.getsize(a["path"]) / MB


def _spectral_function(c, a, result):
    c["eth.pairs_binned"] += int(result.counts.sum())


def _rate_matrix(c, a, result):
    c["eth.pairs_binned"] += sum(m.count for m in result)


def _gaussians(c, a, result):
    c["states.gaussians_drawn"] += a["n"]


def _rk4(c, a, result):
    c["dynamics.rk4_steps"] += a["grid"].count - 1


def _matrix_bytes(c, a, result):
    matrix = getattr(result, "matrix", None)
    if matrix is not None:
        c["hamiltonian.matrix_mb"] += matrix.nbytes / MB


HOOKS = {
    "spectra.diagonalize": _eigh,
    "spectra.to_eigenbasis": _to_eigenbasis,
    "spectra.load_eigensystem": _cache_read,
    "spectra.save_eigensystem": _cache_write,
    "eth.spectral_function": _spectral_function,
    "eth.rate_matrix_multi": _rate_matrix,
    "states.counter_gaussians": _gaussians,
    "dynamics.lindblad_evolve": _rk4,
}

# per-layer metric -> (unit, better); the order is the order of BENCHMARK.json
METRICS = {
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{f"{m}.calls": ("count", "lower") for m in MODULES},
    "hamiltonian.matrix_mb": ("MB", "lower"),
    "spectra.eigh_s": ("s", "lower"),
    "spectra.eigh_calls": ("count", "lower"),
    "spectra.eigh_gflop": ("GFLOP", "lower"),
    "spectra.to_eigenbasis_s": ("s", "lower"),
    "spectra.to_eigenbasis_calls": ("count", "lower"),
    "spectra.to_eigenbasis_gflop": ("GFLOP", "lower"),
    "spectra.cache_hits": ("count", "higher"),
    "spectra.cache_misses": ("count", "lower"),
    "spectra.cache_hit_ratio": ("ratio", "higher"),
    "spectra.cache_read_s": ("s", "lower"),
    "spectra.cache_write_s": ("s", "lower"),
    "spectra.cache_read_mb": ("MB", "lower"),
    "spectra.cache_write_mb": ("MB", "lower"),
    "eth.spectral_function_s": ("s", "lower"),
    "eth.rate_matrix_s": ("s", "lower"),
    "eth.pairs_binned": ("count", "lower"),
    "eth.clipped_brackets": ("count", "lower"),
    "states.gaussians_drawn": ("count", "lower"),
    "dynamics.exact_evolve_s": ("s", "lower"),
    "dynamics.exact_evolve_calls": ("count", "lower"),
    "dynamics.mean_force_s": ("s", "lower"),
    "dynamics.lindblad_s": ("s", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.typicality_s": ("s", "lower"),
    "dynamics.bcf_s": ("s", "lower"),
    **{f"cli.{k}_s": ("s", "lower") for k in KINDS},
    "cli.output_mb": ("MB", "lower"),
    **{f"{m}.peak_alloc_mb": ("MB", "lower")
       for m in ("hamiltonian", "spectra", "eth", "dynamics")},
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span durations summed into a metric: metric -> span names
DURATIONS = {
    "spectra.eigh_s": ("spectra.diagonalize",),
    "spectra.to_eigenbasis_s": ("spectra.to_eigenbasis",),
    "spectra.cache_read_s": ("spectra.load_eigensystem",),
    "spectra.cache_write_s": ("spectra.save_eigensystem",),
    "eth.spectral_function_s": ("eth.spectral_function",),
    "eth.rate_matrix_s": ("eth.rate_matrix_multi",),
    "dynamics.exact_evolve_s": ("dynamics.exact_evolve",),
    "dynamics.mean_force_s": ("dynamics.mean_force_state",),
    "dynamics.lindblad_s": ("dynamics.lindblad_evolve_sampled", "dynamics.lindblad_evolve"),
    "dynamics.typicality_s": ("dynamics.typicality_spread",),
    "dynamics.bcf_s": ("dynamics.bath_correlation_function",
                       "dynamics.bcf_from_spectral_function"),
}
CALLS = {
    "spectra.eigh_calls": "spectra.diagonalize",
    "spectra.to_eigenbasis_calls": "spectra.to_eigenbasis",
    "dynamics.exact_evolve_calls": "dynamics.exact_evolve",
}


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, peak bytes above start]
        self.counters = defaultdict(float)
        self.hook_errors = 0
        self._stack = []  # [span index, traced bytes at entry, peak traced bytes]

    def install(self):
        modules = [importlib.import_module(f"ethbath.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    setattr(mod, attr, wrappers[fn])
        if self.memory:  # untraced, get_traced_memory() reads (0, 0)
            tracemalloc.start()

    def stop(self):
        tracemalloc.stop()

    def begin_round(self):
        self.spans.append(["round", time.perf_counter(), None, -1, 0])

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        if name.startswith("hamiltonian."):
            hook = _matrix_bytes
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counters, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    self.hook_errors += 1
            return result

        return traced

    def _enter(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self._stack.append([index, current, current])
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        return index

    def _exit(self, index):
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        _, base, top = self._stack.pop()
        top = max(top, peak)
        span = self.spans[index]
        span[2] = end
        span[4] = top - base
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], top)
        tracemalloc.reset_peak()

    def metrics(self, rounds):
        """Per-layer metrics per round, averaged over the traced rounds."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s[3] >= 0:
                children[s[3]].append(s)
        values = defaultdict(float, self.counters)
        peak_alloc = defaultdict(int)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            if s[0] == "round":
                continue
            by_name[s[0]].append(s)
            module = s[0].split(".", 1)[0]
            kids = children[i]
            values[f"{module}.self_s"] += (s[2] - s[1]) - sum(k[2] - k[1] for k in kids)
            values[f"{module}.calls"] += 1
            peak_alloc[module] = max(peak_alloc[module], s[4])
            if s[0] == "spectra.cached_diagonalize":
                names = {k[0] for k in kids}
                if "spectra.load_eigensystem" in names:
                    values["spectra.cache_hits"] += 1
                elif "spectra.diagonalize" in names:
                    values["spectra.cache_misses"] += 1
        for metric, names in DURATIONS.items():
            for s in (s for n in names for s in by_name[n]):
                if s[3] < 0 or spans[s[3]][0] not in names:  # nested calls of one layer count once
                    values[metric] += s[2] - s[1]
        for metric, name in CALLS.items():
            values[metric] = len(by_name[name])
        for o in (o for r in rounds for o in r["ops"]):
            values[f"cli.{o['kind']}_s"] += o["seconds"]
            values["cli.output_mb"] += o["output_bytes"] / MB
            values["eth.clipped_brackets"] += sum(
                w.startswith(CLIPPED_BRACKET) for w in o["runtime_warnings"]
            )
        values["trace.traced_wall_s"] = sum(r["wall_s"] for r in rounds)
        n = len(rounds)
        out = {m: values[m] / n for m in METRICS if m != "trace.overhead_s"}
        lookups = values["spectra.cache_hits"] + values["spectra.cache_misses"]
        out["spectra.cache_hit_ratio"] = values["spectra.cache_hits"] / lookups if lookups else 0.0
        for module in ("hamiltonian", "spectra", "eth", "dynamics"):
            out[f"{module}.peak_alloc_mb"] = peak_alloc[module] / MB
        return out

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0 if s[2] else None,
                  "parent": s[3], "alloc_mb": s[4] / MB} for s in self.spans],
                fh,
            )
