"""Span tracing installed from outside the program.

`Tracer.install()` replaces each public eccspec function listed in SPANS
with a timing wrapper in every eccspec namespace that holds it, which is
where its callers look it up (e.g. `eccspec.verification.matrix_spectrum`,
`eccspec.spectra.symmetric_eigenvalues`), and wraps the public methods of
`Surd` and `ClosedFormSpectrum` on their classes.  `uninstall()` puts the
originals back, so untraced passes run the program unmodified.

A span records name, start, end, parent span and request id; spans stay in
memory until the run writes them out.  Work counts are computed from each
call's inputs and outputs, never from program internals.
"""

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> {public function: span name}.  A name missing from the module is
# skipped, so a later change that deletes a function does not break tracing.
SPANS = {
    "graphs": {
        "all_pairs_distances": "graphs.distances",
        "antipodal_class": "graphs.antipodal",
        "build_multipartite": "graphs.build",
        "complete": "graphs.build",
        "star": "graphs.build",
        "complete_split": "graphs.build",
        "complement": "graphs.build",
        "strong_product": "graphs.build",
    },
    "eccentricity": {
        "eccentricity_matrix": "eccentricity.matrix",
        "ecc_via_complement": "eccentricity.complement",
    },
    "spectra": {
        "symmetric_eigenvalues": "spectra.eig",
        "group_spectrum": "spectra.group",
        "quotient_matrix": "spectra.quotient",
        "quotient_eigenvalues": "spectra.quotient",
        "matrix_spectrum": "spectra.stats",
        "default_grouping_tol": "spectra.stats",
        "energy": "spectra.stats",
        "spectral_radius": "spectra.stats",
        "abs_root_sum": "spectra.stats",
    },
    "closed_form": {
        "multipartite_spectrum_closed": "closed_form.spectrum",
        "multipartite_energy_closed": "closed_form.spectrum",
        "split_quadratic_coefficients": "closed_form.spectrum",
        "antipodal_product_spectrum": "closed_form.product",
        "equienergetic_pair": "closed_form.product",
        "radius_upper_bound": "closed_form.bounds",
        "energy_bounds": "closed_form.bounds",
    },
    "exact": {
        "quadratic_roots": "exact",
        "simplify_value": "exact",
    },
    "verification": {
        "verify_closed_forms": "verification",
        "verify_lemma2": "verification",
        "verify_bounds_and_extremals": "verification",
        "verify_equienergetic": "verification",
        "enumerate_partitions": "verification.enumerate",
    },
    "io": {
        "parse_edge_list": "io.parse",
        "parse_graph6": "io.parse",
        "emit_edge_list": "io.emit",
        "emit_graph6": "io.emit",
    },
    "cli": {"main": "cli.main"},
}

# (module, class) -> span name for every public method and operator
METHOD_SPANS = {
    ("exact", "Surd"): "exact",
    ("closed_form", "ClosedFormSpectrum"): "closed_form.spectrum",
}

# printing and the dataclass plumbing are not work the layers are asked for
UNTRACED_METHODS = {"__repr__", "__str__", "__setattr__", "__delattr__"}

WORK_COUNTS = ("spectra.eig.order_cubed", "graphs.distances.cells", "graphs.distances.levels",
               "io.parse.bytes", "verification.cases", "verification.violations")

SPAN_NAMES = sorted(set(name for table in SPANS.values() for name in table.values()))
LAYERS = sorted(set(name.split(".")[0] for name in SPAN_NAMES))


def layer_of(span_name):
    return span_name.split(".")[0]


def _content_key(array):
    a = np.ascontiguousarray(array)
    return hashlib.sha1(repr((a.shape, a.dtype.str)).encode() + a.tobytes()).digest()


class Tracer:
    """Collects spans and computed work counts while installed."""

    def __init__(self):
        self.spans = []               # (id, name, start, end, parent, request)
        self.request_id = None
        self._stack = []              # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches = []            # (owner, attribute, original)
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.work = Counter()
        self._seen = defaultdict(set)
        self.passes = []              # per-layer figures of each traced pass

    # ----------------------------------------------------------- patching

    def install(self):
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "eccspec" or name.startswith("eccspec."))]
        for module_name, table in SPANS.items():
            module = sys.modules.get(f"eccspec.{module_name}")
            for attr, span in table.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, span)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
        for (module_name, class_name), span in METHOD_SPANS.items():
            cls = getattr(sys.modules.get(f"eccspec.{module_name}"), class_name, None)
            for attr, value in list(vars(cls).items()) if cls is not None else ():
                if inspect.isfunction(value) and attr not in UNTRACED_METHODS and (
                        not attr.startswith("_") or attr.endswith("__")):
                    self._patch(cls, attr, self._wrap(value, span))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -------------------------------------------------------------- spans

    def _wrap(self, fn, span):
        tracer = self
        layer = layer_of(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, span, time.perf_counter(), 0.0]
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.spans.append((span_id, span, frame[2], end,
                                     parent[0] if parent else None, tracer.request_id))
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[3]
                if failed and (parent is None or layer_of(parent[1]) != layer):
                    tracer.errors[layer] += 1
                if not failed:
                    tracer._count(span, args, result)
                if parent is not None:
                    # counting time is tracer cost, kept out of the parent's self time
                    parent[3] += time.perf_counter() - frame[2]
            return result

        return traced

    def _count(self, span, args, result):
        if span == "spectra.eig":
            matrix = np.asarray(args[0])
            self.work["spectra.eig.order_cubed"] += matrix.shape[0] ** 3
            self._seen[span].add(_content_key(matrix))
        elif span == "graphs.distances":
            g = args[0]
            self.work["graphs.distances.cells"] += g.n * g.n
            self.work["graphs.distances.levels"] += int(result.diameter)
            self._seen[span].add(_content_key(g.adjacency))
        elif span == "io.parse":
            self.work["io.parse.bytes"] += len(str(args[0]).encode())
        elif span == "verification" and hasattr(result, "violations"):
            self.work["verification.cases"] += int(result.cases)
            self.work["verification.violations"] += len(result.violations)

    # ---------------------------------------------------------- summaries

    def end_pass(self):
        """Store the per-layer figures of the pass just traced in `passes`
        and reset the counters for the next one."""
        figures = {}
        for span in SPAN_NAMES:
            figures[f"{span}.calls"] = self.calls[span]
            figures[f"{span}.self_s"] = self.self_s[span]
        for key in WORK_COUNTS:
            figures[key] = self.work[key]
        for span in ("spectra.eig", "graphs.distances"):
            calls = self.calls[span]
            figures[f"{span}.unique_frac"] = len(self._seen[span]) / calls if calls else 0.0
        for layer in LAYERS:
            figures[f"{layer}.errors"] = self.errors[layer]
        self.passes.append(figures)
        for counter in (self.calls, self.self_s, self.errors, self.work, self._seen):
            counter.clear()
