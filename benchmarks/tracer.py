"""Span tracer for the traced benchmark run, installed from outside the package.

Every public function of each ``randnet`` module (and the public methods
of the classes that carry per-layer work) is replaced by a wrapper that
records a span: name, thread, start, end, parent span and a few counts
computed from the arguments or the result. ``from .x import f`` binds
``f`` into the importing module at import time, so a wrapper is
installed at every binding of the original object across all loaded
``randnet`` modules; otherwise calls made through a re-export would go
unrecorded.

Spans are kept in memory while recording and written to JSONL at the
end; ``layer_metrics`` turns the spans of one such file into the
per-layer metrics.
The parent stack is thread-local, so the harness's cell threads each
build their own span trees.
"""

import functools
import hashlib
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# Every traced callable as "module:qualname". A name that no longer
# resolves fails the install, so a rename cannot silently zero a metric.
TARGETS = (
    "cli:main",
    "harness:run_bench", "harness:run_stats", "harness:run_train",
    "harness:run_sweep", "harness:materialize_dataset",
    "harness:evaluate_fixed", "harness:accuracy_matrix",
    "selection:grid_search", "selection:expand_grid", "selection:accuracy",
    "selection:auc",
    "methods:train_method", "methods:predict_method", "methods:get_method",
    "methods:resolve_params", "methods:hidden_nodes",
    "methods:build_deep_config",
    "shallow:rvfl_train", "shallow:elm_train", "shallow:kelm_train",
    "shallow:predict", "shallow:make_random_layer",
    "shallow:RandomLayer.transform", "shallow:ShallowModel.design",
    "solvers:ridge_primal", "solvers:ridge_dual", "solvers:ridge_solve",
    "solvers:pinv_solve", "solvers:kernel_matrix", "solvers:krr_fit",
    "solvers:spectral_norm", "solvers:soft_threshold",
    "solvers:lasso_objective", "solvers:fista_lasso",
    "solvers:elastic_net_objective", "solvers:admm_elastic_net",
    "autoencoders:corrupt", "autoencoders:rand_ae_train",
    "autoencoders:kernel_ae_train", "autoencoders:encode",
    "deep:deep_train", "deep:deep_features", "deep:deep_predict",
    "deep:mlkelm_train", "deep:hidden_node_count",
    "numerics:activate", "numerics:concat_cols", "numerics:derive_seed",
    "numerics:check_finite", "numerics:RngState.spawn",
    "numerics:RngState.uniform", "numerics:RngState.gaussian",
    "numerics:RngState.column_orders", "numerics:RngState.shuffled",
    "model_io:save_model", "model_io:load_model",
    "data:load_csv", "data:load_manifest", "data:one_hot",
    "data:fit_scaling", "data:fit_apply_scaling", "data:ScalingStats.apply",
    "data:attach_partitions",
    "config:load_config",
    "ranking:rank_rows", "ranking:friedman_chi2", "ranking:friedman_f",
    "ranking:f_critical", "ranking:nemenyi_q", "ranking:nemenyi_cd",
    "ranking:pairwise_significance", "ranking:significance_marks",
    "ranking:rank_report", "ranking:report_markdown",
    "synthetic:separable_blobs", "synthetic:interleaved_arcs",
)


class CoverageError(RuntimeError):
    """A traced name is gone, or a layer the workload needs recorded no call."""


def _ridge_flops(D, Y, dual):
    # Gram product, right-hand side, Cholesky, triangular solves
    n, p = D.shape
    k = Y.shape[1]
    if dual:
        return 2 * n * n * p + n ** 3 / 3 + 2 * n * n * k + 2 * n * p * k
    return 2 * n * p * p + 2 * n * p * k + p ** 3 / 3 + 2 * p * p * k


def _digest(a):
    return hashlib.sha1(a.tobytes()).hexdigest()[:16]


def _counts(name, args, result):
    """Computed counts attached to a span; pure functions of the call."""
    if name in ("solvers.ridge_primal", "solvers.ridge_dual"):
        return {"flops": _ridge_flops(args[0], args[1], name.endswith("dual"))}
    if name in ("solvers.fista_lasso", "solvers.admm_elastic_net"):
        return {"iters": result.iterations, "converged": bool(result.converged)}
    if name == "numerics.activate":
        return {"bytes": 2 * result.nbytes}
    if name == "numerics.concat_cols":
        parts = list(args[0])
        return {"bytes": 2 * result.nbytes if len(parts) > 1 else 0}
    if name == "shallow.make_random_layer":
        return {"key": f"{args[0]}/{args[1]}/{args[2]}"}
    if name == "autoencoders.rand_ae_train":
        Hin, spec, rng = args[:3]
        return {"key": f"{_digest(Hin)}/{spec!r}/{rng.seed}"}
    if name in ("model_io.save_model", "model_io.load_model"):
        path = args[1] if name.endswith("save_model") else args[0]
        return {"bytes": Path(path).stat().st_size}
    return None


class Tracer:
    """Installs span-recording wrappers; spans are kept until ``dump``."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, t0, t1, counts)
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = _counts(name, args, result)
            with tracer._lock:
                tracer.spans.append((span_id, parent, name,
                                     threading.get_ident(), t0, t1, counts))
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding; raise CoverageError if one is gone."""
        for mod_name in sorted({t.split(":")[0] for t in TARGETS}):
            importlib.import_module(f"randnet.{mod_name}")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "randnet" or n.startswith("randnet."))]
        missing = []
        originals = {}
        for target in TARGETS:
            mod_name, qualname = target.split(":")
            owner = sys.modules[f"randnet.{mod_name}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                missing.append(target)
                continue
            wrapper = self._wrap(f"{mod_name}.{qualname}", fn)
            if cls_path:
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        if missing:
            raise CoverageError("traced names no longer exist: " + ", ".join(missing))
        bound = set()
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    bound.add(id(value))
        if bound != set(originals):
            raise CoverageError("a traced function is bound in no randnet module")

    def dump(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, thread, t0, t1, counts in self.spans:
                doc = {"id": span_id, "parent": parent, "name": name,
                       "thread": thread, "t0": t0, "t1": t1}
                if counts:
                    doc["counts"] = counts
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class SpanIndex:
    """Inclusive and self times per span name, from one trace file."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["t1"] - s["t0"])
        self.self_time = {s["id"]: s["t1"] - s["t0"] - child_time.get(s["id"], 0.0)
                          for s in spans}

    def named(self, *names):
        return [s for name in names for s in self.by_name.get(name, ())]

    def has_ancestor(self, span, names):
        parent = span["parent"]
        while parent is not None:
            p = self.by_id[parent]
            if p["name"] in names:
                return True
            parent = p["parent"]
        return False

    def calls(self, *names):
        return len(self.named(*names))

    def busy(self, *names):
        """Inclusive time of the named spans, not counting one inside another."""
        return sum((s["t1"] - s["t0"] for s in self.named(*names)
                    if not self.has_ancestor(s, names)), 0.0)

    def self_s(self, *names):
        return sum((self.self_time[s["id"]] for s in self.named(*names)), 0.0)

    def count(self, name, key):
        return sum(s["counts"][key] for s in self.named(name))

    def unconverged(self, name):
        return sum(1 for s in self.named(name) if not s["counts"]["converged"])

    def repeat_ratio(self, name):
        keys = [s["counts"]["key"] for s in self.named(name)]
        return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


RNG = tuple(f"numerics.RngState.{m}" for m in
            ("spawn", "uniform", "gaussian", "column_orders", "shuffled"))
SCALING = ("data.fit_scaling", "data.fit_apply_scaling", "data.ScalingStats.apply")
RANKING = tuple("ranking." + t.split(":")[1] for t in TARGETS
                if t.startswith("ranking:"))

# (metric, unit, computed): computed counts must repeat exactly for a seed.
LAYER_METRICS = (
    ("harness.cell_busy_s", "s", False),
    ("harness.cell_max_s", "s", False),
    ("harness.pool_efficiency", "ratio", False),
    ("selection.fits", "count", True),
    ("selection.grid_search.self_s", "s", False),
    ("methods.train_method.calls", "count", True),
    ("methods.train_method.busy_s", "s", False),
    ("methods.predict_method.calls", "count", True),
    ("methods.predict_method.busy_s", "s", False),
    ("shallow.rvfl_train.busy_s", "s", False),
    ("shallow.rvfl_train.self_s", "s", False),
    ("shallow.redraw_ratio", "ratio", True),
    ("shallow.kelm_train.busy_s", "s", False),
    ("shallow.predict.busy_s", "s", False),
    ("solvers.ridge_primal.calls", "count", True),
    ("solvers.ridge_primal.busy_s", "s", False),
    ("solvers.ridge_dual.calls", "count", True),
    ("solvers.ridge_dual.busy_s", "s", False),
    ("solvers.ridge.gflop", "gflop", True),
    ("solvers.kernel_matrix.busy_s", "s", False),
    ("solvers.krr_fit.busy_s", "s", False),
    ("solvers.fista_lasso.busy_s", "s", False),
    ("solvers.fista_lasso.self_s", "s", False),
    ("solvers.fista_lasso.iters", "count", True),
    ("solvers.fista_lasso.unconverged", "count", True),
    ("solvers.lasso_objective.calls", "count", True),
    ("solvers.lasso_objective.busy_s", "s", False),
    ("solvers.spectral_norm.busy_s", "s", False),
    ("solvers.admm_elastic_net.busy_s", "s", False),
    ("solvers.admm_elastic_net.iters", "count", True),
    ("solvers.admm_elastic_net.unconverged", "count", True),
    ("autoencoders.rand_ae_train.calls", "count", True),
    ("autoencoders.rand_ae_train.busy_s", "s", False),
    ("autoencoders.rand_ae_train.self_s", "s", False),
    ("autoencoders.repeat_ratio", "ratio", True),
    ("autoencoders.encode.busy_s", "s", False),
    ("deep.deep_train.self_s", "s", False),
    ("deep.deep_features.busy_s", "s", False),
    ("deep.deep_features.self_s", "s", False),
    ("numerics.activate.busy_s", "s", False),
    ("numerics.activate.gbytes", "GB", True),
    ("numerics.concat_cols.busy_s", "s", False),
    ("numerics.concat_cols.gbytes", "GB", True),
    ("numerics.rng.busy_s", "s", False),
    ("model_io.save_model.busy_s", "s", False),
    ("model_io.load_model.busy_s", "s", False),
    ("model_io.bytes", "bytes", True),
    ("data.scaling.busy_s", "s", False),
    ("config.load_config.busy_s", "s", False),
    ("ranking.busy_s", "s", False),
)


def layer_metrics(spans, parallelism):
    """Per-layer metric values from one traced child's spans."""
    ix = SpanIndex(spans)
    cells = [s["t1"] - s["t0"] for s in ix.named("selection.grid_search")]
    bench_wall = ix.busy("harness.run_bench")
    fits = sum(1 for s in ix.named("methods.train_method")
               if ix.has_ancestor(s, ("selection.grid_search",)))
    values = {
        "harness.cell_busy_s": sum(cells, 0.0),
        "harness.cell_max_s": max(cells, default=0.0),
        "harness.pool_efficiency": (sum(cells) / (parallelism * bench_wall)
                                    if bench_wall else 0.0),
        "selection.fits": fits,
        "selection.grid_search.self_s": ix.self_s("selection.grid_search"),
        "shallow.redraw_ratio": ix.repeat_ratio("shallow.make_random_layer"),
        "solvers.ridge.gflop": (ix.count("solvers.ridge_primal", "flops")
                                + ix.count("solvers.ridge_dual", "flops")) / 1e9,
        "solvers.fista_lasso.iters": ix.count("solvers.fista_lasso", "iters"),
        "solvers.fista_lasso.unconverged": ix.unconverged("solvers.fista_lasso"),
        "solvers.admm_elastic_net.iters": ix.count("solvers.admm_elastic_net", "iters"),
        "solvers.admm_elastic_net.unconverged":
            ix.unconverged("solvers.admm_elastic_net"),
        "autoencoders.repeat_ratio": ix.repeat_ratio("autoencoders.rand_ae_train"),
        "numerics.activate.gbytes": ix.count("numerics.activate", "bytes") / 1e9,
        "numerics.concat_cols.gbytes": ix.count("numerics.concat_cols", "bytes") / 1e9,
        "numerics.rng.busy_s": ix.busy(*RNG),
        "model_io.bytes": (ix.count("model_io.save_model", "bytes")
                           + ix.count("model_io.load_model", "bytes")),
        "data.scaling.busy_s": ix.busy(*SCALING),
        "ranking.busy_s": ix.busy(*RANKING),
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in values:
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = {"calls": ix.calls, "busy_s": ix.busy,
                          "self_s": ix.self_s}[kind](name)
    return values


def check_heavy(spans, heavy):
    """Raise CoverageError if a layer the workload calls heavy recorded no call."""
    names = {s["name"] for s in spans}
    idle = [h for h in heavy if h not in names]
    if idle:
        raise CoverageError("heavy layers recorded no calls: " + ", ".join(idle))
