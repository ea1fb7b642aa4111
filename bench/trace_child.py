"""Run one fourgeo CLI command with every layer boundary wrapped in a span.

    python3 bench/trace_child.py TRACE.json <fourgeo arguments...>

PYTHONPATH must make `fourgeo` importable.  The command runs exactly as
`python3 -m fourgeo.cli <arguments>` would, with the same exit code and
output; on exit TRACE.json receives the import time, per-function call
counts, self times and error counts, the counters the benchmark derives its
ratios from, and the first spans recorded.

A span is (id, parent id, name, start, end).  Spans nest within one thread,
so a span's self time is its duration minus the time covered by its direct
children; that is computed on the fly, so no span list is needed for it.

What gets wrapped, per module of the package (the module is the layer):
every public function, every method (dunder methods included) and property
of every public class, and calculus._require_count.  The wrappers replace the
originals everywhere they are bound: in the defining module, in every module
that did `from .x import y`, in module-level dicts (script._BLOCKS) and under
every alias in a class (Poly.__radd__ = __add__).  Code in private helpers
runs inside the span of the public function that called it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
import types

SPAN_CAP = 2_000
LAYERS = ("cli", "script", "pipeline", "geography", "calculus", "knots", "algebra", "blocks")
EXTRA = {("calculus", "_require_count")}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, errors]
        self.counters = {
            "laurent_terms": 0, "alexander_terms": 0, "ledger_materialized": 0,
            "ledger_kept": 0, "distinguish_pairs": 0, "require_count_poly_evals": 0,
            "stage_attempts": 0, "parse_nodes": 0, "geography_rows": 0,
            "geography_bytes": 0, "max_coeff_bits": 0, "post_s": 0.0,
        }
        self.stages: set = set()
        self.spans: list = []
        self.stack = [[0.0, 0]]  # frames: [time covered by children, span id]
        self.ids = itertools.count(1)
        self.require_depth = 0

    def wrap(self, fn, name: str, post=None, enter=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack, spans, ids, clock = self.stack, self.spans, self.ids, time.perf_counter
        counters = self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            if enter is not None:
                enter(1)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                if enter is not None:
                    enter(-1)
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if not ok:
                    stat[2] += 1
                parent[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent[1], name, t0, t1))
            if post is not None:
                p0 = clock()
                post(args, kwargs, result)
                spent = clock() - p0
                parent[0] += spent  # hook time is the tracer's, not the caller's
                counters["post_s"] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- counters, computed from the values the wrapped functions return ----

    def _bits(self, *values) -> None:
        best = self.counters["max_coeff_bits"]
        for v in values:
            if hasattr(v, "numerator"):
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
        self.counters["max_coeff_bits"] = best

    def hooks(self, script_node_type):
        c = self.counters

        def poly_new(args, kwargs, result):
            self._bits(*args[0].coeffs)

        def laurent_new(args, kwargs, result):
            terms = args[0].terms
            c["laurent_terms"] += len(terms)
            if terms:
                self._bits(max(abs(k) for _, k in terms))

        def record_new(args, kwargs, result):
            self._bits(args[0].e, args[0].sigma)

        def alexander(args, kwargs, result):
            c["alexander_terms"] += len(result.terms)

        def surgery(args, kwargs, result):
            c["ledger_materialized"] += len(result.sw.value.terms)

        def distinguish(args, kwargs, result):
            k = len(result.entries)
            c["distinguish_pairs"] += k * (k - 1) // 2

        def exotic(args, kwargs, result):
            # the CLI prints every entry's ledger
            c["ledger_kept"] += sum(len(e.sw.terms) for e in result.family.entries)

        def evaluate(args, kwargs, result):
            # `build` prints the ledger of the reported record, if it has one
            sw = getattr(result, "sw", None)
            if sw is not None:
                c["ledger_kept"] += len(sw.value.terms)

        def count_nodes(obj) -> int:
            if isinstance(obj, tuple):
                return sum(count_nodes(x) for x in obj)
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                own = 1 if isinstance(obj, script_node_type) else 0
                return own + sum(count_nodes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
            return 0

        def parse(args, kwargs, result):
            c["parse_nodes"] += count_nodes(result)

        def stage(name):
            def hook(args, kwargs, result):
                c["stage_attempts"] += 1
                self.stages.add((name, args[0] if args else kwargs.get("n")))
            return hook

        def scan(args, kwargs, result):
            c["geography_rows"] += len(result)

        def render(args, kwargs, result):
            c["geography_bytes"] += len(result.encode("utf-8"))

        def poly_eval(args, kwargs, result):
            if self.require_depth:
                c["require_count_poly_evals"] += 1

        def require_enter(delta):
            self.require_depth += delta

        posts = {
            "algebra.Poly.__post_init__": poly_new,
            "algebra.LaurentPoly.__post_init__": laurent_new,
            "algebra.Poly.__call__": poly_eval,
            "calculus.ManifoldRecord.__post_init__": record_new,
            "knots.torus_knot_alexander": alexander,
            "knots.knot_surgery": surgery,
            "knots.distinguish_family": distinguish,
            "pipeline.exotic_family": exotic,
            "script.evaluate": evaluate,
            "script.parse": parse,
            "geography.scan": scan,
            "geography.render_csv": render,
            "geography.render_svg": render,
        }
        for s in ("build_cover_block", "build_gluing_surface", "build_k3_block", "build_family"):
            posts[f"pipeline.{s}"] = stage(s)
        enters = {"calculus._require_count": require_enter}
        return posts, enters


def _own(fn, module) -> bool:
    # Functions written in the module's source file; dataclass-generated
    # __init__/__eq__/__repr__ are compiled from strings and are skipped.
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def install(tracer: Tracer, modules: dict) -> int:
    """Wrap the layer boundaries of every module; returns the number of
    distinct functions wrapped."""
    posts, enters = tracer.hooks(modules["script"].Node)
    wrapped: dict[int, object] = {}  # id(original) -> wrapper

    def wrapper_for(fn, layer, qualname):
        if id(fn) not in wrapped:
            name = f"{layer}.{qualname}"
            wrapped[id(fn)] = tracer.wrap(fn, name, posts.get(name), enters.get(name))
        return wrapped[id(fn)]

    for layer, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            public = not attr.startswith("_") or (layer, attr) in EXTRA
            if isinstance(val, types.FunctionType) and public and _own(val, mod):
                wrapper_for(val, layer, val.__qualname__)
            elif isinstance(val, type) and val.__module__ == mod.__name__ and public:
                for cattr, cval in list(vars(val).items()):
                    if cattr.startswith("_") and not (cattr.startswith("__") and cattr.endswith("__")):
                        continue
                    if isinstance(cval, (staticmethod, classmethod)) and _own(cval.__func__, mod):
                        new = type(cval)(wrapper_for(cval.__func__, layer, cval.__func__.__qualname__))
                        setattr(val, cattr, new)
                    elif isinstance(cval, property) and _own(cval.fget, mod):
                        new = property(wrapper_for(cval.fget, layer, cval.fget.__qualname__),
                                       cval.fset, cval.fdel, cval.__doc__)
                        setattr(val, cattr, new)
                    elif isinstance(cval, types.FunctionType) and _own(cval, mod):
                        setattr(val, cattr, wrapper_for(cval, layer, cval.__qualname__))

    # Rebind every module-level reference to a wrapped function: the
    # defining module, `from .x import y` copies, the package namespace and
    # dict tables built at import time.
    for mod in list(modules.values()) + [sys.modules["fourgeo"]]:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and callable(val):
                setattr(mod, attr, wrapped[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in wrapped and callable(item):
                        val[key] = wrapped[id(item)]
    return len(wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fourgeo.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t0
    modules = {layer: sys.modules[f"fourgeo.{layer}"] for layer in LAYERS}
    tracer = Tracer()
    wrapped = install(tracer, modules)
    code = 1
    try:
        code = modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        payload = {
            "import_s": import_s,
            "wrapped": wrapped,
            "stats": tracer.stats,
            "counters": tracer.counters,
            "stage_distinct": len(tracer.stages),
            "spans": tracer.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
