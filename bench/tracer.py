"""Outside-in per-layer tracer for the prefixlab package.

The tracer wraps every public function and method of the layer modules
(``cli``, ``config``, ``tokenizer``, ``model``, ``corruption``, ``guidance``,
``oracle``, ``sampler``, ``harness``) from outside the package. Each wrapped
call is a span owned by the module that defines the function; a layer's self
time is its spans' durations minus the time their child spans cover. The
package source is never edited: ``install`` rebinds the wrappers in every
namespace that holds the original object (including names copied by
``from .x import y``) and ``uninstall`` puts every original back.

On top of per-layer self time and call counts the tracer records per-function
call counts and inclusive times, distinct argument keys for the functions
whose repeated work the benchmark tracks, and sums over selected results.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import time
from types import FunctionType

PACKAGE = "prefixlab"
LAYERS = (
    "cli", "config", "tokenizer", "model", "corruption", "guidance", "oracle",
    "sampler", "harness",
)

# function qualname -> group whose distinct argument keys are counted. The two
# marginal functions share one group keyed by (model, condition, k): both are
# derived from the same prefix law, which one engine could compute once.
DISTINCT_GROUPS = {
    "oracle.prefix_marginal": "oracle.marginal",
    "oracle.prefix_marginal_sites": "oracle.marginal",
    "sampler.rollout_distribution": "sampler.rollout_distribution",
    "model.embedding_params": "model.embedding_params",
}

# function qualname -> (sum name, result -> number)
RESULT_SUMS = {
    "oracle.verify_identities": ("oracle.identity_rows", lambda r: len(r.rows)),
    "sampler.rollout_distribution": ("sampler.law_outcomes", lambda r: len(r.outcomes)),
    "corruption.plan_corruption": ("corruption.plan_sites", lambda r: len(r.selected)),
    "guidance.guided_step": ("guidance.branch_evals", lambda r: r.evaluations),
    "harness.run_sweep": ("harness.cells", len),
}


class Tracer:
    """Collects spans while installed; create one per traced run."""

    def __init__(self):
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.functions: dict[str, list[int]] = {}  # qualname -> [calls, incl_ns]
        self.distinct: dict[str, set] = {g: set() for g in DISTINCT_GROUPS.values()}
        self.sums = {name: 0 for name, _ in RESULT_SUMS.values()}
        self.top_ns = 0
        self._stack: list[list[int]] = []
        self._pinned: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- argument keys -------------------------------------------------------

    def _key(self, value):
        """Hashable key for an argument; unhashable objects count by identity.

        Objects keyed by identity are pinned for the tracer's lifetime so a
        freed model cannot hand its id to a new one.
        """
        try:
            hash(value)
            return value
        except TypeError:
            self._pinned[id(value)] = value
            return ("id", id(value))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        stack = self._stack
        layer_self = self.layer_self_ns
        layer_calls = self.layer_calls
        stat = self.functions.setdefault(qualname, [0, 0])
        group = DISTINCT_GROUPS.get(qualname)
        seen = self.distinct.get(group)
        summed = RESULT_SUMS.get(qualname)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add((tuple(tracer._key(a) for a in args),
                          tuple(sorted((k, tracer._key(v))
                                       for k, v in kwargs.items()))))
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_ns += elapsed
                layer_self[layer] += elapsed - frame[0]
                layer_calls[layer] += 1
                stat[0] += 1
                stat[1] += elapsed
            if summed is not None:
                tracer.sums[summed[0]] += summed[1](result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """Yield (owner, attribute, original, wrapper) for every traced callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _plain_function(obj) and obj.__module__ == mod.__name__:
                    yield mod, name, obj, self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    yield from self._class_targets(obj, layer)

    def _class_targets(self, cls, layer):
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if _plain_function(raw):
                yield cls, attr, raw, self._wrap(raw, layer, qualname)
            elif isinstance(raw, (classmethod, staticmethod)):
                inner = raw.__func__
                yield cls, attr, raw, type(raw)(self._wrap(inner, layer, qualname))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of original function -> wrapper; originals stay alive
        for owner, attr, original, wrapper in self._targets():
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(original, FunctionType):
                wrappers[id(original)] = wrapper
        # Names copied into other modules by ``from .x import y``.
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._pinned.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report --------------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Plain-JSON summary of one traced run of ``wall_s`` seconds."""
        calls = {q: s[0] for q, s in self.functions.items()}
        incl = {q: s[1] / 1e9 for q, s in self.functions.items()}
        distinct = {}
        for group, keys in self.distinct.items():
            members = [q for q, g in DISTINCT_GROUPS.items() if g == group]
            distinct[group] = [len(keys), sum(calls.get(q, 0) for q in members)]
        return {
            "wall_s": wall_s,
            "outside_s": wall_s - self.top_ns / 1e9,
            "layers": {
                layer: {"self_s": self.layer_self_ns[layer] / 1e9,
                        "calls": self.layer_calls[layer]}
                for layer in LAYERS
            },
            "calls": calls,
            "incl_s": incl,
            "distinct": distinct,
            "sums": dict(self.sums),
        }


def _plain_function(obj) -> bool:
    """A function whose span covers its work (a generator's would not)."""
    return isinstance(obj, FunctionType) and not inspect.isgeneratorfunction(obj)


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
