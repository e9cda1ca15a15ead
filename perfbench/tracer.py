"""Per-layer spans around gpgraph's public functions, installed from outside.

The tracer wraps each entry point in ENTRY_POINTS and rebinds the wrapper
wherever a loaded `gpgraph.*` module holds the original, so from-imports
such as `verify.generalized_power_graph` or `cli.run_all` are traced too.
An entry point that no longer exists is reported as absent. Methods and
properties are wrapped on their class.

A span's self time is its duration minus the time of the spans it encloses.
The tracer's own bookkeeping after a call (result hooks) is charged to a
separate `trace.hooks` bucket, so self times plus hooks add up to the root
span, which the benchmark opens around each traced pass.

`Marks` is the untraced run's only instrument: it records when each call
into two public functions starts, so that run.py can cut a pass into
segments at the same points every time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute or Class.attribute)
ENTRY_POINTS = (
    ("cli.main", "gpgraph.cli", "main"),
    ("verify.run_all", "gpgraph.verify", "run_all"),
    ("catalog.catalog_up_to", "gpgraph.catalog", "catalog_up_to"),
    ("catalog.build", "gpgraph.catalog", "build"),
    ("catalog.build_cached", "gpgraph.catalog", "build_cached"),
    ("groups.validate_and_build", "gpgraph.groups", "validate_and_build"),
    ("groups.parse_cayley_table", "gpgraph.groups", "parse_cayley_table"),
    ("groups.read_cayley_table", "gpgraph.groups", "read_cayley_table"),
    ("groups.masks", "gpgraph.groups", "FiniteGroup.cyclic_subgroup_masks"),
    ("groups.orders", "gpgraph.groups", "FiniteGroup.orders"),
    ("powergraph.gp", "gpgraph.powergraph", "generalized_power_graph"),
    ("powergraph.pg", "gpgraph.powergraph", "power_graph"),
    ("graphs.init", "gpgraph.graphs", "SimpleGraph.__init__"),
    ("graphs.induced", "gpgraph.graphs", "SimpleGraph.induced_subgraph"),
    ("graphs.components", "gpgraph.graphs", "SimpleGraph.connected_components"),
    ("graphs.is_complete", "gpgraph.graphs", "SimpleGraph.is_complete"),
    ("graphs.k5_probe", "gpgraph.graphs", "SimpleGraph.contains_k5_clique"),
    ("planarity.is_planar", "gpgraph.planarity", "is_planar"),
    ("planarity.blocks", "gpgraph.planarity", "biconnected_components"),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0   # inclusive
    self_s: float = 0.0
    keys: set = field(default_factory=set)


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _hook_build(tracer, args, kwargs, result, duration):
    tracer.spans["catalog.build"].keys.add(str(_arg(args, kwargs, 0, "spec")))


def _hook_gp(tracer, args, kwargs, result, duration):
    group = _arg(args, kwargs, 0, "group")
    convention = _arg(args, kwargs, 1, "convention")
    tracer.spans["powergraph.gp"].keys.add(
        (group.n, hash(group.table.tobytes()), str(convention)))
    tracer.counters["powergraph.edges_built"] += result.edge_count()


def _hook_pg(tracer, args, kwargs, result, duration):
    tracer.counters["powergraph.edges_built"] += result.edge_count()


def _hook_is_planar(tracer, args, kwargs, result, duration):
    span = tracer.spans.setdefault(f"planarity.method.{result.method}", Span())
    span.calls += 1
    span.total_s += duration


def _hook_catalog(tracer, args, kwargs, result, duration):
    key = (_arg(args, kwargs, 0, "max_order"), bool(_arg(args, kwargs, 1, "dedupe", True)))
    tracer.catalog_sizes[key] = len(result)


HOOKS = {
    "catalog.build": _hook_build,
    "powergraph.gp": _hook_gp,
    "powergraph.pg": _hook_pg,
    "planarity.is_planar": _hook_is_planar,
    "catalog.catalog_up_to": _hook_catalog,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gpgraph" or name.startswith("gpgraph."))]


def find_caches() -> dict:
    """Every functools cache in gpgraph's modules and classes, by qualified name."""
    found = {}
    for module in _package_modules():
        for value in list(vars(module).values()):
            holders = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            for obj in holders:
                if (str(getattr(obj, "__module__", "")).startswith("gpgraph")
                        and callable(getattr(obj, "cache_clear", None))
                        and callable(getattr(obj, "cache_info", None))):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def rebind(original, replacement, restore: list) -> None:
    """Put `replacement` wherever a loaded gpgraph module holds `original`,
    noting each change in `restore` as (module, name, original)."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                restore.append((module, key, original))


def _undo(restore: list) -> None:
    while restore:
        owner, key, original = restore.pop()
        setattr(owner, key, original)


# Calls at whose start the end-to-end run cuts a pass into segments: the
# package's public group builder and GP constructor. They run about 3,200
# times in a verify-96 pass, at most tens of milliseconds apart, and at the
# same points of every pass.
SEGMENT_POINTS = (
    ("gpgraph.catalog", "build"),
    ("gpgraph.powergraph", "generalized_power_graph"),
)


class Marks:
    """While installed, the perf_counter time of every call into SEGMENT_POINTS.

    Costs about 0.5 us per call, about 1.5 ms of a 2 s verify-96 pass. A point that
    no longer exists is listed in `absent` and cuts nothing.
    """

    def __init__(self):
        self.times: list[float] = []
        self.absent: list[str] = []
        self._restore: list = []

    def __enter__(self):
        times, clock = self.times, time.perf_counter
        for module_name, attr in SEGMENT_POINTS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue

            def marked(*args, _original=original, **kwargs):
                times.append(clock())
                return _original(*args, **kwargs)

            marked.__wrapped__ = original
            rebind(original, marked, self._restore)
        return self

    def __exit__(self, *exc):
        _undo(self._restore)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {name: Span() for name, _, _ in ENTRY_POINTS}
        self.counters = {"powergraph.edges_built": 0}
        self.catalog_sizes: dict = {}
        self.hooks_s = 0.0
        self.hook_errors: list[str] = []
        self.root_self_s = 0.0
        self.absent: list[str] = []
        self.originals: dict = {}
        self._stack: list[float] = []
        self._restore: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                inner = stack.pop()
                span.calls += 1
                span.total_s += d
                span.self_s += d - inner
                if stack:
                    stack[-1] += d
            if hook is not None:
                h0 = clock()
                try:
                    hook(self, args, kwargs, result, d)
                except Exception as exc:  # a hook must never fail the traced call
                    self.hook_errors.append(f"{name}: {exc!r}")
                h = clock() - h0
                self.hooks_s += h
                if stack:
                    stack[-1] += h
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        self.absent = []
        found = {}
        for name, module_name, attr in ENTRY_POINTS:
            try:
                found[name] = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
        for name, _, attr in ENTRY_POINTS:
            module = found.get(name)
            if module is None:
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(name)
                    continue
                self.originals[name] = original
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget), original.fset, original.fdel)
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, member, wrapped)
                self._restore.append((owner, member, original))
                continue
            original = getattr(module, member, None)
            if original is None:
                self.absent.append(name)
                continue
            self.originals[name] = original
            rebind(original, self._wrap(name, original), self._restore)

    def uninstall(self) -> None:
        _undo(self._restore)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- the root span -----------------------------------------------------

    def run_root(self, fn):
        """Call fn() as the root span and return its result."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            d = time.perf_counter() - t0
            self.root_self_s += d - self._stack.pop()
        return result

    def self_sum(self) -> float:
        """Self times of every span, hooks and the root: equals the root's duration."""
        return sum(s.self_s for name, s in self.spans.items()
                   if not name.startswith("planarity.method.")) + self.hooks_s + self.root_self_s
