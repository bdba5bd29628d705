"""In-memory spans around the program's public functions, installed from outside.

Each hook replaces a function (or method) with a wrapper that times the
call. A span records (id, name, start, end, parent id); a layer's self time
is its duration minus the time covered by its hooked children. Hot leaf
calls (LPM add/lookup, address checks, logged warnings) run hundreds of
thousands of times, so they are folded into per-(name, parent) counters
instead of being kept one by one; their time still counts as covered time
of the parent span.

A hook whose target no longer exists raises HookMissing: the metric fails
loudly rather than reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


class HookMissing(RuntimeError):
    pass


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "func" or "Class.method"
    hot: bool = False  # leaf called per row/hop/warning: counted, not kept as a span
    observe: Callable | None = None  # (tracer, name, bound args, result) -> None

    @property
    def name(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        return f"{short}.{self.attr.rsplit('.', 1)[-1]}"


def _records(tracer, name, args, result):
    tracer.counters["ingest.records"] += len(result)
    tracer.counters[f"{name}.records"] += len(result)


def _lookup_hit(tracer, name, args, result):
    if result is not None:
        tracer.counters["lpm.lookup.hits"] += 1


def _evidence(tracer, name, args, result):
    _, warnings, matched = result
    tracer.counters["pipeline.traceroutes_scanned"] += len(args.arguments["traceroutes"])
    tracer.counters["pipeline.matched"] += matched
    tracer.counters["pipeline.warnings"] += len(warnings)


_PARSERS = [
    "parse_traceroute_results",
    "parse_prefix_table",
    "parse_geo_table",
    "parse_probe_inventory",
    "parse_population_estimates",
    "parse_country_users",
    "parse_capitals",
]

HOOKS = (
    [Hook("eyeball_jedi.ingest", name, observe=_records) for name in _PARSERS]
    + [
        Hook("eyeball_jedi.lpm", "LpmTable.add", hot=True),
        Hook("eyeball_jedi.lpm", "LpmTable.lookup", hot=True, observe=_lookup_hit),
        Hook("eyeball_jedi.paths", "is_public_address", hot=True),
        Hook("eyeball_jedi.paths", "classify_traceroute"),
        Hook("eyeball_jedi.paths", "extract_as_path"),
        Hook("eyeball_jedi.paths", "classify_locality"),
        Hook("eyeball_jedi.selection", "select_probes"),
        Hook("eyeball_jedi.coverage", "select_dominant_networks"),
        Hook("eyeball_jedi.coverage", "compute_probe_coverage"),
        Hook("eyeball_jedi.pipeline", "load_workspace"),
        Hook("eyeball_jedi.pipeline", "in_country_probes"),
        Hook("eyeball_jedi.pipeline", "gather_evidence", observe=_evidence),
        Hook("eyeball_jedi.pipeline", "build_plan"),
        Hook("eyeball_jedi.pipeline", "write_coverage_outputs"),
        Hook("eyeball_jedi.pipeline", "write_plan_outputs"),
        Hook("eyeball_jedi.pipeline", "write_analysis_outputs"),
        Hook("eyeball_jedi.matrix", "build_matrix"),
        Hook("eyeball_jedi.matrix", "compute_metrics"),
        Hook("eyeball_jedi.matrix", "format_matrix"),
        Hook("eyeball_jedi.matrix", "load_matrix"),
        Hook("eyeball_jedi.render", "render_svg"),
        Hook("logging", "Logger.warning", hot=True),
    ]
)


def resolve(hook: Hook):
    """(owner, attribute, original) for a hook; HookMissing if it is gone."""
    try:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise HookMissing(f"hooked function {hook.module}.{hook.attr} no longer exists: {exc}") from None


def check_hooks() -> None:
    for hook in HOOKS:
        resolve(hook)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [span id, name, covered seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()  # seconds
        self.self_time: Counter[str] = Counter()  # seconds
        self.by_parent: Counter[tuple[str, str | None]] = Counter()
        self.counters: Counter[str] = Counter()
        self._next_id = 0

    # ---- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                self.by_parent[(name, parent[1] if parent else None)] += 1
                self.spans.append((frame[0], name, start, end, parent[0] if parent else None))
            if observe is not None:
                observe(self, name, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration
                self.by_parent[(name, parent[1] if parent else None)] += 1
            if observe is not None:
                observe(self, name, None, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook target, wherever the program bound it by name."""
        for hook in HOOKS:
            owner, attr, original = resolve(hook)
            make = self._hot_wrapper if hook.hot else self._span_wrapper
            wrapper = make(hook.name, original, hook.observe)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)

    # ---- results ----------------------------------------------------------

    def calls_under(self, name: str, parents) -> int:
        return sum(n for (child, parent), n in self.by_parent.items() if child == name and parent in parents)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, parent), n in sorted(self.by_parent.items(), key=str):
                fh.write(json.dumps({"calls": name, "parent": parent, "n": n, "s": self.total[name]}) + "\n")


def _rebind(original, wrapper) -> None:
    """`from .x import f` copies the binding, so replace it in every program module."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("eyeball_jedi"):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def time_setup(on_call: Callable[[float], None]) -> None:
    """Time pipeline.load_workspace alone: the setup_s timer of untraced runs."""
    _, _, original = resolve(Hook("eyeball_jedi.pipeline", "load_workspace"))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            on_call(time.perf_counter() - start)

    _rebind(original, wrapper)
