"""Spans around interax's public entry points, installed from outside.

`Tracer.install()` swaps each traced function for a wrapper in every
interax module that holds it (modules import each other's functions by
name, so patching only the defining module would miss calls), and
`uninstall()` puts the originals back.  A span records name, start, end,
parent span and the job it belongs to.  `Game.value` and
`ExternalGame.value` are too frequent for one span per call: they are
counted and timed in aggregate, and their time is charged to the
innermost open span so that self times exclude it.

Spans nest on the main thread only.  The library's default is threads=1,
and the traced CLI runs pass --threads 1, so no traced work runs on pool
threads; a call that does arrive on another thread is counted but not
nested.
"""

from __future__ import annotations

import sys
import threading
import weakref
from dataclasses import dataclass, field
from time import perf_counter

# module -> public functions wrapped with a span named "<module>.<function>"
SPAN_FUNCTIONS = {
    "calculus": ("mobius_dense", "derivative_table"),
    "indices": ("stv_exact", "shapley", "sii_index", "sii_exact",
                "sii_main_effects", "stv_permutation_oracle"),
    "sampling": ("stv_sampled", "stv_sampled_mom", "sample_permutation"),
    "multilinear": ("taylor_identity_check", "lagrange_remainder_term"),
    "axioms": ("run_axiom_checks",),
    "analysis": ("majority_sweep", "cross_comparison"),
    "cli": ("run",),
}


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0      # time covered by child spans and value calls
    value_calls: int = 0      # value() calls made directly inside this span
    result: object = None     # kept for sampling spans (draw counts)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


@dataclass
class ValueStats:
    calls: int = 0            # every value() call, nested ones included
    outer_calls: int = 0      # calls not made from inside another value()
    seconds: float = 0.0      # wall time of the outer calls
    distinct: int = 0
    external_misses: int = 0
    external_miss_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    values: ValueStats = field(default_factory=ValueStats)
    job: str = ""
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _seen: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)
    _value_depth: int = 0
    _main: int = field(default_factory=threading.get_ident)

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int | None:
        if threading.get_ident() != self._main:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int | None, result=None):
        if idx is None:
            return
        span = self.spans[idx]
        span.end = perf_counter()
        span.result = result if span.name.startswith("sampling.stv") else None
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- value oracle --------------------------------------------------------

    def _value_wrapper(self, fn, external: bool):
        tracer = self
        from interax.games import as_mask

        def value(game, subset):
            # derived games (restricted, relabeled, combined) call value() of
            # the game they wrap; only the outermost call is charged as time
            outer = tracer._value_depth == 0
            tracer._value_depth += 1
            t0 = perf_counter()
            try:
                out = fn(game, subset)
            finally:
                tracer._value_depth -= 1
            dt = perf_counter() - t0
            stats = tracer.values
            stats.calls += 1
            if outer:
                stats.outer_calls += 1
                stats.seconds += dt
            seen = tracer._seen.get(game)
            if seen is None:
                seen = tracer._seen[game] = set()
            mask = as_mask(subset, game.n)
            if mask not in seen:
                seen.add(mask)
                stats.distinct += 1
                if external:
                    stats.external_misses += 1
                    stats.external_miss_s += dt
            if tracer._stack and threading.get_ident() == tracer._main:
                top = tracer.spans[tracer._stack[-1]]
                top.value_calls += 1
                if outer:
                    top.child_s += dt
            return out

        value.__wrapped__ = fn
        return value

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from interax import games
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "interax" or name.startswith("interax."))]
        for short, names in SPAN_FUNCTIONS.items():
            home = sys.modules[f"interax.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._span_wrapper(f"{short}.{fname}", original)
                for module in modules:
                    for attr, val in list(vars(module).items()):
                        if val is original:
                            self._patch(module, attr, wrapped)
        self._patch(games.Game, "dense_table",
                    self._span_wrapper("games.dense_table", games.Game.dense_table))
        self._patch(games.ExternalGame, "__init__",
                    self._span_wrapper("games.external.spawn", games.ExternalGame.__init__))
        self._patch(games.Game, "value", self._value_wrapper(games.Game.value, False))
        self._patch(games.ExternalGame, "value",
                    self._value_wrapper(games.ExternalGame.value, True))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
