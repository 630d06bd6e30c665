"""Spans around the calls into each ``mvis`` layer, recorded from outside.

The program is not edited. :meth:`Tracer.install` replaces each traced
public function in every ``mvis`` module namespace that binds it, because
``mvis.cli`` and ``mvis.solve`` import what they call by name.
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the index
of the enclosing span or -1. A layer's self time is its span time minus the
time of the spans (and aggregated calls) it encloses.
``PairVisibility.visible_pid`` runs about a million times per second of
search, so it is aggregated into a count and a total time instead of spans.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

#: (module, public name, span name). ``PairVisibility`` is traced as the
#: interval-table build; its ``visible_pid`` method is aggregated.
TRACED = (
    ("mvis.solve", "solve", "solve"),
    ("mvis.solve", "solve_independence", "solve.independence"),
    ("mvis.visibility", "PairVisibility", "visibility.pairvis_build"),
    ("mvis.visibility", "classify_set", "visibility.classify"),
    ("mvis.graphs", "all_pairs_distances", "graphs.apsp"),
    ("mvis.families", "generate", "families.generate"),
    ("mvis.families", "reduction_gprime", "families.reduction"),
    ("mvis.oracles", "oracle", "oracles.oracle"),
    ("mvis.cli", "cmd_verify", "cli.verify"),
    ("mvis.cli", "cmd_check", "cli.check"),
    ("mvis.cli", "cmd_reduce", "cli.reduce"),
)


class Bucket:
    """Per-span-name totals plus counters for one stretch of a run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add(self, other: "Bucket") -> "Bucket":
        out = Bucket()
        for field in ("calls", "total_ns", "self_ns", "counts"):
            merged = dict(getattr(self, field))
            for key, value in getattr(other, field).items():
                merged[key] = merged.get(key, 0) + value
            setattr(out, field, merged)
        return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._bucket = Bucket()
        self._pid = [0, 0, 0]  # visible_pid calls, ns, shortcut calls
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[index] = (name, t0, t1, parent)
                self._close(name, t1 - t0, frame[1])
                if stack:
                    stack[-1][1] += t1 - t0
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, total: int, child: int) -> None:
        b = self._bucket
        b.calls[name] = b.calls.get(name, 0) + 1
        b.total_ns[name] = b.total_ns.get(name, 0) + total
        b.self_ns[name] = b.self_ns.get(name, 0) + total - child

    def _observe(self, name: str, result) -> None:
        """Counters read off a traced call's return value."""
        counts = self._bucket.counts
        if name == "solve":
            counts["solve.nodes"] = (
                counts.get("solve.nodes", 0) + result.stats.nodes_explored
            )
            counts["solve.prunes"] = (
                counts.get("solve.prunes", 0) + result.stats.prunes
            )
        elif name == "visibility.pairvis_build":
            counts["visibility.pairvis_entries"] = counts.get(
                "visibility.pairvis_entries", 0
            ) + sum(len(e) for e in result.entries)

    def _wrap_visible_pid(self, fn):
        agg = self._pid
        stack = self._stack

        def visible_pid(pv, pid, xmask):
            t0 = perf_counter_ns()
            result = fn(pv, pid, xmask)
            dt = perf_counter_ns() - t0
            agg[0] += 1
            agg[1] += dt
            if not pv.interior[pid] & xmask:
                agg[2] += 1
            if stack:
                stack[-1][1] += dt
            return result

        return visible_pid

    def take(self) -> Bucket:
        """The bucket recorded since the last call, and start a new one."""
        b = self._bucket
        calls, ns, shortcuts = self._pid
        b.counts["visibility.visible_pid_calls"] = calls
        b.counts["visibility.visible_pid_ns"] = ns
        b.counts["visibility.visible_pid_shortcuts"] = shortcuts
        self._bucket = Bucket()
        self._pid[:] = [0, 0, 0]
        return b

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Trace every entry of :data:`TRACED` in all loaded mvis modules."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "mvis" or name.startswith("mvis.")
        ]
        pv_class = sys.modules["mvis.visibility"].PairVisibility
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        original = pv_class.visible_pid
        self._patched.append((pv_class, "visible_pid", original))
        pv_class.visible_pid = self._wrap_visible_pid(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
