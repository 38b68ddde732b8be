"""Outside-in tracing of the package's public functions.

The tracer replaces each traced function by a wrapper in every
``monogamy_lab`` module namespace that binds it (a name imported with
``from .polylp import optimize_over_ns`` is a separate binding in the
importing module), and methods on their class.  Nothing in the package is
edited.  A name that no longer exists is reported as missing instead of
failing, so renaming internals never requires editing the benchmark.

Spans are kept in memory as ``[name, start, end, parent, op, extras]`` and
written out by the caller at exit; per-layer statistics are derived from
them: inclusive seconds, self seconds (span minus its direct children) and
counters read from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

PACKAGE = "monogamy_lab"


# Counters read at a span boundary: (layer, stat) -> f(args, kwargs, result).
# ``failed`` is also counted when the call raises.
COUNTERS = {
    ("polylp.solve", "iterations"): lambda a, k, r: r.iterations,
    ("polylp.solve", "eq_rows"): lambda a, k, r: len((a[0] if a else k["lp"]).eq_rows),
    ("polylp.verify_certificate", "failed"): lambda a, k, r: int(r is not True),
    ("svamp.variational_bound", "failed"): lambda a, k, r: int(not r.satisfied),
    ("quantum.minimize", "nfev"): lambda a, k, r: r.nfev,
}


class Tracer:
    """Wraps the named functions; records spans only while ``enabled``."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.enabled = False
        self.missing: set = set()
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {PACKAGE: package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
        for layer in self.layers:
            module_name, *path = layer.split(".")
            owner = modules.get(module_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.missing.add(layer)
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], wrapper)
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer, fn):
        counters = [(stat, f) for (name, stat), f in COUNTERS.items() if name == layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = {"failed": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counters:
                extras = {}
                for stat, f in counters:
                    try:
                        extras[stat] = f(args, kwargs, result)
                    except (AttributeError, KeyError, IndexError, TypeError):
                        self.missing.add(f"{layer}.{stat}")
                span[5] = extras
            return result

        return wrapper

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict:
        """{layer: {calls, s, self_s, <counters>}} over the recorded spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _op, extras) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[i]
            # inclusive time counts only the outermost span of a recursion
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["s"] += end - start
            for stat, value in (extras or {}).items():
                row[stat] += value
        return out
