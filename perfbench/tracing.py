"""Layer spans for the traced run, recorded from outside the package.

Each layer boundary is a module-level function of thetakit.  install()
replaces every binding of it in every loaded thetakit module (the
defining module and each module that imported the name) with a wrapper
that records calls, wall time and self time, and restores them on exit.
Self time is a span's duration minus the durations of the spans it
directly caused.  A boundary that is missing, or whose caller binding
no longer points at it, stops the run instead of reporting zero work.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# layer name -> (defining module, function name, modules that must import it)
BOUNDARIES = {
    "core.theta": (
        "thetakit.core",
        "theta",
        ("thetakit.reduction", "thetakit.identities.engine", "thetakit.notation"),
    ),
    "core.theta_char": ("thetakit.core", "theta_char", ("thetakit.notation", "thetakit.cli")),
    "core.truncation_index": ("thetakit.core", "truncation_index", ()),
    "core.theta1_prime0": ("thetakit.core", "theta1_prime0", ("thetakit.identities.engine",)),
    "core.gauss_product_theta4": (
        "thetakit.core",
        "gauss_product_theta4",
        ("thetakit.identities.engine",),
    ),
    "reduction.full_reduction": (
        "thetakit.reduction",
        "full_reduction",
        ("thetakit.identities.engine", "thetakit.cli"),
    ),
    "reduction.reduce_tau": ("thetakit.reduction", "reduce_tau", ("thetakit.cli",)),
    "reduction.apply_modular_step": ("thetakit.reduction", "apply_modular_step", ()),
    "reduction.reduce_u": ("thetakit.reduction", "reduce_u", ()),
    "reduction.half_period_shift": (
        "thetakit.reduction",
        "half_period_shift",
        ("thetakit.identities.engine",),
    ),
    "reduction.eval_reduced": (
        "thetakit.reduction",
        "eval_reduced",
        ("thetakit.notation", "thetakit.identities.engine", "thetakit.cli"),
    ),
    "notation.elliptic_k": ("thetakit.notation", "elliptic_k", ()),
    "notation.big_theta": ("thetakit.notation", "big_theta", ("thetakit.cli",)),
    "identities.engine.verify": (
        "thetakit.identities.engine",
        "verify",
        ("thetakit.identities", "thetakit.cli"),
    ),
    "identities.dsl.parse_identity": (
        "thetakit.identities.dsl",
        "parse_identity",
        ("thetakit.identities.catalog",),
    ),
    "identities.catalog.builtin_catalog": (
        "thetakit.identities.catalog",
        "builtin_catalog",
        ("thetakit.identities", "thetakit.cli"),
    ),
    "cli.main": ("thetakit.cli", "main", ()),
}


class BoundaryMissing(SystemExit):
    """A wrapped name no longer exists where the trace expects it."""

    def __init__(self, where: str):
        super().__init__(f"perfbench: layer boundary missing: {where}")


class Tracer:
    """Per-layer call counts, wall time and self time, plus kernel windows."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.windows: list[int] = []
        self._stack: list[list[float]] = [[0.0]]

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, wall, self_time, errors = self.calls, self.wall, self.self_time, self.errors
        windows = self.windows if name == "core.truncation_index" else None

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                wall[name] += elapsed
                self_time[name] += elapsed - children[0]
            if windows is not None:
                windows.append(result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def install(self):
        """Wrap every boundary for the duration of the block."""
        originals = {}
        for name, (module_name, attr, callers) in BOUNDARIES.items():
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise BoundaryMissing(f"{module_name}.{attr}")
            for caller in callers:
                if getattr(sys.modules.get(caller), attr, None) is not fn:
                    raise BoundaryMissing(f"{caller}.{attr}")
            originals[name] = fn
        patched = []
        try:
            for name, fn in originals.items():
                wrapper = self.wrap(name, fn)
                for module_name, module in list(sys.modules.items()):
                    if module_name != "thetakit" and not module_name.startswith("thetakit."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)
