"""Call counts and timed spans around chainlearn's layer boundaries.

The tracer wraps public functions and methods from outside the program: it
rebinds a module-level function in every chainlearn module that imported it
by value (``from .stake import build_ring`` binds ``build_ring`` in
``ledger``, ``protocol``, ``committees`` and ``attacks``), and replaces a
method on its class under every name the class body binds it to
(``g2_mul = g1_mul`` runs the same code).  Wrappers call straight through,
so the program's outputs are unchanged.

A span records calls, inclusive time and self time, which is the inclusive
time minus the time of spans nested directly inside it.  A counter records
calls only; it is used for leaf calls so hot that timing them would swamp
what they measure.  Spans are kept in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "chainlearn"


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "truthy")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.truthy = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.wrapped: dict[str, list] = {}  # stat name -> the functions it wraps
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list = []

    def stat(self, name: str, fn) -> Stat:
        fns = self.wrapped.setdefault(name, [])
        if fn not in fns:
            fns.append(fn)
        return self.stats.setdefault(name, Stat())

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn, *, outcome: bool = False):
        """``fn`` wrapped in a timed span; with ``outcome`` it also counts
        truthy results (accepted bundles, for example)."""
        stat = self.stat(name, fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.inclusive += elapsed
                stat.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if outcome and result:
                stat.truthy += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        stat = self.stat(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_by_type(self, prefix: str, fn):
        """Span a ``handle(event, now)`` method under ``<prefix>.<event type>``."""
        spans = {}

        @functools.wraps(fn)
        def wrapper(self_, event, now):
            kind = type(event).__name__
            inner = spans.get(kind)
            if inner is None:
                inner = spans[kind] = self.span(f"{prefix}.{kind}", fn)
            return inner(self_, event, now)

        return wrapper

    # -- installation -----------------------------------------------------------

    def patch_function(self, module, attr: str, wrap) -> None:
        """Rebind ``module.attr`` to ``wrap(original)`` wherever a chainlearn
        module holds that same function object."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self._rebind(modules, getattr(module, attr), wrap)

    def patch_method(self, cls, attr: str, wrap) -> None:
        """Replace ``cls.attr`` with ``wrap(original)``, and every alias of it
        in the class body too (``g2_mul = g1_mul`` runs the same code)."""
        self._rebind([cls], cls.__dict__[attr], wrap)

    def _rebind(self, owners, original, wrap) -> None:
        wrapped = wrap(original)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self.replace(owner, key, wrapped)

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
