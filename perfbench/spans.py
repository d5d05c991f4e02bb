"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  A :class:`Tracer` replaces a
public function at every place it is reachable from -- each loaded
``repro`` module attribute and each class dictionary entry that holds
it -- with a timing wrapper, and :meth:`Tracer.uninstall` puts the
original objects back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Union,
)

__all__ = ["Span", "Tracer", "self_times"]


class Span(NamedTuple):
    """One call through a wrapped boundary."""

    sid: int
    name: str
    start: float
    end: float
    parent: int
    """``sid`` of the enclosing span on the same thread, ``-1`` for a root."""
    group: Hashable
    """Shared by every span of one simulated step or one service job."""
    main: bool
    """Recorded on the thread that created the tracer."""


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of each span by ``sid``: its duration minus the part of
    its interval that its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        pieces = sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
        )
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.sid] = (s.end - s.start) - covered
    return out


def _repro_attributes():
    """(module, name, value) for every attribute of every loaded
    ``repro`` module."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                yield mod, key, value


Observer = Callable[[tuple, dict, Any], None]
NameOf = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Records spans around wrapped calls; installs and removes wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.group: Hashable = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: List[tuple] = []
        self._functions: Dict[int, tuple] = {}
        """id(wrapper) -> (wrapper, original) for wrapped module functions"""

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: NameOf,
        observe: Optional[Observer] = None,
        group_of: Optional[Callable[[tuple, dict], Hashable]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` may be a callable of the call's arguments.  ``observe``
        sees the arguments and the result after the span has ended.
        ``group_of`` sets :attr:`group` for the duration of the call.
        """
        spans, clock, ids, local = self.spans, self.clock, self._ids, self._local
        main = self._main

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            label = name if isinstance(name, str) else name(args, kwargs)
            saved_group = self.group
            if group_of is not None:
                self.group = group_of(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append(Span(
                    sid, label, t0, t1, parent, self.group,
                    threading.get_ident() == main,
                ))
                if group_of is not None:
                    self.group = saved_group
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module: Any, attr: str, name: NameOf,
                       observe: Optional[Observer] = None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that
        imported it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, observe)
        self._functions[id(wrapper)] = (wrapper, original)
        for mod, key, value in _repro_attributes():
            if value is original:
                setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: NameOf,
                     observe: Optional[Observer] = None,
                     group_of=None) -> None:
        """Wrap the method ``cls.attr`` (plain or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self.wrap(raw.__func__, name, observe, group_of)
            )
        else:
            replacement = self.wrap(raw, name, observe, group_of)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> bool:
        """Restore every patched object, including function wrappers that
        modules imported after :meth:`patch_function`; True when no
        wrapper is left and each class again holds its original."""
        functions, self._functions = self._functions, {}
        patches, self._patches = self._patches, []
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
        for mod, key, value in _repro_attributes():
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
        return all(
            vars(owner)[key] is original for owner, key, original in patches
        ) and not any(
            id(value) in functions and functions[id(value)][0] is value
            for _mod, _key, value in _repro_attributes()
        )

    # ------------------------------------------------------------------
    def write(self, path: Path, **header: Any) -> None:
        """Write the spans as JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, default=str) + "\n")
            for s in self.spans:
                fh.write(json.dumps(
                    [s.sid, s.name, s.start, s.end, s.parent, s.group, s.main],
                    default=str,
                ) + "\n")
