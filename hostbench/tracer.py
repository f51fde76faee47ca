"""Span recorder and entry-point patcher for the host-time benchmark.

Standard library only.  A :class:`Recorder` keeps every span in memory as
four flat arrays (name id, parent index, start, end) plus a dict of
counters; the parent link is a :class:`contextvars.ContextVar`, so nested
calls into other wrapped entry points record their caller as parent.
Self time of a span is its duration minus the durations of its direct
children, which makes the self times of all spans plus the uncovered
remainder add up to the traced wall time.

A :class:`Patcher` installs wrappers at every binding of an entry point
that the program's modules hold (``repro.sim.engine.tile_gemm`` as well
as ``repro.gemm.tiling.tile_gemm``), and restores the originals on
:meth:`Patcher.undo`.  An entry point that no longer exists is reported
as absent instead of raising, so a later change that renames or removes
one degrades the trace rather than crashing the benchmark.
"""

from __future__ import annotations

import array
import contextvars
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Recorder", "Patcher", "PROGRAM_PACKAGE"]

#: Only modules of this package are searched for bindings to patch.
PROGRAM_PACKAGE = "repro"


class Recorder:
    """In-memory span and counter store of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._child = array.array("d")
        self.counters: dict[str, float] = {}
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "hostbench_span", default=-1
        )

    def span_id(self, name: str) -> int:
        """The integer id of span ``name`` (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap_span(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple], str],
        before: Callable[["Recorder", tuple], None] | None = None,
        after: Callable[["Recorder", Any, tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``name`` may depend on the args."""
        fixed = self.span_id(name) if isinstance(name, str) else None
        current = self._current
        starts, ends, parents = self.start, self.end, self.parent
        names, child = self.name_id, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(self, args)
            nid = fixed if fixed is not None else self.span_id(name(args))
            idx = len(starts)
            names.append(nid)
            parents.append(current.get())
            child.append(0.0)
            ends.append(0.0)
            token = current.set(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                current.reset(token)
                ends[idx] = now
                up = parents[idx]
                if up >= 0:
                    child[up] += now - starts[idx]
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def wrap_count(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` counting its calls under ``name`` without recording spans."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, begin, finish, nested in zip(
            self.name_id, self.start, self.end, self._child
        ):
            duration = finish - begin
            calls[nid] += 1
            inclusive[nid] += duration
            own[nid] += duration - nested
        return {
            name: {"calls": calls[i], "s": inclusive[i], "self_s": own[i]}
            for i, name in enumerate(self.names)
        }

    def children_of(self, parent_name: str, child_name: str) -> int:
        """How many ``child_name`` spans have a ``parent_name`` span as parent."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        up, down = self._ids[parent_name], self._ids[child_name]
        names = self.name_id
        return sum(
            1
            for nid, parent in zip(names, self.parent)
            if nid == down and parent >= 0 and names[parent] == up
        )

    def write(self, directory: Path, stem: str, extra: dict[str, Any]) -> Path:
        """Write the spans (binary arrays) and a JSON index; return the index path.

        ``<stem>.spans`` holds the int32 name ids, int32 parent indices,
        float64 starts and float64 ends, each array back to back; the JSON
        index names them and carries the counters and ``extra``.
        """
        directory.mkdir(parents=True, exist_ok=True)
        spans = directory / f"{stem}.spans"
        with spans.open("wb") as handle:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
        index = directory / f"{stem}.json"
        document = {
            "spans_file": spans.name,
            "span_count": self.span_count,
            "layout": ["name_id:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "byteorder": sys.byteorder,
            "names": self.names,
            "counters": self.counters,
            **extra,
        }
        index.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        return index


class Patcher:
    """Swap entry points of the program for wrappers, and back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    def _resolve(self, module_name: str, qualname: str) -> tuple[Any, str] | None:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if path:
            if attr not in vars(owner):
                return None
        elif not hasattr(owner, attr):
            return None
        return owner, attr

    def patch(
        self,
        module_name: str,
        qualname: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> bool:
        """Wrap ``module_name.qualname`` with ``make(original)``.

        A module-level function is replaced at every module of the program
        that binds the same object; a ``Class.member`` (function, property,
        classmethod or staticmethod) is replaced on the class.  Returns
        ``False`` and records the entry point as absent when it cannot be
        resolved.
        """
        target = f"{module_name}.{qualname}"
        resolved = self._resolve(module_name, qualname)
        if resolved is None:
            self.absent.append(target)
            return False
        owner, attr = resolved
        if isinstance(owner, type):
            raw = vars(owner)[attr]
            if isinstance(raw, property):
                new: Any = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            elif callable(raw):
                new = make(raw)
            else:
                self.absent.append(target)
                return False
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return True
        original = getattr(owner, attr)
        if not callable(original):
            self.absent.append(target)
            return False
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == PROGRAM_PACKAGE or name.startswith(PROGRAM_PACKAGE + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)
        return True

    def undo(self) -> None:
        """Restore every patched binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
