"""In-memory span tracer that wraps the library's public functions at run time.

The library source is never edited: each traced function is replaced, on
the object its callers look it up on, by a wrapper that records a span
(name, start, end, parent span, op id). ``embed`` for instance is imported
by name into ``pocketrag.app_index`` and ``pocketrag.task_memory``, so the
wrapper is installed on each of those modules. ``uninstall`` restores the
originals. A span may also carry a label taken from the call and its result,
such as the memory route of a lookup or the index a retrieval ran on.

Spans recorded while ``op`` is ``SETUP`` belong to set-up, those recorded
while it is ``OUTSIDE`` (the benchmark's own checks) are ignored, and every
other span belongs to the op whose id ``op`` held. Self time is a span's
duration minus the durations of its direct children; in one thread children
never overlap, so their sum is the part of the interval they cover.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP = -1
OUTSIDE = -2


def _embed_text(args, result):
    return args[1]


def _retrieval(args, result):
    """``<index>:<found|rejected>``, the index being ``store`` or ``local``.

    ``select_and_open_app`` builds the store index with ``installed=False``;
    every other index holds installed apps. The first record is read without
    copying the index, so labelling stays cheap on a large catalog.
    """
    first = next(iter(args[0]._records.values()), None)
    index = "store" if first is not None and not first.installed else "local"
    return f"{index}:{'found' if result.found else 'rejected'}"


def _store(args, result):
    return "store" if result.installed_from_store else "local"


def _kind(args, result):
    return result.kind


def _status(args, result):
    return result.status


def targets():
    """(owner, attribute, span name, labeller) for every traced call site."""
    from pocketrag import agent, app_index, bench, planning, simulator, task_memory

    import workloads

    return [
        (app_index, "embed", "embedding.embed", _embed_text),
        (task_memory, "embed", "embedding.embed", _embed_text),
        (app_index.AppIndex, "build", "app_index.build", None),
        (app_index.AppIndex, "retrieve", "app_index.retrieve", _retrieval),
        (app_index.AppIndex, "register", "app_index.register", None),
        (agent, "select_and_open_app", "agent.select_and_open_app", _store),
        (task_memory.MemoryStore, "lookup", "task_memory.lookup", _kind),
        (task_memory.MemoryStore, "commit", "task_memory.commit", None),
        (agent, "replay", "task_memory.replay", _status),
        (simulator.Device, "execute", "simulator.execute", None),
        (simulator.Device, "observe", "simulator.observe", None),
        (workloads.RenderingPlanner, "plan", "planning.plan", None),
        (planning, "render_context_blocks", "planning.render_context", None),
        (planning.EffectReflector, "reflect", "planning.reflect", None),
        (agent, "run_task", "agent.run_task", None),
        (bench, "run_task", "agent.run_task", None),
        (agent, "search", "web_search.search", None),
        (bench, "compute_metrics", "metrics.compute_metrics", None),
        (bench, "load_pack", "bench.load_pack", None),
    ]


class Tracer:
    """Records spans in flat arrays: name code, start, end, parent index, op id, label code."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.label = array("q")  # -1 for a span without a label
        self.label_names: list = []
        self._label_codes: dict = {}
        self.op = OUTSIDE
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, labeller=None):
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            op = self.op
            self.name_code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(op)
            self.label.append(-1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if labeller is not None:
                self.label[index] = self._label_code(labeller(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _label_code(self, label) -> int:
        code = self._label_codes.get(label)
        if code is None:
            code = self._label_codes[label] = len(self.label_names)
            self.label_names.append(label)
        return code

    def install(self) -> None:
        for owner, attr, name, labeller in targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, labeller))
            else:
                patched = self.wrap(name, raw, labeller)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span ``bench.op``."""
        self.op = op_id
        try:
            return self.wrap("bench.op", fn)(*args)
        finally:
            self.op = OUTSIDE

    def summary(self, ops: int, setups: int) -> dict:
        """Per span name: op-phase calls, self time and p50 duration; set-up self time."""
        code = np.frombuffer(self.name_code, dtype=np.uint16)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op_id, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - child
        rows = {}
        for i, name in enumerate(self.names):
            in_op = (code == i) & (op >= 0)
            in_setup = (code == i) & (op == SETUP)
            rows[name] = {
                "calls_per_op": int(in_op.sum()) / ops,
                "self_ms_per_op": float(own[in_op].sum()) * 1e3 / ops,
                "p50_us": float(np.median(duration[in_op])) * 1e6 if in_op.any() else 0.0,
                "setup_calls": int(in_setup.sum()),
                "setup_self_ms_per_setup": float(own[in_setup].sum()) * 1e3 / max(setups, 1),
            }
        return rows

    def _in_op(self, name: str, match=None) -> np.ndarray:
        """Mask of op-phase spans called ``name`` whose label satisfies ``match``."""
        code = self._codes.get(name, -1)
        mask = (np.frombuffer(self.name_code, dtype=np.uint16) == code) & (
            np.frombuffer(self.op_id, dtype=np.int64) >= 0
        )
        if match is not None:
            wanted = [i for i, label in enumerate(self.label_names) if match(label)]
            mask &= np.isin(np.frombuffer(self.label, dtype=np.int64), wanted)
        return mask

    def label_count(self, name: str, match=None) -> int:
        """Op-phase calls of ``name``, only those whose label satisfies ``match`` if given."""
        return int(self._in_op(name, match).sum())

    def distinct_labels(self, name: str) -> int:
        labels = np.frombuffer(self.label, dtype=np.int64)[self._in_op(name)]
        return len(np.unique(labels[labels >= 0]))

    def p50_us(self, name: str, match=None) -> float:
        """Median inclusive duration of the op-phase calls ``label_count`` counts; 0 if none."""
        mask = self._in_op(name, match)
        if not mask.any():
            return 0.0
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(np.median(duration[mask])) * 1e6

    def write(self, path: Path) -> None:
        """Spans as a NumPy archive: ``names`` plus one array per span field."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_code, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
            label=np.frombuffer(self.label, dtype=np.int64),
            label_names=np.array([str(label) for label in self.label_names]),
        )
