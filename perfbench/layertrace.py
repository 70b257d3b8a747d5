"""Layer tracing from outside the program.

``Tracer.install()`` replaces each traced public function of bruhatkit with a
timing wrapper, under every module-level name that refers to it (for example
``weyl.multiply`` is also bound in ``bruhat``, ``algdim``, ``deodhar`` and
``complexity``); ``restore()`` puts every original back.  Counters come from
outside the program only: call counts and times from the wrappers, hit
ratios from ``cache_info()`` of the saved originals, and interned elements
from ``RootSystem.element_cache``.  A counter whose source is gone is
reported as absent instead of failing the run.

Each thread keeps its own frame stack, so the scan thread pool's workers
trace correctly; a worker's frames have no parent, and the time the calling
thread spends waiting on the pool counts as that caller's self time.
Frequent calls (``HOT``) are aggregated; every other call is kept as a span
``(id, parent id, name, start, end)`` in memory, up to ``MAX_SPANS``.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

#: Traced functions, as module -> names.  The layer of a function is its
#: module's name.
TRACED = {
    "rootsys": ("root_system",),
    "weyl": ("multiply", "enumerate_group", "canonical_order",
             "left_parabolic_decomposition", "right_parabolic_decomposition"),
    "bruhat": ("bruhat_le", "interval", "lower_covers", "upper_covers_le",
               "saturated_chain", "edge_label"),
    "algdim": ("ad", "ad_direct", "ad_recursive", "ad_via_chain",
               "ad_via_covers_at", "is_toric", "span_rank",
               "max_toric_below_top", "max_toric_above_bottom"),
    "deodhar": ("enumerate_distinguished", "positive_distinguished",
                "td_span", "deodhar_polynomial"),
    "complexity": ("scan", "torus_complexity_richardson",
                   "torus_complexity_schubert", "levi_borel_complexity",
                   "partial_flag_torus_complexity",
                   "partial_flag_levi_complexity"),
    "cli": ("main",),
}

#: Functions called too often to keep one span per call.
HOT = {"weyl.multiply", "bruhat.bruhat_le", "algdim.span_rank",
       "algdim.is_toric", "algdim.ad"}

#: Cached functions whose cache_info() is read, as (module, name).
CACHES = {"weyl.reduced_word": ("weyl", "reduced_word"),
          "bruhat.bruhat_le": ("bruhat", "bruhat_le"),
          "bruhat.interval": ("bruhat", "interval"),
          "algdim.ad": ("algdim", "ad")}

WITNESS = {"algdim.max_toric_below_top", "algdim.max_toric_above_bottom"}
MAX_SPANS = 200_000


class _Thread:
    """Per-thread frame stack and totals, merged after the pass."""

    def __init__(self):
        self.stack: list[list] = []   # [name, span id, child seconds]
        self.depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}   # outermost calls only
        self.self_s: dict[str, float] = {}
        self.witness_depth = 0
        self.deodhar_depth = 0
        self.deodhar_multiply = 0
        self.witness_candidates = 0
        self.td_s = 0.0
        self.interval_elements = 0
        self.masks = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.systems: dict[int, object] = {}
        self.scan_rows = 0
        self.untraced: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bruhatkit" or name.startswith("bruhatkit.")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"bruhatkit.{layer}")
            for fname in names:
                full = f"{layer}.{fname}"
                fn = getattr(home, fname, None)
                if fn is None:
                    self.untraced.append(full)
                    continue
                self.originals[full] = fn
                wrapper = self._wrap(full, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def cache(self, key: str):
        """The original cached function behind a counter, or None."""
        layer, fname = CACHES[key]
        fn = self.originals.get(key)
        if fn is None:
            fn = getattr(sys.modules.get(f"bruhatkit.{layer}"), fname, None)
        return fn if hasattr(fn, "cache_info") else None

    # -- frames -------------------------------------------------------------

    def _thread(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def _enter(self, st: _Thread, name: str) -> list:
        st.depth[name] = st.depth.get(name, 0) + 1
        if name in WITNESS:
            st.witness_depth += 1
        elif name.startswith("deodhar."):
            st.deodhar_depth += 1
        frame = [name, None, 0.0]
        if name not in HOT:
            with self._lock:
                if len(self.spans) < MAX_SPANS:
                    frame[1] = len(self.spans)
                    self.spans.append(None)
                else:
                    self.dropped_spans += 1
        st.stack.append(frame)
        return frame

    def _exit(self, st: _Thread, frame: list, start: float, end: float,
              count: bool = True) -> None:
        name, span_id, child = frame
        dt = end - start
        st.stack.pop()
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[2] += dt
        st.depth[name] -= 1
        if name in WITNESS:
            st.witness_depth -= 1
        elif name.startswith("deodhar."):
            st.deodhar_depth -= 1
        if count:
            st.calls[name] = st.calls.get(name, 0) + 1
        if not st.depth[name]:
            st.total[name] = st.total.get(name, 0.0) + dt
        st.self_s[name] = st.self_s.get(name, 0.0) + dt - child
        if span_id is not None:
            self.spans[span_id] = (span_id, parent[1] if parent else None,
                                   name, start, end)
        if name == "algdim.span_rank" and parent is not None and (
                parent[0] in ("cli.main", "deodhar.td_span")):
            st.td_s += dt

    def _wrap(self, name: str, fn):
        tracer = self
        after = {"rootsys.root_system": self._after_root_system,
                 "bruhat.interval": self._after_interval,
                 "deodhar.enumerate_distinguished": self._after_masks,
                 }.get(name)
        interval_info = (getattr(fn, "cache_info", None)
                         if name == "bruhat.interval" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._thread()
            if name == "weyl.multiply" and st.deodhar_depth:
                st.deodhar_multiply += 1
            elif name == "algdim.is_toric" and st.witness_depth:
                st.witness_candidates += 1
            misses = interval_info().misses if interval_info else None
            frame = tracer._enter(st, name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame, start, perf_counter())
            if after is not None:
                after(result, misses)
            if name == "complexity.scan":
                return tracer._scan_rows(result)
            return result

        return wrapper

    def _scan_rows(self, rows):
        # scan() returns a generator whose rows are computed as the CLI
        # reads them; time each resumption as more complexity.scan work.
        it = iter(rows)
        while True:
            st = self._thread()
            frame = self._enter(st, "complexity.scan")
            start = perf_counter()
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self._exit(st, frame, start, perf_counter(), count=False)
            self.scan_rows += 1
            yield row

    def _after_root_system(self, rs, _misses) -> None:
        self.systems[id(rs)] = rs

    def _after_interval(self, iv, misses) -> None:
        info = self.originals["bruhat.interval"].cache_info
        if misses is not None and info().misses > misses:
            self._thread().interval_elements += len(iv)

    def _after_masks(self, masks, _misses) -> None:
        self._thread().masks += len(masks)

    # -- results ------------------------------------------------------------

    def _sum(self, field: str, names) -> float:
        return sum(getattr(st, field).get(n, 0) for st in self._threads
                   for n in names)

    def _count(self, field: str) -> int:
        return sum(getattr(st, field) for st in self._threads)

    def total(self, *names: str) -> float:
        """Seconds spent in the named functions, outermost calls only."""
        return self._sum("total", names)

    def _layer_self(self, layer: str) -> float:
        return sum(v for st in self._threads for n, v in st.self_s.items()
                   if n.startswith(layer + "."))

    def cache_counts(self) -> dict[str, tuple[int, int, int] | None]:
        out = {}
        for key in CACHES:
            fn = self.cache(key)
            info = fn.cache_info() if fn is not None else None
            out[key] = ((info.hits, info.misses, info.currsize)
                        if info else None)
        return out

    def metrics(self, before: dict, after: dict, build_s: float) -> dict:
        """Per-layer metrics for one pass; ``before``/``after`` are
        cache_counts() around the timed phase and ``build_s`` the time of
        the set-up builds.  Absent counters are None."""

        def calls(key):
            if before[key] is None or after[key] is None:
                return None
            return (after[key][0] - before[key][0]
                    + after[key][1] - before[key][1])

        def hit_ratio(key):
            n = calls(key)
            if n is None:
                return None
            return (after[key][0] - before[key][0]) / n if n else 0.0

        def count(name):
            return (self._sum("calls", [name])
                    if name in self.originals else None)

        interned = None
        if all(hasattr(rs, "element_cache") for rs in self.systems.values()):
            interned = sum(len(rs.element_cache)
                           for rs in self.systems.values())
        interval = after["bruhat.interval"]
        total = self.total
        masks = self._count("masks")
        multiply_deodhar = self._count("deodhar_multiply")
        return {
            "rootsys.build_s": build_s,
            # The CLI builds its own root system for every op.
            "rootsys.op_build_s": (total("rootsys.root_system") - build_s
                                   if "rootsys.root_system" in self.originals
                                   else None),
            "weyl.enumerate_s": total("weyl.enumerate_group"),
            "weyl.order_s": total("weyl.canonical_order"),
            "weyl.parabolic_s": total("weyl.left_parabolic_decomposition",
                                      "weyl.right_parabolic_decomposition"),
            "weyl.multiply_calls": count("weyl.multiply"),
            "weyl.multiply_s": total("weyl.multiply"),
            "weyl.interned_elements": interned,
            "weyl.reduced_word_hit_ratio": hit_ratio("weyl.reduced_word"),
            "bruhat.le_calls": calls("bruhat.bruhat_le"),
            "bruhat.le_hit_ratio": hit_ratio("bruhat.bruhat_le"),
            "bruhat.interval_calls": calls("bruhat.interval"),
            "bruhat.interval_hit_ratio": hit_ratio("bruhat.interval"),
            "bruhat.interval_evictions": (interval[1] - interval[2]
                                          if interval else None),
            "bruhat.interval_elements": (self._count("interval_elements")
                                         if interval else None),
            "bruhat.self_s": self._layer_self("bruhat"),
            "algdim.ad_calls": calls("algdim.ad"),
            "algdim.ad_hit_ratio": hit_ratio("algdim.ad"),
            "algdim.witness_s": total(*WITNESS),
            "algdim.witness_candidates": self._count("witness_candidates"),
            "algdim.self_s": self._layer_self("algdim"),
            "deodhar.masks": masks,
            "deodhar.enumerate_s": total("deodhar.enumerate_distinguished"),
            "deodhar.td_s": total("deodhar.td_span") + self._count("td_s"),
            "deodhar.useful_ratio": (masks / multiply_deodhar
                                     if multiply_deodhar else 0.0),
            "complexity.scan_s": total("complexity.scan"),
            "complexity.self_s": self._layer_self("complexity"),
            "complexity.rows": self.scan_rows,
            "cli.self_s": self._layer_self("cli"),
        }

    def span_records(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]
