"""Layer tracing from outside the program.

The tracer wraps the public functions of each zerotrace module and
rebinds every name that refers to them, because modules import each
other's functions by name (``from .exactalg import in_span`` binds
``in_span`` again in zerosets, constructions, maximality and claims).
Patching only the defining module would miss those call sites.

Every wrapped call pushes a frame, so a layer's self time is its calls'
duration minus the duration of the wrapped calls made inside them.
Most calls are also recorded as spans (name, start, end, parent,
request) in flat arrays and written out at the end of a run.  The
functions in LEAF_CALLS run too often to keep a span each: they are
timed, counted and attributed, but not recorded.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: Module suffix -> layer name used in metric names.  ``_kernels`` is
#: named ``kernels`` because metric names must start with a letter.
LAYERS = {
    "cli": "cli",
    "claims": "claims",
    "instances": "instances",
    "zerosets": "zerosets",
    "exactalg": "exactalg",
    "constructions": "constructions",
    "maximality": "maximality",
    "setsystem": "setsystem",
    "littlestone": "littlestone",
    "_kernels": "kernels",
}

#: Kernel entry points; the backend module behind them may be compiled,
#: so they are taken by name from ``zerotrace._kernels``.
KERNEL_FUNCTIONS = ("count_restrictions", "vcdim", "pi", "ldim", "rho")

#: (class path, attribute, span name) for methods worth tracing.
METHODS = (
    ("zerosets.Instance", "image", "zerosets.image"),
    ("zerosets.Sample", "take", "zerosets.Sample.take"),
    ("zerosets.Sample", "prefix", "zerosets.Sample.prefix"),
    ("setsystem.SetFamily", "create", "setsystem.SetFamily.create"),
)

#: Calls made tens of thousands of times per pass: timed and counted,
#: but not kept as spans.
LEAF_CALLS = frozenset(
    {
        "exactalg.dot",
        "exactalg.rank",
        "exactalg.basis_vector",
        "exactalg.scalar_to_str",
        "exactalg.scalar_from_str",
        "zerosets.image",
        "zerosets.point_to_json",
        "kernels.count_restrictions",
        "constructions.grid_membership",
        "setsystem.mask_to_indices",
        "littlestone.leaf_well_labeled",
    }
)


class _Frame:
    __slots__ = ("name", "layer", "child", "span")

    def __init__(self, name, layer, span):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span = span


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.request = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.reset_totals()

    # -- aggregates ---------------------------------------------------------

    def reset_totals(self) -> None:
        """Start a new accumulation window (one pass); spans are kept."""
        self.layer_self = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.calls = Counter()  # (name, parent name or None) -> calls
        self.extra = Counter()  # derived counters such as masks and traces

    def calls_of(self, name: str, parent=None, parent_layer=None) -> int:
        total = 0
        for (callee, caller), n in self.calls.items():
            if callee != name:
                continue
            if parent is not None and caller != parent:
                continue
            if parent_layer is not None and (caller is None or _layer_of(caller) != parent_layer):
                continue
            total += n
        return total

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return got

    def wrap(self, fn, name: str):
        layer = _layer_of(name)
        record = name not in LEAF_CALLS
        name_id = self._name_id(name)
        stack = self._stack
        tracer = self
        is_kernel_entry = layer == "kernels"
        is_flat_walk = name == "zerosets.enumerate_family_flats"
        active = [0]  # nesting depth of this function, for inclusive time

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer.calls[(name, parent.name if parent is not None else None)] += 1
            if is_kernel_entry and (parent is None or parent.layer != "kernels"):
                tracer.extra["kernels.masks_in"] += len(args[0])
            span = -1
            if record:
                span = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent.span if parent is not None else -1)
                tracer.span_request.append(tracer.request)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = _Frame(name, layer, span)
            stack.append(frame)
            active[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[0] -= 1
                duration = end - start
                tracer.layer_self[layer] += duration - frame.child
                if active[0] == 0:
                    tracer.inclusive[name] += duration
                if parent is not None:
                    parent.child += duration
                if record:
                    tracer.span_start[span] = start
                    tracer.span_end[span] = end
            if is_flat_walk:
                tracer.extra["zerosets.traces"] += len(result.sets)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind each name that refers to one."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _zerotrace_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for suffix, module in modules.items():
            if suffix not in LAYERS:  # errors, and the kernel backends behind _kernels
                continue
            if suffix == "_kernels":
                targets = [(n, getattr(module, n)) for n in KERNEL_FUNCTIONS]
            else:
                targets = [
                    (n, obj)
                    for n, obj in vars(module).items()
                    if inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not n.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ]
            for short, fn in targets:
                name = f"{LAYERS[suffix]}.{short}"
                wrappers[id(fn)] = (fn, self.wrap(fn, name))
        for module in [sys.modules["zerotrace"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for class_path, attr, name in METHODS:
            suffix, _, cls_name = class_path.rpartition(".")
            cls = getattr(modules[suffix], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(raw.__func__, name))
            else:
                patched = self.wrap(raw, name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """Gzipped CSV of every recorded span; times in seconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,request\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i},{names[self.span_name[i]]},{self.span_start[i] - origin:.9f},"
                    f"{self.span_end[i] - origin:.9f},{self.span_parent[i]},"
                    f"{self.span_request[i]}\n"
                )


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _zerotrace_modules() -> dict:
    """Loaded zerotrace submodules keyed by their name below the package."""
    out = {}
    for full, module in list(sys.modules.items()):
        if full.startswith("zerotrace.") and module is not None:
            out[full[len("zerotrace."):]] = module
    return out
