"""In-memory span tracing of sunisb from outside the program.

``Tracer.install`` wraps every public function of the sunisb modules,
the ``Ket`` arithmetic operators and ``LinearOp.__call__``.  The
modules import each other's functions by name, so one function has
several module-level bindings (``irreps.isb_create``,
``checks.build_monomial``, ``su3x.nullspace_dimension``, ...); every
binding is replaced by the same wrapper, otherwise calls through the
other bindings would go unrecorded.

A span is (name, parent, start, end), kept in flat arrays while the
traced code runs and written out once at the end.  A span's self time
is its duration minus the time its child spans cover.  Work counters
are updated by hooks that run inside spans of their own
(``perfbench.counters``), so their cost is not charged to the layer
that called the traced function.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

MODULES = ("fock", "algebra", "isb", "irreps", "linalg", "su3x", "checks")
COUNTER_SPAN = "perfbench.counters"

# Per-layer time metrics: metric name -> the span names whose self time it sums.
SELF_TIME = {
    "fock.apply": ("fock.apply_create", "fock.apply_annihilate"),
    "fock.inner_product": ("fock.inner_product",),
    "fock.ket_arith": (
        "fock.Ket.__add__",
        "fock.Ket.__sub__",
        "fock.Ket.__neg__",
        "fock.Ket.__mul__",
        "fock.Ket.__truediv__",
    ),
    "fock.serialize": (
        "fock.ket_to_document",
        "fock.ket_from_document",
        "fock.dumps_ket",
        "fock.loads_ket",
    ),
    "algebra.invariant_action": ("algebra.invariant_action",),
    "algebra.generator_action": ("algebra.generator_action",),
    "algebra.casimir_op": ("algebra.casimir_op",),
    "isb.create": ("isb.isb_create",),
    "isb.annihilate": ("isb.isb_annihilate",),
    "isb.iterative": ("isb.isb_create_iterative",),
    "irreps.build_monomial": ("irreps.build_monomial",),
    "irreps.gram": ("irreps.monomial_rank",),
    "irreps.nullspace": ("irreps.nullspace_dimension", "irreps.nullspace_basis"),
    "irreps.casimir": ("irreps.casimir_eigenvalue",),
    "linalg.row_echelon": ("linalg.row_echelon",),
    "linalg.integer_rows": ("linalg.integer_rows",),
    "su3x.traceless_state": ("su3x.traceless_state",),
    "su3x.dressed_create": ("su3x.dressed_create_a", "su3x.dressed_create_b"),
    "su3x.ab_generator_action": ("su3x.ab_generator_action",),
}
LAYERS = ("fock", "algebra", "isb", "irreps", "linalg", "su3x", "checks")
COUNTS = (
    "isb.create_terms_in",
    "isb.basis_reuse",
    "irreps.monomials_built",
    "irreps.zero_monomials",
    "irreps.prefix_reuse",
    "linalg.matrix_cells",
    "linalg.max_entry_bits",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.layer_metrics`` reports, in a fixed order."""
    names = []
    for metric in SELF_TIME:
        names += [f"{metric}_s", f"{metric}_calls"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names + list(COUNTS) + ["trace.spans"]


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Span recorder.  One instance traces one interpreter; ``install`` once."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.create_terms_in = 0
        self.basis_actions: set = set()
        self.build_calls = 0
        self.build_prefixes: set = set()
        self.build_prefixes_by_label: set = set()
        self._prefix: list = []
        self._label: tuple = ()
        self.monomials_built = 0
        self.zero_monomials = 0
        self.matrix_cells = 0
        self.max_entry_bits = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name, fn, name_of=None):
        """Wrap fn so each call records a span; ``name_of(args)`` may pick the name."""
        nid = self._name_id(name)
        ids, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        name_id = self._name_id

        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(nid if name_of is None else name_id(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counted(self, span_fn, before=None, after=None):
        """Run counter hooks around span_fn, each inside a span of its own."""
        counter = self._span_wrapper(COUNTER_SPAN, lambda hook, *args: hook(*args))

        def traced(*args, **kwargs):
            if before is not None:
                counter(before, args)
            result = span_fn(*args, **kwargs)
            if after is not None:
                counter(after, args, result)
            return result

        traced.__wrapped__ = span_fn.__wrapped__
        return traced

    # -- counter hooks -------------------------------------------------

    def _before_create(self, args) -> None:
        k, alpha, psi = args[:3]
        self.create_terms_in += len(psi.terms)
        actions = self.basis_actions
        for state in psi.terms:
            actions.add((k, alpha, state))
        # the top of the stack is this hook's own span; below it sits the caller
        stack = self._stack
        if len(stack) > 1 and self.names[self.span_name[stack[-2]]] == "irreps.build_monomial":
            self._prefix.append((k, alpha))
            key = tuple(self._prefix)
            self.build_calls += 1
            self.build_prefixes.add(key)
            self.build_prefixes_by_label.add((self._label, key))

    def _before_build(self, args) -> None:
        label = args[0]
        self._label = label.rows
        self._prefix = [label.n]

    def _after_build(self, args, result) -> None:
        self.monomials_built += 1
        self.zero_monomials += not result.terms

    def _before_echelon(self, args) -> None:
        rows = args[0]
        if rows:
            self.matrix_cells += len(rows) * len(rows[0])
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(rows))

    def _after_echelon(self, args, result) -> None:
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(result[0]))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of every sunisb module, in every module that binds it."""
        import sunisb
        from sunisb import algebra, fock

        modules = [sys.modules[f"sunisb.{m}"] for m in MODULES] + [sunisb]
        hooks = {
            "isb.isb_create": (self._before_create, None),
            "irreps.build_monomial": (self._before_build, self._after_build),
            "linalg.row_echelon": (self._before_echelon, self._after_echelon),
        }
        wrappers = {}
        for module in modules:
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("sunisb."):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    wrapper = self._span_wrapper(name, fn)
                    if name in hooks:
                        wrapper = self._counted(wrapper, *hooks[name])
                    wrappers[fn] = wrapper
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"):
            original = getattr(fock.Ket, attr)
            wrapper = self._span_wrapper(f"fock.Ket.{attr}", original)
            setattr(fock.Ket, attr, wrapper)
            if attr == "__mul__":
                fock.Ket.__rmul__ = wrapper
        algebra.LinearOp.__call__ = self._span_wrapper(
            "algebra.linear_op",
            algebra.LinearOp.__call__,
            name_of=lambda args: "algebra.casimir_op"
            if (args[0].label or "").startswith("C2")
            else "algebra.linear_op",
        )

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in seconds, call count)."""
        n = len(self.span_name)
        starts, ends, parents, ids = self.span_start, self.span_end, self.span_parent, self.span_name
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = ids[i]
            totals[nid] += ends[i] - starts[i] - covered[i]
            calls[nid] += 1
        return {name: (totals[i], calls[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named by ``layer_metric_names``."""
        spans = self.self_times()
        out: dict[str, float] = {}
        for metric, span_names in SELF_TIME.items():
            out[f"{metric}_s"] = sum(spans.get(s, (0.0, 0))[0] for s in span_names)
            out[f"{metric}_calls"] = sum(spans.get(s, (0.0, 0))[1] for s in span_names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, (t, _) in spans.items() if name.split(".", 1)[0] == layer
            )
        out["isb.create_terms_in"] = self.create_terms_in
        out["isb.basis_reuse"] = (
            1 - len(self.basis_actions) / self.create_terms_in if self.create_terms_in else 0.0
        )
        out["irreps.monomials_built"] = self.monomials_built
        out["irreps.zero_monomials"] = self.zero_monomials
        out["irreps.prefix_reuse"] = (
            1 - len(self.build_prefixes) / self.build_calls if self.build_calls else 0.0
        )
        out["linalg.matrix_cells"] = self.matrix_cells
        out["linalg.max_entry_bits"] = self.max_entry_bits
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                ["name", "i", self.span_name.itemsize],
                ["parent", "i", self.span_parent.itemsize],
                ["start", "d", self.span_start.itemsize],
                ["end", "d", self.span_end.itemsize],
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


def load_spans(path: Path) -> list[tuple[str, int, float, float]]:
    """Read a file written by ``Tracer.write`` back as (name, parent, start, end) tuples."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        arrays = []
        for _, code, _ in header["arrays"]:
            arr = array(code)
            arr.fromfile(handle, count)
            arrays.append(arr)
    names = header["names"]
    return [(names[n], p, s, e) for n, p, s, e in zip(*arrays)]
