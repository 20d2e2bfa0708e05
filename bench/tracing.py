"""Per-layer spans recorded from outside the program.

The tracer replaces, for the length of a traced pass, the names that the
``opstat`` modules look up when they are called, with wrappers that record a
span per call: name, start, end and the span that was open when it began.
Nothing under ``src/`` is edited.  Spans stay in memory (four integer
arrays) and are written out once the run ends.

A layer is a module of the package; a span's layer is the part of its name
before the dot.  A span's self time is its duration minus that of its child
spans, which nest properly because the program is single-threaded.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "verify", "families", "core", "statistics", "paths", "qpoly")

# Generators whose every next() is one object of the family.
_FAMILY_GENERATORS = ("ordered_set_partitions", "set_partitions", "sigma_partitions", "rearrangements")
# functools.cache'd recursions; their top-level spans make qpoly.recursion_s.
_RECURSIONS = (
    "q_factorial", "pq_factorial", "gauss_binomial", "stirling_pq",
    "stirling_q", "s_hat_pq", "carlitz_aq",
)
_PATH_MAPS = ("phi_inv", "psi_inv", "phi", "psi", "varphi", "xi_map", "upsilon")

PER_LAYER_UNITS = {
    "families.gen_ns_per_obj": "ns/obj",
    "families.objects": "count",
    "core.rearranged_ns_per_obj": "ns/obj",
    "statistics.six_composites_ns_per_obj": "ns/obj",
    "statistics.six_composites_calls": "count",
    "statistics.stat_ns_per_call": "ns/call",
    "statistics.stat_calls": "count",
    "statistics.aggregate_profile_ns_per_obj": "ns/obj",
    "statistics.aggregate_profile_calls": "count",
    "statistics.stat_restricted_ns_per_call": "ns/call",
    "statistics.stat_restricted_calls": "count",
    **{f"paths.{name}_ns_per_obj": "ns/obj" for name in _PATH_MAPS},
    "qpoly.mul_ns_per_call": "ns/call",
    "qpoly.mul_calls": "count",
    "qpoly.construct_ns_per_call": "ns/call",
    "qpoly.eq_ns_per_call": "ns/call",
    "qpoly.terms_out": "count",
    "qpoly.recursion_s": "s",
    "verify.self_ns_per_obj": "ns/obj",
    "verify.checks": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _module(name: str):
    # ``import opstat.verify`` binds the *function* verify, which the package
    # re-exports under the module's name; import_module returns the module.
    return importlib.import_module(name)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.nid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.objects = 0
        self.terms_out = 0

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span (used for the root ``cli.main``)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """Each next() on the returned iterator is one span and one object."""
        nid = self._name_id(name)
        tracer = self

        def timed(it):
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.objects += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- installing ---------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._restore.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        cli = _module("opstat.cli")
        verify = _module("opstat.verify")
        paths = _module("opstat.paths")
        families = _module("opstat.families")
        qpoly = _module("opstat.qpoly")
        core = _module("opstat.core")

        def count_terms(poly) -> None:
            self.terms_out += len(poly.terms)

        # names verify looks up
        self._replace(cli, "run_task", self.wrap(cli.run_task, "verify.run_task"))
        for name in _FAMILY_GENERATORS:
            self._replace(verify, name, self.wrap_generator(getattr(verify, name), f"families.{name}"))
        for name in ("beta", "beta_inv"):
            self._replace(verify, name, self.wrap(getattr(verify, name), f"families.{name}"))
        for name in ("six_composites", "stat", "stat_restricted", "aggregate_profile"):
            self._replace(verify, name, self.wrap(getattr(verify, name), f"statistics.{name}"))
        for name in ("xi_map", "upsilon"):
            self._replace(verify, name, self.wrap(getattr(verify, name), f"paths.{name}"))
        self._replace(verify, "verify_zezh", self.wrap(verify.verify_zezh, "qpoly.verify_zezh"))
        # names paths (and beta_inv in families) look up
        for name in ("phi", "phi_inv", "psi", "psi_inv", "varphi"):
            self._replace(paths, name, self.wrap(getattr(paths, name), f"paths.{name}"))
        self._replace(families, "psi_inv", self.wrap(families.psi_inv, "paths.psi_inv"))
        # cached recursions, wherever they are looked up; ``cache_clear``
        # stays reachable on the originals, which the wrappers call
        for module in (qpoly, verify):
            for name in _RECURSIONS:
                if hasattr(module, name):
                    self._replace(module, name, self.wrap(getattr(module, name), f"qpoly.{name}"))
        # ``opstat table`` looks its recursions up in this dict
        tables = dict(cli._TABLES)
        for kind, (label, fn) in tables.items():
            cli._TABLES[kind] = (label, self.wrap(fn, f"qpoly.{fn.__name__}"))
        self._restore.append(lambda: cli._TABLES.update(tables))
        # methods
        rearranged = core.OrderedSetPartition.rearranged
        self._replace(core.OrderedSetPartition, "rearranged", self.wrap(rearranged, "core.rearranged"))
        poly = qpoly.LaurentPolynomial
        self._replace(poly, "__init__", self.wrap(poly.__init__, "qpoly.construct"))
        self._replace(poly, "__eq__", self.wrap(poly.__eq__, "qpoly.eq"))
        mul = self.wrap(poly.__mul__, "qpoly.mul", on_result=count_terms)
        self._replace(poly, "__mul__", mul)
        self._replace(poly, "__rmul__", mul)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns, self ns; plus ``qpoly.recursion``
        (top-level recursion spans only, inclusive)."""
        nid, parent, start, end = self.nid, self.parent, self.start, self.end
        count = len(nid)
        dur = [end[i] - start[i] for i in range(count)]
        self_ns = dur[:]
        for i in range(count):
            p = parent[i]
            if p >= 0:
                self_ns[p] -= dur[i]
        recursion_ids = {self._ids[f"qpoly.{n}"] for n in _RECURSIONS if f"qpoly.{n}" in self._ids}
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        out["qpoly.recursion"] = {"calls": 0, "total_ns": 0, "self_ns": 0}
        for i in range(count):
            entry = out[self.names[nid[i]]]
            entry["calls"] += 1
            entry["total_ns"] += dur[i]
            entry["self_ns"] += self_ns[i]
            if nid[i] in recursion_ids and (parent[i] < 0 or nid[parent[i]] not in recursion_ids):
                out["qpoly.recursion"]["calls"] += 1
                out["qpoly.recursion"]["total_ns"] += dur[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: name id, start and end in ns from
        the first span, and the row of the parent span (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0
        with path.open("w") as fh:
            fh.write("# names\t" + "\t".join(self.names) + "\n")
            fh.write("name_id\tstart_ns\tend_ns\tparent_row\n")
            for i in range(len(self.nid)):
                fh.write(f"{self.nid[i]}\t{self.start[i] - origin}\t{self.end[i] - origin}\t{self.parent[i]}\n")


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``overhead_frac`` is its cost
    over that of an untraced pass, minus 1."""
    summary = tracer.summary()

    def get(name: str, key: str) -> int:
        return summary.get(name, {}).get(key, 0)

    def per_call(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "self_ns") / calls if calls else 0.0

    def per_object(ns: int) -> float:
        return ns / tracer.objects if tracer.objects else 0.0

    layer_self = dict.fromkeys(LAYERS, 0)
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self and name != "qpoly.recursion":
            layer_self[layer] += entry["self_ns"]
    m = {
        "families.gen_ns_per_obj": per_object(sum(get(f"families.{n}", "self_ns") for n in _FAMILY_GENERATORS)),
        "families.objects": tracer.objects,
        "core.rearranged_ns_per_obj": per_call("core.rearranged"),
    }
    for name, unit in (("six_composites", "obj"), ("stat", "call"), ("aggregate_profile", "obj"), ("stat_restricted", "call")):
        m[f"statistics.{name}_ns_per_{unit}"] = per_call(f"statistics.{name}")
        m[f"statistics.{name}_calls"] = get(f"statistics.{name}", "calls")
    for name in _PATH_MAPS:
        m[f"paths.{name}_ns_per_obj"] = per_call(f"paths.{name}")
    root = get("cli.main", "total_ns")
    m.update({
        "qpoly.mul_ns_per_call": per_call("qpoly.mul"),
        "qpoly.mul_calls": get("qpoly.mul", "calls"),
        "qpoly.construct_ns_per_call": per_call("qpoly.construct"),
        "qpoly.eq_ns_per_call": per_call("qpoly.eq"),
        "qpoly.terms_out": tracer.terms_out,
        "qpoly.recursion_s": get("qpoly.recursion", "total_ns") / 1e9,
        "verify.self_ns_per_obj": per_object(layer_self["verify"]),
        "verify.checks": get("verify.run_task", "calls"),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage": 1.0 - layer_self["cli"] / root if root else 0.0,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return m
