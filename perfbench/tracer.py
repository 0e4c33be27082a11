"""In-memory span recorder that wraps public functions of `braidorbit`.

`Tracer` replaces each traced function with a wrapper that records a span
(name, start, end, parent) and the counters named in `PROBES`.  Names that
other modules imported directly (``from .linalg import det_bareiss``) are
rebound too, in every ``braidorbit`` module that holds the same function
object, so no call escapes.  Leaving the `with` block restores every
original.  The program itself is not changed.
"""

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array

# Traced functions, grouped by the workload whose end-to-end metrics they
# should move.  Method names: `mul` is `__mul__`, `build` is `__init__`.
TRACED = {
    "symbolic": [
        "scalar.poly_gcd", "scalar.poly_div_exact", "linalg.det_bareiss",
        "symfun.quantum_dims", "symfun.power_sum_param", "symfun.a_values_param",
        "symfun.ch_coefficients", "symfun.vieta_checks",
        "orbit.regularity", "orbit.hankel_det_check", "orbit.higher_power_reduction"],
    "tensor": [
        "linalg.MatrixS.mul", "linalg.SparseMat.mul", "linalg.embed_at",
        "linalg.partial_trace", "hecke.validate", "hecke.validation_report",
        "hecke.solve_skew_inverse", "koszul.build_projectors",
        "koszul.conjecture1_check", "koszul.p2_action_identity"],
    "quotient": [
        "linalg.RowSpace.add", "linalg.RowSpace.reduce", "hecke.birank",
        "rea.relation_space", "rea.RelationSpace.membership_reducer",
        "rea.is_zero_mod", "rea.power_sum_element", "rea.ch_polynomial_entries",
        "orbit.OrbitIdealReducer.build", "orbit.OrbitIdealReducer.reduce"],
    "all": ["cli.main"],
}
ALL_TRACED = [name for names in TRACED.values() for name in names]
_METHOD_ATTRS = {"mul": "__mul__", "build": "__init__"}


class _Counts:
    """Counters of one traced run: `add` sums, `peak` keeps the maximum."""

    def __init__(self):
        self.values = {}
        self.reducers = {}   # (id of relation space, degree) -> reducer, per job

    def add(self, key, amount=1):
        self.values[key] = self.values.get(key, 0) + amount

    def peak(self, key, value):
        self.values[key] = max(self.values.get(key, 0), value)


def _gcd_probe(c, args, result):
    c.add("scalar.poly_gcd.trivial", result.const_or_none() == 1)
    c.peak("scalar.poly_gcd.max_terms", max(len(args[0].terms), len(args[1].terms)))


def _div_probe(c, args, result):
    c.add("scalar.poly_div_exact.none", result is None)


def _matmul_probe(c, args, result):
    a, b = args
    c.add("linalg.MatrixS.mul.mults", a.nrows * a.ncols * b.ncols)


def _rowspace_add_probe(c, args, result):
    c.add("linalg.RowSpace.add.useful", bool(result))
    c.peak("linalg.RowSpace.add.max_rank", args[0].rank)


def _reducer_probe(c, args, result):
    # a hit returns the very reducer an earlier call built for the same
    # relation space and degree
    key = (id(args[0]), args[1])
    c.add("rea.RelationSpace.membership_reducer.hits", c.reducers.get(key) is result)
    c.reducers[key] = result


PROBES = {
    "scalar.poly_gcd": _gcd_probe,
    "scalar.poly_div_exact": _div_probe,
    "linalg.MatrixS.mul": _matmul_probe,
    "linalg.RowSpace.add": _rowspace_add_probe,
    "rea.RelationSpace.membership_reducer": _reducer_probe,
}

# ratio metric -> counter; the ratio is the counter over the function's calls
RATIOS = {
    "scalar.poly_gcd.trivial_ratio": "scalar.poly_gcd.trivial",
    "scalar.poly_div_exact.none_ratio": "scalar.poly_div_exact.none",
    "linalg.RowSpace.add.useful_ratio": "linalg.RowSpace.add.useful",
    "rea.RelationSpace.membership_reducer.cache_hit_ratio":
        "rea.RelationSpace.membership_reducer.hits",
}
PEAKS = ["scalar.poly_gcd.max_terms", "linalg.RowSpace.add.max_rank",
         "linalg.MatrixS.mul.mults"]


def _resolve(name):
    """(owner object, attribute) of a traced name such as `linalg.MatrixS.mul`."""
    module, *rest = name.split(".")
    owner = importlib.import_module(f"braidorbit.{module}")
    for part in rest[:-1]:
        owner = getattr(owner, part)
    attr = rest[-1]
    if len(rest) > 1:
        attr = _METHOD_ATTRS.get(attr, attr)
    return owner, attr


class Tracer:
    """Records spans of the traced functions while the `with` block runs.

    Spans live in flat arrays: name index, parent span (-1 for a root), start
    and end in seconds.  `job` opens a root span per job, so the spans of one
    job share that root.
    """

    def __init__(self, names=ALL_TRACED):
        self.names = list(names)
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = _Counts()
        self._stack = []
        self._restore = []

    def _wrap(self, index, fn, probe):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(index)
            parent.append(stack[-1] if stack else -1)
            stack.append(sid)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "braidorbit" or key.startswith("braidorbit."))]
        for index, name in enumerate(self.names):
            owner, attr = _resolve(name)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, PROBES.get(name))
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules for key, value in vars(m).items()
                           if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._restore.append((holder, key, original))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        return False

    @contextlib.contextmanager
    def job(self, label):
        """Root span of one job: the spans of its calls hang below it."""
        self.counts.reducers.clear()
        if label not in self.names:
            self.names.append(label)
        sid = len(self.start)
        self.span_name.append(self.names.index(label))
        self.parent.append(-1)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.clear()   # a timeout may leave child spans open

    def spans(self):
        """[(name, parent span id, start, end)] in call order."""
        return [(self.names[self.span_name[i]], self.parent[i], self.start[i], self.end[i])
                for i in range(len(self.start))]

    def totals(self):
        """{name: (calls, self seconds)}; self time excludes child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, index in enumerate(self.span_name):
            calls, own = out.get(self.names[index], (0, 0.0))
            out[self.names[index]] = (calls + 1, own + self.end[i] - self.start[i] - child[i])
        return out

    def metrics(self):
        """Per-layer metrics: calls and self seconds of every traced function,
        its counters, and the ratios of counters to calls."""
        totals = self.totals()
        out = {}
        for name in ALL_TRACED:
            calls, own = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (own, "s")
        for ratio, counter in RATIOS.items():
            calls = totals.get(counter.rsplit(".", 1)[0], (0, 0.0))[0]
            out[ratio] = (self.counts.values.get(counter, 0) / calls if calls else 0.0, "ratio")
        for key in PEAKS:
            out[key] = (self.counts.values.get(key, 0), "count")
        return out

    def write(self, path):
        """Spans as gzip'd tab-separated lines: id, name, parent, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")

