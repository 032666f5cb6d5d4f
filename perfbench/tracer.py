"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``burau`` modules from outside
the package: nothing under ``src/`` knows it exists.  Each call through a
wrapped boundary records one span (boundary, start, end, parent span, op id)
in flat typed arrays, so that millions of ring multiplications cost a few
tens of bytes each.  Boundary-specific figures such as the largest
coefficient a truncated product saw are folded into running maxima as the
calls happen.

Names are rebound wherever they are visible: ``search``, ``density``,
``phi`` and ``cli`` bind ``burau_eval``/``burau_eval_trunc`` with
``from .rep import ...``, so a wrapper installed only on ``burau.rep`` would
miss their calls.  ``install`` therefore replaces every module attribute,
across all loaded ``burau`` modules, that is the original function object.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

#: (span name, module, class or None, attribute).  The span names are the
#: per-layer metric prefixes of BENCHMARK.json.
BOUNDARIES = (
    ("laurent.poly_mul", "burau.laurent", "LaurentPoly", "__mul__"),
    ("laurent.series_mul", "burau.laurent", "TruncSeries", "__mul__"),
    ("linalg.trunc_mul", "burau.linalg", "TruncMatrix", "__mul__"),
    ("linalg.trunc_inverse", "burau.linalg", "TruncMatrix", "inverse"),
    ("linalg.laurent_mul", "burau.linalg", "LaurentMatrix", "__mul__"),
    ("linalg.int_mul", "burau.linalg", "IntMatrix", "__mul__"),
    ("linalg.lattice_hnf", "burau.linalg", "IntLattice", "__init__"),
    ("linalg.lattice_solve", "burau.linalg", "IntLattice", "solve"),
    ("words.parse", "burau.words", None, "parse_word"),
    ("words.format", "burau.words", None, "word_format"),
    ("words.flatten", "burau.words", None, "flatten"),
    ("words.letter_bound", "burau.words", None, "letter_bound"),
    ("rep.eval_exact", "burau.rep", None, "burau_eval"),
    ("rep.eval_trunc", "burau.rep", None, "burau_eval_trunc"),
    ("rep.gamma_check", "burau.rep", None, "gamma_check"),
    ("rep.gamma_coeff", "burau.rep", None, "gamma_coeff"),
    ("liealg.g_lattice", "burau.liealg", None, "g_lattice"),
    ("liealg.g_bracket", "burau.liealg", None, "g_bracket"),
    ("phi.phi_eval", "burau.phi", None, "phi_eval"),
    ("phi.phi_from_w", "burau.phi", None, "phi_from_w"),
    ("density.build", "burau.density", None, "build_witness_library"),
    ("density.approximate", "burau.density", None, "approximate"),
    ("density.solve_in_degree", "burau.density", None, "solve_in_degree"),
    ("search.search_deep", "burau.search", None, "search_deep"),
    ("cli.main", "burau.cli", None, "main"),
)

SPAN_NAMES = tuple(b[0] for b in BOUNDARIES)

#: the workloads on which each boundary must fire (the self-check asserts
#: a nonzero count there); README.md maps each to its end-to-end metric
LAYER_WORKLOADS = {
    "laurent.poly_mul": ("cli-exact",),
    "laurent.series_mul": ("density", "alpha-search"),
    "linalg.trunc_mul": ("density", "alpha-search"),
    "linalg.trunc_inverse": ("density",),
    "linalg.laurent_mul": ("cli-exact",),
    "linalg.int_mul": ("alpha-search",),
    "linalg.lattice_hnf": ("density",),
    "linalg.lattice_solve": ("density",),
    "words.parse": ("cli-exact",),
    "words.format": ("density",),
    "words.flatten": ("density",),
    "words.letter_bound": ("alpha-search",),
    "rep.eval_exact": ("cli-exact", "alpha-search"),
    "rep.eval_trunc": ("density", "alpha-search"),
    "rep.gamma_check": ("cli-exact", "density"),
    "rep.gamma_coeff": ("cli-exact",),
    "liealg.g_lattice": ("density", "cli-exact"),
    "liealg.g_bracket": ("cli-exact",),
    "phi.phi_eval": ("cli-exact",),
    "phi.phi_from_w": ("cli-exact",),
    "density.build": ("density",),
    "density.approximate": ("density",),
    "density.solve_in_degree": ("density",),
    "search.search_deep": ("alpha-search",),
    "cli.main": ("cli-exact",),
}


def _max_abs_coeff(m) -> int:
    """Largest |coefficient| over a TruncMatrix's entries."""
    return max((abs(c) for row in m.rows for e in row for c in e.coeffs()),
               default=0)


def _max_power(w) -> int:
    """Largest |exponent| of a Power node in a word DAG (1 if none)."""
    from burau.words import Commutator, Concat, Inverse, Power
    best, seen, todo = 1, set(), [w]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Power):
            best = max(best, abs(node.exponent))
            todo.append(node.child)
        elif isinstance(node, Inverse):
            todo.append(node.child)
        elif isinstance(node, Concat):
            todo.extend(node.parts)
        elif isinstance(node, Commutator):
            todo.extend((node.left, node.right))
    return best


def _poly_terms(stats, args, out):
    a, b = args
    terms = max(len(a._c), len(getattr(b, "_c", (b,))))
    if terms > stats["max_terms"]:
        stats["max_terms"] = terms


def _trunc_mul(stats, args, out):
    a, b = args
    ma, mb = _max_abs_coeff(a), _max_abs_coeff(b)
    bits = max(ma, mb).bit_length()
    if bits > stats["max_coeff_bits"]:
        stats["max_coeff_bits"] = bits
    if ma * mb * a.n * a.precision < 1 << 62:
        stats["int64_fits"] += 1


def _eval_trunc(stats, args, out):
    p = _max_power(args[0])
    if p > stats["max_power"]:
        stats["max_power"] = p


def _lattice_solve(stats, args, out):
    if out:
        m = max(abs(c) for c in out)
        if m > stats["max_coeff"]:
            stats["max_coeff"] = m


#: boundary -> (initial running figures, update called after each call)
_EXTRAS = {
    "laurent.poly_mul": ({"max_terms": 0}, _poly_terms),
    "linalg.trunc_mul": ({"max_coeff_bits": 0, "int64_fits": 0}, _trunc_mul),
    "rep.eval_trunc": ({"max_power": 1}, _eval_trunc),
    "linalg.lattice_solve": ({"max_coeff": 0}, _lattice_solve),
}


class Tracer:
    """Records spans for the wrapped boundaries while installed."""

    def __init__(self):
        self.name_ix = array("B")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.stats = {name: dict(init) for name, (init, _) in _EXTRAS.items()}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, ix: int, name: str, fn):
        name_ix, parent, op, start, end = (self.name_ix, self.parent, self.op,
                                           self.start, self.end)
        stack = self._stack
        clock = time.perf_counter
        extra = _EXTRAS.get(name)
        stats = self.stats.get(name)
        update = extra[1] if extra else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if update is not None:
                update(stats, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every boundary everywhere it is bound."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "burau" or name.startswith("burau."))]
        for ix, (name, modname, clsname, attr) in enumerate(BOUNDARIES):
            mod = importlib.import_module(modname)
            if clsname is not None:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                wrapper = self._wrap(ix, name, orig)
                # aliases such as LaurentPoly.__rmul__ = __mul__ share the object
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        self._undo.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(ix, name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_ix": np.frombuffer(self.name_ix, dtype=np.uint8),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        """Write every span, with the boundary names, as a NumPy archive."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def nesting_violations(self) -> int:
        """Spans that start before, or end after, their parent span, or
        that carry another op id than their parent."""
        a = self.arrays()
        kids = np.nonzero(a["parent"] >= 0)[0]
        par = a["parent"][kids]
        bad = ((a["start"][kids] < a["start"][par])
               | (a["end"][kids] > a["end"][par])
               | (a["op"][kids] != a["op"][par]))
        return int(bad.sum())

    def calls(self, name: str, op: int | None = None) -> int:
        a = self.arrays()
        mask = a["name_ix"] == SPAN_NAMES.index(name)
        if op is not None:
            mask &= a["op"] == op
        return int(mask.sum())

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and the running figures for every boundary."""
        a = self.arrays()
        k = len(SPAN_NAMES)
        counts = np.bincount(a["name_ix"], minlength=k)
        selfs = np.bincount(a["name_ix"], weights=self.self_times(), minlength=k)
        out: dict[str, float] = {}
        for ix, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(counts[ix])
            out[f"{name}.self_s"] = float(selfs[ix])
        out["laurent.poly_mul.max_terms"] = self.stats["laurent.poly_mul"]["max_terms"]
        tm = self.stats["linalg.trunc_mul"]
        out["linalg.trunc_mul.max_coeff_bits"] = tm["max_coeff_bits"]
        n_tm = out["linalg.trunc_mul.calls"]
        out["linalg.trunc_mul.int64_fit_frac"] = tm["int64_fits"] / n_tm if n_tm else 0.0
        out["rep.eval_trunc.max_power_log10"] = (
            math.log10(self.stats["rep.eval_trunc"]["max_power"]))
        mc = self.stats["linalg.lattice_solve"]["max_coeff"]
        out["linalg.lattice_solve.max_coeff_log10"] = math.log10(mc) if mc else 0.0
        return out
