"""Spans around the calls into each voaforms layer, recorded from outside.

``Tracer.installed()`` replaces each traced function by a wrapper wherever
its callers look it up (module globals of every voaforms module, and class
attributes for methods), and restores the originals on exit.  Every call
becomes a span (op, id, parent id, name, start, end) kept in memory; counts
that need the arguments or the result are taken at the same boundary.  Self
time is a span's duration minus the durations of its direct children.

A pair-product call counts as a miss when its monomial pair is not yet in
the host's product memo (``TruncatedVOA._prod``); without that attribute
every call counts as a miss.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

MODULES = ("voaforms", "voaforms.exact", "voaforms.voa", "voaforms.forms",
           "voaforms.latgroup", "voaforms.cli", "voaforms.dihedral")

# span name -> (module, attribute path)
TARGETS = {
    "voa.pair_products": ("voaforms.voa", "TruncatedVOA.pair_products"),
    "voa.vertex_product": ("voaforms.voa", "TruncatedVOA.vertex_product"),
    "voa.form_matrix": ("voaforms.voa", "TruncatedVOA.form_matrix"),
    "forms.generate_form": ("voaforms.forms", "generate_form"),
    "forms.products_all_k": ("voaforms.forms", "_products_all_k"),
    "forms.form_gram": ("voaforms.forms", "form_gram"),
    "forms.check_lattice_integral": ("voaforms.forms",
                                     "check_lattice_integral"),
    "forms.dual_form": ("voaforms.forms", "dual_form"),
    "forms.dual_stability_check": ("voaforms.forms", "dual_stability_check"),
    "forms.rescale_to_integral": ("voaforms.forms", "rescale_to_integral"),
    "forms.invariant_form_intersect": ("voaforms.forms",
                                       "invariant_form_intersect"),
    "forms.tel_exponents": ("voaforms.forms", "tel_exponents"),
    "forms.form_from_manifest": ("voaforms.forms", "form_from_manifest"),
    "exact.coordinates": ("voaforms.exact", "ZLattice.coordinates"),
    "exact.lattice_sum": ("voaforms.exact", "lattice_sum"),
    "exact.from_rows": ("voaforms.exact", "ZLattice.from_rows"),
    "exact.hnf_int": ("voaforms.exact", "hnf_int"),
    "exact.lattice_intersect": ("voaforms.exact", "lattice_intersect"),
    "exact.smith_invariants": ("voaforms.exact", "smith_invariants"),
    "exact.dual_lattice": ("voaforms.exact", "dual_lattice"),
    "exact.matmul": ("voaforms.exact", "QMatrix.__matmul__"),
    "exact.inverse": ("voaforms.exact", "QMatrix.inverse"),
    "latgroup.eigenlattice": ("voaforms.latgroup", "eigenlattice"),
    "latgroup.image_lattice": ("voaforms.latgroup", "image_lattice"),
    "cli.main": ("voaforms.cli", "main"),
}


class Tracer:
    """Collects spans and per-operation counts while installed."""

    def __init__(self):
        self.spans = []        # (op, id, parent id or -1, name, start, end)
        self.stack = []        # open spans: [id, child seconds]
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counts = {}       # extra counters, e.g. pair-product misses
        self.depth = {}        # open spans per name
        self._next_id = 0
        self.op = 0

    def start_op(self, op):
        """Number the next operation's spans and zero the counters."""
        self.op = op
        self.calls, self.self_s, self.total_s, self.counts = {}, {}, {}, {}

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, spans, depth = self.stack, self.spans, self.depth

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            note = before(args) if before else None
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after:
                    after(args, None, exc, note)
                raise
            else:
                if after:
                    after(args, result, None, note)
                return result
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((self.op, sid, parent, name, t0, t1))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.total_s[name] = self.total_s.get(name, 0.0) + dur

        traced.__wrapped__ = fn
        return traced

    # -- counts taken at the boundaries ------------------------------------

    def _before_voa_pair_products(self, args):
        host, ma, mb = args[:3]
        memo = getattr(host, "_prod", None)
        return memo is None or (ma, mb) not in memo

    def _after_voa_pair_products(self, args, result, exc, miss):
        if miss and result is not None:
            self._count("voa.pair_products.misses")
            self._count("voa.pair_products.terms",
                        sum(len(b) for b in result.values()))

    def _after_forms_generate_form(self, args, result, exc, note):
        trace = getattr(exc, "trace", None) if exc is not None \
            else result.saturation_trace
        if trace is not None:
            self._count("forms.generate_form.passes", len(trace))

    def _before_exact_lattice_sum(self, args):
        if self.depth.get("forms.generate_form"):
            self._count("saturation.lattice_sum")

    def _before_exact_coordinates(self, args):
        if self.depth.get("forms.generate_form"):
            self._count("saturation.coordinates")

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, (modname, path) in TARGETS.items():
                mod = importlib.import_module(modname)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                orig = getattr(mod, path)
                new = self._wrap(name, orig)
                for other in MODULES:
                    m = importlib.import_module(other)
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start,end\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


# Per-layer metrics in report order: "<span>.calls" and "<span>.self_s"
# come from the spans; the rest are derived below.
LAYER_METRICS = (
    "voa.pair_products.calls", "voa.pair_products.misses",
    "voa.pair_products.hit_ratio", "voa.pair_products.terms",
    "voa.pair_products.self_s",
    "voa.vertex_product.calls", "voa.vertex_product.self_s",
    "voa.form_matrix.self_s",
    "forms.generate_form.calls", "forms.generate_form.passes",
    "forms.generate_form.self_s",
    "forms.products_all_k.calls", "forms.products_all_k.self_s",
    "forms.saturation.add_ratio",
    "forms.form_gram.calls", "forms.form_gram.self_s",
    "forms.check_lattice_integral.self_s",
    "forms.dual_form.calls", "forms.dual_form.self_s",
    "forms.dual_stability_check.self_s",
    "forms.rescale_to_integral.self_s",
    "forms.invariant_form_intersect.self_s",
    "forms.tel_exponents.self_s",
    "forms.form_from_manifest.total_s",
    "exact.coordinates.calls", "exact.coordinates.self_s",
    "exact.lattice_sum.calls", "exact.lattice_sum.self_s",
    "exact.from_rows.calls", "exact.from_rows.self_s",
    "exact.hnf_int.calls", "exact.hnf_int.self_s",
    "exact.lattice_intersect.calls", "exact.lattice_intersect.self_s",
    "exact.smith_invariants.self_s",
    "exact.dual_lattice.calls", "exact.dual_lattice.self_s",
    "exact.matmul.self_s", "exact.inverse.self_s",
    "latgroup.eigenlattice.calls", "latgroup.eigenlattice.self_s",
    "latgroup.image_lattice.self_s",
    "cli.main.self_s",
    "trace.overhead_ratio",
)
HIGHER_IS_BETTER = ("voa.pair_products.hit_ratio",
                    "forms.saturation.add_ratio")


def layer_metrics(snapshot, overhead_ratio):
    """{metric: (value, unit)} from one operation's counters."""
    calls, self_s, total_s, counts = snapshot
    pp_calls = calls.get("voa.pair_products", 0)
    misses = counts.get("voa.pair_products.misses", 0)
    coords = counts.get("saturation.coordinates", 0)
    derived = {
        "voa.pair_products.misses": (misses, "count"),
        "voa.pair_products.hit_ratio": (
            (pp_calls - misses) / pp_calls if pp_calls else 0.0, "ratio"),
        "voa.pair_products.terms": (
            counts.get("voa.pair_products.terms", 0), "count"),
        "forms.generate_form.passes": (
            counts.get("forms.generate_form.passes", 0), "count"),
        "forms.saturation.add_ratio": (
            counts.get("saturation.lattice_sum", 0) / coords
            if coords else 0.0, "ratio"),
        "forms.form_from_manifest.total_s": (
            total_s.get("forms.form_from_manifest", 0.0), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    out = {}
    for name in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = (calls.get(span, 0), "count")
        else:
            out[name] = (self_s.get(span, 0.0), "s")
    return out
