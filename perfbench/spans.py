"""Span tracing at oscdecay's module boundaries, from outside the package.

installed() replaces the functions each module imports from the others
(and cli.main) with wrappers that record a span per call: its name
("<layer>.<function>"), start, end and the span open when it began.
The layer is the module that defines the function; _quad is reported
as "quad", and the integrand handed to adaptive_gauss is traced as
"quad.integrand". Spans live in flat arrays in memory and are written
out with save() once the run ends.

A span's self time is its duration minus the part of it covered by its
children; a layer's self time is the sum over its spans. This module
uses only the standard library, so a traced interpreter can time its
own import of oscdecay.
"""

import contextlib
import functools
import importlib
import json
import threading
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("import", "cli", "kinematics", "window", "boost", "specfun",
          "restframe", "timemap", "oracle", "quad")

# module -> names looked up in that module's namespace at call time
WRAPPED = {
    "cli": ("main", "validate_modes", "shifted_kinematics", "exponential_windows",
            "constraint_report", "periods", "survival_rest", "survival_rest_split",
            "decay_rate_rest", "survival_boosted", "phi_p", "linearity_fit",
            "direct_survival", "oracle_compare"),
    "timemap": ("amplitude_rest", "survival_rest", "survival_boosted"),
    "boost": ("upsilon", "xi_fn", "k_fn", "phi_fn", "amplitude_rest"),
    "oracle": ("adaptive_gauss", "mdd_analytic"),
}


class Tracer:
    """In-memory span store. Spans opened on a worker thread with no open
    span of their own take the main thread's innermost open span as parent."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main if main else []
        return stack

    def open(self, name):
        stack = self._stack()
        top = stack or self._main
        parent = top[-1] if top else -1
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack().pop()

    def add(self, name, start, end):
        """Record a finished root span (e.g. an import timed before install)."""
        idx = self.open(name)
        self.start[idx] = start
        self.end[idx] = end
        self._stack().pop()

    def save(self, path):
        """Write names, counts and the span arrays: one JSON line, then raw arrays."""
        head = {"names": self.names, "counts": dict(self.counts), "n": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)


def load(path):
    """A Tracer holding the spans and counts saved at path."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        for arr in (tracer.name, tracer.start, tracer.end, tracer.parent):
            arr.fromfile(fh, head["n"])
    tracer.names = head["names"]
    tracer.counts.update(head["counts"])
    return tracer


def merge(tracers):
    """One Tracer holding the spans of all tracers (parents re-indexed)."""
    out = Tracer()
    for tr in tracers:
        base = len(out.start)
        remap = array("i", (out._ids.setdefault(n, len(out._ids)) for n in tr.names))
        out.name.extend(remap[i] for i in tr.name)
        out.start.extend(tr.start)
        out.end.extend(tr.end)
        out.parent.extend(p + base if p >= 0 else -1 for p in tr.parent)
        out.counts.update(tr.counts)
    out.names = sorted(out._ids, key=out._ids.get)
    return out


def _layer(fn):
    module = fn.__module__.rsplit(".", 1)[-1]
    return "quad" if module == "_quad" else module


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _counted_boost(tracer, fn):
    def survival_boosted(*args, **kwargs):
        ev = fn(*args, **kwargs)
        tracer.counts["boost.pts_out_of_domain"] += not ev.in_validity_domain
        tracer.counts["boost.pts_exceeds_unity"] += bool(ev.exceeds_unity)
        return ev
    return survival_boosted


def _counted_gauss(tracer, fn):
    def adaptive_gauss(f, *args, **kwargs):
        sizes = []
        traced_f = _span(tracer, "quad.integrand", f)

        def integrand(m):
            sizes.append(m.size)
            return traced_f(m)

        try:
            return fn(integrand, *args, **kwargs)
        finally:
            # each round evaluates every panel twice (7- and 15-point rules)
            tracer.counts["quad.evals"] += sum(sizes)
            tracer.counts["quad.final_evals"] += sum(sizes[-2:])
            tracer.counts["quad.rounds"] += len(sizes) // 2
    return adaptive_gauss


@contextlib.contextmanager
def installed(tracer):
    """Trace oscdecay's module boundaries into tracer for the with-block."""
    saved = []
    try:
        for module_name, names in WRAPPED.items():
            module = importlib.import_module("oscdecay." + module_name)
            for attr in names:
                fn = getattr(module, attr)
                inner = fn
                if attr == "survival_boosted":
                    inner = _counted_boost(tracer, fn)
                elif attr == "adaptive_gauss":
                    inner = _counted_gauss(tracer, fn)
                saved.append((module, attr, fn))
                setattr(module, attr, _span(tracer, "%s.%s" % (_layer(fn), attr), inner))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of its children's intervals."""
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    children = sorted((parent[i], start[i], end[i]) for i in range(n) if parent[i] >= 0)
    k = 0
    while k < len(children):
        p = children[k][0]
        covered = 0.0
        reach = -float("inf")
        while k < len(children) and children[k][0] == p:
            _, s, e = children[k]
            s = max(s, reach, start[p])
            e = min(e, end[p])
            if e > s:
                covered += e - s
            reach = max(reach, e)
            k += 1
        own[p] -= covered
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer self time, calls, shares and the ratios counted at the boundaries."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    self_s = Counter()
    calls = Counter()
    by_name = Counter()
    under_phi = array("b", bytes(len(own)))
    integrand_s = 0.0
    restframe_in_phi = 0
    phi_id = names.index("timemap.phi_p") if "timemap.phi_p" in names else -2
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        layer = name.split(".", 1)[0]
        self_s[layer] += own[i]
        calls[layer] += 1
        by_name[name] += 1
        p = tracer.parent[i]
        under_phi[i] = nid == phi_id or (p >= 0 and under_phi[p])
        if layer == "restframe" and under_phi[i]:
            restframe_in_phi += 1
        if name == "quad.integrand":
            integrand_s += tracer.end[i] - tracer.start[i]
    total = sum(self_s.values())
    counts = tracer.counts
    oracle_pts = by_name["oracle.direct_survival"]
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = self_s[layer]
        metrics[layer + ".share"] = _ratio(self_s[layer], total)
        if layer != "import":
            metrics[layer + ".calls"] = calls[layer]
    metrics.update({
        "boost.pts_out_of_domain": counts["boost.pts_out_of_domain"],
        "boost.pts_exceeds_unity": counts["boost.pts_exceeds_unity"],
        "specfun.calls_per_boosted_pt": _ratio(calls["specfun"], by_name["boost.survival_boosted"]),
        "restframe.calls_per_phi_pt": _ratio(restframe_in_phi, by_name["timemap.phi_p"]),
        "oracle.pts": oracle_pts,
        "quad.integrand_s": integrand_s,
        "quad.evals_per_pt": _ratio(counts["quad.evals"], oracle_pts),
        "quad.rounds_per_pt": _ratio(counts["quad.rounds"], oracle_pts),
        "quad.final_round_frac": _ratio(counts["quad.final_evals"], counts["quad.evals"]),
    })
    return metrics


def parse_importtime(stderr):
    """(numpy_s, scipy_s, oscdecay_s) from `python -X importtime -c "import oscdecay"`.

    numpy and scipy count their imports that no numpy or scipy import
    encloses, wherever they happen; oscdecay is the package's cumulative
    time less those two.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = Counter()
    stack = []
    # importtime prints children before their parent; walk it parent-first
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        enclosing = {s[1] for s in stack}
        if top in ("numpy", "scipy"):
            outermost = not enclosing & {"numpy", "scipy"}
        else:
            outermost = top == "oscdecay" and "oscdecay" not in enclosing
        if outermost:
            totals[top] += cum
        stack.append((depth, top))
    return totals["numpy"], totals["scipy"], totals["oscdecay"] - totals["numpy"] - totals["scipy"]
