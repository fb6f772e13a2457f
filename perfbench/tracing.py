"""Span tracing of fso-geoloss from outside the package.

`Tracer.install` replaces the module attributes the package looks up at call
time (the functions one module calls in another) with wrappers that record a
span per call; `Tracer.restore` puts every original back.  A span is (id,
name, start, end, parent, thread, info).  The parent comes from a
thread-local stack; spans opened on a worker thread with an empty stack take
the innermost open `run_trials` span as parent, since that is what started
the worker.  Spans stay in memory until the caller writes them out.

Self time is a span's duration minus the part of it its children cover, so
on a single thread the self times of all spans sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# (module of the package, attribute looked up there at call time, span name)
TARGETS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "render_table", "cli.render_table"),
    ("montecarlo", "run_trials", "montecarlo.run_trials"),
    ("montecarlo", "_chunk_losses", "montecarlo._chunk_losses"),
    ("montecarlo", "_chunk_eps", "montecarlo._chunk_eps"),
    ("montecarlo", "summarize", "montecarlo.summarize"),
    ("montecarlo", "build_histogram", "montecarlo.build_histogram"),
    ("montecarlo", "chi_square_gof", "montecarlo.chi_square_gof"),
    ("montecarlo", "raw_to_open_uniform", "stochastic.raw_to_open_uniform"),
    ("montecarlo", "gaussian_from_uniforms", "stochastic.gaussian_from_uniforms"),
    ("montecarlo", "pdf_hg", "stochastic.pdf_hg"),
    ("stochastic", "pdf_hg", "stochastic.pdf_hg"),
    ("stochastic", "geoloss_pdf", "stochastic.geoloss_pdf"),
    ("geoloss", "exact_loss_batch", "geoloss.exact_loss_batch"),
    ("geoloss", "approx_mean_batch", "geoloss.approx_mean_batch"),
    ("geoloss", "exact_loss", "geoloss.exact_loss"),
    ("geoloss", "bound_lower", "geoloss.bound_lower"),
    ("geoloss", "bound_upper", "geoloss.bound_upper"),
    ("geoloss", "approx_params", "geoloss.approx_params"),
    ("geoloss", "disk_quadrature", "numerics.disk_quadrature"),
    ("geoloss", "ellipse_params", "beam.ellipse_params"),
    ("geoloss", "intensity_on_pd", "beam.intensity_on_pd"),
    ("beam", "beam_width", "beam.beam_width"),
    ("beam", "ellipse_coefficients", "beam.ellipse_coefficients"),
    ("beam", "ellipse_axes", "beam.ellipse_axes"),
    ("geoloss", "footprint_center", "geometry.footprint_center"),
    ("geometry", "footprint_yz", "geometry.footprint_yz"),
)
INTEGRAND = "numerics.integrand"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None = None


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps the short module names in TARGETS to the modules."""
        self.modules = modules
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._fork_parent: int | None = None
        self._saved: list = []
        self._samples: dict = {}  # distribution -> samples of its last run_trials

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None, forks: bool = False,
             traces_integrand: bool = False):
        """`fn` recording a span `name` per call.  `info(tracer, args,
        result)` adds a dict to the span; `forks` makes the span the parent
        of spans on threads it starts; `traces_integrand` wraps the callable
        first argument too."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fork_parent
            sid = next(tracer._ids)
            stack.append(sid)
            if forks:
                outer, tracer._fork_parent = tracer._fork_parent, sid
            if traces_integrand:
                args = (tracer.wrap(INTEGRAND, args[0], _integrand_info),) + args[1:]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if forks:
                    tracer._fork_parent = outer
            tracer.spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                     info(tracer, args, result) if info else None))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens itself, such as the root of a repetition."""
        stack = self._stack()
        sid, parent = next(self._ids), (stack[-1] if stack else None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    # -- installation -----------------------------------------------------

    def install(self):
        present = set()
        for module, attr, name in TARGETS:
            owner = self.modules[module]
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            present.add(name)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(
                name, orig, _INFO.get(name), forks=name == "montecarlo.run_trials",
                traces_integrand=name == "numerics.disk_quadrature"))
        self.absent = {name for _m, _a, name in TARGETS} - present

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def reset(self):
        self.spans = []
        self._samples = {}


def _items(n) -> dict:
    return {"items": int(n)}


def _run_trials_info(tracer: Tracer, args, result) -> dict:
    plan = args[0]
    samples, stats = result
    tracer._samples[plan.distribution] = samples
    return {"items": plan.n_trials, "degenerate": stats.degenerate_trials,
            "kernel": plan.loss_kernel, "sigma_o": plan.distribution.sigma_phi}


def _geoloss_pdf_info(tracer: Tracer, args, result) -> dict:
    samples = tracer._samples.get(args[0])
    if samples is None:
        return {"above": 0, "samples": 0}
    return {"above": int(np.count_nonzero(samples > result.a0)), "samples": len(samples)}


def _integrand_info(_tracer, args, result) -> dict:
    nodes = len(args[0])
    return {"nodes": nodes, "poses": result.size // nodes, "bytes": result.nbytes}


def _quadrature_info(_tracer, _args, result) -> dict:
    return {"poses": int(np.size(result))}


_INFO = {
    "montecarlo.run_trials": _run_trials_info,
    "montecarlo._chunk_losses": lambda _t, args, _r: _items(args[2]),
    "montecarlo._chunk_eps": lambda _t, args, _r: _items(args[2]),
    "stochastic.geoloss_pdf": _geoloss_pdf_info,
    "geoloss.exact_loss_batch": lambda _t, args, _r: _items(len(args[0])),
    "geoloss.approx_mean_batch": lambda _t, args, _r: _items(len(args[0])),
    "numerics.disk_quadrature": _quadrature_info,
}


# -- aggregation ------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


class Summary:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        selfs = self_times(spans)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.info = defaultdict(lambda: defaultdict(float))
        for s in spans:
            self.total[s.name] += s.end - s.start
            self.self[s.name] += selfs[s.sid]
            self.calls[s.name] += 1
            for k, v in (s.info or {}).items():
                if isinstance(v, (int, float)):
                    self.info[s.name][k] += v

    def total_of(self, *names) -> float:
        return sum(self.total[n] for n in names)

    def self_of(self, *names) -> float:
        return sum(self.self[n] for n in names)

    def calls_of(self, *names) -> int:
        return sum(self.calls[n] for n in names)

    def info_of(self, key: str, *names) -> float:
        return sum(self.info[n][key] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


_BEAM = ("beam.ellipse_params", "beam.intensity_on_pd", "beam.beam_width",
         "beam.ellipse_coefficients", "beam.ellipse_axes")
_GEOMETRY = ("geometry.footprint_center", "geometry.footprint_yz")
_BOUNDS = ("geoloss.bound_lower", "geoloss.bound_upper")
_TRANSFORM = ("stochastic.raw_to_open_uniform", "stochastic.gaussian_from_uniforms")
_STATS = ("montecarlo.summarize", "montecarlo.build_histogram")
_DENSITY = ("stochastic.geoloss_pdf", "stochastic.pdf_hg")
_QUAD = ("numerics.disk_quadrature",)


def _throughput(name: str):
    return (name,), lambda s, _c: _ratio(s.info_of("items", name), s.total_of(name))


def _call_rate(*names):
    return names, lambda s, _c: _ratio(s.calls_of(*names), s.total_of(*names))


# metric -> (unit, better, spans it reads, value from (Summary, context)).
# Rates divide by the summed span durations, which with several worker threads
# are busy thread-seconds; `_s` metrics are self times summed over calls.
PER_LAYER = {
    "geoloss.exact_batch.trials_per_s": ("1/s", "higher", *_throughput("geoloss.exact_loss_batch")),
    "geoloss.exact_batch.self_s": ("s", "lower", ("geoloss.exact_loss_batch",),
                                   lambda s, _c: s.self_of("geoloss.exact_loss_batch")),
    "numerics.disk_quadrature.calls": ("count", "lower", _QUAD,
                                       lambda s, _c: s.calls_of(*_QUAD)),
    "numerics.disk_quadrature.self_s": ("s", "lower", _QUAD, lambda s, _c: s.self_of(*_QUAD)),
    "numerics.integrand_s": ("s", "lower", _QUAD, lambda s, _c: s.self_of(INTEGRAND)),
    "numerics.nodes_per_pose": ("count", "lower", _QUAD, lambda s, _c: _ratio(
        sum(sp.info["nodes"] * sp.info["poses"] for sp in s.spans if sp.name == INTEGRAND),
        s.info_of("poses", *_QUAD))),
    "numerics.integrand_bytes_computed": ("bytes", "lower", _QUAD,
                                          lambda s, _c: s.info_of("bytes", INTEGRAND)),
    "geoloss.approx_batch.trials_per_s": ("1/s", "higher", *_throughput("geoloss.approx_mean_batch")),
    "montecarlo.pose_draw.trials_per_s": ("1/s", "higher", *_throughput("montecarlo._chunk_eps")),
    "stochastic.pose_transform_s": ("s", "lower", _TRANSFORM, lambda s, _c: s.self_of(*_TRANSFORM)),
    "montecarlo.run_trials.trials_per_s": ("1/s", "higher", *_throughput("montecarlo.run_trials")),
    "montecarlo.chunk_busy_frac": ("fraction", "higher", ("montecarlo._chunk_losses",),
                                   lambda s, c: _ratio(s.total_of("montecarlo._chunk_losses"),
                                                       c["threads"] * s.total_of("montecarlo.run_trials"))),
    "montecarlo.stats_s": ("s", "lower", _STATS, lambda s, _c: s.self_of(*_STATS)),
    "montecarlo.gof_s": ("s", "lower", ("montecarlo.chi_square_gof",),
                         lambda s, _c: s.self_of("montecarlo.chi_square_gof")),
    "stochastic.density_s": ("s", "lower", _DENSITY, lambda s, _c: s.self_of(*_DENSITY)),
    "geoloss.exact_loss.calls_per_s": ("1/s", "higher", *_call_rate("geoloss.exact_loss")),
    "geoloss.bounds.calls_per_s": ("1/s", "higher", *_call_rate(*_BOUNDS)),
    "geoloss.approx_params.calls_per_s": ("1/s", "higher", *_call_rate("geoloss.approx_params")),
    "beam.self_s": ("s", "lower", _BEAM, lambda s, _c: s.self_of(*_BEAM)),
    "geometry.self_s": ("s", "lower", _GEOMETRY, lambda s, _c: s.self_of(*_GEOMETRY)),
    "cli.config_s": ("s", "lower", ("cli.load_config",), lambda s, _c: s.total_of("cli.load_config")),
    "cli.render_s": ("s", "lower", ("cli.render_table",), lambda s, _c: s.total_of("cli.render_table")),
    "montecarlo.degenerate_trials": ("count", "lower", ("montecarlo.run_trials",),
                                     lambda s, _c: s.info_of("degenerate", "montecarlo.run_trials")),
    "geoloss.far_field_warnings": ("count", "lower", ("geoloss.exact_loss_batch", "beam.intensity_on_pd"),
                                   lambda _s, c: c["far_field_warnings"]),
    "stochastic.above_support_frac": ("fraction", "lower", ("stochastic.geoloss_pdf",),
                                      lambda s, _c: _ratio(s.info_of("above", "stochastic.geoloss_pdf"),
                                                           s.info_of("samples", "stochastic.geoloss_pdf"))),
}


def layer_metrics(spans: list[Span], absent: set[str], context: dict) -> dict:
    """Per-layer metric values for one traced repetition; None where every
    span the metric reads is absent from the program."""
    summary = Summary(spans)
    out = {}
    for name, (_unit, _better, reads, fn) in PER_LAYER.items():
        out[name] = None if set(reads) <= absent else float(fn(summary, context))
    return out


def spans_json(spans: list[Span]) -> list[dict]:
    t0 = min((s.start for s in spans), default=0.0)
    return [{**asdict(s), "start": s.start - t0, "end": s.end - t0} for s in spans]
