"""Tracing for the benchmark's traced run, kept in the benchmark's own files.

`Tracer.install` replaces the program's public functions at the names their
callers look up (for example `cli.char_poly_s2` and `specfile.load`) with
wrappers that record spans, and wraps the public scalar operators with
counters that also keep a sample of their operands.  Spans stay in memory;
`Tracer.summary` turns them into per-pass figures at the end.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict

SAMPLE_SIZE = 256

# (module, attribute) -> span name; the module is where the caller looks it up
SPANS = [
    ("specfile", "load", "specfile.load"),
    ("grothendieck", "verify_fusion", "grothendieck.verify_fusion"),
    ("modcat", "verify_module", "modcat.verify_module"),
    ("cli", "dimension_eigenspace", "spectrum.dimension_eigenspace"),
    ("spectrum", "dimension_eigenspace", "spectrum.dimension_eigenspace"),
    ("families", "dimension_eigenspace", "spectrum.dimension_eigenspace"),
    ("cli", "select_m", "spectrum.select_m"),
    ("cli", "char_poly_s2", "spectrum.char_poly_s2"),
    ("spectrum", "block_multiplicities", "spectrum.block_multiplicities"),
    ("families", "taft_family", "families.build"),
    ("families", "uqsl2_family", "families.build"),
    ("families", "uqg_family", "families.build"),
    ("families", "vecg_family", "families.build"),
    ("families", "regular_module", "families.build"),
    ("cli", "char_poly_pivotalized", "pivotalization.char_poly_pivotalized"),
    ("cli", "from_matched_pivotal", "pivotalization.from_matched_pivotal"),
    ("oracle", "radical_via_trace_form", "oracle.radical_via_trace_form"),
    ("oracle", "validate_cartan", "oracle.validate_cartan"),
    ("oracle", "taft_s2_spectrum", "oracle.taft_s2_spectrum"),
    ("cli", "print_spectrum", "cli.render"),
]

# (module, class, method) -> counter name; operands are sampled for micro-loops
COUNTERS = [
    ("cyclotomic", "CycNum", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycNum", "__rmul__", "cyclotomic.mul"),
    ("cyclotomic", "CycNum", "inverse", "cyclotomic.inverse"),
    ("symbolic", "FactoredValue", "__mul__", "symbolic.mul"),
    ("symbolic", "FactoredValue", "__truediv__", "symbolic.div"),
]

# per-layer metric -> (how it is computed, span or counter name, unit)
PER_LAYER = {
    "specfile.load_s": ("total", "specfile.load", "s"),
    "grothendieck.verify_fusion_s": ("total", "grothendieck.verify_fusion", "s"),
    "modcat.verify_module_s": ("total", "modcat.verify_module", "s"),
    "spectrum.dimension_eigenspace_s": ("total", "spectrum.dimension_eigenspace", "s"),
    "spectrum.select_m_s": ("total", "spectrum.select_m", "s"),
    "spectrum.char_poly_s2_self_s": ("self", "spectrum.char_poly_s2", "s"),
    "spectrum.block_multiplicities_s": ("total", "spectrum.block_multiplicities", "s"),
    "spectrum.nonzero_blocks": ("count", "spectrum.nonzero_blocks", "count"),
    "spectrum.distinct_eigenvalues": ("count", "spectrum.distinct_eigenvalues", "count"),
    "spectrum.merge_yield": ("ratio", ("spectrum.distinct_eigenvalues", "spectrum.nonzero_blocks"),
                             "ratio"),
    "spectrum.merge_pairs_s": ("total", "spectrum.merge_pairs", "s"),
    "spectrum.merge_pairs_in": ("count", "spectrum.merge_pairs_in", "count"),
    "families.build_self_s": ("self", "families.build", "s"),
    "cyclotomic.mul_calls": ("count", "cyclotomic.mul", "count"),
    "cyclotomic.inverse_calls": ("count", "cyclotomic.inverse", "count"),
    "cyclotomic.mul_us": ("micro", "cyclotomic.mul", "us"),
    "cyclotomic.inverse_us": ("micro", "cyclotomic.inverse", "us"),
    "symbolic.mul_calls": ("count", "symbolic.mul", "count"),
    "symbolic.div_calls": ("count", "symbolic.div", "count"),
    "symbolic.mul_us": ("micro", "symbolic.mul", "us"),
    "scalar.canonical_key_calls": ("count", "scalar.canonical_key", "count"),
    "scalar.canonical_key_us": ("micro", "scalar.canonical_key", "us"),
    "pivotalization.char_poly_pivotalized_s": ("total", "pivotalization.char_poly_pivotalized",
                                               "s"),
    "pivotalization.from_matched_pivotal_s": ("total", "pivotalization.from_matched_pivotal", "s"),
    "oracle.radical_via_trace_form_s": ("total", "oracle.radical_via_trace_form", "s"),
    "oracle.validate_cartan_s": ("total", "oracle.validate_cartan", "s"),
    "oracle.taft_s2_spectrum_s": ("total", "oracle.taft_s2_spectrum", "s"),
    "cli.render_s": ("total", "cli.render", "s"),
    "cli.output_bytes": ("count", "cli.output_bytes", "bytes"),
}


class Tracer:
    def __init__(self, seed):
        self.spans = []  # [name, start, end, parent index, pass number]
        self.stack = []
        self.pass_no = -1
        self.counts = defaultdict(int)
        self.pass_counts = []
        self.samples = defaultdict(list)
        self.seen = defaultdict(int)
        self.rng = random.Random(seed)
        self.originals = []
        self.micro_fns = {}

    # -- pass bookkeeping ------------------------------------------------------------

    def start_pass(self, number):
        self.pass_no = number
        self.counts = defaultdict(int)

    def end_pass(self):
        self.pass_counts.append(dict(self.counts))

    def add(self, name, n):
        self.counts[name] += n

    # -- wrappers ----------------------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_no])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _sample(self, name, args):
        seen = self.seen[name] = self.seen[name] + 1
        bucket = self.samples[name]
        if len(bucket) < SAMPLE_SIZE:
            bucket.append(args)
        else:
            j = self.rng.randrange(seen)
            if j < SAMPLE_SIZE:
                bucket[j] = args

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if not kwargs:
                self._sample(name, args)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self.originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, pkg):
        """Wrap the program's functions; pkg maps module names to modules."""
        for mod, attr, name in SPANS:
            post = None
            if name == "spectrum.block_multiplicities":
                post = self._post_blocks
            elif name == "spectrum.char_poly_s2":
                post = self._post_charpoly
            self._patch(pkg[mod], attr, self._span(name, getattr(pkg[mod], attr), post))
        for mod, cls, attr, name in COUNTERS:
            owner = getattr(pkg[mod], cls)
            fn = owner.__dict__[attr]
            self.micro_fns.setdefault(name, fn)
            self._patch(owner, attr, self._counter(name, fn))
        key_fn = pkg["spectrum"].canonical_key
        self.micro_fns["scalar.canonical_key"] = key_fn
        self._patch(pkg["spectrum"], "canonical_key", self._counter("scalar.canonical_key", key_fn))

        spec_cls = pkg["spectrum"].SpectrumFactorization
        merge = spec_cls.__dict__["merge_pairs"].__func__

        def merge_pairs(cls, pairs, *args, **kwargs):
            self.counts["spectrum.merge_pairs_in"] += len(pairs)
            return merge(cls, pairs, *args, **kwargs)

        self._patch(spec_cls, "merge_pairs",
                    classmethod(self._span("spectrum.merge_pairs", merge_pairs)))

    def uninstall(self):
        while self.originals:
            owner, attr, value = self.originals.pop()
            setattr(owner, attr, value)

    def _post_blocks(self, args, result):
        self.counts["spectrum.nonzero_blocks"] += int((result != 0).sum())

    def _post_charpoly(self, args, result):
        self.counts["spectrum.distinct_eigenvalues"] += len(result.entries)

    # -- results -------------------------------------------------------------------------

    def micro_us(self, name, min_seconds=0.02, repeats=5):
        """Median time per call of the original operator over the sampled
        operands; 0 when the workload never called it."""
        ops = self.samples.get(name)
        if not ops:
            return 0.0
        fn = self.micro_fns[name]
        loops = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(loops):
                for args in ops:
                    fn(*args)
            dt = time.perf_counter() - t0
            if dt >= min_seconds:
                break
            loops *= 2
        times = [dt]
        for _ in range(repeats - 1):
            t0 = time.perf_counter()
            for _ in range(loops):
                for args in ops:
                    fn(*args)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / (loops * len(ops)) * 1e6

    def _per_pass_times(self, passes):
        """{span name: ([total s per pass], [self s per pass])}; a span nested in
        a span of the same name counts only once in the total."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, p) in enumerate(self.spans):
            own[name][p] += (t1 - t0) - child_time[i]
            q = parent
            while q >= 0 and self.spans[q][0] != name:
                q = self.spans[q][3]
            if q < 0:
                total[name][p] += t1 - t0
        return {name: ([total[name][p] for p in passes], [own[name][p] for p in passes])
                for name in total}

    def summary(self, passes):
        """Per-layer metrics over the traced passes: medians of per-pass figures."""
        times = self._per_pass_times(passes)
        out = {}
        for metric, (how, name, _) in PER_LAYER.items():
            if how in ("total", "self"):
                series = times.get(name, ([0.0] * len(passes), [0.0] * len(passes)))
                value = statistics.median(series[0 if how == "total" else 1])
            elif how == "count":
                value = statistics.median(c.get(name, 0) for c in self.pass_counts)
            elif how == "ratio":
                num, den = (statistics.median(c.get(n, 0) for c in self.pass_counts) for n in name)
                value = num / den if den else 0.0
            else:
                value = self.micro_us(name)
            out[metric] = value
        return out
