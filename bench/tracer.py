"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of each lindisc module at
every place they are looked up (``cli`` and ``discs`` import solvers by
name; ``LaurentSeries.__rmul__`` and ``FqElement.__rmul__`` are aliases
of ``__mul__``).  Each call is a span; a layer's self time is its spans'
time minus the time of the spans nested inside them.  Spans stay in
memory (up to ``SPAN_CAP``) and are written out when the run ends.
"""

import json
from time import perf_counter

SPAN_CAP = 100_000
INT64_BYTES = 8


def _terms(series):
    """Nonzero rows of a series: the gathers a dense operation makes for it."""
    return int(series.coeffs.any(axis=1).sum())


class Tracer:
    def __init__(self, patcher):
        import lindisc.cli as cli
        import lindisc.discs as discs
        import lindisc.field as field
        import lindisc.laurent as laurent
        import lindisc.multiplier as multiplier
        import lindisc.powerseries as powerseries
        import lindisc.schroder as schroder
        from lindisc._dense import DensePoly

        self.stats = {}  # layer -> [calls, self seconds]
        self.counts = {
            "dense.bytes_computed": 0,
            "laurent.mul.coeff_products": 0,
            "schroder.useful_steps": 0,
            "discs.periodic_found": 0,
        }
        self.spans = []
        self.job = None
        self._next_id = 0
        self._stack = [[0.0, None]]  # [child seconds, span id]
        self._structural = schroder.STRUCTURAL
        self._series_type = laurent.LaurentSeries

        fn = patcher.function
        fn(cli.load_job, self.wrap("cli.parse", cli.load_job))
        fn(cli._job_map, self.wrap("cli.parse", cli._job_map))
        fn(schroder.solve_sfe, self.wrap(
            "schroder.solve_sfe", schroder.solve_sfe, after=self._useful_steps))
        fn(schroder.solve_specialized_p_plus_1, self.wrap(
            "schroder.solve_specialized", schroder.solve_specialized_p_plus_1))
        fn(schroder.certify_divergence, self.wrap(
            "schroder.certify_divergence", schroder.certify_divergence))
        for check in (schroder.check_structural_zeros, schroder.check_coefficient_bound):
            fn(check, self.wrap("schroder.checks", check))
        fn(multiplier.mult_profile, self.wrap("multiplier.mult_profile", multiplier.mult_profile))
        fn(powerseries.ps_eval, self.wrap("powerseries.ps_eval", powerseries.ps_eval))
        fn(powerseries.binomial_mod_p, self.wrap(
            "powerseries.binomial_mod_p", powerseries.binomial_mod_p))
        fn(discs.classify_linearization_disc, self.wrap(
            "discs.classify", discs.classify_linearization_disc))
        fn(discs.find_periodic_point, self.wrap(
            "discs.find_periodic_point", discs.find_periodic_point, after=self._found))
        fn(discs.weierstrass_data, self.wrap("discs.weierstrass_data", discs.weierstrass_data))

        meth = patcher.method
        meth(DensePoly, "mul_by_map",
             lambda f: self.wrap("dense.mul_by_map", f, before=self._mul_by_map_bytes))
        meth(DensePoly, "add_scaled",
             lambda f: self.wrap("dense.add_scaled", f, before=self._add_scaled_bytes))
        series = laurent.LaurentSeries
        meth(series, "__mul__", lambda f: self.wrap("laurent.mul", f, before=self._products))
        meth(series, "__add__", lambda f: self.wrap("laurent.add", f))
        meth(series, "inverse", lambda f: self.wrap("laurent.inverse", f))
        meth(field.FqElement, "__mul__", lambda f: self.wrap("field.mul", f))
        meth(field.FqElement, "__pow__", lambda f: self.wrap("field.pow", f))
        meth(field.FqElement, "inverse", lambda f: self.wrap("field.inverse", f))

    # -- spans -------------------------------------------------------------------

    def wrap(self, layer, fn, before=None, after=None):
        stat = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if before is not None:
                t = perf_counter()
                before(*args)
                stack[-1][0] += perf_counter() - t  # bookkeeping is nobody's self time
            span = self._next_id
            self._next_id += 1
            frame = [0.0, span]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((span, parent, self.job, layer, t0, t1))
            if after is not None:
                t = perf_counter()
                after(out)
                stack[-1][0] += perf_counter() - t
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters measured at the same boundaries --------------------------------

    def _mul_by_map_bytes(self, poly, f, *_):
        rows = poly.W * poly.field.r * INT64_BYTES
        self.counts["dense.bytes_computed"] += sum(
            _terms(a) * (poly.D + 1 - i) * rows
            for i, a in f.coeffs.items()
            if i <= poly.D and not a.is_zero_as_known
        )

    def _add_scaled_bytes(self, poly, series, *_):
        self.counts["dense.bytes_computed"] += (
            _terms(series) * (poly.D + 1) * poly.W * poly.field.r * INT64_BYTES
        )

    def _products(self, a, b, *_):
        if isinstance(b, self._series_type):
            r = a.field.r
            self.counts["laurent.mul.coeff_products"] += (
                a.coeffs.shape[0] * b.coeffs.shape[0] * r * r
            )

    def _useful_steps(self, g):
        self.counts["schroder.useful_steps"] += sum(
            1 for k in range(2, g.D + 1) if g.zero_kind[k] != self._structural
        )

    def _found(self, point):
        if point is not None:
            self.counts["discs.periodic_found"] += 1

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, jobs, attempts, pipelines):
        """Per-job figures for BENCHMARK.json's per_layer metrics (all but
        trace.overhead_s, which needs an untraced round to compare with)."""

        def calls(layer):
            return self.stats.get(layer, [0, 0.0])[0]

        def self_s(layer):
            return self.stats.get(layer, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        per_job = {
            "dense.mul_by_map.calls": (calls("dense.mul_by_map"), "count/job"),
            "dense.mul_by_map.self_s": (self_s("dense.mul_by_map"), "s/job"),
            "dense.add_scaled.calls": (calls("dense.add_scaled"), "count/job"),
            "dense.add_scaled.self_s": (self_s("dense.add_scaled"), "s/job"),
            "dense.bytes_computed": (self.counts["dense.bytes_computed"], "bytes/job"),
            "schroder.solve_sfe.self_s": (self_s("schroder.solve_sfe"), "s/job"),
            "schroder.solve_specialized.self_s": (
                self_s("schroder.solve_specialized"), "s/job"),
            "schroder.checks.self_s": (self_s("schroder.checks"), "s/job"),
            "laurent.mul.calls": (calls("laurent.mul"), "count/job"),
            "laurent.mul.self_s": (self_s("laurent.mul"), "s/job"),
            "laurent.mul.coeff_products": (
                self.counts["laurent.mul.coeff_products"], "count/job"),
            "laurent.add.self_s": (self_s("laurent.add"), "s/job"),
            "laurent.inverse.calls": (calls("laurent.inverse"), "count/job"),
            "laurent.inverse.self_s": (self_s("laurent.inverse"), "s/job"),
            "field.mul.calls": (calls("field.mul"), "count/job"),
            "field.mul.self_s": (self_s("field.mul"), "s/job"),
            "field.pow.self_s": (self_s("field.pow"), "s/job"),
            "field.inverse.calls": (calls("field.inverse"), "count/job"),
            "field.inverse.self_s": (self_s("field.inverse"), "s/job"),
            "discs.find_periodic_point.calls": (calls("discs.find_periodic_point"), "count/job"),
            "discs.find_periodic_point.self_s": (self_s("discs.find_periodic_point"), "s/job"),
            "discs.weierstrass_data.self_s": (self_s("discs.weierstrass_data"), "s/job"),
            "powerseries.ps_eval.self_s": (self_s("powerseries.ps_eval"), "s/job"),
            "powerseries.binomial_mod_p.calls": (
                calls("powerseries.binomial_mod_p"), "count/job"),
            "multiplier.mult_profile.self_s": (self_s("multiplier.mult_profile"), "s/job"),
            "cli.parse.self_s": (self_s("cli.parse"), "s/job"),
        }
        metrics = {name: (value / jobs, unit) for name, (value, unit) in per_job.items()}
        metrics["schroder.useful_step_ratio"] = (
            ratio(self.counts["schroder.useful_steps"], calls("dense.mul_by_map")), "ratio")
        metrics["discs.periodic_found_ratio"] = (
            ratio(self.counts["discs.periodic_found"], calls("discs.find_periodic_point")),
            "ratio")
        metrics["cli.attempts_per_job"] = (ratio(attempts, pipelines), "count")
        return metrics

    def write_spans(self, path):
        """Spans as JSON lines: id, parent id, job id, layer, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
