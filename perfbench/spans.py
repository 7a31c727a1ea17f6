"""Spans for the benchmark's traced runs, and the per-layer metrics built from them.

``install`` wraps primeth's public functions from outside the package: each
wrapper records one span per call (name, start, end, parent span, and one
layer-specific number) in memory.  ``layer_metrics`` turns the spans of one
run into the per-layer metrics listed in LAYER_METRICS.
"""

import functools
import time

# (span name, wrapped attribute, number recorded on the span)
_TARGETS = [
    ("engine.prime_count", "engine.prime_count", "x"),
    ("engine.nth_prime", "engine.nth_prime", None),
    ("engine.sieve_segment", "engine.sieve_segment", "odd_ints"),
    ("engine.base_primes_upto", "engine.base_primes_upto", None),
    ("iterated.iterate_prime", "iterated.iterate_prime", None),
    ("iterated.diag_prime", "iterated.diag_prime", None),
    ("iterated.TowerCache.get", "iterated.TowerCache.get", "hit"),
    ("iterated.TowerCache.put", "iterated.TowerCache.put", None),
    ("iterated.TowerCache.load", "iterated.TowerCache.__init__", "records"),
    ("counting.count_diag", "counting.count_diag", None),
    ("counting.count_tower", "counting.count_tower", None),
    ("bounds.check_bounds", "bounds.check_bounds", None),
    ("bounds.write_report_csv", "bounds.write_report_csv", None),
    ("hpreal.compare_int", "hpreal.compare_int", "evals"),
    ("certify.certify_threshold", "certify.certify_threshold", None),
    ("certify.eval_L", "certify.eval_L", None),
    ("cli.main", "cli.main", None),
]

# Span names reported with calls, inclusive time (s) and self time (self_s).
_FULL = [
    "engine.prime_count",
    "engine.nth_prime",
    "iterated.iterate_prime",
    "iterated.diag_prime",
    "counting.count_diag",
    "counting.count_tower",
    "bounds.check_bounds",
    "hpreal.compare_int",
    "cli.main",
]

# prime_count time by decade of x: e9 is x < 1e10, e10 is [1e10, 1e11),
# e11 is x >= 1e11.
_DECADES = [("e9", 0, 10**10), ("e10", 10**10, 10**11), ("e11", 10**11, None)]

COMMAND_KINDS = ["pi", "nth", "count", "verify", "certify"]

LAYER_METRICS = (
    [(f"{n}.{q}", u) for n in _FULL for q, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(f"engine.prime_count.{d}.s", "s") for d, _, _ in _DECADES]
    + [
        ("engine.nth_prime.pi_per_call", "ratio"),
        ("engine.sieve_segment.calls", "count"),
        ("engine.sieve_segment.s", "s"),
        ("engine.sieve_segment.odd_ints", "count"),
        ("engine.sieve_segment.odd_ints_per_s", "1/s"),
        ("engine.base_primes_upto.calls", "count"),
        ("engine.base_primes_upto.s", "s"),
        ("iterated.TowerCache.get.calls", "count"),
        ("iterated.TowerCache.get.hit_ratio", "ratio"),
        ("iterated.TowerCache.put.calls", "count"),
        ("iterated.TowerCache.put.s", "s"),
        ("iterated.TowerCache.load.s", "s"),
        ("iterated.TowerCache.load.records", "count"),
        ("bounds.write_report_csv.s", "s"),
        ("hpreal.compare_int.evals_per_call", "ratio"),
        ("certify.certify_threshold.s", "s"),
        ("certify.eval_L.calls", "count"),
        ("certify.eval_L.s", "s"),
        ("proc.cpu_s", "s"),
        ("proc.minflt", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.self_frac", "ratio"),
    ]
    + [(f"cmd.{kind}.s", "s") for kind in COMMAND_KINDS]
)


class Tracer:
    """In-memory span recorder: spans[i] = [name, start, end, parent, number]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, number=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            if number == "evals":
                value, fn_arg, *rest = args

                def counted():
                    span[4] += 1
                    return fn_arg()

                args = (value, counted, *rest)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if number == "x":
                span[4] = int(args[0])
            elif number == "odd_ints":
                span[4] = len(result.flags)
            elif number == "hit":
                span[4] = int(result is not None)
            elif number == "records":
                span[4] = len(args[0])
            return result

        return traced

    def install(self):
        """Wrap every target where it is defined and wherever it was imported by name."""
        import primeth
        from primeth import bounds, certify, cli, counting, engine, hpreal, iterated

        modules = [primeth, bounds, certify, cli, counting, engine, hpreal, iterated]
        owners = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        for name, target, number in _TARGETS:
            module, *path = target.split(".")
            owner = owners[module]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            traced = self.wrap(name, original, number)
            setattr(owner, path[-1], traced)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)


def layer_metrics(spans):
    """Per-layer metrics of one traced run, from its spans (no proc./trace./cmd. keys)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, incl, self_s, numbers = {}, {}, {}, {}
    for i, (name, start, end, _, number) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        numbers[name] = numbers.get(name, 0) + number

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in _FULL:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = incl.get(name, 0.0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for label, lo, hi in _DECADES:
        m[f"engine.prime_count.{label}.s"] = sum(
            end - start
            for name, start, end, _, x in spans
            if name == "engine.prime_count" and x >= lo and (hi is None or x < hi)
        )
    pi_under_nth = 0
    for name, _, _, parent, _ in spans:
        if name == "engine.prime_count":
            while parent >= 0 and spans[parent][0] != "engine.nth_prime":
                parent = spans[parent][3]
            pi_under_nth += parent >= 0
    m["engine.nth_prime.pi_per_call"] = ratio(pi_under_nth, calls.get("engine.nth_prime", 0))
    seg = "engine.sieve_segment"
    m[f"{seg}.calls"] = calls.get(seg, 0)
    m[f"{seg}.s"] = incl.get(seg, 0.0)
    m[f"{seg}.odd_ints"] = numbers.get(seg, 0)
    m[f"{seg}.odd_ints_per_s"] = ratio(numbers.get(seg, 0), incl.get(seg, 0.0))
    for name in ("engine.base_primes_upto", "iterated.TowerCache.put", "certify.eval_L"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = incl.get(name, 0.0)
    get = "iterated.TowerCache.get"
    m[f"{get}.calls"] = calls.get(get, 0)
    m[f"{get}.hit_ratio"] = ratio(numbers.get(get, 0), calls.get(get, 0))
    m["iterated.TowerCache.load.s"] = incl.get("iterated.TowerCache.load", 0.0)
    m["iterated.TowerCache.load.records"] = numbers.get("iterated.TowerCache.load", 0)
    m["bounds.write_report_csv.s"] = incl.get("bounds.write_report_csv", 0.0)
    m["hpreal.compare_int.evals_per_call"] = ratio(
        numbers.get("hpreal.compare_int", 0), calls.get("hpreal.compare_int", 0)
    )
    m["certify.certify_threshold.s"] = incl.get("certify.certify_threshold", 0.0)
    m["trace.named_self_s"] = sum(self_s.values())
    return m
