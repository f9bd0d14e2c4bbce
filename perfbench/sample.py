"""One benchmark sample: a fresh interpreter runs one workload once.

run.py starts this script once per sample, one process at a time, so no
``lru_cache`` entry of ``torelli3`` survives from one sample to the next
and every sample pays the cold cost a ``torelli3`` invocation pays.

    python3 perfbench/sample.py setup
        Time ``import torelli3`` (every module of the package) plus
        ``load_expectations()`` and print ``{"setup_s": ...}``.

    python3 perfbench/sample.py sample '<json spec>'
        Run one workload and print one JSON line with its verdict time,
        peak RSS, checks, failures, counts and (when traced) spans.

Both print ``calibration_s`` as well: the mean time of a fixed loop of
the harness, timed in the same interpreter before, during (every
0.1 s) and after the measured part.  The time of the loops that ran
inside is taken out of ``verdict_s``, and run.py scales every time by
``calibration_s`` (see README, Noise).

Only ``gc``, ``os``, ``sys`` and ``time`` are imported before the set-up
clock starts, so the set-up time includes every standard-library module
the package pulls in.
"""

import gc
import os
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "torelli3")

# Expected values the harness compares against; none is read from the
# program under test.
CENSUS_COUNTS = (3, 6, 3, 2)
PLANES_HEIGHT_1 = 4767
SPLITTINGS_BOUND_1 = 12657
LADDER_EULER = 1
COPRIME_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))

# Workload sizes.  "smoke" is the harness self-test.
SIZES = {
    "full": {"d31_K": 128, "ladder_K": 32, "d13_sample": 200, "tilde_sample": 100},
    "smoke": {"d31_K": 4, "ladder_K": 4, "d13_sample": 8, "tilde_sample": 8},
}

# Public run_* suites of torelli3.cli, and the census they call, with the
# span each gets in a traced report-default sample.
CLI_SUITES = (
    ("classify_types", "surface.census"),
    ("run_types", "cli.types"),
    ("run_cells", "cli.cells"),
    ("run_ladder", "cli.ladder"),
    ("run_check_d31", "cli.d31"),
    ("run_check_d22", "cli.d22"),
    ("run_check_d13", "cli.d13"),
    ("run_check_d13_tilde", "cli.d13_tilde"),
    ("run_kernel", "cli.kernel"),
    ("run_smodule", "cli.smodule"),
    ("run_lantern", "cli.lantern"),
)


# Iterations of the calibration loop: about 2 ms on a 2.0 GHz Xeon.
CALIBRATION_ITERATIONS = 5000
# Seconds between calibrations while a sample runs.
CALIBRATE_EVERY_S = 0.1
# Calibrations just before and just after a set-up probe.
SETUP_CALIBRATIONS = 3


def calibrate():
    """(start, end) of one run of a fixed loop of the harness.

    The loop does what the program does most: small tuples, dict lookups
    and big-integer bit operations.  The collector is off while it runs
    and it keeps nothing, so the program under test cannot change its
    time; only the speed of the host can.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table = {}
    bits = 0
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 61, i % 59)
        table[key] = table.get(key, 0) + 1
        bits ^= 1 << (i % 3000)
    ended = time.perf_counter()
    if enabled:
        gc.enable()
    return started, ended


class Calibrations:
    """Calibrate when entered, CALIBRATE_EVERY_S after each calibration
    while inside (on a one-shot timer, run in the main thread between two
    bytecodes of the program), and when left."""

    def __enter__(self):
        import signal

        self.signal = signal
        self.spans = [calibrate()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)
        return self

    def _tick(self, signum, frame):
        self.spans.append(calibrate())
        self.signal.setitimer(self.signal.ITIMER_REAL, CALIBRATE_EVERY_S)

    def __exit__(self, *exc):
        self.signal.setitimer(self.signal.ITIMER_REAL, 0)
        self.signal.signal(self.signal.SIGALRM, self.signal.SIG_DFL)
        self.spans.append(calibrate())

    def within(self, start, end):
        """Seconds of calibration between start and end."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.spans)

    def mean(self):
        return sum(b - a for a, b in self.spans) / len(self.spans)


def _fail_setup(message):
    print(f"sample: {message}", file=sys.stderr)
    sys.exit(3)


def _package_modules():
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        _fail_setup(f"no torelli3 package under {SRC}")
    names = sorted(
        name[:-3]
        for name in os.listdir(PACKAGE)
        if name.endswith(".py") and name != "__init__.py"
    )
    return ["torelli3"] + [f"torelli3.{name}" for name in names]


def import_package():
    """Import every module of the checkout's torelli3, never another copy."""
    modules = _package_modules()
    sys.path.insert(0, SRC)
    for name in modules:
        __import__(name)
    origin = os.path.realpath(sys.modules["torelli3"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        _fail_setup(f"torelli3 was imported from {origin}, not from {SRC}")
    sys.modules["torelli3.cli"].load_expectations()


def measure_setup():
    spans = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    started = time.perf_counter()
    import_package()
    setup_s = time.perf_counter() - started
    spans += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    import json

    calibration_s = sum(b - a for a, b in spans) / len(spans)
    print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))


# ---------------------------------------------------------------------------
# one sample


class Sample:
    """Step runner shared by untraced and traced samples.

    Every workload calls each layer through ``call``; a traced sample
    wraps the call in a span, an untraced one calls straight through, so
    both execute the same list of steps.
    """

    def __init__(self, workload, traced, wrong_expected):
        self.workload = workload
        self.traced = traced
        self.census_counts = CENSUS_COUNTS
        if wrong_expected:
            self.census_counts = CENSUS_COUNTS[:3] + (CENSUS_COUNTS[3] + 1,)
        self.step = "start"
        self.spans = []
        self._open = []
        self.checks = 0
        self.failures = []
        self.counts = {}
        self.inputs = {}

    def call(self, step, fn, *args):
        self.step = step
        if not self.traced:
            return fn(*args)
        return self.spanned(step, fn)(*args)

    def spanned(self, name, fn):
        """fn wrapped so that each call records a span called name."""

        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name]
            self.spans.append(span)
            self._open.append(span[0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span += [start, time.perf_counter()]
                self._open.pop()

        return wrapper

    def check(self, what, want, got):
        self.checks += 1
        if want != got:
            self.failures.append(
                f"{self.workload}/{self.step}: {what}: expected {want!r}, got {got!r}"
            )

    def shape(self, name, mat):
        rows, cols = len(mat.rows), len(mat.cols)
        self.counts[f"specseq.{name}.rows"] = rows
        self.counts[f"specseq.{name}.cols"] = cols
        self.counts[f"specseq.{name}.nnz"] = len(mat.entries)
        self.counts[f"specseq.{name}.dense_entries"] = rows * cols
        return rows, cols, len(mat.entries)


def _cache_infos():
    from torelli3 import lattice, surface

    named = (
        ("lattice.rank2_cache_hits", lattice, "enumerate_symplectic_rank2"),
        ("lattice.splittings_cache_hits", lattice, "_splittings_cached"),
        ("surface.census_cache_hits", surface, "_census"),
    )
    # A cache that is gone, or is no longer an lru_cache, raises here: the
    # sample exits nonzero and run.py counts it as a failed check.
    return [(metric, getattr(module, attr).cache_info) for metric, module, attr in named]


def _disjoint_unit_rank(mat):
    """Rank of a matrix whose columns have pairwise disjoint supports.

    Such columns are independent, so the rank is the number of nonzero
    columns; returns None when two supports meet.
    """
    support = {}
    for (row, col), value in mat.entries.items():
        if value:
            support.setdefault(col, set()).add(row)
    seen = set()
    for rows in support.values():
        if seen & rows:
            return None
        seen |= rows
    return len(support)


def twist_window(s, size, seed, index):
    """d31 over the dimension-3 census orbits; one large normal form."""
    from torelli3 import specseq, surface

    K = size["d31_K"]
    s.inputs.update(K=K)
    types = s.call("surface.census", surface.classify_types, 3, 3)
    s.check("dimension-3 census count", s.census_counts[3], len(types))
    s.counts["surface.types"] = len(types)
    orbits = tuple(str(entry.fingerprint) for entry in types)
    s.inputs.update(orbits=len(orbits))
    trunc = specseq.Truncation(K=K, orbits=orbits)
    src = s.call("specseq.d31.build", specseq.build_e1, (3, 1), trunc)
    mat = s.call("specseq.d31.apply", specseq.d31_apply, src)
    cols = len(orbits) * K
    s.check("d31 shape (rows, cols, nnz)", (2 * cols, cols, 2 * cols), s.shape("d31", mat))
    injective = s.call("specseq.d31.rank", specseq.check_injective, mat)
    s.check("d31 rank equals its column count", True, injective)
    s.check("d31 rank from disjoint unit columns", cols, _disjoint_unit_rank(mat))


def _audit(ladder):
    return {
        "pair_endpoints": ladder.check_pair_endpoints(),
        "rung_cofaces": ladder.check_rung_cofaces(),
        "ladder_property": ladder.check_ladder_property(),
        "psi_growth": ladder.check_psi_growth(),
    }


def ladder_deep(s, size, seed, index):
    """One deep ladder, then the d22 page over it with U = <a3, b3>."""
    import random

    from torelli3 import cycles, specseq
    from torelli3.lattice import A3, B3, SymplecticSubgroup

    # A seeded order of the coprime pairs, one pair per sample, so that a
    # run's samples cover the pairs evenly whatever the seed.
    pairs = list(COPRIME_PAIRS)
    random.Random(f"ladder-deep/{seed}").shuffle(pairs)
    m, n = pairs[index % len(pairs)]
    K = size["ladder_K"]
    s.inputs.update(m=m, n=n, K=K)
    ladder = s.call("cycles.build_ladder", cycles.build_ladder, m, n, K)
    audits = s.call("cycles.audit", _audit, ladder)
    for name, passed in audits.items():
        s.check(f"ladder audit {name}", True, passed)
    cells = len(ladder.vertices()), len(ladder.edges()), len(ladder.two_cells())
    s.check("ladder Euler characteristic", LADDER_EULER, cells[0] - cells[1] + cells[2])
    psi = ladder.cell_psi
    top = psi.get(("R", 0), psi[ladder.closing])
    s.check(
        "weight sums (top, previous, vertical)",
        (m + n, 2 * m + n, m + 2 * n),
        (top, psi[("R", -1)], psi[("V", 0)]),
    )
    s.counts["cycles.cell_instances"] = (
        len(ladder.vertex_cells) + len(ladder.edge_cells) + len(ladder.cell_cells)
    )
    u = SymplecticSubgroup.spanned_by([A3, B3])
    trunc = specseq.Truncation(K=K, ladder=ladder, subgroups=(u,), height=1)
    src = s.call("specseq.d22.build", specseq.build_e1, (2, 2), trunc)
    mat = s.call("specseq.d22.apply", specseq.d22_apply, src, ladder)
    s.shape("d22", mat)
    kernel = s.call("specseq.d22.kernel", mat.kernel_vectors)
    s.check("d22 kernel rank", 0, len(kernel))
    separated = s.call("specseq.d22.separation", specseq.check_image_separation, ladder, u)
    s.check("d22 image separation", True, separated)


def _classify_sample(lattice, splittings, x):
    return [lattice.splitting_type_wrt_x(x, sp)[0] for sp in splittings]


def _restricted_family(lattice, splittings, order, x, want):
    """The first `want` splittings in `order` that isolate x in one part."""
    family = []
    calls = 0
    for i in order:
        calls += 1
        if lattice.splitting_type_wrt_x(x, splittings[i])[0] == "a":
            family.append(splittings[i])
            if len(family) == want:
                break
    return family, calls


def _outside_kernel(mat, images):
    """Images v with mat @ v != 0, as (splitting index, nonzero rows)."""
    columns = {}
    for (row, (orbit, tag)), value in mat.entries.items():
        columns.setdefault((orbit, tag.key()), []).append((row, value))
    bad = []
    for i, image in enumerate(images):
        total = {}
        for label, coeff in image.items():
            for row, value in columns.get(label, ()):
                total[row] = total.get(row, 0) + coeff * value
        nonzero = {str(row): v for row, v in total.items() if v}
        if nonzero:
            bad.append((i, nonzero))
    return bad


def _lanterns(sclasses, configs):
    return [bool(sclasses.lantern_check(*config)) for config in configs]


def splitting_family(s, size, seed, index):
    """All splittings of bound 1, sampled d13 and d13-tilde pages, lanterns."""
    import random

    from torelli3 import cli, lattice, sclasses, specseq
    from torelli3.lattice import A1, A2, A3, B1

    rng = random.Random(f"splitting-family/{seed}/{index}")
    planes = s.call("lattice.enumerate_rank2", lattice.enumerate_symplectic_rank2, 1)
    s.check("rank-2 planes of height 1", PLANES_HEIGHT_1, len(planes))
    s.counts["lattice.planes"] = len(planes)
    splittings = s.call("lattice.enumerate_splittings", lattice.enumerate_splittings, 1)
    s.check("splittings of bound 1", SPLITTINGS_BOUND_1, len(splittings))
    s.counts["lattice.splittings"] = len(splittings)

    sample = rng.sample(splittings, size["d13_sample"])
    letters = s.call("lattice.classify", _classify_sample, lattice, sample, A1)
    n = {c: letters.count(c) for c in "abc"}
    src = s.call("specseq.d13.build", specseq.build_e1, (1, 3),
                 specseq.Truncation(splittings=sample, x=A1))
    mat = s.call("specseq.d13.apply", specseq.d13_apply, src)
    s.shape("d13", mat)
    result = s.call("specseq.d13.kernel", specseq.e2_13_kernel, src)
    s.check("d13 kernel rank n_a + 2 n_b + 2 n_c", n["a"] + 2 * n["b"] + 2 * n["c"], result["rank"])

    type_c = [sp for sp, letter in zip(sample, letters) if letter == "c"]
    images = s.call("sclasses.image", lambda: [sclasses.sclass_image_in_e2(sp, src) for sp in type_c])
    s.counts["sclasses.images"] = len(images)
    s.check("s-class images outside ker d13", [], _outside_kernel(mat, images)[:1])

    order = list(range(len(splittings)))
    rng.shuffle(order)
    family, calls = s.call("lattice.classify", _restricted_family, lattice, splittings,
                           order, A1, size["tilde_sample"])
    s.counts["lattice.classify_calls"] = len(sample) + calls
    s.check("restricted family size", size["tilde_sample"], len(family))
    tilde = s.call("specseq.d13_tilde.build", specseq.build_e1, (1, 3),
                   specseq.Truncation(splittings=family, x=A1, y=A2 + A3))
    tmat = s.call("specseq.d13_tilde.apply", specseq.d13_tilde_apply, tilde)
    s.shape("d13_tilde", tmat)
    tresult = s.call("specseq.d13_tilde.kernel", specseq.e2_13_tilde_kernel, tilde)
    s.check("d13-tilde rank equals its splitting count", len(family), tresult["rank"])

    stock = list(cli.LANTERN_CONFIGS)
    translated = []
    for base in stock:
        c = rng.choice(cli.TRANSLATE_POOL)
        mat6 = lattice.transvection_matrix(c, power=rng.choice((1, -1, 2)))
        translated.append(tuple(lattice.apply_matrix(mat6, v) for v in base))
    perturbed = [config[:4] + (config[4] + B1,) + config[5:] for config in stock]
    configs = stock + translated + perturbed
    s.counts["sclasses.lantern_configs"] = len(configs)
    s.inputs.update(d13_splittings=len(sample), n_a=n["a"], n_b=n["b"], n_c=n["c"],
                    tilde_splittings=len(family), lantern_configs=len(configs))
    results = s.call("sclasses.lantern", _lanterns, sclasses, configs)
    for i, passed in enumerate(results):
        kind = ("stock", "translated", "perturbed x+b1")[i // len(stock)]
        s.check(f"lantern {kind} config {i % len(stock)}", kind != "perturbed x+b1", passed)


def _normalized_report(text):
    """The report JSON without its timing block and seed settings."""
    import json

    report = json.loads(text)
    report.pop("timing", None)

    def drop_seed(node):
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if key == "config" and isinstance(value, dict):
                    value = {k: v for k, v in value.items() if k != "seed"}
                out[key] = drop_seed(value)
            return out
        if isinstance(node, list):
            return [drop_seed(v) for v in node]
        return node

    return json.dumps(drop_seed(report), indent=2, sort_keys=True, ensure_ascii=False)


def report_default(s, size, seed, index):
    """`torelli3 report --seed <seed>` at default flags, stdout captured."""
    import contextlib
    import io
    import json

    from torelli3 import cli

    with open(os.path.join(HERE, "golden_report.json"), encoding="utf-8") as handle:
        golden = handle.read().rstrip("\n")
    if s.traced:
        for attr, span in CLI_SUITES:
            setattr(cli, attr, s.spanned(span, getattr(cli, attr)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = s.call("cli.main", cli.main, ["report", "--seed", str(seed)])
    text = out.getvalue()
    s.check("exit code", 0, code)
    report = json.loads(text)
    s.check("report ok", True, report.get("ok"))
    counts = report["verdicts"]["types"]["verdicts"]["counts"]
    s.check("census counts", list(s.census_counts), counts)
    s.counts["surface.types"] = sum(counts)
    got = _normalized_report(text)
    if got != golden:
        diff = next(
            (pair for pair in zip(golden.splitlines(), got.splitlines()) if pair[0] != pair[1]),
            (f"{len(golden)} bytes", f"{len(got)} bytes"),
        )
        s.check("report outside timing and config.seed", diff[0], diff[1])
    else:
        s.check("report outside timing and config.seed", golden, got)


WORKLOADS = {
    "twist-window": twist_window,
    "ladder-deep": ladder_deep,
    "splitting-family": splitting_family,
    "report-default": report_default,
}


def run_sample(spec):
    import json
    import resource

    import_package()
    s = Sample(spec["workload"], spec["trace"], spec["wrong_expected"])
    caches = _cache_infos()
    s.step = "cold-start guard"
    warm = {metric: info().currsize for metric, info in caches}
    s.check("lru_cache entries at sample start", {}, {k: v for k, v in warm.items() if v})
    workload = WORKLOADS[spec["workload"]]
    with Calibrations() as calibrations:
        started = time.perf_counter()
        try:
            workload(s, SIZES[spec["size"]], spec["seed"], spec["index"])
        except Exception as err:  # a step that raises is a failed check
            s.checks += 1
            s.failures.append(f"{s.workload}/{s.step}: raised {type(err).__name__}: {err}")
        ended = time.perf_counter()
    for metric, info in caches:
        s.counts[metric] = info().hits
    result = {
        "verdict_s": ended - started - calibrations.within(started, ended),
        "calibration_s": calibrations.mean(),
        "calibrations": calibrations.spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": s.checks,
        "failures": s.failures,
        "counts": s.counts,
        "inputs": s.inputs,
        "spans": [
            {"id": i, "parent": parent, "name": name, "start": start, "end": end}
            for i, parent, name, start, end in s.spans
        ],
    }
    print(json.dumps(result))


def main(argv):
    if argv[1:] == ["setup"]:
        measure_setup()
    elif len(argv) == 3 and argv[1] == "sample":
        import json

        run_sample(json.loads(argv[2]))
    else:
        _fail_setup("usage: sample.py setup | sample.py sample '<json spec>'")


if __name__ == "__main__":
    main(sys.argv)
