"""Command line interface for the torelli3 toolkit.

Each subcommand runs one of the standard verification suites and prints
a JSON report with the shape::

    {"command": ..., "config": ..., "verdicts": ..., "ok": ...,
     "timing": {"seconds": ...}, "tool": {"name": ..., "version": ...}}

Exit status is 0 when every verdict agrees with the packaged
expectations, 1 on a mismatch (a page kernel that misses its predicted
pattern included), 2 on usage errors (``--K`` outside 1 to ``MAX_K``
and ``--bound`` above ``MAX_BOUND`` too), and 3 on an internal error:
two computations of the same quantity disagree, or any other exception
escapes.  A raised error's status is the ``exit_code`` of its
``lattice.Torelli3Error`` class.  ``TORELLI3_LOG`` (``debug``, ``info``,
...) shows progress on stderr; without it ``logging`` is never imported.
"""

import argparse
import json
import os
import random
import sys
import time
from importlib import resources
from types import SimpleNamespace

from . import __version__
from .cycles import build_ladder
from .lattice import (
    A1, A2, A3, B1, B2, B3, STANDARD_SPLITTING, ZERO, InternalInconsistencyError, MismatchError,
    Splitting, SymplecticSubgroup, Torelli3Error, UsageError, apply_matrix,
    enumerate_splittings, transform_splitting, transvection_matrix,
)
from .sclasses import (
    lantern_check,
    o_module_reduce,
    per_splitting_rank,
    relation_factors,
    s3_equivariance_check,
)
from .specseq import (
    Truncation,
    build_e1,
    check_image_separation,
    d22_apply,
    d31_apply,
    e2_13_kernel,
    e2_13_tilde_kernel,
    vanishing_census,
)
from .surface import cd_arithmetic_line, census_json, classify_types

# the logger until TORELLI3_LOG sets one up: every call is info, which WARNING drops
log = SimpleNamespace(info=lambda *args: None)

EXIT_OK = 0
EXIT_MISMATCH = MismatchError.exit_code
EXIT_USAGE = UsageError.exit_code
EXIT_INTERNAL = InternalInconsistencyError.exit_code

DEFAULT_K = 3
# the largest window at which every measured `check d22 --mn 2,5` stayed inside 30 s
# (2-vCPU host): 2.3-2.4 s and 183 MB peak RSS at 5120 over three cold runs, with
# fill-0 pivots off a worklist and no rank per appended lift; none above 5120 measured
MAX_K = 5120
DEFAULT_MN = (1, 2)
MAX_BOUND = 1  # bound 2 has 1,399,337 splittings, 27 s only to count them


def _span(*vectors):
    return SymplecticSubgroup.spanned_by(vectors)


def plain_splitting_family():
    """Standard splitting plus three transvection translates.

    The translates realize the three classification letters with respect
    to the first handle class: two of type a, one of type b, one of
    type c.
    """
    family = [STANDARD_SPLITTING]
    for c in (A2 + A3, B1 + A2, B1 + A2 + A3):
        family.append(
            transform_splitting(transvection_matrix(c), STANDARD_SPLITTING)
        )
    return tuple(family)


def tilde_splitting_family():
    """Four splittings isolating the first handle, one per crossing type
    with respect to the probe class a2 + a3."""
    return (
        Splitting([_span(A1, B1), _span(A2 + A3, B3), _span(A2, B2 - B3)]),
        Splitting([_span(A1, B1 - B3), _span(A1 + A2 + A3, B2), _span(A1 + A3, B3 - B2)]),
        STANDARD_SPLITTING,
        Splitting([_span(A1, B1 - B3), _span(A2, B2), _span(A1 + A3, B3)]),
    )


LANTERN_CONFIGS = (
    (ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO),
    (A2, -A2, ZERO, ZERO, ZERO, A2, A2),
    (A1, A2, A3, A1 + A2 + A3, A1 + A2, A2 + A3, A1 + A3),
    (A1, A2 + A3, A2 - A3, A1 + 2 * A2, A1 + A2 + A3, 2 * A2, A1 + A2 - A3),
    (A1, ZERO, A3, A1 + A3, A1, A3, A1 + A3),
)

TRANSLATE_POOL = (A1, A2, A3, B1, B2, B3, A1 + B2, A2 - B3, B1 + A2 + A3)


def load_expectations():
    """Packaged verdict expectations, decoded from the data directory."""
    path = resources.files("torelli3").joinpath("data/expectations.json")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# suites


def run_types(exp, dim=None):
    expected = exp["types"]["counts"]
    if dim is None:
        counts = [len(classify_types(3, p)) for p in range(4)]
        log.info("census counts by dimension: %s", counts)
        verdicts = {"counts": counts, "total": sum(counts)}
        return {}, verdicts, counts == expected
    count = len(classify_types(3, dim))
    want = expected[dim] if dim < len(expected) else 0
    verdicts = {"count": count, "expected": want}
    return {"dim": dim}, verdicts, count == want


def run_cells(exp):
    records = census_json()
    lines = []
    for p in range(4):
        for entry in classify_types(3, p):
            lines.append(cd_arithmetic_line(entry.witness))
    worst = max(r["dim"] + r["cd_bound"] for r in records)
    required = exp["cells"]["required_lines"]
    verdicts = {
        "count": len(records),
        "max_dim_plus_cd": worst,
        "arithmetic": lines,
    }
    ok = worst == exp["cells"]["max_dim_plus_cd"] and all(
        line in lines for line in required
    )
    return {}, verdicts, ok


def run_ladder(exp, m, n, K, ladder=None):
    if ladder is None:
        ladder = build_ladder(m, n, K)
    nv = len(ladder.vertices())
    ne = len(ladder.edges())
    nf = len(ladder.two_cells())
    euler = nv - ne + nf
    top = ladder.cell_psi[("R", 0) if ("R", 0) in ladder.cell_psi else ladder.closing]
    psi = {
        "top": top,
        "previous": ladder.cell_psi[("R", -1)],
        "vertical": ladder.cell_psi[("V", 0)],
    }
    checks = {
        "pair_endpoints": ladder.check_pair_endpoints(),
        "rung_cofaces": ladder.check_rung_cofaces(),
        "ladder_property": ladder.check_ladder_property(),
        "psi_growth": ladder.check_psi_growth(),
    }
    log.info("ladder (%d, %d, K=%d): %d/%d/%d cells", m, n, K, nv, ne, nf)
    verdicts = {
        "vertices": nv,
        "edges": ne,
        "cells": nf,
        "euler": euler,
        "psi": psi,
        "checks": checks,
    }
    ok = (
        euler == exp["ladder"]["euler"]
        and all(checks.values()) == exp["ladder"]["checks_pass"]
        and psi["top"] == m + n
        and psi["previous"] == 2 * m + n
        and psi["vertical"] == m + 2 * n
    )
    return {"m": m, "n": n, "K": K}, verdicts, ok


def run_check_d31(exp, K):
    orbits = tuple(str(e.fingerprint) for e in classify_types(3, 3))
    trunc = Truncation(K=K, orbits=orbits)
    src = build_e1((3, 1), trunc)
    mat = d31_apply(src)
    rank = mat.rank()
    injective = rank == len(mat.cols)
    verdicts = {
        "orbits": len(orbits),
        "columns": len(mat.cols),
        "rank": rank,
        "injective": injective,
    }
    ok = injective == exp["check"]["d31"]["injective"]
    return {"K": K}, verdicts, ok


def run_check_d22(exp, m, n, K, height, ladder=None):
    if ladder is None:
        ladder = build_ladder(m, n, K)
    u = _span(A3, B3)
    trunc = Truncation(K=K, ladder=ladder, subgroups=(u,), height=height)
    src = build_e1((2, 2), trunc)
    mat = d22_apply(src, ladder)
    kernel_rank = len(mat.kernel_combos())
    separation = check_image_separation(ladder, u)
    verdicts = {
        "basis": len(src),
        "kernel_rank": kernel_rank,
        "separation": separation,
    }
    want = exp["check"]["d22"]
    ok = kernel_rank == want["kernel_rank"] and separation == want["separation"]
    return {"m": m, "n": n, "K": K, "height": height}, verdicts, ok


def _kernel_verdict(kernel, src, verdicts):
    """Compare a page kernel with its expected rank.

    The page is already built, so a kernel that misses its predicted
    pattern is a mismatch of the check, not a usage error: the message
    goes under ``error`` and the run reports ``ok: false``.
    """
    try:
        result = kernel(src)
    except MismatchError as err:
        return {}, {**verdicts, "error": str(err)}, False
    verdicts["kernel_rank"] = result["rank"]
    return {}, verdicts, result["rank"] == verdicts["expected_rank"]


def run_check_d13(exp, bound=None):
    """The plain (1, 3) page over the default family, or over every
    splitting of the bound, whose counts and rank are frozen."""
    if bound is None:
        family = plain_splitting_family()
    else:
        family = enumerate_splittings(bound)
    trunc = Truncation(splittings=family, x=A1)
    src = build_e1((1, 3), trunc)
    letters = {}
    for (letter, key, _), _tag in src.basis:
        letters.setdefault(key, letter)
    counts = {c: sum(1 for v in letters.values() if v == c) for c in "abc"}
    expected_rank = counts["a"] + 2 * counts["b"] + 2 * counts["c"]
    verdicts = {
        "splittings": len(family),
        "counts": counts,
        "expected_rank": expected_rank,
    }
    _, verdicts, ok = _kernel_verdict(e2_13_kernel, src, verdicts)
    if bound is None:
        return {}, verdicts, ok
    want = exp["check"]["d13"]["bound"][str(bound)]
    ok = (
        ok
        and counts == want["counts"]
        and verdicts["kernel_rank"] == want["kernel_rank"]
    )
    return {"bound": bound}, verdicts, ok


def run_check_d13_tilde(exp):
    family = tilde_splitting_family()
    trunc = Truncation(splittings=family, x=A1, y=A2 + A3)
    src = build_e1((1, 3), trunc)
    types = {}
    for (ytype, key, _), _tag in src.basis:
        types.setdefault(key, ytype)
    counts = {str(t): sum(1 for v in types.values() if v == t) for t in (1, 2, 3, 4)}
    verdicts = {
        "splittings": len(family),
        "counts": counts,
        "expected_rank": sum(counts.values()),
    }
    return _kernel_verdict(e2_13_tilde_kernel, src, verdicts)


def run_kernel(exp):
    table = vanishing_census()
    bounds = {str(r["fingerprint"]): r["zero_above"] for r in table["types"]}
    verdicts = {
        "rows": len(table["types"]),
        "tilde_0_4_zero": table["tilde_0_4_zero"],
        "bounds": bounds,
    }
    want = exp["kernel"]
    ok = (
        len(table["types"]) == want["rows"]
        and table["tilde_0_4_zero"] == want["tilde_0_4_zero"]
    )
    return {}, verdicts, ok


def run_smodule(exp):
    nonzero = relation_factors()
    rank = per_splitting_rank(nonzero)
    torsion_free = all(f == 1 for f in nonzero)
    equivariant = s3_equivariance_check()
    verdicts = {
        "rank": rank,
        "invariant_factors": nonzero,
        "torsion_free": torsion_free,
        "equivariant": equivariant,
        "diagonal_collapses": o_module_reduce((1, 1, 1)) == (0, 0),
    }
    want = exp["smodule"]
    ok = (
        rank == want["rank"]
        and torsion_free == want["torsion_free"]
        and equivariant == want["equivariant"]
        and verdicts["diagonal_collapses"]
    )
    return {}, verdicts, ok


def run_lantern(exp, seed=None):
    configs = list(LANTERN_CONFIGS)
    translated = 0
    if seed is not None:
        rng = random.Random(seed)
        for base in LANTERN_CONFIGS:
            c = rng.choice(TRANSLATE_POOL)
            power = rng.choice((1, -1, 2))
            mat = transvection_matrix(c, power=power)
            configs.append(tuple(apply_matrix(mat, v) for v in base))
            translated += 1
    results = [bool(lantern_check(*config)) for config in configs]
    verdicts = {
        "configs": len(configs),
        "translated": translated,
        "results": results,
        "all_pass": all(results),
    }
    ok = all(results) == exp["lantern"]["all_pass"]
    return {"seed": seed}, verdicts, ok


# Each suite reads its arguments off the parsed command line, for a
# subcommand and for ``report`` alike, and takes the run's ladder: None
# for a subcommand, which builds its own.  ``run_*`` and ``build_ladder``
# are looked up when called, so a wrapper set on ``cli.run_*`` or
# ``cli.build_ladder`` sees every call.
REPORT_SUITES = (
    ("types", lambda exp, args, ladder: run_types(exp, args.dim)),
    ("cells", lambda exp, args, ladder: run_cells(exp)),
    ("ladder", lambda exp, args, ladder: run_ladder(exp, *args.mn, args.K, ladder)),
    ("d31", lambda exp, args, ladder: run_check_d31(exp, args.K)),
    ("d22", lambda exp, args, ladder: run_check_d22(exp, *args.mn, args.K, args.height, ladder)),
    ("d13", lambda exp, args, ladder: run_check_d13(exp, args.bound)),
    ("d13-tilde", lambda exp, args, ladder: run_check_d13_tilde(exp)),
    ("kernel", lambda exp, args, ladder: run_kernel(exp)),
    ("smodule", lambda exp, args, ladder: run_smodule(exp)),
    ("lantern", lambda exp, args, ladder: run_lantern(exp, args.seed)),
)


def run_report(exp, args):
    """Every suite, the ladder and d22 sections on one (m, n, K) ladder
    built for this call only.  The audits only read the ladder's tables,
    and the d22 page only adds to its memo of appended cells."""
    ladder = build_ladder(*args.mn, args.K)
    sections = {}
    ok = True
    for name, suite in REPORT_SUITES:
        config, verdicts, section_ok = suite(exp, args, ladder)
        log.info("section %s: %s", name, "ok" if section_ok else "MISMATCH")
        sections[name] = {
            "config": config,
            "verdicts": verdicts,
            "ok": section_ok,
        }
        ok = ok and section_ok
    config = {"K": args.K, "mn": list(args.mn), "seed": args.seed}
    return config, sections, ok


# ---------------------------------------------------------------------------
# wiring


def _run_command(args, exp):
    """Run the suite the command line names; ``check`` adds its target."""
    if args.command == "report":
        return run_report(exp, args)
    if args.command != "check":
        return dict(REPORT_SUITES)[args.command](exp, args, None)
    config, verdicts, ok = dict(REPORT_SUITES)[args.target](exp, args, None)
    return {"target": args.target, **config}, verdicts, ok


def _mn(text):
    try:
        m, n = map(int, text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError("expected two integers like 1,2") from err
    return m, n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torelli3",
        description="verification suites for the genus 3 handlebody census",
    )
    parser.add_argument("--version", action="version", version=f"torelli3 {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="also write the report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", parents=[common], help="count multicurve types by dimension")
    p.add_argument("--dim", type=int, help="restrict to one dimension")

    p = sub.add_parser("cells", parents=[common], help="dimension bounds over the census")

    p = sub.add_parser("ladder", parents=[common], help="build and audit a truncated ladder")
    p.add_argument("--mn", type=_mn, default=DEFAULT_MN, help="weights, e.g. 1,2")
    p.add_argument("--K", type=int, default=DEFAULT_K, help="truncation window")

    p = sub.add_parser("check", parents=[common], help="differential injectivity and kernels")
    p.add_argument("target", choices=("d31", "d22", "d13", "d13-tilde"))
    p.add_argument("--mn", type=_mn, default=DEFAULT_MN, help="weights, e.g. 1,2")
    p.add_argument("--K", type=int, default=DEFAULT_K, help="truncation window")
    p.add_argument("--height", type=int, default=1, help="subgroup height cap")
    p.add_argument("--bound", type=int, help="d13 over every splitting of this height bound")

    p = sub.add_parser("kernel", parents=[common], help="stabilizer vanishing table")

    p = sub.add_parser("smodule", parents=[common], help="splitting class module structure")

    p = sub.add_parser("lantern", parents=[common], help="lantern relation configurations")
    p.add_argument("--seed", type=int, help="also check random translates")

    p = sub.add_parser("report", parents=[common], help="run every suite and aggregate")
    p.add_argument("--mn", type=_mn, default=DEFAULT_MN, help="weights, e.g. 1,2")
    p.add_argument("--K", type=int, default=DEFAULT_K, help="truncation window")
    p.add_argument("--seed", type=int, help="seed for the lantern translates")
    p.set_defaults(dim=None, height=1, bound=None)

    return parser


def _configure_logging():
    global log
    name = os.environ.get("TORELLI3_LOG")
    if name is None:
        return
    import logging

    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    log = logging.getLogger("torelli3")


def _check_limits(args):
    K = getattr(args, "K", 1)
    if K < 1:
        raise UsageError(f"--K {K} is below 1")
    if K > MAX_K:
        raise UsageError(f"--K {K} is above the limit {MAX_K}")
    bound = getattr(args, "bound", None)
    if bound is not None and args.target != "d13":
        raise UsageError("--bound applies to check d13 only")
    if bound is not None and bound > MAX_BOUND:
        raise UsageError(f"--bound {bound} is above the limit {MAX_BOUND}")


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        expectations = load_expectations()
        started = time.perf_counter()
        config, verdicts, ok = _run_command(args, expectations)
        report = {
            "command": args.command,
            "config": config,
            "verdicts": verdicts,
            "ok": ok,
            "timing": {"seconds": round(time.perf_counter() - started, 3)},
            "tool": {"name": "torelli3", "version": __version__},
        }
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
        print(text)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except Torelli3Error as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
