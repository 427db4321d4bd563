"""Batch command-line front end.

Commands: betti, cover-homology, quotient-homology, wedge-homology, verify,
export.  Reports go to stdout or ``--out`` as JSON (canonical), CSV, or
aligned text.  Identical argv (including --seed) produces byte-identical
output.

Exit codes: 0 all checks pass / report produced, 1 a verification check
failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from .complexes import (
    ChainComplex,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
    export_json,
    export_text,
)
from .homology import (
    DEFAULT_TRIALS,
    FAST_PRIME,
    DegreeEntry,
    HomologyReport,
    betti_symmetric_power,
    generic_homology,
    integer_homology,
)
from .verify import SUITE_ORDER, SUITES, run_suite


# Largest --k of a Betti count (``betti``, ``cover-homology --method count``),
# which lists all 2k+1 degrees.  On a 2-vCPU x86_64 host with CPython 3.11, k at
# this limit took 7.3-9.6 s CPU and 890-919 MB peak RSS in the default JSON
# format for g = 1, 5 and 10 (text and CSV took 226-251 MB), so a count stays
# near 1 GB.
MAX_BETTI_K = 400_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argparse errors as a ``UsageError`` instead of exiting."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``run`` and kept for the
    process: ``parse_args`` returns a fresh namespace and keeps no state."""
    parser = _Parser(
        prog="sympow",
        description="Chain complexes and homology of symmetric powers of surfaces and their covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *spaces, need_k=True, methods=(), ranks=True):
        """The flags a subcommand reads: its spaces, ``--k``, ``--method`` when it
        has ``methods``, the rank flags when ``ranks``, and the output flags."""
        if "genus" in spaces:
            p.add_argument("--genus", type=int, help="genus g of the surface")
        if "arity" in spaces:
            p.add_argument("--arity", type=int, help="arity n of the wedge of circles")
        p.add_argument("--k", type=int, required=need_k, help="symmetric-power degree / truncation")
        if methods:
            p.add_argument("--method", choices=methods, default=None,
                           help="homology route (default generic)")
        if ranks:
            p.add_argument("--N", type=int, default=None, help="finite cover order for the snf method")
            p.add_argument("--trials", type=int, default=None, help=f"(default {DEFAULT_TRIALS})")
            p.add_argument("--seed", type=int, default=None, help="(default 0)")
            p.add_argument("--prime", type=int, default=None)
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("betti", help="Betti numbers of the k-th symmetric power")
    add_common(p, "genus", ranks=False)

    p = sub.add_parser("cover-homology", help="homology of the universal-cover complex")
    add_common(p, "genus", methods=["generic", "snf", "count"])

    p = sub.add_parser("quotient-homology", help="cohomology of the truncated lam-multiplication complex")
    add_common(p, "genus", methods=["generic", "snf"])

    p = sub.add_parser("wedge-homology", help="homology of the truncated wedge complex")
    add_common(p, "arity", methods=["generic", "snf"])

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p, "genus", "arity", need_k=False)
    p.add_argument("--suite", required=True, choices=SUITE_ORDER + ["all"])

    p = sub.add_parser("export", help="emit a complex in the SYMPOW-COMPLEX v1 format")
    p.add_argument("--genus", type=int)
    p.add_argument("--arity", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--case", required=True, choices=["cover", "wedge", "q"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", type=str, default=None)
    return parser


def _require(args, flag: str) -> int:
    """The value of ``--genus`` or ``--arity``, which must be given and >= 1."""
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"--{flag} is required for this command")
    if value < 1:
        raise UsageError(f"--{flag} must be >= 1")
    return value


def _or(value: int | None, default: int) -> int:
    """A rank flag's value, or its default when the flag was not given."""
    return default if value is None else value


def _validate(args) -> None:
    # the least value of each numeric flag; --genus and --arity get theirs from _require
    for name, least in (("k", 0), ("N", 1), ("trials", 1), ("prime", 0)):
        v = getattr(args, name, None)
        if v is not None and v < least:
            raise UsageError(f"--{name} must be >= {least}")


def _check_suite_flags(args) -> None:
    """Refuse a flag that ``--suite`` never reads (``verify.SUITES``), instead of
    ignoring it.  ``all`` reads every flag but --k, since each suite of the
    battery picks its own k."""
    if args.suite == "all":
        reads = {flag for _, defaults in SUITES.values() for flag in defaults} - {"k"}
    else:
        reads = SUITES[args.suite][1]
    for flag in ("genus", "arity", "k", "N", "trials", "seed", "prime"):
        if getattr(args, flag) is not None and flag not in reads:
            raise UsageError(f"--{flag} does not apply to --suite {args.suite}")


def _complex(args, case: str) -> ChainComplex:
    """The complex of ``case`` (cover, wedge or q) at the parsed flags, after the
    usage checks that the homology commands and ``export`` share."""
    size = _require(args, "arity" if case == "wedge" else "genus")
    if case == "wedge" and args.k > size:
        raise UsageError(f"--k must be <= arity {size} (no cells beyond degree n)")
    if case == "q" and args.k < 1:
        raise UsageError("--k must be >= 1 for the quotient complex")
    build = {"cover": build_cover_complex, "wedge": build_wedge_complex, "q": build_Q_complex}[case]
    return build(size, args.k)


def _betti_report(args) -> HomologyReport:
    g = _require(args, "genus")
    if args.k > MAX_BETTI_K:
        raise UsageError(f"the Betti count at g={g}, k={args.k:,} would list {2 * args.k + 1:,} degrees, "
                         f"over the limit of k={MAX_BETTI_K:,}")
    betti = betti_symmetric_power(g, args.k)
    return HomologyReport("surface-cover", {"g": g, "k": args.k}, "betti-count",
                          [DegreeEntry(d, b) for d, b in enumerate(betti)])


def _homology_report(args, kind: str) -> HomologyReport:
    method = args.method or "generic"
    if args.N is not None and method != "snf":
        raise UsageError("--N applies only to --method snf")
    if method != "generic":
        for flag in ("prime", "trials", "seed"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies only to --method generic")
    if method == "count":
        return _betti_report(args)
    complex_ = _complex(args, kind)
    if method == "generic":
        rep = generic_homology(complex_, _or(args.trials, DEFAULT_TRIALS), _or(args.seed, 0),
                               _or(args.prime, FAST_PRIME))
    else:
        rep = integer_homology(complex_, args.N if args.N is not None else 1)
    if kind == "q":
        # relabel stored chain degrees as cochain positions
        top = complex_.params["top"]
        entries = [DegreeEntry(top - e.degree, e.rank, e.torsion) for e in rep.entries]
        entries.sort(key=lambda e: e.degree)
        rep.entries = entries
    return rep


def _csv(rows: list[list]) -> str:
    """``rows`` as CSV text; ``csv`` is imported only on the ``--format csv`` path."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _render_homology(rep: HomologyReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rep.to_json_dict(), indent=2) + "\n"
    if fmt == "csv":
        return _csv([["degree", "rank", "torsion"]] +
                    [[e.degree, e.rank, ";".join(map(str, e.torsion))] for e in rep.entries])
    lines = [f"case={rep.case} method={rep.method} params={rep.params}"]
    lines.append(f"{'degree':>6}  {'rank':>6}  torsion")
    for e in rep.entries:
        torsion = ",".join(map(str, e.torsion)) or "-"
        lines.append(f"{e.degree:>6}  {e.rank:>6}  {torsion}")
    lines.append(f"euler = {rep.euler}")
    return "\n".join(lines) + "\n"


def _render_verify(reports, fmt: str) -> str:
    if fmt == "json":
        if len(reports) == 1:
            payload = reports[0].to_json_dict()
        else:
            payload = {"suites": [r.to_json_dict() for r in reports],
                       "pass": all(r.passed for r in reports)}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _csv([["suite", "check", "pass", "detail"]] +
                    [[r.suite, c.name, "pass" if c.passed else "FAIL", c.detail]
                     for r in reports for c in r.checks])
    lines = []
    for r in reports:
        lines.append(f"suite {r.suite} params={r.params}")
        for c in r.checks:
            lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(f"  => {'pass' if r.passed else 'FAIL'}")
    lines.append("all suites pass" if all(r.passed for r in reports) else "FAILURES present")
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str, str | None]:
    """Parse argv and produce (exit_code, report_text, out_path); no I/O."""
    try:
        args = _parser().parse_args(argv)
        out = args.out
        _validate(args)
        if args.command == "betti":
            return 0, _render_homology(_betti_report(args), args.format), out
        kind = {"cover-homology": "cover", "wedge-homology": "wedge",
                "quotient-homology": "q"}.get(args.command)
        if kind:
            rep = _homology_report(args, kind)
            return 0, _render_homology(rep, args.format), out
        if args.command == "verify":
            _check_suite_flags(args)
            n_list = None if args.N is None else tuple(sorted({1, args.N}))
            reports = run_suite(args.suite, g=args.genus, n=args.arity, k=args.k,
                                trials=args.trials, seed=args.seed, prime=args.prime, N_list=n_list)
            code = 0 if all(r.passed for r in reports) else 1
            return code, _render_verify(reports, args.format), out
        if args.command == "export":
            other = "genus" if args.case == "wedge" else "arity"
            if getattr(args, other) is not None:
                raise UsageError(f"--{other} does not apply to --case {args.case}")
            complex_ = _complex(args, args.case)
            text = export_text(complex_) if args.format == "text" else export_json(complex_)
            return 0, text, out
        raise UsageError(f"unknown command {args.command}")
    except SystemExit:  # --help, printed by argparse
        return 0, "", None
    except (UsageError, ValueError) as exc:
        return 2, f"usage error: {exc}\n", None


def main() -> None:
    code, text, out = run(sys.argv[1:])
    if code != 2 and out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = ""
        except OSError as exc:  # exit 1 means a failed check, so this is a usage error
            code, text = 2, f"usage error: cannot write --out: {exc}\n"
    (sys.stderr if code == 2 else sys.stdout).write(text)
    raise SystemExit(code)
