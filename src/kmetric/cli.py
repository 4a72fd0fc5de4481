"""Command-line front end.

Subcommands: analyze (max_k / dim_k with a certificate), sequence (full
dimension sequence with expected-value verdicts), verify (theorem property
suites on seeded random instances), join (join two spaces and compare
dimensions).

Exit codes: 0 success, 2 input error, 3 budget exhausted with only bounds,
4 property violation in a verify suite.

Each subcommand declares only the options it reads, and each option has
one setter: its flag, with its default in the parser.  The commands read
the parsed namespace directly.

Runs are reproducible: the same arguments produce byte-identical JSON/CSV
output, so timing never appears in the payload.  An analyze run whose
budget ran out while the lex-min basis was being chosen is not: it says so
with `"basis_kind": "witness"` and a `note:` line on stderr.  Only analyze
prints a basis, so only it has the lex-min one rebuilt.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from functools import cache
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, KMetricError, format_distance
from .families import expected_sequence, make, make_space, parse_family
from .graphs import Graph, parse_edge_list, shortest_path_metric
from .solver import (
    DEFAULT_BUDGET_SECS,
    DimensionSequence,
    ExtendedNat,
    SolveReport,
    dim_exact,
    sequence_with_reports,
)
from .spaces import (
    FiniteMetricSpace,
    TwoPointSpaceWarning,
    dump_space,
    is_k_generator,
    join,
    load_space,
    max_k,
    space_to_json_dict,
    truncate,
)
from .verify import SUITE_NAMES, bounded, join_dimensions, run_suite

SCHEMA = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

def _fraction(text: str) -> Fraction:
    """argparse type for rational flags: 1/0, like any bad value, is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _check_printable(flag: str, value: Fraction | None) -> None:
    """Reject a value whose later str() would fail for its length."""
    if value is not None:
        try:
            str(value)
        except ValueError:
            raise KMetricError(f"{flag} {format_distance(value)} has too many digits to print") from None


def _load_source(family: str | None, input_path: str | None,
                 flags: str = "--family/--input") -> tuple[FiniteMetricSpace, str]:
    """Resolve one input source to a space plus a printable source name."""
    if (family is None) == (input_path is None):
        raise KMetricError(f"exactly one of {flags} is required")
    if family is not None:
        spec = parse_family(family)
        return make_space(spec), str(spec)
    try:
        text = Path(input_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{input_path} is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return load_space(text), input_path
    return shortest_path_metric(parse_edge_list(text)), input_path


def _load_truncated(args: argparse.Namespace) -> tuple[FiniteMetricSpace, str]:
    """The --family/--input space of analyze or sequence, truncated at --t
    when it is given, plus its printable source name."""
    space, source = _load_source(args.family, args.input)
    if args.t is not None:
        space = truncate(space, args.t)
        source = f"{source} truncated at t={args.t}"
    return space, source


def _emit(args: argparse.Namespace, payload: dict, plain_lines: list[str], csv_text: str | None = None):
    """Print the payload as JSON, with the schema and the command, CSV or
    plain lines; only verify, whose parser offers no CSV, omits `csv_text`."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "command": args.command, **payload}, indent=2, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        print("\n".join(plain_lines))


def cmd_analyze(args: argparse.Namespace) -> int:
    space, source = _load_truncated(args)
    cap = max_k(space)
    payload: dict = {
        "source": source,
        "n": space.n,
        "max_k": cap,
    }
    lines = [f"space: {source} (n={space.n})", f"max_k: {cap}"]
    csv_rows = ["key,value", f"n,{space.n}", f"max_k,{cap}"]
    exit_code = EXIT_OK
    if args.k is not None:
        report = dim_exact(space, args.k, budget_secs=args.budget_secs)
        payload["k"] = args.k
        payload["dim"] = report.optimum.to_json()
        payload["status"] = report.status
        payload["nodes"] = report.nodes_explored
        payload["lower_bound_trace"] = [[name, value] for name, value in report.lower_bound_trace]
        lines.append(f"dim_{args.k}: {report.optimum}")
        csv_rows.append(f"dim_{args.k},{report.optimum}")
        if report.status == "bounded":
            payload["bounds"] = list(report.bounds)
            lines.append(f"bounds: [{report.bounds[0]}, {report.bounds[1]}]")
            exit_code = EXIT_BUDGET
        elif report.basis_kind == "witness":
            payload["basis_kind"] = report.basis_kind
            print("note: the budget ran out while choosing the lexicographically smallest"
                  " basis; the basis shown is optimal but may not be the smallest",
                  file=sys.stderr)
        if report.basis is not None:
            certificate = is_k_generator(space, report.basis, args.k)
            payload["basis"] = list(report.basis.labels(space))
            payload["certificate"] = {
                "valid": certificate.valid,
                "min_coverage": certificate.min_coverage(),
            }
            lines.append("basis: " + " ".join(report.basis.labels(space)))
            lines.append(
                f"certificate: {'valid' if certificate.valid else 'INVALID'}"
                f" (min coverage {certificate.min_coverage()})")
        else:
            payload["basis"] = None
            payload["certificate"] = None
    _emit(args, payload, lines, "\n".join(csv_rows) + "\n")
    return exit_code


def cmd_sequence(args: argparse.Namespace) -> int:
    space, source = _load_truncated(args)
    cap = max_k(space)
    seq, reports = sequence_with_reports(space, args.k_max, budget_secs=args.budget_secs)
    payload: dict = {
        "source": source,
        "n": space.n,
        "max_k": cap,
    }
    if seq is None:
        last = reports[-1]
        exact = DimensionSequence(tuple(r.optimum for r in reports[:-1]), tail_start=None)
        payload["status"] = "bounded"
        payload["bounded_at_k"] = last.k
        payload["bounds"] = list(last.bounds)
        payload["entries"] = [e.to_json() for e in exact.entries]
        _emit(args, payload,
              [f"sequence {source}: budget exhausted at k={last.k}, optimum in {last.bounds}"],
              exact.to_csv())
        return EXIT_BUDGET
    payload["entries"] = [e.to_json() for e in seq.entries]
    payload["tail_start"] = seq.tail_start
    payload["status"] = "optimal"
    lines = [f"sequence {source} (n={space.n}, max_k={cap})"]
    expected = None
    if args.family is not None and args.t is None:
        expected = expected_sequence(parse_family(args.family))
    if expected is not None:
        verdicts, tail_verdict, overall = expected.judge(seq)
        for k, (entry, verdict) in enumerate(zip(seq.entries, verdicts), start=1):
            want = expected.entries[k - 1] if k <= len(expected.entries) else "?"
            lines.append(f"k={k} dim={entry} expected={want} {verdict}")
        if tail_verdict is not None:
            lines.append(f"k>={seq.tail_start} dim=inf expected tail {expected.tail_start} {tail_verdict}")
        lines.append(f"overall: {overall}")
        payload["expected"] = asdict(expected)
        payload["verdicts"] = verdicts
        payload["tail_verdict"] = tail_verdict
        payload["overall"] = overall
    else:
        payload["expected"] = None
        payload["verdicts"] = None
        payload["overall"] = "UNKNOWN"
        for k, entry in enumerate(seq.entries, start=1):
            lines.append(f"k={k} dim={entry}")
        lines.append(f"k>={seq.tail_start} dim=inf")
    _emit(args, payload, lines, seq.to_csv())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graphs = None
    if args.family is not None:
        member = make(parse_family(args.family))
        if not isinstance(member, Graph):
            raise KMetricError("--family for verify must name a graph family")
        graphs = [member]
    st_pair = None
    if args.s is not None or args.t is not None:
        if args.s is None or args.t is None or not 0 < args.s < args.t:
            raise KMetricError("custom truncation needs --s and --t with 0 < s < t")
        st_pair = (args.s, args.t)
    budget_secs = args.budget_secs
    if budget_secs is None and args.suite != "bipartite":
        budget_secs = DEFAULT_BUDGET_SECS
    result = run_suite(
        args.suite,
        count=args.random,
        n=args.n,
        seed=args.seed,
        graphs=graphs,
        budget_secs=budget_secs,
        st_pair=st_pair,
    )
    payload = {
        "seed": args.seed,
        **result.to_json_dict(),
    }
    status = "PASS" if result.passed else "FAIL"
    lines = [f"suite {result.suite}: {result.cases - len(result.failures)}/{result.cases} {status}"]
    for failure in result.failures[:3]:
        lines.append(f"counterexample: {json.dumps(failure, sort_keys=True)}")
    _emit(args, payload, lines)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def _interval(report: SolveReport) -> tuple[ExtendedNat, ExtendedNat]:
    """A solve's dimension as (lower, upper): equal ends when it is exact,
    the proven bound and the incumbent when the budget ran out."""
    if bounded([report]):
        return tuple(map(ExtendedNat, report.bounds))
    return report.optimum, report.optimum


def _interval_json(interval: tuple[ExtendedNat, ExtendedNat]) -> int | str | list:
    """An exact value as itself, anything else as its [lower, upper] list."""
    low, high = interval
    return low.to_json() if low == high else [low.to_json(), high.to_json()]


def _csv_cell(value) -> str:
    # an interval's "[lower, upper]" holds a comma, so it is quoted
    return f'"{value}"' if isinstance(value, list) else str(value)


def cmd_join(args: argparse.Namespace) -> int:
    space_a, source_a = _load_source(args.family, args.input)
    space_b, source_b = _load_source(args.family2, args.input2, "--family2/--input2")
    joined = join(space_a, space_b, args.t)
    ks = [args.k] if args.k is not None else list(range(1, args.k_max + 1))
    rows = join_dimensions(space_a, space_b, joined, args.t, ks, budget_secs=args.budget_secs)
    table = []
    for k, reports in zip(ks, rows):
        da, db, dat, dbt, dj = map(_interval, reports)
        total = (da[0] + db[0], da[1] + db[1])
        if total[1] < dj[0]:
            relation = "<"
        elif total[0] > dj[1]:
            relation = ">"
        else:
            relation = "=" if total[0] == total[1] == dj[0] == dj[1] else "?"
        table.append({
            "k": k,
            "dim_a": _interval_json(da),
            "dim_b": _interval_json(db),
            "sum": _interval_json(total),
            "dim_a_trunc": _interval_json(dat),
            "dim_b_trunc": _interval_json(dbt),
            "dim_join": _interval_json(dj),
            "relation": relation,
        })
    payload = {
        "source_a": source_a,
        "source_b": source_b,
        "t": str(args.t),
        "space": space_to_json_dict(joined),
        "table": table,
    }
    exhausted = bounded(report for reports in rows for report in reports)
    if exhausted:
        payload["status"] = "bounded"
    lines = [f"join {source_a} + {source_b} at t={args.t} (n={joined.n})", dump_space(joined)]
    for row in table:
        lines.append(
            f"k={row['k']}: dim_a={row['dim_a']} dim_b={row['dim_b']} sum={row['sum']}"
            f" dim_join={row['dim_join']} sum{row['relation']}join")
    columns = ("k", "dim_a", "dim_b", "sum", "dim_a_trunc", "dim_b_trunc", "dim_join", "relation")
    csv_rows = [",".join(columns)] + [",".join(_csv_cell(row[c]) for c in columns) for row in table]
    _emit(args, payload, lines, "\n".join(csv_rows) + "\n")
    return EXIT_BUDGET if exhausted else EXIT_OK


def _add_source(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--family", help="family token, e.g. petersen, cycle:8, grid-ball:2,4")
    group.add_argument("--input", help="path to a space JSON or edge-list file")


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "csv", "plain")):
    sub.add_argument("--format", choices=formats, default="plain")
    sub.add_argument("--budget-secs", dest="budget_secs", type=float, default=DEFAULT_BUDGET_SECS,
                     help="per-level time budget in seconds, > 0; inf for no limit"
                          f" (default {DEFAULT_BUDGET_SECS:g})")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="kmetric",
        description="bisectors, k-metric generators and dimension sequences of finite metric spaces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="max_k and dim_k with basis and certificate")
    _add_source(analyze)
    _add_common(analyze)
    analyze.add_argument("--k", type=int, default=None)
    analyze.add_argument("--t", type=_fraction, default=None, help="truncate the space at t first")

    sequence = commands.add_parser("sequence", help="full dimension sequence with expected verdicts")
    _add_source(sequence)
    _add_common(sequence)
    sequence.add_argument("--k-max", dest="k_max", type=int, default=None)
    sequence.add_argument("--t", type=_fraction, default=None, help="truncate the space at t first")

    verify = commands.add_parser("verify", help="run a theorem property suite")
    verify.add_argument("--family",
                        help="graph family token, checked instead of random graphs (bipartite suite)")
    _add_common(verify, ("json", "plain"))
    # None tells a given flag from the default, which the bipartite suite does not take.
    verify.set_defaults(budget_secs=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    verify.add_argument("--random", type=int, default=None, help="number of random instances")
    verify.add_argument("--n", type=int, default=None, help="max instance size")
    verify.add_argument("--s", type=_fraction, default=None, help="smaller truncation parameter")
    verify.add_argument("--t", type=_fraction, default=None, help="larger truncation parameter")

    join_cmd = commands.add_parser("join", help="join two spaces and compare dimensions")
    _add_source(join_cmd)
    _add_common(join_cmd)
    group2 = join_cmd.add_mutually_exclusive_group()
    group2.add_argument("--family2", help="second input as a family token")
    group2.add_argument("--input2", help="second input as a file path")
    levels = join_cmd.add_mutually_exclusive_group()
    levels.add_argument("--k", type=int, default=None)
    levels.add_argument("--k-max", dest="k_max", type=int, default=1)
    join_cmd.add_argument("--t", type=_fraction, required=True, help="cross-part distance (rational)")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "sequence": cmd_sequence,
    "verify": cmd_verify,
    "join": cmd_join,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    show_other = warnings.showwarning
    warned = []

    def show_warning(message, category, filename, lineno, file=None, line=None):
        # A two-point input is said once, as one line with no source path,
        # so stderr does not depend on where the package is installed.
        if not issubclass(category, TwoPointSpaceWarning):
            show_other(message, category, filename, lineno, file, line)
        elif not warned:
            warned.append(message)
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            # None is verify's unset flag; `> 0` also rejects NaN, which would never expire.
            if args.budget_secs is not None and not args.budget_secs > 0:
                raise KMetricError(f"--budget-secs must be > 0 (inf for no limit), got {args.budget_secs}")
            for name in ("t", "s"):
                _check_printable(f"--{name}", getattr(args, name, None))
            if getattr(args, "k_max", None) is not None and args.k_max < 1:
                raise KMetricError(f"--k-max must be at least 1, got {args.k_max}")
            return _COMMANDS[args.command](args)
        except KMetricError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
