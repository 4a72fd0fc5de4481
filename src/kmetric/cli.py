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
with `"basis_kind": "witness"` and a `note:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, KMetricError, format_distance
from .families import expected_sequence, make, make_space, parse_family
from .graphs import Graph, parse_edge_list, shortest_path_metric
from .solver import DEFAULT_BUDGET_SECS, DimensionSequence, dim_exact, sequence_with_reports
from .spaces import (
    FiniteMetricSpace,
    dump_space,
    is_k_generator,
    join,
    load_space,
    max_k,
    space_to_json_dict,
    truncate,
)
from .verify import SUITE_NAMES, join_dimensions, run_suite

SCHEMA = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

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


def _emit(payload: dict, fmt: str, plain_lines: list[str], csv_text: str | None = None):
    """Print the payload as JSON, CSV or plain lines; only verify, whose
    parser offers no CSV, omits `csv_text`."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        sys.stdout.write(csv_text)
    else:
        print("\n".join(plain_lines))


def cmd_analyze(args: argparse.Namespace) -> int:
    space, source = _load_source(args.family, args.input)
    if args.t is not None:
        space = truncate(space, args.t)
        source = f"{source} truncated at t={args.t}"
    cap = max_k(space)
    payload: dict = {
        "schema": SCHEMA,
        "command": "analyze",
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
        if report.basis_kind == "witness":
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
    _emit(payload, args.format, lines, "\n".join(csv_rows) + "\n")
    return exit_code


def cmd_sequence(args: argparse.Namespace) -> int:
    space, source = _load_source(args.family, args.input)
    truncated = args.t is not None
    if truncated:
        space = truncate(space, args.t)
        source = f"{source} truncated at t={args.t}"
    cap = max_k(space)
    seq, reports = sequence_with_reports(space, args.k_max, budget_secs=args.budget_secs)
    payload: dict = {
        "schema": SCHEMA,
        "command": "sequence",
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
        _emit(payload, args.format,
              [f"sequence {source}: budget exhausted at k={last.k}, optimum in {last.bounds}"],
              exact.to_csv())
        return EXIT_BUDGET
    payload["entries"] = [e.to_json() for e in seq.entries]
    payload["tail_start"] = seq.tail_start
    payload["status"] = "optimal"
    lines = [f"sequence {source} (n={space.n}, max_k={cap})"]
    expected = None
    if args.family is not None and not truncated:
        expected = expected_sequence(parse_family(args.family))
    if expected is not None:
        verdicts = []
        for k, entry in enumerate(seq.entries, start=1):
            if k <= len(expected.entries):
                want = expected.entries[k - 1]
                verdict = "PASS" if entry == want else "FAIL"
            else:
                want = "?"
                verdict = "UNKNOWN" if expected.partial else "FAIL"  # expected infinite, computed finite
            verdicts.append(verdict)
            lines.append(f"k={k} dim={entry} expected={want} {verdict}")
        tail_verdict = None
        if not expected.partial:
            tail_verdict = "PASS" if expected.tail_start == seq.tail_start else "FAIL"
            lines.append(f"k>={seq.tail_start} dim=inf expected tail {expected.tail_start} {tail_verdict}")
        overall = "FAIL" if ("FAIL" in verdicts or tail_verdict == "FAIL") else "PASS"
        lines.append(f"overall: {overall}")
        payload["expected"] = {
            "entries": list(expected.entries),
            "tail_start": expected.tail_start,
            "partial": expected.partial,
        }
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
    _emit(payload, args.format, lines, seq.to_csv())
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
        "schema": SCHEMA,
        "command": "verify",
        "seed": args.seed,
        **result.to_json_dict(),
    }
    status = "PASS" if result.passed else "FAIL"
    lines = [f"suite {result.suite}: {result.cases - len(result.failures)}/{result.cases} {status}"]
    for failure in result.failures[:3]:
        lines.append(f"counterexample: {json.dumps(failure, sort_keys=True)}")
    _emit(payload, args.format, lines)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_join(args: argparse.Namespace) -> int:
    space_a, source_a = _load_source(args.family, args.input)
    space_b, source_b = _load_source(args.family2, args.input2, "--family2/--input2")
    joined = join(space_a, space_b, args.t)
    ks = [args.k] if args.k is not None else list(range(1, args.k_max + 1))
    rows = join_dimensions(space_a, space_b, joined, args.t, ks, budget_secs=args.budget_secs)
    table = []
    for k, (da, db, dat, dbt, dj) in zip(ks, rows):
        total = da + db
        relation = "=" if total == dj else ("<" if total < dj else ">")
        table.append({
            "k": k,
            "dim_a": da.to_json(),
            "dim_b": db.to_json(),
            "sum": total.to_json(),
            "dim_a_trunc": dat.to_json(),
            "dim_b_trunc": dbt.to_json(),
            "dim_join": dj.to_json(),
            "relation": relation,
        })
    payload = {
        "schema": SCHEMA,
        "command": "join",
        "source_a": source_a,
        "source_b": source_b,
        "t": str(args.t),
        "space": space_to_json_dict(joined),
        "table": table,
    }
    lines = [f"join {source_a} + {source_b} at t={args.t} (n={joined.n})", dump_space(joined)]
    for row in table:
        lines.append(
            f"k={row['k']}: dim_a={row['dim_a']} dim_b={row['dim_b']} sum={row['sum']}"
            f" dim_join={row['dim_join']} sum{row['relation']}join")
    csv_rows = ["k,dim_a,dim_b,sum,dim_a_trunc,dim_b_trunc,dim_join,relation"]
    csv_rows += [
        f"{r['k']},{r['dim_a']},{r['dim_b']},{r['sum']},{r['dim_a_trunc']},{r['dim_b_trunc']},{r['dim_join']},{r['relation']}"
        for r in table
    ]
    _emit(payload, args.format, lines, "\n".join(csv_rows) + "\n")
    return EXIT_OK


def _add_source(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--family", help="family token, e.g. petersen, cycle:8, grid-ball:2,4")
    group.add_argument("--input", help="path to a space JSON or edge-list file")


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "csv", "plain")):
    sub.add_argument("--format", choices=formats, default="plain")
    sub.add_argument("--budget-secs", dest="budget_secs", type=float, default=DEFAULT_BUDGET_SECS,
                     help="per-level time budget in seconds, > 0; inf for no limit"
                          f" (default {DEFAULT_BUDGET_SECS:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmetric",
        description="bisectors, k-metric generators and dimension sequences of finite metric spaces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="max_k and dim_k with basis and certificate")
    _add_source(analyze)
    _add_common(analyze)
    analyze.add_argument("--k", type=int, default=None)
    analyze.add_argument("--t", type=Fraction, default=None, help="truncate the space at t first")

    sequence = commands.add_parser("sequence", help="full dimension sequence with expected verdicts")
    _add_source(sequence)
    _add_common(sequence)
    sequence.add_argument("--k-max", dest="k_max", type=int, default=None)
    sequence.add_argument("--t", type=Fraction, default=None, help="truncate the space at t first")

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
    verify.add_argument("--s", type=Fraction, default=None, help="smaller truncation parameter")
    verify.add_argument("--t", type=Fraction, default=None, help="larger truncation parameter")

    join_cmd = commands.add_parser("join", help="join two spaces and compare dimensions")
    _add_source(join_cmd)
    _add_common(join_cmd)
    group2 = join_cmd.add_mutually_exclusive_group()
    group2.add_argument("--family2", help="second input as a family token")
    group2.add_argument("--input2", help="second input as a file path")
    levels = join_cmd.add_mutually_exclusive_group()
    levels.add_argument("--k", type=int, default=None)
    levels.add_argument("--k-max", dest="k_max", type=int, default=1)
    join_cmd.add_argument("--t", type=Fraction, required=True, help="cross-part distance (rational)")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "sequence": cmd_sequence,
    "verify": cmd_verify,
    "join": cmd_join,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
