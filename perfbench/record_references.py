"""Record the reference answers the benchmark gates on.

    python3 perfbench/record_references.py

Run from the repository root on a commit whose answers are trusted; it
rewrites perfbench/references.json.  Every family in run.SIZES is solved
in stock label order.  A sequence is recorded with n, max_k, its entries
and tail_start; an `analyze --k 1` answer with n, max_k, dim and the
lex-min basis labels.  Members with a closed form must match
`families.expected_sequence`, or nothing is written.  Relabeling does not
change a sequence, so the references hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SEQUENCE_FIELDS = ("n", "max_k", "entries", "tail_start")
ANALYZE_FIELDS = ("n", "max_k", "dim", "basis")


def solve(argv: list[str], fields: tuple[str, ...]) -> dict:
    import kmetric.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kmetric.cli.main([*argv, "--format", "json", "--budget-secs", "600"])
    payload = json.loads(out.getvalue())
    if code != 0 or payload.get("status") != "optimal":
        raise SystemExit(f"{argv}: exit {code}, status {payload.get('status')}")
    return {key: payload[key] for key in fields}


def main() -> int:
    kmetric = run.import_kmetric()
    sequence_members, analyze_members = set(), set()
    for spec in run.SIZES.values():
        sequence_members.update(spec["sequence"], spec["relabel"])
        analyze_members.update(spec["analyze"], [spec["space_json"]])
    refs = {}
    for member in sorted(sequence_members):
        ref = solve(["sequence", "--family", member], SEQUENCE_FIELDS)
        expected = kmetric.expected_sequence(kmetric.parse_family(member))
        if expected is not None and not expected.partial:
            closed = {"entries": list(expected.entries), "tail_start": expected.tail_start}
            if {key: ref[key] for key in closed} != closed:
                raise SystemExit(f"{member}: computed {ref} disagrees with the closed form {closed}")
        refs[f"sequence {member}"] = ref
    for member in sorted(analyze_members):
        refs[f"analyze {member} k=1"] = solve(["analyze", "--family", member, "--k", "1"], ANALYZE_FIELDS)
    lines = [f"  {json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
    run.REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(refs)} references to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
