"""One benchmark operation in a fresh interpreter.

    python child.py [--trace OUT] cli ARG...          # conmot ARG...
    python child.py [--trace OUT] lib INPUT.json OUTDIR

``cli`` runs the command line entry point with ARG. ``lib`` runs the bulk
exact-engine calls listed in INPUT.json and writes their reports to
OUTDIR/audits.json. With ``--trace`` the public functions of conmot are
wrapped before any work starts, and spans and counts are written to OUT
when the operation ends. Untraced command line operations do not come
through here: they run the same code the ``conmot`` console script runs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def run_library_calls(input_path: str, out_dir: str) -> int:
    from fractions import Fraction

    from conmot import PayoffData, conservation_audit

    spec = json.loads(Path(input_path).read_text())
    reports = []
    for job in spec["audits"]:
        payoff = PayoffData.from_matrix([[Fraction(v) for v in row] for row in job["payoff"]])
        xy = [Fraction(v) for v in job["xy"]]
        audit = conservation_audit(
            payoff, job["eta1"], job["eta2"], xy, job["steps"], check_every=job["check_every"]
        )
        reports.append(
            {
                "identity_verified": audit.identity_verified,
                "conserved": audit.conserved,
                "max_defect": audit.max_defect,
                "steps": audit.steps,
                "checkpoints": audit.checkpoints,
            }
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "audits.json").write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]

    t0 = time.perf_counter()
    import conmot  # noqa: F401  (timed: the package import every run pays)

    import_s = time.perf_counter() - t0
    import conmot.cli

    tracer = None
    if trace_out is not None:
        from tracer import Tracer, install  # this script's directory is on sys.path

        tracer = Tracer()
        install(tracer)
    try:
        if mode == "cli":
            return conmot.cli.main(args)
        return run_library_calls(*args)
    finally:
        if tracer is not None:
            tracer.dump(Path(trace_out), import_s=import_s, mode=mode, argv=args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
