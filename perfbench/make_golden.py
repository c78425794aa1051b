"""Write golden.json: the seed code's outputs for every candidate input.

    PYTHONPATH=src python perfbench/make_golden.py

The pools in workloads.py and this file belong together: the benchmark
checks each generated input against the entry recorded here. Regenerate
only when a pool changes, and only on a commit whose outputs are trusted,
because the file is the reference that later changes are held to.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as w

ROOT = w.HERE.parent


def run(cli_main, doc: dict, command: str, work: Path) -> Path:
    """Run one command on ``doc`` in a fresh directory; return the output dir."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    out = work / "out"
    rc = cli_main(["--config", str(cfg), "--out", str(out), command])
    if rc != 0:
        raise SystemExit(f"{command} on {doc} exited {rc}")
    return out


def invariant_fields(cli_main, doc: dict, prefix: str, work: Path) -> dict:
    out = run(cli_main, doc, "invariant", work)
    (result,) = json.loads((out / f"{prefix}_invariant.json").read_text())["results"]
    return w.series_report_fields(result)


def main() -> int:
    from conmot.cli import main as cli_main

    golden: dict = {"series_invariants": {}, "pair_scan": {}}
    s = golden["series_invariants"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        work = Path(tmp) / "job"
        s["gd"] = {x: invariant_fields(cli_main, w.gd_invariant_doc([x]), "gd", work)
                   for stratum in w.GD_STRATA for x in stratum}
        s["mwu_exp"] = {
            w.state_key(x): invariant_fields(cli_main, w.mwu_invariant_doc(x), "mwu", work)
            for x in w.MWU_POOL
        }
        s["rgd_sphere"] = {
            w.state_key(x): invariant_fields(cli_main, w.rgd_invariant_doc(x), "rgd", work)
            for x in w.SPHERE_POOL
        }
        s["simulate"] = {
            x: {"rows": w.simulate_rows(run(cli_main, w.simulate_series_doc(x), "simulate", work))}
            for x in w.SIMULATE_POOL
        }
        s["classify"] = {
            f"{x}|{k}": w.classify_fields(run(cli_main, w.classify_doc(x, k), "classify", work))
            for x in w.CLASSIFY_POOL for k in w.CLASSIFY_SHIFTS
        }
        for kind in w.SCANS:
            golden["pair_scan"][kind] = {
                str(seed): w.scan_fields(run(cli_main, w.scan_doc(kind, seed), "scan", work), kind)
                for seed in w.SCAN_SEEDS
            }
    (w.HERE / "golden.json").write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
