"""Write ``perfbench/expected.json``: the expectations the golden file does
not hold.

* ``fingerprints.sum_loop_10k`` — the golden-suite fingerprint of the hot
  loop, run to completion on the default core;
* ``fleetRecords`` — per-label digests of a serial ``run_sweep`` of the
  fleet sweep spec (the reference fleet records must equal byte for byte).

Run from the repository root after an intentional timing-model change, in
the same commit as the golden-file regeneration::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    os.environ["REPRO_ARTIFACT_DIR"] = "off"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import CpuConfig, Simulation
    from repro.explore import run_sweep
    from perfbench import programs

    golden = programs.golden_programs()
    by_name = {p.name: p for p in golden}
    hot = by_name["sum_loop_10k"]
    simulation = Simulation.from_source(hot.asm, config=CpuConfig())
    simulation.run()
    run = run_sweep(programs.fleet_spec(golden), workers=0)
    failed = [r for r in run.records if not r.get("ok")]
    if failed:
        print(f"error: serial reference sweep failed: {failed[0]}",
              file=sys.stderr)
        return 1
    data = {
        "fingerprints": {"sum_loop_10k": programs.fingerprint(simulation)},
        "fleetRecords": {r["label"]: programs.record_digest(r)
                         for r in run.records},
    }
    programs.EXPECTED_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {programs.EXPECTED_PATH} "
          f"({len(data['fleetRecords'])} fleet records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
