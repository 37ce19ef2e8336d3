"""Write ``reference.json``: the outputs ``analysis`` must reproduce.

    python3 perfbench/make_reference.py

Records the four plans' slicing points and the accesses and hits of all
72 default sweep points, of which ``analysis`` sweeps 48. Regenerate
only when a change is meant to alter these outputs, and say so in the
change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import analysis  # noqa: E402
from nestslice import cachesim  # noqa: E402


def main():
    inst = analysis.setup()
    plans = analysis.plan_jobs(inst)
    rows = cachesim.bench_report()
    doc = {
        "plans": {name: p.points.tolist() for name, p in plans.items()},
        "sweep": {analysis.sweep_key(r): [r["accesses"], r["hits"]]
                  for r in rows},
    }
    with open(analysis.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {analysis.REFERENCE}: {len(doc['plans'])} plans, "
          f"{len(doc['sweep'])} sweep points")


if __name__ == "__main__":
    main()
