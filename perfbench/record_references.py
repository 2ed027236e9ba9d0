#!/usr/bin/env python3
"""Record the reference CSV sha256 of the noiseless sweep workloads.

    python3 perfbench/record_references.py

Runs every study of the default and the hold-out seed once and writes
``references.json`` next to this file, keyed by workload and master seed.
Re-record only for a change that is meant to alter noiseless outputs, and
say so in CHANGES.md; noisy outputs get structural checks only.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HOLDOUT_SEED, OUT, REFERENCES, prepare


def main() -> int:
    prepare()
    from workloads import SEEDS_PER_RUN, WORKLOADS, run_study

    references: dict[str, dict[str, str]] = {}
    for w in WORKLOADS.values():
        if w.kind == "verify" or not w.noiseless:
            continue
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            for study in range(SEEDS_PER_RUN):
                master = w.master_seed(seed, study)
                outcome = run_study(w, master, OUT / "record" / w.name)
                if outcome.failures:
                    print(f"{w.name} seed {master}: {outcome.failures}", file=sys.stderr)
                    return 1
                references.setdefault(w.name, {})[str(master)] = outcome.digest
                print(f"{w.name} master_seed={master} {outcome.digest}")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
