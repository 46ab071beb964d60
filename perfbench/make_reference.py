"""Record the per-epoch mean NLL that train-* ops are checked against.

Trains each reference seed epoch by epoch exactly as a train-* op does and
stores the values in ``reference_nll.json``.  Rerun it only on a commit whose
training results are known good; a benchmark run maps its ``--seed`` onto
these model seeds.

    python3 perfbench/make_reference.py --spec qm9lite
"""
from __future__ import annotations

import argparse
import json
import sys

from worker import REFERENCE_PATH, TRAIN_WORKLOADS, g, spec_for, train_one_epoch

# model seeds and epochs per trajectory for each training workload's corpus
PLAN = {"qm9lite": (8, 10), "zinclite": (4, 8)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", choices=sorted(PLAN), required=True)
    args = parser.parse_args(argv)

    batch_size = {spec: batch for spec, batch in TRAIN_WORKLOADS.values()}[args.spec]
    seeds, epochs = PLAN[args.spec]
    spec = spec_for(args.spec)
    dataset = g.load_dataset(g.bundled_corpus_path(args.spec), spec)
    table = {}
    for seed in range(seeds):
        model = g.FlowModel(spec, seed=seed)
        state, values = None, []
        for _ in range(epochs):
            state, records = train_one_epoch(model, dataset, seed, batch_size, state)
            values.append(records[0].mean_nll)
        table[str(seed)] = values
        print(f"{args.spec} seed {seed}: {values}", flush=True)

    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    reference[args.spec] = {"batch_size": batch_size, "mean_nll": table}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
