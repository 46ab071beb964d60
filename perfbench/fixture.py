"""Train and save infer-qm9's checkpoint with the code under test.

``train()`` on qm9lite for 3 epochs at batch 64, seed 0, then
``save_checkpoint``; each epoch's mean NLL is checked against the reference
table like a train-qm9 op.  Prints one JSON line ``{"mean_nll": [...],
"error": null | "<why>"}``; the checkpoint is written either way.

    python3 perfbench/fixture.py --out PATH
"""
from __future__ import annotations

import argparse
import json
import sys

from worker import (  # importing worker pins BLAS threads before numpy loads
    FIXTURE_BATCH, FIXTURE_EPOCHS, FIXTURE_SEED, CheckFailed, check_nll, g, load_reference,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = g.qm9lite_spec()
    dataset = g.load_dataset(g.bundled_corpus_path("qm9lite"), spec)
    model = g.FlowModel(spec, seed=FIXTURE_SEED)
    config = g.TrainConfig(epochs=FIXTURE_EPOCHS, batch_size=FIXTURE_BATCH, seed=FIXTURE_SEED)
    _, records = g.train(model, dataset, config)
    g.save_checkpoint(model, args.out)

    reference = load_reference("qm9lite")[FIXTURE_SEED]
    error = None
    try:
        for rec in records:
            check_nll(rec.mean_nll, reference[rec.epoch - 1], f"fixture epoch {rec.epoch}")
    except CheckFailed as exc:
        error = str(exc)
    print(json.dumps({"mean_nll": [rec.mean_nll for rec in records], "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
