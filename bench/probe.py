"""Set-up probe: ``python3 probe.py <gt> <pred> <dataset>...``.

Does what ``svageval evaluate`` does before it scores the first query:
start the interpreter, import the package, load the ground truth and the
predictions of each dataset and validate the split. The benchmark times
the whole process from outside.
"""
import sys

import svageval
from svageval.ingest import load_ground_truth, load_predictions

if __name__ == "__main__":
    gt, pred, *names = sys.argv[1:]
    for name in names:
        split = svageval.DatasetSplit(
            name=name, bundle=load_ground_truth(gt, name),
            predictions=load_predictions(pred, name)[0])
        if any(d.severity == "error" for d in svageval.validate_split(split)):
            sys.exit(2)
