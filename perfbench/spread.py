"""Quartile spread of each end-to-end metric over repeated benchmark runs.

    python3 perfbench/spread.py [results.jsonl]

Reads the rows that run.py appends to perfbench/out/results.jsonl and prints,
per workload, run length and metric, the median over the untraced runs and
the distance between their first and third quartiles as a share of that
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles


def main(argv):
    path = Path(argv[0]) if argv else Path(__file__).resolve().parent / "out" / "results.jsonl"
    runs = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row["trace"] == 0:
            for name, metric in row["metrics"].items():
                runs[row["workload"], row["seconds"]][name].append(metric["value"])
    for (workload, seconds), metrics in runs.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, _, q3 = quantiles(values, n=4)
            mid = median(values)
            print(f"{workload:12} {seconds:3}s {name:12} runs={len(values):3} "
                  f"median={mid:.4f} spread={(q3 - q1) / mid:.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
