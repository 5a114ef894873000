"""JSON-lines black box for the subprocess sweep workload.

Speaks the protocol of ``baylime.blackbox.SubprocessPredictor``: one request
``{"inputs": [[...], ...]}`` per stdin line, one response
``{"outputs": [...]}`` per stdout line. The model is the quadratic of the
CLI's ``--predictor quadratic`` fixture, y = x.c + (x*x).q with
c_j = (m - j) / m and q_j = 0.5.

At end of input it appends one JSON line to the ``--stats`` file with the
requests and rows it answered, the request bytes it read and the seconds
it spent evaluating the model. The benchmark subtracts the model time from
the parent's probe time to get the transport share.

    python3 bench/predictor.py --stats out/predictor-stats.jsonl
"""

import argparse
import json
import sys
import time

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True,
                        help="file to append this process's counters to")
    args = parser.parse_args()
    requests = rows = request_bytes = 0
    compute_s = 0.0
    coefficients: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for line in sys.stdin:
        request_bytes += len(line.encode("utf-8"))
        matrix = np.asarray(json.loads(line)["inputs"], dtype=float)
        start = time.perf_counter()
        m = matrix.shape[1]
        if m not in coefficients:
            coefficients[m] = ((m - np.arange(m)) / m, np.full(m, 0.5))
        c, q = coefficients[m]
        outputs = matrix @ c + (matrix * matrix) @ q
        compute_s += time.perf_counter() - start
        requests += 1
        rows += matrix.shape[0]
        sys.stdout.write(json.dumps({"outputs": outputs.tolist()}) + "\n")
        sys.stdout.flush()
    with open(args.stats, "a", encoding="utf-8") as out:
        out.write(json.dumps({"requests": requests, "rows": rows,
                              "request_bytes": request_bytes,
                              "compute_s": compute_s}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
