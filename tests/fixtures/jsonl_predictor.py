"""Tiny JSON-lines predictor used by the transport tests.

Reads one request per line from stdin ({"inputs": [[...], ...]}), answers
one line per request ({"outputs": [...]}). The first argument selects a
behaviour:

    sum      one output per row: the row sum (the well-behaved case)
    echo     one output per row: the row's first value, as parsed
    short    drops the last output of every batch
    text     one output per row, but a string instead of a number
    garbage  answers with non-JSON text
    exit     quits immediately without answering
    sleep    never answers
    late     answers the first request after about 1 s, later ones at once
"""

import json
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "sum"

if mode == "exit":
    sys.exit(3)

for index, line in enumerate(sys.stdin):
    request = json.loads(line)
    rows = request["inputs"]
    if mode == "sleep":
        time.sleep(3600)
    if mode == "late" and index == 0:
        time.sleep(1.0)
    if mode == "garbage":
        sys.stdout.write("not json at all\n")
        sys.stdout.flush()
        continue
    if mode == "echo":
        outputs = [row[0] for row in rows]
    elif mode == "text":
        outputs = ["x" for row in rows]
    else:
        outputs = [float(sum(row)) for row in rows]
    if mode == "short":
        outputs = outputs[:-1]
    sys.stdout.write(json.dumps({"outputs": outputs}) + "\n")
    sys.stdout.flush()
