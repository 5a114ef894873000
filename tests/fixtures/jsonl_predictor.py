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
    deaf     sleeps about 5 s without reading its input, then exits
    twice    writes every answer twice, in one write
    chatty   writes 160 KiB to stderr before it reads and after each
             answer; answers the first request as sum, exits with code 4
             on the second
    eager    writes an answer before it reads, then answers as sum
"""

import json
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "sum"


def chatter():
    for index in range(2048):
        sys.stderr.write(f"chatty line {index:05d} " + "." * 61 + "\n")
    sys.stderr.flush()


if mode == "exit":
    sys.exit(3)
if mode == "deaf":
    time.sleep(5.0)
    sys.exit(0)
if mode == "eager":
    sys.stdout.write(json.dumps({"outputs": [0.0]}) + "\n")
    sys.stdout.flush()
if mode == "chatty":
    chatter()

for index, line in enumerate(sys.stdin):
    if mode == "chatty" and index == 1:
        sys.exit(4)
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
    answer = json.dumps({"outputs": outputs}) + "\n"
    sys.stdout.write(answer * 2 if mode == "twice" else answer)
    sys.stdout.flush()
    if mode == "chatty":
        chatter()
