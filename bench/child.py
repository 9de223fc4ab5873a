"""Protocol child for the benchmark: a sparse Mobius game behind INIT/query/QUIT.

Usage: python3 child.py --game GAME.json --count-file COUNT.txt

GAME.json is a Mobius game file (the interax "mobius" format).  The child
answers ``INIT <n>`` with ``OK``, each n-character 0/1 query with repr() of
the game value (so the parent parses the identical float), and stops on
``QUIT`` or end of input.  On exit it writes the number of queries it
answered to COUNT.txt; that count is the model-query cost the benchmark
reports.  Standard library only, so it starts fast.
"""

import argparse
import json
import sys


def load_terms(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = {}
    for rec in doc["terms"]:
        mask = 0
        for p in rec["set"]:
            mask |= 1 << int(p)
        terms[mask] = float(rec["coef"])
    return int(doc["n"]), sorted(terms.items())


def serve(n, ordered, stdin, stdout) -> int:
    answered = 0
    for line in stdin:
        line = line.rstrip("\n")
        if line.startswith("INIT "):
            stdout.write("OK\n" if line == f"INIT {n}" else f"ERR game has {n} players\n")
        elif line == "QUIT":
            break
        elif len(line) != n or set(line) - {"0", "1"}:
            stdout.write("ERR bad query\n")
        else:
            mask = int(line[::-1], 2)  # character i is player i
            answered += 1
            # ascending term order, matching the library's sparse evaluation
            stdout.write(repr(float(sum(c for t, c in ordered if t & ~mask == 0))) + "\n")
        stdout.flush()
    return answered


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--game", required=True)
    parser.add_argument("--count-file", required=True)
    args = parser.parse_args(argv)
    n, ordered = load_terms(args.game)
    answered = 0
    try:
        answered = serve(n, ordered, sys.stdin, sys.stdout)
    finally:
        with open(args.count_file, "w", encoding="utf-8") as fh:
            fh.write(f"{answered}\n")


if __name__ == "__main__":
    main()
