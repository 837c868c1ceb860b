"""One workload pass in a fresh interpreter, optionally traced.

    python3 perfbench/job.py oracle
    python3 perfbench/job.py --spans FILE oracle
    python3 perfbench/job.py --spans FILE cli ARGS...

``oracle`` evaluates the exact finite-n oracle over every k=3 pair-matched
word (Hankel, n=36) through the public library API and prints the values as
one JSON object.  ``cli ARGS`` runs ``balanced_spectra.cli.main(ARGS)``, the
code behind ``python3 -m balanced_spectra ARGS``.  With ``--spans`` the pass
runs under ``tracing`` and its spans are written to FILE when it ends.
"""

from __future__ import annotations

import json
import os
import sys

ORACLE_K = 3
ORACLE_N = 36


def oracle() -> int:
    import balanced_spectra as bs

    values = {
        word.letters: bs.finite_n_word_moment(word, bs.MatrixKind.H, ORACLE_N).value
        for word in bs.enumerate_pair_matched_words(ORACLE_K)
    }
    print(json.dumps(values, sort_keys=True))
    return 0


def cli(argv: list[str]) -> int:
    from balanced_spectra.cli import main

    return main(argv)


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    run = oracle if mode == "oracle" else (lambda: cli(rest))
    if spans is None:
        return run()
    import tracing  # sys.path[0] is this file's directory

    recorder = tracing.install(os.path.basename(spans))
    root = recorder.open(f"job.{mode}")
    try:
        code = run()
    finally:
        recorder.close(root)
        sys.stdout.flush()
        recorder.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
