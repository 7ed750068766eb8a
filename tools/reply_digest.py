"""Print every benchmark reply of a checkout, then a sha256 over them.

    python tools/reply_digest.py ROOT

ROOT is a checkout of this repository.  mbint is imported from ROOT/src,
and the banks and calls from ROOT/perfbench (bank.py and calls.py, read
as they are).  For every case of the three workloads on seeds 1 and 2
the script prints one line per reply: the ``repr`` of the return value,
or the exception's type, message and context.  The last line is the
sha256 of all the lines before it, so two checkouts reply bit for bit
alike when their last lines agree, and ``diff`` names the cases where
they do not.
"""

import argparse
import hashlib
import pathlib
import sys

SEEDS = (1, 2)


def reply_lines(workloads, seeds, limit=None):
    """One line per case (the first ``limit`` of each bank): the reply's
    repr, or its exception."""
    import bank
    import calls
    for workload in workloads:
        for seed in seeds:
            for case in bank.make_bank(workload, seed)[:limit]:
                try:
                    reply = calls.make_call(case)()
                except Exception as exc:  # every refusal is a reply too
                    yield (f"{type(exc).__name__}: {exc} "
                           f"{getattr(exc, 'context', {})!r}")
                else:
                    yield repr(reply)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=pathlib.Path)
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import bank
    digest = hashlib.sha256()
    for line in reply_lines(list(bank.WORKLOADS), SEEDS):
        print(line)
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
