"""Cold start of one workload: ``import mbint`` plus its first evaluation.

    python3 perfbench/setup_probe.py "<repr of a bank case>"

Prints {"import_s": ..., "first_eval_s": ...} measured inside the fresh
interpreter; the benchmark times the whole process from outside as well.
"""

import ast
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    case = ast.literal_eval(sys.argv[1])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(1, HERE)
    t0 = time.perf_counter()
    import mbint  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    import calls
    call = calls.make_call(case)
    try:
        call()
        outcome = "returned"
    except Exception as exc:  # a refusal still costs its time
        outcome = type(exc).__name__
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_eval_s": t2 - t1,
                      "outcome": outcome}))


if __name__ == "__main__":
    main()
