"""Record route shares and defect inputs of every workload's bank.

    python3 perfbench/baseline.py --seeds 1 2 > perfbench/baseline.json

Runs each bank once (untimed) with tracing on, judges every reply against
the oracle and lists each input behind a non-zero fail_frac or
oracle_miss_frac, grouped by defect class.  Run from the repository root.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import bank  # noqa: E402
import calls  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from run import machine, traced_pass  # noqa: E402


def _c(v):
    return [v.real, v.imag]


def classify(case, reply, status):
    if status == "fail":
        if not isinstance(reply, oracle.Raised):
            return "non_finite_value"
        if not reply.typed:
            return "untyped_exception"
        return {"HigherOrderPoleError": "higher_order_pole_refusal",
                "NonConvergentSeriesError": "residue_series_not_settled",
                }.get(reply.error, "other_refusal")
    method = getattr(reply, "method", "")
    if method.startswith("residues"):
        if reply.value == 0 and reply.err_estimate == 0:
            return "structural_zero_early_stop"
        return "residue_miss"
    if method == "quadrature":
        return "quadrature_miss"
    return case["kind"] + "_miss"


def detail(case, reply, ref):
    if isinstance(reply, oracle.Raised):
        return {"error": repr(reply)}
    if case["kind"] in ("g", "h", "pfq_via_g"):
        return {"value": _c(reply.value), "err_estimate": reply.err_estimate,
                "reference": _c(ref[0]), "abs_error": abs(reply.value - ref[0]),
                "method": reply.method, "terms_or_nodes": reply.nodes_used}
    if case["kind"] == "pfq":
        return {"value": _c(reply), "reference": _c(ref[0]),
                "abs_error": abs(reply - ref[0])}
    values, residual = reply
    values = values if case["kind"] == "pipeline" else (values,)
    return {"values": [_c(v) for v in values],
            "references": [_c(r) for r in ref], "residual": residual}


def record(workload, seed):
    cases = bank.make_bank(workload, seed)
    refs = oracle.references(workload, seed)
    tracer = tracing.Tracer()
    replies, _ = traced_pass([calls.make_call(c) for c in cases], tracer,
                             oracle.Raised)
    statuses = [oracle.judge(c, r, ref) if ref is not None else "unjudged"
                for c, r, ref in zip(cases, replies, refs)]
    failed = {i for i, s in enumerate(statuses) if s == "fail"}
    defects = []
    for i, (case, reply, ref, status) in enumerate(
            zip(cases, replies, refs, statuses)):
        if status in ("miss", "fail"):
            defects.append({"index": i, "outcome": status,
                            "class": classify(case, reply, status),
                            "input": bank.describe(case),
                            **detail(case, reply, ref)})
    classes = {}
    for d in defects:
        classes[d["class"]] = classes.get(d["class"], 0) + 1
    return {"cases": len(cases),
            "outcomes": {k: statuses.count(k)
                         for k in ("ok", "miss", "fail", "unjudged")},
            "routes": tracer.routes(failed),
            "defect_classes": classes, "defects": defects}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()
    out = {"machine": machine(),
           "seeds": {str(s): {w: record(w, s) for w in bank.WORKLOADS}
                     for s in args.seeds}}
    # indented JSON with one line per defect, so the file reads and diffs
    lines = {}
    for per_seed in out["seeds"].values():
        for rec in per_seed.values():
            for i, d in enumerate(rec["defects"]):
                token = f"@defect-{len(lines)}@"
                lines[f'"{token}"'] = json.dumps(d)
                rec["defects"][i] = token
    text = json.dumps(out, indent=1)
    for token, line in lines.items():
        text = text.replace(token, line, 1)
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    main()
