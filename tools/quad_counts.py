"""Print the quadrature work of a checkout's benchmark passes.

    python tools/quad_counts.py ROOT

ROOT is a checkout of this repository.  mbint is imported from ROOT/src,
and the banks and calls from ROOT/perfbench (bank.py and calls.py, read
as they are).  For tabulate_quad and transform_pipeline on seeds 1 and 2
the script runs every case once and prints one line per pass: the
integrals (``integrate_adaptive`` calls, from the contour and the Laplace
transform), the integrand calls they make and the abscissae those
evaluate.  The counts come from wrapping each integrand, not from the
result, so two checkouts of any age can be compared line by line.
"""

import argparse
import pathlib
import sys

import numpy as np

WORKLOADS = ("tabulate_quad", "transform_pipeline")
SEEDS = (1, 2)


def pass_counts(workload, seed):
    """(integrals, integrand calls, abscissae) over one pass of a bank."""
    import bank
    import calls
    from mbint import laplace
    from mbint import mellin_barnes as mb
    counts = [0, 0, 0]

    def counted(integrate):
        def wrapped(f, *args, **kwargs):
            def g(x):
                counts[1] += 1
                counts[2] += np.size(x)
                return f(x)
            counts[0] += 1
            return integrate(g, *args, **kwargs)
        return wrapped

    modules = (mb, laplace)
    originals = [module.integrate_adaptive for module in modules]
    for module, integrate in zip(modules, originals):
        module.integrate_adaptive = counted(integrate)
    try:
        for case in bank.make_bank(workload, seed):
            try:
                calls.make_call(case)()
            except Exception:  # a refused case's quadrature counts too
                pass
    finally:
        for module, integrate in zip(modules, originals):
            module.integrate_adaptive = integrate
    return tuple(counts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=pathlib.Path)
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    for workload in WORKLOADS:
        for seed in SEEDS:
            integrals, made, points = pass_counts(workload, seed)
            print(f"{workload} seed {seed}: {integrals} integrals, "
                  f"{made} integrand calls, {points} points")


if __name__ == "__main__":
    main()
