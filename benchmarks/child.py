"""One fresh interpreter: import vecinv2, then optionally run one round.

    python3 child.py setup
    python3 child.py round WORKLOAD SEED TRACE SPANS_PATH

``vecinv2`` is imported before anything else, so the parent can time
interpreter start plus that import (``setup_s``) from the ``ready``
clock reading printed here; ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so the two processes' readings compare.  The
last line of standard output is one JSON object.
"""

import sys
import time

import vecinv2

READY = time.perf_counter()


def main(argv: list[str]) -> dict:
    out = {"ready": READY, "module": vecinv2.__file__}
    if argv[0] == "setup":
        return out

    import random
    import resource

    import workloads
    from speed import Sampler
    from tracer import Tracer, matrix_entries

    workload, seed, trace, spans_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    if trace:
        tracer = Tracer()
        tracer.install()
        rnd = workloads.Round(tracer=tracer)
        workloads.WORKLOADS[workload](rnd, random.Random(seed))
    else:
        with Sampler() as sampler:
            rnd = workloads.Round(sampler=sampler)
            workloads.WORKLOADS[workload](rnd, random.Random(seed))
        out["kref"] = {kind: seconds / sampler.kernel_s(kind) / 1000
                       for kind, seconds in rnd.kinds.items()}
    out.update(
        kinds=rnd.kinds,
        attempted=rnd.attempted,
        failed=rnd.failed,
        wrong=rnd.wrong,
        problems=rnd.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace:
        tracer.uninstall()
        out["layers"] = tracer.snapshot()
        out["layers"]["oracle.matrix_entries"] = matrix_entries(tracer.sized)
        tracer.write_spans(spans_path)
    return out


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1:])))
