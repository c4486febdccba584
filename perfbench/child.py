"""One workload in one fresh process: memory guard, set-up, op loop, tracing.

run.py starts this script and reads the JSON object it prints as its last line
of standard output.  Exit code 3 means an op returned a wrong value; the
message on standard error names the op and the seed.

    python3 perfbench/child.py --workload states --seed 1 --seconds 20
"""

import time

T_START = time.perf_counter()

import resource  # noqa: E402

# Set before numpy is imported.  Without it the action route on 9-10 leaves
# tries to allocate tens of GiB and can take down a machine with no swap; with
# it those ops fail with MemoryError.
ADDRESS_SPACE_LIMIT = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from calibration import Calibrator  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHECK_FAILED = 3


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--reference-python", type=float, required=True)
    p.add_argument("--reference-mixed", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    setup_cal = Calibrator(args.reference_python)
    for _ in range(3):
        setup_cal.sample()

    sys.path.insert(0, SRC)
    import numpy as np
    import thompson_holo

    if not os.path.abspath(thompson_holo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"thompson_holo was imported from {thompson_holo.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("thompson_holo")
    from workloads import CALIBRATION, WORKLOADS

    setup_fn, ops_fn = WORKLOADS[args.workload]
    if tracer:
        tracer.enabled = True
    state = setup_fn(args.seed, args.tiny)
    if tracer:
        tracer.enabled = False
    t_setup_end = time.perf_counter()
    setup_spent = setup_cal.spent
    setup_raw = t_setup_end - T_START - setup_spent
    for _ in range(3):
        setup_cal.sample()
    kind = CALIBRATION[args.workload]
    cal = Calibrator(args.reference_mixed if kind == "mixed" else args.reference_python, kind)
    for _ in range(3):
        cal.sample()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * setup_cal.factor(),
        "calibration": kind,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "address_space_limit": ADDRESS_SPACE_LIMIT,
    }
    if args.setup_only:
        out["setup_cal_samples"] = setup_cal.samples_since(T_START)
        print(json.dumps(out))
        return 0

    # [kind, error or None, start, end] per op; out["records"] holds
    # [kind, error or None, raw s, calibrated s, start after child start].
    records = []
    ops = ops_fn(state)
    timed = 0.0  # generator, op and check time of the loop, for the trace accounting
    loop_start = time.perf_counter()
    cal_elapsed = 0.0
    hard_stop = loop_start + max(3 * args.seconds, 60.0)
    while time.perf_counter() < hard_stop:
        if args.max_ops is not None:
            if len(records) >= args.max_ops:
                break
        elif cal_elapsed >= args.seconds:
            break
        cal.maybe_sample()
        factor = cal.factor(window=9)
        i0 = time.perf_counter()
        op = next(ops)
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an op that raises counts as failed, not wrong
            error = type(exc).__name__
        t1 = time.perf_counter()
        if tracer:
            tracer.enabled = False
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # CheckFailed, or a check that cannot run
                print(
                    f"wrong value: workload {args.workload}, seed {args.seed}, "
                    f"op {len(records)} ({op.kind} {op.label[:200]}): "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return CHECK_FAILED
        i1 = time.perf_counter()
        timed += i1 - i0
        records.append([op.kind, error, t0, t1])
        cal_elapsed += (i1 - i0) * factor
    cal.sample()
    loop_end = time.perf_counter()
    out["records"] = [
        [op_kind, op_error, t1 - t0, (t1 - t0) * cal.factor_around(t0, t1), t0 - T_START]
        for op_kind, op_error, t0, t1 in records
    ]
    out["loop_wall_s"] = loop_end - loop_start
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["setup_cal_samples"] = setup_cal.samples_since(T_START)
    out["cal_samples"] = cal.samples_since(T_START)
    if tracer:
        loop_timed = setup_cal.spent - setup_spent + cal.spent + timed
        out["trace"] = trace_summary(tracer, cal, t_setup_end, loop_timed, loop_end, args)
    print(json.dumps(out))
    return 0


def trace_summary(tracer, cal, t_setup_end, loop_timed, loop_end, args) -> dict:
    """Per-layer facts at reference speed, plus the accounting of the wall time.

    `loop_timed` is the time the op loop's own timers cover: op generation, the
    ops, their checks and the calibration samples after set-up.
    """
    import numpy as np

    scale = cal.factor()
    layer = np.asarray(tracer.span_layer, dtype=np.int32)
    start = np.asarray(tracer.span_start)
    end = np.asarray(tracer.span_end)
    facts = tracer.summary(scale)
    # Pachner flips tried inside flip searches, as opposed to those of walks.
    names = tracer.layers
    search = names.index("tessellation.flips_realizing")
    flip = names.index("tessellation.pachner_flip")
    tried = 0
    for s in np.flatnonzero(layer == search):
        hi = np.searchsorted(start, end[s], side="right")
        tried += int(np.count_nonzero(layer[s + 1 : hi] == flip))
    facts["tessellation.pachner_flip.search_calls"] = tried
    if args.spans_out:
        np.savez_compressed(
            args.spans_out,
            names=np.asarray(names),
            layer=layer,
            parent=np.asarray(tracer.span_parent, dtype=np.int64),
            start=start - T_START,
            end=end - T_START,
        )
    wall = loop_end - T_START
    covered = (t_setup_end - T_START) + loop_timed
    layers = sum(tracer.self_s)
    return {
        "facts": facts,
        "spans": len(layer),
        "wall_s": wall * scale,
        "layers_self_s": layers * scale,
        "bench_s": (covered - layers) * scale,
        "accounted": covered / wall,
        "layer_share": layers / wall,
    }


if __name__ == "__main__":
    sys.exit(main())
