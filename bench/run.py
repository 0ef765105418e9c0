"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload products-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; toepcert is imported from ``src/``.
The run builds the workload's inputs from ``--seed`` several times (set-up),
asks the independent checker for every expected answer, then repeats whole
rounds of the workload's fixed operation sequence for ``--seconds`` seconds
in one thread, checking every output.  Runs of a reference kernel (see
``kernels.py``) are interleaved with the operations; times are reported in
calibrated seconds.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
as one JSON object; a fuller record goes to ``bench/results/``.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# the reference kernel runs after every SAMPLE_RATIO x its nominal time of
# operations, so it takes about 40% of a run; a block closes at the first
# round end after BLOCK_S seconds of operations
SAMPLE_RATIO = 1.5
BLOCK_S = 0.05
# set-up is repeated at least SETUPS times, and until SETUP_S seconds of it
# have been timed or SETUPS_MAX repeats made
SETUPS = 5
SETUP_S = 1.0
SETUPS_MAX = 25
DEFAULT_SEED = 1


class Block:
    """Whole rounds timed together, with the kernel samples taken among them."""

    def __init__(self):
        self.traced = False
        self.rounds = 0
        self.seconds = {True: 0.0, False: 0.0}   # keyed by expected answer
        self.count = {True: 0, False: 0}
        self.kernel = []

    @property
    def op_seconds(self) -> float:
        return self.seconds[True] + self.seconds[False]

    def rates(self, factor: float = 1.0) -> dict:
        """Operations per (calibrated, if ``factor`` is the block's) second."""
        return {
            "decisions_per_s": (self.count[True] + self.count[False]) / (self.op_seconds * factor),
            "accepts_per_s": self.count[True] / (self.seconds[True] * factor),
            "rejects_per_s": self.count[False] / (self.seconds[False] * factor),
        }


class Measurement:
    """Operation times of one run, in blocks of whole rounds.

    The reference kernel runs after every ``SAMPLE_RATIO`` times its
    nominal time of operations; a block closes at the first round end after
    ``BLOCK_S`` and converts its time with the mean of the kernel samples
    taken within it.  Every block holds whole rounds, so every block has
    the same mix of operations.
    """

    def __init__(self, kernel, tracer=None):
        self.kernel = kernel
        self.tracer = tracer
        self.blocks = []
        self.factors = []
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.block = Block()
        self._since_sample = 0.0

    def _sample(self) -> None:
        self.block.kernel.append(self.kernel.time())
        self._since_sample = 0.0

    def _close_block(self) -> None:
        if self._since_sample > 0.0 or not self.block.kernel:
            self._sample()
        factor = self.kernel.nominal_s / statistics.fmean(self.block.kernel)
        if self.tracer is not None:
            self.tracer.drain(factor, "rounds")
        self.blocks.append(self.block)
        self.factors.append(factor)
        self.block = Block()

    def run_round(self, ops) -> None:
        block = self.block
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:
                elapsed = time.perf_counter() - t0
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc()
            else:
                elapsed = time.perf_counter() - t0
                block.count[op.expect_yes] += 1
                if not op.check(out):
                    self.failed += 1
                    self.wrong += 1
                    if self.wrong == 1:
                        print(f"wrong answer: {op.label}", file=sys.stderr)
            block.seconds[op.expect_yes] += elapsed
            self._since_sample += elapsed
            if self._since_sample >= SAMPLE_RATIO * self.kernel.nominal_s:
                self._sample()
        block.rounds += 1
        self.rounds += 1

    def run(self, ops, seconds: float) -> None:
        """Repeat whole rounds until ``seconds`` have passed.

        A traced run alternates untraced and traced rounds, one round per
        block, so the two kinds can be compared.
        """
        start = time.perf_counter()
        while True:
            if self.tracer is not None:
                self.block.traced = self.rounds % 2 == 1
                if self.block.traced:
                    self.tracer.install()
                self.run_round(ops)
                self.tracer.uninstall()
                self._close_block()
            else:
                self.run_round(ops)
                if self.block.op_seconds >= BLOCK_S:
                    self._close_block()
            # a traced run needs at least one round of each kind
            enough = self.tracer is None or self.rounds >= 2
            if enough and time.perf_counter() - start >= seconds:
                break
        if self.block.rounds:
            self._close_block()

    def summary(self, traced: bool = False) -> tuple[dict, dict]:
        """Median over blocks of the calibrated and of the raw rates."""
        chosen = [(b, f) for b, f in zip(self.blocks, self.factors) if b.traced == traced]
        calibrated = [b.rates(f) for b, f in chosen]
        raw = [b.rates() for b, _ in chosen]
        return ({name: statistics.median(r[name] for r in calibrated) for name in calibrated[0]},
                {name: statistics.median(r[name] for r in raw) for name in raw[0]})


class Stopwatch:
    """Times the toepcert calls of one set-up, sampling the kernel among them."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.total = 0.0
        self.samples = []
        self._since_sample = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.total += elapsed
            self._since_sample += elapsed
            if self._since_sample >= SAMPLE_RATIO * self.kernel.nominal_s:
                self._sample()

    def _sample(self) -> None:
        self.samples.append(self.kernel.time())
        self._since_sample = 0.0

    def calibrated(self) -> float:
        if self._since_sample > 0.0 or not self.samples:
            self._sample()
        return self.total * self.kernel.nominal_s / statistics.fmean(self.samples)


def set_up(workload, kernel, seed: int, work: Path, tracer=None):
    """Build the inputs repeatedly (once when traced).

    Returns the last build and, per build, the raw and calibrated seconds
    spent inside toepcert calls.
    """
    raw, cal = [], []
    while True:
        built = None  # release the previous build before making the next
        sw = Stopwatch(kernel)
        if tracer is not None:
            tracer.install()
        try:
            built = workload.build(seed, sw, work)
        finally:
            if tracer is not None:
                tracer.uninstall()
        raw.append(sw.total)
        cal.append(sw.calibrated())
        if tracer is not None:
            tracer.drain(cal[-1] / raw[-1], "setup")
            return built, raw, cal
        if len(raw) >= SETUPS_MAX or (len(raw) >= SETUPS and sum(raw) >= SETUP_S):
            return built, raw, cal


def load_program():
    """Put ``src/`` and the benchmark on the path; False if there is no toepcert source."""
    if not (ROOT / "src" / "toepcert" / "__init__.py").is_file():
        print(f"error: no toepcert sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for path in (ROOT / "src", BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_program():
        return 2
    import kernels
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    kernel = kernels.KERNELS[workload.kernel]
    tracer = spans.Tracer() if args.trace else None
    work = BENCH / "_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        built, setup_raw, setup_cal = set_up(workload, kernels.KERNELS[workload.setup_kernel],
                                             args.seed, work, tracer)
        ops = workload.operations(built, work)
        m = Measurement(kernel, tracer)
        m.run(ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    calibrated, raw = m.summary()
    samples = [t for b in m.blocks for t in b.kernel]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel": kernel.name, "kernel_nominal_s": kernel.nominal_s,
        "kernel_median_s": statistics.median(samples), "kernel_samples": len(samples),
        "rounds": m.rounds, "blocks": len(m.blocks), "ops_per_round": len(ops),
        "accept_ops_per_round": sum(op.expect_yes for op in ops),
        "attempted": m.rounds * len(ops), "failed": m.failed, "wrong": m.wrong,
        "setup_raw_s": setup_raw, "setup_calibrated_s": setup_cal,
        "calibrated": calibrated, "raw": raw,
        "block_seconds": [[b.seconds[True], b.seconds[False]] for b in m.blocks],
        "block_counts": [[b.count[True], b.count[False]] for b in m.blocks],
        "block_factors": m.factors,
    }
    print(f"{workload.name} seed {args.seed}: {m.rounds} rounds of {len(ops)} operations "
          f"in {len(m.blocks)} blocks, {m.failed} failed; kernel {kernel.name} median "
          f"{record['kernel_median_s'] * 1e3:.2f} ms (nominal {kernel.nominal_s * 1e3:.2f})")
    if tracer is None:
        metrics = dict(calibrated)
        metrics["setup_s"] = statistics.median(setup_cal)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for name in calibrated:
            print(f"  {name:<16} {metrics[name]:12.1f} 1/s   raw {raw[name]:12.1f} 1/s")
        print(f"  {'setup_s':<16} {metrics['setup_s']:12.4f} s     raw "
              f"{statistics.median(setup_raw):12.4f} s")
        print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:12.1f} MB")
    else:
        metrics = tracer.layer_metrics(sum(b.rounds for b in m.blocks if b.traced))
        traced, _ = m.summary(traced=True)
        metrics["trace.overhead_pct"] = (
            calibrated["decisions_per_s"] / traced["decisions_per_s"] - 1.0) * 100.0
        for name, value in metrics.items():
            if value:
                print(f"  {name:<48} {value:14.3f} {unit_of(name)}")
    record["metrics"] = metrics
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.save(results / f"{stem}-spans.npz")

    print(json.dumps({
        "correct": m.wrong == 0,
        "attempted": m.rounds * len(ops),
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


UNITS = {"_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", ".self_us": "us",
         ".bytes": "bytes", "overhead_pct": "%"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


if __name__ == "__main__":
    sys.exit(main())
