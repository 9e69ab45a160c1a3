"""Speed probe: a fixed kernel timed to follow the host's speed.

On a shared 2-vCPU guest a fixed kernel takes 25-46 ms from one second to
the next, and its CPU time moves with it.  The timed loop (worker.py)
therefore samples this probe before the first op, after every op, and every
IN_OP_S seconds inside an op, and reports each op's wall and CPU time also
divided by the mean sample over the op: the op's cost in probes, from which
the drift cancels out.  Inside an op a sample is taken on SIGALRM, between
two bytecodes, by the process that does the op's work; a CLI op samples in
its own child (cli_op.py), since a sample in the parent would compete with
the child for the cores and measure that instead.

The kernel is interpreted integer arithmetic, the standard library only, so
that sampling inside a CLI process imports nothing the CLI would not.  A
sample is the fastest of three runs of it, about 2 ms each.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time


def kernel() -> int:
    acc = 0
    for k in range(30000):
        acc += k * k % 7
    return acc


class SpeedProbe:
    IN_OP_S = 0.25

    def __init__(self):
        self.samples = []        # (wall s, CPU s) of each sample
        self.active = False      # inside an op: the timer may sample
        self.spent = (0.0, 0.0)  # wall and CPU s of the samples inside the op
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> None:
        best = None
        for _ in range(3):
            c0 = process_time()
            t0 = perf_counter()
            kernel()
            run = (perf_counter() - t0, process_time() - c0)
            best = run if best is None or run[0] < best[0] else best
        self.samples.append(best)

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            c0 = process_time()
            t0 = perf_counter()
            self.sample()
            self.spent = (self.spent[0] + perf_counter() - t0,
                          self.spent[1] + process_time() - c0)

    def start(self, in_op: bool = True) -> int:
        """Open an op, sampling inside it if `in_op`; returns the index of
        the sample before it."""
        self.spent = (0.0, 0.0)
        if in_op:
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, self.IN_OP_S, self.IN_OP_S)
        return len(self.samples) - 1

    def stop(self) -> None:
        self.active = False      # a signal still pending now samples nothing
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    @staticmethod
    def mean(samples):
        """Mean (wall, CPU) of `samples`."""
        return (sum(w for w, _ in samples) / len(samples),
                sum(c for _, c in samples) / len(samples))
