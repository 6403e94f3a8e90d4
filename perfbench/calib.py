"""Machine-speed correction interleaved with the timed work.

A ``signal.setitimer`` timer runs a fixed kernel at a fixed wall-clock
interval inside the process being measured. The time spent in the kernel is
subtracted from every measured interval, and what remains is scaled by
``REFERENCE_KERNEL_S / mean kernel time``: a corrected second is a second on
a machine where the kernel takes the reference time.

The kernel is mpmath's low-level arithmetic (``mpmath.libmp``) at 424 bits,
called with explicit precision and rounding: the pure-Python big-integer
code that the program itself spends its time in, so machine slowdowns hit
both alike. It reads and writes no state of the program under test (not the
mpmath context, not the random module), so the program computes exactly
what it computes without it. Of the kernels tried (plain big-integer
squaring, list traffic over a few megabytes, this one), this one tracked the
program best: on ten repeated runs of the same pencils it cut the
coefficient of variation from 7.2% (raw) to 2.4%.
"""

from __future__ import annotations

import signal
import time

from mpmath import libmp

# Mean kernel time on the reference machine (2-core shared Linux machine, Python 3.11.7,
# mpmath 1.3.0 on its Python backend). A constant, so corrected figures stay
# comparable across commits.
REFERENCE_KERNEL_S = 0.0033

_PREC = 424
_A = libmp.from_str("1.2345678901234567890123456789", _PREC, libmp.round_nearest)
_B = libmp.from_str("0.98765432109876543210987654321", _PREC, libmp.round_nearest)


def kernel():
    """Fixed work: 300 rounds of a multiply, an add and a divide at 424 bits."""
    x = _A
    rnd = libmp.round_nearest
    for _ in range(300):
        x = libmp.mpf_div(libmp.mpf_add(libmp.mpf_mul(x, _B, _PREC, rnd), _A, _PREC, rnd), _B, _PREC, rnd)
    return x


class Calibrator:
    """Runs :func:`kernel` on SIGALRM and keeps the time each run took.

    ``on_kernel`` is called with each kernel duration, so a tracer can remove
    the kernel from the span it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.total = 0.0
        self.on_kernel = None

    def _handler(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total += dt
        if self.on_kernel is not None:
            self.on_kernel(dt)

    def start(self, interval):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self):
        """(wall clock, kernel seconds so far, kernel samples so far)."""
        return time.perf_counter(), self.total, len(self.samples)

    def factor(self, since=0):
        """Speed factor from the kernel samples taken after sample ``since``.

        A window shorter than the timer period gets one sample taken now.
        """
        if len(self.samples) <= since:
            self.sample()
        window = self.samples[since:]
        return REFERENCE_KERNEL_S / (sum(window) / len(window))

    def corrected(self, start, end):
        """Speed-corrected seconds between two :meth:`mark` results."""
        wall = (end[0] - start[0]) - (end[1] - start[1])
        return wall * self.factor(start[2])
