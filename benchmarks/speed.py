"""Process CPU time scaled to a reference CPU speed.

The benchmark runs on a few cores of a shared host. When other tenants load
the host, the same pure-Python work takes up to 1.5 times as long, in CPU
time as well as in wall time, and the slow phases come and go within
seconds.  A ``Meter`` tracks that speed from inside the measured process: a
``SIGALRM`` handler runs ``calibrate``, a fixed loop that never calls
``mcfhom``, every ``period`` seconds and times it in process CPU time.  A
lap's CPU time (calibration excluded) times ``CAL_REF_S`` over the lap's
mean calibration time is the lap's CPU time on a CPU where one calibration
takes ``CAL_REF_S``.  A program that does less work still reads faster: the
calibration loop does not change with the program.  It mixes the program's
two hot paths, the orbit integrator and the Smith normal form, so that it
slows down with the host about as they do.

Usage, in the measured process:

    meter = Meter()
    meter.start(period)      # samples from here on
    ...                      # set-up
    setup = meter.lap()      # CPU time since the process started
    ...                      # the measured commands
    run = meter.lap()        # CPU time since the previous lap
    meter.stop()
"""
import signal
import time

import numpy as np

# One calibration on the reference CPU: about its mean in a `connections`
# pass on a quiet 2-core box of the kind the README describes, so that
# reference seconds read close to wall seconds there.
CAL_REF_S = 270e-6

_V = np.linspace(0.0, 1.0, 7)
_ROWS = [[i % 7, 6 - i % 7] * 128 for i in range(256)]
_row = 0


def _mul_add(x, y):
    return x * y + 0.5


def calibrate():
    """A fixed mix like the program's hot paths (about 0.3-0.5 ms): Python
    calls and float arithmetic with small numpy array updates, as in the
    orbit integrator, then row operations on a list-of-lists matrix too
    large for the first cache levels, as in the Smith normal form."""
    global _row
    v = _V
    x = 0.0
    for i in range(600):
        x = _mul_add(x, 0.999) % 7.0
        if i % 10 == 0:
            v = v * 0.999 + 0.001
    for k in range(8):
        src = _ROWS[(_row + 37 * k) % 256]
        dst = _ROWS[(_row + 37 * k + 128) % 256]
        acc = [a + 3 * b for a, b in zip(dst, src)]
    _row = (_row + 1) % 256
    return x + float(v[0]) + acc[0]


class Meter:
    def __init__(self):
        self._mark = 0.0       # process CPU time at the start of the lap
        self._cal = []         # calibration times of the current lap
        self._cal_spent = 0.0  # their sum

    def start(self, period):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def _sample(self, signum=None, frame=None):
        t = time.process_time()
        calibrate()
        d = time.process_time() - t
        self._cal.append(d)
        self._cal_spent += d

    def lap(self, period=None):
        """Close the lap; ``period``, if given, is the next lap's."""
        cpu_s = time.process_time() - self._mark - self._cal_spent
        if not self._cal:
            self._sample()
        cal_s = sum(self._cal) / len(self._cal)
        out = {"cpu_s": cpu_s, "cal_s": cal_s, "factor": CAL_REF_S / cal_s,
               "ref_s": cpu_s * CAL_REF_S / cal_s}
        if period is not None:
            signal.setitimer(signal.ITIMER_REAL, period, period)
        self._cal = []
        self._cal_spent = 0.0
        self._mark = time.process_time()
        return out

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
