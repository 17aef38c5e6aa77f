"""How far one step raises a fresh interpreter's peak RSS (Linux only)."""

import os
import subprocess
import sys
from pathlib import Path

import driftscan

#: the child reads its own VmRSS and VmHWM from here
HAS_PROC_STATUS = Path("/proc/self/status").exists()

_CHILD = """
def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))
{setup}
before = status("VmRSS")
{step}
print(status("VmHWM") - before)
"""


def peak_rise_mb(setup: str, step: str) -> float:
    """Peak RSS (VmHWM) of a child after running ``step``, less its resident size after ``setup``, in MB.

    The child imports the same driftscan as this process.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(driftscan.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(setup=setup, step=step)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024
