"""flowclean's one-BLAS-thread default, and output that does not depend on it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowclean
from flowclean.cli import main

SRC = str(Path(flowclean.__file__).resolve().parents[1])
# enough flows per app that the hier pair matrix's product is large
# enough for OpenBLAS to split it between threads
SCENARIO = """\
seed 11
capture_duration_s 900
app alpha
role DataPlane 300
role Heartbeat 60
role Dns 40
role BackgroundTls 40
role Upload 30
app beta
role DataPlane 250
role Heartbeat 50
role Dns 40
role BackgroundTls 30
role Upload 30
"""


def run_python(args, blas_threads=None, **kwargs):
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env, **kwargs)
    assert done.returncode == 0, done.stderr
    return done.stdout


THREADS_AFTER_IMPORT = (
    "import os, flowclean, numpy; "
    "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_importing_flowclean_first_leaves_one_thread():
    assert run_python(["-c", THREADS_AFTER_IMPORT]).split() == ["1", "1"]


def test_a_blas_thread_count_the_user_set_is_kept():
    assert run_python(["-c", THREADS_AFTER_IMPORT], blas_threads=2).split()[1] == "2"


def test_hier_clean_is_the_same_with_one_or_two_blas_threads(tmp_path):
    # the pair matrix must be exactly symmetric whatever BLAS does with it;
    # cluster._pair_matrix says why
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO)
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    cleaned = []
    for blas_threads in (1, 2):
        out = tmp_path / f"blas{blas_threads}"
        run_python(["-m", "flowclean.cli", "clean", "--algorithm", "hier",
                    "--flows", str(tmp_path / "flows.csv"), "--out", str(out)],
                   blas_threads=blas_threads)
        cleaned.append((out / "cleaned.csv").read_bytes())
    assert cleaned[0] == cleaned[1]
