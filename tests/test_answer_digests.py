"""The benchmark's answers, pinned: the digest of the first 60 answers of
each ``perfbench`` workload for seeds 1 to 3.

A change that makes the package faster must leave every answer as it was;
a change that means to alter answers updates these pins and says why. The
digests were the same on CPython 3.10, 3.11, 3.12 and 3.13. The harness is
only read, through its own loop, untimed parts and all.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from probe import load_seqalloc  # noqa: E402
from run import Loop, run_end_to_end  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPERATIONS = 60

DIGESTS = {
    ("two-agent", 1): "dd456022b18cfd1716bac7c6732860fbab6af916fa4ff32479b3cfaf362790e8",
    ("two-agent", 2): "1f9905b312d7b0ad550640821187d853e22a6509952c5b507eccd6b15b9d1100",
    ("two-agent", 3): "78b25d7fa4a677b1ff2d81da58644b19a88cef3c3ce2bd93d80c88edc9c5f1b3",
    ("oracle", 1): "4c990fc881e1febe0a2ddce86e051c119ca78273584980c1dec6edbba85a76bb",
    ("oracle", 2): "09a6dbd9fe34e6a338ceb8e06a170d3c88a6d48822af93c507b610b896406345",
    ("oracle", 3): "1c0dd100577d9f96a14cca8537f8369ee1861e49e825f923692bd02a425c3790",
    ("reduction", 1): "2bc24887704b613a13fde93ac77b0695ad9421666827382874adabb698a44382",
    ("reduction", 2): "8dbc54bb6f950a1d404b30e95fdcfdc569d279ee6a3702896ceb67733db4dd87",
    ("reduction", 3): "8a869f5f989c0666647522552f30746e4cf7e5a0878495b955d8a39898a11856",
}


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_first_answers_keep_their_digest(workload, seed):
    loop = Loop(WORKLOADS[workload], load_seqalloc(), seed)
    run_end_to_end(loop, seconds=0, min_samples=OPERATIONS)
    assert (loop.attempted, loop.failed, loop.first_error) == (OPERATIONS, 0, None)
    assert loop.digest.hexdigest() == DIGESTS[workload, seed]
