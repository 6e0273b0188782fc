"""Tests for the per-thread scratch arrays and the hot-path outputs built on them.

The sampler's jacobian and the encoder's im2col matrix come from
:func:`paramcrop.buffers.scratch`.  A result that a caller still holds, or a
view of it, must never be overwritten by the next call; once released, the
next call of the same shape must get the same array back.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import paramcrop
from paramcrop.buffers import scratch
from paramcrop.contrastive import ToyEncoder, encode
from paramcrop.sampler import resample, sample


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestScratch:
    def test_released_array_comes_back(self):
        first = scratch("test.released", (3, 4))
        ref, where = weakref.ref(first), address(first)
        del first
        again = scratch("test.released", (3, 4))
        assert ref() is again and address(again) == where

    def test_held_array_or_view_is_not_reused(self):
        held = scratch("test.held", (3, 4))
        view = scratch("test.view", (3, 4))[1:].reshape(-1)
        assert not np.shares_memory(held, scratch("test.held", (3, 4)))
        assert not np.shares_memory(view, scratch("test.view", (3, 4)))

    def test_new_shape_replaces_the_array(self):
        scratch("test.shape", (3, 4))
        out = scratch("test.shape", (4, 3))
        assert out.shape == (4, 3) and out.dtype == np.float64
        assert out.flags.c_contiguous

    def test_threads_never_share_an_array(self):
        mine = scratch("test.threads", (5,))
        ref = weakref.ref(mine)
        del mine
        theirs = []
        thread = threading.Thread(
            target=lambda: theirs.append(address(scratch("test.threads", (5,)))))
        thread.start()
        thread.join()
        assert theirs[0] != address(ref())
        again = scratch("test.threads", (5,))
        assert ref() is again


def _clips(rng, n=2, shape=(3, 6, 7, 8)):
    return rng.random((n,) + shape)


def _grids(rng, n=2, views=2, shape=(4, 5, 6)):
    return rng.uniform(-1.1, 1.1, (n, views) + shape + (3,))


def _sample(rng):
    return sample(_clips(rng), _grids(rng))


def _resample(rng):
    return (resample(_clips(rng), _grids(rng)),)


_ENCODER = ToyEncoder.initialise(np.random.default_rng(7), 3, 4, 5)


def _encode_cols(rng):
    return (encode(_clips(rng, n=3), _ENCODER)[1].cols,)


CALLS = {"sample": _sample, "resample": _resample, "encode": _encode_cols}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("keep_view", [False, True], ids=["outputs", "views"])
def test_held_results_are_never_overwritten(call, keep_view):
    rng = np.random.default_rng(0)
    kept = call(rng)
    if keep_view:
        kept = tuple(a.reshape(-1)[1:].reshape(-1, 1) for a in kept)
    copies = [a.copy() for a in kept]
    fresh = call(rng)
    for held, copy, new in zip(kept, copies, fresh):
        np.testing.assert_array_equal(held, copy)
        assert not np.shares_memory(held, new)


# The reused output of each call that has one.
REUSED = {"sample": lambda rng: _sample(rng)[1], "encode": lambda rng: _encode_cols(rng)[0]}


@pytest.mark.parametrize("call", REUSED.values(), ids=REUSED.keys())
def test_released_results_are_reused(call):
    rng = np.random.default_rng(1)
    first = call(rng)
    ref, where = weakref.ref(first), address(first)
    del first
    again = call(rng)
    assert address(again) == where and ref() is again


# Counts ru_minflt over steps 10-30 of a default adversarial run.
_FAULT_CHILD = """
import resource
from paramcrop import simulator

marks = {}
step = simulator._Trainer.step

def counted(self, index):
    if index == 10:
        marks["start"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return step(self, index)

simulator._Trainer.step = counted
simulator.run_training(simulator.TrainConfig(steps=30))
end = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((end - marks["start"]) / 20)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the trim behaviour measured is glibc's")
def test_adversarial_step_does_not_fault_its_arrays_back_in():
    # Freed at every step end, the step's arrays were trimmed back to the OS
    # and faulted in again: about 1,600 minor faults per default step.
    src = str(Path(paramcrop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FAULT_CHILD], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 200
