import numpy as np
import pytest

from nestedpolar.channels import (
    RngStream,
    bec_sample_rows,
    bsc_sample_rows,
    cascade_rows,
)
from nestedpolar.sc import ERASED


def test_rng_stream_reproducible():
    a = RngStream(1234, 5).generator().random(100)
    b = RngStream(1234, 5).generator().random(100)
    assert np.array_equal(a, b)
    c = RngStream(1234, 6).generator().random(100)
    assert not np.array_equal(a, c)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)


def test_bec_extremes():
    x = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    rng = RngStream(0).generator()
    assert np.array_equal(bec_sample_rows(x, 0.0, rng), x)
    assert np.all(bec_sample_rows(x, 1.0, rng) == ERASED)
    with pytest.raises(ValueError):
        bec_sample_rows(x, 1.01, rng)


def test_bec_never_flips():
    rng = RngStream(3).generator()
    x = rng.integers(0, 2, (1, 512), dtype=np.uint8)
    y = bec_sample_rows(x, 0.4, rng)
    keep = y != ERASED
    assert np.array_equal(y[keep], x[keep])


def test_bec_erasure_fraction():
    rng = RngStream(7).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    erased = sum((bec_sample_rows(x, 0.25, rng) == ERASED).sum() for _ in range(1000))
    assert abs(erased / (1024 * 1000) - 0.25) < 0.01


def test_cascade_identity_and_absorbing():
    rng = RngStream(9).generator()
    x = rng.integers(0, 2, (1, 64), dtype=np.uint8)
    y = bec_sample_rows(x, 0.3, rng)
    same = cascade_rows(y, 0.0, rng)
    assert np.array_equal(same, y)
    everything = bec_sample_rows(x, 1.0, rng)
    assert np.all(cascade_rows(everything, 0.5, rng) == ERASED)


def test_cascade_composition_rate():
    e1, e_deg = 0.3, 0.4
    rng = RngStream(11).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    total = 0
    for _ in range(500):
        y = cascade_rows(bec_sample_rows(x, e1, rng), e_deg, rng)
        total += (y == ERASED).sum()
    expected = e1 + (1 - e1) * e_deg
    assert abs(total / (1024 * 500) - expected) < 0.01


def test_bsc_extremes():
    x = np.array([[0, 1, 0, 1]], dtype=np.uint8)
    rng = RngStream(13).generator()
    clean = bsc_sample_rows(x, 0.0, rng)
    assert clean.dtype == np.float64
    assert np.all(np.sign(clean) == np.where(x == 0, 1, -1))
    flat = bsc_sample_rows(x, 0.5, rng)
    assert np.all(flat == 0.0)
    with pytest.raises(ValueError):
        bsc_sample_rows(x, 0.51, rng)


def test_bsc_flip_fraction():
    p = 0.11
    rng = RngStream(17).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    flips = 0
    for _ in range(500):
        y = bsc_sample_rows(x, p, rng)
        flips += (y < 0).sum()
    assert abs(flips / (1024 * 500) - p) < 0.01


def test_channel_realizations_reproducible():
    x = (np.arange(256) % 2).astype(np.uint8)[None, :]
    y1 = bec_sample_rows(x, 0.3, RngStream(21, 4).generator())
    y2 = bec_sample_rows(x, 0.3, RngStream(21, 4).generator())
    assert np.array_equal(y1, y2)
