"""Computed counts at the default shapes, checked against a hand calculation.

Defaults: batch 8 -> 16 crops of 8x16x16 from 3x16x32x32 clips; encoder
kernel 3, stride 2, 8 conv channels, 32-dim embedding; float64.
"""

from measure import (
    conv_positions,
    encode_bytes,
    encode_flop,
    sample_bytes,
    sample_points,
)

CROP = (3, 8, 16, 16)
CLIP = (3, 16, 32, 32)
GRID = (8, 16, 16, 3)
ENCODER = dict(conv_channels=8, kernel=3, stride=2, embed_dim=32)


def test_conv_positions():
    # (8-3)//2+1 = 3 and (16-3)//2+1 = 7 per spatial axis.
    assert conv_positions(CROP[1:], 3, 2) == 3 * 7 * 7 == 147


def test_encode_flop():
    conv = 2 * 8 * 3 * 27 * 147  # 190,512
    projection = 2 * 32 * 8  # 512
    assert encode_flop(CROP, **ENCODER) == conv + projection == 191_024


def test_encode_bytes():
    clip = 3 * 8 * 16 * 16  # 6,144
    weights = 8 * 3 * 27 + 8 + 32 * 8 + 32  # 944
    pre_activation = 8 * 147  # 1,176
    embedding = 32
    assert encode_bytes(CROP, **ENCODER) == 8 * (clip + weights + pre_activation + embedding)
    assert encode_bytes(CROP, **ENCODER) == 66_368


def test_sample_points_and_bytes():
    assert sample_points(GRID) == 2048
    clip = 3 * 16 * 32 * 32  # 49,152
    grid = 2048 * 3
    crop = 3 * 2048
    assert sample_bytes(CLIP, GRID) == 8 * (clip + grid + crop) == 491_520
