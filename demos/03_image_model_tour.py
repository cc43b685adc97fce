"""Touring the hierarchical image classifier.

The model cuts an image into 4x4 patches and runs four stages of gated
relational message passing, halving the patch grid and doubling the channel
width between stages. Each patch talks to its 4-connected neighbors (short
range), to its K nearest patches by feature distance outside its local
window (medium range, stages 2-4), and to learned virtual nodes (long
range); depthwise context stacks add convolutional texture.

This script reports the default model's size, then runs a scaled-down config
end to end so the whole pipeline stays fast on a laptop.
"""

import time

import numpy as np

from relmp.builders import (LONG_RELATIONS, SHORT_RELATIONS, image_medium_edges,
                            image_short_edges)
from relmp.models import (PATCH_SIZE, ImageModelConfig, ImageModelParams,
                          image_forward, pixels_to_patches)


def main():
    rng = np.random.default_rng(0)

    print("== the default configuration ==")
    default_cfg = ImageModelConfig()
    default_params = ImageModelParams.init(rng, default_cfg)
    count = default_params.param_count()
    print(f"channels {default_cfg.channels}, depths {default_cfg.depths}, "
          f"K={default_cfg.k_medium} medium neighbors")
    print(f"parameters: {count:,} (~{count / 1e6:.1f}M)")
    print(f"grid reduction: x{default_cfg.reduction} "
          f"(224x224 pixels -> 56x56 -> 28x28 -> 14x14 -> 7x7 patches)")

    print()
    print("== what the graph looks like (one small stage) ==")
    # An 8x8 patch grid: short-range edges are the 4-neighbor lattice;
    # medium-range edges link each patch to its nearest feature-space
    # neighbors outside its own 2x2 window.
    short = image_short_edges(8, 8)
    grid = pixels_to_patches(rng.normal(size=(32, 32, 3)).astype(np.float32))
    medium = image_medium_edges(grid, k=4, relation=4)
    print(f"8x8 grid: {len(short)} short-range edges "
          f"(2*H*(W-1) + 2*W*(H-1) = {2 * 8 * 7 + 2 * 8 * 7})")
    print(f"          {len(medium)} medium-range edges (K=4 per patch)")

    print()
    print("== a scaled-down model, end to end ==")
    small_cfg = ImageModelConfig(channels=(16, 32, 64, 128), depths=(1, 1, 2, 1),
                                 k_medium=4, num_classes=10)
    small_params = ImageModelParams.init(rng, small_cfg)
    print(f"parameters: {small_params.param_count():,}")
    image = rng.normal(size=(64, 64, 3)).astype(np.float32)
    start = time.monotonic()
    logits = image_forward(image, small_params, small_cfg)
    elapsed = time.monotonic() - start
    print(f"64x64x3 image -> logits {logits.data.shape} "
          f"in {elapsed:.2f}s")
    # each stage halves both grid sides; the medium relation joins after stage 1
    side = image.shape[0] // PATCH_SIZE
    stages = range(len(small_cfg.depths))
    print(f"patch counts through the stages: {[(side >> s) ** 2 for s in stages]}")
    relations = [len(SHORT_RELATIONS) + int(s > 0) + len(LONG_RELATIONS)
                 for s in stages]
    print(f"relations per stage: {relations} "
          f"(medium range joins after stage 1)")
    top = int(np.argmax(logits.data))
    print(f"argmax class (untrained, arbitrary): {top}")


if __name__ == "__main__":
    main()
