"""The inner loop learning a hidden modality shift from its own alignments.

The emerging modality here is the seen modality pushed element-wise
through an unknown per-channel squashing map.  No element correspondence
is given: the loop aligns, trains the adapter on the aligned element
pairs, re-adapts, and repeats until the weights stop moving.
"""

import numpy as np

from warpmatch import (
    MatchedPairSet,
    SynthConfig,
    TrainConfig,
    adapt_matrix,
    dpw,
    gen_task,
    init_adapter,
    run_sloma,
)

cfg = SynthConfig(n_classes=6, height=8, width=8, channels=6,
                  warp=0.0, map_kind="affine_sigmoid", map_gain=2.0,
                  noise_std=0.0, seed=7)
seen, emerging, _ = gen_task(cfg)

pairs = MatchedPairSet(tuple((i, i) for i in range(seen.size)))
params0 = init_adapter(channels=6, hidden=48, seed=1, pass_through=True)
train = TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=200)

params, steps = run_sloma(seen.matrices, emerging.matrices, pairs, params0,
                          eps=1e-3, cfg=train, max_iters=50)

print("iter  mean-align-cost  train-loss  weight-move")
for s in steps:
    print(f"{s.iteration:4d}  {s.match_cost:15.3f}  {s.train_loss:10.2e}"
          f"  {s.weight_delta:11.2e}")

final = np.mean([
    dpw(sm, adapt_matrix(params, em))[0]
    for sm, em in zip(seen.matrices, emerging.matrices)
])
print(f"\nmean alignment distance, raw emerging : {steps[0].match_cost:.3f}")
print(f"mean alignment distance, adapted      : {final:.3f}")
print(f"reduction                             : {(1 - final / steps[0].match_cost) * 100:.1f}%")
