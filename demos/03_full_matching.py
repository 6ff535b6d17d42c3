"""End-to-end unsupervised matching on a synthetic 20-class task.

The seen modality has one template per class; the emerging modality is
fully unlabeled, spatially warped, pushed through a hidden channel map
and noised.  The outer loop grows its candidate pair set by one per
iteration, refining the adapter each round; accuracy climbs as the pool
of trusted pairs grows.  Takes a few minutes.
"""

from warpmatch import (
    SwimConfig,
    SynthConfig,
    TrainConfig,
    gen_task,
    knn_baseline,
    rank_report,
    run_swim,
)

task = SynthConfig(n_classes=20, height=10, width=10, channels=8,
                   warp=0.95, map_kind="affine_sigmoid", map_gain=3.0,
                   noise_std=0.015, n_components=4, component_mix=0.75, seed=13)
seen, emerging, _ = gen_task(task)

cfg = SwimConfig(
    alpha=1, eps=1e-3, hidden=64,
    train=TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=200),
    max_sloma_iters=30, seed=3,
)

assignment, params, steps, dist = run_swim(seen.matrices, emerging.matrices, cfg,
                                           class_ids=(seen.class_ids, emerging.class_ids))

print("T   pairs  tracked-top1  tracked-top5")
for s in steps:
    print(f"{s.iteration:<3d} {s.n_pairs:5d}  {s.top1:12.2f}  {s.top5:12.2f}")

# The run's last distance matrix is already under the final adapter.
report = rank_report(dist, seen, emerging, k=5)
baseline = knn_baseline(seen, emerging, params, k=5)
print(f"\nfinal top-1 accuracy (alignment ranking): {report.top1:.2f}")
print(f"final top-5 accuracy (alignment ranking): {report.top5:.2f}")
print(f"pointwise-distance baseline top-1       : {baseline.top1:.2f}")
correct = sum(1 for k, l in assignment.pairs if seen.class_ids[k] == emerging.class_ids[l])
print(f"assignment pairs correct                : {correct}/{len(assignment.pairs)}")
