"""
Learning-curve experiment with grid-searched hyperparameters
============================================================

Runs the full experiment harness in-process: for each trial and train-set
size, both methods are grid-searched on validation AUROC and scored on the
test set, then summarized as mean +/- 95% interval per curve point.
"""

from confmetric import ExperimentConfig, SynthConfig, run_experiment, summarize

cfg = ExperimentConfig(
    trials=5,
    train_sizes=[10, 20, 40],
    lambda1_grid=[1.0, 4.0],
    lambda2_grid=[0.0, 1.0],
    methods=["camel", "camel_cl"],
    seed=1,
    synth=SynthConfig(
        n=400,
        m=10,
        m_informative=2,
        cluster_separation=4.0,
        confidence_noise=0.05,
        seed=1,
    ),
    max_iters=200,
)

records = run_experiment(cfg)
print(f"{len(records)} result records "
      f"({cfg.trials} trials x {len(cfg.train_sizes)} sizes x {len(cfg.methods)} methods)\n")

print("per-cell winners (trial 0):")
for r in records:
    if r.trial == 0:
        print(f"  size {r.train_size:3d} {r.method:8s} "
              f"lambda1={r.lambda1} lambda2={r.lambda2} "
              f"test AUROC {r.test_auroc:.4f} sparsity {r.sparsity:.3f}")

print("\nlearning curves (mean over trials, +/- 95% interval):")
for row in summarize(records):
    print(f"  size {row.train_size:3d} {row.method:8s} "
          f"AUROC {row.mean_test_auroc:.4f} +/- {row.ci95_test_auroc:.4f}  "
          f"sparsity {row.mean_sparsity:.3f}")
