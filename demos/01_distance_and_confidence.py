"""
Distances, kernel similarities, and confidence scores
=====================================================

Walks through the building blocks on a tiny hand-made dataset: the learned
linear map L, the squared distance it induces, the Gaussian kernel built
from that distance, and the class-conditional confidence score.
"""

import numpy as np

from confmetric import (
    Dataset,
    confidence_score,
    kernel_similarity,
    positive_scores,
    similarity_scores,
    squared_distance,
)

# A 2-D toy problem: class 1 lives near the origin, class 0 near (3, 3).
X = np.array([
    [0.1, 0.0],
    [0.0, 0.4],
    [-0.2, 0.1],
    [3.0, 3.1],
    [2.8, 2.9],
    [3.2, 3.0],
])
y = np.array([1, 1, 1, 0, 0, 0])
data = Dataset(X, y)

# Start with the identity map: plain Euclidean geometry.
L = np.eye(2)
print("squared distance between the first two points:",
      squared_distance(L, X[0], X[1]))
print("kernel similarity of the same pair:",
      kernel_similarity(L, X[0], X[1]))

# Per-instance mean similarity to each class (self excluded).
S = similarity_scores(L, data)
print("\nsimilarity scores (columns = class 0, class 1):")
print(np.round(S, 4))

# The confidence score normalizes the two similarities against each other.
for i in range(data.n):
    c1 = confidence_score(S[i, 1], S[i, 0])
    print(f"instance {i} (label {y[i]}): confidence in class 1 = {c1:.4f}")

# A new query is scored against the training set (no self-exclusion), and
# its label is 1 when that confidence strictly exceeds 0.5.
query = np.array([0.05, 0.2])
c1 = positive_scores(L, data, query)[0]
print(f"\nquery {query} -> label {int(c1 > 0.5)}, confidence {c1:.4f}")

# A map that ignores the second coordinate still separates this problem,
# because the classes already differ in the first coordinate.
L_sparse = np.array([[1.0, 0.0]])
c1 = positive_scores(L_sparse, data, query)[0]
print(f"1-D projection -> label {int(c1 > 0.5)}, confidence {c1:.4f}")
