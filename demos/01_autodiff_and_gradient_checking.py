"""A tour of the autodiff core: tapes, backward passes, gradient checking.

Every neural model in controkit is built from the handful of primitives
shown here. Graphs are recorded define-by-run; backward walks the tape in
reverse; grad_check re-runs the same tape under central finite differences
(float64) to certify every backward rule.
"""

import numpy as np

from controkit import autodiff as ad

# --- a tiny expression graph -------------------------------------------------
graph = ad.Graph(np.float64)
w = graph.parameter("w", np.array([[1.0, -2.0], [0.5, 3.0]]))
b = graph.parameter("b", np.array([0.1, -0.2]))
x = graph.constant(np.array([[1.0, 2.0]]))

hidden = ad.linear(x, w, b)  # x @ w.T + b as one tape node
loss = ad.sum_all(ad.mul(hidden, hidden))
print("loss:", float(loss.data))

grads = graph.backward(loss)
print("d loss / d w:\n", grads["w"])

# --- numerically certify the whole tape --------------------------------------
report = ad.grad_check(graph, loss, step=1e-5, tolerance=1e-6)
print("gradient check:", report)

# --- softmax stability: huge logits neither overflow nor lose normalization --
probs = ad.stable_softmax(np.array([1000.0, 1000.0, 999.0]))
print("softmax([1000, 1000, 999]) =", probs, "sum =", probs.sum())

# --- dropout: inverted scaling keeps the expected value ----------------------
rng = np.random.default_rng(0)
ones = graph.constant(np.ones(10_000))
dropped = ad.dropout(ones, rate=0.5, mode="train", rng=rng)
print(f"dropout(rate=0.5) sample mean: {dropped.data.mean():.4f} (expect ~1.0)")
print("eval mode is the identity:", ad.dropout(ones, 0.5, "eval") is ones)

# --- what a broken backward rule looks like ----------------------------------
def square_with_wrong_gradient(t):
    return ad._record("bad_square", (t,),
                      lambda v: v * v,
                      lambda g, out, v: (g * 3.0 * v,))  # should be 2v

bad_graph = ad.Graph(np.float64)
theta = bad_graph.parameter("theta", np.array([2.0, -1.0]))
bad_loss = ad.sum_all(square_with_wrong_gradient(theta))
bad_report = ad.grad_check(bad_graph, bad_loss, step=1e-5, tolerance=1e-4)
print("corrupted rule detected:", not bad_report.passed,
      f"(max relative error {bad_report.max_error:.2f})")
