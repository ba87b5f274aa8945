"""Walk through the autodiff core: record a small network and its loss on
a tape, take gradients from backward, check one against a finite
difference from a rerun of the same tape, and watch the gradient reversal
layer flip a gradient's sign.
"""

import numpy as np

import dualda.autodiff as ad

rng = np.random.default_rng(0)
x = rng.uniform(-1, 1, (4, 3))
labels = np.array([0, 1, 1, 0])
w1, b1 = rng.uniform(-1, 1, (5, 3)), rng.uniform(-0.1, 0.1, 5)
w2, b2 = rng.uniform(-1, 1, (2, 5)), rng.uniform(-0.1, 0.1, 2)

# A tape records every op as it runs; backward replays it in reverse.
# tape.param wraps a parameter array in place, so a rerun reads its latest
# values. A dense layer relu(x @ w1.T + b1) is one record.
tape = ad.Tape()
params = [tape.param(a) for a in (w1, b1, w2, b2)]
hidden = ad.matmul(tape.leaf(x), params[0], bias=params[1], relu=True)
logits = ad.matmul(hidden, params[2], bias=params[3])
loss = ad.cross_entropy(logits, labels)

# The gradient reversal layer: identity forward, -lambda x gradient
# backward. A second loss reads the same logits through it.
reversed_logits = ad.grad_reverse(logits, 0.5)
reversed_loss = ad.cross_entropy(reversed_logits, labels)

# backward returns the gradient of each wrt tensor, in wrt order.
g_w1, g_b1, g_w2, g_b2 = ad.backward(tape, loss, params)
print("loss:", loss.data[0])
print("grad wrt w2:\n", g_w2)

# Check one coordinate of w1 against a central finite difference: perturb
# the parameter in place and rerun the tape for each value.
i, h = 3, 1e-5
flat = w1.reshape(-1)


def value():
    tape.rerun()
    return float(loss.data[0])


keep = flat[i]
flat[i] = keep + h
up = value()
flat[i] = keep - h
down = value()
flat[i] = keep
print(f"analytic grad[{i}] = {g_w1.reshape(-1)[i]:.8f}, "
      f"finite diff = {(up - down) / (2 * h):.8f}")

tape.rerun()
print("\ngrad_reverse forward (identity):",
      reversed_logits.data.tobytes() == logits.data.tobytes())
(g_reversed,) = ad.backward(tape, reversed_loss, [params[3]])
print("gradient wrt b2:                     ", g_b2)
print("the same through grad_reverse(0.5):  ", g_reversed)
