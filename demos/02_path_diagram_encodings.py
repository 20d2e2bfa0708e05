#!/usr/bin/env python3
"""Encoding ordered set partitions as labelled lattice paths.

The path records each element's role: North = opens a multi-element block,
East = a singleton, South-East = closes a block, Null = joins a block in the
middle.  The label picks where the element lands among the partial
partition's blocks and gaps.  Two gap-numbering conventions give two
different bijections with very different statistics behind the labels.
"""
from opstat import LatticePath, PathDiagram, phi, phi_inv, psi, psi_inv


def restricted(pi, i):
    """pi's blocks cut to their elements up to i, the empty ones dropped; a
    block that goes on past i is still active and ends in ∞."""
    parts = []
    for block in pi.blocks:
        kept = " ".join(str(el) for el in block if el <= i)
        if kept:
            parts.append(kept + " ∞" if block[-1] > i else kept)
    return "/".join(parts)


h = PathDiagram(LatticePath.parse("NNNOOEDDED"), (0, 0, 2, 1, 2, 3, 2, 0, 1, 0))
print(f"diagram: steps {h.path}, labels {h.labels}\n")

print("Growing the partition step by step under each decoding:")
print(f"{'i':>2} {'step':>4} {'label':>5}   {'gap-rank decode':<28} descent-aware decode")
pi_a = phi(h)
pi_b = psi(h)
for i in range(0, h.n + 1):
    step = h.path.steps[i - 1] if i else " "
    label = h.labels[i - 1] if i else " "
    print(f"{i:>2} {step:>4} {label!s:>5}   {restricted(pi_a, i):<28} {restricted(pi_b, i)}")

print(f"\nphi(h) = {pi_a}")
print(f"psi(h) = {pi_b}")

print("\nBoth have the type dictated by the path, and both invert exactly:")
print(f"  phi_inv(phi(h)) == h: {phi_inv(pi_a) == h}")
print(f"  psi_inv(psi(h)) == h: {psi_inv(pi_b) == h}")

print("\nLabel content differs: under phi the labels store ros_i at")
print("openers/singletons; under psi they store rsb_i plus the growth of")
print("the block major index, so their sums turn inversion-like statistics")
print("into major-like ones.")
