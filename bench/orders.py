"""Stdlib-only finite orders for the benchmark's generator and verifier.

Independent of latkit on purpose: the generator must not use the code
under test to make its inputs, and the verifier must not use it to
judge its outputs.  An order on n elements is a list of bitmasks, up[i]
having bit j set iff i <= j.
"""

from __future__ import annotations


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A finite partial order on labelled elements, as bitmask rows."""

    def __init__(self, labels, pairs):
        self.labels = list(labels)
        self.n = n = len(self.labels)
        pos = {lab: i for i, lab in enumerate(self.labels)}
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[pos[a]] |= 1 << pos[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                row = up[i]
                for j in bits(row):
                    if up[j] & ~row:
                        row |= up[j]
                if row != up[i]:
                    up[i] = row
                    changed = True
        for i in range(n):
            for j in bits(up[i]):
                if j != i and up[j] >> i & 1:
                    raise ValueError("cycle in generated order")
        self.up = up
        self.down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                self.down[j] |= 1 << i
        self.pos = pos
        self.full = (1 << n) - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def least_of(self, mask: int):
        for i in bits(mask):
            if mask & ~self.up[i] == 0:
                return i
        return None

    def greatest_of(self, mask: int):
        for i in bits(mask):
            if mask & ~self.down[i] == 0:
                return i
        return None

    def upper_bounds(self, mask: int) -> int:
        out = self.full
        for i in bits(mask):
            out &= self.up[i]
        return out

    def lower_bounds(self, mask: int) -> int:
        out = self.full
        for i in bits(mask):
            out &= self.down[i]
        return out

    def join(self, mask: int):
        return self.least_of(self.upper_bounds(mask))

    def meet(self, mask: int):
        return self.greatest_of(self.lower_bounds(mask))

    def bottom(self):
        return self.least_of(self.full)

    def top(self):
        return self.greatest_of(self.full)

    def covers(self) -> list:
        """Covering pairs (a, b), a below b, in index order."""
        out = []
        for a in range(self.n):
            strict = self.up[a] & ~(1 << a)
            for b in bits(strict):
                between = strict & self.down[b] & ~(1 << b)
                if not between:
                    out.append((a, b))
        return out

    def meet_table(self):
        """Pairwise meets, or None when some pair has none."""
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                m = self.greatest_of(self.down[i] & self.down[j])
                if m is None:
                    return None
                row.append(m)
            rows.append(row)
        return rows

    def implication_table(self, mt):
        """a => b as the greatest c with c meet a <= b (frames only)."""
        imp = []
        for a in range(self.n):
            row = []
            for b in range(self.n):
                cands = 0
                for c in range(self.n):
                    if self.up[mt[c][a]] >> b & 1:
                        cands |= 1 << c
                g = self.greatest_of(cands)
                row.append(g)
            imp.append(row)
        return imp

    def is_closure_system(self, mask: int) -> bool:
        """Every principal upset meets mask in a least element."""
        return all(
            self.least_of(self.up[x] & mask) is not None for x in range(self.n)
        )

    def closure_table(self, mask: int) -> list:
        """The closure operator x -> least element of mask above x."""
        return [self.least_of(self.up[x] & mask) for x in range(self.n)]

    def mask_of(self, labels) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.pos[lab]
        return m

    def labels_of(self, mask: int) -> list:
        return [self.labels[i] for i in bits(mask)]
