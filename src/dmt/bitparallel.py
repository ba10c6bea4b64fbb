"""Evaluation of a formula over every small model at once.

`semantics.enumerate_models` lists the k-world models over a signature
in the order of a number whose digits are, most significant first, the
valuation of each world, the relation of each modality and the
preference order.  `Models` evaluates a formula over all of them a
block at a time: at world slot j a formula is a mask with bit m set
when it holds at the j-th world of the block's m-th model.

Every table the evaluation reads ("p is true at w_j", "w_l is an
i-successor of w_j", "w_a is preferred to w_b") is the mask of the
models whose digit chose a part holding some key.  It is built from one
run of bits per such part and doubled across the block, with no
division.  A box at w_j then costs a few big-int operations per world
slot: it fails in the models where some successor w_l fails the
operand, and a defeasible box reads the minimal successors instead.
"""

from __future__ import annotations

import itertools

from .syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Iff, Implies, Not, Or, Top,
)

# The most models evaluated at once.  A world count with more models is
# split into blocks along the least significant digits of the model
# index, and the more significant digits are iterated.
_BLOCK_MODELS = 1 << 17


def _or(masks):
    out = 0
    for x in masks:
        out |= x
    return out


def _holders(parts):
    """key -> an int with bit x set when parts[x] holds the key."""
    out = {}
    for x, part in enumerate(parts):
        for key in part:
            out[key] = out.get(key, 0) | 1 << x
    return out


def _spread(values, stride, radix, size):
    """The mask, over a block of `size` models, of "this digit is one of
    values" for a digit of the given stride and radix, where values has
    bit x set for each value x: a run of `stride` bits at each value,
    repeated every stride * radix bits by doubling."""
    runs = {ord("0"): "0" * stride, ord("1"): "1" * stride}
    pattern = int(bin(values)[2:].translate(runs), 2)
    period = stride * radix
    copies = size // period
    out = shift = 0
    while True:
        if copies & 1:
            out |= pattern << shift
            shift += period
        copies >>= 1
        if not copies:
            return out
        pattern |= pattern << period
        period <<= 1


class Models:
    """The models with the given worlds, one per choice of a valuation
    per world, a relation per modality and an order, each from its list
    of parts (a valuation holds atoms, a relation and an order hold
    pairs of worlds).

    A formula's value is the k masks of its world slots side by side in
    one int, slot j at bit j * size, so that a Boolean connective is a
    single big-int operation.  Plain methods rather than nested
    functions, so that no reference cycle keeps a block's big ints alive
    after the search.
    """

    def __init__(self, worlds, atoms, modalities, valuations, relations,
                 orders):
        k = len(worlds)
        self.worlds, self.atoms = worlds, atoms
        # the digits of the model index, most significant first, each
        # with the list of parts it chooses from
        self.parts = parts = ([valuations] * k + [relations] * len(modalities)
                              + [orders])
        self.radices = radices = [len(part) for part in parts]
        self.order_digit = last = len(parts) - 1
        self.relation_digit = {i: k + t for t, i in enumerate(modalities)}
        # digits from `low` on lie inside a block, the others are iterated;
        # strides[d] is the number of models per step of digit d
        low, size = last, radices[last]
        strides = [1] * len(parts)
        while low and size * radices[low - 1] <= _BLOCK_MODELS:
            low -= 1
            strides[low] = size
            size *= radices[low]
        self.low, self.size, self.strides = low, size, strides
        self.full = (1 << size) - 1             # one slot, every model
        self.shifts = range(0, k * size, size)  # slot j at bit j * size
        self.every = (1 << k * size) - 1        # every slot
        self.holders = {}   # id of a list of parts -> its _holders
        self.spread = {}    # (digit, key) -> mask, the same in every block

    def table(self, d, key):
        """The block's mask of "key is in the part that digit d chose"."""
        parts = self.parts[d]
        held = self.holders.get(id(parts))
        if held is None:
            held = self.holders[id(parts)] = _holders(parts)
        values = held.get(key, 0)
        if d < self.low:
            return self.full if values >> self.high[d] & 1 else 0
        mask = self.spread.get((d, key))
        if mask is None:
            mask = self.spread[d, key] = _spread(
                values, self.strides[d], self.radices[d], self.size)
        return mask

    def rows(self, i, minimal):
        """R[j][l], the models where w_l is an i-successor of w_j, or
        with minimal, M[j][l], where it is a preference-minimal one: no
        i-successor w_a of w_j is preferred to it."""
        out = self.succ.get((i, minimal))
        if out is None:
            worlds, table = self.worlds, self.table
            d = self.relation_digit[i]
            out = [[table(d, (w, v)) for v in worlds] for w in worlds]
            if minimal and len(worlds) > 1:
                order = self.order_digit
                out = [[r & ~_or(table(order, (u, v)) & q
                                 for u, q in zip(worlds, row) if u != v)
                        for v, r in zip(worlds, row)] for row in out]
            self.succ[i, minimal] = out
        return out

    def ev(self, g):
        """The formula's value: its mask at each world slot."""
        t = type(g)
        if t is Not:
            return self.every ^ self.ev(g.operand)
        if t is Bottom:
            return 0
        if t is Top:
            return self.every
        out = self.memo.get(g)
        if out is not None:
            return out
        if t is Atom:
            out = 0
            if g.name in self.atoms:
                for j, shift in enumerate(self.shifts):
                    out |= self.table(j, g.name) << shift
        elif t is And:
            out = self.ev(g.left) & self.ev(g.right)
        elif t is Or:
            out = self.ev(g.left) | self.ev(g.right)
        elif t is Implies:
            out = (self.every ^ self.ev(g.left)) | self.ev(g.right)
        elif t is Iff:
            out = self.every ^ self.ev(g.left) ^ self.ev(g.right)
        elif t is Box or t is Dia or t is DefBox or t is DefDia:
            box = t is Box or t is DefBox
            if g.modality not in self.relation_digit:
                out = self.every if box else 0
            else:
                # Box at w_j fails where some successor fails the operand,
                # Dia holds where some successor satisfies it
                x = self.ev(g.operand)
                if box:
                    x ^= self.every
                full, shifts = self.full, self.shifts
                sub = [x >> shift & full for shift in shifts]
                out = 0
                for row, shift in zip(self.rows(g.modality,
                                                t is DefBox or t is DefDia),
                                      shifts):
                    found = 0
                    for r, y in zip(row, sub):
                        found |= r & y
                    out |= found << shift
                if box:
                    out ^= self.every
        else:
            raise TypeError(f"not a formula: {g!r}")
        self.memo[g] = out
        return out

    def first(self, goal, assumptions):
        """(digits, slot) of the first model in which every assumption
        holds at every world and goal holds at some world, and of the
        first such world; None when there is none."""
        radices, low, shifts = self.radices, self.low, self.shifts
        for high in itertools.product(*map(range, radices[:low])):
            # the block's high digits, successor rows, and the values of
            # the subformulas met so far, keyed by node
            self.high, self.succ, self.memo = high, {}, {}
            ok = self.full
            for g in assumptions:
                x = self.ev(g)
                for shift in shifts:
                    ok &= x >> shift
            if not ok:
                continue
            hits = self.ev(goal)
            first = 0
            for shift in shifts:
                first |= hits >> shift & ok
            if not first:
                continue
            m = (first & -first).bit_length() - 1
            slot = 0
            while not hits >> shifts[slot] + m & 1:
                slot += 1
            digits = list(high)
            for radix, stride in zip(radices[low:], self.strides[low:]):
                digits.append(m // stride % radix)
            return digits, slot
        return None
