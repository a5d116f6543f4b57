"""References computed outside braidcalc.

Two computations, both with their own arithmetic and sympy's DomainMatrix
ranks over QQ, sharing no code with the package:

* `symmetrizer_ranks`: ranks of the direct quantum symmetrizer
  sum_{sigma in S_n} T_sigma on V^(x)n for a braiding whose coefficients
  lie in Q(omega), omega a primitive M-th root of unity.  Entries live in
  Q[x]/(x^M - 1); they are pushed to Q(omega) = Q[x]/Phi_M and the rank
  over that field is the rank over Q of the regular representation divided
  by phi(M).

* the rack references: Nichols dimensions and primitive-space dimensions
  of the d4_rack braiding, blockwise over braid orbits of words.  Run

      python3 perfbench/oracle.py rack --write

  to regenerate `perfbench/references.json` (a few seconds); without
  `--write` it prints the values and compares them with the file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Phi_M for the orders of the root groups the workloads use, low -> high
CYCLOTOMIC = {1: [-1, 1], 2: [1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}


def _rank_qq(columns, nrows):
    """Rank over QQ of a sparse integer/rational matrix given by columns."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.sdm import SDM

    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = QQ(v.numerator, v.denominator)
    if not rows:
        return 0
    sdm = SDM(rows, (nrows, len(columns)), QQ)
    return DomainMatrix.from_rep(sdm).rank()


def _permutations_by_weak_order(n):
    """Every permutation once, as (parent index, generator i) with
    T_sigma = c_i T_parent and l(sigma) = l(parent) + 1; the identity first."""
    def length(p):
        return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])

    ident = tuple(range(n))
    order, index = [(None, None)], {ident: 0}
    perms = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            lp = length(p)
            for i in range(n - 1):
                # left multiplication by s_i swaps the values i and i + 1
                q = tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)
                if q not in index and length(q) == lp + 1:
                    index[q] = len(perms)
                    perms.append(q)
                    order.append((index[p], i))
                    nxt.append(q)
        frontier = nxt
    return order


def symmetrizer_ranks(pairs, d, M, upto):
    """Ranks of the direct symmetrizer in degrees 0..upto.

    pairs: [a, b, a2, b2, {e: rational}] meaning
    c(x_a (x) x_b) += (sum_e r_e omega^e) x_a2 (x) x_b2.
    """
    phi = CYCLOTOMIC[M]
    deg = len(phi) - 1
    braid = {}
    for a, b, a2, b2, coeff in pairs:
        vec = [Fraction(0)] * M
        for e, r in coeff.items():
            vec[int(e) % M] += Fraction(r)
        braid.setdefault((a, b), []).append(((a2, b2), tuple(vec)))

    def mul(u, v):
        out = [Fraction(0)] * M
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        out[(i + j) % M] += x * y
        return tuple(out)

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    def apply_c(n, i, vec):
        """c on tensor positions i, i+1 (0-based) of a degree-n vector."""
        out = {}
        for word, coeff in vec.items():
            for (a2, b2), s in braid.get((word[i], word[i + 1]), ()):
                tgt = word[:i] + (a2, b2) + word[i + 2:]
                out[tgt] = add(out[tgt], mul(coeff, s)) if tgt in out else mul(coeff, s)
        return out

    # x^k mod Phi_M as coefficient lists of length deg
    powers = []
    cur = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    for _ in range(M):
        powers.append(cur)
        shifted = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        cur = [s - top * Fraction(p) for s, p in zip(shifted, phi[:-1])]

    def to_field(u):
        out = [Fraction(0)] * deg
        for k, x in enumerate(u):
            if x:
                out = [o + x * p for o, p in zip(out, powers[k])]
        return out

    def times_basis(f, t):
        """f * x^t in the field, coefficient list."""
        out = [Fraction(0)] * deg
        for k, x in enumerate(f):
            if x:
                out = [o + x * p for o, p in zip(out, powers[k + t])]
        return out

    one = tuple(Fraction(int(k == 0)) for k in range(M))
    ranks = [1]
    for n in range(1, upto + 1):
        words = list(itertools.product(range(d), repeat=n))
        pos = {w: k for k, w in enumerate(words)}
        order = _permutations_by_weak_order(n)
        columns = []
        for w in words:
            images = [{w: one}]
            total = {w: one}
            for parent, i in order[1:]:
                img = apply_c(n, i, images[parent])
                images.append(img)
                for tgt, s in img.items():
                    total[tgt] = add(total[tgt], s) if tgt in total else s
            field_col = {pos[t]: to_field(s) for t, s in total.items()}
            # regular representation: deg real columns per field column
            for t in range(deg):
                col = {}
                for r, f in field_col.items():
                    for k, v in enumerate(times_basis(f, t)):
                        if v:
                            col[r * deg + k] = v
                columns.append(col)
        ranks.append(_rank_qq(columns, len(words) * deg) // deg)
    return ranks


# ---------------------------------------------------------------------------
# d4_rack references
# ---------------------------------------------------------------------------


def _rack(i, j):
    """The dihedral rack of order 4: i |> j = 2i - j mod 4."""
    return (2 * i - j) % 4


def _orbits(n):
    """Braid orbits of length-n words; c_i maps (.., a, b, ..) to
    (.., a |> b, a, ..) up to the sign -1, and its inverse stays in the orbit."""
    seen, blocks = {}, []
    for w in itertools.product(range(4), repeat=n):
        if w in seen:
            continue
        block, stack = [], [w]
        seen[w] = len(blocks)
        while stack:
            u = stack.pop()
            block.append(u)
            for i in range(n - 1):
                v = u[:i] + (_rack(u[i], u[i + 1]), u[i]) + u[i + 2:]
                if v not in seen:
                    seen[v] = len(blocks)
                    stack.append(v)
        blocks.append(sorted(block))
    return blocks


def rack_nichols_dim(n):
    """rank of sum_sigma T_sigma on V^(x)n, T_sigma(w) = (-1)^l(sigma) sigma.w."""
    if n == 0:
        return 1
    order = _permutations_by_weak_order(n)
    total = 0
    for block in _orbits(n):
        pos = {w: k for k, w in enumerate(block)}
        columns = []
        for w in block:
            images, signs = [w], [1]
            col = {pos[w]: Fraction(1)}
            for parent, i in order[1:]:
                u = images[parent]
                v = u[:i] + (_rack(u[i], u[i + 1]), u[i]) + u[i + 2:]
                images.append(v)
                signs.append(-signs[parent])
                col[pos[v]] = col.get(pos[v], 0) + signs[-1]
            columns.append(col)
        total += _rank_qq(columns, len(block))
    return total


def _coproduct_images(w, a):
    """Delta_{a, n-a}(w) by the multiplicative rule: the letters sent to the
    left factor cross the letters sent right before them; crossing x over r
    (r left of x) gives -(r |> x) (x) r, so right letters stay unchanged."""
    n = len(w)
    out = {}
    for subset in itertools.combinations(range(n), a):
        chosen = set(subset)
        left, right, sign = [], [], 1
        for p in range(n):
            x = w[p]
            if p in chosen:
                for r in reversed(right):
                    x = _rack(r, x)
                    sign = -sign
                left.append(x)
            else:
                right.append(w[p])
        tgt = tuple(left) + tuple(right)
        out[tgt] = out.get(tgt, 0) + sign
    return out


def rack_primitive_dim(n):
    """dim of the intersection of ker Delta_{a, n-a}, a = 1..n-1."""
    total = 0
    for block in _orbits(n):
        pos = {w: k for k, w in enumerate(block)}
        columns = []
        for w in block:
            col = {}
            for a in range(1, n):
                for tgt, s in _coproduct_images(w, a).items():
                    if s:
                        col[(a - 1) * len(block) + pos[tgt]] = Fraction(s)
            columns.append(col)
        total += len(block) - _rank_qq(columns, (n - 1) * len(block))
    return total


def rack_references():
    return {
        "nichols_dims": [rack_nichols_dim(n) for n in range(7)],
        # degree 4 is the open criterion-3 question and is left out on purpose
        "primitive_dims": {str(n): rack_primitive_dim(n) for n in (2, 3)},
    }


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=["rack"])
    parser.add_argument("--write", action="store_true",
                        help="rewrite references.json with the new values")
    opts = parser.parse_args(argv)
    values = rack_references()
    print(json.dumps(values))
    if opts.write:
        doc = {"command": "python3 perfbench/oracle.py rack --write",
               "d4_rack": values}
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return 0
    stored = load_references()["d4_rack"]
    if stored != values:
        print("references.json differs: %s" % json.dumps(stored), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
