"""Seeded inputs for the four workloads (parent side; imports no braidcalc).

The seed only relabels a basis or picks among parameters whose expected
answers are known, so every seed has the same references and about the
same cost.  `size="tiny"` shrinks every degree for the smoke tests.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction


def rack_matrix(perm):
    """d4_rack, c(x_i (x) x_j) = -x_{2i-j mod 4} (x) x_i, with the rack
    elements relabelled by perm; a 16 x 16 matrix, columns = input pairs."""
    matrix = [[0] * 16 for _ in range(16)]
    for i in range(4):
        for j in range(4):
            a, b = perm[(2 * i - j) % 4], perm[i]
            matrix[a * 4 + b][perm[i] * 4 + perm[j]] = -1
    return matrix


def rack_tower(rng, size):
    perm = rng.sample(range(4), 4)
    # the quartic relations that make sdeg = 2 appear at cutoff 4; Nichols
    # dimensions run two degrees further, to the oracle's degrees 5 and 6
    top = 4
    return {"perm": perm, "matrix": rack_matrix(perm),
            "primitives": list(range(2, top + 1)),
            "nichols": {"full": 6, "tiny": 5}[size], "quadratic": top,
            "sdeg": top}


def cyclo_tower(rng, size):
    """cartan_An, n = 2, at a primitive cube root q = z^e; the seed picks e
    and the order of the two generators."""
    e = rng.choice((1, 2))
    swap = rng.random() < 0.5
    qexp = [[e, (-e) % 3], [0, e]]          # q_ii = q, q_12 = q^-1, q_21 = 1
    if swap:
        qexp = [[qexp[1][1], qexp[1][0]], [qexp[0][1], qexp[0][0]]]
    # sdeg reaches 2 at cutoff 6 (cutoff 9 is the first certified one)
    top = 6
    return {"m": 3, "qexp": qexp, "zeta_exp": e, "swap": swap,
            "nichols": {"full": 8, "tiny": 7}[size], "tower": top, "sdeg": top,
            "arity": 3}


SL2 = [(0, 1, {1: 2}), (0, 2, {2: -2}), (1, 2, {0: 1})]  # h = x0, e = x1, f = x2


def relabel_structure(consts, perm):
    """Structure constants [x_i, x_j] = sum_k c_k x_k after x_a -> x_perm[a]."""
    out = []
    for i, j, image in consts:
        pi, pj = perm[i], perm[j]
        sign = 1 if pi < pj else -1
        out.append([min(pi, pj), max(pi, pj),
                    {str(perm[k]): str(sign * Fraction(v)) for k, v in image.items()}])
    return sorted(out)


def enveloping(rng, size):
    perm = rng.sample(range(3), 3)
    cutoff, slack, arity = {"full": (4, 1, 4), "tiny": (3, 1, 2)}[size]
    root = rng.choice((1, 3))   # q = z or z^3, the primitive 4th roots
    return {"perm": perm, "sl2": relabel_structure(SL2, perm),
            "root_exp": root, "cutoff": cutoff, "slack": slack,
            "scalar_arity": arity,
            # Pi and the identities at arity n need a primitive n-th root
            "zeta_exp": root if arity == 4 else 2}


# -- cli-cache --------------------------------------------------------------


def root_group_order(m):
    """All roots of unity in Q(zeta_m): the cyclic group of order lcm(2, m)."""
    return m if m % 2 == 0 else 2 * m


def root_text(m, e):
    """omega^e in job syntax, omega a primitive lcm(2, m)-th root of unity."""
    if m % 2 == 0:
        k, sign = e % m, ""
    else:  # omega = -z^((m+1)/2)
        k, sign = (e * (m + 1) // 2) % m, "-" if e % 2 else ""
    return sign + ("1" if k == 0 else "z" if k == 1 else "z^%d" % k)


def _diagonal_job(rng, m, d, top):
    M = root_group_order(m)
    exps = [[rng.randrange(M) for _ in range(d)] for _ in range(d)]
    rows = ", ".join("[%s]" % ", ".join(root_text(m, e) for e in row)
                     for row in exps)
    text = ("[field]\nm = %d\n\n[space]\nkind = diagonal\nq = [%s]\n\n"
            "[tasks]\nybe\ne_spaces = 2..2\nnichols = %d\nnichols_tower = %d\n"
            "sdeg = %d\n" % (m, rows, top, top, top))
    pairs = [[a, b, b, a, {e: 1}] for a, row in enumerate(exps)
             for b, e in enumerate(row)]
    return text, {"kind": "diagonal", "M": M, "d": d, "exps": exps,
                  "pairs": pairs}


def cli_jobs(rng, size):
    """(file name, job text, oracle data) for the generated mix."""
    top = {"full": 5, "tiny": 3}[size]
    jobs = []
    for m, d in ((1, 3), (2, 3), (3, 2), (4, 2), (6, 2)):
        text, data = _diagonal_job(rng, m, d, top if d == 2 else min(top, 4))
        jobs.append(("diagonal_m%d.job" % m, text, data))
    e = rng.choice((1, 2, 3))
    jobs.append(("scalar.job",
                 "[field]\nm = 4\n\n[space]\nkind = scalar\nd = 2\nq = %s\n\n"
                 "[tasks]\nnichols = %d\nnichols_tower = %d\nsdeg = %d\n"
                 % (root_text(4, e), top, top, top),
                 {"kind": "scalar", "M": 4, "d": 2,
                  "pairs": [[a, b, a, b, {e: 1}] for a in range(2)
                            for b in range(2)]}))
    t4 = min(top, 4)
    jobs.append(("flip.job",
                 "[field]\nm = 1\n\n[space]\nkind = flip\nd = 3\n\n[tasks]\n"
                 "e_spaces = 2..2\nnichols = %d\nnichols_tower = %d\n"
                 "quadratic = %d\nsdeg = %d\n" % (t4, t4, t4, t4),
                 {"kind": "diagonal", "M": 2, "d": 3,
                  "exps": [[0] * 3 for _ in range(3)],
                  "pairs": [[a, b, b, a, {0: 1}] for a in range(3)
                            for b in range(3)]}))
    q = rng.choice(("2", "3", "1/2", "1/3", "5"))
    hecke = []
    for i in range(2):
        hecke.append([i, i, i, i, {0: q}])
        for j in range(i + 1, 2):
            hecke.append([i, j, j, i, {0: q}])
            hecke.append([j, i, i, j, {0: 1}])
            hecke.append([j, i, j, i, {0: str(Fraction(q) - 1)}])
    jobs.append(("hecke_gl.job",
                 "[field]\nm = 1\n\n[space]\nkind = preset\nname = hecke_gl\n"
                 "d = 2\nq = %s\n\n[tasks]\nhecke\nnichols = %d\n"
                 "nichols_tower = %d\nsdeg = %d\n" % (q, t4, t4, t4),
                 {"kind": "hecke", "M": 2, "d": 2, "pairs": hecke}))
    tw = [[1, 0], [1, 1]]  # exponents of -1: [[-1, 1], [-1, -1]]
    jobs.append(("twodim_sdeg2.job",
                 "[field]\nm = 1\n\n[space]\nkind = preset\nname = twodim_sdeg2\n"
                 "\n[tasks]\ne_spaces = 2..3\nnichols = %d\nnichols_tower = %d\n"
                 "sdeg = %d\n" % (top, top, top),
                 {"kind": "diagonal", "M": 2, "d": 2, "exps": tw,
                  "pairs": [[a, b, b, a, {tw[a][b]: 1}] for a in range(2)
                            for b in range(2)]}))
    cut = {"full": "3, 1", "tiny": "2, 1"}[size]
    jobs.append(("gurevich_bracket.job",
                 "[field]\nm = 1\n\n[space]\nkind = preset\nname = gurevich\n\n"
                 "[bracket]\npreset = gurevich\n\n[tasks]\nbracket\n"
                 "e_spaces = 2..2\nlie_check = %s\npbw = %s\npl_verify = 2\n"
                 % (cut, cut), {"kind": "bracket"}))
    return jobs


def cli_cache(rng, size, workdir):
    jobs = cli_jobs(rng, size)
    job_dir = os.path.join(workdir, "jobs")
    os.makedirs(job_dir, exist_ok=True)
    paths, oracle = [], {}
    for name, text, data in jobs:
        path = os.path.join(job_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
        oracle[name] = data
    return {"job_paths": paths, "oracle": oracle}


def make_inputs(workload, seed, size, workdir):
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "rack-tower":
        return rack_tower(rng, size)
    if workload == "cyclo-tower":
        return cyclo_tower(rng, size)
    if workload == "enveloping":
        return enveloping(rng, size)
    if workload == "cli-cache":
        return cli_cache(rng, size, workdir)
    raise ValueError("unknown workload %r" % workload)
