"""Child-process side of the workloads: set-up and one round of operations.

Each function here runs inside a fresh worker process, after `src/` has
been put on the import path.  Set-up builds fields, spaces and brackets
(and, for cli-cache, runs the cold pass that fills the cache); a round is
the timed list of operations.  An operation is one library call or one CLI
job run.  Results are reduced to plain JSON values for the parent to check.
"""

from __future__ import annotations

import io
import os
import sys
from fractions import Fraction


def _sdeg(space, cutoff):
    from braidcalc import sdeg

    v = sdeg(space, cutoff)
    return {"value": v.value, "status": v.status,
            "final_dims": v.tower_trace[-1]["dims"]}


# ---------------------------------------------------------------------------
# rack-tower
# ---------------------------------------------------------------------------


def rack_setup(inp):
    from braidcalc import field_make, make_braiding

    field = field_make(1)
    space = make_braiding("explicit", {"d": 4, "matrix": inp["matrix"]}, field,
                          degree_budget=max(inp["nichols"], inp["sdeg"]))
    return {"space": space}


def rack_ops(inp, state):
    from braidcalc import is_quadratic, nichols_dims, primitive_space

    space = state["space"]
    ops = [("primitive_space_%d" % n, lambda n=n: primitive_space(space, n).dim)
           for n in inp["primitives"]]
    return ops + [
        ("nichols_dims", lambda: nichols_dims(space, inp["nichols"])),
        ("is_quadratic", lambda: is_quadratic(space, inp["quadratic"])),
        ("sdeg", lambda: _sdeg(space, inp["sdeg"])),
    ]


# ---------------------------------------------------------------------------
# cyclo-tower
# ---------------------------------------------------------------------------


def cyclo_setup(inp):
    from braidcalc import field_make, make_braiding

    field = field_make(inp["m"])
    z = field.gen
    qmat = [[z ** k for k in row] for row in inp["qexp"]]
    space = make_braiding("diagonal", {"q": qmat}, field,
                          degree_budget=inp["nichols"])
    return {"space": space, "zeta": z ** inp["zeta_exp"]}


def cyclo_ops(inp, state):
    from braidcalc import (check_pi_in_E, check_pi_su, nichols_dims,
                           nichols_via_tower, zeta_space)

    space, zeta, n = state["space"], state["zeta"], inp["arity"]
    return [
        ("nichols_dims", lambda: nichols_dims(space, inp["nichols"])),
        ("nichols_via_tower", lambda: nichols_via_tower(space, inp["tower"])),
        ("sdeg", lambda: _sdeg(space, inp["sdeg"])),
        ("zeta_space", lambda: zeta_space(space, n, zeta).dim),
        ("check_pi_in_E", lambda: check_pi_in_E(space, n, zeta)),
        ("check_pi_su", lambda: check_pi_su(space, n)),
    ]


# ---------------------------------------------------------------------------
# enveloping
# ---------------------------------------------------------------------------


def _lie_table(space, structure):
    """Bracket values on the canonical E_2 rows from structure constants:
    b(u) = 1/2 sum_ij u_ij [x_i, x_j] for antisymmetric u."""
    from braidcalc import BracketTable, primitive_space

    field = space.field
    d = space.dim
    consts = {}
    for i, j, image in structure:
        vec = {int(k): field.from_rational(Fraction(v)) for k, v in image.items()}
        consts[(i, j)] = vec
        consts[(j, i)] = {k: -v for k, v in vec.items()}
    half = field.from_rational(Fraction(1, 2))
    values = []
    for row in primitive_space(space, 2).rows:
        acc = {}
        for w, coeff in row.items():
            for k, v in consts.get(divmod(w, d), {}).items():
                acc[k] = acc.get(k, field.zero) + half * coeff * v
        values.append({k: v for k, v in acc.items() if not v.is_zero()})
    return BracketTable(space, {2: values})


def enveloping_setup(inp):
    from braidcalc import (BracketTable, field_make, make_braiding, make_preset,
                           preset_bracket, validate_bracket)

    q1 = field_make(1)
    gurevich = make_preset("gurevich", q1)
    flip = make_braiding("flip", {"d": 3}, q1)
    f4 = field_make(4)
    scalar = make_braiding("scalar", {"d": 2, "q": f4.gen ** inp["root_exp"]}, f4)
    return {
        "brackets": {
            "gurevich": preset_bracket(gurevich, "gurevich"),
            "sl2_flip": validate_bracket(flip, _lie_table(flip, inp["sl2"])),
        },
        "scalar": scalar,
        "scalar_zero": BracketTable.zero(scalar, inp["scalar_arity"]),
        "zeta": f4.gen ** inp["zeta_exp"],
    }


def enveloping_ops(inp, state):
    from braidcalc import (check_pi_in_E, check_pi_su, enveloping_filtration,
                           lie_check, pbw_check, primitive_check,
                           validate_bracket, verify_PL)

    cutoff, slack = inp["cutoff"], inp["slack"]
    ops = []
    for name in ("gurevich", "sl2_flip"):
        table = state["brackets"][name]
        space = table.space
        fq_box = {}

        def filtration(table=table, box=fq_box):
            box["fq"] = enveloping_filtration(table, cutoff, slack)
            return box["fq"].dims_U

        def pbw(table=table, box=fq_box):
            v = pbw_check(table, cutoff, slack, filtration=box["fq"])
            return {"status": v.status, "gr_dims": v.gr_dims, "s_dims": v.s_dims}

        minus_one = space.field.root_of_unity(2)
        ops += [
            (name + ".validate_bracket",
             lambda space=space, table=table:
                 validate_bracket(space, table).validated),
            (name + ".enveloping_filtration", filtration),
            (name + ".lie_check",
             lambda table=table, box=fq_box:
                 lie_check(table, cutoff, slack, filtration=box["fq"]).status),
            (name + ".pbw_check", pbw),
            (name + ".primitive_check",
             lambda table=table, box=fq_box:
                 primitive_check(table, cutoff, slack, filtration=box["fq"])),
            (name + ".verify_PL", lambda table=table: verify_PL(table, 2)),
            (name + ".check_pi_in_E",
             lambda space=space, z=minus_one: check_pi_in_E(space, 2, z)),
        ]
    scalar, zero, zeta = state["scalar"], state["scalar_zero"], state["zeta"]
    n = inp["scalar_arity"]
    ops += [
        ("scalar.verify_PL", lambda: verify_PL(zero, n, zeta)),
        ("scalar.check_pi_in_E", lambda: check_pi_in_E(scalar, n, zeta)),
        ("scalar.check_pi_su", lambda: check_pi_su(scalar, n)),
    ]
    return ops


# ---------------------------------------------------------------------------
# cli-cache
# ---------------------------------------------------------------------------


def _run_cli(main, argv):
    """braidcalc.cli.main in-process; returns (exit code, report text)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    return code, out.buffer.getvalue().decode()


def cli_setup(inp):
    from braidcalc.cli import main

    cache = inp["cache_dir"]
    cold = [_run_cli(main, ["--input", path, "--cache-dir", cache,
                            "--jobs", "1"])
            for path in inp["job_paths"]]
    return {"main": main, "cold": cold}


def cli_ops(inp, state):
    main, cache = state["main"], inp["cache_dir"]

    def job(path):
        code, text = _run_cli(main, ["--input", path, "--cache-dir", cache,
                                     "--jobs", "1"])
        if code:
            raise RuntimeError("exit code %d" % code)
        return code, text
    return [(os.path.basename(path), lambda path=path: job(path))
            for path in inp["job_paths"]]


WORKLOADS = {
    "rack-tower": (rack_setup, rack_ops),
    "cyclo-tower": (cyclo_setup, cyclo_ops),
    "enveloping": (enveloping_setup, enveloping_ops),
    "cli-cache": (cli_setup, cli_ops),
}
