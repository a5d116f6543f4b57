"""References and correctness checks, run in the parent process.

References come from the paper, from theorems, from `oracle.py` (computed
outside braidcalc) or from properties the method must have; none is a
copy of a braidcalc output.  Each check returns a list of problems, empty
when the outputs are right.  Values of operations that failed are absent
from the results and are not checked; the failure is counted instead.
"""

from __future__ import annotations

import json
import os
from math import comb

import oracle

# The paper's values for the dihedral rack (d4_rack, constant cocycle -1)
PAPER_RACK = {"sdeg": 2, "nichols_upto_4": [1, 4, 8, 12, 14], "e2_dim": 8,
              "quadratic": False}


def cartan_a2_dims(top):
    """Coefficients of (1+t+t^2)^2 (1+t^2+t^4): the PBW basis of type A2 at
    a primitive cube root of unity (root vectors of height 1 twice, of
    height 2 once, each nilpotent of order 3); total dimension 27."""
    poly = [1]
    for factor in ([1, 1, 1], [1, 1, 1], [1, 0, 1, 0, 1]):
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return (poly + [0] * (top + 1))[:top + 1]


def references(workload, inp):
    if workload == "rack-tower":
        refs = dict(oracle.load_references()["d4_rack"])
        refs.update(PAPER_RACK)
        return refs
    if workload == "cyclo-tower":
        return {"dims": cartan_a2_dims(inp["nichols"]), "sdeg": 2}
    if workload == "enveloping":
        return {"sl2_gr_dims": [comb(n + 2, 2) for n in range(inp["cutoff"] + 1)]}
    if workload == "cli-cache":
        refs = {}
        for name, data in inp["oracle"].items():
            if data["kind"] == "bracket":
                continue
            entry = {"symmetrizer_ranks": oracle.symmetrizer_ranks(
                data["pairs"], data["d"], data["M"], 4)}
            if data["kind"] == "diagonal":
                M, e = data["M"], data["exps"]
                d = len(e)
                entry["e2_dim"] = (
                    sum(1 for i in range(d) if e[i][i] % M == M // 2)
                    + sum(1 for i in range(d) for j in range(i + 1, d)
                          if (e[i][j] + e[j][i]) % M == 0))
            refs[name] = entry
        return refs
    raise ValueError(workload)


def _expect(problems, label, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (label, got, want))


def check_rack(inp, refs, res):
    p = []
    for n in inp["primitives"]:
        key = "primitive_space_%d" % n
        if key not in res:
            continue
        if n == 2:
            _expect(p, "dim E_2 (paper)", res[key], refs["e2_dim"])
        elif str(n) in refs["primitive_dims"]:
            _expect(p, "dim E_%d (oracle)" % n, res[key], refs["primitive_dims"][str(n)])
        # dim E_4 is the open criterion-3 question: deliberately unchecked
    if "nichols_dims" in res:
        dims = res["nichols_dims"]
        _expect(p, "Nichols dims up to 4 (paper)", dims[:5],
                refs["nichols_upto_4"][:len(dims[:5])])
        _expect(p, "Nichols dims (oracle)", dims,
                refs["nichols_dims"][:len(dims)])
    if "is_quadratic" in res:
        _expect(p, "is_quadratic (paper)", res["is_quadratic"], refs["quadratic"])
    if "sdeg" in res:
        _expect(p, "sdeg (paper)", res["sdeg"]["value"], refs["sdeg"])
        final = res["sdeg"]["final_dims"]
        if "nichols_dims" in res:
            _expect(p, "final tower iterate vs Nichols dims", final,
                    res["nichols_dims"][:len(final)])
    return p


def check_cyclo(inp, refs, res):
    p = []
    dims = refs["dims"]
    if "nichols_dims" in res:
        _expect(p, "Nichols dims (PBW type A2)", res["nichols_dims"], dims)
    if "nichols_via_tower" in res:
        _expect(p, "tower dims (PBW type A2)", res["nichols_via_tower"],
                dims[:inp["tower"] + 1])
    if "sdeg" in res:
        _expect(p, "sdeg", res["sdeg"]["value"], refs["sdeg"])
        _expect(p, "final tower iterate", res["sdeg"]["final_dims"],
                dims[:inp["sdeg"] + 1])
    if "check_pi_in_E" in res:
        _expect(p, "Im Pi in E_%d (theorem)" % inp["arity"], res["check_pi_in_E"], True)
    return p


def check_enveloping(inp, refs, res):
    p = []
    for name in ("gurevich", "sl2_flip"):
        for key, want in (("validate_bracket", True), ("lie_check", "is_lie_up_to"),
                          ("check_pi_in_E", True)):
            if name + "." + key in res:
                _expect(p, name + "." + key, res[name + "." + key], want)
        pl = res.get(name + ".verify_PL")
        if pl is not None:
            _expect(p, name + ".verify_PL (theorem)", pl,
                    {"pl1": True, "pl2": True, "pl3": True})
    pbw = res.get("sl2_flip.pbw_check")
    if pbw is not None:
        _expect(p, "U(sl2) gr dims (classical PBW)", pbw["gr_dims"], refs["sl2_gr_dims"])
    pbw = res.get("gurevich.pbw_check")
    if pbw is not None:
        _expect(p, "gurevich pbw status", pbw["status"], "pbw_consistent")
        _expect(p, "gurevich gr dims vs s dims", pbw["gr_dims"], pbw["s_dims"])
    if "scalar.verify_PL" in res:
        _expect(p, "scalar verify_PL (theorem)", res["scalar.verify_PL"],
                {"pl1": True, "pl2": True, "pl3": True})
    if "scalar.check_pi_in_E" in res:
        _expect(p, "scalar Im Pi in E (theorem)", res["scalar.check_pi_in_E"], True)
    return p


def _cached_true(report_text):
    report = json.loads(report_text)
    for task in report["tasks"]:
        if "cached" in task:
            task["cached"] = True
    return report


def check_cli_reports(inp, refs, cold, warm):
    """cold: [(exit code, report)] from the cold pass; warm: {job: (code, report)}."""
    p = []
    for path, (code, text) in zip(inp["job_paths"], cold):
        name = os.path.basename(path)
        if code != 0:
            continue  # counted as a failed operation
        report = json.loads(text)
        for task in report["tasks"]:
            if task.get("status") != "ok":
                p.append("%s: task %s is %s" % (name, task["name"], task.get("status")))
        results = {t["name"]: t.get("result") for t in report["tasks"]}
        nich, tower = results.get("nichols"), results.get("nichols_tower")
        if nich and tower:
            _expect(p, name + " nichols vs nichols_tower", nich["dims"], tower["dims"])
        ref = refs.get(name)
        if ref and nich:
            ranks = ref["symmetrizer_ranks"]
            upto = min(len(nich["dims"]), len(ranks))
            _expect(p, name + " Nichols dims vs direct symmetrizer",
                    nich["dims"][:upto], ranks[:upto])
        if ref and "e2_dim" in ref and results.get("e_spaces"):
            _expect(p, name + " dim E_2 (diagonal formula)",
                    results["e_spaces"]["primitives"]["2"]["dim"], ref["e2_dim"])
        got = warm.get(name)
        if got is not None and got[0] == 0:
            if _cached_true(text) != json.loads(got[1]):
                p.append("%s: warm report differs from the cold one beyond "
                         "the cached flags" % name)
            for task in json.loads(got[1])["tasks"]:
                if task.get("cached") is not True:
                    p.append("%s: warm task %s not served from the cache"
                             % (name, task["name"]))
    return p


def check(workload, inp, refs, child):
    """Problems in one worker's results."""
    res = child.get("results") or {}
    if workload == "rack-tower":
        p = check_rack(inp, refs, res)
    elif workload == "cyclo-tower":
        p = check_cyclo(inp, refs, res)
    elif workload == "enveloping":
        p = check_enveloping(inp, refs, res)
    else:
        p = check_cli_reports(inp, refs, child.get("setup_result") or [], res)
    if child.get("unstable_rounds"):
        p.append("%d rounds gave other results than the first"
                 % child["unstable_rounds"])
    return p
