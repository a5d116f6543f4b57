"""Declarative job input, orchestration, result cache and report emission.

A job file is line-oriented with [field], [space], [bracket] and [tasks]
sections.  Scalars are written as sums of terms `a/b * z^k` where z is the
generator of the configured cyclotomic field.  Reports are deterministic:
identical job + tool version give byte-identical output, so timings are
logged to stderr rather than embedded.  A cached and a fresh run agree in
every task result and differ only in each task's "cached" flag.

Exit codes: 0 when every requested task ran (mathematical negative verdicts
are results, not errors), 1 for parse or validation problems, 2 when a
theorem-guaranteed internal invariant broke.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .enveloping import (BracketTable, enveloping_filtration, hecke_presentation, lie_check,
                         pbw_check, primitive_check, validate_bracket)
from .errors import (BadParams, DegreeBudgetExceeded, DomainMismatch, InternalCheckError,
                     NotABracket, ParseError, RootOrderMismatch, SingularBraiding, ValidationError,
                     WorkbenchError, YBENotSatisfied)
from .fixtures import preset_bracket
from .pareigis import check_pi_in_E, check_pi_su, verify_PL, zeta_space
from .scalars import CycloField, CycloScalar, field_make
from .spaces import KINDS, make_braiding, param_problems, word_name
from .tensorbialg import nichols_dims, primitive_space
from .tower import is_quadratic, nichols_via_tower, sdeg

MAX_DEGREE = 12
MAX_DIM = 16          # generators of a declared space
MAX_WORDS = 1 << 16   # d^n, the words of the top degree a task or bracket reaches

# -- scalar and value parsing -------------------------------------------------

_TERM = re.compile(
    r"^\s*(?P<num>\d+)?(?:\s*/\s*(?P<den>\d+))?\s*(?:(?(num)\*\s*)?"
    r"(?P<z>z)(?:\^(?P<pow>\d+))?)?\s*$"
)


def _int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:  # past Python's limit on the digits of an int string
        raise ParseError(line, "numeral longer than %d digits"
                         % sys.get_int_max_str_digits())


def parse_scalar(field: CycloField, text: str, line: int = 0):
    text = text.strip()
    if not text:
        raise ParseError(line, "empty scalar")
    # signed terms at top level (no parentheses in the grammar); the first
    # term's sign may be left out
    parts = re.split(r"\s*([+-])\s*", text if text[0] in "+-" else "+" + text)[1:]
    if not all(parts[1::2]):
        raise ParseError(line, "dangling sign in scalar %r" % text)
    total = field.zero
    for sign, chunk in zip(parts[::2], parts[1::2]):
        m = _TERM.match(chunk)
        if not m or (m.group("num") is None and m.group("z") is None):
            raise ParseError(line, "bad scalar term %r" % chunk)
        num = _int(m.group("num"), line) if m.group("num") else 1
        den = _int(m.group("den"), line) if m.group("den") else 1
        if den == 0:
            raise ParseError(line, "zero denominator in %r" % chunk)
        coeff = field.from_fraction(-num if sign == "-" else num, den)
        if m.group("z"):
            power = _int(m.group("pow"), line) if m.group("pow") else 1
            coeff = coeff * field.gen ** power
        total = total + coeff
    return total


def _split_top(text: str, line: int):
    """Split a bracketed list body on top-level commas."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(line, "unbalanced ']'")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise ParseError(line, "unbalanced '['")
    last = text[start:]
    if last.strip() or parts:
        parts.append(last)
    return parts


def parse_value(field: CycloField, text: str, line: int):
    """ints, ranges a..b, nested lists, scalar expressions, bare words."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(line, "list does not end with ']'")
        return [parse_value(field, p, line) for p in _split_top(text[1:-1], line)]
    if re.fullmatch(r"-?\d+\s*\.\.\s*-?\d+", text):
        lo, hi = re.split(r"\.\.", text)
        return ("range", _int(lo, line), _int(hi, line))
    if re.fullmatch(r"-?\d+", text):
        return _int(text, line)
    if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9:]*", text) and \
            not re.fullmatch(r"z(\^\d+)?", text):
        return text
    return parse_scalar(field, text, line)


class JobSpec(NamedTuple):
    field_order: int
    space_decl: dict  # {"kind": ..., "params": {...}}
    brackets: list  # list of {"degree": n, "values": rows} | {"preset": name}
    tasks: list  # list of (name, args tuple)
    degree_budget: int = None
    # the lines that errors building the space and each bracket name, and
    # the space's generator count, read without building
    kind_line: int = None
    bracket_lines: tuple = ()
    dim: int = None

    def echo(self):
        return {
            "field_order": self.field_order,
            "space": _jsonable(self.space_decl),
            "brackets": _jsonable(self.brackets),
            "tasks": [
                {"name": name, "args": _jsonable(args)}
                for name, args in self.tasks
            ],
            "degree_budget": self.degree_budget,
        }


def _jsonable(value):
    if isinstance(value, CycloScalar):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__int__") and not isinstance(value, (bool, int)):
        # exact rationals print as n or n/d
        return str(value)
    return value


# what each [bracket] key holds: (test, what a value must be)
_BRACKET_KEYS = {
    "preset": (lambda value: isinstance(value, str), "a name"),
    "degree": (lambda value: isinstance(value, int) and
               2 <= value <= MAX_DEGREE, "an integer from 2 to %d" % MAX_DEGREE),
    "values": (lambda value: isinstance(value, list) and all(
        isinstance(row, list) and
        all(isinstance(c, (int, CycloScalar)) for c in row) for row in value),
        "a list of rows of scalars"),
}


def parse_spec(text: str) -> JobSpec:
    """Parse the documented job grammar into a validated JobSpec.  One pass
    over the lines sorts them into sections; then the field is built and
    each section is checked against its table: m for [field], kind, name,
    budget and the KINDS entry named for [space], _BRACKET_KEYS for
    [bracket] and TASKS for [tasks]."""
    sections = {}  # header -> (its line, {key: (value text, line)} or task lines)
    brackets = []  # the sections[...] value of each [bracket]
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            section = stripped.lower()
            if section not in ("[field]", "[space]", "[bracket]", "[tasks]"):
                raise ParseError(lineno, "unknown section %s" % stripped)
            if section in sections and section != "[bracket]":
                raise ParseError(lineno, "second %s section" % section)
            sections[section] = (lineno, [] if section == "[tasks]" else {})
            if section == "[bracket]":
                brackets.append(sections[section])
            continue
        if section is None:
            raise ParseError(lineno, "content outside any section")
        table = sections[section][1]
        if section == "[tasks]":
            table.append((lineno, stripped))
            continue
        key, eq, val = stripped.partition("=")
        key = key.strip()
        if not eq:
            raise ParseError(lineno, "expected key = value")
        if key in table:
            raise ParseError(lineno, "%s is already set on line %d"
                             % (key, table[key][1]))
        table[key] = (val, lineno)

    field_header, field_keys = sections.get("[field]", (0, {}))
    for key, (_, line) in field_keys.items():
        if key != "m":
            raise ValidationError("[field] takes only m = <order>", line=line)
    if "m" not in field_keys:
        raise ParseError(field_header, "missing [field] section with m = <order>")
    text_m, field_line = field_keys["m"]
    if not re.fullmatch(r"\s*\d+\s*", text_m) or _int(text_m, field_line) < 1:
        raise ParseError(field_line, "field order must be an integer >= 1")
    field_order = int(text_m)
    try:
        field = field_make(field_order)
    except BadParams as exc:
        raise ValidationError(str(exc), line=field_line)

    space_header, space = sections.get("[space]", (0, {}))
    if "kind" not in space:
        raise ParseError(space_header, "missing [space] section with kind = ...")
    params = {key: parse_value(field, val, line)
              for key, (val, line) in space.items()}
    kind, kind_line = params.pop("kind"), space["kind"][1]
    degree_budget = params.pop("budget", None)
    if degree_budget is not None and (not isinstance(degree_budget, int) or
                                      not 1 <= degree_budget <= MAX_DEGREE):
        raise ValidationError("budget must be an integer from 1 to the global "
                              "limit %d" % MAX_DEGREE, line=space["budget"][1])
    given = dict(params)
    label = "name" if kind == "preset" else "kind"
    if label not in space:
        raise ValidationError("kind = preset needs name = ...", line=kind_line)
    entry_key = "preset:%s" % given.pop("name") if label == "name" else kind
    if not isinstance(kind, str) or ":" in kind or entry_key not in KINDS:
        raise ValidationError("%s = %s names no space kind or preset" % (
            label, space[label][0].strip()), line=space[label][1])
    for key, problem in param_problems(entry_key, given):
        raise ValidationError(problem, line=space[key][1] if key else kind_line)
    entry = KINDS[entry_key]
    dim = entry.dim(entry.complete(given))
    if dim > MAX_DIM:  # reported where the dimension is read: see Kind
        raise ValidationError("dimension %d exceeds the global limit %d" % (
            dim, MAX_DIM), line=space.get(next(iter(entry.params), "kind"),
                                          space["kind"])[1])

    bracket_decls, bracket_lines = [], []
    degrees = []  # (top tensor degree, line) of each bracket and task
    for header, bkeys in brackets:
        decl = {}
        for key, (val, line) in bkeys.items():
            if key not in _BRACKET_KEYS:
                raise ValidationError("[bracket] takes no key %s" % key, line=line)
            decl[key] = parse_value(field, val, line)
            holds, shape = _BRACKET_KEYS[key]
            if not holds(decl[key]):
                raise ParseError(line, "bracket %s must be %s" % (key, shape))
        if set(decl) not in ({"preset"}, {"degree", "values"}):
            raise ParseError(header, "[bracket] needs preset = name alone, or "
                             "degree = n with values = [...]")
        if "degree" in decl:
            degrees.append((decl["degree"], bkeys["degree"][1]))
        bracket_decls.append(decl)
        bracket_lines.append(bkeys["preset" if "preset" in decl else "values"][1])

    tasks = []
    for lineno, stripped in sections.get("[tasks]", (0, []))[1]:
        name, eq, val = stripped.partition("=")
        name = name.strip()
        args = tuple(parse_value(field, part, lineno)
                     for part in val.split(",")) if eq else ()
        if name not in TASKS:
            raise ParseError(lineno, "unknown task %r" % name)
        degrees.append((_check_task_args(name, args, field, lineno), lineno))
        tasks.append((name, args))
    for degree, lineno in degrees:
        if dim ** degree > MAX_WORDS:
            raise ValidationError(
                "degree %d on %d generators exceeds the global limit of %d "
                "words" % (degree, dim, MAX_WORDS), line=lineno)

    return JobSpec(field_order, {"kind": kind, "params": params}, bracket_decls,
                   tasks, degree_budget, kind_line, bracket_lines, dim)


def _task_values(task, args: tuple) -> list:
    """The arguments of a task line, a leading range lo..hi read as lo, hi."""
    values = list(args)
    if task.ranged and args and isinstance(args[0], tuple):
        values[:1] = args[0][1:]
    return values


def _check_task_args(name: str, args: tuple, field: CycloField, line: int):
    """A task takes at most as many arguments as it has defaults, each an
    integer in 0..MAX_DEGREE (negative only at a signed position), and its
    own rules must hold.  Returns the top tensor degree the task works in."""
    task = TASKS[name]
    values = _task_values(task, args)
    if len(values) > len(task.defaults):
        raise ValidationError("task %s takes at most %d arguments, not %d" % (
            name, len(task.defaults), len(values)), line=line)
    for pos, a in enumerate(values, start=1):
        signed = pos in task.signed
        if not isinstance(a, int) or (a < 0 and not signed):
            raise ValidationError("task %s: argument %d must be %s integer" % (
                name, pos, "an" if signed else "a non-negative"), line=line)
        if a > MAX_DEGREE:
            raise ValidationError("degree argument %d exceeds the global limit %d"
                                  % (a, MAX_DEGREE), line=line)
    given = values + list(task.defaults[len(values):])
    problem = task.check and task.check(field, *given)
    if problem:
        raise ValidationError("task %s: %s" % (name, problem), line=line)
    return task.reach(*given)


def _range_rule(field, lo, hi):
    """A range lo..hi (or lo, hi) must not be inverted."""
    if hi is not None and lo > hi:
        return "range %d..%d is empty" % (lo, hi)


def _arity_rule(field, n, exponent=1):
    """The arity is at least 2, its primitive roots live in the field, and
    from arity 3 on the root exponent is coprime to it."""
    if n < 2:
        return "needs an arity >= 2"
    if n > 2 and field.order % n:
        return "arity %d needs %d | m (m = %d): no primitive root available" \
            % (n, n, field.order)
    if n > 2 and math.gcd(exponent, n) != 1:
        return "root exponent %d is not coprime to the arity %d" % (exponent, n)


# -- task execution -----------------------------------------------------------

class _JobContext:
    def __init__(self, job: JobSpec, degree_override=None):
        self.field = field_make(job.field_order)
        budget = job.degree_budget or 8
        if degree_override:
            budget = max(budget, degree_override)
        self.degree_override = degree_override
        try:
            self.space = make_braiding(
                job.space_decl["kind"], job.space_decl["params"], self.field,
                degree_budget=budget)
        except (BadParams, RootOrderMismatch, SingularBraiding,
                YBENotSatisfied) as exc:
            raise ValidationError(str(exc), line=job.kind_line)
        self.bracket = self._build_bracket(job.brackets, job.bracket_lines) \
            if job.brackets else None
        self._filtrations = {}  # (cutoff, slack) -> FilteredQuotient

    def _build_bracket(self, decls, lines):
        """Validate each declaration on its own: the law holds degree by degree."""
        entries, zero = {}, self.field.zero
        for i, decl in enumerate(decls):
            try:
                if "preset" in decl:
                    table = preset_bracket(self.space, decl["preset"])
                else:
                    for k, row in enumerate(decl["values"]):
                        if len(row) > self.space.dim:
                            raise BadParams(
                                "bracket row %d of degree %d has %d entries, but "
                                "dim V = %d" % (k, decl["degree"], len(row),
                                                self.space.dim))
                    rows = [{j: zero + c for j, c in enumerate(row) if c != 0}
                            for row in decl["values"]]
                    table = validate_bracket(self.space, BracketTable(
                        self.space, {decl["degree"]: rows}))
            except (BadParams, DegreeBudgetExceeded, DomainMismatch,
                    NotABracket) as exc:
                raise ValidationError(str(exc), line=lines[i] if lines else None)
            entries.update(table.entries)
        return BracketTable(self.space, entries, validated=True)

    def filtration(self, cutoff, slack):
        """The bracket's enveloping filtration, built once per (cutoff, slack)
        and shared by the tasks that read it."""
        key = (cutoff, slack)
        if key not in self._filtrations:
            self._filtrations[key] = enveloping_filtration(self.bracket, cutoff, slack)
        return self._filtrations[key]


def _named(vec: dict, degree: int, d: int) -> dict:
    """A vector over the degree-n words on d generators, keyed by word name.
    Its scalars stay scalars, as in every payload: run()'s _jsonable prints them."""
    return {word_name(c, degree, d): v for c, v in vec.items()}


def _primitives_payload(ctx, lo, hi):
    out = {}
    for n in range(lo, (lo if hi is None else hi) + 1):
        prims = primitive_space(ctx.space, n)
        out[n] = {"dim": prims.dim,
                  "basis": [_named(row, n, ctx.space.dim) for row in prims.rows]}
    return {"primitives": out}


def _sdeg_payload(ctx, upto):
    payload = sdeg(ctx.space, ctx.degree_override or upto)._asdict()
    payload["trace"] = payload.pop("tower_trace")
    return payload


def _lie_payload(ctx, cutoff, slack):
    payload = lie_check(ctx.bracket, cutoff, slack,
                        filtration=ctx.filtration(cutoff, slack))._asdict()
    witness = payload.pop("witness")
    if witness is not None:
        payload["witness"] = _named(witness, 1, ctx.space.dim)
    return payload


def _pbw_payload(ctx, cutoff, slack):
    fq = ctx.filtration(cutoff, slack)
    payload = pbw_check(ctx.bracket, cutoff, slack, filtration=fq)._asdict()
    del payload["detail"]
    payload["primitives_match"] = primitive_check(ctx.bracket, cutoff, slack,
                                                  filtration=fq)
    payload["unconstrained_degrees"] = fq.unconstrained
    return payload


def _hecke_payload(ctx):
    info = ctx.space.hecke_analysis()
    if info is None:
        return {"hecke": False}
    payload = {"hecke": True, **info}
    if ctx.bracket is not None and info["regular"]:
        pres = hecke_presentation(ctx.bracket)
        d = ctx.space.dim
        payload.update(pres._asdict(), relations=[
            {"quadratic": _named(rel["quadratic"], 2, d),
             "linear": _named(rel["linear"], 1, d)} for rel in pres.relations])
    return payload


def _pareigis_payload(ctx, n, exponent):
    space = ctx.space
    # at arity 2 the only primitive root is -1, whatever the exponent says
    zeta = ctx.field.root_of_unity(n, exponent % n)
    return {
        "arity": n,
        "zeta": zeta,
        "zeta_space_dim": zeta_space(space, n, zeta).dim,
        "pi_image_in_primitives": check_pi_in_E(space, n, zeta),
        "pi_images_span_primitives": check_pi_su(space, n),
    }


def _pl_payload(ctx, n):
    space = ctx.space
    bracket = ctx.bracket or BracketTable.zero(space, min(4, space.degree_budget))
    return {"arity": n, **verify_PL(bracket, n)}


class Task(NamedTuple):
    """Everything the CLI knows of one task.  A builder that honours --degree
    reads ctx.degree_override in place of its degree argument."""
    defaults: tuple  # values of omitted trailing arguments, one per argument
    build: Callable  # build(ctx, *arguments) -> the task's result
    reach: Callable = lambda *args: max(args, default=0)  # top tensor degree
    bracket: str = ""  # "reads" or "needs" the [bracket]; both key the cache
    check: Callable = None  # check(field, *arguments) -> what is wrong, or None
    signed: tuple = ()  # positions of the arguments that may be negative
    ranged: bool = False  # the first argument may be a range lo..hi


TASKS = {
    "ybe": Task((), lambda ctx: {
        "valid": True, "dim": ctx.space.dim, "kind": ctx.space.kind}),
    "min_poly": Task((), lambda ctx: {"coefficients": ctx.space.min_poly}),
    "e_spaces": Task((2, None), _primitives_payload,
                     reach=lambda lo, hi: lo if hi is None else hi,
                     check=_range_rule, ranged=True),
    "nichols": Task((4,), lambda ctx, upto: {
        "dims": nichols_dims(ctx.space, ctx.degree_override or upto)}),
    "nichols_tower": Task((4,), lambda ctx, upto: {
        "dims": nichols_via_tower(ctx.space, ctx.degree_override or upto)}),
    "sdeg": Task((4,), _sdeg_payload),
    "quadratic": Task((4,), lambda ctx, upto: {
        "quadratic": is_quadratic(ctx.space, ctx.degree_override or upto)}),
    "bracket": Task((), lambda ctx: {
        "validated": True,
        "degrees": sorted(ctx.bracket.entries),
        "zero": ctx.bracket.is_zero(),
    }, bracket="needs"),
    # the filtration of these two reaches cutoff + slack
    "lie_check": Task((4, 2), _lie_payload, reach=lambda cutoff, slack:
                      cutoff + slack, bracket="needs"),
    "pbw": Task((4, 2), _pbw_payload, reach=lambda cutoff, slack:
                cutoff + slack, bracket="needs"),
    "hecke": Task((), _hecke_payload, bracket="reads"),
    "pareigis": Task((2, 1), _pareigis_payload, reach=lambda n, exponent: n,
                     check=_arity_rule, signed=(2,)),
    # the identities act on V^(x)(n+1)
    "pl_verify": Task((2,), _pl_payload, reach=lambda n: n + 1,
                      bracket="reads", check=_arity_rule),
}


def run_task(ctx: _JobContext, name: str, args: tuple):
    task = TASKS[name]
    if task.bracket == "needs" and ctx.bracket is None:
        raise ValidationError("task %s needs a [bracket] section" % name)
    values = _task_values(task, args)
    return task.build(ctx, *values, *task.defaults[len(values):])


# -- the report and the cache -------------------------------------------------

def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _task_cache_key(job: JobSpec, name: str, args: tuple,
                    degree_override) -> str:
    basis = {
        "version": __version__,
        "field": job.field_order,
        "space": _jsonable(job.space_decl),
        "budget": job.degree_budget,
        "override": degree_override,
        "task": name,
        "args": _jsonable(args),
        "bracket": _jsonable(job.brackets) if TASKS[name].bracket else None,
    }
    return hashlib.sha256(_canonical_json(basis).encode()).hexdigest()


class Report(NamedTuple):
    job: JobSpec
    tasks: list
    input_hash: str
    internal_failure: InternalCheckError = None

    def payload(self):
        return {
            "tool": {"name": "braidcalc", "version": __version__},
            "input_hash": self.input_hash,
            "job": self.job.echo(),
            "tasks": self.tasks,
        }

    def emit(self, fmt: str = "json") -> bytes:
        if fmt == "json":
            return (json.dumps(self.payload(), sort_keys=True, indent=2)
                    + "\n").encode()
        if fmt == "text":
            lines = ["braidcalc %s  input %s" % (__version__, self.input_hash[:12])]
            for entry in self.tasks:
                name = entry["name"]
                if entry["status"] == "error":
                    lines.append("%-14s ERROR %s: %s" % (
                        name, entry["error"]["type"], entry["error"]["message"]))
                    continue
                lines.append("%-14s %s" % (name, _render_text(entry["result"])))
            return ("\n".join(lines) + "\n").encode()
        raise ValidationError("unknown format %r" % fmt)


def _render_text(result) -> str:
    if isinstance(result, dict):
        parts = []
        for key, val in result.items():
            if isinstance(val, (dict, list)) and len(str(val)) > 60:
                parts.append("%s=<%d entries>" % (key, len(val)))
            else:
                parts.append("%s=%s" % (key, val))
        return " ".join(parts)
    return str(result)


def _read_cache_entry(path: str):
    """The result stored at path, or None when the entry is missing, is not
    of the form ["<SHA-256 of body>",<body>], or its body no longer matches
    the digest (a damaged or edited entry)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    body = data[68:-1]
    if (data[:2], data[66:68], data[-1:]) != (b'["', b'",', b"]") or \
            hashlib.sha256(body).hexdigest().encode() != data[2:66]:
        return None
    return json.loads(body)


def _write_cache_entry(path: str, result) -> None:
    body = _canonical_json(result).encode()
    digest = hashlib.sha256(body).hexdigest().encode()
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "wb") as fh:
        fh.write(b'["' + digest + b'",' + body + b"]")
    os.replace(tmp, path)


def run(job: JobSpec, cache_dir=None, use_cache=True,
        task_filter=None, degree_override=None) -> Report:
    """Run the selected tasks one after another, in job order."""
    input_hash = hashlib.sha256(
        _canonical_json(job.echo()).encode()).hexdigest()
    # built at the first miss, or at once for a bracket: some cache keys omit it
    ctx = _JobContext(job, degree_override) if job.brackets else None
    if cache_dir and use_cache:
        os.makedirs(cache_dir, exist_ok=True)
    internal_failure = None
    entries = []
    for name, args in job.tasks:
        if task_filter is not None and name not in task_filter:
            continue
        entry = {"name": name, "args": _jsonable(args)}
        entries.append(entry)
        path = None
        if cache_dir and use_cache:
            key = _task_cache_key(job, name, args, degree_override)
            path = os.path.join(cache_dir, key + ".json")
            cached = _read_cache_entry(path)
            if cached is not None:
                entry.update(result=cached, status="ok", cached=True)
                continue
        ctx = ctx or _JobContext(job, degree_override)
        start = time.monotonic()
        try:
            result = run_task(ctx, name, args)
        except WorkbenchError as exc:
            if isinstance(exc, InternalCheckError):
                internal_failure = internal_failure or exc
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            continue
        print("braidcalc: task %s finished in %.2fs"
              % (name, time.monotonic() - start), file=sys.stderr)
        entry.update(result=_jsonable(result), status="ok", cached=False)
        if path:
            _write_cache_entry(path, entry["result"])
    return Report(job, entries, input_hash, internal_failure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="braidcalc",
        description="exact invariants of finite-dimensional braided vector spaces")
    parser.add_argument("--input", required=True, help="job file")
    parser.add_argument("--task", action="append", help="run only these tasks")
    parser.add_argument("--degree", type=int, default=None,
                        help="override degree arguments of degree-driven tasks")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: tasks run serially")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--output", default=None, help="write the report here")
    opts = parser.parse_args(argv)
    try:
        with open(opts.input, "r", encoding="utf-8") as fh:
            job = parse_spec(fh.read())
    except OSError as exc:
        print("braidcalc: cannot read input: %s" % exc, file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print("braidcalc: %s" % exc, file=sys.stderr)
        return 1
    if opts.degree is not None and not (1 <= opts.degree <= MAX_DEGREE and
                                        job.dim ** opts.degree <= MAX_WORDS):
        print("braidcalc: --degree must lie in 1..%d and give at most %d "
              "words on %d generators" % (MAX_DEGREE, MAX_WORDS, job.dim),
              file=sys.stderr)
        return 1
    try:
        report = run(job, cache_dir=opts.cache_dir,
                     use_cache=not opts.no_cache,
                     task_filter=set(opts.task) if opts.task else None,
                     degree_override=opts.degree)
    except WorkbenchError as exc:
        if isinstance(exc, InternalCheckError):
            print("braidcalc: internal invariant failure: %s" % exc,
                  file=sys.stderr)
            return 2
        print("braidcalc: %s" % exc, file=sys.stderr)
        return 1
    blob = report.emit(opts.format)
    if opts.output:
        with open(opts.output, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return 2 if report.internal_failure else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
