"""System definition files.

A small sectioned plain-text format, one `key = value` pair per line:

    [system]
    n = 2

    [legendre]
    L1 = "2*v1"
    L2 = "v2*exp(x1)"
    # or a single generating scalar: lagrangian = "v1^2 + 0.5*v2^2"

    [force]
    Phi1 = "0"

    [connection]
    Gamma_1_12 = "0.1*v1"
    Gamma_1_21 = "0.1*v1"

    [inverse]
    V1 = "p1/2"
    V2 = "p2*exp(-x1)"

    [gauge]
    T_1_11 = "0.3*x1"

    [surface]
    x1(u1) = "cos(u1)"
    x2(u1) = "sin(u1)"

    [nu] = "1"

    [options]
    u_stop = 6.283185307179586
    u_samples = 32
    periodic = true
    mutate = flip-beta-term

Omitted force and connection entries are zero; connection entries are
not mirrored. [inverse] (all or none), [gauge], [surface], [nu] (a
number or a u-expression) and [options] are optional; options also
take u_start, t_final, time_steps, rtol and newton_guess. Values may
be quoted or bare. Blank lines and full-line # comments are skipped; a
# after a value is part of the value. `[nu] = "1"` carries its value
on the header line; a `nu = ...` line in a plain [nu] section works too.
"""

import math
import re
from dataclasses import dataclass, field

from . import expr
from .errors import (DimensionError, EvalError, ExprSyntaxError,
                     SystemFileError, ValidationError)
from .experiments import _check_option
from .normality import MUTATIONS
from .system import (ConstFunc, SystemDef, lagrangian_to_legendre,
                     validate_system, zero_connection)

SECTIONS = ("system", "legendre", "force", "connection", "inverse",
            "gauge", "surface", "nu", "options")

_TENSOR_KEY = re.compile(r"^(gamma|t)_(\d+)_(\d)_?(\d)$")
_VECTOR_KEY = re.compile(r"^(l|phi|v|x)(\d+)$")

_FLOAT_OPTIONS = ("u_start", "u_stop", "t_final", "rtol")
_INT_OPTIONS = ("u_samples", "time_steps")
# the [options] keys that set ShiftRun fields of the same names
SHIFT_OPTIONS = _FLOAT_OPTIONS + _INT_OPTIONS + ("periodic",)


@dataclass(frozen=True)
class SystemFile:
    """Everything a definition file carries beyond the system itself."""

    sysdef: SystemDef
    surface: tuple = None
    nu: object = None       # float or an expression in u
    options: dict = field(default_factory=dict)
    path: str = ""


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as e:
        raise SystemFileError(f"cannot read {path}: {e}") from None


def _split_sections(path, lines):
    """{section: [(lineno, key, value), ...]} with duplicates rejected."""
    sections = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise SystemFileError(f"{path}:{lineno}: unterminated section header")
            name = line[1:close].strip().lower()
            if name not in SECTIONS:
                raise SystemFileError(f"{path}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise SystemFileError(f"{path}:{lineno}: duplicate section [{name}]")
            current = sections[name] = []
            keys = set()
            rest = line[close + 1:].strip()
            if rest:
                # header-line value, the `[nu] = "1"` form
                if not rest.startswith("="):
                    raise SystemFileError(
                        f"{path}:{lineno}: unexpected text after [{name}]")
                current.append((lineno, name, _unquote(rest[1:])))
                keys.add(name)
            continue
        if current is None:
            raise SystemFileError(f"{path}:{lineno}: entry before any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise SystemFileError(f"{path}:{lineno}: expected key = value")
        key = key.strip().lower()
        if key.endswith(")"):   # tolerate argument lists: x1(u1) means x1
            key = re.sub(r"\(.*\)$", "", key).strip()
        if key in keys:
            raise SystemFileError(f"{path}:{lineno}: duplicate key {key!r}")
        keys.add(key)
        current.append((lineno, key, _unquote(value)))
    return sections


def _parse_expr(path, lineno, key, source, n, kinds, parsed):
    """The expression of one entry. parsed maps (source, n, kinds) to
    the Expression already parsed from them in this file, which entries
    with the same source then share, so that it compiles once. A parse
    error keeps its type, message and position, after the file, line
    and key it comes from."""
    e = parsed.get((source, n, kinds))
    if e is None:
        try:
            e = parsed[source, n, kinds] = expr.parse(source, n, kinds=kinds)
        except (ExprSyntaxError, DimensionError) as err:
            err.args = (f"{path}:{lineno}: in {key}: {err}",)
            raise
    return e


def _vector_section(path, entries, prefix, n, kinds, required, parsed):
    """Component list from L1../Phi1../V1../x1.. style keys."""
    out = [None] * n
    for lineno, key, value in entries:
        m = _VECTOR_KEY.match(key)
        if not m or m.group(1) != prefix:
            raise SystemFileError(f"{path}:{lineno}: unexpected key {key!r}")
        i = int(m.group(2))
        if not 1 <= i <= n:
            raise SystemFileError(
                f"{path}:{lineno}: component index {i} outside 1..{n}")
        dim = n - 1 if kinds == ("u",) else n
        out[i - 1] = _parse_expr(path, lineno, key, value, dim, kinds, parsed)
    if required:
        for i, component in enumerate(out):
            if component is None:
                raise SystemFileError(
                    f"{path}: missing {prefix}{i + 1} in its section")
    return out


def _tensor_section(path, entries, prefix, n, parsed):
    """(n,n,n) nested list from Gamma_k_ij / T_k_ij keys, zeros elsewhere."""
    if n > 9:
        raise SystemFileError(f"{path}: {prefix} keys support n <= 9 only")
    out = zero_connection(n)
    for lineno, key, value in entries:
        m = _TENSOR_KEY.match(key)
        if not m or m.group(1) != prefix:
            raise SystemFileError(f"{path}:{lineno}: unexpected key {key!r}")
        k, i, j = int(m.group(2)), int(m.group(3)), int(m.group(4))
        for idx in (k, i, j):
            if not 1 <= idx <= n:
                raise SystemFileError(
                    f"{path}:{lineno}: index {idx} outside 1..{n} in {key!r}")
        out[k - 1][i - 1][j - 1] = _parse_expr(
            path, lineno, key, value, n, ("x", "v"), parsed)
    return out


def _parse_options(path, entries, n):
    out = {}
    for lineno, key, value in entries:
        try:
            if key in _FLOAT_OPTIONS + _INT_OPTIONS:    # a ShiftRun field
                out[key] = _check_option(
                    key, (float if key in _FLOAT_OPTIONS else int)(value))
            elif key == "periodic":
                flag = value.strip().lower()
                if flag not in ("true", "false", "yes", "no", "1", "0"):
                    raise ValueError(flag)
                out[key] = flag in ("true", "yes", "1")
            elif key == "newton_guess":
                guess = [float(part) for part in value.split(",")]
                if len(guess) != n:
                    raise SystemFileError(
                        f"{path}:{lineno}: newton_guess needs {n} values")
                if not all(map(math.isfinite, guess)):
                    raise SystemFileError(
                        f"{path}:{lineno}: newton_guess must be finite")
                out[key] = guess
            elif key == "mutate":
                if value not in MUTATIONS:
                    raise SystemFileError(
                        f"{path}:{lineno}: unknown mutation {value!r}; "
                        f"known: {', '.join(sorted(MUTATIONS))}")
                out[key] = value
            else:
                raise SystemFileError(
                    f"{path}:{lineno}: unknown option {key!r}")
        except ValueError:
            raise SystemFileError(
                f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        except ValidationError as e:
            raise SystemFileError(f"{path}:{lineno}: {e}") from None
    return out


def read_system_file(path) -> SystemFile:
    """Parse and validate one definition file, keeping every section."""
    path = str(path)
    sections = _split_sections(path, _read_lines(path))
    parsed = {}     # one Expression a distinct (source, n, kinds)

    if "system" not in sections:
        raise SystemFileError(f"{path}: missing [system] section")
    n = None
    for lineno, key, value in sections["system"]:
        if key != "n":
            raise SystemFileError(f"{path}:{lineno}: unexpected key {key!r}")
        try:
            n = int(value)
        except ValueError:
            raise SystemFileError(
                f"{path}:{lineno}: n must be an integer, got {value!r}") from None
    if n is None:
        raise SystemFileError(f"{path}: [system] must set n")
    if n < 1:
        raise SystemFileError(f"{path}: n must be positive, got {n}")

    if "legendre" not in sections:
        raise SystemFileError(f"{path}: missing [legendre] section")
    entries = sections["legendre"]
    scalar = [e for e in entries if e[1] == "lagrangian"]
    if scalar:
        if len(entries) > 1:
            raise SystemFileError(
                f"{path}: lagrangian excludes explicit L components")
        lineno, key, value = scalar[0]
        generator = _parse_expr(path, lineno, key, value, n, ("x", "v"),
                                parsed)
        try:
            legendre = lagrangian_to_legendre(generator)
        except EvalError as e:
            raise EvalError(f"{path}:{lineno}: in {key}: {e}") from None
    else:
        legendre = _vector_section(path, entries, "l", n, ("x", "v"), True,
                                   parsed)

    force = None
    if "force" in sections:
        force = _vector_section(path, sections["force"], "phi", n,
                                ("x", "v"), False, parsed)
        force = [f if f is not None else ConstFunc(0.0, n) for f in force]

    connection = None
    if "connection" in sections:
        connection = _tensor_section(path, sections["connection"], "gamma", n,
                                     parsed)

    v_inverse = None
    if "inverse" in sections:
        v_inverse = _vector_section(path, sections["inverse"], "v", n,
                                    ("x", "p"), True, parsed)

    gauge = None
    if "gauge" in sections:
        gauge = _tensor_section(path, sections["gauge"], "t", n, parsed)

    surface = None
    if "surface" in sections:
        if n < 2:
            raise SystemFileError(f"{path}: a surface needs n >= 2")
        surface = tuple(_vector_section(path, sections["surface"], "x", n,
                                        ("u",), True, parsed))

    nu = None
    if "nu" in sections:
        entries = sections["nu"]
        if len(entries) != 1 or entries[0][1] != "nu":
            where = entries[1][0] if len(entries) > 1 else "?"
            raise SystemFileError(
                f"{path}:{where}: [nu] takes exactly one value")
        lineno, key, value = entries[0]
        try:
            nu = float(value)
        except ValueError:
            nu = _parse_expr(path, lineno, key, value, max(n - 1, 1), ("u",),
                             parsed)

    options = _parse_options(path, sections.get("options", ()), n)

    sysdef = SystemDef(n, legendre, force=force, connection=connection,
                       v_inverse=v_inverse, gauge=gauge,
                       newton_guess=options.get("newton_guess"))
    try:
        validate_system(sysdef)
    except (EvalError, ValidationError) as e:   # keeps its type
        e.args = (f"{path}: {e}",)
        raise
    return SystemFile(sysdef, surface, nu, options, path)
