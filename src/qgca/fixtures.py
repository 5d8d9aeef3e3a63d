"""Built-in example objects and the resolvers that let CLI arguments name
them as ``@spec`` instead of a file path.

``@`` specs use commas between tokens: ``@cyclic,5``, ``@ledrappier,3,2,1``,
``@product,cyclic,2,quaternion``.  A few well-known names are aliased:
``@d7``, ``@xor``, ``@quaternion``, ``@c2q``, ``@nonabelian21``, ``@z7x4``
(the matrix example over (Z/7)^4), ``@m7`` / ``@m7neg`` (its matrix), and
``@uniform,N`` / ``@example11,N`` for measures.
"""
from __future__ import annotations

from functools import cache
from pathlib import Path

from .automaton import LocalRule, format_rule, from_quasigroup, parse_rule
from .eca import affine_matrix_system
from .errors import UnknownName, read_int
from .groups import (GroupTable, format_group, from_quasigroup as group_from_q,
                     load_group)
from .matfp import MatrixFp, format_matrix, load_matrix
from .measure import (MeasureDoc, UniformMeasure, example11, load_measure)
from .quasigroup import Quasigroup, builtin_from_spec, format_table, load_table

M7_MATRIX = MatrixFp.from_rows(7, [[0, 0, 0, 1],
                                   [1, 0, 0, 1],
                                   [0, 1, 0, 1],
                                   [0, 0, 1, 1]])

_TABLE_ALIASES = {
    "d7": "D7",
    "xor": "ledrappier 2 1 1",
    "quaternion": "quaternion",
    "nonabelian21": "nonabelian21",
    "c2q": "product cyclic 2 quaternion",
}


def _spec_tokens(spec: str) -> list[str]:
    return [t for t in spec.replace(",", " ").split() if t]


def resolve_table(spec: str) -> Quasigroup:
    if not spec.startswith("@"):
        return load_table(spec)
    body = spec[1:]
    key = body.split(",")[0].lower()
    if key in _TABLE_ALIASES and "," not in body:
        return builtin_from_spec(_TABLE_ALIASES[key])
    return builtin_from_spec(" ".join(_spec_tokens(body)))


@cache
def _z7x4() -> tuple[GroupTable, LocalRule]:
    """The (Z/7)^4 example, built once: the group and rule are read-only."""
    return affine_matrix_system(M7_MATRIX)


def resolve_group(spec: str) -> GroupTable:
    if not spec.startswith("@"):
        return load_group(spec)
    if spec[1:].lower() == "z7x4":
        return _z7x4()[0]
    return group_from_q(resolve_table(spec))


def resolve_rule(spec: str) -> tuple[LocalRule, tuple[str, ...] | None]:
    """Returns the rule and, when one is known, the symbol naming."""
    if not spec.startswith("@"):
        path = Path(spec)
        tables: list[Quasigroup] = []

        def resolve(rel: str) -> Quasigroup:
            tables.append(load_table(path.parent / rel))
            return tables[-1]

        rule = parse_rule(path.read_text(), resolve=resolve)
        return rule, tables[0].symbols if tables else None
    if spec[1:].lower() == "z7x4":
        g, rule = _z7x4()
        return rule, g.symbols
    table = resolve_table(spec)
    return from_quasigroup(table), table.symbols


def resolve_measure(spec: str) -> MeasureDoc:
    if not spec.startswith("@"):
        return load_measure(spec)
    tokens = _spec_tokens(spec[1:])
    name = tokens[0].lower()
    if name == "uniform" and len(tokens) == 2:
        return MeasureDoc(UniformMeasure(read_int(tokens[1])), None)
    if name == "example11" and len(tokens) == 2:
        from .groups import cyclic_group, group_product, quaternion_group
        c = cyclic_group(read_int(tokens[1]))
        combined = group_product(c, quaternion_group())
        return MeasureDoc(example11(c), combined.symbols)
    raise UnknownName(spec)


def resolve_matrix(spec: str) -> MatrixFp:
    if not spec.startswith("@"):
        return load_matrix(spec)
    tokens = _spec_tokens(spec[1:])
    name = tokens[0].lower()
    if name == "m7":
        return M7_MATRIX
    if name == "m7neg":
        return M7_MATRIX.neg()
    if name == "identity" and len(tokens) == 3:
        return MatrixFp.identity(read_int(tokens[1]), read_int(tokens[2]))
    raise UnknownName(spec)


# ---------------------------------------------------------------------------
# fixture export

def export_fixtures(directory) -> list[str]:
    """Write the shipped example files; returns the relative names written."""
    from .groups import cyclic_group, group_product, quaternion_group

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def put(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(name)

    d7 = resolve_table("@d7")
    xor = resolve_table("@xor")
    quat = resolve_table("@quaternion")
    c2q = resolve_table("@c2q")
    put("d7.table", format_table(d7))
    put("xor.table", format_table(xor))
    put("quaternion.table", format_table(quat))
    put("c2q.table", format_table(c2q))
    put("ledrappier321.table", format_table(resolve_table("@ledrappier,3,2,1")))

    put("quaternion.group", format_group(quaternion_group()))
    put("c2q.group",
        format_group(group_product(cyclic_group(2), quaternion_group())))
    put("cyclic2.group", format_group(cyclic_group(2)))
    put("cyclic3.group", format_group(cyclic_group(3)))
    put("nonabelian21.group", format_group(resolve_group("@nonabelian21")))

    put("d7.rule", "quasigroup d7.table\n")
    put("xor.rule", format_rule(from_quasigroup(xor)))
    put("quaternion.rule", "quasigroup quaternion.table\n")
    put("c2q.rule", "quasigroup c2q.table\n")
    put("ledrappier321.rule", "quasigroup ledrappier321.table\n")

    put("m7.matrix", format_matrix(M7_MATRIX))
    put("m7neg.matrix", format_matrix(M7_MATRIX.neg()))

    put("c2_uniform.measure", "kind=uniform\nalphabet_size=2\n")
    put("quaternion_orbit.measure",
        "kind=orbit\nalphabet_size=8\nperiod_word=2 4 6\n"
        "symbols=" + " ".join(quat.symbols) + "\n")
    put("example11_c2.measure",
        "kind=product\nleft=c2_uniform.measure\nright=quaternion_orbit.measure\n"
        "symbols=" + " ".join(c2q.symbols) + "\n")
    return written
