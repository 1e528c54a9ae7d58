"""Polynomial queries — the extension routine 4.2 sketches.

The paper closes its semi-linear section with "This algorithm can also
be extended for evaluating polynomial queries" (section 4.1.2).  This
module does so: predicates of the form

    sum_i  s_i * a_i ** p_i   op   b

with small non-negative integer exponents, compiled to a fragment
program whose power chains are square-and-multiply ``MUL`` sequences —
still branch-free, still one pass, still no depth copy.

Exponent 0 contributes the constant ``s_i`` per record (``a**0 = 1``
even for ``a = 0``, the usual polynomial convention).
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..gpu.assembler import FragmentProgram, assemble
from ..gpu.types import CompareFunc
from .predicates import SimplePredicate
from .relation import Relation

#: Largest supported exponent (keeps programs inside the temporary
#: register budget; real FX-era programs had similar practical limits).
MAX_EXPONENT = 8


class Polynomial(SimplePredicate):
    """``sum_i s_i * a_i**p_i  op  b`` over up to four attributes."""

    def __init__(self, columns, coefficients, exponents, op, constant):
        columns = tuple(columns)
        coefficients = tuple(float(c) for c in coefficients)
        exponents = tuple(int(p) for p in exponents)
        if not 1 <= len(columns) <= 4:
            raise QueryError(
                f"polynomial predicates take 1-4 attributes, "
                f"got {len(columns)}"
            )
        if not (
            len(columns) == len(coefficients) == len(exponents)
        ):
            raise QueryError(
                "columns, coefficients and exponents must align"
            )
        if any(p < 0 or p > MAX_EXPONENT for p in exponents):
            raise QueryError(
                f"exponents must lie in [0, {MAX_EXPONENT}]"
            )
        if op in (CompareFunc.NEVER, CompareFunc.ALWAYS):
            raise QueryError(
                "polynomial predicates require a value operator"
            )
        self.columns = columns
        self.coefficients = coefficients
        self.exponents = exponents
        self.op = op
        self.constant = float(constant)

    def mask(self, relation: Relation) -> np.ndarray:
        """Reference evaluation in float32, mirroring the pipeline."""
        total = np.zeros(relation.num_records, dtype=np.float32)
        for name, coefficient, exponent in zip(
            self.columns, self.coefficients, self.exponents
        ):
            values = relation.column(name).values
            term = np.ones(relation.num_records, dtype=np.float32)
            # Same multiplication order as the generated program.
            for _ in range(exponent):
                term = (term * values).astype(np.float32)
            total += np.float32(coefficient) * term
        return self.op.apply(total, np.float32(self.constant))

    def negated(self) -> "Polynomial":
        return Polynomial(
            self.columns,
            self.coefficients,
            self.exponents,
            self.op.negate(),
            self.constant,
        )

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{c:g}*{name}^{p}"
            for c, name, p in zip(
                self.coefficients, self.columns, self.exponents
            )
        )
        return f"({terms} {self.op.value} {self.constant:g})"


_CHANNELS = "xyzw"


def polynomial_program(
    exponents: tuple[int, ...], op: CompareFunc
) -> FragmentProgram:
    """Compile a polynomial predicate into a fragment program.

    ``p[0]`` carries the coefficients, ``p[1]`` the constant ``b``.  The
    program accumulates each term with a repeated-multiplication chain
    in float32 (exact for integer attributes while the running product
    stays below 2**24), then reuses the semi-linear comparison/KIL
    epilogue: surviving fragments satisfy the predicate.
    """
    if not 1 <= len(exponents) <= 4:
        raise QueryError(
            f"polynomial programs take 1-4 exponents, got {len(exponents)}"
        )
    if any(p < 0 or p > MAX_EXPONENT for p in exponents):
        raise QueryError(f"exponents must lie in [0, {MAX_EXPONENT}]")

    lines = ["!!FP1.0", "TEX R0, f[TEX0], TEX0, 2D;"]
    # R1 accumulates the polynomial value in .x; R2 is the power chain.
    lines.append("MOV R1.x, {0};")
    for index, exponent in enumerate(exponents):
        channel = _CHANNELS[index]
        if exponent == 0:
            # a**0 == 1: the term is just the coefficient.
            lines.append(f"ADD R1.x, R1.x, p[0].{channel};")
            continue
        lines.append(f"MOV R2.x, R0.{channel};")
        for _ in range(exponent - 1):
            lines.append(f"MUL R2.x, R2.x, R0.{channel};")
        lines.append(f"MAD R1.x, R2.x, p[0].{channel}, R1.x;")

    if op is CompareFunc.GEQUAL:
        lines += ["SUB R3, R1.x, p[1];", "KIL R3.x;"]
    elif op is CompareFunc.GREATER:
        lines += ["SGE R3, p[1], R1.x;", "KIL -R3.x;"]
    elif op is CompareFunc.LESS:
        lines += ["SGE R3, R1.x, p[1];", "KIL -R3.x;"]
    elif op is CompareFunc.LEQUAL:
        lines += ["SLT R3, p[1], R1.x;", "KIL -R3.x;"]
    elif op is CompareFunc.EQUAL:
        lines += [
            "SGE R3, R1.x, p[1];",
            "SGE R4, p[1], R1.x;",
            "MUL R3, R3, R4;",
            "SUB R3, R3, {0.5};",
            "KIL R3.x;",
        ]
    elif op is CompareFunc.NOTEQUAL:
        lines += [
            "SGE R3, R1.x, p[1];",
            "SGE R4, p[1], R1.x;",
            "MUL R3, R3, R4;",
            "SUB R3, {0.5}, R3;",
            "KIL R3.x;",
        ]
    else:  # pragma: no cover - constructor rejects NEVER/ALWAYS
        raise QueryError(f"unsupported operator {op.name}")
    lines.append("END")
    name = "polynomial." + "-".join(str(p) for p in exponents)
    return assemble("\n".join(lines), name=name)


def polynomial_pass(device, texture, predicate: Polynomial) -> None:
    """Render one quad running the compiled polynomial program.

    Same contract as ``semilinear_pass``: satisfying fragments survive
    to the stencil stage; the caller configures recording/counting.
    """
    coefficients = np.zeros(4, dtype=np.float32)
    coefficients[: len(predicate.coefficients)] = predicate.coefficients
    program = polynomial_program(predicate.exponents, predicate.op)
    state = device.state
    state.depth.enabled = False
    state.depth_bounds.enabled = False
    state.alpha.enabled = False
    device.set_program(program)
    try:
        device.set_program_parameter(0, coefficients)
        device.set_program_parameter(1, predicate.constant)
        device.render_textured_quad(texture)
    finally:
        device.set_program(None)
