"""Fragment-program JIT: compilation, DCE, cache keying, equivalence.

The JIT must be a drop-in for the interpreter: identical outputs,
identical errors, identical ``instructions_executed`` (DCE changes
wall-clock only — the simulated hardware has no dead-code eliminator).
The kernel cache must key on texture generations and parameter bytes so
a texel upload, parameter change, fault retry or context switch can
never replay a stale kernel.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GpuEngine
from repro.core.predicates import Comparison
from repro.data.tcpip import make_tcpip
from repro.errors import ProgramExecutionError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    RetryPolicy,
    use_faults,
)
from repro.gpu.assembler import assemble
from repro.gpu.interpreter import FragmentBatch, ProgramInterpreter
from repro.gpu.isa import NUM_PARAMETERS, FragmentAttrib, Opcode
from repro.gpu.jit import (
    NO_COLOR,
    BoundKernel,
    KernelCache,
    compile_program,
    kernel_summary,
)
from repro.gpu.programs import (
    copy_to_depth_program,
    semilinear_program,
)
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.raster import Rect, rasterize_rect
from repro.gpu.texture import Texture
from repro.gpu.types import CompareFunc


#: Every color component observed (color writes on).
ALL = (True, True, True, True)


def _program(lines):
    return assemble("\n".join(["!!FP1.0"] + list(lines) + ["END"]))


def _batch(count=16, seed=0):
    rng = np.random.default_rng(seed)
    attrs = {}
    for attrib in (
        FragmentAttrib.WPOS,
        FragmentAttrib.COL0,
        FragmentAttrib.TEX0,
        FragmentAttrib.TEX1,
    ):
        attrs[attrib] = rng.uniform(
            -2.0, 2.0, size=(count, 4)
        ).astype(np.float32)
    return FragmentBatch(count=count, attributes=attrs)


def _params(seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(
        -3.0, 3.0, size=(NUM_PARAMETERS, 4)
    ).astype(np.float32)


def _both(program, batch, textures=None, parameters=None, live=ALL):
    """Run ``program`` through the interpreter and a fresh bound
    kernel; return both results."""
    textures = textures or {}
    parameters = (
        parameters if parameters is not None else _params()
    )
    interp = ProgramInterpreter(textures, parameters).run(
        program, batch
    )
    kernel = BoundKernel(
        compile_program(program, live), textures, parameters
    )
    jit = kernel.run(batch)
    return interp, jit


def _assert_equal_results(interp, jit):
    assert np.array_equal(
        np.stack(interp.color), np.stack(jit.color), equal_nan=True
    )
    if interp.depth is None:
        assert jit.depth is None
    else:
        assert np.array_equal(interp.depth, jit.depth, equal_nan=True)
    if interp.killed is None:
        assert jit.killed is None
    else:
        assert np.array_equal(interp.killed, jit.killed)
    assert interp.instructions_executed == jit.instructions_executed


#: One source list per opcode family, exercising swizzles, negation,
#: masked writes, literals and parameters.
_OPCODE_PROGRAMS = [
    ["MOV o[COLR], f[COL0];"],
    ["MOV R0, -f[COL0].wzyx;", "MOV o[COLR], R0;"],
    ["ADD o[COLR], f[COL0], f[TEX0];"],
    ["SUB o[COLR], f[COL0], p[3];"],
    ["MUL o[COLR], f[COL0], {0.5, -1, 2, 0};"],
    ["MAD o[COLR], f[COL0], p[1], f[TEX0];"],
    ["MIN o[COLR], f[COL0], f[TEX0];"],
    ["MAX o[COLR], f[COL0], f[TEX0];"],
    ["SLT o[COLR], f[COL0], f[TEX0];"],
    ["SGE o[COLR], f[COL0], f[TEX0];"],
    ["ABS o[COLR], f[COL0];"],
    ["FLR o[COLR], f[COL0];"],
    ["FRC o[COLR], f[COL0];"],
    ["RCP o[COLR], f[COL0].x;"],
    ["EX2 o[COLR], f[COL0].x;"],
    ["LG2 o[COLR], f[COL0].x;"],
    ["DP3 o[COLR], f[COL0], f[TEX0];"],
    ["DP4 o[COLR], f[COL0], f[TEX0];"],
    ["CMP o[COLR], f[COL0], f[TEX0], p[2];"],
    ["LRP o[COLR], f[COL0].x, f[TEX0], p[2];"],
    ["KIL f[COL0];", "MOV o[COLR], f[TEX0];"],
    ["MOV o[DEPR], f[COL0];"],
    ["MOV R0, f[COL0];", "MOV R0.xz, f[TEX0];",
     "MOV o[COLR], R0;"],
    ["MOV o[COLR].yw, f[COL0];"],
]


class TestOpcodeEquivalence:
    @pytest.mark.parametrize(
        "lines", _OPCODE_PROGRAMS,
        ids=[" ".join(p)[:40] for p in _OPCODE_PROGRAMS],
    )
    def test_jit_matches_interpreter(self, lines):
        interp, jit = _both(_program(lines), _batch())
        _assert_equal_results(interp, jit)

    def test_tex_fetch_matches(self):
        texture = Texture.from_values(
            np.arange(64, dtype=np.float32) / 64.0, shape=(8, 8)
        )
        count = 64
        coords = np.zeros((count, 4), dtype=np.float32)
        grid = np.arange(count)
        coords[:, 0] = (grid % 8 + 0.5) / 8.0
        coords[:, 1] = (grid // 8 + 0.5) / 8.0
        batch = FragmentBatch(
            count=count,
            attributes={
                FragmentAttrib.TEX0: coords,
                FragmentAttrib.COL0: np.zeros(
                    (count, 4), dtype=np.float32
                ),
            },
        )
        program = _program(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"]
        )
        interp, jit = _both(program, batch, textures={0: texture})
        _assert_equal_results(interp, jit)

    def test_tex_at_non_finite_coordinates_clamps_to_edge(self):
        """NaN samples texel 0; -inf and +inf clamp to the first and
        last texel of their axis, on both executors."""
        texture = Texture.from_values(
            np.arange(12, dtype=np.float32), shape=(3, 4)
        )
        nan, inf = np.float32("nan"), np.float32("inf")
        st_pairs = [
            (nan, nan, 0.0),
            (nan, 0.9, 8.0),
            (0.6, nan, 2.0),
            (-inf, -inf, 0.0),
            (inf, inf, 11.0),
            (inf, -inf, 3.0),
            (-inf, inf, 8.0),
            (inf, nan, 3.0),
        ]
        count = len(st_pairs)
        coords = np.zeros((count, 4), dtype=np.float32)
        coords[:, :2] = [(s, t) for s, t, _ in st_pairs]
        batch = FragmentBatch(
            count=count, attributes={FragmentAttrib.TEX0: coords}
        )
        program = _program(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"]
        )
        interp, jit = _both(program, batch, textures={0: texture})
        _assert_equal_results(interp, jit)
        expected = [texel for _, _, texel in st_pairs]
        assert interp.color[0].tolist() == expected

    def test_shipped_programs_match(self):
        """The programs the engine actually binds, under a real batch."""
        texture = Texture.from_values(
            np.linspace(0, 1, 64, dtype=np.float32), shape=(8, 8)
        )
        count = 64
        coords = np.zeros((count, 4), dtype=np.float32)
        grid = np.arange(count)
        coords[:, 0] = (grid % 8 + 0.5) / 8.0
        coords[:, 1] = (grid // 8 + 0.5) / 8.0
        batch = FragmentBatch(
            count=count,
            attributes={
                FragmentAttrib.TEX0: coords,
                FragmentAttrib.TEX1: coords,
                FragmentAttrib.COL0: np.full(
                    (count, 4), 0.25, dtype=np.float32
                ),
                FragmentAttrib.WPOS: np.zeros(
                    (count, 4), dtype=np.float32
                ),
            },
        )
        for program in (
            copy_to_depth_program(),
            bit_program(),
            semilinear_program(CompareFunc.GEQUAL),
        ):
            interp, jit = _both(
                program, batch, textures={0: texture, 1: texture}
            )
            _assert_equal_results(interp, jit)


class TestCompilation:
    def test_program_cache_reuses_compilations(self):
        program = _program(["MOV o[COLR], f[COL0];"])
        first = compile_program(program, ALL)
        second = compile_program(program, ALL)
        assert first is second
        # A different live mask is a different specialization.
        assert compile_program(program, NO_COLOR) is not first

    def test_dce_drops_dead_color_write(self):
        """o[COLR] is dead when the pipeline never looks at color."""
        program = _program([
            "MOV o[DEPR], f[TEX0];",
            "MOV o[COLR], f[COL0];",
        ])
        colored = compile_program(program, ALL)
        depth_only = compile_program(program, NO_COLOR)
        assert len(colored.instructions) == colored.num_instructions == 2
        assert len(depth_only.instructions) == 1
        # Cost-model fidelity: both charge the full program length.
        assert depth_only.num_instructions == colored.num_instructions

    def test_dce_drops_unread_temporary(self):
        program = _program([
            "MOV R1, f[TEX0];",   # dead: R1 never read
            "MOV o[COLR], f[COL0];",
        ])
        compiled = compile_program(program, ALL)
        assert len(compiled.instructions) == 1
        assert compiled.num_instructions == 2
        interp, jit = _both(program, _batch())
        _assert_equal_results(interp, jit)

    def test_alpha_only_test_bit_keeps_one_column(self):
        """Under the alpha test with color writes off, TestBit computes
        frac(v * p) on the one component that reaches alpha and drops
        the color passthrough."""
        compiled = compile_program(
            bit_program(0), (False, False, False, True)
        )
        assert [i.opcode for i in compiled.instructions] == [
            Opcode.TEX, Opcode.MUL, Opcode.FRC, Opcode.MOV,
        ]
        assert compiled.needed == ((0,), (0,), (0,), (3,))
        assert compiled.num_instructions == 5
        assert compiled.describe() == (
            "test-bit.x: 4/5 ops after DCE, live o[COLR].w"
        )

    def test_alpha_only_test_bit_follows_the_channel(self):
        compiled = compile_program(
            bit_program(2), (False, False, False, True)
        )
        assert compiled.needed == ((2,), (2,), (2,), (3,))

    def test_copy_to_depth_keeps_one_mul_column(self):
        for channel in range(4):
            compiled = compile_program(
                copy_to_depth_program(channel), NO_COLOR
            )
            assert [i.opcode for i in compiled.instructions] == [
                Opcode.TEX, Opcode.MUL, Opcode.MOV,
            ]
            assert compiled.needed == ((channel,), (channel,), (2,))

    def test_partial_write_kills_only_its_components(self):
        program = _program([
            "MOV R0, f[COL0];",        # live for .y only
            "MOV R0.x, f[TEX0];",
            "MOV o[COLR].xy, R0;",
        ])
        compiled = compile_program(program, ALL)
        assert compiled.needed == ((1,), (0,), (0, 1))
        interp, jit = _both(program, _batch())
        _assert_equal_results(interp, jit)

    def test_only_the_last_depth_write_is_live(self):
        program = _program([
            "MOV o[DEPR].z, f[TEX0];",
            "MOV o[DEPR].z, f[COL0].x;",
        ])
        compiled = compile_program(program, NO_COLOR)
        assert len(compiled.instructions) == 1
        interp, jit = _both(program, _batch(), live=NO_COLOR)
        assert np.array_equal(interp.depth, jit.depth)

    def test_kernel_summary_renders(self):
        text = kernel_summary(copy_to_depth_program())
        assert "copy-to-depth" in text
        assert "after DCE" in text
        assert text.endswith("live o[DEPR].z")

    def test_uninitialized_read_matches_interpreter_error(self):
        program = _program(["MOV o[COLR], R3;"])
        with pytest.raises(ProgramExecutionError) as interp_err:
            ProgramInterpreter({}, _params()).run(program, _batch())
        with pytest.raises(ProgramExecutionError) as jit_err:
            BoundKernel(
                compile_program(program, ALL), {}, _params()
            )
        assert str(interp_err.value) == str(jit_err.value)

    def test_unbound_texture_matches_interpreter_error(self):
        program = _program(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"]
        )
        with pytest.raises(ProgramExecutionError) as interp_err:
            ProgramInterpreter({}, _params()).run(program, _batch())
        with pytest.raises(ProgramExecutionError) as jit_err:
            BoundKernel(
                compile_program(program, ALL), {}, _params()
            )
        assert str(interp_err.value) == str(jit_err.value)


class TestKernelCache:
    def _texture(self):
        return Texture.from_values(
            np.linspace(0, 1, 64, dtype=np.float32), shape=(8, 8)
        )

    def test_hit_on_identical_state(self):
        cache = KernelCache()
        program = copy_to_depth_program()
        texture = self._texture()
        params = _params()
        first = cache.get_or_bind(program, NO_COLOR, {0: texture}, params)
        second = cache.get_or_bind(program, NO_COLOR, {0: texture}, params)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_parameter_change_rebinds(self):
        cache = KernelCache()
        program = bit_program()
        texture = self._texture()
        params = _params()
        first = cache.get_or_bind(program, ALL, {0: texture}, params)
        changed = params.copy()
        changed[0] = [1.0, 0.0, 0.0, 0.0]
        second = cache.get_or_bind(
            program, ALL, {0: texture}, changed
        )
        assert first is not second
        assert cache.misses == 2

    def test_texel_upload_rotates_key(self):
        """satellite 3: a texture-content change (generation bump) must
        miss the cache — retried faults / context switches can never
        replay a kernel bound over stale texels."""
        cache = KernelCache()
        program = copy_to_depth_program()
        texture = self._texture()
        params = _params()
        before = cache.get_or_bind(
            program, NO_COLOR, {0: texture}, params
        )
        generation = texture.generation
        texture.write_texels(0, np.array([0.5], dtype=np.float32))
        assert texture.generation > generation
        after = cache.get_or_bind(program, NO_COLOR, {0: texture}, params)
        assert before is not after
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = KernelCache(capacity=2)
        texture = self._texture()
        programs = [
            copy_to_depth_program(),
            bit_program(),
            semilinear_program(CompareFunc.GEQUAL),
        ]
        for program in programs:
            cache.get_or_bind(program, ALL, {0: texture}, _params())
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_tex_memo_survives_parameter_rebind(self):
        """The fetch memo lives on the cache, not the kernel: the bit
        search rotates a parameter every pass, and the fetches must
        still be shared across the resulting rebinds."""
        cache = KernelCache()
        program = bit_program()
        texture = self._texture()
        params = _params()
        a = cache.get_or_bind(program, ALL, {0: texture}, params)
        changed = params.copy()
        changed[0] = [0.25, 0.0, 0.0, 0.0]
        b = cache.get_or_bind(program, ALL, {0: texture}, changed)
        assert a is not b
        assert a.tex_memo is b.tex_memo is cache.tex_memo


class TestStaleKernelChaos:
    def test_fault_retry_after_texel_update_sees_new_values(self):
        """Chaos regression for satellite 3: update texels, then run an
        op whose first attempts die with injected faults.  The retried
        attempt must bind a kernel over the *new* texture generation,
        never replay the pre-update kernel."""
        relation = make_tcpip(600, seed=9)
        executor = ResilientExecutor(
            RetryPolicy(max_attempts=4, base_delay_s=0.0)
        )
        engine = GpuEngine(relation, executor=executor, jit=True)
        baseline = GpuEngine(relation, jit=False)
        # Warm the kernel cache with the original texture contents.
        assert engine.median("data_count").value == \
            baseline.median("data_count").value
        # Now inject faults; every retry must recompute from current
        # state and still agree with the interpreter baseline.
        plan = FaultPlan([
            FaultRule(
                kind=FaultKind.DEVICE_LOST,
                probability=1.0,
                max_fires=2,
            ),
        ])
        with use_faults(plan):
            faulted = engine.median("flow_rate").value
        assert faulted == baseline.median("flow_rate").value

    def test_jit_cache_stats_exposed(self):
        relation = make_tcpip(400, seed=3)
        engine = GpuEngine(relation, jit=True)
        engine.median("data_count")
        cache = engine.device.kernels
        assert cache.misses > 0
        assert cache.hits + cache.misses > 0


class TestMemory:
    def test_alpha_only_test_bit_pass_allocates_one_column(self):
        """One alpha-only TestBit pass over 2^16 fragments allocates
        the live columns only: no four-wide registers and no planar
        color.  The four-wide kernel peaked at 5.3 MB on the first pass
        and 4.3 MB once the fetch was memoized."""
        count = 1 << 16
        texture = Texture.from_values(
            np.arange(count, dtype=np.float32), shape=(256, 256)
        )
        batch = rasterize_rect(
            Rect(0, 0, 256, 256), 256, 256, 0.0, (1.0, 1.0, 1.0, 1.0)
        )
        params = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
        params[0] = 0.25
        kernel = KernelCache().get_or_bind(
            bit_program(0), (False, False, False, True),
            {0: texture}, params,
        )
        peaks = []
        for _ in range(2):  # the fetch memo is cold, then warm
            tracemalloc.start()
            try:
                result = kernel.run(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        expected = np.modf(texture.valid_values() * np.float32(0.25))[0]
        assert np.array_equal(result.color[3], expected)
        mb = 1024 * 1024
        # Cold: the texel-index arithmetic (int64/float64, 512 KB each)
        # dominates.  Warm: the MUL and FRC columns (256 KB each).
        assert peaks[0] < 4 * mb, peaks
        assert peaks[1] < 1 * mb, peaks


_TEMPS = 4
_ATTRIBS = ("COL0", "TEX0", "TEX1", "WPOS")
#: Values that stress sign of zero, FRC/FLR edges, RCP/LG2 poles.
_SPECIALS = np.array(
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.75, -7.25],
    dtype=np.float32,
)
_GENERAL_OPS = [
    op for op in Opcode if op not in (Opcode.TEX, Opcode.KIL)
]

_swizzles = st.one_of(
    st.sampled_from(["", ".x", ".y", ".z", ".w"]),
    st.lists(
        st.sampled_from("xyzw"), min_size=4, max_size=4
    ).map(lambda comps: "." + "".join(comps)),
)
_masks = st.lists(st.booleans(), min_size=4, max_size=4).map(
    lambda flags: "".join(c for c, f in zip("xyzw", flags) if f)
)


@st.composite
def _source(draw, defined):
    kinds = ["f", "p", "lit"] + (["R"] * 3 if defined else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "R":
        body = f"R{draw(st.sampled_from(sorted(defined)))}"
    elif kind == "f":
        body = f"f[{draw(st.sampled_from(_ATTRIBS))}]"
    elif kind == "p":
        body = f"p[{draw(st.integers(0, 3))}]"
    else:
        values = draw(st.lists(
            st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 3.0]),
            min_size=4, max_size=4,
        ))
        body = "{" + ", ".join(repr(v) for v in values) + "}"
    sign = "-" if draw(st.booleans()) else ""
    return f"{sign}{body}{draw(_swizzles)}"


@st.composite
def _dest(draw, defined):
    kind = draw(st.sampled_from(["R", "R", "R", "COLR", "DEPR"]))
    mask = draw(_masks) or "xyzw"
    mask = "" if mask == "xyzw" else "." + mask
    if kind == "R":
        index = draw(st.integers(0, _TEMPS - 1))
        return f"R{index}{mask}", index
    return f"o[{kind}]{mask}", None


@st.composite
def _random_program(draw):
    """A short program over every opcode, random swizzles, negation
    and write masks, partial writes into fresh temporaries followed by
    reads of their unwritten components, and swizzled KILs."""
    defined: set[int] = set()
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(_GENERAL_OPS + [Opcode.TEX, Opcode.KIL]))
        if op is Opcode.KIL:
            lines.append(f"KIL {draw(_source(defined))};")
            continue
        dest, index = draw(_dest(defined))
        if op is Opcode.TEX:
            unit = draw(st.integers(0, 1))
            coord = draw(st.sampled_from(["f[TEX0]", "f[TEX1]"]))
            if defined and draw(st.booleans()):
                coord = f"R{draw(st.sampled_from(sorted(defined)))}"
            coord += draw(_swizzles)
            lines.append(f"TEX {dest}, {coord}, TEX{unit}, 2D;")
        else:
            sources = [
                draw(_source(defined)) for _ in range(op.num_sources)
            ]
            lines.append(f"{op.mnemonic} {dest}, {', '.join(sources)};")
        if index is not None:
            defined.add(index)
    if defined and draw(st.booleans()):
        lines.append(
            f"MOV o[COLR], R{draw(st.sampled_from(sorted(defined)))}"
            f"{draw(_swizzles)};"
        )
    return _program(lines)


def _textures(rng):
    """Two small textures with random channel counts (1-4), so fetches
    exercise every fill convention."""
    textures = {}
    for unit in range(2):
        channels = int(rng.integers(1, 5))
        columns = [
            rng.choice(_SPECIALS, size=16) for _ in range(channels)
        ]
        textures[unit] = Texture.from_columns(columns, shape=(4, 4))
    return textures


def _special_batch(rng, count, token):
    attrs = {}
    for name in _ATTRIBS:
        values = rng.uniform(-2.0, 2.0, size=(count, 4)).astype(
            np.float32
        )
        specials = rng.random((count, 4)) < 0.3
        values[specials] = rng.choice(_SPECIALS, size=int(specials.sum()))
        attrs[FragmentAttrib[name]] = values
    return FragmentBatch(count=count, attributes=attrs, geometry_token=token)


def _same_bits(a, b):
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint32), b[~nan].view(np.uint32)
    )


class TestPerComponentDifferential:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        program=_random_program(),
        live=st.tuples(*[st.booleans()] * 4),
        seed=st.integers(0, 2**32 - 1),
        memoized=st.booleans(),
    )
    def test_observed_components_match_interpreter(
        self, program, live, seed, memoized
    ):
        """Every component a stage could observe under ``live`` —
        those color components, the depth, the kill mask and the
        instruction count — equals the interpreter's, bit for bit."""
        rng = np.random.default_rng(seed)
        textures = _textures(rng)
        parameters = rng.choice(_SPECIALS, size=(NUM_PARAMETERS, 4))
        batch = _special_batch(
            rng, 24, ("geometry",) if memoized else None
        )
        with np.errstate(all="ignore"):
            interp = ProgramInterpreter(textures, parameters).run(
                program, batch
            )
            jit = KernelCache().get_or_bind(
                program, live, textures, parameters
            ).run(batch)
        for c in range(4):
            if live[c]:
                assert _same_bits(interp.color[c], jit.color[c]), c
            else:
                assert jit.color[c] is None, c
        if interp.depth is None:
            assert jit.depth is None
        else:
            assert _same_bits(interp.depth, jit.depth)
        if interp.killed is None:
            assert jit.killed is None
        else:
            assert np.array_equal(interp.killed, jit.killed)
        assert interp.instructions_executed == jit.instructions_executed
