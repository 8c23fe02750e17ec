"""Episode streams: numpy's SeedSequence -> PCG64, derived on whole arrays.

episode_rng derives the draws of qgdrive.experiments' seeded contract for a
chunk of episodes in one vectorized pass, equal bit for bit to numpy's
SeedSequence -> PCG64 for each episode; its docstring maps each draw to its
PCG64 output. numpy itself is the oracle of the stream, row and gate tests
in tests/test_experiments.py.
"""

import numpy as np

from .classical_game import _require_int

# The derivation: SeedSequence's pool hashing and generate_state(4, uint64)
# in uint32 words (NumPy NEP 19, numpy/random/bit_generator.pyx), then
# PCG64's seeding and XSL-RR output with each 128-bit state as (high, low)
# uint64 halves (O'Neill, PCG, HMC-CS-2014-0905). Every operand is a numpy
# uint32 or uint64, so the arithmetic wraps and the dtypes do not depend on
# numpy's casting rules.
_U32, _U64 = np.uint32, np.uint64
_LOW32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# row_batch takes _ROWS streams at a time, each row in blocks of _JUMP
# outputs. On a 2-core Xeon with numpy 2.4.6, 305 outputs of 500 streams
# took 3.4 ms in blocks of 16 against 9.0 ms stepping every output (8 and
# 32 were slower), and episode_rng with 299-double rows for 500 streams
# took 6.0, 4.7 and 4.4 ms in batches of 128, 256 and 512. A batch of 256
# such rows is 0.6 MB.
_ROWS, _JUMP = 256, 16


def _hasher(const: int, mult: int):
    """SeedSequence's hash of a uint32 array, with its running constant."""
    def hash32(value):
        nonlocal const
        value = value ^ _U32(const)
        const = const * mult & _LOW32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hash32


def _mix(x, y):
    r = _U32(0xCA01F9DD) * x - _U32(0x4973F715) * y
    return r ^ (r >> _U32(16))


def _seed_state(master_seed: int, index: np.ndarray) -> list:
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)
    for each i in the uint64 array `index`, as four uint64 arrays. The run
    entropy's words are the same for every episode; only the spawn key's
    differ, one word below 2**32 and two from there on."""
    hash32 = _hasher(0x43B0D7E5, 0x931E8875)
    run = [master_seed & _LOW32]
    while master_seed > _LOW32:
        master_seed >>= 32
        run.append(master_seed & _LOW32)
    words = [np.array([w], _U32) for w in run + [0] * (4 - len(run))]
    words += [(index & _U64(_LOW32)).astype(_U32), (index >> _U64(32)).astype(_U32)]
    pool = [hash32(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash32(pool[src]))
    for w in words[4:-1]:
        pool = [_mix(p, hash32(w)) for p in pool]
    wide = index > _U64(_LOW32)
    pool = [np.where(wide, _mix(p, hash32(words[-1])), p) for p in pool]
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    w32 = [out(pool[k % 4]).astype(_U64) for k in range(8)]
    return [w32[2 * j] | (w32[2 * j + 1] << _U64(32)) for j in range(4)]


def _affine(hi, lo, mult: int, add_hi, add_lo):
    """hi:lo * mult + add_hi:add_lo mod 2**128 on (high, low) uint64 halves,
    for a Python int mult; the low halves' 64x64-bit product is split into
    32-bit limbs. PCG64's step is mult _PCG_MULT and add its increment."""
    m_hi, m_lo = _U64(mult >> 64), _U64(mult & 0xFFFFFFFFFFFFFFFF)
    a0, a1 = lo & _U64(_LOW32), lo >> _U64(32)
    b0, b1 = m_lo & _U64(_LOW32), m_lo >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_LOW32)) + (p10 & _U64(_LOW32))
    carry = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    new_lo = lo * m_lo + add_lo
    return carry + hi * m_lo + lo * m_hi + add_hi + (new_lo < add_lo), new_lo


def _xsl_rr(hi, lo):
    """PCG64's output: hi ^ lo rotated right by hi's top six bits."""
    x, rot = hi ^ lo, hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


def _double(x):
    """numpy's random() double from a 64-bit output."""
    return (x >> _U64(11)) * (1.0 / 9007199254740992.0)


def _generator(hi: int, lo: int, inc_hi: int, inc_lo: int):
    """A numpy Generator on PCG64 at state hi:lo with increment inc_hi:inc_lo.
    numpy 2 loads numpy.random, about 15 ms, on first use."""
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": int(hi) << 64 | int(lo), "inc": int(inc_hi) << 64 | int(inc_lo)}}
    return gen


def row_batch(hi, lo, inc_hi, inc_lo, width: int):
    """The next `width` random() draws of each PCG64 stream at state hi:lo
    with increment inc_hi:inc_lo (uint64 arrays, one stream per element), as
    a (streams, width) array.

    Output t's state is mult**t * state + (1 + mult + ... + mult**(t-1)) *
    inc mod 2**128. So the first block of _JUMP outputs is stepped one
    output at a time, and each later block is the block before it under
    one affine map, with t = _JUMP. A zero width is an empty (streams, 0)
    array."""
    if not width:
        return np.empty((len(lo), 0))
    step = min(_JUMP, width)
    jump = pow(_PCG_MULT, step, 2**128)
    bump = sum(pow(_PCG_MULT, t, 2**128) for t in range(step)) % 2**128
    his, los = np.empty((2, len(lo), step), _U64)
    for t in range(step):
        hi, lo = _affine(hi, lo, _PCG_MULT, inc_hi, inc_lo)
        his[:, t], los[:, t] = hi, lo
    bump_hi, bump_lo = (b[:, None] for b in _affine(inc_hi, inc_lo, bump, _U64(0), _U64(0)))
    batch = np.empty((len(los), width))
    for c in range(0, width, step):
        if c:
            his, los = _affine(his[:, :width - c], los[:, :width - c], jump, bump_hi, bump_lo)
        batch[:, c:c + step] = _double(_xsl_rr(his, los))
    return batch


def _rows(hi, lo, inc_hi, inc_lo, width: int):
    """row_batch's rows, one array per stream, derived _ROWS streams at a
    time. Each row is a copy, so the row a consumer still holds does not keep
    its batch alive while the next batch is derived."""
    for r in range(0, len(lo), _ROWS):
        cut = slice(r, r + _ROWS)
        yield from map(np.copy, row_batch(hi[cut], lo[cut], inc_hi[cut], inc_lo[cut], width))


def _streams(hi, lo, inc_hi, inc_lo, choices: "int | None"):
    """episode_rng's (doubles, gates, rows, resume) for PCG64 streams at
    seeded states hi:lo with increments inc_hi:inc_lo, one stream per
    element of the uint64 arrays."""
    doubles, gates = np.empty((len(lo), 6)), None
    state = hi, lo
    for t in range(6):
        state = _affine(*state, _PCG_MULT, inc_hi, inc_lo)
        doubles[:, t] = _double(_xsl_rr(*state))
    if choices is not None:
        # numpy's integers(choices): Lemire's bounded draw on the seventh
        # output's low word, rejected only when the product's low word is
        # below (2**32 - choices) % choices; numpy then reads the high word
        word = _xsl_rr(*_affine(*state, _PCG_MULT, inc_hi, inc_lo)) & _U64(_LOW32)
        m = word * _U64(choices)
        gates = np.where(m & _U64(_LOW32) < _U64((2**32 - choices) % choices), -1,
                         (m >> _U64(32)).astype(np.int64))
    return (doubles, gates, lambda width: _rows(*state, inc_hi, inc_lo, width),
            lambda j: _generator(state[0][j], state[1][j], inc_hi[j], inc_lo[j]))


def episode_rng(master_seed: int, index: int, count: "int | None" = None,
                choices: "int | None" = None):
    """Episode `index`'s stream, equal bit for bit to numpy's
    default_rng(SeedSequence(master_seed, spawn_key=(index,))). index +
    count must not exceed 2**64.

    With count=None, that episode's Generator at the start of its stream.
    With a count, the streams of episodes index .. index + count - 1,
    derived in one vectorized pass, as (doubles, gates, rows, resume):
    - doubles, a (count, 6) array of each stream's first six random()
      draws, PCG64 outputs 1 .. 6.
    - gates, with choices given: each stream's integers(choices) right
      after the six, from output 7's low word, as an int array; -1 where
      numpy would reject that word and read on, about once in 2**32
      streams at five choices. None without choices.
    - rows(width), an iterator of one array per stream, in order: the
      `width` random() draws right after the six, outputs 7 .. 6 + width.
      A uniform QG_G4's own replay block starts at output 8, the row's
      second draw, since its gate takes output 7's low word and random()
      never reads the high one. The rows come from row_batch, _ROWS
      streams at a time, so a chunk's are never all held.
    - resume(j), a numpy Generator on episode index + j's stream just after
      the six: the fallback for a -1 gate, and the only draw that loads
      numpy.random.
    """
    _require_int("master_seed", master_seed, 0)
    _require_int("index", index, 0)
    if count is not None:
        _require_int("count", count, 0)
    if choices is not None:
        _require_int("choices", choices, 2)
        if choices > _LOW32:
            raise ValueError(f"choices must be below 2**32, got {choices}")
    n = 1 if count is None else count
    if index + n > 2**64:
        raise ValueError(f"index + count must not exceed 2**64, got {index} + {n}")
    s0, s1, s2, s3 = _seed_state(master_seed, np.arange(index, index + n, dtype=_U64))
    # PCG64's seeding: inc = seq << 1 | 1, state = (inc + initial) stepped once
    inc_hi, inc_lo = (s2 << _U64(1)) | (s3 >> _U64(63)), (s3 << _U64(1)) | _U64(1)
    lo = inc_lo + s1
    hi, lo = _affine(inc_hi + s0 + (lo < s1), lo, _PCG_MULT, inc_hi, inc_lo)
    if count is None:
        return _generator(hi[0], lo[0], inc_hi[0], inc_lo[0])
    return _streams(hi, lo, inc_hi, inc_lo, choices)


class _Derived:
    """A uniform QG_G4's draws past an episode's shared six, as episode_rng
    derives them: the Generator calls episode_decision makes, integers for
    its gate and then random for its own replay block, read from the row."""

    __slots__ = ("gate", "row")

    def __init__(self, gate: int, row):
        self.gate, self.row = gate, row

    def integers(self, choices):
        return self.gate

    def random(self, size):
        return self.row[1:1 + size]

