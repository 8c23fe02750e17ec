"""Seeded Monte Carlo comparison of decision policies on the two scenarios.

Episode i draws its randomness from a generator derived from (master_seed, i)
alone, so any episode is reproducible in isolation. Each episode consumes
draws in a fixed order: initial states, the EV decision uniform, the IV
decision uniform, then any policy-internal draws (a uniform QG_G4's opponent
gate, then the replay draws). The replay draws are one block of
2*(horizon - 1) uniforms, taken with one `random(k)` call, which equals k
scalar draws bit for bit; without replay nothing is drawn after the gate.
A uniform QG_G4 reads its own block, drawn right after its gate, and the
others share the one after the two uniforms; so a gate that fixes its law
(see below) skips that block without moving any other draw.

The loop is episode-major: a comparison takes each episode's initial states
and both decision uniforms once, and every policy decides and integrates
from those same values (common random numbers). A policy's row therefore
does not depend on which other policies run beside it, or in what order.
episode_rng derives all of these draws for a chunk of episodes in one
vectorized pass, equal bit for bit to numpy's SeedSequence -> PCG64 for
each episode: the six doubles (PCG64 outputs 1 .. 6); a uniform QG_G4's
gate, as numpy's integers(5) draws it from the low 32 bits of output 7;
and under replay the shared block (outputs 7 .. 6 + k) and that QG_G4's
own (outputs 8 .. 7 + k, as random() never reads output 7's high half,
which integers buffers). numpy itself is the oracle of the stream, row and
gate tests in tests/test_experiments.py. Only where numpy would reject the
gate's word and read on, about once in 2**32 episodes, does a run build a
numpy Generator on the episode's stream, and so load numpy.random, to draw
that gate and the block after it.

The episodes go in chunks of _CHUNK, each in three passes (decide, integrate
the held joint actions in one batch, tally); run_comparison's docstring
states them and which (episode, policy) pairs are held under replay.

Each policy is one row of POLICIES: the scenario it runs on and what
decides for it. Game-backed policies act by sampling their joint outcome
distribution: the EV action comes from the policy's EV marginal, the IV
action from the distribution conditioned on that EV action, each by
comparing a uniform with the distribution's fixed inverse-CDF thresholds
(computed once per distribution and run, and read by the start and every
replayed decision). Only CG-EPD and the two QG-U1 presets have a uniform IV
conditional, which reduces to an independent 50/50 IV draw shared across
policies. CG-MS and QG-G4 do not: QG_G4[Z]'s law is (0, 1, 0, 0), so its
IV decelerates in every episode, and each of the uniform opponent model's
five gate laws fixes the IV's action given the EV's. IDM/MOBIL's rule
computes the EV action from the state; their IV stays on the 50/50 draw.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .classical_game import (
    OutcomeDistribution,
    TwoPlayerGame,
    _require_int,
    builtin_game,
    cg_epd_distribution,
    cg_ms_distribution,
    read_key_values,
    write_csv,
)
from .quantum_game import (
    GATE_ORDER,
    QuantumGate,
    as_gate,
    play,
    preset,
)
from .scenario_sim import (
    ScenarioConfig,
    builtin_scenario,
    idm_entry_decision,
    mobil_merge_decision,
    run_episode,
    run_episodes,
    sample_initial,
)

# Report name -> (the one scenario kind the policy runs on, or None for both;
# what decides for it): a game policy's law builder, (game, assumed_gate) ->
# OutcomeDistribution or policy_distributions' tuple, or a driver baseline's
# rule, (scenario, ev_s, ev_v, iv_s, iv_v) -> EV action, taken before the EV
# leaves its entry lane. The lambdas look their functions up at call time, so
# a tracer that swaps them sees each call.
POLICIES = {
    "CG_EPD": (None, lambda game, gate: cg_epd_distribution()),
    "CG_MS": (None, lambda game, gate: cg_ms_distribution(game)),
    "QG_U1_1": (None, lambda game, gate: play(preset("QG_U1_1"))),
    "QG_U1_2": (None, lambda game, gate: play(preset("QG_U1_2"))),
    "QG_G4": (None, lambda game, gate: (
        tuple(play(preset("QG_G4", g)) for g in GATE_ORDER) if gate == "uniform"
        else play(preset("QG_G4", gate)))),
    "IDM": ("roundabout", lambda *state: idm_entry_decision(*state)),
    "MOBIL": ("merging", lambda *state: mobil_merge_decision(*state)),
}


@dataclass(frozen=True)
class PolicySpec:
    """A POLICIES row by name; assumed_gate configures QG-G4's opponent
    model: a single gate, as a letter or a QuantumGate (default 'Z'), or
    'uniform' for a per-episode uniform draw over the five gates."""

    name: str
    assumed_gate: "str | QuantumGate" = "Z"

    def __post_init__(self):
        gate = self.assumed_gate
        if not isinstance(self.name, str) or not isinstance(gate, (str, QuantumGate)):
            raise ValueError(f"a policy takes a str name and a str or QuantumGate assumed_gate, "
                             f"got {self.name!r} and {gate!r}")
        canon = self.name.strip().upper().replace("-", "_")
        object.__setattr__(self, "name", canon)
        if canon not in POLICIES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {tuple(POLICIES)}")
        gate = gate.strip() if isinstance(gate, str) else gate
        uniform = isinstance(gate, str) and gate.lower() == "uniform"
        object.__setattr__(self, "assumed_gate", "uniform" if uniform else as_gate(gate).value)

    def label(self) -> str:
        """Report label; QG_G4 carries its opponent-gate model."""
        if self.name == "QG_G4":
            return f"QG_G4[{self.assumed_gate}]"
        return self.name


@dataclass(frozen=True)
class MonteCarloConfig:
    scenario: ScenarioConfig
    game: TwoPlayerGame
    episodes: int
    master_seed: int

    def __post_init__(self):
        _require_int("episodes", self.episodes, 1)
        _require_int("master_seed", self.master_seed, 0)


@dataclass(frozen=True)
class MetricsSummary:
    scenario: str
    method: str
    episodes: int
    cr: float               # collision rate, fraction
    sr: float               # success rate, fraction
    mean_headway_m: float   # mean over episodes of per-episode mean headway
    cr_ci95: float          # Wilson 95% halfwidth for cr


# Episode streams are numpy's default_rng(SeedSequence(master_seed,
# spawn_key=(i,))), computed here on whole arrays of episodes: SeedSequence's
# pool hashing and generate_state(4, uint64) in uint32 words (NumPy NEP 19,
# numpy/random/bit_generator.pyx), then PCG64's seeding and XSL-RR output
# with each 128-bit state as (high, low) uint64 halves (O'Neill, PCG,
# HMC-CS-2014-0905). Every operand is a numpy uint32 or uint64, so the
# arithmetic wraps and the dtypes do not depend on numpy's casting rules.
_U32, _U64 = np.uint32, np.uint64
_LOW32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# _rows derives _ROWS streams' rows at a time, each row in blocks of _JUMP
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


def _rows(hi, lo, inc_hi, inc_lo, width: int):
    """The next `width` random() draws of each PCG64 stream at state hi:lo
    with increment inc_hi:inc_lo (uint64 arrays, one stream per element), as
    an array row per stream, derived _ROWS streams at a time.

    Output t's state is mult**t * state + (1 + mult + ... + mult**(t-1)) *
    inc mod 2**128. So the first block of _JUMP outputs is stepped one
    output at a time, and each later block is the block before it under
    one affine map, with t = _JUMP."""
    step = min(_JUMP, width)
    jump = pow(_PCG_MULT, step, 2**128)
    bump = sum(pow(_PCG_MULT, t, 2**128) for t in range(step)) % 2**128
    for r in range(0, len(lo), _ROWS):
        cut = slice(r, r + _ROWS)
        state, inc = (hi[cut], lo[cut]), (inc_hi[cut], inc_lo[cut])
        his, los = np.empty((2, len(state[1]), step), _U64)
        for t in range(step):
            state = _affine(*state, _PCG_MULT, *inc)
            his[:, t], los[:, t] = state
        bump_hi, bump_lo = (b[:, None] for b in _affine(*inc, bump, _U64(0), _U64(0)))
        batch = np.empty((len(los), width))
        for c in range(0, width, step):
            if c:
                his, los = _affine(his[:, :width - c], los[:, :width - c], jump, bump_hi, bump_lo)
            batch[:, c:c + step] = _double(_xsl_rr(his, los))
        yield from batch


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
    """Episode `index`'s independent stream, keyed by (master_seed, index):
    equal bit for bit to numpy's default_rng(SeedSequence(master_seed,
    spawn_key=(index,))), which tests/test_experiments.py's oracle tests
    check. index + count must not exceed 2**64.

    With count=None, that episode's Generator at the start of its stream.
    With a count, the streams of episodes index .. index + count - 1,
    derived in one vectorized pass, as (doubles, gates, rows, resume):
    - doubles, a (count, 6) array of each stream's first six random()
      draws, the contract's ev_s, ev_v, iv_s, iv_v, u_ev and u_iv.
    - gates, with choices given: each stream's integers(choices) right
      after the six, from the seventh output's low word, as an int array;
      -1 where numpy would reject that word and read on, about once in
      2**32 streams at five choices. None without choices.
    - rows(width), an iterator of one array per stream, in order: the
      `width` random() draws right after the six. Under replay the first k
      are the shared replay block, and a uniform QG_G4's own block is the
      k after the first, since its gate takes the seventh output's low
      word and random() never reads the high one. The rows are derived a
      few hundred streams at a time, so a chunk's are never all held.
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


def wilson_halfwidth(successes: int, n: int) -> float:
    """Halfwidth of the 95% Wilson score interval for a binomial fraction."""
    if n <= 0:
        return 0.0
    z = 1.959963984540054  # two-sided 95% normal quantile
    phat = successes / n
    denom = n + z * z
    return z * math.sqrt(phat * (1.0 - phat) * n + z * z / 4.0) / denom


def _check_compatible(policy: PolicySpec, scenario: ScenarioConfig) -> None:
    kind = POLICIES[policy.name][0]
    if kind not in (None, scenario.kind):
        raise ValueError(f"{policy.name} is a {kind}-only baseline; "
                         f"it has no decision to take on the {scenario.kind} scenario")


def policy_distributions(policy: PolicySpec, game: TwoPlayerGame):
    """Outcome distribution(s) backing a game policy, from its POLICIES
    row's law builder, or None for a driver baseline (IDM/MOBIL).

    Returns a single OutcomeDistribution for fixed policies, or a tuple of
    five (one per opponent gate, GATE_ORDER) for QG_G4 with the uniform
    opponent model.
    """
    kind, decide = POLICIES[policy.name]
    return None if kind else decide(game, policy.assumed_gate)


def _sample_joint(thresholds: tuple, u_ev: float, u_iv: float) -> tuple[int, int]:
    """Invert a joint distribution at its fixed thresholds (its
    OutcomeDistribution.thresholds, which a replay callback binds once per
    episode): EV from its marginal, IV from the conditional given the EV
    action. Keeps the exact joint law while sharing the two uniforms across
    policies; a uniform on a threshold takes action 1."""
    p_ev0, p_iv0_ev0, p_iv0_ev1 = thresholds
    if u_ev < p_ev0:
        return 0, (0 if u_iv < p_iv0_ev0 else 1)
    return 1, (0 if u_iv < p_iv0_ev1 else 1)


def _fixed_law(dist: OutcomeDistribution) -> bool:
    """Whether _sample_joint takes one joint action from `dist` at every pair
    of uniforms: P(A=0) is exactly 0.0 or 1.0, and so is the conditional
    threshold of the one EV action that can be drawn. A uniform u in [0, 1)
    is always below 1.0 and never below 0.0, so a replayed decision under
    such a law repeats the start decision, and the replayed episode is the
    held one. A threshold just below 1.0 (QG_U1_1's P(A=0) is
    0.9999999999999998) is not fixed."""
    p_ev0, p_iv0_ev0, p_iv0_ev1 = dist.thresholds
    if p_ev0 == 1.0:
        return p_iv0_ev0 in (0.0, 1.0)
    return p_ev0 == 0.0 and p_iv0_ev1 in (0.0, 1.0)


def episode_decision(policy, scenario, dists, rng, ev, iv, u_ev, u_iv, uniforms=None):
    """Episode-start (EV action, IV action), and the episode's replay
    callback `(ev_s, ev_v, iv_s, iv_v) -> (EV action, IV action)` or None
    if the episode is held, for `dists` from policy_distributions.

    The start takes the episode's shared EV and IV uniforms; a uniform QG_G4
    then draws its opponent gate from `rng`, and IDM/MOBIL apply their rule
    to the positions and speeds of `ev` and `iv`. `uniforms` is the episode's
    replay block: the 2*(horizon - 1) uniforms that follow the shared two in
    the episode stream, drawn with one `random(k)` call. Without it, and
    for a fixed law (_fixed_law), whose replays would repeat the start, the
    callback is None and nothing more is drawn. Each callback call reads
    the block's next two uniforms for a game policy, or the next one, the
    IV's, for IDM/MOBIL, whose rule reads the state the callback is given. A
    uniform QG_G4 draws its gate first, so it reads a block of its own,
    drawn from `rng` after the gate.

    `rng` is read through its integers(n) and random(k) calls only: a numpy
    Generator on the episode's stream just after the shared six, or
    run_comparison's _Derived, which answers both calls from the row that
    episode_rng derived.
    """
    if dists is None:
        rule = POLICIES[policy.name][1]
        start = rule(scenario, ev.s, ev.v, iv.s, iv.v), 0 if u_iv < 0.5 else 1
        if uniforms is None:
            return start, None
        u_next = iter(uniforms).__next__

        def replay(ev_s, ev_v, iv_s, iv_v):
            return (rule(scenario, ev_s, ev_v, iv_s, iv_v),
                    0 if u_next() < 0.5 else 1)

        return start, replay
    dist = dists[int(rng.integers(len(dists)))] if isinstance(dists, tuple) else dists
    thresholds = dist.thresholds
    start = _sample_joint(thresholds, u_ev, u_iv)
    if uniforms is None or _fixed_law(dist):
        return start, None
    if dist is not dists:  # its gate comes before its block
        uniforms = rng.random(len(uniforms)).tolist()
    u_next = iter(uniforms).__next__

    def replay(ev_s, ev_v, iv_s, iv_v):
        return _sample_joint(thresholds, u_next(), u_next())

    return start, replay


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


# Episodes per kernel call. A chunk's lanes are its distinct held
# (episode, joint action) pairs, at most four per episode, so this bounds the
# kernel's arrays however many episodes a run has. Each call pays a fixed
# cost per step, so fewer, larger calls are faster up to a point: on merging
# with six policies at the CLI default of 10,000 episodes (2-core Xeon,
# CPython 3.11.7, numpy 2.4.6), run_comparison took 1.19, 1.07, 1.00 and
# 1.04 times as long with chunks of 512, 1024, 2048 and 4096 (the median
# ratio over 41 interleaved rounds), and 2048 is the smallest within 3% of
# the fastest. A chunk holds about 2 KB per episode: run_comparison's
# tracemalloc peak there is 3.7 MB at 2048, against 0.9 MB at 512. Under
# decision replay (roundabout, six policies with a uniform QG_G4, 10,000
# episodes) it is 4.0 MB at 2048 and 2.1 MB at 512, mostly replayed
# results: episode_rng derives the replay rows _ROWS episodes at a time.
_CHUNK = 2048


def run_comparison(policies, config: MonteCarloConfig) -> tuple[MetricsSummary, ...]:
    """Run every policy over the same episode set (same master seed), episode
    by episode; see the module docstring for what is drawn once and what per
    policy. Each report label may appear once; a repeat, like a policy on
    the wrong scenario, is rejected before anything runs.

    The episodes go in chunks of _CHUNK, each in three passes.
    (1) Derive every draw the chunk's episodes take with one vectorized
    episode_rng call, equal bit for bit to numpy's SeedSequence -> PCG64
    per episode: the six doubles, a uniform QG_G4's gate, and under replay
    the shared block and that QG_G4's own, in rows of a few hundred
    episodes at a time. Scale every initial state in one sample_initial
    call. Then, episode by episode, decide each (episode, policy) once with
    episode_decision, which reads a uniform QG_G4's draws from the derived
    row; only where numpy's bounded draw would reject the gate's word
    (about once in 2**32 episodes) does it read a Generator on the
    episode's stream. Without replay every
    policy is held for the whole episode. Under decision replay a game
    policy is held in an episode whose law is fixed (_fixed_law): P(A=0)
    and the drawn EV action's conditional are exactly 0.0 or 1.0, so no
    replayed uniform can change its decision. That is QG_G4[Z] and a
    uniform QG_G4 whose gate is X, Y, Z or I. Every other (episode, policy)
    replays here, through run_episode's scalar loop with its replay
    callback, since a replayed path depends on its own decisions and so is
    neither shared nor batched; it keeps its result.
    (2) Integrate the chunk's distinct held (episode, joint action) pairs,
    at most four per episode however many policies run, in one
    scenario_sim.run_episodes call.
    (3) Episode-major, read each held result through run_episode's `shared`
    lookup, and tally every (episode, policy). Why the scalar path stays
    and the lookup goes through run_episode is stated in run_episode's
    docstring.
    """
    specs = [p if isinstance(p, PolicySpec) else PolicySpec(str(p)) for p in policies]
    if not specs:
        raise ValueError("no policies given")
    labels = [spec.label() for spec in specs]
    for i, spec in enumerate(specs):
        _check_compatible(spec, config.scenario)
        if labels[i] in labels[:i]:
            raise ValueError(f"policy {labels[i]} is given more than once")
    scenario = config.scenario
    n = config.episodes
    dists = [policy_distributions(spec, config.game) for spec in specs]
    outcomes = [Counter() for _ in specs]
    headway_totals = [0.0] * len(specs)
    choices = next((len(d) for d in dists if isinstance(d, tuple)), None)
    k = 2 * (scenario.horizon - 1)

    def tally(j, result):
        outcomes[j][result.outcome] += 1
        headway_totals[j] += result.mean_headway

    def run_chunk(start, count):  # its arrays and results go when it returns
        # pass 1: one decision per (episode, policy): a held joint action,
        # or None and the replayed result. Only a uniform QG_G4 draws past
        # the shared block, and a label appears once, so the policies share
        # `rng`: the row's gate and own block, or the fallback Generator
        u, gates, rows, resume = episode_rng(config.master_seed, start, count, choices)
        episodes, replayed = [], []
        for j, ((ev0, iv0), (u_ev, u_iv), gate, row) in enumerate(zip(
                sample_initial(scenario, u[:, :4]), u[:, 4:].tolist(),
                [None] * count if gates is None else gates.tolist(),
                # the shared block, then one more draw for a uniform QG_G4's own
                rows(k + (choices is not None)) if scenario.decision_replay else [None] * count)):
            block = None if row is None else row[:k].tolist()
            rng = None if gate is None else resume(j) if gate < 0 else _Derived(gate, row)
            joints = []
            for spec, d in zip(specs, dists):
                joint, decide = episode_decision(spec, scenario, d, rng, ev0, iv0,
                                                 u_ev, u_iv, block)
                if decide is not None:
                    replayed.append(run_episode(scenario, ev0, iv0, *joint, decide=decide))
                    joint = None
                joints.append(joint)
            episodes.append((ev0, iv0, joints))
        # pass 2: each distinct held (episode, joint action), integrated once
        results = iter(run_episodes(scenario, (
            (ev0, iv0, *joint) for ev0, iv0, joints in episodes
            for joint in dict.fromkeys(joints) if joint is not None)))
        # pass 3: every held (episode, policy) reads its stored result, and
        # every (episode, policy) is tallied
        replayed = iter(replayed)
        for ev0, iv0, joints in episodes:
            shared = {joint: next(results) for joint in dict.fromkeys(joints)
                      if joint is not None}
            for j, joint in enumerate(joints):
                tally(j, next(replayed) if joint is None else
                      run_episode(scenario, ev0, iv0, *joint, shared=shared))

    for start in range(0, n, _CHUNK):
        run_chunk(start, min(_CHUNK, n - start))
    return tuple(
        MetricsSummary(
            scenario=scenario.kind,
            method=spec.label(),
            episodes=n,
            cr=counts["collision"] / n,
            sr=counts["success"] / n,
            mean_headway_m=headway_total / n,
            cr_ci95=wilson_halfwidth(counts["collision"], n),
        )
        for spec, counts, headway_total in zip(specs, outcomes, headway_totals)
    )


# ---------------------------------------------------------------------------
# Reports

REPORT_FIELDS = tuple(f.name for f in fields(MetricsSummary))


def emit_report(summaries, path, fmt: str = "csv") -> None:
    """Write the report file, one csv column or json key per MetricsSummary
    field (str of a float is its shortest round-trip repr); rates are
    fractions, not percent. An unknown fmt raises ValueError before the file
    is opened."""
    if fmt == "csv":
        write_csv(path, REPORT_FIELDS, zip(*map(astuple, summaries)))
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump([asdict(s) for s in summaries], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


# ---------------------------------------------------------------------------
# Experiment config files

def _int_at_least(lo: int):
    """read_key_values converter: an integer no smaller than lo."""
    def convert(text: str) -> int:
        n = int(text)
        if n < lo:
            raise ValueError(f"must be at least {lo}, got {n}")
        return n
    return convert


def _true_or_false(text: str) -> bool:
    """read_key_values converter: 'true' or 'false'."""
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def comparison(kind, policies, episodes, master_seed, assumed_gate=None,
               decision_replay=None, gate_name="assumed_gate"):
    """(specs, config) for a run_comparison of the named policies on the
    builtin scenario and game `kind`: the one builder behind both of
    `qgdrive simulate`'s inputs, its flags and an experiment file. An
    assumed_gate or decision_replay of None keeps PolicySpec's or
    ScenarioConfig's default. A gate given without a QG_G4 among the
    policies raises ValueError naming it as gate_name, since no policy
    would read it."""
    gate = {} if assumed_gate is None else {"assumed_gate": assumed_gate}
    specs = [PolicySpec(name, **gate) for name in policies]
    if gate and all(spec.name != "QG_G4" for spec in specs):
        raise ValueError(f"{gate_name} {assumed_gate!r} is read by qg-g4 only, "
                         "and no qg-g4 is among the policies")
    replay = {} if decision_replay is None else {"decision_replay": decision_replay}
    config = MonteCarloConfig(builtin_scenario(kind, **replay), builtin_game(kind),
                              episodes, master_seed)
    return specs, config


def load_experiment_config(path) -> tuple[list[PolicySpec], MonteCarloConfig]:
    """comparison() of an experiment file, parsed with read_key_values.

    Recognized keys: scenario.kind, episodes (positive), master_seed
    (non-negative), policy.name, and optionally policy.assumed_gate and
    decision_replay (true or false, default false). '#' starts a comment.
    A value the builder would reject is rejected at its line, a baseline on
    the other scenario at its policy.name.
    """
    values = read_key_values(
        path,
        {"scenario.kind": lambda kind: builtin_scenario(kind).kind,
         "episodes": _int_at_least(1), "master_seed": _int_at_least(0),
         "policy.name": lambda name: PolicySpec(name).name},
        {"policy.assumed_gate": lambda gate: PolicySpec("QG_G4", gate).assumed_gate,
         "decision_replay": _true_or_false},
    )
    specs, config = comparison(
        values["scenario.kind"], [values["policy.name"]], values["episodes"],
        values["master_seed"], values.get("policy.assumed_gate"),
        values.get("decision_replay"), f"{path}: policy.assumed_gate")
    try:
        _check_compatible(specs[0], config.scenario)
    except ValueError as e:
        raise ValueError(f"{path}: policy.name: {e}") from None
    return specs, config
