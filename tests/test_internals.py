"""Checks that only the package's private objects can reach.

Every other test goes through the public routes (``chsh_exact``, ``chsh_sampled``,
``joint_distribution``, ``sample_setting_products``, ``many_worlds_branches``,
``agreement_report``, ``main`` and the rest) and compares them with
``tests/oracle.py``. What stays here has no public route: the read-only flags and
the layout of the cached cell stack, its row map and its gather index; the signed
zeros and subnormals of a state's G; the cell build's checks under injected
faults, with nothing cached after a failure; and what the caches keep, one build
of the friend-record branches and one engine run per distinct backend ensemble,
with the same golden bytes from cold and warm caches. ``test_guard.py`` keeps
every other test module off these objects.
"""

import numpy as np
import pytest

import bellwigner.chsh as chsh
from bellwigner.chsh import (
    SETTING_PAIRS,
    chsh_exact,
    chsh_sampled,
    joint_distribution,
    sample_setting_products,
)
from bellwigner.interpretations import (
    _ENSEMBLE_BUILDERS,
    Branch,
    _bell_wigner_branches,
    agreement_report,
    many_worlds_branches,
)
from bellwigner.observables import Observable
from bellwigner.states import FULL_LAYOUT, StateVector, bell_wigner_state
from oracle import joint_cells, nonzero_entries
from test_chsh import random_full_state
from test_golden import CASES, GOLDEN_DIR, run_stdout
from test_interpretations import AGREEMENT_SCALES


@pytest.mark.parametrize("pair", SETTING_PAIRS)
def test_cached_outcome_cells_are_read_only(pair):
    _, whole, all_products, rows, gather = chsh._cells()
    assert whole.shape == (25, 36) and all_products.shape == (25,) and gather.shape == (2, 2, 36)
    assert whole.dtype == np.float64 and whole.flags.c_contiguous  # each row sums pairwise
    stack, products = whole[rows[pair]], all_products[rows[pair]]
    # a setting's cells are views of the one cached stack, not copies
    assert np.shares_memory(stack, whole) and np.shares_memory(products, all_products)
    for array in (whole, *whole, all_products, stack, *stack, products, gather, *gather):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(TypeError):
        rows[pair] = slice(0, 25)


def entries():
    """The (2, 36) (row, column) pairs of the cached stack's entries: the real slots of the
    cached gather index, halved."""
    return chsh._cells()[4][:, 0] // 2


def test_the_dropped_entries_are_zero_in_every_cell():
    _, stack, _, rows, gather = chsh._cells()
    assert list(rows.items()) == [((1, 1), slice(0, 9)), ((1, 0), slice(9, 15)),
                                  ((0, 1), slice(15, 21)), ((0, 0), slice(21, 25))]
    # each entry's real slots 2r and 2c are even, its imaginary slots the next ones
    assert not (gather[:, 0] % 2).any() and np.array_equal(gather[:, 1], gather[:, 0] + 1)
    full = np.concatenate([joint_cells(*pair)[1] for pair in SETTING_PAIRS])
    row, column = entries()
    columns = 16 * row + column
    assert np.array_equal(columns, np.unique(columns))  # 36 distinct flat entries, in order
    assert np.array_equal(columns, nonzero_entries())
    dropped = np.setdiff1d(np.arange(256), columns)
    assert len(dropped) == 220
    assert not full[:, dropped].any()
    assert np.array_equal(full[:, columns], stack)
    assert np.count_nonzero(stack) == 196


def two_gather_gram(source):
    """The reference G at the 36 entries: x[r]*x[c] + y[r]*y[c], gathered from the real and
    the imaginary parts apart; an ensemble's is the weighted sum from its first term."""
    if isinstance(source, StateVector):
        r, c = entries()
        x, y = source.amplitudes.real, source.amplitudes.imag
        return x[r] * x[c] + y[r] * y[c]
    terms = [branch.weight * two_gather_gram(branch.state) for branch in source]
    return sum(terms[1:], terms[0])


def crafted_states():
    """States whose G entries hold signed zeros and subnormals, and every basis ket."""
    zeros = np.full(16, complex(-0.0, 0.0))
    zeros[1::4], zeros[2::4], zeros[3::4] = complex(0.0, -0.0), complex(-0.0, -0.0), 0.0
    zeros[5] = 1.0
    tiny = zeros.copy()
    # 1e-160 squared is the subnormal 1e-320; 5e-324 is the least subnormal itself
    tiny[[0, 6, 9]] = complex(1e-160, -1e-160), complex(-5e-324, 1e-160), complex(0.0, 5e-324)
    kets = [phase * np.eye(16)[n] for n in range(16) for phase in (1.0, -1.0, 1j, -1j)]
    return [StateVector(FULL_LAYOUT, amps) for amps in [zeros, tiny, *kets]]


def test_one_gather_of_the_interleaved_amplitudes_gives_the_two_gather_gram_bit_for_bit():
    rng = np.random.default_rng(53)
    states = [bell_wigner_state(), *crafted_states()]
    states += [random_full_state(rng) for _ in range(2000)]
    pair = [Branch(0.25, random_full_state(rng), "a"), Branch(0.75, random_full_state(rng), "b")]
    assert len(_bell_wigner_branches()) == 4
    signed_zeros = subnormals = 0
    for source in [*states, _bell_wigner_branches(), pair]:
        gram, reference = chsh._gram(source), two_gather_gram(source)
        assert gram.shape == (36,) and gram.dtype == np.float64
        # int64 views tell -0.0 from 0.0 and compare subnormals by their bits
        assert gram.view(np.int64).tolist() == reference.view(np.int64).tolist()
        signed_zeros += np.count_nonzero(np.signbit(gram) & (gram == 0.0))
        subnormals += np.count_nonzero((gram != 0.0) & (abs(gram) < np.finfo(float).tiny))
    # the crafted states do reach G with -0.0 and with subnormal entries
    assert signed_zeros > 0 and subnormals > 0


OFF_DIAGONAL = np.zeros((4, 4), dtype=complex)
OFF_DIAGONAL[0, 1] = 0.5
# Hermitian and imaginary, on Alice's factors only, so it commutes with Bob's cells
IMAGINARY = np.zeros((4, 4), dtype=complex)
IMAGINARY[0, 1], IMAGINARY[1, 0] = 0.5j, -0.5j

# Alice's 4x4 side spectrum edited so that exactly one build-time check fails
BROKEN_SPECTRA = {
    # the cells still sum to the identity, but the cells of two projectors are not Hermitian
    "not Hermitian": lambda s: (
        (s[0][0], s[0][1] + OFF_DIAGONAL), (s[1][0], s[1][1] - OFF_DIAGONAL), *s[2:]),
    "matrix entries must be finite": lambda s: ((s[0][0], np.full((4, 4), np.nan)), *s[1:]),
    # Hermitian projectors that sum to the identity, but two are complex: the edited
    # Observable refuses them, before any cell is built
    "not real": lambda s: (
        (s[0][0], s[0][1] + IMAGINARY), (s[1][0], s[1][1] - IMAGINARY), *s[2:]),
    # Hermitian cells that miss half of one projector
    "sum to the identity": lambda s: ((s[0][0], 0.5 * s[0][1]), *s[1:]),
}


@pytest.fixture
def fresh_cells():
    """An empty cell cache, the one for all four settings, emptied again after the test."""
    chsh._cells.cache_clear()
    yield
    chsh._cells.cache_clear()


@pytest.mark.parametrize("message", BROKEN_SPECTRA)
def test_outcome_cells_are_checked_when_built(monkeypatch, fresh_cells, message):
    original = chsh.alice_observable
    edit = BROKEN_SPECTRA[message]

    def broken(setting):
        obs = original(setting)
        return Observable(obs.label, obs.matrix, edit(obs.spectrum))

    monkeypatch.setattr(chsh, "alice_observable", broken)
    for build in (chsh._cells, lambda: chsh._table(bell_wigner_state())):
        with pytest.raises(ValueError, match=message):
            build()
    for pair in SETTING_PAIRS:
        with pytest.raises(ValueError, match=message):
            joint_distribution(bell_wigner_state(), *pair)
        with pytest.raises(ValueError, match=message):
            sample_setting_products(bell_wigner_state(), *pair, 10, 1)
    for report in (chsh_exact, lambda state: chsh_sampled(state, 1000, 1)):
        with pytest.raises(ValueError, match=message):
            report(bell_wigner_state())
    assert chsh._cells.cache_info().currsize == 0


# Faults a thousand times the package's tolerance in Bob's setting-0 projectors: the first
# setting pair that holds them is the second, (1, 0), and its first cell is (1.0, 1.0)
SMALL_FAULTS = {
    r"outcome cell \(1\.0, 1\.0\) of setting \(1, 0\) is not Hermitian":
        lambda s: ((s[0][0], s[0][1] + 1e-9 * OFF_DIAGONAL.real), *s[1:]),
    r"outcome cells of setting \(1, 0\) sum to the identity only within 2\.828e-09":
        lambda s: ((s[0][0], (1.0 + 1e-9) * s[0][1]), *s[1:]),
}


@pytest.mark.parametrize("message", SMALL_FAULTS)
def test_the_stacked_cell_checks_name_the_first_failing_cell_or_setting(monkeypatch, fresh_cells,
                                                                        message):
    original = chsh.bob_observable

    def broken(setting):
        obs = original(setting)
        edit = SMALL_FAULTS[message]
        return obs if setting else Observable(obs.label, obs.matrix, edit(obs.spectrum))

    monkeypatch.setattr(chsh, "bob_observable", broken)
    with pytest.raises(ValueError, match=f"^{message}$"):
        chsh._cells()
    assert chsh._cells.cache_info().currsize == 0


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
@pytest.mark.parametrize("case", AGREEMENT_SCALES)
def test_agreement_runs_the_engine_once_per_distinct_ensemble(monkeypatch, case, sampled):
    import bellwigner.interpretations as interp

    scale, distinct, builds = AGREEMENT_SCALES[case]
    engine = interp.chsh_engine
    exact, sampled_run = engine.chsh_exact, engine.chsh_sampled
    runs = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            runs.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "chsh_exact", counted(exact))
    monkeypatch.setattr(engine, "chsh_sampled", counted(sampled_run))
    monkeypatch.setattr(interp, "many_worlds_branches", counted(many_worlds_branches))
    interp._bell_wigner_branches.cache_clear()
    report = agreement_report(scale, shots=1000, seed=11, sampled=sampled)
    assert runs.count("chsh_sampled" if sampled else "chsh_exact") == distinct
    assert runs.count("many_worlds_branches") == builds
    assert len(runs) == distinct + builds
    # a second call in the same process reads the cached branches
    runs.clear()
    assert agreement_report(scale, shots=1000, seed=11, sampled=sampled) == report
    assert runs.count("many_worlds_branches") == 0
    assert len(runs) == distinct

    # oracle: the engine run on every backend's ensemble in turn
    state = bell_wigner_state()
    for name, rule in _ENSEMBLE_BUILDERS.items():
        ensemble = many_worlds_branches(state) if rule(scale) else state
        expected = sampled_run(ensemble, 1000, 11) if sampled else exact(ensemble)
        assert repr(report.backends[name].to_dict()) == repr(expected.to_dict()), name
    assert report.all_equal == (distinct == 1)


def test_bell_wigner_state_and_branches_are_built_once():
    state = bell_wigner_state()
    assert bell_wigner_state() is state
    assert not state.amplitudes.flags.writeable
    cached = _bell_wigner_branches()
    assert type(cached) is tuple and _bell_wigner_branches() is cached
    fresh = many_worlds_branches(state)
    assert len(cached) == len(fresh) == 4
    for kept, built in zip(cached, fresh):
        assert kept.weight.hex() == built.weight.hex()
        assert kept.label == built.label
        assert kept.state.amplitudes.tobytes() == built.state.amplitudes.tobytes()


@pytest.mark.parametrize("name", ["agreement_macro", "agreement_macro_sampled", "chsh_sample"])
def test_golden_is_the_same_with_cold_and_warm_caches(name):
    # the Bell–Wigner state, its friend-record branches and the cell stack are built once
    # per process: the first call, which builds them, and a later one print the same bytes
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    for cached in (bell_wigner_state, _bell_wigner_branches, chsh._cells):
        cached.cache_clear()
    assert run_stdout(list(CASES[name])) == (0, golden)
    assert run_stdout(list(CASES[name])) == (0, golden)
