"""The parameter contract of the public API, table-driven.

Every integer, count, order, weight, step, tap, index and tolerance
parameter of a callable in ``hodgesp.__all__``, and of the public methods
in ``METHODS``, is tried with each bad value that applies and must raise a
ValueError naming it; every cochain, signal or basis bound to another
complex, or of the wrong order, likewise. The signature walk fails on a
public parameter that is neither in the table nor exempted, so a new entry
point cannot skip the contract.
"""

import importlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp as hs
import hodgesp._util as hu

from conftest import EDGES7, TRIS7

C = hs.build_complex(7, EDGES7, TRIS7)
OTHER = hs.build_complex(7, EDGES7, TRIS7)  # equal, but another complex
SKELETON = hs.build_complex(7, EDGES7)
SPEC = hs.HodgeFilterSpec(h_down=(1.0, 0.5))


def flow(c=C):
    return c.cochain(1, np.linspace(-1.0, 1.0, c.n1))


def signal(c=C, seed=0):
    rng = np.random.default_rng(seed)
    return hs.ComplexSignal.from_arrays(c, rng.standard_normal(c.n0),
                                        rng.standard_normal(c.n1),
                                        rng.standard_normal(c.n2))


def model(c=C):
    return hs.SCVarModel(c, (hs.SCVarLag(h11=hs.HodgeFilterSpec((0.5,))),))


# Public methods walked with the callables of ``hodgesp.__all__``.
METHODS = {
    "SimplicialComplex.num_simplices": C.num_simplices,
    "SimplicialComplex.cochain": C.cochain,
    "SimplicialComplex.zero_cochain": C.zero_cochain,
    "HodgeBasis.columns": hs.hodge_basis(C, 1).columns,
}


def target(name):
    return METHODS[name] if name in METHODS else getattr(hs, name)


# Valid keyword arguments of each callable the table covers.
VALID = {
    "build_complex": lambda: dict(num_vertices=3, edges=[(0, 1)]),
    "Cochain": lambda: dict(complex=C, order=1, values=np.ones(C.n1)),
    "betti": lambda: dict(c=C),
    "incidence": lambda: dict(c=C, k=1),
    "hodge_laplacian": lambda: dict(c=C, k=1),
    "lambda_max": lambda: dict(c=C, k=1),
    "hodge_basis": lambda: dict(c=C, k=1),
    "hodge_decompose": lambda: dict(c=C, x=flow()),
    "dirac_basis": lambda: dict(c=C),
    "HarmonicTerm": lambda: dict(epsilon=0.1, steps=2),
    "HodgeFilterSpec": lambda: dict(h_down=(1.0, -0.5), h_up=(0.0, 2)),
    "apply_filter": lambda: dict(c=C, k=1, spec=SPEC, x=flow()),
    "frequency_response": lambda: dict(c=C, k=1, spec=SPEC),
    "regularized_reconstruct": lambda: dict(
        c=C, f=flow(), mask=np.ones(C.n1, bool), alpha=0.5, beta=0.5),
    "build_dictionary": lambda: dict(c=C, k=1, specs=[SPEC]),
    "slepians": lambda: dict(c=C, edge_set=[0, 1, 2], frequency_set=[4, 5]),
    "sparse_code": lambda: dict(dictionary=np.eye(C.n1), x=flow(),
                                sparsity=2),
    "is_perfectly_recoverable": lambda: dict(c=C, k=1, freq_set=[4, 5],
                                             sample_set=[0, 1, 2]),
    "reconstruct_bandlimited": lambda: dict(
        c=C, k=1, freq_set=[4, 5], sample_set=[0, 1, 2],
        observed=[1.0, 0.0, -1.0]),
    "select_samples": lambda: dict(c=C, k=1, freq_set=[4, 5], m=3),
    "project_out_gradient": lambda: dict(c=C, flows=flow().values),
    "infer_triangles": lambda: dict(c=SKELETON, flows=np.ones((10, 2)),
                                    count=1),
    "LmsState": lambda: dict(complex=C, t_down=1, t_up=1, mu=0.1,
                             coefficients=np.zeros(3)),
    "lms_init": lambda: dict(c=C, t_down=1, t_up=1, mu=0.1),
    "lms_build_regressor": lambda: dict(c=C, window=[flow()] * 4, t_down=1,
                                        t_up=1),
    "scvar_simulate": lambda: dict(model=model(), steps=2,
                                   initial=[signal()]),
    "scvar_fit": lambda: dict(c=C, series=[signal(seed=t) for t in range(8)],
                              order=1, filter_order=1),
    "SimplicialComplex.num_simplices": lambda: dict(k=1),
    "SimplicialComplex.cochain": lambda: dict(order=1, values=np.ones(C.n1)),
    "SimplicialComplex.zero_cochain": lambda: dict(order=2),
    "HodgeBasis.columns": lambda: dict(idx=[4, 0, 9]),
}

INTEGER = (2.5, 2.0, True, -1, math.nan, math.inf, "3")
REAL = (True, -1, math.nan, math.inf, "3")
POSITIVE = REAL + (0.0,)
ORDER = INTEGER + (3,)
# Taps may be negative; a tap that is no real number, or is not finite,
# is rejected.
TAPS = tuple((0.5, v) for v in (True, math.nan, math.inf, "3"))

# (callable, parameter): the bad values it must reject.
CONTRACT = {
    ("build_complex", "num_vertices"): INTEGER,
    ("Cochain", "order"): ORDER,
    ("betti", "tol"): POSITIVE,
    ("incidence", "k"): ORDER + (0,),
    ("hodge_laplacian", "k"): ORDER,
    ("lambda_max", "k"): ORDER,
    ("lambda_max", "rtol"): POSITIVE,
    ("hodge_basis", "k"): ORDER,
    ("hodge_basis", "tol"): POSITIVE,
    ("hodge_decompose", "tol"): POSITIVE,
    ("dirac_basis", "tol"): POSITIVE,
    ("HarmonicTerm", "epsilon"): POSITIVE,
    ("HarmonicTerm", "steps"): INTEGER,
    ("HodgeFilterSpec", "h_down"): TAPS,
    ("HodgeFilterSpec", "h_up"): TAPS,
    ("apply_filter", "k"): ORDER,
    ("frequency_response", "k"): ORDER,
    ("regularized_reconstruct", "alpha"): REAL,
    ("regularized_reconstruct", "beta"): REAL,
    ("regularized_reconstruct", "p"): INTEGER + (0, 3),
    ("regularized_reconstruct", "q"): INTEGER + (0, 3),
    ("regularized_reconstruct", "max_iter"): INTEGER + (0,),
    ("regularized_reconstruct", "rtol"): POSITIVE,
    ("build_dictionary", "k"): ORDER,
    ("slepians", "m"): INTEGER + (0, 3),
    ("slepians", "tol"): POSITIVE,
    ("sparse_code", "sparsity"): INTEGER + (0,),
    ("sparse_code", "residual_tol"): REAL,
    ("is_perfectly_recoverable", "k"): ORDER,
    ("is_perfectly_recoverable", "tol"): POSITIVE,
    ("reconstruct_bandlimited", "k"): ORDER,
    ("reconstruct_bandlimited", "tol"): POSITIVE,
    ("select_samples", "k"): ORDER,
    ("select_samples", "m"): INTEGER + (0, 11),
    ("select_samples", "tol"): POSITIVE,
    ("project_out_gradient", "tol"): POSITIVE,
    ("infer_triangles", "count"): INTEGER,
    ("infer_triangles", "tol"): POSITIVE,
    ("LmsState", "t_down"): INTEGER,
    ("LmsState", "t_up"): INTEGER,
    ("LmsState", "mu"): POSITIVE,
    ("lms_init", "t_down"): INTEGER,
    ("lms_init", "t_up"): INTEGER,
    ("lms_init", "mu"): POSITIVE,
    ("lms_build_regressor", "t_down"): INTEGER,
    ("lms_build_regressor", "t_up"): INTEGER,
    ("scvar_simulate", "steps"): INTEGER,
    ("scvar_simulate", "noise_std"): tuple((0.1, v, 0.1) for v in REAL)
    + (0.1, (0.1, 0.1)),
    ("scvar_fit", "order"): INTEGER + (0,),
    ("scvar_fit", "filter_order"): INTEGER,
    ("SimplicialComplex.num_simplices", "k"): ORDER,
    ("SimplicialComplex.cochain", "order"): ORDER,
    ("SimplicialComplex.zero_cochain", "order"): ORDER,
    ("HodgeBasis.columns", "idx"): ([0.5, 1.7], [True, False], [math.nan],
                                   ["3"], 2.0),
}

# Parameters that carry data, not a number: cochains, signals, bases,
# complexes and models are covered by test_binding_is_checked; the rest
# are arrays, index sets, filter specs, flags and keyword choices that
# their own tests check.
EXEMPT_NAMES = {
    "c", "complex", "x", "x0", "x1", "x2", "x_t", "y_t", "f", "basis",
    "window", "history", "initial", "series", "model", "state",
    "values", "mask", "flows", "projected_flows", "coeffs", "coefficients",
    "observed", "dictionary", "edges", "triangles", "cells", "edge_set",
    "frequency_set", "freq_set", "sample_set", "text", "spec", "specs",
    "spec_11", "spec_01", "spec_21", "harmonic",
    "variant", "criterion", "sparse", "dense", "include_cross", "rng",
    "h00", "g01", "h01", "h11", "g10", "h10", "g12", "h12", "g21", "h21",
    "h22", "lags",
}
# Result types: the library builds them, after checking what it was given.
RESULTS = {
    "SimplicialComplex", "DiracOperator", "HodgeDictionary", "SlepianSet",
    "Recoverability", "DiracBasis", "FrequencyEntry", "HodgeBasis",
    "HodgeComponents", "TftCoefficients",
}


def public_parameters():
    for name in (*hs.__all__, *METHODS):
        obj = target(name)
        if name in RESULTS or (inspect.isclass(obj)
                               and issubclass(obj, Exception)):
            continue
        for param in inspect.signature(obj).parameters:
            yield name, param


def test_every_public_parameter_is_in_the_contract():
    public = set(public_parameters())
    loose = [pair for pair in public
             if pair not in CONTRACT and pair[1] not in EXEMPT_NAMES]
    assert not loose, f"parameters outside the contract: {sorted(loose)}"
    assert set(CONTRACT) <= public, "the table names a parameter that is gone"


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_pass(name):
    target(name)(**VALID[name]())


CASES = [(name, param, bad) for (name, param), values in CONTRACT.items()
         for bad in values]


@pytest.mark.parametrize("name, param, bad", CASES, ids=[
    f"{name}-{param}-{bad!r}" for name, param, bad in CASES])
def test_bad_value_is_rejected_by_name(name, param, bad):
    kwargs = VALID[name]()
    kwargs[param] = bad
    with pytest.raises(ValueError, match=rf"\b{re.escape(param)}\b"):
        target(name)(**kwargs)


# The band consumers share one cached fit per complex. Each bad value is
# tried after a call with valid arguments has filled it, so no check may
# hide behind a cache hit; index sets are named in words.
SET_LABELS = {"freq_set": "frequency set", "frequency_set": "frequency set",
              "sample_set": "sample set", "edge_set": "edge set"}
BAD_SETS = ([], [4, 4], [-1], [C.n1], [4.0], ["4"], np.array([4.5]),
            np.array([True]), [True, 2])
WARM = {
    "is_perfectly_recoverable": {
        "k": ORDER, "tol": POSITIVE, "freq_set": BAD_SETS,
        "sample_set": BAD_SETS,
        "basis": (hs.hodge_basis(OTHER, 1), hs.hodge_basis(C, 0))},
    "reconstruct_bandlimited": {
        "k": ORDER, "tol": POSITIVE, "freq_set": BAD_SETS,
        "sample_set": BAD_SETS,
        "basis": (hs.hodge_basis(OTHER, 1), hs.hodge_basis(C, 2)),
        "observed": ([1.0, 0.0], [[1.0, 0.0, -1.0]], [math.nan, 0.0, 0.0],
                     [0.0, math.inf, 0.0])},
    "slepians": {
        "tol": POSITIVE, "frequency_set": BAD_SETS, "edge_set": BAD_SETS,
        "basis": (hs.hodge_basis(OTHER, 1), hs.hodge_basis(C, 0))},
}
WARM_CASES = [(name, param, bad) for name, params in WARM.items()
              for param, values in params.items() for bad in values]


@pytest.mark.parametrize("name, param, bad", WARM_CASES, ids=[
    f"{name}-{param}-{i}" for i, (name, param, _) in enumerate(WARM_CASES)])
def test_warm_fit_still_rejects_bad_values_by_name(name, param, bad):
    kwargs = VALID[name]()
    target(name)(**kwargs)
    kwargs[param] = bad
    label = SET_LABELS.get(param, param)
    with pytest.raises(ValueError, match=rf"\b{re.escape(label)}\b"):
        target(name)(**kwargs)


def raised(call):
    """The type and message of the exception ``call`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


# The sampled fit checks its sets in full only when the slot misses, which
# a bad set always does; sets that form no integer array skip the key.
HELD_BAD_SETS = BAD_SETS + (np.array([2**64 - 1], dtype=np.uint64),
                            np.array([[4, 5]]), (4, 5, 4), {4, 4.5}, 5)


@pytest.mark.parametrize("param", ["freq_set", "sample_set"])
@pytest.mark.parametrize("bad", HELD_BAD_SETS, ids=repr)
def test_held_fit_then_bad_set_raises_as_with_no_fit_held(param, bad):
    def call(c):
        kwargs = dict(VALID["reconstruct_bandlimited"](), c=c)
        kwargs[param] = bad
        return lambda: hs.reconstruct_bandlimited(**kwargs)

    held = hs.build_complex(7, EDGES7, TRIS7)
    hs.reconstruct_bandlimited(**dict(VALID["reconstruct_bandlimited"](),
                                      c=held))
    assert raised(call(held)) == raised(call(hs.build_complex(7, EDGES7,
                                                              TRIS7)))


def test_sets_without_a_length_are_fitted_and_not_held():
    kwargs = VALID["reconstruct_bandlimited"]()
    want = hs.reconstruct_bandlimited(**kwargs).values
    kwargs.update(freq_set=iter([4, 5]), sample_set=(i for i in range(3)))
    np.testing.assert_array_equal(
        hs.reconstruct_bandlimited(**kwargs).values, want)


PUBLIC_MODULES = ("complexes", "dictionaries", "filters", "inference",
                  "sampling", "spectral", "timeseries")


def test_public_names_are_the_modules_lists_each_once():
    modules = [importlib.import_module(f"hodgesp.{name}")
               for name in PUBLIC_MODULES]
    assert hs.__all__ == list(dict.fromkeys(
        name for module in modules for name in module.__all__))
    assert len(set(hs.__all__)) == len(hs.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(hs, name) is getattr(module, name), name
    for name in ("io", "cli"):
        hidden = importlib.import_module(f"hodgesp.{name}").__all__
        assert not set(hidden) & set(hs.__all__), name
    namespace = {}
    exec("from hodgesp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hs.__all__)


def _state_with_window():
    state = hs.lms_init(C, 1, 1, 0.1)
    return hs.lms_step(state, flow(), flow())[0]


BINDING = {
    "frequency_response-order": (
        lambda: hs.frequency_response(C, 1, SPEC,
                                      basis=hs.hodge_basis(C, 0)), "basis"),
    "frequency_response-complex": (
        lambda: hs.frequency_response(C, 1, SPEC,
                                      basis=hs.hodge_basis(OTHER, 1)),
        "basis"),
    "tft-complex": (lambda: hs.tft(hs.hodge_basis(C, 1), flow(OTHER)), "x"),
    "tft-order": (lambda: hs.tft(hs.hodge_basis(C, 1), C.zero_cochain(0)),
                  "x"),
    "dirac_tft": (lambda: hs.dirac_tft(C, signal(),
                                       basis=hs.dirac_basis(OTHER)), "basis"),
    "dirac_itft": (lambda: hs.dirac_itft(C, np.zeros(C.n0 + C.n1 + C.n2),
                                         basis=hs.dirac_basis(OTHER)),
                   "basis"),
    "select_samples": (lambda: hs.select_samples(
        C, 1, [4, 5], 3, basis=hs.hodge_basis(OTHER, 1)), "basis"),
    "is_perfectly_recoverable": (lambda: hs.is_perfectly_recoverable(
        C, 1, [4, 5], [0, 1], basis=hs.hodge_basis(C, 2)), "basis"),
    "reconstruct_bandlimited": (lambda: hs.reconstruct_bandlimited(
        C, 1, [4, 5], [0, 1], [0.0, 1.0], basis=hs.hodge_basis(OTHER, 1)),
        "basis"),
    "slepians": (lambda: hs.slepians(C, [0, 1], [0, 1],
                                     basis=hs.hodge_basis(C, 0)), "basis"),
    "apply_filter-complex": (lambda: hs.apply_filter(C, 1, SPEC,
                                                     flow(OTHER)), "x"),
    "apply_filter-order": (lambda: hs.apply_filter(C, 0, SPEC, flow()), "x"),
    "divergence": (lambda: hs.divergence(C, flow(OTHER)), "x1"),
    "curl": (lambda: hs.curl(C, C.zero_cochain(2)), "x1"),
    "hodge_decompose": (lambda: hs.hodge_decompose(C, flow(OTHER)), "x"),
    "dirac_shift": (lambda: hs.dirac_shift(C, signal(OTHER)), "x"),
    "dirac_filter": (lambda: hs.dirac_filter(C, SPEC, signal(OTHER)), "x"),
    "filterbank_edge": (lambda: hs.filterbank_edge(
        C, SPEC, SPEC, hs.HodgeFilterSpec((0.0,), (1.0,)), signal(OTHER)),
        "x"),
    "regularized_reconstruct": (lambda: hs.regularized_reconstruct(
        C, flow(OTHER), np.ones(C.n1, bool), 0.5, 0.5), "f"),
    "lms_build_regressor": (lambda: hs.lms_build_regressor(
        C, [flow(), flow(OTHER)], 1, 1), "window"),
    "LmsState": (lambda: hs.LmsState(C, 1, 1, 0.1, np.zeros(3),
                                     (flow(OTHER),)), "window"),
    "lms_step-x_t": (lambda: hs.lms_step(hs.lms_init(C, 1, 1, 0.1),
                                         flow(OTHER), flow()), "x_t"),
    "lms_step-y_t": (lambda: hs.lms_step(_state_with_window(), flow(),
                                         flow(OTHER)), "y_t"),
    "scvar_predict": (lambda: hs.scvar_predict(model(), [signal(OTHER)]),
                      "history"),
    # raw arrays in place of bound objects
    "tft-ndarray": (lambda: hs.tft(hs.hodge_basis(C, 1), flow().values),
                    "x"),
    "apply_filter-ndarray": (lambda: hs.apply_filter(C, 1, SPEC,
                                                     flow().values), "x"),
    "hodge_decompose-ndarray": (lambda: hs.hodge_decompose(C, flow().values),
                                "x"),
    "divergence-ndarray": (lambda: hs.divergence(C, flow().values), "x1"),
    "regularized_reconstruct-ndarray": (lambda: hs.regularized_reconstruct(
        C, flow().values, np.ones(C.n1, bool), 0.5, 0.5), "f"),
    "scvar_predict-ndarray": (lambda: hs.scvar_predict(
        model(), [signal().stacked()]), "history"),
    "LmsState-ndarray": (lambda: hs.LmsState(C, 1, 1, 0.1, np.zeros(3),
                                             (flow().values,)), "window"),
    "lms_build_regressor-ndarray": (lambda: hs.lms_build_regressor(
        C, [flow(), flow().values], 1, 1), "window"),
    "lms_step-x_t-ndarray": (lambda: hs.lms_step(
        hs.lms_init(C, 1, 1, 0.1), flow().values, flow()), "x_t"),
    "lms_step-y_t-ndarray": (lambda: hs.lms_step(
        _state_with_window(), flow(), flow().values), "y_t"),
    "scvar_simulate": (lambda: hs.scvar_simulate(model(), 1,
                                                 [signal(OTHER)]), "initial"),
    "scvar_fit": (lambda: hs.scvar_fit(C, [signal(OTHER)] * 6, 1), "series"),
}


@pytest.mark.parametrize("case", sorted(BINDING))
def test_binding_is_checked(case):
    call, param = BINDING[case]
    with pytest.raises(ValueError, match=rf"^{param}\b"):
        call()


# Data of the wrong size or kind, neither a number nor a bound object:
# each rejection names the parameter first.
SHAPES = {
    "build_dictionary-no-specs": (lambda: hs.build_dictionary(C, 1, []),
                                  "specs"),
    "itft-widths": (lambda: hs.itft(hs.hodge_basis(C, 1), hs.TftCoefficients(
        np.zeros(1), np.zeros(0), np.zeros(0))), "coeffs"),
    "dirac_itft-length": (lambda: hs.dirac_itft(C, np.zeros(3)), "coeffs"),
    "SCVarModel-no-lags": (lambda: hs.SCVarModel(C, ()), "lags"),
    "ComplexSignal.from_stacked-length": (
        lambda: hs.ComplexSignal.from_stacked(C, np.zeros(3)), "v"),
    "scvar_predict-short-history": (lambda: hs.scvar_predict(model(), []),
                                    "history"),
    "scvar_simulate-short-initial": (
        lambda: hs.scvar_simulate(model(), 1, []), "initial"),
    "LmsState-coefficients-shape": (lambda: hs.LmsState(
        C, 1, 1, 0.1, np.zeros(4)), "coefficients"),
    "infer_triangles-criterion": (lambda: hs.infer_triangles(
        SKELETON, np.ones((10, 2)), 1, "largest"), "criterion"),
    "infer_triangles-flow-rows": (lambda: hs.infer_triangles(
        SKELETON, np.ones((9, 2)), 1), "flows"),
    "sparse_code-rows": (lambda: hs.sparse_code(np.eye(C.n1 + 1), flow(), 2),
                         "dictionary"),
    "sparse_code-slepian-rows": (lambda: hs.sparse_code(
        hs.slepians(C, [0, 1, 2], [4, 5]), np.ones(C.n1 + 1), 1),
        "dictionary"),
}


@pytest.mark.parametrize("case", sorted(SHAPES))
def test_wrong_shape_is_rejected_by_name(case):
    call, param = SHAPES[case]
    with pytest.raises(ValueError, match=rf"^{param}\b"):
        call()


# The one checker behind index sets and simplex rows: its vectorised test
# (an integer array, range and repeats at once) must agree with the
# per-item walk of the same scalar checker, which it takes when
# ``integer_array`` finds no integer array.
VALUES = st.one_of(st.integers(-2, 11), st.integers(-2, 11).map(np.int64),
                   st.integers(0, 11).map(np.uint8), st.booleans(),
                   st.just(np.True_), st.sampled_from([2.0, 1.5, "3", 2**70]))
DTYPES = st.sampled_from([np.int64, np.int32, np.uint64, np.float64,
                          np.bool_])


def items(width):
    """Lists of mixed values, or arrays of one dtype (a negative value
    wraps in uint64), 1-D for width None, else rows of ``width``."""
    if width is None:
        return st.one_of(
            st.lists(VALUES, max_size=8),
            st.tuples(st.lists(st.integers(-2, 11), max_size=8), DTYPES).map(
                lambda a: np.array(a[0], dtype=np.int64).astype(a[1])))
    row = st.lists(VALUES, min_size=width, max_size=width)
    return st.one_of(
        st.lists(st.one_of(row, st.lists(VALUES, max_size=width + 1)),
                 max_size=6),
        st.tuples(st.lists(st.lists(st.integers(-2, 11), min_size=width,
                                    max_size=width), max_size=6),
                  DTYPES).map(lambda a: np.array(a[0], dtype=np.int64)
                              .reshape(-1, width).astype(a[1])))


K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
CHECKED = {
    "index set": (None, lambda s: hu.index_array(s, 10, "set").tobytes()),
    "edges": (2, lambda s: hs.build_complex(6, s).edges),
    "triangles": (3, lambda s: hs.build_complex(5, K5, s).triangles),
}


def checked(call, value):
    try:
        return call(value)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(CHECKED))
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_vectorised_check_matches_the_item_walk(name, data):
    width, call = CHECKED[name]
    value = data.draw(items(width))
    fast = checked(call, value)
    # An integer array is walked as Python ints, as first_bad walks one
    # that fails its vectorised test.
    walked = (value.tolist() if isinstance(value, np.ndarray)
              and value.dtype.kind in "iu" else value)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hu, "integer_array", lambda *args: None)
        assert checked(call, walked) == fast
