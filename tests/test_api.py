"""The public signatures: the working precision is the only numeric setting.

Tolerances and iteration budgets are derived from the precision, so no
exported function or method takes one, apart from the covariant solver's
gradient tolerance (``minimize``, by default 2^(-3 prec/4), which theta sets
to a fixed 10^-12 on semi-stable clusters that are not stable). LLL's
Lovasz parameter and the slack of its check are constants of ``lattice``.
No function takes a start, a budget or a switch for its record either. Root
finding takes no precision: ``aberth_roots`` and ``curve_intersection`` run
at the ambient one, which the pipelines set. No function but the ternary
pipeline takes a seed, and nothing reads that one: a reduction depends only
on its input and its precision.
"""

import inspect

import cluster_reduce


def _signatures():
    """(qualified name, parameter names) of every exported function and of
    the methods the exported classes define."""
    for name in cluster_reduce.__all__:
        obj = getattr(cluster_reduce, name)
        if not inspect.isclass(obj):
            yield name, list(inspect.signature(obj).parameters)
            continue
        for attr, member in vars(obj).items():
            member = getattr(member, "__func__", member)  # classmethod, staticmethod
            if inspect.isfunction(member):
                yield f"{name}.{attr}", list(inspect.signature(member).parameters)


SIGNATURES = dict(_signatures())


def _takers(*params):
    return {name for name, names in SIGNATURES.items() if set(params) & set(names)}


def test_walk_covers_the_api():
    assert {"minimize", "classify", "ProjectivePoint.is_same", "GramMatrix.check"} <= set(SIGNATURES)


def test_only_the_solver_takes_a_tolerance_or_budget():
    # and the solver takes no budget, start or record switch either
    assert _takers("tol") == {"minimize"}
    assert _takers("max_iter", "maxsteps", "initial", "record_transcript") == set()


def test_no_function_takes_an_lll_parameter():
    assert _takers("delta", "slack") == set()


def test_no_derived_threshold_is_a_parameter():
    assert _takers("rank_tol", "det_tol", "max_shears") == set()


def test_solver_takes_its_cluster_tolerance_precision_and_stability_check():
    assert SIGNATURES["minimize"] == ["cluster", "tol", "prec", "check_stability"]
    assert SIGNATURES["theta"] == ["zc", "prec"]


def test_pipelines_take_their_object_and_precision():
    assert SIGNATURES["reduce_cluster"] == ["cluster", "prec"]
    assert SIGNATURES["reduce_binary_form"] == ["F", "prec"]
    assert SIGNATURES["reduce_quadric_pencil"] == ["Q1", "Q2", "prec"]
    # the ternary pipeline keeps a seed keyword that nothing reads
    assert SIGNATURES["reduce_ternary_form"] == ["F", "prec", "seed"]


def test_root_finding_takes_no_precision():
    assert SIGNATURES["aberth_roots"] == ["coeffs"]
    # the intersection tries a fixed sequence of projections: it takes no seed
    assert SIGNATURES["curve_intersection"] == ["F", "G"]


def test_no_function_but_the_ternary_pipeline_takes_a_seed():
    assert _takers("seed") == {"reduce_ternary_form"}
