"""The package's public surface: the names `factordiff` exports, and the
module each one lives in. The package re-exports its modules' names, so a
name that moves, doubles or goes missing shows here."""

import importlib

import factordiff

HOMES = {
    "core": [
        "ToleranceConfig",
        "DEFAULT_TOLERANCES",
        "validate_matrix",
        "hs_norm",
        "orthogonality_defect",
        "split_skew_upper",
        "sym_to_lower",
        "split_lower_diag_upper",
        "QRPair",
        "CholeskyFactor",
        "LDUTriple",
        "QRTangent",
        "LDUTangent",
    ],
    "factor": [
        "qr_factor",
        "qr_factor_mgs",
        "cholesky_factor",
        "ldu_factor",
        "leading_minor_dets",
        "in_domain_p",
        "cond_estimate",
    ],
    "frechet": [
        "qr_derivative_apply",
        "qr_derivative_solve",
        "cholesky_derivative_apply",
        "cholesky_derivative_solve",
        "ldu_derivative_apply",
        "ldu_derivative_solve",
    ],
    "newton": [
        "PathSpec",
        "TrackReport",
        "retract_orthogonal",
        "qr_newton_correct",
        "cholesky_newton_correct",
        "ldu_newton_correct",
        "track_qr",
        "track_cholesky",
        "track_ldu",
    ],
    "verify": [
        "CheckResult",
        "check_qr_existence_uniqueness",
        "check_qr_properness_identity",
        "check_cholesky_theorem",
        "check_ldu_domain_characterization",
        "check_ldu_nonproperness",
        "check_derivative_isomorphisms",
        "run_all",
        "results_to_json",
    ],
    "matrixio": ["load_matrix", "save_matrix"],
    "errors": [
        "FactorizationError",
        "ShapeError",
        "NotSymmetric",
        "NotPositiveSemiDefinite",
        "NotInDomainP",
        "SingularInput",
        "SingularR",
        "SingularL",
        "SingularD",
        "BaseMismatch",
        "NoConvergence",
        "ConvergedOutsideChart",
        "TooFarFromGroup",
        "PathLeavesDomain",
    ],
}
PUBLIC = {name for names in HOMES.values() for name in names}


def test_all_lists_each_public_name_once():
    assert len(PUBLIC) == 60
    assert len(factordiff.__all__) == len(set(factordiff.__all__))
    assert set(factordiff.__all__) == PUBLIC


def test_each_name_is_its_home_module_object():
    for mod, names in HOMES.items():
        home = importlib.import_module(f"factordiff.{mod}")
        for name in names:
            assert getattr(factordiff, name) is getattr(home, name), f"{mod}.{name}"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from factordiff import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC
