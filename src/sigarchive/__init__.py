"""Labeled latent-signature archives with reject-option classification.

The pipeline has three stages: decompose labeled training data into a
hierarchy of nonnegative latent signatures with automatic rank selection,
store the label-uniform signatures in an archive, and classify new samples
by nonnegative projection onto the archive with a similarity threshold that
turns poor reconstructions into rejections (novel-class alerts).
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; a name's module (and numpy with
# it) is imported on first access, so ``import sigarchive`` stays light
_EXPORTS = {
    "archive": ("ArchiveEntry", "BuildConfig", "BuildReport", "SignatureArchive",
                "UnresolvedGroup", "build_archive", "load_archive", "save_archive"),
    "dataio": ("GroundTruth", "LabeledDataset", "NormalizationParams", "SplitResult",
               "SynthSpec", "apply_normalization", "generate_synthetic", "load_csv",
               "normalize", "save_csv", "split_holdout"),
    "docio": ("DECISION_CLASSIFIED", "DECISION_REJECTED"),
    "errors": ("ArchiveFormatError", "DegenerateBuildError", "DegenerateInputError",
               "SigArchiveError", "ValidationError"),
    "evaluation": ("EvalReport", "RiskCoveragePoint", "aurc", "classification_metrics",
                   "evaluate_predictions", "rejection_rates", "risk_coverage_curve"),
    "inference": ("InferenceConfig", "Prediction", "classify", "classify_batch"),
    "linalg": ("FactorPair", "FeatureMatrix", "SolverOptions", "nmf_factorize",
               "nnls_solve", "relative_error"),
    "rank": ("EnsembleConfig", "RankSelectionReport", "RankStats", "select_rank"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def _lazy_getattr(namespace: dict, module_of: dict[str, str]):
    """A module ``__getattr__`` (PEP 562): the first access to ``name``
    imports ``sigarchive.<module_of[name]>`` and binds the value in
    ``namespace``, so later lookups, and rebinding, bypass this hook."""
    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{module_of[name]}")
        namespace[name] = value = getattr(module, name)
        return value
    return __getattr__


__getattr__ = _lazy_getattr(globals(), _MODULE_OF)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
