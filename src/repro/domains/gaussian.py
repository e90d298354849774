"""Correlated-attribute generative domain.

All calibrated domains (pictures, recipes, houses, laptops, synthetic)
are instances of :class:`GaussianDomain`: object true values are drawn
once from a multivariate normal with a specified correlation matrix,
then binary attributes are squashed into ``[0, 1]``.  Because worker
answer noise is independent of the true values, the population moments
the DisQ algorithm estimates (``S_o``, ``S_a``, ``S_c``) follow directly
from the specification, which is how we calibrate to the paper's
Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.domains.base import Domain
from repro.domains.taxonomy import DismantleTaxonomy
from repro.errors import ConfigurationError


def nearest_correlation(matrix: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Project a symmetric matrix onto the positive-definite correlation cone.

    Hand-written correlation tables (like the paper's Table 5) are often
    not exactly positive semi-definite; we clip negative eigenvalues and
    re-normalize the diagonal to 1.  The result is close to the input in
    Frobenius norm and always usable as a sampling covariance.
    """
    symmetric = (matrix + matrix.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    clipped = np.clip(eigenvalues, epsilon, None)
    rebuilt = (eigenvectors * clipped) @ eigenvectors.T
    scale = np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt / np.outer(scale, scale)
    np.fill_diagonal(rebuilt, 1.0)
    return rebuilt


@dataclass
class GaussianDomainSpec:
    """Declarative description of a :class:`GaussianDomain`.

    Parameters
    ----------
    names:
        Attribute names, defining the order of all matrix rows below.
    means, sigmas:
        Mean and standard deviation of each attribute's true values.
        Binary attributes should use means in ``(0, 1)`` and modest
        sigmas; their values are clipped into ``[0, 1]`` after sampling.
    correlation:
        Target correlation matrix of the true values (projected to the
        nearest valid correlation matrix before sampling).
    difficulties:
        Per-attribute worker answer-noise variance — the true ``S_c``.
    binary:
        Flags marking boolean-like attributes.
    taxonomy:
        Dismantling-answer distributions.
    synonyms:
        Optional per-attribute surface forms (for the normalization
        robustness experiment).
    gold_standards:
        Optional expert attribute sets per target (coverage experiment).
    """

    names: tuple[str, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]
    correlation: np.ndarray
    difficulties: tuple[float, ...]
    binary: tuple[bool, ...]
    taxonomy: DismantleTaxonomy = field(default_factory=DismantleTaxonomy)
    synonyms: dict[str, tuple[str, ...]] = field(default_factory=dict)
    gold_standards: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ConfigurationError("attribute names must be unique")
        for label, seq in (
            ("means", self.means),
            ("sigmas", self.sigmas),
            ("difficulties", self.difficulties),
            ("binary", self.binary),
        ):
            if len(seq) != n:
                raise ConfigurationError(
                    f"{label} has length {len(seq)}, expected {n} (one per attribute)"
                )
        self.correlation = np.asarray(self.correlation, dtype=float)
        if self.correlation.shape != (n, n):
            raise ConfigurationError(
                f"correlation matrix shape {self.correlation.shape} != ({n}, {n})"
            )
        if any(s <= 0 for s in self.sigmas):
            raise ConfigurationError("sigmas must be positive")
        if any(d < 0 for d in self.difficulties):
            raise ConfigurationError("difficulties must be non-negative")


class GaussianDomain(Domain):
    """A domain whose object true values follow a multivariate normal."""

    def __init__(
        self,
        spec: GaussianDomainSpec,
        n_objects: int = 500,
        seed: int = 0,
        name: str = "gaussian",
    ) -> None:
        if n_objects <= 1:
            raise ConfigurationError(f"need at least 2 objects, got {n_objects}")
        self.name = name
        self._spec = spec
        self._n_objects = n_objects
        self._index = {attribute: i for i, attribute in enumerate(spec.names)}

        rng = np.random.default_rng(seed)
        correlation = nearest_correlation(spec.correlation)
        sigmas = np.asarray(spec.sigmas, dtype=float)
        covariance = correlation * np.outer(sigmas, sigmas)
        values = rng.multivariate_normal(
            mean=np.asarray(spec.means, dtype=float),
            cov=covariance,
            size=n_objects,
            method="eigh",
        )
        for i, is_binary in enumerate(spec.binary):
            if is_binary:
                values[:, i] = np.clip(values[:, i], 0.0, 1.0)
        self._values = values
        # Relevance (|corr| of true values) is queried per verification
        # vote and per irrelevant-answer draw; precompute it once.
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(values, rowvar=False)
        self._abs_corr = np.abs(np.nan_to_num(corr, nan=0.0))

    # ------------------------------------------------------------------
    # Domain interface
    # ------------------------------------------------------------------

    @property
    def spec(self) -> GaussianDomainSpec:
        """The declarative specification this domain was built from."""
        return self._spec

    def attributes(self) -> tuple[str, ...]:
        return self._spec.names

    def n_objects(self) -> int:
        return self._n_objects

    def is_binary(self, attribute: str) -> bool:
        self.check_attribute(attribute)
        return self._spec.binary[self._index[attribute]]

    def true_value(self, object_id: int, attribute: str) -> float:
        self.check_object(object_id)
        self.check_attribute(attribute)
        return float(self._values[object_id, self._index[attribute]])

    def true_values(self, attribute: str) -> np.ndarray:
        self.check_attribute(attribute)
        return self._values[:, self._index[attribute]].copy()

    def difficulty(self, attribute: str) -> float:
        self.check_attribute(attribute)
        return self._spec.difficulties[self._index[attribute]]

    def relevance(self, attribute_a: str, attribute_b: str) -> float:
        self.check_attribute(attribute_a)
        self.check_attribute(attribute_b)
        return float(
            self._abs_corr[self._index[attribute_a], self._index[attribute_b]]
        )

    def dismantle_distribution(self, attribute: str) -> dict[str, float]:
        self.check_attribute(attribute)
        return self._spec.taxonomy.distribution(attribute)

    def synonyms(self, attribute: str) -> tuple[str, ...]:
        self.check_attribute(attribute)
        return self._spec.synonyms.get(attribute, ())

    def gold_standard(self, target: str) -> frozenset[str]:
        self.check_attribute(target)
        return self._spec.gold_standards.get(target, frozenset())

    def with_taxonomy(self, taxonomy: DismantleTaxonomy) -> "GaussianDomain":
        """Clone this domain with a replaced dismantling taxonomy.

        The clone shares the sampled true values, so value-question
        behaviour is identical — only dismantling answers change.  Used
        by the attribute-quality robustness experiment.
        """
        clone = object.__new__(GaussianDomain)
        clone.name = self.name
        clone._spec = GaussianDomainSpec(
            names=self._spec.names,
            means=self._spec.means,
            sigmas=self._spec.sigmas,
            correlation=self._spec.correlation,
            difficulties=self._spec.difficulties,
            binary=self._spec.binary,
            taxonomy=taxonomy,
            synonyms=self._spec.synonyms,
            gold_standards=self._spec.gold_standards,
        )
        clone._n_objects = self._n_objects
        clone._index = dict(self._index)
        clone._values = self._values
        clone._abs_corr = self._abs_corr
        return clone
