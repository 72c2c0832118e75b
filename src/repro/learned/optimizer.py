"""Learned optimizer steering (Bao-style contextual bandit).

Marcus et al.'s Bao — cited by the paper as "learning to tune an existing
query optimizer" — treats a set of optimizer hints as bandit arms and
learns, per query context, which arm produces the fastest plan. This
module implements that scheme over our cost-based optimizer:

* Arms restrict the optimizer's physical choices (force hash joins,
  force nested loops, trust the estimator, or a pessimistic mode that
  inflates join estimates).
* Context is a small feature vector of the query (tables touched, filter
  count, estimated base rows).
* Thompson sampling over per-arm Bayesian linear models picks the arm;
  the observed execution work is the (negative) reward.

The steering improves *with each executed query* — online learning whose
transient cost is precisely what the paper's adaptability metrics (Fig
1b/1c) are designed to expose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.optimizer_base import CardinalityEstimator, CostBasedOptimizer, PlanCost
from repro.engine.plans import Aggregate, Filter, Join, LogicalPlan, Project, Scan, Sort
from repro.errors import PlanError
from repro.observability import NULL_TRACER


class _ScaledEstimator:
    """Wraps an estimator, multiplying join estimates by a factor."""

    def __init__(self, inner: CardinalityEstimator, join_factor: float) -> None:
        self._inner = inner
        self._join_factor = join_factor

    def estimate(self, plan: LogicalPlan, catalog: Catalog) -> float:
        value = self._inner.estimate(plan, catalog)
        if isinstance(plan, Join):
            value *= self._join_factor
        return value


@dataclass(frozen=True)
class SteeringChoice:
    """The outcome of one steering decision.

    Attributes:
        arm: Index of the chosen arm.
        arm_name: Human-readable arm label.
        plan_cost: The optimizer's costed plan under that arm.
        context: The query's feature vector the arm was sampled on;
            :meth:`BanditPlanSteering.learn` updates the arm with it.
    """

    arm: int
    arm_name: str
    plan_cost: PlanCost
    context: np.ndarray = field(compare=False)


class _BayesianLinearArm:
    """Bayesian linear regression head for one arm (Thompson sampling)."""

    def __init__(self, dim: int, noise: float = 1.0, prior: float = 1.0) -> None:
        self._A = np.eye(dim) / prior
        self._b = np.zeros(dim)
        self._noise = noise
        # (mean, SVD factor of noise * cov transposed, PSD verdict); dropped by ``update``.
        # The factor stays the transposed view numpy multiplies by: a contiguous
        # copy takes another BLAS path and changes the draws' last bits.
        self._posterior: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None

    def sample_prediction(self, x: np.ndarray, rng: np.random.Generator) -> float:
        """``float(rng.multivariate_normal(mean, noise * cov) @ x)`` bit for bit (same
        normals, same non-PSD warning), but with numpy's SVD factor and PSD check
        computed once per posterior instead of once per draw."""
        if self._posterior is None:
            cov = np.linalg.inv(self._A)
            scaled_cov = self._noise * cov
            u, s, vh = np.linalg.svd(scaled_cov)
            rebuilt = np.dot(vh.T * s, vh)
            # ``np.allclose``'s own test, spelled out. ``scaled_cov`` is finite
            # (the inverse of I + sum x x^T over finite features; ``svd``
            # raises otherwise), so a non-finite ``rebuilt`` fails it as there.
            psd = bool((np.abs(rebuilt - scaled_cov) <= 1e-8 + 1e-8 * np.abs(scaled_cov)).all())
            self._posterior = (cov @ self._b, (u * np.sqrt(s)).T, psd)
        mean, factor_T, psd = self._posterior
        if not psd:
            warnings.warn("covariance is not symmetric positive-semidefinite.", RuntimeWarning)
        theta = mean + rng.standard_normal((1, len(mean))) @ factor_T
        return float(theta[0] @ x)

    def update(self, x: np.ndarray, reward: float) -> None:
        self._A += np.outer(x, x)
        self._b += reward * x
        self._posterior = None


class BanditPlanSteering:
    """Thompson-sampling plan steering over optimizer hint arms.

    Args:
        estimator: Base cardinality estimator shared by all arms.
        seed: RNG seed for Thompson sampling.
        exploration_noise: Observation-noise scale (higher explores more).
    """

    #: (name, join-method restriction, join-estimate inflation factor).
    ARMS: List[Tuple[str, Optional[str], float]] = [
        ("default", None, 1.0),
        ("force-hash", "hash", 1.0),
        ("force-nl", "nl", 1.0),
        ("pessimistic", None, 10.0),
    ]

    _FEATURE_DIM = 5

    def __init__(
        self,
        estimator: CardinalityEstimator,
        seed: int = 0,
        exploration_noise: float = 1.0,
    ) -> None:
        """Seed the sampler and start every arm from the prior."""
        self._estimator = estimator
        self._rng = np.random.default_rng(seed)
        self._exploration_noise = exploration_noise
        self.reset_learning()
        self._decisions = 0
        self._arm_counts = [0] * len(self.ARMS)
        # Observability sink; the owning SUT swaps in the run tracer.
        self.tracer = NULL_TRACER

    @property
    def decisions(self) -> int:
        """Number of steering decisions made."""
        return self._decisions

    @property
    def arm_counts(self) -> List[int]:
        """How many times each arm has been chosen."""
        return list(self._arm_counts)

    def reset_learning(self) -> None:
        """Forget learned rewards (used after detected drift)."""
        self._arms = [
            _BayesianLinearArm(self._FEATURE_DIM, noise=self._exploration_noise)
            for _ in self.ARMS
        ]

    # -- features ---------------------------------------------------------------

    def _featurize(self, plan: LogicalPlan, catalog: Catalog) -> np.ndarray:
        joins = 0
        filters = 0
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, Join):
                joins += 1
            elif isinstance(node, Filter):
                filters += 1
            stack.extend(node.children())
        tables = plan.tables()
        total_rows = sum(catalog.row_count(t) for t in tables if t in catalog)
        return np.asarray(
            [1.0, float(joins), float(filters), float(len(tables)), np.log1p(total_rows)]
        )

    # -- choose / learn --------------------------------------------------------------

    def _optimizer_for_arm(self, arm: int) -> CostBasedOptimizer:
        _, _, join_factor = self.ARMS[arm]
        estimator: CardinalityEstimator = self._estimator
        if join_factor != 1.0:
            estimator = _ScaledEstimator(estimator, join_factor)
        return CostBasedOptimizer(estimator)

    def _restrict(self, plan: LogicalPlan, method: Optional[str]) -> LogicalPlan:
        """Force all joins in ``plan`` to ``method`` (when set)."""
        if method is None or isinstance(plan, Scan):
            return plan
        if isinstance(plan, Join):
            return Join(
                self._restrict(plan.left, method),
                self._restrict(plan.right, method),
                plan.left_col,
                plan.right_col,
                method,
            )
        if isinstance(plan, Filter):
            return Filter(self._restrict(plan.child, method), plan.predicate)
        if isinstance(plan, Project):
            return Project(self._restrict(plan.child, method), plan.columns)
        if isinstance(plan, Aggregate):
            return Aggregate(self._restrict(plan.child, method), plan.agg, plan.column)
        if isinstance(plan, Sort):
            return Sort(self._restrict(plan.child, method), plan.column)
        raise PlanError(f"unknown plan node {type(plan).__name__}")

    def choose(self, plan: LogicalPlan, catalog: Catalog) -> SteeringChoice:
        """Pick an arm via Thompson sampling and produce its plan."""
        x = self._featurize(plan, catalog)
        sampled = [arm.sample_prediction(x, self._rng) for arm in self._arms]
        best_arm = int(np.argmax(sampled))
        name, method, _ = self.ARMS[best_arm]
        optimizer = self._optimizer_for_arm(best_arm)
        candidate = self._restrict(plan, method)
        plan_cost = optimizer.optimize(candidate, catalog)
        self._decisions += 1
        self._arm_counts[best_arm] += 1
        self.tracer.counter("optimizer.decisions")
        return SteeringChoice(arm=best_arm, arm_name=name, plan_cost=plan_cost, context=x)

    def learn(self, choice: SteeringChoice, observed_work: float) -> None:
        """Feed back the observed execution work for a past decision."""
        # Reward = negative log work (smaller work is better).
        reward = -float(np.log1p(max(0.0, observed_work)))
        self._arms[choice.arm].update(choice.context, reward)
        self.tracer.counter("optimizer.learn_updates")
