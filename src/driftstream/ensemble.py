"""Hybrid ensemble of batch and online learners with drift-gated retraining.

There are two member classes. An ``OnlineMember`` predicts one row and then
learns it. A batch ``Member`` goes through warm-up, serving with periodic
drift checks, and the comparison of a shadow model against its incumbent.
The drift and replacement counts of a run are the ``DriftEvent``s and
``ReplacementEvent``s it returns.

For every stream instance, in order:

1. every member predicts (the true label is not visible to this step). A
   batch member's incumbent is frozen between fits, so it labels the rows read
   ahead with ``lookahead`` in one ``predict_labels`` call and answers later
   steps of that block from its cache; only the features of those rows are
   read. Online members learn between instances and predict one row at a time;
2. combination weights are computed from each member's windowed F1 *before*
   this instance is scored, so the weights never depend on the label being
   predicted. The ``Combiner`` rescores a member only when its window
   changes; the weights and the vote are computed on Python floats, adding
   the scores in member order below 8 members and with numpy's sum from 8
   on, which gives numpy's floats to the bit;
3. the weighted hard vote produces the final prediction; a one-member run
   keeps no score window, its weight is always 1.0 and its label the vote;
4. the label is revealed: the score windows slide over the row, and the
   instance, its label and every member's step-1 prediction are appended once
   to the shared ``History`` while a batch member may read it. One that
   monitors nothing reads no row once fitted, so it leaves the readers and
   the learners after the step of its first fit;
5. online members learn the instance;
6. batch members fit, check and compare on slices of that history: they run
   their drift check every ``window_size`` instances after their first fit,
   train a shadow model on a drift verdict, and label the shadow's complete
   comparison window in one ``predict_labels`` call (class 0 if it raises; a
   shadow reads no read-ahead rows), swapping only on strictly better scores;
7. the caller updates global metrics from the returned step record.

Batch members answer with the majority class of the labels seen so far until
their first fit succeeds. It is tried once ``first_fit_size`` instances have
been collected, and again every ``window_size`` instances while it raises.
While a shadow is under comparison, new drift verdicts are ignored, so shadow
evaluations never overlap. A member whose predict raises answers class 0; a
learn, fit or check that raises is skipped for that instance. Both are logged
and counted per member and phase (``HybridEnsemble.failures``).
"""

from __future__ import annotations

import inspect
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, DataError, Instance, Schema, SchemaError, argmax_tiebreak, is_number
from .drift import LAST_WINDOW, DriftStrategy, Trigger, check_windows
from .evaluation import ConfusionMatrix, f1_from_pairs
from .learners import BATCH_LEARNERS, ONLINE_LEARNERS

logger = logging.getLogger(__name__)

ONLINE = "online"
BATCH = "batch"

WEIGHTED_VOTE = "wv"
DYNAMIC_SWITCH = "ds"

SHADOW_METRICS = ("f1_macro", "accuracy")


@dataclass(frozen=True)
class MemberSpec:
    """Static description of one ensemble slot."""

    id: str
    kind: str  # "online" | "batch"
    algorithm: str
    strategy: Optional[DriftStrategy] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (ONLINE, BATCH):
            raise ConfigError(f"unknown member kind {self.kind!r}")
        learners = self.learners
        if not isinstance(self.algorithm, str) or self.algorithm not in learners:
            raise ConfigError(f"unknown {self.kind} algorithm {self.algorithm!r}, expected one of {tuple(learners)}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"{self.kind} algorithm {self.algorithm!r}: params must be an object")
        fixed = {"schema", "seed"} if self.kind == BATCH else {"schema"}  # passed by the member, not the config
        allowed = set(inspect.signature(learners[self.algorithm]).parameters) - fixed
        if unknown := sorted(set(self.params) - allowed):
            raise ConfigError(f"{self.kind} algorithm {self.algorithm!r}: unknown params {unknown}, "
                              f"expected some of {sorted(allowed)}")
        if self.kind == BATCH and self.strategy is None:
            raise ConfigError(f"batch member {self.id!r} needs a drift strategy")
        if self.kind == ONLINE and self.strategy is not None:
            raise ConfigError(f"online member {self.id!r} must not carry a drift strategy")

    @property
    def learners(self) -> dict:
        """The learner table of this member's kind."""
        return ONLINE_LEARNERS if self.kind == ONLINE else BATCH_LEARNERS

    def new_model(self, schema: Schema, **fixed):
        """A new learner for this slot; ``fixed`` holds what the member passes, a batch member's ``seed``."""
        try:
            return self.learners[self.algorithm](schema, **fixed, **self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.kind} algorithm {self.algorithm!r}: invalid params: {exc}") from None


@dataclass(frozen=True)
class EnsembleConfig:
    members: tuple[MemberSpec, ...]
    combiner: str = WEIGHTED_VOTE
    first_fit_size: int = 2500
    shadow_eval_size: int = 500
    score_window: int = 500
    seed: int = 0
    cache_cap: int = 200_000
    shadow_metric: str = "f1_macro"

    #: Integer settings and the least value each allows.
    INT_LEAST = {"seed": 0, "first_fit_size": 1, "shadow_eval_size": 1, "score_window": 1, "cache_cap": 1}

    def __post_init__(self) -> None:
        for key, least in self.INT_LEAST.items():
            value = getattr(self, key)
            if not is_number(value, integral=True) or value < least:
                raise ConfigError(f"{key} must be an integer of at least {least}, got {value!r}")
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        if self.combiner not in (WEIGHTED_VOTE, DYNAMIC_SWITCH):
            raise ConfigError(f"unknown combiner {self.combiner!r}")
        if self.shadow_metric not in SHADOW_METRICS:
            raise ConfigError(f"unknown shadow_metric {self.shadow_metric!r}, expected one of {SHADOW_METRICS}")
        if self.first_fit_size > self.cache_cap:
            raise ConfigError("first_fit_size cannot exceed cache_cap")
        ids = [m.id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ConfigError("member ids must be unique")


@dataclass(frozen=True)
class DriftEvent:
    seq: int
    member_id: str
    triggers: tuple[Trigger, ...]


@dataclass(frozen=True)
class ReplacementEvent:
    seq: int
    member_id: str


@dataclass(slots=True)
class StepResult:
    seq: int
    y_true: int
    final_label: int
    member_labels: tuple[int, ...]
    weights: np.ndarray
    events: list


def compute_weights(scores: Sequence[float], combiner: str) -> np.ndarray:
    """Member weights from windowed scores.

    Weighted voting normalizes the scores (uniform if all are zero); dynamic
    switching puts all weight on the best-scoring member, ties resolved
    toward the lowest member index. The scores are added as numpy adds a
    float array, so the weights are numpy's to the bit: in order below 8
    scores, pairwise by numpy from 8 on. Builtin ``sum`` would not do, as it
    compensates from Python 3.12.
    """
    if any(s < 0 for s in scores):
        raise ValueError("member scores must be non-negative")
    n = len(scores)
    if n == 0:
        raise ValueError("no member scores to weigh: the ensemble has no members")
    if combiner == DYNAMIC_SWITCH:
        weights = [0.0] * n
        weights[scores.index(max(scores))] = 1.0
        return np.array(weights)
    if combiner == WEIGHTED_VOTE:
        if n < 8:
            total = 0.0
            for s in scores:
                total += s
        else:
            total = np.asarray(scores, dtype=float).sum()
        if total <= 0:
            return np.full(n, 1.0 / n)
        return np.array([s / total for s in scores])
    raise ValueError(f"unknown combiner {combiner!r}")


def combine_votes(labels: Sequence[int], weights: np.ndarray, n_classes: int) -> int:
    """Weighted hard vote; argmax over classes with ties to the lowest index.

    Each class's tally adds its members' weights in member order.
    """
    if len(labels) != len(weights):
        raise ValueError("one weight per member prediction is required")
    tally = [0.0] * n_classes
    for label, weight in zip(labels, weights.tolist()):
        tally[label] += weight
    return tally.index(max(tally))


class Combiner:
    """The weighted hard vote, each member weighed by its macro F1 over the last ``score_window`` rows.

    Those rows' ``(y, member labels)`` pairs are kept, oldest first, in its own ring. A one-member
    combiner keeps no window: its weight is always 1.0 and its member's label is the vote.
    """

    def __init__(self, n_members: int, n_classes: int, score_window: int, combiner: str) -> None:
        self.n_classes = n_classes
        self.combiner = combiner
        self.windows = [ConfusionMatrix(n_classes) for _ in range(n_members)] if n_members > 1 else []
        self.scores = [0.0] * len(self.windows)  # each window's macro F1, 0.0 while it is empty
        self.pairs: deque[tuple[int, tuple[int, ...]]] = deque(maxlen=score_window)

    def step(self, y: int, labels: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """The weights and the vote of a row, from the scores before it; then the row slides every window."""
        if not self.windows:
            return _SOLO_WEIGHTS.copy(), int(labels[0])
        weights = compute_weights(self.scores, self.combiner)
        final = combine_votes(labels, weights, self.n_classes)
        windows, scores, pairs = self.windows, self.scores, self.pairs
        if len(pairs) < pairs.maxlen:
            for index, label in enumerate(labels):
                windows[index].update(y, label)
                scores[index] = windows[index].f1_macro()
        else:
            old_y, old_labels = pairs[0]  # the pair the append below evicts
            for index, (window, label, old_label) in enumerate(zip(windows, labels, old_labels)):
                if label != old_label or y != old_y:  # an equal pair leaves the counts as they are
                    window.slide(y, label, old_y, old_label)
                    scores[index] = window.f1_macro()
        pairs.append((y, labels))
        return weights, final


class History:
    """The stream rows that members can still read, in one contiguous block.

    Rows are addressed by arrival index: ``X``, ``y`` and ``labels`` (the
    members' recorded predictions, one column per member) hold rows ``start``
    to ``end - 1``, and ``class_counts`` counts the labels of the rows ever
    stored (a row nothing reads is not). When the block is full, ``compact``
    drops the rows no member needs and moves the rest to the front, doubling
    the block only when less than half of it would be free.
    """

    def __init__(self, n_features: int, n_members: int, n_classes: int) -> None:
        rows = 1024  # compact doubles it when needed
        self.X = np.empty((rows, n_features))
        self.y = np.empty(rows, dtype=np.int64)
        self.labels = np.empty((rows, n_members), dtype=np.int64)
        self.class_counts = np.zeros(n_classes, dtype=np.int64)
        self.start = 0
        self.end = 0

    def append(self, x: np.ndarray, y: int, labels: Sequence[int]) -> None:
        i = self.end - self.start
        self.X[i] = x
        self.y[i] = y
        self.labels[i] = labels
        self.class_counts[y] += 1
        self.end += 1

    def rows(self, first: int) -> slice:
        """Block positions of the rows from ``first`` to the last."""
        if first < self.start:
            raise IndexError(f"history row {first} was dropped (oldest kept is {self.start})")
        return slice(first - self.start, self.end - self.start)

    def compact(self, keep_from: int) -> None:
        """Drop the rows before ``keep_from``."""
        kept = self.rows(max(keep_from, self.start))
        n = kept.stop - kept.start
        X, y, labels = self.X, self.y, self.labels
        if 2 * n > len(y):
            capacity = 2 * len(y)
            X = np.empty((capacity, X.shape[1]))
            y = np.empty(capacity, dtype=np.int64)
            labels = np.empty((capacity, labels.shape[1]), dtype=np.int64)
        X[:n] = self.X[kept]
        y[:n] = self.y[kept]
        labels[:n] = self.labels[kept]
        self.X, self.y, self.labels = X, y, labels
        self.start = self.end - n


@dataclass
class FrozenModel:
    """A batch model between fits, with its labels for the rows of one read-ahead block from row ``first`` on."""

    model: object
    block: np.ndarray | None = None  # the block's features
    first: int = 0
    labels: list[int] = field(default_factory=list)

    def label(self, block: np.ndarray, i: int) -> int:
        """The label of block row ``i``; a miss labels the rest of the block in one call."""
        if block is not self.block or i < self.first:
            labels = self.model.predict_labels(block[i:])  # on failure the cache stays as it was
            self.block, self.first, self.labels = block, i, labels.tolist()
        return self.labels[i - self.first]


@dataclass
class _Shadow:
    model: object
    started_at: int  # it is judged on the rows after this one


_PREDICT_FAILED = "member %s failed to predict, falling back to class 0"
_SOLO_WEIGHTS = np.ones(1)  # a one-member run's weights at every step

#: The phases whose swallowed failures a member counts; "learn" covers its fits and drift checks.
FAILURE_PHASES = ("predict", "shadow_predict", "learn")


class OnlineMember:
    """An online learner: predicts one row, then learns it."""

    def __init__(self, spec: MemberSpec, schema: Schema) -> None:
        self.spec = spec
        self.model = spec.new_model(schema)
        self.failures = dict.fromkeys(FAILURE_PHASES, 0)

    def predict(self, inst: Instance, block: np.ndarray, i: int) -> int:
        return self.model.predict(inst.x)

    def learn(self, inst: Instance, events: list) -> None:
        self.model.learn_one(inst.x, inst.y)


class Member:
    """A batch learner: warm-up, then serving with drift checks, then a shadow under comparison.

    Its cache is the history rows from ``cache_start`` on, at most the last
    ``cache_limit``: ``cache_cap``, or ``window_size`` for a last-window member
    after its first fit.
    """

    def __init__(
        self, spec: MemberSpec, schema: Schema, config: EnsembleConfig, seed: int, history: History, index: int
    ) -> None:
        self.spec = spec
        self.schema = schema
        self.config = config
        self.seed = seed
        self.history = history
        self.index = index  # this member's column of history.labels
        self.strategy = spec.strategy
        self.check_rows = 2 * self.strategy.window_size if self.strategy.monitors_any else 0  # a drift check's rows
        # A bad param fails here, before the stream starts.
        self.incumbent = FrozenModel(spec.new_model(schema, seed=seed))
        self.fitted = False
        self.shadow: _Shadow | None = None
        own = self.strategy.first_fit_size
        self.first_fit_size = config.first_fit_size if own is None else own
        self.cache_start = 0
        self.cache_limit = config.cache_cap
        self._cache_warned = False
        self.failures = dict.fromkeys(FAILURE_PHASES, 0)

    def predict(self, inst: Instance, block: np.ndarray, i: int) -> int:
        if not self.fitted:  # warm-up: the majority class so far
            return argmax_tiebreak(self.history.class_counts)
        return self.incumbent.label(block, i)

    def first_readable(self) -> int:
        """The oldest history row this member can still read."""
        end = self.history.end
        first = min(max(self.cache_start, end - self.cache_limit), end - self.check_rows)
        if self.shadow is not None:
            first = min(first, self.shadow.started_at + 1)
        return first

    def learn(self, inst: Instance, events: list) -> None:
        strategy = self.strategy
        self._cache_append()
        if not self.fitted:  # warm-up: fit on the check grid until a fit succeeds
            if self._on_grid():
                self.incumbent.model.fit(*self._cache_arrays())
                self.fitted = True
                if strategy.retrain_scope == LAST_WINDOW:
                    self._trim_cache(strategy.window_size)
        elif self.shadow is not None:  # comparing
            self._shadow_step(inst, events)
        elif self._on_grid() and self.history.end >= self.check_rows:
            # serving, with a drift check due once two windows of rows exist
            verdict = check_windows(self._window_pair(), strategy, self.schema)
            if verdict.drifted:
                self._retrain(inst.seq, verdict.triggers, events)

    def _cache_append(self) -> None:
        """Warn once when the newest row pushes the cache past ``cache_cap``, where the cap limits it:
        in warm-up, or for a since-last-replacement member (a last-window member drops rows by design)."""
        cap, strategy = self.config.cache_cap, self.strategy
        if (not self._cache_warned and self.history.end - self.cache_start > cap
                and (not self.fitted or strategy.retrain_scope != LAST_WINDOW)):
            logger.warning("member %s cache reached its cap of %d instances, dropping oldest", self.spec.id, cap)
            self._cache_warned = True

    def _cache_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        history = self.history
        rows = history.rows(max(self.cache_start, history.end - self.cache_limit))
        return history.X[rows], history.y[rows]

    def _trim_cache(self, size: int) -> None:
        self.cache_limit = size

    def _on_grid(self) -> bool:
        """Whether the newest row is a multiple of ``window_size`` rows past the warm-up."""
        end = self.history.end
        return end >= self.first_fit_size and (end - self.first_fit_size) % self.strategy.window_size == 0

    def _window_pair(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The last two windows of history rows as one block: features, labels and this member's predictions."""
        history = self.history
        rows = history.rows(history.end - self.check_rows)
        return history.X[rows], history.y[rows], history.labels[rows, self.index]

    def _retrain(self, seq: int, triggers: tuple[Trigger, ...], events: list) -> None:
        model = self.spec.new_model(self.schema, seed=self.seed)
        model.fit(*self._cache_arrays())
        self.shadow = _Shadow(model, started_at=seq)
        events.append(DriftEvent(seq=seq, member_id=self.spec.id, triggers=triggers))

    def _pair_metric(self, y_true: np.ndarray, y_pred: Sequence[int]) -> float:
        if self.config.shadow_metric == "accuracy":
            return np.count_nonzero(y_true == y_pred) / len(y_true)
        return f1_from_pairs(y_true, y_pred, self.schema.n_classes)

    def _shadow_step(self, inst: Instance, events: list) -> None:
        shadow, history = self.shadow, self.history
        rows = history.rows(shadow.started_at + 1)
        y = history.y[rows]
        if len(y) < self.config.shadow_eval_size:
            return
        try:
            labels = shadow.model.predict_labels(history.X[rows])
        except Exception:
            logger.warning(_PREDICT_FAILED, f"{self.spec.id} shadow", exc_info=True)
            self.failures["shadow_predict"] += 1
            labels = np.zeros_like(y)
        if self._pair_metric(y, labels) > self._pair_metric(y, history.labels[rows, self.index]):
            self.incumbent = FrozenModel(shadow.model)
            events.append(ReplacementEvent(seq=inst.seq, member_id=self.spec.id))
            if self.strategy.retrain_scope != LAST_WINDOW:
                self.cache_start = history.end
        self.shadow = None


class HybridEnsemble:
    """Runs the per-instance protocol over a fixed set of members."""

    def __init__(self, schema: Schema, config: EnsembleConfig) -> None:
        self.schema = schema
        self.config = config
        self.history = History(schema.n_features, len(config.members), schema.n_classes)
        seeds = np.random.SeedSequence(config.seed).generate_state(len(config.members))
        self.members = [
            OnlineMember(spec, schema) if spec.kind == ONLINE
            else Member(spec, schema, config, int(seed), self.history, i)
            for i, (spec, seed) in enumerate(zip(config.members, seeds))
        ]
        self.combiner = Combiner(len(self.members), schema.n_classes, config.score_window, config.combiner)
        # A row is stored only while one of these may read it (step 4 of the module docstring).
        self._readers = [m for m in self.members if isinstance(m, Member)]
        self._learners = list(self.members)  # the members whose learn has work to do
        self._train_once = [m for m in self._readers if not m.check_rows]  # they leave both lists once fitted
        self._next_seq = 0
        self._ahead: list[Instance] = []  # the rows read ahead, and their features
        self._ahead_X = np.empty((0, schema.n_features))

    def lookahead(self, instances: Sequence[Instance]) -> None:
        """Read the next rows ahead, for frozen models to label in one call each.

        Only their features are stored. Each row must still go through
        ``process_instance`` in order; a row that is not one of these very
        instances is read ahead on its own. No row is taken when one has the
        wrong width or a label that is no integer class index (a bool is none),
        which raise ``SchemaError``, or a non-finite feature (``DataError``).
        """
        for inst in instances:
            if len(inst.x) != self.schema.n_features:
                raise SchemaError(f"instance {inst.seq} has {len(inst.x)} features, expected {self.schema.n_features}")
            if not (is_number(inst.y, integral=True) and 0 <= inst.y < self.schema.n_classes):
                raise SchemaError(
                    f"instance {inst.seq} has label {inst.y!r}, not a class index below {self.schema.n_classes}")
        X = np.array([inst.x for inst in instances], dtype=float)
        if not (finite := np.isfinite(X)).all():
            raise DataError(f"instance {instances[finite.all(axis=1).argmin()].seq} has a non-finite feature")
        self._ahead = list(instances)
        self._ahead_X = X

    def process_instance(self, inst: Instance) -> StepResult:
        if inst.seq != self._next_seq:
            raise ValueError(f"expected seq {self._next_seq}, got {inst.seq}")
        ahead = self._ahead
        i = inst.seq - ahead[0].seq if ahead else 0
        if not (0 <= i < len(ahead) and ahead[i] is inst):
            self.lookahead([inst])  # checks a row not read ahead
            i = 0
        self._next_seq += 1

        labels = []
        for member in self.members:
            try:
                label = member.predict(inst, self._ahead_X, i)
            except Exception:
                logger.warning(_PREDICT_FAILED, member.spec.id, exc_info=True)
                member.failures["predict"] += 1
                label = 0
            labels.append(label)
        member_labels = tuple(labels)
        weights, final = self.combiner.step(inst.y, member_labels)

        history, readers = self.history, self._readers
        if not readers:  # nothing reads the row: it is passed over, not stored
            history.start = history.end = history.end + 1
        else:
            if history.end - history.start == len(history.y):
                history.compact(min(m.first_readable() for m in readers))
            history.append(inst.x, inst.y, member_labels)
        events: list = []
        for member in self._learners:
            try:
                member.learn(inst, events)
            except Exception:
                logger.warning("member %s failed to learn", member.spec.id, exc_info=True)
                member.failures["learn"] += 1
        if self._train_once:  # a member that monitors nothing reads no row once fitted
            for member in [m for m in self._train_once if m.fitted]:
                for group in (self._train_once, self._readers, self._learners):
                    group.remove(member)
        return StepResult(seq=inst.seq, y_true=inst.y, final_label=final, member_labels=member_labels,
                          weights=weights, events=events)

    @property
    def failures(self) -> dict[str, dict[str, int]]:
        """The swallowed failures so far, per member id and phase (see ``FAILURE_PHASES``)."""
        return {m.spec.id: dict(m.failures) for m in self.members}
