"""Matrix-factorization backbone: embeddings, scoring, Adam training.

The trainer is loss-agnostic: it turns per-score partials from
:mod:`recloss.losses` into embedding gradients via the chain rule (including
the cosine-normalization Jacobian), adds an L2 term over the rows touched by
the batch, and applies lazily-updated Adam steps.  Learning rate follows a
reduce-on-plateau schedule keyed on validation Recall@20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import metrics
from .data import CSRRows, InteractionDataset, make_validation_split
from .losses import DEBIASED_KINDS, LOSS_KINDS, ScoreBundle, debias_params, evaluate_loss, positive_prior_all
from .sampling import BatchSampler, SamplerConfig, substream

NORM_FLOOR = 1e-12

# Losses trained on temperature-scaled cosine scores unless overridden.
COSINE_DEFAULT_KINDS = ("mine_plus", "ccl", "debiased_ccl")


class TrainingDivergedError(RuntimeError):
    """Raised when a batch produces a non-finite loss or gradient."""


@dataclass
class ScoringModel:
    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    mode: str = "dot"
    temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in ("dot", "cosine"):
            raise ValueError("mode must be 'dot' or 'cosine'")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        self.user_embeddings = np.ascontiguousarray(self.user_embeddings, dtype=float)
        self.item_embeddings = np.ascontiguousarray(self.item_embeddings, dtype=float)
        if self.user_embeddings.ndim != 2 or self.item_embeddings.ndim != 2:
            raise ValueError("embeddings must be 2-d")
        if self.user_embeddings.shape[1] != self.item_embeddings.shape[1]:
            raise ValueError("user and item embedding dims differ")

    @property
    def num_users(self) -> int:
        return self.user_embeddings.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.user_embeddings.shape[1]

    def score(self, u: int, i: int) -> float:
        return float(self.score_items(np.array([u]), np.array([[i]]))[0, 0])

    def score_items(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores for (B,) users against (B, K) item index rows."""
        U, V = self.user_embeddings[users], self.item_embeddings[items]
        if self.mode == "dot":
            return np.einsum("bd,bkd->bk", U, V)
        return np.einsum("bd,bkd->bk", _unit_rows(U)[0], _unit_rows(V)[0]) / self.temperature

    def score_all(self, u: int) -> np.ndarray:
        """Scores of user u against the full catalog."""
        return self.score_block(np.array([u]))[0]

    def score_block(self, users: np.ndarray) -> np.ndarray:
        """(B, num_items) score matrix for a block of users."""
        U = self.user_embeddings[users]
        if self.mode == "dot":
            return U @ self.item_embeddings.T
        un = U / np.maximum(np.linalg.norm(U, axis=1, keepdims=True), NORM_FLOOR)
        norms = np.maximum(np.linalg.norm(self.item_embeddings, axis=1), NORM_FLOOR)
        return (un @ self.item_embeddings.T) / (norms * self.temperature)

    def copy(self) -> "ScoringModel":
        return ScoringModel(
            self.user_embeddings.copy(), self.item_embeddings.copy(),
            self.mode, self.temperature,
        )


def init_model(
    num_users: int,
    num_items: int,
    d: int,
    seed: int = 0,
    init_std: float = 0.01,
    mode: str = "dot",
    temperature: float = 1.0,
) -> ScoringModel:
    """Gaussian(0, init_std^2) embeddings, deterministic per seed."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if init_std <= 0:
        raise ValueError("init_std must be positive")
    rng = substream(seed, "init")
    return ScoringModel(
        rng.normal(0.0, init_std, size=(num_users, d)),
        rng.normal(0.0, init_std, size=(num_items, d)),
        mode=mode,
        temperature=temperature,
    )


def _unit_rows(x: np.ndarray):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    clamped = np.maximum(norms, NORM_FLOOR)
    return x / clamped, clamped, norms <= NORM_FLOOR


@dataclass
class GradBundle:
    """Batch objective value plus gradients on the touched embedding rows."""

    value: float
    user_rows: np.ndarray
    user_grads: np.ndarray
    item_rows: np.ndarray
    item_grads: np.ndarray


def batch_objective(
    model: ScoringModel,
    users: np.ndarray,
    pos_items: np.ndarray,
    neg_items: np.ndarray | None,
    extra_items: np.ndarray | None,
    kind: str,
    loss_params: dict | None = None,
    tau_plus: np.ndarray | None = None,
    l2_weight: float = 0.0,
) -> GradBundle:
    """Mean pair loss over the batch plus l2_weight times the mean squared
    norm of the touched embedding rows, with exact gradients."""
    users = np.asarray(users)
    b = len(users)
    # one (B, K) item matrix: column 0 the positive, then negatives, then extra positives
    items = np.concatenate(
        [np.reshape(pos_items, (b, 1))] + [a for a in (neg_items, extra_items) if a is not None],
        axis=1,
    )
    neg_end = 1 if neg_items is None else 1 + neg_items.shape[1]
    uniq_u, inv_u = np.unique(users, return_inverse=True)
    uniq_i, inv_i = np.unique(items, return_inverse=True)
    inv_i = inv_i.reshape(items.shape)
    U = model.user_embeddings[uniq_u]
    V = model.item_embeddings[uniq_i]
    cosine = model.mode == "cosine"
    if cosine:
        Un, cu, small_u = _unit_rows(U)
        Vn, cv, small_v = _unit_rows(V)
    else:
        Un, Vn = U, V
    cos = np.einsum("bd,bkd->bk", Un[inv_u], Vn[inv_i])
    y = cos / model.temperature if cosine else cos

    bundle = ScoreBundle(y[:, 0], y[:, 1:neg_end], y[:, neg_end:])
    ev = evaluate_loss(kind, bundle, loss_params, tau_plus=tau_plus)

    # Per-score partials of the batch mean as a sparse (unique users x unique
    # items) matrix: each batch row's K entries sit in its user's row, and the
    # sparse products sum repeated (user, item) entries.
    D = np.concatenate(
        [np.reshape(ev.d_pos, (b, 1)), np.reshape(ev.d_unlabeled, (b, -1)),
         np.reshape(ev.d_extra_pos, (b, -1))],
        axis=1,
    ) / b
    by_user = np.argsort(inv_u, kind="stable")
    A = sparse.csr_array(
        (D[by_user].ravel(), inv_i[by_user].ravel(),
         np.concatenate([[0], np.cumsum(np.bincount(inv_u) * items.shape[1])])),
        shape=(len(uniq_u), len(uniq_i)),
    )
    # dot: dy/du = v and dy/dv = u, so the chain rule is one sparse product each way
    gu = A @ Vn
    gi = A.T @ Un
    if cosine:
        # dy/du = (v_hat - cos u_hat) / (t ||u||) and symmetrically for v: the
        # projection term needs only the per-row sums of D * cos.  Below the
        # norm floor the normalizer is the constant floor, so it vanishes.
        Dc = D * cos
        su = np.bincount(inv_u, Dc.sum(axis=1), minlength=len(uniq_u))[:, None]
        si = np.bincount(inv_i.ravel(), Dc.ravel(), minlength=len(uniq_i))[:, None]
        gu = (gu - np.where(small_u, 0.0, su * Un)) / (model.temperature * cu)
        gi = (gi - np.where(small_v, 0.0, si * Vn)) / (model.temperature * cv)

    value = float(np.mean(ev.value))
    if l2_weight > 0:
        n_rows = len(uniq_u) + len(uniq_i)
        value += l2_weight * (np.sum(U**2) + np.sum(V**2)) / n_rows
        gu += (2.0 * l2_weight / n_rows) * U
        gi += (2.0 * l2_weight / n_rows) * V
    return GradBundle(value, uniq_u, gu, uniq_i, gi)


@dataclass
class OptimizerState:
    """Adam accumulators for both embedding matrices, shared global step."""

    m_user: np.ndarray
    v_user: np.ndarray
    m_item: np.ndarray
    v_item: np.ndarray
    step: int = 0

    @classmethod
    def for_model(cls, model: ScoringModel) -> "OptimizerState":
        return cls(
            np.zeros_like(model.user_embeddings),
            np.zeros_like(model.user_embeddings),
            np.zeros_like(model.item_embeddings),
            np.zeros_like(model.item_embeddings),
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(model: ScoringModel, state: OptimizerState, grads: GradBundle, lr: float) -> None:
    """One bias-corrected Adam update, touching only the rows in grads."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for rows, g, m, v, theta in (
        (grads.user_rows, grads.user_grads, state.m_user, state.v_user, model.user_embeddings),
        (grads.item_rows, grads.item_grads, state.m_item, state.v_item, model.item_embeddings),
    ):
        m[rows] = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * g
        v[rows] = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * g**2
        theta[rows] -= lr * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + ADAM_EPS)


@dataclass
class TrainConfig:
    embedding_dim: int = 64
    loss: str = "bpr"
    loss_params: dict = field(default_factory=dict)
    sampler: SamplerConfig | None = None
    batch_size: int = 512
    initial_lr: float = 1e-4
    plateau_factor: float = 0.5
    plateau_patience: int = 3
    plateau_threshold: float = 1e-4
    min_lr: float = 1e-6
    l2_weight: float = 0.0
    max_epochs: int = 100
    seed: int = 0
    mode: str | None = None
    temperature: float = 1.0
    init_std: float = 0.01
    val_fraction: float = 0.1
    eval_k: int = 20

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSS_KINDS}")
        for name in ("embedding_dim", "batch_size", "max_epochs", "eval_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_factor must lie in (0, 1)")
        if self.min_lr >= self.initial_lr:
            raise ValueError("min_lr must be below initial_lr")
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be non-negative")
        if self.sampler is None and self.loss != "mse":
            self.sampler = SamplerConfig(kind="uniform_all_items")
        if self.loss in DEBIASED_KINDS:
            if self.sampler is None or self.sampler.m_positives < 1:
                raise ValueError(f"{self.loss} needs a sampler with m_positives >= 1")
        if self.mode is None:
            self.mode = "cosine" if self.loss in COSINE_DEFAULT_KINDS else "dot"
        if self.loss == "debiased_infonce":
            # the clamp floor exp(-1/t) bounds e^score only at the t the model scores with
            if self.loss_params.get("temperature", self.temperature) != self.temperature:
                raise ValueError(
                    "loss_params['temperature'] disagrees with the model temperature; "
                    "debiased_infonce takes its clamp temperature from train.temperature"
                )
            self.loss_params = {**self.loss_params, "temperature": self.temperature}


def _tau_vector(ds: InteractionDataset, cfg: TrainConfig) -> np.ndarray | None:
    if cfg.loss not in DEBIASED_KINDS:
        return None
    return positive_prior_all(ds, debias_params(cfg.loss_params))


def train_epoch(
    model: ScoringModel,
    state: OptimizerState,
    ds: InteractionDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    lr: float | None = None,
    tau_all: np.ndarray | None = None,
) -> float:
    """One pass over the shuffled training pairs; returns the mean batch objective."""
    pairs = ds.train_pairs()
    if len(pairs) == 0:
        raise ValueError("dataset has no train interactions")
    order = rng.permutation(len(pairs))
    sampler = BatchSampler(ds, cfg.sampler, rng) if cfg.sampler is not None else None
    if tau_all is None:
        tau_all = _tau_vector(ds, cfg)
    lr = cfg.initial_lr if lr is None else lr

    total, n_batches = 0.0, 0
    for start in range(0, len(pairs), cfg.batch_size):
        chunk = pairs[order[start:start + cfg.batch_size]]
        users, pos = chunk[:, 0], chunk[:, 1]
        negs = sampler.negatives(users) if sampler is not None else None
        extras = (
            sampler.extra_positives(users)
            if sampler is not None and cfg.sampler.m_positives > 0
            else None
        )
        tau = tau_all[users] if tau_all is not None else None
        grads = batch_objective(
            model, users, pos, negs, extras,
            cfg.loss, cfg.loss_params, tau, cfg.l2_weight,
        )
        if not (math.isfinite(grads.value) and np.isfinite(grads.user_grads).all()
                and np.isfinite(grads.item_grads).all()):
            raise TrainingDivergedError(
                f"non-finite loss or gradient (loss {grads.value}) for {cfg.loss} at batch "
                f"{n_batches} with lr {lr:g}; reduce the learning rate or check the loss parameters"
            )
        adam_step(model, state, grads, lr)
        total += grads.value
        n_batches += 1
    return total / n_batches


class PlateauSchedule:
    """Halve the lr after `patience` epochs without metric improvement."""

    def __init__(self, initial_lr: float, factor: float = 0.5, patience: int = 3,
                 threshold: float = 1e-4, min_lr: float = 1e-6):
        self.lr = initial_lr
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best = -math.inf
        self.bad_epochs = 0

    def observe(self, metric: float) -> float:
        """Record one epoch's metric; returns the lr to use next."""
        if metric > self.best + self.threshold:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
        return self.lr

    @property
    def stopped(self) -> bool:
        return self.lr < self.min_lr


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_recall20: float
    val_ndcg20: float
    lr: float


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, rec: EpochRecord) -> None:
        if self.records and rec.lr > self.records[-1].lr:
            raise ValueError("learning rate must be non-increasing")
        self.records.append(rec)

    def best_epoch(self) -> EpochRecord:
        return max(self.records, key=lambda r: r.val_recall20)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,loss,val_recall20,val_ndcg20,lr\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.loss:.10g},{r.val_recall20:.10g},{r.val_ndcg20:.10g},{r.lr:.10g}\n")


def fit(
    ds: InteractionDataset,
    cfg: TrainConfig,
    val_positives: CSRRows | list[np.ndarray] | None = None,
) -> tuple[ScoringModel, TrainingHistory]:
    """Train with plateau scheduling; returns the best-validation snapshot.

    When ``val_positives`` is None a fraction of each user's train items is
    held out for validation and the model is trained on the remainder.
    """
    if val_positives is None:
        train_ds, val_positives = make_validation_split(ds, cfg.val_fraction, cfg.seed)
    else:
        train_ds = ds
    model = init_model(
        train_ds.num_users, train_ds.num_items, cfg.embedding_dim,
        seed=cfg.seed, init_std=cfg.init_std,
        mode=cfg.mode, temperature=cfg.temperature,
    )
    state = OptimizerState.for_model(model)
    schedule = PlateauSchedule(
        cfg.initial_lr, cfg.plateau_factor, cfg.plateau_patience,
        cfg.plateau_threshold, cfg.min_lr,
    )
    # one generator drives both shuffling and negative draws so epochs differ
    epoch_rng = substream(cfg.seed, "sampling")
    tau_all = _tau_vector(train_ds, cfg)
    history = TrainingHistory()
    best_recall, best_model = -1.0, model.copy()

    for epoch in range(1, cfg.max_epochs + 1):
        lr = schedule.lr
        mean_loss = train_epoch(model, state, train_ds, cfg, epoch_rng, lr=lr, tau_all=tau_all)
        res = metrics.evaluate(model, train_ds, val_positives, k=cfg.eval_k)
        history.append(EpochRecord(epoch, mean_loss, res.recall, res.ndcg, lr))
        if res.recall > best_recall:
            best_recall = res.recall
            best_model = model.copy()
        schedule.observe(res.recall)
        if schedule.stopped:
            break
    return best_model, history
